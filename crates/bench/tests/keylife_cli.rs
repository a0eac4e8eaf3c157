//! CLI-level tests of the `keylife` binary: the fixed-seed faulted
//! pipeline reproduces the committed golden table *string-exactly*
//! (regenerate with `GOLDEN_UPDATE=1 cargo test -p pufbench --test
//! keylife_cli`), the output is byte-identical for every `--threads` value
//! and across the two storage formats, corrupt input is refused rather
//! than silently truncated, and the observed failure rates stay consistent
//! with the analytic WCHD bound.

use pufbits::BitVec;
use puftestbed::{BoardId, CalendarDate, Record, Timestamp};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, PoisonError};

mod common;
use common::Scratch;

/// Board 1 loses window 2 whole; board 2 suffers an I2C burst. The golden
/// table therefore locks the erasure accounting, not just the happy path.
const PLAN: &str = r#"{
    "brownouts": [{"board": 1, "from_window": 2, "until_window": 2}],
    "i2c_bursts": [{
        "board": 2, "from_window": 1, "until_window": 3,
        "nack_rate": 0.4, "corruption_rate": 0.2
    }]
}"#;

/// Writes the fixture `name` into `dir` and returns its path. The first
/// time this process asks for it, `make` writes it into a scratch
/// directory of its own, and its bytes are kept for the later tests. The
/// lock keeps parallel tests from making a fixture twice.
fn generated(dir: &Scratch, name: &str, make: impl FnOnce(&Path)) -> PathBuf {
    static MADE: Mutex<BTreeMap<String, Vec<u8>>> = Mutex::new(BTreeMap::new());
    let mut made = MADE.lock().unwrap_or_else(PoisonError::into_inner);
    let bytes = made.entry(name.to_string()).or_insert_with(|| {
        let scratch = Scratch::new(&format!("fixture_{name}"));
        let path = scratch.join(name);
        make(&path);
        std::fs::read(&path).expect("fixture written")
    });
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("fixture copied");
    path
}

/// Runs `campaign` into the fixture `name` in `dir`.
fn campaign_file(dir: &Scratch, name: &str, args: &[&str]) -> PathBuf {
    generated(dir, name, |out| {
        let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["--out", out.to_str().unwrap()])
            .args(args)
            .status()
            .expect("campaign binary runs");
        assert!(status.success());
    })
}

/// The fixed-seed faulted campaign in `format`, in `dir`.
fn record_file(dir: &Scratch, format: &str) -> PathBuf {
    let plan = generated(dir, "plan.json", |plan| {
        std::fs::write(plan, PLAN).expect("plan written");
    });
    campaign_file(
        dir,
        &format!("records_{format}"),
        &[
            "--format",
            format,
            "--boards",
            "4",
            "--months",
            "6",
            "--reads",
            "20",
            "--read-bits",
            "1024",
            "--seed",
            "2017",
            "--faults",
            plan.to_str().unwrap(),
        ],
    )
}

fn keylife(input: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_keylife"))
        .args([
            "--in",
            input.to_str().unwrap(),
            "--reads",
            "20",
            "--profiles",
            "golay-r5@12,polar-128-16@16",
            "--seed",
            "7",
        ])
        .args(extra)
        .output()
        .expect("keylife binary runs")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with GOLDEN_UPDATE=1 cargo test -p pufbench --test keylife_cli",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the golden copy; if the change is intentional, \
         regenerate with GOLDEN_UPDATE=1 and review the diff",
    );
}

#[test]
fn fixed_seed_faulted_table_matches_the_golden_file() {
    let dir = Scratch::new("fixed_seed_faulted_table_matches_the_golden_file");
    let out = keylife(&record_file(&dir, "json"), &["--threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    check_golden(
        "keylife_table.txt",
        &String::from_utf8(out.stdout).expect("utf-8 table"),
    );
}

#[test]
fn paper_profiles_with_failures_match_the_golden_file() {
    let dir = Scratch::new("paper_profiles_with_failures_match_the_golden_file");
    // The paper's 128-bit key under both profiles, where polar-512-128
    // fails to reconstruct a few reads a month: the failure counts must
    // merge across shards to the same table at every thread count.
    let records = campaign_file(
        &dir,
        "paper_records_binary",
        &[
            "--format",
            "binary",
            "--boards",
            "4",
            "--months",
            "3",
            "--reads",
            "50",
            "--read-bits",
            "8192",
            "--seed",
            "2017",
        ],
    );
    let mut outputs = Vec::new();
    for threads in ["1", "2", "3"] {
        let out = Command::new(env!("CARGO_BIN_EXE_keylife"))
            .args(["--in", records.to_str().unwrap()])
            .args(["--reads", "50", "--seed", "7", "--threads", threads])
            .args(["--profiles", "golay-r5@128,polar-512-128@128"])
            .output()
            .expect("keylife binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(String::from_utf8(out.stdout).expect("utf-8 table"));
    }
    assert_eq!(outputs[0], outputs[1], "thread count changed the table");
    assert_eq!(outputs[0], outputs[2], "thread count changed the table");
    check_golden("keylife_paper_profiles.txt", &outputs[0]);
}

#[test]
fn output_is_byte_identical_across_threads_and_formats() {
    let dir = Scratch::new("output_is_byte_identical_across_threads_and_formats");
    let mut outputs = Vec::new();
    for threads in ["1", "3", "7"] {
        let csv = dir.join(&format!("inv_{threads}.csv"));
        let out = keylife(
            &record_file(&dir, "json"),
            &["--threads", threads, "--csv", csv.to_str().unwrap()],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((out.stdout, std::fs::read(&csv).expect("csv written")));
    }
    let binary = keylife(&record_file(&dir, "binary"), &["--threads", "2"]);
    assert!(binary.status.success());
    for (stdout, csv) in &outputs {
        assert_eq!(stdout, &outputs[0].0, "thread count changed the table");
        assert_eq!(csv, &outputs[0].1, "thread count changed the CSV");
    }
    assert_eq!(
        binary.stdout, outputs[0].0,
        "storage format changed the table"
    );
}

#[test]
fn forcing_the_format_flag_matches_auto_detection() {
    let dir = Scratch::new("forcing_the_format_flag_matches_auto_detection");
    for format in ["json", "binary"] {
        let input = record_file(&dir, format);
        let auto = keylife(&input, &["--threads", "2"]);
        let forced = keylife(&input, &["--threads", "2", "--format", format]);
        for out in [&auto, &forced] {
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        assert_eq!(
            auto.stdout, forced.stdout,
            "--format {format} changed the table"
        );
    }
}

#[test]
fn output_is_byte_identical_across_batch_sizes() {
    let dir = Scratch::new("output_is_byte_identical_across_batch_sizes");
    // `--batch-lines` only changes how many lines each decode worker takes
    // per lock acquisition — and therefore where the scratch-reusing fast
    // parser's buffers reset. Batch size 1 forces a reset per record; the
    // report must not move by a byte.
    let mut outputs = Vec::new();
    for batch in ["1", "5", "256"] {
        let out = keylife(
            &record_file(&dir, "json"),
            &["--threads", "3", "--batch-lines", batch],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1], "batch size changed the table");
    assert_eq!(outputs[0], outputs[2], "batch size changed the table");
}

#[test]
fn observed_rates_are_consistent_with_the_analytic_bound() {
    let dir = Scratch::new("observed_rates_are_consistent_with_the_analytic_bound");
    let csv = dir.join("bound.csv");
    let out = keylife(
        &record_file(&dir, "json"),
        &["--csv", csv.to_str().unwrap()],
    );
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&csv).expect("csv written");
    let mut golay_rows = 0;
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let (profile, attempts, failures, bound) = (fields[0], fields[6], fields[7], fields[11]);
        if profile.starts_with("golay") && attempts != "0" {
            golay_rows += 1;
            let attempts: f64 = attempts.parse().unwrap();
            let failures: f64 = failures.parse().unwrap();
            let bound: f64 = bound.parse().expect("golay rows carry a bound");
            // The analytic bound at this month's worst-case WCHD is tiny
            // (≪ 1/attempts), so a consistent observation is zero decode
            // failures — anything more would be a >10⁶σ event.
            assert!(bound < 1e-6, "bound {bound} unexpectedly large");
            assert!(
                failures / attempts <= bound.max(0.5 / attempts),
                "observed {failures}/{attempts} inconsistent with bound {bound}"
            );
        }
        if profile.starts_with("polar") {
            assert_eq!(fields[11], "-", "polar has no analytic bound");
        }
    }
    assert!(golay_rows > 0, "no golay rows in {csv}");
}

#[test]
fn corrupt_input_is_refused_not_truncated() {
    let dir = Scratch::new("corrupt_input_is_refused_not_truncated");
    // A record file with a torn line in the middle: statistics over the
    // readable prefix would silently understate the failure rate.
    let source = std::fs::read_to_string(record_file(&dir, "json")).expect("records readable");
    let mut lines: Vec<&str> = source.lines().collect();
    let mid = lines.len() / 2;
    lines[mid] = "{\"torn\": tru";
    let corrupt = dir.join("corrupt.jsonl");
    std::fs::write(&corrupt, lines.join("\n")).expect("corrupt file written");

    let out = keylife(&corrupt, &[]);
    assert!(!out.status.success(), "corrupt input must be refused");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("refusing corrupt input"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_arguments_are_rejected() {
    let dir = Scratch::new("bad_arguments_are_rejected");
    let out = keylife(&record_file(&dir, "json"), &["--profiles", "bch-63"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid key profile"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_keylife"))
        .args(["--threads", "2"])
        .output()
        .expect("keylife binary runs");
    assert!(!out.status.success(), "--in is required");
}

#[test]
fn oversized_code_profiles_exit_2_instead_of_allocating() {
    let dir = Scratch::new("oversized_code_profiles_exit_2_instead_of_allocating");
    // A 2^30-bit polar block is refused by the codeword cap while the
    // profile list is parsed, with the ordinary invalid-profile message.
    let out = keylife(
        &record_file(&dir, "json"),
        &["--profiles", "polar-1073741824-1@1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("invalid key profile"), "{stderr}");
    // So is a secret whose codeword length overflows usize.
    let out = keylife(
        &record_file(&dir, "json"),
        &["--profiles", "golay-r5@18446744073709551615"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("invalid key profile"), "{stderr}");
}

#[test]
fn a_device_whose_read_width_changes_is_skipped_not_a_panic() {
    let dir = Scratch::new("a_device_whose_read_width_changes_is_skipped_not_a_panic");
    // Device 0 enrolls from a 1 024-bit read on 2017-02-08; its 2 048-bit
    // read on 2017-03-08 cannot be compared with that reference.
    let lines: String = [(2u8, 1024usize), (3, 2048)]
        .into_iter()
        .enumerate()
        .map(|(seq, (month, bits))| {
            let record = Record::new(
                BoardId(0),
                seq as u64,
                Timestamp::from_date(CalendarDate::new(2017, month, 8)),
                BitVec::from_bits((0..bits).map(|i| i % 3 == 0)),
            );
            record.to_json_line() + "\n"
        })
        .collect();
    let input = dir.join("width_change.jsonl");
    std::fs::write(&input, lines).expect("records written");
    let out = Command::new(env!("CARGO_BIN_EXE_keylife"))
        .args(["--in", input.to_str().unwrap()])
        .args(["--reads", "5", "--profiles", "golay-r5@12"])
        .output()
        .expect("keylife binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("records: 2 seen, 1 folded"), "{stdout}");
}
