//! Integration tests for the `campaign` / `assess` / `repro` binaries, plus
//! the bad-flag contract every binary shares.

use pufbits::BitVec;
use puftestbed::{BoardId, CalendarDate, Record, Timestamp};
use std::process::Command;

mod common;
use common::Scratch;

#[test]
fn campaign_then_assess_round_trip() {
    let dir = Scratch::new("campaign_then_assess_round_trip");
    let records = dir.join("records.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--out",
            records.to_str().unwrap(),
            "--boards",
            "3",
            "--months",
            "1",
            "--reads",
            "15",
            "--read-bits",
            "256",
            "--seed",
            "99",
        ])
        .output()
        .expect("campaign runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("90 records"), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_assess"))
        .args(["--in", records.to_str().unwrap(), "--reads", "15"])
        .output()
        .expect("assess runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I"), "{stdout}");
    assert!(stdout.contains("WCHD"));
    assert!(stdout.contains("fitted hidden-variable model"));
}

#[test]
fn assess_writes_csv_artifacts() {
    let dir = Scratch::new("assess_writes_csv_artifacts");
    let records = dir.join("csv_records.jsonl");
    let prefix = dir.join("csv_out");
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--out",
            records.to_str().unwrap(),
            "--boards",
            "2",
            "--months",
            "1",
            "--reads",
            "10",
            "--read-bits",
            "128",
        ])
        .output()
        .expect("campaign runs");
    let out = Command::new(env!("CARGO_BIN_EXE_assess"))
        .args([
            "--in",
            records.to_str().unwrap(),
            "--reads",
            "10",
            "--csv",
            prefix.to_str().unwrap(),
        ])
        .output()
        .expect("assess runs");
    assert!(out.status.success());
    let devices_csv = format!("{}_devices.csv", prefix.display());
    let contents = std::fs::read_to_string(&devices_csv).expect("csv written");
    assert!(contents.starts_with("device,month"));
}

#[test]
fn repro_smoke_produces_all_artifacts() {
    let dir = Scratch::new("repro_smoke_produces_all_artifacts");
    let out_dir = dir.join("repro_out");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "smoke", "--all", "--seed", "5"])
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for artifact in [
        "Fig. 3",
        "Fig. 4",
        "Fig. 5",
        "Fig. 6",
        "Table I",
        "accelerated",
    ] {
        assert!(stdout.contains(artifact), "missing {artifact}");
    }
    // The pgm lands under --out-dir, never in the working directory.
    assert!(out_dir.join("fig4_startup_pattern.pgm").exists());
    assert!(!std::env::temp_dir()
        .join("fig4_startup_pattern.pgm")
        .exists());
}

#[test]
fn campaign_threads_flag_is_record_identical() {
    let dir = Scratch::new("campaign_threads_flag_is_record_identical");
    let common = [
        "--boards",
        "5",
        "--months",
        "1",
        "--reads",
        "12",
        "--read-bits",
        "200",
        "--seed",
        "44",
        "--nack-rate",
        "0.05",
    ];
    let mut files = Vec::new();
    for threads in ["1", "4"] {
        let records = dir.join(&format!("threads{threads}.jsonl"));
        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["--out", records.to_str().unwrap(), "--threads", threads])
            .args(common)
            .output()
            .expect("campaign runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        files.push(std::fs::read(&records).expect("records written"));
    }
    assert!(!files[0].is_empty());
    assert_eq!(files[0], files[1], "thread count changed the record bytes");
}

#[test]
fn assess_accepts_threads_flag() {
    let dir = Scratch::new("assess_accepts_threads_flag");
    let records = dir.join("assess_threads.jsonl");
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--out",
            records.to_str().unwrap(),
            "--boards",
            "2",
            "--months",
            "1",
            "--reads",
            "10",
            "--read-bits",
            "128",
        ])
        .output()
        .expect("campaign runs");
    let out = Command::new(env!("CARGO_BIN_EXE_assess"))
        .args([
            "--in",
            records.to_str().unwrap(),
            "--reads",
            "10",
            "--threads",
            "3",
        ])
        .output()
        .expect("assess runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table I"));
}

#[test]
fn binaries_reject_bad_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--bogus"])
        .output()
        .expect("campaign runs");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_assess"))
        .output()
        .expect("assess runs");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "galactic"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--out", "/dev/null", "--threads", "0"])
        .output()
        .expect("campaign runs");
    assert!(!out.status.success());
}

#[test]
fn every_binary_exits_2_without_a_panic_on_bad_flags() {
    let dir = Scratch::new("every_binary_exits_2_without_a_panic_on_bad_flags");
    // Each binary, the flags that take a value, and the numeric ones.
    let binaries: [(&str, &[&str], &[&str]); 7] = [
        (
            env!("CARGO_BIN_EXE_campaign"),
            &["--out"],
            &["--seed", "--threads"],
        ),
        (env!("CARGO_BIN_EXE_assess"), &["--in"], &["--threads"]),
        (env!("CARGO_BIN_EXE_convert"), &["--in"], &["--threads"]),
        (
            env!("CARGO_BIN_EXE_keylife"),
            &["--in"],
            &["--seed", "--threads"],
        ),
        (
            env!("CARGO_BIN_EXE_repro"),
            &["--scale"],
            &["--seed", "--threads"],
        ),
        (env!("CARGO_BIN_EXE_supervise"), &["--max-restarts"], &[]),
        (env!("CARGO_BIN_EXE_benchperf"), &["--out"], &["--seed"]),
    ];
    for (binary, value_flags, numeric_flags) in binaries {
        let mut runs = vec![vec!["--bogus"]];
        for &flag in value_flags.iter().chain(numeric_flags) {
            runs.push(vec![flag]);
        }
        for &flag in numeric_flags {
            runs.push(vec![flag, "abc"]);
        }
        for args in runs {
            let out = Command::new(binary)
                .args(&args)
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{binary} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{binary} {args:?}: {stderr}");
        }
    }
    // Values that parse but that the rig cannot wire: no boards, more boards
    // than two layers of slave addresses hold, an empty read window, no
    // reads per window, a halt before the first window; and flags that act
    // only through a checkpoint, given without one (on a small rig, so a
    // run that ignored them would end quickly).
    let records = dir.join("bad_rig.jsonl");
    let small_rig = [
        "--boards",
        "2",
        "--months",
        "2",
        "--reads",
        "2",
        "--read-bits",
        "64",
    ];
    let without_checkpoint: Vec<Vec<&str>> = [
        ["--halt-after-windows", "1"],
        ["--checkpoint-keep", "2"],
        ["--checkpoint-every", "0"],
    ]
    .iter()
    .map(|flag| [&small_rig[..], flag].concat())
    .collect();
    for args in [
        &["--boards", "0"][..],
        &["--boards", "209"],
        &["--read-bits", "0"],
        &["--reads", "0"],
        &[
            "--boards",
            "2",
            "--months",
            "1",
            "--reads",
            "2",
            "--read-bits",
            "64",
            "--halt-after-windows",
            "0",
        ],
    ]
    .into_iter()
    .chain(without_checkpoint.iter().map(Vec::as_slice))
    {
        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(args)
            .arg("--out")
            .arg(&records)
            .output()
            .expect("campaign runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "campaign {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "campaign {args:?}: {stderr}");
        assert!(!records.exists(), "campaign {args:?} wrote its output file");
        assert!(out.stdout.is_empty(), "campaign {args:?} printed to stdout");
    }
    let checkpoint = dir.join("halt_zero.pufchk");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "smoke", "--table1", "--halt-after-windows", "0"])
        .arg("--checkpoint-out")
        .arg(&checkpoint)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro: {stderr}");
    assert!(!stderr.contains("panicked"), "repro: {stderr}");
    assert!(
        stderr.contains("--halt-after-windows must be positive"),
        "{stderr}"
    );
    assert!(!checkpoint.exists(), "repro wrote its checkpoint");
    // Without a checkpoint a halted run could never be resumed.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "smoke", "--table1", "--halt-after-windows", "1"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro: {stderr}");
    assert!(!stderr.contains("panicked"), "repro: {stderr}");
    assert!(
        stderr.contains("--halt-after-windows needs --checkpoint-out FILE"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "repro printed artifacts");
    // A window of no reads is a usage error, not an input without windows.
    let input = reads_file(&dir, "zero_reads.jsonl", &[(0, 2, 64), (1, 2, 64)]);
    for binary in [env!("CARGO_BIN_EXE_assess"), env!("CARGO_BIN_EXE_keylife")] {
        let out = Command::new(binary)
            .args(["--in", input.to_str().unwrap(), "--reads", "0"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{binary} --reads 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{binary} --reads 0: {stderr}");
        assert!(stderr.contains("--reads must be positive"), "{stderr}");
    }
}

#[test]
fn repro_refuses_campaign_flags_without_a_campaign_artifact() {
    let dir = Scratch::new("repro_refuses_campaign_flags_without_a_campaign_artifact");
    // Only --fig5, --fig6 and --table1 run the campaign these flags act on;
    // with none of them selected the flags would be silently dropped.
    let records = dir.join("no_campaign.jsonl");
    let checkpoint = dir.join("no_campaign.pufchk");
    let (records_arg, checkpoint_arg) = (records.to_str().unwrap(), checkpoint.to_str().unwrap());
    for args in [
        &["--fig3", "--records-out", records_arg][..],
        &["--keylife", "--records-out", records_arg],
        &["--fig4", "--checkpoint-out", checkpoint_arg],
        &[
            "--accel",
            "--records-out",
            records_arg,
            "--resume-from",
            checkpoint_arg,
        ],
        &["--fig3", "--halt-after-windows", "1"],
        &["--fig3", "--io-faults", checkpoint_arg],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "smoke"])
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(stderr.contains("--fig5, --fig6 or --table1"), "{stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed artifacts");
        assert!(!records.exists(), "repro {args:?} wrote {records:?}");
        assert!(!checkpoint.exists(), "repro {args:?} wrote {checkpoint:?}");
    }
}

#[test]
fn repro_refuses_record_flags_without_records_out() {
    let dir = Scratch::new("repro_refuses_record_flags_without_records_out");
    // `--format` only shapes the --records-out file, and a checkpoint can
    // only be resumed together with the records file it accounts for.
    let checkpoint = dir.join("no_records.pufchk");
    let checkpoint_arg = checkpoint.to_str().unwrap();
    for (args, message) in [
        (
            &["--format", "binary"][..],
            "--format needs --records-out FILE",
        ),
        (
            &["--checkpoint-out", checkpoint_arg],
            "--checkpoint-out needs --records-out FILE",
        ),
        (
            &[
                "--checkpoint-out",
                checkpoint_arg,
                "--halt-after-windows",
                "1",
            ],
            "--checkpoint-out needs --records-out FILE",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "smoke", "--table1"])
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
        assert!(stderr.contains(message), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed artifacts");
        assert!(!checkpoint.exists(), "repro {args:?} wrote {checkpoint:?}");
    }
}

/// Writes one JSON-lines file of `(device, month, bits)` reads, each at
/// midnight of 2017-`month`-08.
fn reads_file(dir: &Scratch, name: &str, reads: &[(u8, u8, usize)]) -> std::path::PathBuf {
    let lines: String = reads
        .iter()
        .enumerate()
        .map(|(seq, &(device, month, bits))| {
            let record = Record::new(
                BoardId(device),
                seq as u64,
                Timestamp::from_date(CalendarDate::new(2017, month, 8)),
                BitVec::from_bits((0..bits).map(|i| i % (3 + usize::from(device)) == 0)),
            );
            record.to_json_line() + "\n"
        })
        .collect();
    let path = dir.join(name);
    std::fs::write(&path, lines).expect("records written");
    path
}

#[test]
fn assess_reports_a_single_month_without_table1() {
    let dir = Scratch::new("assess_reports_a_single_month_without_table1");
    // One evaluated month has no aging interval for Table I; the rest of the
    // report still prints.
    let input = reads_file(&dir, "one_month.jsonl", &[(0, 2, 1024), (1, 2, 1024)]);
    let out = Command::new(env!("CARGO_BIN_EXE_assess"))
        .args(["--in", input.to_str().unwrap(), "--reads", "1"])
        .output()
        .expect("assess runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stdout.contains("Table I needs at least two evaluated months"),
        "{stdout}"
    );
    assert!(
        stdout.contains("=== fitted hidden-variable model per device (month 0) ==="),
        "{stdout}"
    );
}

#[test]
fn assess_survives_read_width_changes_without_a_panic() {
    let dir = Scratch::new("assess_survives_read_width_changes_without_a_panic");
    // Device 0 changes width in March: that read is skipped, exit 0.
    // Devices of different widths: a typed assessment error, exit 1.
    let cases = [
        (
            "width_change.jsonl",
            &[(0, 2, 1024), (1, 2, 1024), (0, 3, 2048), (1, 3, 1024)][..],
            0,
        ),
        ("mixed_widths.jsonl", &[(0, 2, 1024), (1, 2, 2048)][..], 1),
    ];
    for (name, reads, code) in cases {
        let input = reads_file(&dir, name, reads);
        let out = Command::new(env!("CARGO_BIN_EXE_assess"))
            .args(["--in", input.to_str().unwrap(), "--reads", "1"])
            .output()
            .expect("assess runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        if code == 1 {
            assert!(stderr.contains("assessment failed"), "{name}: {stderr}");
        }
    }
}

#[test]
fn assess_skips_a_deeply_nested_line() {
    let dir = Scratch::new("assess_skips_a_deeply_nested_line");
    let clean = reads_file(
        &dir,
        "nesting_clean.jsonl",
        &[(0, 2, 1024), (1, 2, 1024), (0, 3, 1024), (1, 3, 1024)],
    );
    let text = std::fs::read_to_string(&clean).unwrap();
    let (first, rest) = text.split_once('\n').unwrap();
    let deep = dir.join("nesting_deep.jsonl");
    std::fs::write(&deep, format!("{first}\n{}\n{rest}", "[".repeat(100_000))).unwrap();
    let assess = |input: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_assess"))
            .args(["--in", input.to_str().unwrap(), "--reads", "1"])
            .output()
            .expect("assess runs")
    };
    let (want, got) = (assess(&clean), assess(&deep));
    let stderr = String::from_utf8_lossy(&got.stderr);
    assert_eq!(got.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("skipping malformed"), "{stderr}");
    assert!(
        stderr.contains("nesting deeper than 128 levels"),
        "{stderr}"
    );
    assert!(String::from_utf8_lossy(&want.stdout).contains("Table I"));
    assert_eq!(got.stdout, want.stdout);
}

#[test]
fn campaign_refuses_a_deeply_nested_plan() {
    let dir = Scratch::new("campaign_refuses_a_deeply_nested_plan");
    let plan = dir.join("nesting_plan.json");
    std::fs::write(&plan, "[".repeat(200_000)).unwrap();
    for (flag, message) in [
        ("--faults", "cannot load fault plan"),
        ("--io-faults", "cannot load I/O fault plan"),
    ] {
        let records = dir.join("nesting_plan_records.jsonl");
        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args([
                "--out",
                records.to_str().unwrap(),
                "--boards",
                "2",
                "--months",
                "1",
                "--reads",
                "2",
                "--read-bits",
                "64",
                flag,
                plan.to_str().unwrap(),
            ])
            .output()
            .expect("campaign runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(message), "{flag}: {stderr}");
        assert!(!records.exists(), "{flag}: records written");
    }
}
