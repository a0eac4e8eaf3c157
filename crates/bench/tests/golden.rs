//! Golden-file regression tests: the fixed-seed smoke-scale pipeline must
//! reproduce the committed Table I, aggregate CSV, and Fig. 6 summary
//! *string-exactly*, and `repro --accel` its nominal-vs-accelerated
//! comparison. Any drift in the cell model, aging model, campaign engine,
//! merge order, statistics, or report formatting shows up as a diff here.
//! Four SHA-256 digests of campaign records pin the raw read-out bits too,
//! so a change that draws the RNG differently fails here even when every
//! aggregate still rounds to the same text. A fifth pins the bytes of the
//! smoke campaign's `pufrec/1` file as the record file writer leaves it.
//!
//! When an intentional change moves the numbers, regenerate the files and
//! review the diff like any other code change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p pufbench --test golden
//! ```

use pufassess::report::{self, Series};
use pufbench::{run_assessment_streaming_with, FormatSink, Scale};
use pufkeygen::sha256;
use puftestbed::faults::{Brownout, I2cBurst, LayerSkew, StuckCluster};
use puftestbed::store::RecordFormat;
use puftestbed::{Campaign, CampaignConfig, FaultPlan};
use std::path::PathBuf;
use std::process::Command;

mod common;
use common::Scratch;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed golden file, or rewrites the
/// file when `GOLDEN_UPDATE=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with GOLDEN_UPDATE=1 cargo test -p pufbench --test golden",
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
fn fixed_seed_smoke_pipeline_matches_the_golden_files() {
    // Two threads on purpose: the goldens also lock in that the sharded
    // campaign and the deterministic merge stay thread-count invariant.
    let assessment = run_assessment_streaming_with(Scale::Smoke, 2017, 2, None);

    check_golden("table1.txt", &assessment.table1().render());
    check_golden("aggregates.csv", &report::aggregate_csv(&assessment));
    check_golden(
        "fig6_wchd.txt",
        &report::fig6_text(&assessment, Series::Wchd, 40),
    );
}

/// SHA-256 of `bytes`, as one line of lowercase hex.
fn digest_line(bytes: &[u8]) -> String {
    let hex: String = sha256::digest(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    hex + "\n"
}

/// SHA-256, as one line of lowercase hex, of the JSON lines a two-thread
/// campaign writes.
fn records_digest(config: CampaignConfig, seed: u64) -> String {
    let lines: String = Campaign::new(config, seed)
        .threads(2)
        .run_in_memory()
        .iter()
        .map(|r| r.to_json_line() + "\n")
        .collect();
    digest_line(lines.as_bytes())
}

#[test]
fn record_files_match_the_golden_digests_in_both_formats() {
    // The files the CLIs write, through the record file writer: the JSON
    // file hashes like the in-memory lines above, and the `pufrec/1` file
    // pins the header (with the declared read width) and every frame.
    let dir = Scratch::new("record_files_match_the_golden_digests_in_both_formats");
    let config = Scale::Smoke.campaign_config();
    let read_bits = u32::try_from(config.read_bits).expect("width fits u32");
    for (format, golden) in [
        (RecordFormat::Json, "smoke_records.sha256"),
        (RecordFormat::Binary, "smoke_records_pufrec.sha256"),
    ] {
        let path = dir.join(&format!("records.{format}"));
        let mut sink = FormatSink::create(&path, format, read_bits).expect("file created");
        Campaign::new(config.clone(), 2017)
            .threads(2)
            .run(&mut sink)
            .expect("campaign runs");
        sink.finish().expect("file published");
        check_golden(
            golden,
            &digest_line(&std::fs::read(&path).expect("file read")),
        );
    }
}

#[test]
fn campaign_read_out_bits_match_the_golden_digests() {
    check_golden(
        "smoke_records.sha256",
        &records_digest(Scale::Smoke.campaign_config(), 2017),
    );
    // Faults, retries and drops on every board; the odd read width leaves
    // an odd noise block and a partial last byte in every read-out.
    let faulted = CampaignConfig {
        boards: 6,
        sram_bits: 512,
        read_bits: 301,
        months: 2,
        reads_per_window: 15,
        i2c_nack_rate: 0.1,
        i2c_corruption_rate: 0.05,
        i2c_retries: 4,
        ..CampaignConfig::default()
    };
    check_golden(
        "faulted_records.sha256",
        &records_digest(faulted.clone(), 7),
    );
    // 150-read windows span several of the engine's read batches, with a
    // brownout, a burst, a stuck cluster and a skewed layer inside them.
    let batched = CampaignConfig {
        boards: 5,
        reads_per_window: 150,
        i2c_retries: 1,
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(3),
                from_window: 1,
                until_window: 1,
            }],
            i2c_bursts: vec![I2cBurst {
                board: Some(1),
                from_window: 0,
                until_window: 2,
                nack_rate: 0.3,
                corruption_rate: 0.2,
            }],
            stuck_clusters: vec![StuckCluster {
                board: 0,
                cell: 64,
                len: 32,
                value: true,
                from_window: 1,
            }],
            clock_skew: vec![LayerSkew {
                layer: 1,
                skew_s: 120.0,
            }],
        },
        ..faulted
    };
    check_golden("batched_records.sha256", &records_digest(batched, 7));
    // The paper's geometry: 8 192-bit reads of 20 480-cell arrays, two
    // noise blocks per read, on all 16 boards.
    let paper_width = CampaignConfig {
        months: 1,
        reads_per_window: 20,
        ..CampaignConfig::default()
    };
    check_golden(
        "paper_width_records.sha256",
        &records_digest(paper_width, 2017),
    );
}

#[test]
fn repro_accel_stdout_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--accel")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    check_golden(
        "accel.txt",
        &String::from_utf8(out.stdout).expect("utf-8 stdout"),
    );
}
