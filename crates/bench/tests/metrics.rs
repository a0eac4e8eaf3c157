//! Statistical regression tests for the `pufobs` observability layer:
//! the `--metrics-out` snapshots of the CLI binaries must satisfy the
//! pipeline's conservation invariants, and instrumentation must never
//! change a byte of the actual output.

use puftestbed::store::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

mod common;
use common::Scratch;

/// A metrics snapshot decoded from the `pufobs/1` JSON schema via the
/// workspace's own parser — proving the snapshot format round-trips
/// through `puftestbed::store::json`.
struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histogram_counts: BTreeMap<String, u64>,
}

impl Snapshot {
    fn load(path: &std::path::Path) -> Self {
        let text = std::fs::read_to_string(path).expect("metrics file written");
        let value = parse(&text).expect("metrics file is valid JSON");
        let object = value.as_object().expect("snapshot is an object");
        let field = |name: &str| -> Option<&JsonValue> {
            object.iter().find(|(k, _)| k == name).map(|(_, v)| v)
        };
        assert_eq!(
            field("schema").and_then(JsonValue::as_str),
            Some("pufobs/1"),
            "unexpected snapshot schema"
        );
        let mut counters = BTreeMap::new();
        for (name, v) in field("counters").and_then(JsonValue::as_object).unwrap() {
            counters.insert(name.clone(), v.as_u64().expect("counter is a u64"));
        }
        let mut gauges = BTreeMap::new();
        for (name, v) in field("gauges").and_then(JsonValue::as_object).unwrap() {
            gauges.insert(name.clone(), v.as_i64().expect("gauge is an i64"));
        }
        let mut histogram_counts = BTreeMap::new();
        for (name, v) in field("histograms").and_then(JsonValue::as_object).unwrap() {
            let entries = v.as_object().expect("histogram is an object");
            let count = entries
                .iter()
                .find(|(k, _)| k == "count")
                .and_then(|(_, v)| v.as_u64())
                .expect("histogram has a count");
            histogram_counts.insert(name.clone(), count);
        }
        Self {
            counters,
            gauges,
            histogram_counts,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        *self
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    }
}

#[test]
fn repro_metrics_satisfy_the_conservation_invariants() {
    let dir = Scratch::new("repro_metrics_satisfy_the_conservation_invariants");
    let metrics = dir.join("repro.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "smoke",
            "--seed",
            "7",
            "--threads",
            "3",
            "--table1",
            "--keylife",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let snap = Snapshot::load(&metrics);

    // One campaign pass feeds both accumulators: every record it emitted
    // reached each of them once, and every record the assessment saw was
    // either folded or skipped.
    assert_eq!(
        snap.counter("campaign.records"),
        snap.counter("assess.records_seen")
    );
    assert_eq!(
        snap.counter("keylife.records_seen"),
        snap.counter("campaign.records")
    );
    assert_eq!(
        snap.counter("assess.records_seen"),
        snap.counter("assess.records_folded") + snap.counter("assess.records_skipped")
    );
    // The three workers' parts of the assessment each add the windows they
    // open to the gauge: 4 devices × 7 months in total, none overwritten.
    assert_eq!(snap.counter("assess.windows_opened"), 4 * 7);
    assert_eq!(snap.gauges["assess.windows_open"], 4 * 7);

    // Per-board power-cycle counters partition the campaign total, which is
    // exactly boards × windows × reads at smoke scale (4 × 7 × 50).
    let per_board: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("campaign.board") && name.ends_with(".power_cycles"))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(per_board, snap.counter("campaign.power_cycles"));
    assert_eq!(snap.counter("campaign.power_cycles"), 4 * 7 * 50);

    // Each of the 4 board shards timed each of the 7 windows once.
    assert_eq!(snap.counter("campaign.shard_windows"), 4 * 7);
    assert_eq!(snap.histogram_counts["campaign.shard_window_ns"], 4 * 7);
    assert_eq!(snap.counter("campaign.windows"), 7);

    // No transport faults were injected, so none may be counted.
    assert_eq!(snap.counter("campaign.dropped"), 0);
    assert_eq!(snap.counter("campaign.i2c_faults"), 0);
}

#[test]
fn repro_folds_only_what_its_artifacts_need() {
    let dir = Scratch::new("repro_folds_only_what_its_artifacts_need");
    for (artifact, folded, left_out) in [
        ("--table1", "assess", "keylife"),
        ("--keylife", "keylife", "assess"),
    ] {
        let metrics = dir.join(&format!("{folded}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "smoke", "--seed", "7", artifact])
            .args(["--metrics-out", metrics.to_str().unwrap()])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let snap = Snapshot::load(&metrics);
        assert_eq!(
            snap.counter(&format!("{folded}.records_seen")),
            snap.counter("campaign.records")
        );
        assert!(
            !snap
                .counters
                .keys()
                .any(|name| name.starts_with(&format!("{left_out}."))),
            "{artifact} alone fed the {left_out} accumulator"
        );
    }
}

#[test]
fn assess_metrics_balance_the_reader_ledger() {
    let dir = Scratch::new("assess_metrics_balance_the_reader_ledger");
    let records = dir.join("ledger.jsonl");
    let metrics = dir.join("assess.json");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--out",
            records.to_str().unwrap(),
            "--boards",
            "3",
            "--months",
            "1",
            "--reads",
            "20",
            "--read-bits",
            "256",
            "--seed",
            "11",
        ])
        .output()
        .expect("campaign runs");
    assert!(out.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_assess"))
        .args([
            "--in",
            records.to_str().unwrap(),
            "--reads",
            "20",
            "--threads",
            "2",
            "--batch-lines",
            "16",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("assess runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let snap = Snapshot::load(&metrics);

    // The reader ledger balances: every line was parsed or flagged, every
    // dispatched batch was drained, and every parsed record reached the
    // accumulator. 3 boards × 2 windows × 20 reads = 120 clean lines.
    assert_eq!(
        snap.counter("reader.lines_read"),
        snap.counter("reader.records_parsed") + snap.counter("reader.malformed_lines")
    );
    assert_eq!(snap.counter("reader.lines_read"), 120);
    assert_eq!(snap.counter("reader.malformed_lines"), 0);
    assert_eq!(snap.counter("reader.io_errors"), 0);
    assert_eq!(snap.gauges["reader.queue_depth"], 0);
    assert_eq!(
        snap.counter("reader.batches"),
        snap.histogram_counts["reader.batch_parse_ns"]
    );
    assert_eq!(
        snap.counter("reader.records_parsed"),
        snap.counter("assess.records_seen")
    );
    assert_eq!(
        snap.counter("assess.records_seen"),
        snap.counter("assess.records_folded") + snap.counter("assess.records_skipped")
    );
}

#[test]
fn instrumentation_does_not_change_a_byte_of_output() {
    let dir = Scratch::new("instrumentation_does_not_change_a_byte_of_output");
    // The same campaign with and without `--metrics-out --verbose` must
    // write identical record files, and the same repro invocation must
    // print identical artifacts.
    let common = [
        "--boards",
        "3",
        "--months",
        "1",
        "--reads",
        "15",
        "--read-bits",
        "200",
        "--seed",
        "23",
        "--nack-rate",
        "0.05",
    ];
    let mut files = Vec::new();
    for instrumented in [false, true] {
        let records = dir.join(&format!("bytes_{instrumented}.jsonl"));
        let metrics = dir.join(&format!("bytes_{instrumented}.json"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
        cmd.args(["--out", records.to_str().unwrap()]).args(common);
        if instrumented {
            cmd.args(["--metrics-out", metrics.to_str().unwrap(), "--verbose"]);
        }
        let out = cmd.output().expect("campaign runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        files.push(std::fs::read(&records).expect("records written"));
    }
    assert!(!files[0].is_empty());
    assert_eq!(
        files[0], files[1],
        "instrumentation changed the record file"
    );

    let mut stdouts = Vec::new();
    for instrumented in [false, true] {
        let metrics = dir.join(&format!("repro_bytes_{instrumented}.json"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(["--scale", "smoke", "--seed", "23", "--table1", "--fig6"]);
        if instrumented {
            cmd.args(["--metrics-out", metrics.to_str().unwrap(), "--verbose"]);
        }
        let out = cmd.output().expect("repro runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdouts.push(out.stdout);
    }
    assert!(!stdouts[0].is_empty());
    assert_eq!(
        stdouts[0], stdouts[1],
        "instrumentation changed the printed artifacts"
    );
}
