//! End-to-end format equivalence: the same campaign written as JSON lines
//! and as `pufrec/1` binary — plus a `convert`ed copy — must assess to
//! byte-identical output, and the binary file must actually be smaller.

use std::path::Path;
use std::process::Command;

mod common;
use common::Scratch;

const CAMPAIGN_ARGS: [&str; 10] = [
    "--boards",
    "3",
    "--months",
    "2",
    "--reads",
    "12",
    "--read-bits",
    "256",
    "--seed",
    "77",
];

fn run_campaign(out: &Path, format: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--out", out.to_str().unwrap(), "--format", format])
        .args(CAMPAIGN_ARGS)
        .output()
        .expect("campaign runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Assesses `input` and returns `(stdout, devices_csv, aggregates_csv)`.
fn assess(input: &Path, csv_prefix: &Path) -> (Vec<u8>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_assess"))
        .args([
            "--in",
            input.to_str().unwrap(),
            "--reads",
            "12",
            "--csv",
            csv_prefix.to_str().unwrap(),
        ])
        .output()
        .expect("assess runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let devices = format!("{}_devices.csv", csv_prefix.display());
    let aggregates = format!("{}_aggregates.csv", csv_prefix.display());
    (
        output.stdout,
        std::fs::read_to_string(&devices).expect("devices csv written"),
        std::fs::read_to_string(&aggregates).expect("aggregates csv written"),
    )
}

#[test]
fn both_formats_and_the_converted_file_assess_byte_identically() {
    let dir = Scratch::new("both_formats_and_the_converted_file_assess_byte_identically");
    let json = dir.join("records.jsonl");
    let binary = dir.join("records.pufrec");
    let converted = dir.join("converted.pufrec");

    run_campaign(&json, "json");
    run_campaign(&binary, "binary");

    let output = Command::new(env!("CARGO_BIN_EXE_convert"))
        .args([
            "--in",
            json.to_str().unwrap(),
            "--out",
            converted.to_str().unwrap(),
            "--format",
            "binary",
        ])
        .output()
        .expect("convert runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The directly-written and converted binary files differ only in the
    // header's advisory declared-bits field (campaign knows the width,
    // convert does not), so equivalence is checked where it matters: the
    // assessment output.
    let from_json = assess(&json, &dir.join("csv_json"));
    let from_binary = assess(&binary, &dir.join("csv_binary"));
    let from_converted = assess(&converted, &dir.join("csv_converted"));
    assert_eq!(
        from_json, from_binary,
        "assessment differs between storage formats"
    );
    assert_eq!(
        from_json, from_converted,
        "assessment differs after conversion"
    );
    assert!(from_json.0.windows(7).any(|w| w == b"Table I"));

    // The honest size story: raw bytes halve the hex-dominated JSON. The
    // margin (1.9x) sits safely under the real ~2x so the assertion holds
    // at any read width.
    let json_len = std::fs::metadata(&json).unwrap().len();
    let binary_len = std::fs::metadata(&binary).unwrap().len();
    assert!(
        json_len > binary_len * 19 / 10,
        "expected the binary store to be ~2x smaller: json {json_len}, binary {binary_len}"
    );
}

#[test]
fn converted_output_is_byte_identical_across_threads_and_batch_sizes() {
    let dir = Scratch::new("converted_output_is_byte_identical_across_threads_and_batch_sizes");
    // The parallel JSON reader reuses per-worker scratch across batches;
    // this must never leak state between records. Converting the same
    // corpus under extreme threading/batching choices has to produce the
    // same bytes — including batch size 1, where every record crosses a
    // scratch-reset boundary.
    let json = dir.join("reconv.jsonl");
    run_campaign(&json, "json");

    let mut outputs = Vec::new();
    for (threads, batch) in [("1", "1"), ("4", "64"), ("2", "3")] {
        let out = dir.join(&format!("reconv_t{threads}_b{batch}.pufrec"));
        let output = Command::new(env!("CARGO_BIN_EXE_convert"))
            .args([
                "--in",
                json.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--format",
                "binary",
                "--threads",
                threads,
                "--batch",
                batch,
            ])
            .output()
            .expect("convert runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        outputs.push(std::fs::read(&out).expect("converted file"));
    }
    assert_eq!(
        outputs[0], outputs[1],
        "thread/batch choice changed the converted bytes"
    );
    assert_eq!(
        outputs[0], outputs[2],
        "thread/batch choice changed the converted bytes"
    );
}

#[test]
fn forcing_the_format_flag_matches_auto_detection() {
    let dir = Scratch::new("forcing_the_format_flag_matches_auto_detection");
    let binary = dir.join("forced.pufrec");
    run_campaign(&binary, "binary");

    let auto = assess(&binary, &dir.join("csv_auto"));
    let output = Command::new(env!("CARGO_BIN_EXE_assess"))
        .args([
            "--in",
            binary.to_str().unwrap(),
            "--reads",
            "12",
            "--format",
            "binary",
        ])
        .output()
        .expect("assess runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(auto.0, output.stdout);
}

#[test]
fn convert_refuses_corrupt_input_instead_of_writing_a_prefix() {
    let dir = Scratch::new("convert_refuses_corrupt_input_instead_of_writing_a_prefix");
    let binary = dir.join("damaged.pufrec");
    let out = dir.join("damaged_out.jsonl");
    run_campaign(&binary, "binary");

    // Flip one byte in the middle of the record region.
    let mut bytes = std::fs::read(&binary).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&binary, bytes).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_convert"))
        .args([
            "--in",
            binary.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .expect("convert runs");
    assert!(
        !output.status.success(),
        "convert must fail loudly on corrupt input"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("record"), "{stderr}");
    assert!(
        !out.exists(),
        "an aborted conversion must delete its partial output"
    );
}

/// Runs `assess --reads 12` on `input` with `extra` flags.
fn assess_with(input: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_assess"))
        .args(["--in", input.to_str().unwrap(), "--reads", "12"])
        .args(extra)
        .output()
        .expect("assess runs")
}

/// Salvages `input` into `out` with `convert --fsck --repair`, which exits
/// 1 when it found damage and repaired it.
fn repair(input: &Path, out: &Path) {
    let output = Command::new(env!("CARGO_BIN_EXE_convert"))
        .args(["--fsck", "--repair", "--in", input.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("convert runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn forcing_json_matches_auto_detection() {
    let dir = Scratch::new("forcing_json_matches_auto_detection");
    let json = dir.join("forced.jsonl");
    run_campaign(&json, "json");

    let auto = assess_with(&json, &[]);
    let forced = assess_with(&json, &["--format", "json"]);
    for output in [&auto, &forced] {
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    assert_eq!(auto.stdout, forced.stdout);
}

#[test]
fn resync_assesses_a_damaged_file_like_its_offline_repair() {
    let dir = Scratch::new("resync_assesses_a_damaged_file_like_its_offline_repair");
    let damaged = dir.join("damaged.pufrec");
    let repaired = dir.join("repaired.pufrec");
    run_campaign(&damaged, "binary");
    // The same damage as CI's torture-smoke job: 16 bytes overwritten at
    // offset 3000, inside the record region.
    let mut bytes = std::fs::read(&damaged).unwrap();
    bytes[3000..3016].copy_from_slice(b"XXXXXXXXXXXXXXXX");
    std::fs::write(&damaged, bytes).unwrap();
    repair(&damaged, &repaired);

    let streamed = assess_with(&damaged, &["--resync", "1048576"]);
    let stderr = String::from_utf8_lossy(&streamed.stderr);
    assert!(streamed.status.success(), "{stderr}");
    assert!(stderr.contains("resynchronised"), "{stderr}");
    let offline = assess_with(&repaired, &[]);
    assert!(
        offline.status.success(),
        "{}",
        String::from_utf8_lossy(&offline.stderr)
    );
    assert_eq!(
        streamed.stdout, offline.stdout,
        "streaming resync and offline repair kept different records"
    );
}

#[test]
fn resync_with_forced_json_is_a_usage_error() {
    let dir = Scratch::new("resync_with_forced_json_is_a_usage_error");
    let json = dir.join("empty.jsonl");
    std::fs::write(&json, b"").unwrap();
    let output = assess_with(&json, &["--resync", "10", "--format", "json"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--resync"));
}

#[test]
fn a_non_utf8_byte_costs_one_record_not_the_file() {
    let dir = Scratch::new("a_non_utf8_byte_costs_one_record_not_the_file");
    let damaged = dir.join("damaged.jsonl");
    let repaired = dir.join("repaired.jsonl");
    run_campaign(&damaged, "json");
    // One hex digit of the eleventh record becomes 0xFF.
    let mut bytes = std::fs::read(&damaged).unwrap();
    let start = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(9)
        .map(|(i, _)| i + 1)
        .unwrap();
    let data = bytes[start..]
        .windows(8)
        .position(|w| w == b"\"data\":\"")
        .unwrap();
    bytes[start + data + 8] = 0xFF;
    std::fs::write(&damaged, bytes).unwrap();
    repair(&damaged, &repaired);

    let streamed = assess_with(&damaged, &[]);
    let stderr = String::from_utf8_lossy(&streamed.stderr);
    assert!(streamed.status.success(), "{stderr}");
    assert!(stderr.contains("line is not valid UTF-8"), "{stderr}");
    let offline = assess_with(&repaired, &[]);
    assert!(
        offline.status.success(),
        "{}",
        String::from_utf8_lossy(&offline.stderr)
    );
    assert_eq!(streamed.stdout, offline.stdout);
}

#[test]
fn forcing_json_on_a_pufrec_file_is_a_usage_error() {
    let dir = Scratch::new("forcing_json_on_a_pufrec_file_is_a_usage_error");
    let binary = dir.join("records.pufrec");
    run_campaign(&binary, "binary");
    // The JSON reader would split the frames at every 0x0A byte and skip
    // each piece as a malformed record; both readers refuse the flag first.
    for binary_under_test in [env!("CARGO_BIN_EXE_assess"), env!("CARGO_BIN_EXE_keylife")] {
        let output = Command::new(binary_under_test)
            .args(["--in", binary.to_str().unwrap(), "--reads", "12"])
            .args(["--format", "json"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{binary_under_test}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{binary_under_test}: {stderr}");
        assert!(!stderr.contains("skipping malformed record"), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{binary_under_test}: {stderr}");
    }
}

#[test]
fn fsck_names_the_format_assess_reads_for_a_prefix_of_the_magic() {
    // A file that is a proper prefix of `pufrec` is a truncated `pufrec/1`
    // header to `assess`; `convert --fsck` must judge it by the same rule,
    // not salvage it as JSON lines.
    let dir = Scratch::new("fsck_names_the_format_assess_reads_for_a_prefix_of_the_magic");
    for head in ["p", "pu", "pufre"] {
        let input = dir.join(&format!("{head}.bin"));
        std::fs::write(&input, head).unwrap();
        let assessed = assess_with(&input, &[]);
        let assess_err = String::from_utf8_lossy(&assessed.stderr);
        assert!(
            assess_err.contains("file header truncated"),
            "{head}: {assess_err}"
        );
        let fsck = Command::new(env!("CARGO_BIN_EXE_convert"))
            .args(["--fsck", "--in", input.to_str().unwrap()])
            .output()
            .expect("convert runs");
        let fsck_err = String::from_utf8_lossy(&fsck.stderr);
        assert!(fsck_err.contains("(pufrec)"), "{head}: {fsck_err}");
        assert_eq!(fsck.status.code(), Some(4), "{head}: {fsck_err}");
    }
}
