//! CLI-level fault-injection tests: a `campaign --faults PLAN` run must be
//! deterministic (same seed and plan → byte-identical records for any
//! `--threads`), survive checkpoint/resume unchanged, and refuse resuming
//! under a different plan. An empty plan must not change a byte.

use std::path::{Path, PathBuf};
use std::process::Command;

mod common;
use common::Scratch;

fn campaign_args(out: &Path, seed: &str, threads: &str) -> Vec<String> {
    [
        "--out",
        out.to_str().unwrap(),
        "--format",
        "binary",
        "--boards",
        "4",
        "--months",
        "3",
        "--reads",
        "12",
        "--read-bits",
        "192",
        "--seed",
        seed,
        "--threads",
        threads,
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

fn run_campaign(extra: &[&str], base: Vec<String>) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(base)
        .args(extra)
        .output()
        .expect("campaign binary runs")
}

fn write_plan(dir: &Scratch, name: &str, json: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, json).expect("plan written");
    path
}

const PLAN: &str = r#"{
    "brownouts": [{"board": 1, "from_window": 1, "until_window": 1}],
    "i2c_bursts": [{
        "board": 2, "from_window": 0, "until_window": 2,
        "nack_rate": 0.3, "corruption_rate": 0.2
    }],
    "stuck_clusters": [{"board": 0, "cell": 8, "len": 16, "value": true, "from_window": 1}],
    "clock_skew": [{"layer": 0, "skew_s": 120.0}]
}"#;

#[test]
fn faulted_run_is_deterministic_across_thread_counts() {
    let dir = Scratch::new("faulted_run_is_deterministic_across_thread_counts");
    let plan = write_plan(&dir, "det_plan.json", PLAN);
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4"] {
        let out_file = dir.join(&format!("det_{threads}.pufrec"));
        let out = run_campaign(
            &["--faults", plan.to_str().unwrap()],
            campaign_args(&out_file, "55", threads),
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("browned-out windows"),
            "fault tally missing from stderr"
        );
        outputs.push(std::fs::read(&out_file).expect("output written"));
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads diverged");
    assert_eq!(outputs[0], outputs[2], "1 vs 4 threads diverged");
}

#[test]
fn empty_fault_plan_changes_nothing() {
    let dir = Scratch::new("empty_fault_plan_changes_nothing");
    let clean = dir.join("clean.pufrec");
    let out = run_campaign(&[], campaign_args(&clean, "56", "2"));
    assert!(out.status.success());
    let clean_bytes = std::fs::read(&clean).unwrap();

    let plan = write_plan(&dir, "empty_plan.json", "{}");
    let faulted = dir.join("empty_faulted.pufrec");
    let out = run_campaign(
        &["--faults", plan.to_str().unwrap()],
        campaign_args(&faulted, "56", "2"),
    );
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&faulted).unwrap(),
        clean_bytes,
        "an empty plan must be byte-identical to no plan"
    );
}

#[test]
fn faulted_resume_is_byte_identical_to_the_uninterrupted_run() {
    let dir = Scratch::new("faulted_resume_is_byte_identical_to_the_uninterrupted_run");
    let plan = write_plan(&dir, "resume_plan.json", PLAN);
    let reference = dir.join("resume_ref.pufrec");
    let out = run_campaign(
        &["--faults", plan.to_str().unwrap()],
        campaign_args(&reference, "57", "2"),
    );
    assert!(out.status.success());
    let reference_bytes = std::fs::read(&reference).unwrap();

    let resumed = dir.join("resume_res.pufrec");
    let ckpt = dir.join("resume_ckpt");
    let out = run_campaign(
        &[
            "--faults",
            plan.to_str().unwrap(),
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "2",
        ],
        campaign_args(&resumed, "57", "1"),
    );
    assert!(out.status.success());
    let out = run_campaign(
        &[
            "--faults",
            plan.to_str().unwrap(),
            "--resume-from",
            ckpt.to_str().unwrap(),
        ],
        campaign_args(&resumed, "57", "4"),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&resumed).unwrap(),
        reference_bytes,
        "faulted resume diverged from the uninterrupted faulted run"
    );
}

#[test]
fn resume_under_a_different_plan_is_refused() {
    let dir = Scratch::new("resume_under_a_different_plan_is_refused");
    let plan = write_plan(&dir, "swap_plan.json", PLAN);
    let out_file = dir.join("swap.pufrec");
    let ckpt = dir.join("swap_ckpt");
    let out = run_campaign(
        &[
            "--faults",
            plan.to_str().unwrap(),
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "58", "2"),
    );
    assert!(out.status.success());
    // Resuming without the plan (or, equivalently, with a different one)
    // would splice two different campaigns into one record file.
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&out_file, "58", "2"),
    );
    assert!(!out.status.success(), "plan change must refuse the resume");
    assert!(String::from_utf8_lossy(&out.stderr).contains("config mismatch"));
}

#[test]
fn malformed_plan_is_a_clean_cli_error() {
    let dir = Scratch::new("malformed_plan_is_a_clean_cli_error");
    let plan = write_plan(&dir, "bad_plan.json", r#"{"brownouts": [{"board": 1}]"#);
    let out_file = dir.join("bad.pufrec");
    let out = run_campaign(
        &["--faults", plan.to_str().unwrap()],
        campaign_args(&out_file, "59", "1"),
    );
    assert!(!out.status.success(), "malformed plan must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load fault plan"));
    assert!(
        !out_file.exists(),
        "no output may be created for a bad plan"
    );
}

#[test]
fn malformed_io_fault_plan_is_a_clean_cli_error() {
    let dir = Scratch::new("malformed_io_fault_plan_is_a_clean_cli_error");
    // `max_faults` must be a non-negative integer; both binaries that take
    // `--io-faults` refuse the plan before creating any output.
    let plan = write_plan(&dir, "bad_io_plan.json", r#"{"seed": 1, "max_faults": -1}"#);
    let campaign_out = dir.join("bad_io.pufrec");
    let repro_out = dir.join("bad_io_repro.jsonl");
    let runs = [
        run_campaign(
            &["--io-faults", plan.to_str().unwrap()],
            campaign_args(&campaign_out, "60", "1"),
        ),
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "smoke", "--table1", "--records-out"])
            .arg(&repro_out)
            .arg("--io-faults")
            .arg(&plan)
            .output()
            .expect("repro binary runs"),
    ];
    for out in runs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("cannot load I/O fault plan"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    assert!(
        !campaign_out.exists(),
        "campaign created output for a bad plan"
    );
    assert!(!repro_out.exists(), "repro created output for a bad plan");
}
