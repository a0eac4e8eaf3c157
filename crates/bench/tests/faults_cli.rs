//! CLI-level fault-injection tests: a `campaign --faults PLAN` run must be
//! deterministic (same seed and plan → byte-identical records for any
//! `--threads`), survive checkpoint/resume unchanged, and refuse resuming
//! under a different plan. An empty plan must not change a byte.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("puffaults_cli_{}_{name}", std::process::id()))
}

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

fn write_plan(name: &str, json: &str) -> PathBuf {
    let path = temp_path(name);
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
    let plan = write_plan("det_plan.json", PLAN);
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4"] {
        let out_file = temp_path(&format!("det_{threads}.pufrec"));
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
        std::fs::remove_file(&out_file).ok();
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads diverged");
    assert_eq!(outputs[0], outputs[2], "1 vs 4 threads diverged");
    std::fs::remove_file(&plan).ok();
}

#[test]
fn empty_fault_plan_changes_nothing() {
    let clean = temp_path("clean.pufrec");
    let out = run_campaign(&[], campaign_args(&clean, "56", "2"));
    assert!(out.status.success());
    let clean_bytes = std::fs::read(&clean).unwrap();

    let plan = write_plan("empty_plan.json", "{}");
    let faulted = temp_path("empty_faulted.pufrec");
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
    std::fs::remove_file(&clean).ok();
    std::fs::remove_file(&faulted).ok();
    std::fs::remove_file(&plan).ok();
}

#[test]
fn faulted_resume_is_byte_identical_to_the_uninterrupted_run() {
    let plan = write_plan("resume_plan.json", PLAN);
    let reference = temp_path("resume_ref.pufrec");
    let out = run_campaign(
        &["--faults", plan.to_str().unwrap()],
        campaign_args(&reference, "57", "2"),
    );
    assert!(out.status.success());
    let reference_bytes = std::fs::read(&reference).unwrap();

    let resumed = temp_path("resume_res.pufrec");
    let ckpt = temp_path("resume_ckpt");
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
    std::fs::remove_file(&reference).ok();
    std::fs::remove_file(&resumed).ok();
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&plan).ok();
}

#[test]
fn resume_under_a_different_plan_is_refused() {
    let plan = write_plan("swap_plan.json", PLAN);
    let out_file = temp_path("swap.pufrec");
    let ckpt = temp_path("swap_ckpt");
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
    std::fs::remove_file(&out_file).ok();
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&plan).ok();
}

#[test]
fn malformed_plan_is_a_clean_cli_error() {
    let plan = write_plan("bad_plan.json", r#"{"brownouts": [{"board": 1}]"#);
    let out_file = temp_path("bad.pufrec");
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
    std::fs::remove_file(&plan).ok();
}

#[test]
fn malformed_io_fault_plan_is_a_clean_cli_error() {
    // `max_faults` must be a non-negative integer; both binaries that take
    // `--io-faults` refuse the plan before creating any output.
    let plan = write_plan("bad_io_plan.json", r#"{"seed": 1, "max_faults": -1}"#);
    let campaign_out = temp_path("bad_io.pufrec");
    let repro_out = temp_path("bad_io_repro.jsonl");
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
    std::fs::remove_file(&plan).ok();
}
