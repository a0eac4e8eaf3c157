//! CLI-level checkpoint/resume tests: an interrupted `campaign` run,
//! resumed from its `pufchk/1` checkpoint, must write a record file
//! byte-identical to the uninterrupted run — across output formats and
//! thread counts — and refuse mismatched or damaged checkpoints.

use std::path::{Path, PathBuf};
use std::process::Command;

mod common;
use common::Scratch;

fn campaign_args(out: &Path, format: &str, seed: &str, threads: &str) -> Vec<String> {
    [
        "--out",
        out.to_str().unwrap(),
        "--format",
        format,
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
        "--nack-rate",
        "0.05",
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

#[test]
fn interrupted_then_resumed_run_is_byte_identical() {
    let dir = Scratch::new("interrupted_then_resumed_run_is_byte_identical");
    for format in ["json", "binary"] {
        let reference = dir.join(&format!("ref.{format}"));
        let out = run_campaign(&[], campaign_args(&reference, format, "77", "2"));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let reference_bytes = std::fs::read(&reference).expect("reference written");

        for (threads_before, threads_after) in [("1", "4"), ("4", "1")] {
            let resumed = dir.join(&format!("res_{threads_before}{threads_after}.{format}"));
            let ckpt = dir.join(&format!("ckpt_{threads_before}{threads_after}.{format}"));
            // Run 2 of the 4 windows, checkpointing every window, then halt.
            let out = run_campaign(
                &[
                    "--checkpoint-out",
                    ckpt.to_str().unwrap(),
                    "--checkpoint-every",
                    "1",
                    "--halt-after-windows",
                    "2",
                ],
                campaign_args(&resumed, format, "77", threads_before),
            );
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("halted after 2 windows"),
                "halt message missing"
            );
            // Resume with a different thread count and finish.
            let out = run_campaign(
                &["--resume-from", ckpt.to_str().unwrap()],
                campaign_args(&resumed, format, "77", threads_after),
            );
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let resumed_bytes = std::fs::read(&resumed).expect("resumed output written");
            assert_eq!(
                resumed_bytes, reference_bytes,
                "resume diverged ({format}, {threads_before}→{threads_after} threads)"
            );
        }
    }
}

#[test]
fn resume_salvages_a_torn_tmp_like_a_killed_process_leaves() {
    let dir = Scratch::new("resume_salvages_a_torn_tmp_like_a_killed_process_leaves");
    let reference = dir.join("kill_ref.jsonl");
    let out = run_campaign(&[], campaign_args(&reference, "json", "31", "2"));
    assert!(out.status.success());
    let reference_bytes = std::fs::read(&reference).expect("reference written");

    let resumed = dir.join("kill_res.jsonl");
    let ckpt = dir.join("kill_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "2",
        ],
        campaign_args(&resumed, "json", "31", "2"),
    );
    assert!(out.status.success());
    // A kill -9 mid-run leaves the records in `<out>.tmp` (the atomic
    // write never renamed) — recreate that state from the halted run's
    // published file.
    let tmp = PathBuf::from(format!("{}.tmp", resumed.display()));
    std::fs::rename(&resumed, &tmp).expect("simulate torn output");
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&resumed, "json", "31", "3"),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&resumed).unwrap(), reference_bytes);
    assert!(!tmp.exists(), "salvaged tmp must be consumed");
}

#[test]
fn resume_with_wrong_seed_is_refused() {
    let dir = Scratch::new("resume_with_wrong_seed_is_refused");
    let out_file = dir.join("wrong_seed.jsonl");
    let ckpt = dir.join("wrong_seed_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(out.status.success());
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&out_file, "json", "43", "2"), // seed changed
    );
    assert!(!out.status.success(), "wrong seed must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("config mismatch"),
        "typed refusal expected, got: {stderr}"
    );
}

#[test]
fn resume_with_changed_config_is_refused() {
    let dir = Scratch::new("resume_with_changed_config_is_refused");
    let out_file = dir.join("wrong_cfg.jsonl");
    let ckpt = dir.join("wrong_cfg_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(out.status.success());
    let mut changed = campaign_args(&out_file, "json", "42", "2");
    let months_at = changed.iter().position(|a| a == "--months").unwrap();
    changed[months_at + 1] = "5".into(); // one more month than the original
    let out = run_campaign(&["--resume-from", ckpt.to_str().unwrap()], changed);
    assert!(!out.status.success(), "changed config must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("config mismatch"));
}

#[test]
fn corrupt_checkpoint_is_refused() {
    let dir = Scratch::new("corrupt_checkpoint_is_refused");
    let out_file = dir.join("corrupt.jsonl");
    let ckpt = dir.join("corrupt_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(out.status.success());
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(!out.status.success(), "corrupt checkpoint must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("corrupt checkpoint"));
}

#[test]
fn checkpoint_every_without_out_is_an_error() {
    let dir = Scratch::new("checkpoint_every_without_out_is_an_error");
    let out_file = dir.join("lonely_every.jsonl");
    let out = run_campaign(
        &["--checkpoint-every", "2"],
        campaign_args(&out_file, "json", "42", "1"),
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-out"));
}

#[test]
fn repro_halt_and_resume_reproduces_the_reference_tables() {
    let dir = Scratch::new("repro_halt_and_resume_reproduces_the_reference_tables");
    let reference = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "smoke",
            "--table1",
            "--keylife",
            "--seed",
            "9",
            "--threads",
            "2",
        ])
        .output()
        .expect("repro runs");
    assert!(reference.status.success());
    assert!(String::from_utf8_lossy(&reference.stdout).contains("=== key-lifetime workload"));

    let records = dir.join("repro.jsonl");
    let ckpt = dir.join("repro_ckpt");
    let halted = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "smoke",
            "--table1",
            "--keylife",
            "--seed",
            "9",
            "--threads",
            "2",
        ])
        .args(["--records-out", records.to_str().unwrap()])
        .args(["--checkpoint-out", ckpt.to_str().unwrap()])
        .args(["--halt-after-windows", "3"])
        .output()
        .expect("repro runs");
    assert!(halted.status.success());
    let halted_stdout = String::from_utf8_lossy(&halted.stdout);
    assert!(
        !halted_stdout.contains("Table I") && !halted_stdout.contains("key-lifetime"),
        "halted run must not print tables"
    );

    let resumed = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "smoke",
            "--table1",
            "--keylife",
            "--seed",
            "9",
            "--threads",
            "4",
        ])
        .args(["--records-out", records.to_str().unwrap()])
        .args(["--resume-from", ckpt.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout)
            .split_once("Table I")
            .map(|(_, t)| t.to_string()),
        String::from_utf8_lossy(&reference.stdout)
            .split_once("Table I")
            .map(|(_, t)| t.to_string()),
        "resumed assessment or key-lifetime table diverged from the uninterrupted run"
    );
}
