//! CLI-level tests of the storage fault layer, the `fsck` mode, and the
//! crash-restarting supervisor: a supervised campaign that keeps dying to
//! injected I/O faults must end with a record file byte-identical to an
//! unfaulted run, damaged checkpoint generations must be quarantined and
//! fallen back through, `convert --fsck` must report honest exit codes,
//! and the `io.*`/`supervisor.*` counters must satisfy their conservation
//! identities on real binary snapshots.

use puftestbed::store::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

mod common;
use common::Scratch;

fn write_plan(dir: &Scratch, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).expect("plan written");
    path
}

fn campaign_args(out: &Path) -> Vec<String> {
    [
        "--out",
        out.to_str().unwrap(),
        "--format",
        "binary",
        "--boards",
        "3",
        "--months",
        "3",
        "--reads",
        "8",
        "--read-bits",
        "128",
        "--seed",
        "41",
        "--threads",
        "2",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

fn run(bin: &str, args: &[String]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn strs(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Counters of a `pufobs/1` snapshot, via the workspace's own JSON parser.
fn counters(path: &Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("metrics file written");
    let value = parse(&text).expect("metrics file is valid JSON");
    let object = value.as_object().expect("snapshot is an object");
    let counters = object
        .iter()
        .find(|(k, _)| k == "counters")
        .and_then(|(_, v)| v.as_object())
        .expect("snapshot has counters");
    counters
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("counter is a u64")))
        .collect()
}

#[test]
fn supervised_faulted_campaign_is_byte_identical_to_a_clean_run() {
    let dir = Scratch::new("supervised_faulted_campaign_is_byte_identical_to_a_clean_run");
    let reference = dir.join("sup_ref.pufrec");
    let out = run(env!("CARGO_BIN_EXE_campaign"), &campaign_args(&reference));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference_bytes = std::fs::read(&reference).expect("reference written");

    // An aggressive plan that disarms itself at incarnation 4, so the
    // supervised run provably terminates within the restart budget.
    let plan = write_plan(
        &dir,
        "sup_plan.json",
        r#"{"seed": 9, "torn_write_rate": 0.2, "fsync_failure_rate": 0.1,
            "rename_failure_rate": 0.1, "max_incarnations": 4}"#,
    );
    let faulted = dir.join("sup_faulted.pufrec");
    let ckpt = dir.join("sup_ck.pufchk");
    let metrics = dir.join("sup_metrics.json");
    let mut args = strs(&[
        "--max-restarts",
        "8",
        "--backoff-ms",
        "5",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--",
        env!("CARGO_BIN_EXE_campaign"),
    ]);
    args.extend(campaign_args(&faulted));
    args.extend(strs(&[
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
        "--checkpoint-keep",
        "2",
        "--io-faults",
        plan.to_str().unwrap(),
    ]));
    let out = run(env!("CARGO_BIN_EXE_supervise"), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    // The torture survivor matches the clean run byte for byte.
    let faulted_bytes = std::fs::read(&faulted).expect("supervised output written");
    assert_eq!(
        faulted_bytes, reference_bytes,
        "supervised faulted output must be byte-identical to a clean run"
    );

    // Supervisor conservation on the real snapshot: every restart is an
    // unclean child exit.
    let snap = counters(&metrics);
    assert_eq!(snap["supervisor.clean_exits"], 1, "{stderr}");
    assert_eq!(
        snap["supervisor.restarts"],
        snap["supervisor.child_exits"] - snap["supervisor.clean_exits"],
        "restarts == child exits - clean exits; {stderr}"
    );
}

#[test]
fn quarantined_checkpoint_falls_back_a_generation() {
    let dir = Scratch::new("quarantined_checkpoint_falls_back_a_generation");
    // Interrupt a campaign so real checkpoint generations exist.
    let out_path = dir.join("quar.pufrec");
    let ckpt = dir.join("quar_ck.pufchk");
    let mut args = campaign_args(&out_path);
    args.extend(strs(&[
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
        "--checkpoint-keep",
        "3",
        "--halt-after-windows",
        "2",
    ]));
    let out = run(env!("CARGO_BIN_EXE_campaign"), &args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let older = PathBuf::from(format!("{}.1", ckpt.display()));
    assert!(ckpt.exists() && older.exists(), "two generations on disk");

    // Mangle the newest generation: the supervisor must quarantine it and
    // resume from the older one, still finishing byte-identical.
    let mut newest = std::fs::read(&ckpt).unwrap();
    let mid = newest.len() / 2;
    newest[mid] ^= 0xFF;
    std::fs::write(&ckpt, &newest).unwrap();

    let metrics = dir.join("quar_metrics.json");
    let mut args = strs(&[
        "--max-restarts",
        "3",
        "--backoff-ms",
        "5",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--",
        env!("CARGO_BIN_EXE_campaign"),
    ]);
    args.extend(campaign_args(&out_path));
    args.extend(strs(&[
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
        "--checkpoint-keep",
        "3",
    ]));
    let out = run(env!("CARGO_BIN_EXE_supervise"), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(
        stderr.contains(&format!("resumes from {}.1", ckpt.display())),
        "{stderr}"
    );
    let snap = counters(&metrics);
    assert_eq!(snap["supervisor.checkpoints_quarantined"], 1);
    assert!(
        PathBuf::from(format!("{}.quarantined-0", ckpt.display())).exists(),
        "the damaged generation is preserved as evidence"
    );

    // And the final output still matches a clean, uninterrupted run.
    let reference = dir.join("quar_ref.pufrec");
    let out = run(env!("CARGO_BIN_EXE_campaign"), &campaign_args(&reference));
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        std::fs::read(&reference).unwrap()
    );
}

#[test]
fn fsck_exit_codes_are_honest() {
    let dir = Scratch::new("fsck_exit_codes_are_honest");
    // A clean file verifies clean: exit 0.
    let clean = dir.join("fsck_clean.pufrec");
    let out = run(env!("CARGO_BIN_EXE_campaign"), &campaign_args(&clean));
    assert!(out.status.success());
    let out = run(
        env!("CARGO_BIN_EXE_convert"),
        &strs(&["--fsck", "--in", clean.to_str().unwrap()]),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Mangled, verify-only: damage detected, nothing repaired — exit 4.
    let mangled = dir.join("fsck_mangled.pufrec");
    let mut bytes = std::fs::read(&clean).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&mangled, &bytes).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_convert"),
        &strs(&["--fsck", "--in", mangled.to_str().unwrap()]),
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Mangled with --repair: damaged but salvaged — exit 1, and the
    // journal accounts for every byte of the damaged input.
    let repaired = dir.join("fsck_repaired.pufrec");
    let out = run(
        env!("CARGO_BIN_EXE_convert"),
        &strs(&[
            "--fsck",
            "--repair",
            "--in",
            mangled.to_str().unwrap(),
            "--out",
            repaired.to_str().unwrap(),
        ]),
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let journal = std::fs::read_to_string(format!("{}.journal", repaired.display()))
        .expect("repair writes a journal");
    let journal = parse(&journal).expect("journal is valid JSON");
    let field = |name: &str| journal.get(name).and_then(JsonValue::as_u64).unwrap();
    assert_eq!(
        journal.get("format").and_then(JsonValue::as_str),
        Some("pufsck/1")
    );
    assert_eq!(field("bytes_total"), bytes.len() as u64);
    assert_eq!(
        field("bytes_kept") + field("bytes_dropped"),
        field("bytes_total")
    );
    let ranges: u64 = journal
        .get("dropped")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|d| d.get("len").and_then(JsonValue::as_u64).unwrap())
        .sum();
    assert_eq!(ranges, field("bytes_dropped"));

    // The repaired file now verifies clean: exit 0.
    let out = run(
        env!("CARGO_BIN_EXE_convert"),
        &strs(&["--fsck", "--in", repaired.to_str().unwrap()]),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Usage errors: --repair without --fsck, and --repair without --out.
    let out = run(
        env!("CARGO_BIN_EXE_convert"),
        &strs(&["--repair", "--in", clean.to_str().unwrap()]),
    );
    assert_eq!(out.status.code(), Some(2));
    let out = run(
        env!("CARGO_BIN_EXE_convert"),
        &strs(&["--fsck", "--repair", "--in", clean.to_str().unwrap()]),
    );
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn io_counters_conserve_on_real_snapshots() {
    let dir = Scratch::new("io_counters_conserve_on_real_snapshots");
    // Absorption: max_faults 0 absorbs every draw, so the run completes
    // with a byte-identical output while the ledger records the faults
    // that would have fired.
    // Rate 1.0 fires on every draw (rolls live in [0, 1)), making both
    // halves of this test independent of the pid-salted temp-file name
    // that the fault schedule is keyed on.
    let plan = write_plan(
        &dir,
        "absorb_plan.json",
        r#"{"seed": 5, "torn_write_rate": 1.0, "enospc_rate": 1.0,
            "fsync_failure_rate": 1.0, "rename_failure_rate": 1.0,
            "short_read_rate": 1.0, "max_faults": 0}"#,
    );
    let reference = dir.join("cons_ref.pufrec");
    let out = run(env!("CARGO_BIN_EXE_campaign"), &campaign_args(&reference));
    assert!(out.status.success());

    let absorbed_out = dir.join("cons_absorbed.pufrec");
    let metrics = dir.join("cons_metrics.json");
    let mut args = campaign_args(&absorbed_out);
    args.extend(strs(&[
        "--io-faults",
        plan.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    let out = run(env!("CARGO_BIN_EXE_campaign"), &args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&absorbed_out).unwrap(),
        std::fs::read(&reference).unwrap(),
        "absorbed faults must not change a byte"
    );
    let snap = counters(&metrics);
    assert!(snap["io.faults_absorbed"] > 0, "plan rates guarantee draws");
    assert_eq!(snap["io.faults_injected"], 0);
    assert_eq!(
        snap["io.faults_fired"],
        snap["io.faults_injected"] + snap["io.faults_absorbed"]
    );

    // Injection: an uncapped aggressive plan fails the run, and the
    // failure-path snapshot still balances the ledger by mechanism.
    let plan = write_plan(
        &dir,
        "inject_plan.json",
        r#"{"seed": 5, "torn_write_rate": 1.0}"#,
    );
    let injected_out = dir.join("cons_injected.pufrec");
    let metrics = dir.join("cons_inject_metrics.json");
    let mut args = campaign_args(&injected_out);
    args.extend(strs(&[
        "--io-faults",
        plan.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    let out = run(env!("CARGO_BIN_EXE_campaign"), &args);
    assert!(!out.status.success(), "a 1.0 torn-write rate must fire");
    let snap = counters(&metrics);
    assert!(snap["io.faults_injected"] > 0);
    assert_eq!(
        snap["io.faults_fired"],
        snap["io.faults_injected"] + snap["io.faults_absorbed"]
    );
    assert_eq!(
        snap["io.faults_injected"],
        snap["io.torn_writes"]
            + snap["io.short_reads"]
            + snap["io.enospc"]
            + snap["io.fsync_failures"]
            + snap["io.rename_failures"],
        "every injected fault is attributed to exactly one mechanism"
    );
}
