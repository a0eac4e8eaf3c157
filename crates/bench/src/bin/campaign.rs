//! Runs a measurement campaign and streams its records to a file — the
//! simulated counterpart of the paper's rig writing to the Raspberry Pi
//! database.
//!
//! ```text
//! campaign --out records [--format json|binary] [--boards 16] [--months 24]
//!          [--reads 1000] [--read-bits 8192] [--seed 2017] [--nack-rate 0.0]
//!          [--threads N] [--metrics-out FILE] [--verbose]
//!          [--checkpoint-out FILE] [--checkpoint-every N]
//!          [--resume-from FILE] [--halt-after-windows N]
//!          [--faults FILE] [--max-retries N]
//! ```
//!
//! `--format json` (the default) writes the paper's JSON lines; `--format
//! binary` writes the compact `pufrec/1` store. Pair with the `assess`
//! binary to analyse the file (it detects the format itself); the
//! assessment is byte-identical either way. `--metrics-out` dumps the
//! `pufobs` campaign counters as JSON after the run; `--verbose` prints a
//! once-per-second progress heartbeat (with ETA) to stderr. Neither changes
//! the record file by a byte.
//!
//! `--checkpoint-out` writes a `pufchk/1` checkpoint (atomically) after
//! every `--checkpoint-every` windows (default 1). `--resume-from`
//! continues an interrupted campaign from its checkpoint — the flags
//! describing the campaign must match the original run (the checkpoint's
//! config hash is verified) — and produces a record file byte-identical to
//! the uninterrupted run. `--halt-after-windows` stops the run early while
//! keeping it resumable (an in-process interruption drill). It and
//! `--checkpoint-every`/`--checkpoint-keep` act only through the checkpoint,
//! so without `--checkpoint-out` they exit 2.
//!
//! `--faults FILE` loads a JSON fault plan (brownouts, I2C bursts, stuck
//! cells, clock skew — see `puftestbed::faults`) and injects it
//! deterministically: the same seed and plan produce byte-identical records
//! for any `--threads`, and through checkpoint/resume. `--max-retries N`
//! bounds the transport retry budget before a read is dropped as a gap.
//!
//! `--io-faults FILE` loads a *storage* fault plan (torn writes, short
//! reads, ENOSPC, failed fsync/rename — see `puftestbed::store::iofault`)
//! and injects it deterministically into the output, checkpoint, and
//! resume-salvage I/O paths. A fired fault fails the run like a real disk
//! error would; the partial output and checkpoints stay on disk for the
//! supervisor to resume from. `--io-incarnation N` salts the schedule (the
//! supervisor passes its restart count, so each retry sees fresh faults);
//! `--checkpoint-keep K` retains the last K checkpoint generations
//! (`FILE`, `FILE.1`, …) so a checkpoint torn mid-write still leaves an
//! older intact generation to fall back to. Without `--io-faults` every
//! byte written is identical to a build without the fault layer.

use pufbench::{campaign_total_cycles, cli, metrics, reopen_for_resume_with, start_campaign};
use pufobs::Instruments;
use puftestbed::store::{IoFaultPlan, IoPolicy, RecordFormat};
use puftestbed::{CampaignConfig, FaultPlan, MAX_BOARDS};
use std::path::Path;
use std::process::exit;

fn main() {
    let mut config = CampaignConfig::default();
    let mut out: Option<String> = None;
    let mut format = RecordFormat::Json;
    let mut seed = 2017u64;
    let mut threads = pufbench::default_threads();
    let mut metrics_out: Option<String> = None;
    let mut verbose = false;
    let mut checkpoint_out: Option<String> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut resume_from: Option<String> = None;
    let mut halt_after: Option<u32> = None;
    let mut faults_from: Option<String> = None;
    let mut io_faults_from: Option<String> = None;
    let mut io_incarnation = 0u64;
    let mut checkpoint_keep: Option<u32> = None;

    let mut args = cli::Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.value(&arg)),
            "--format" => format = args.parse(&arg),
            "--boards" => {
                config.boards = args.positive(&arg);
                if config.boards > MAX_BOARDS {
                    eprintln!(
                        "--boards must be at most {MAX_BOARDS}: two I2C layers of slave \
                         addresses 0x10..=0x77"
                    );
                    exit(2);
                }
            }
            "--months" => config.months = args.parse(&arg),
            "--reads" => config.reads_per_window = args.positive(&arg),
            "--read-bits" => {
                config.read_bits = args.positive(&arg);
                config.sram_bits = config.sram_bits.max(config.read_bits);
            }
            "--seed" => seed = args.parse(&arg),
            "--nack-rate" => config.i2c_nack_rate = args.parse(&arg),
            "--threads" => threads = args.positive(&arg),
            "--metrics-out" => metrics_out = Some(args.value(&arg)),
            "--verbose" => verbose = true,
            "--checkpoint-out" => checkpoint_out = Some(args.value(&arg)),
            "--checkpoint-every" => checkpoint_every = Some(args.parse(&arg)),
            "--resume-from" => resume_from = Some(args.value(&arg)),
            "--halt-after-windows" => halt_after = Some(args.positive(&arg)),
            "--faults" => faults_from = Some(args.value(&arg)),
            "--max-retries" => config.i2c_retries = args.parse(&arg),
            "--io-faults" => io_faults_from = Some(args.value(&arg)),
            "--io-incarnation" => io_incarnation = args.parse(&arg),
            "--checkpoint-keep" => checkpoint_keep = Some(args.positive(&arg)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: campaign --out FILE [--format json|binary] [--boards N] \
                     [--months N] [--reads N] [--read-bits N] [--seed N] [--nack-rate P] \
                     [--threads N] [--metrics-out FILE] [--verbose] \
                     [--checkpoint-out FILE] [--checkpoint-every N] [--checkpoint-keep K] \
                     [--resume-from FILE] [--halt-after-windows N] \
                     [--faults FILE] [--max-retries N] \
                     [--io-faults FILE] [--io-incarnation N]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                exit(2);
            }
        }
    }
    let Some(out) = out else {
        eprintln!("--out FILE is required (try --help)");
        exit(2);
    };
    // These flags only act through the checkpoint; without one they would
    // be dropped silently (and a halted run could never be resumed).
    for (flag, given) in [
        ("--checkpoint-every", checkpoint_every.is_some()),
        ("--checkpoint-keep", checkpoint_keep.is_some()),
        ("--halt-after-windows", halt_after.is_some()),
    ] {
        if given && checkpoint_out.is_none() {
            eprintln!("{flag} needs --checkpoint-out FILE");
            exit(2);
        }
    }
    // The fault plan is part of the campaign's identity (its hash feeds the
    // checkpoint config hash), so load it before any resume validation.
    if let Some(path) = &faults_from {
        config.faults = FaultPlan::load(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot load fault plan {path}: {e}");
            exit(1);
        });
    }
    let has_faults = !config.faults.is_empty();
    // Storage faults are not part of the campaign's identity: they change
    // when I/O *fails*, never what gets written, so the plan stays outside
    // the checkpoint config hash and a faulted run resumes into a clean one
    // (and vice versa) freely.
    let obs = (metrics_out.is_some() || verbose).then(Instruments::new);
    let io_policy = io_faults_from.as_ref().map(|path| {
        let plan = IoFaultPlan::load(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot load I/O fault plan {path}: {e}");
            exit(1);
        });
        let policy = IoPolicy::new(plan, io_incarnation);
        match &obs {
            Some(ins) => policy.instruments(ins),
            None => policy,
        }
    });

    eprintln!(
        "campaign: {} boards × {} months × {} reads/window × {} bits → {out} \
         ({format} format, {threads} threads)",
        config.boards, config.months, config.reads_per_window, config.read_bits
    );
    let declared_bits = u32::try_from(config.read_bits).unwrap_or(0);
    let total_cycles = campaign_total_cycles(&config);

    // The resume is validated (config hash, state consistency) BEFORE the
    // output file is touched, so a refused resume leaves it alone.
    let (campaign, on_disk) = start_campaign(config, seed, resume_from.as_deref());
    let mut campaign = campaign.threads(threads);
    let mut sink = reopen_for_resume_with(
        &out,
        format,
        declared_bits,
        on_disk,
        None,
        io_policy.clone(),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot open {out}: {e}");
        write_metrics_snapshot(&metrics_out, &obs);
        exit(1);
    });
    if let Some(ins) = &obs {
        campaign = campaign.instruments(ins);
    }
    if let Some(policy) = &io_policy {
        campaign = campaign.io_policy(policy.clone());
    }
    if let Some(ckpt) = &checkpoint_out {
        campaign = campaign
            .checkpoints(checkpoint_every.unwrap_or(1), ckpt)
            .checkpoint_keep(checkpoint_keep.unwrap_or(1));
    }
    if let Some(n) = halt_after {
        campaign = campaign.halt_after_windows(n);
    }
    let heartbeat = verbose.then(|| {
        let ins = obs.as_ref().expect("verbose implies instruments");
        metrics::spawn_heartbeat(ins, metrics::campaign_spec(total_cycles))
    });
    // Failure paths still write the metrics snapshot: a supervised child
    // killed by an injected fault must leave its `io.*` counters behind
    // for the conservation checks, or the faults it absorbed disappear
    // from the books.
    let summary = match campaign.run(&mut sink) {
        Ok(summary) => summary,
        Err(e) => {
            drop(heartbeat);
            eprintln!("campaign failed: {e}");
            write_metrics_snapshot(&metrics_out, &obs);
            exit(1);
        }
    };
    drop(heartbeat);
    if let Err(e) = sink.finish() {
        eprintln!("flush failed: {e}");
        write_metrics_snapshot(&metrics_out, &obs);
        exit(1);
    }
    if has_faults {
        let tally = campaign.fault_tally();
        eprintln!(
            "faults: {} browned-out windows ({} missed power-ups), \
             {} injected NACKs, {} injected corruptions, {} stuck forcings, \
             {} ms simulated backoff, {} gap records",
            tally.browned_out_windows,
            tally.missed_power_ups,
            tally.injected_nacks,
            tally.injected_corruptions,
            tally.stuck_cells_forced,
            tally.retry_backoff_ms,
            campaign.gap_records().len()
        );
    }
    if campaign.completed() {
        eprintln!(
            "done: {} records over {} windows ({} transport retries, {} dropped)",
            summary.records, summary.windows, summary.retries, summary.dropped
        );
    } else if let Some(ckpt) = &checkpoint_out {
        eprintln!(
            "halted after {} windows ({} records so far); continue with \
             --resume-from {ckpt}",
            summary.windows, summary.records
        );
    }
    if let (Some(path), Some(ins)) = (&metrics_out, &obs) {
        match metrics::write_metrics(path, ins) {
            Ok(()) => eprintln!("wrote metrics snapshot to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
        }
    }
}

/// Best-effort metrics dump on the failure paths (the success path reports
/// its own errors loudly).
fn write_metrics_snapshot(metrics_out: &Option<String>, obs: &Option<Instruments>) {
    if let (Some(path), Some(ins)) = (metrics_out, obs) {
        match metrics::write_metrics(path, ins) {
            Ok(()) => eprintln!("wrote metrics snapshot to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}
