//! Replays a record file (JSON lines or `pufrec/1` binary) through the
//! key-lifetime workload: every device enrolls a key per ECC profile from
//! its first eligible read (debias → helper data → extractor) and every
//! later device-month reconstructs it, producing a per-month key-failure
//! table — observed rate next to the analytic bound at that month's
//! worst-case WCHD.
//!
//! ```text
//! keylife --in records [--format json|binary] [--reads 1000] [--eval-day 8]
//!         [--profiles golay-r5@128,polar-512-128@128] [--secret-bits 128]
//!         [--seed 2017] [--threads N] [--batch-lines N] [--csv FILE]
//!         [--bench-out FILE] [--metrics-out FILE] [--verbose]
//! ```
//!
//! Records shard across worker threads by device (`device % threads`), one
//! bounded-memory [`KeyLifeAccumulator`] per shard, merged deterministically
//! at the end — the output is byte-identical for every `--threads` value
//! and across the two storage formats. Unlike `assess`, a malformed record
//! aborts the run: key-failure statistics over a silently truncated stream
//! would claim reliability that was never measured. As in `assess`, the
//! format is detected unless `--format` forces it, and `--format json` on a
//! `pufrec/1` file is a usage error (exit 2).
//!
//! `--csv` writes the machine-readable table, `--bench-out` the
//! `bench-keylife/1` JSON throughput/failure summary (`BENCH_keylife.json`
//! by convention). `--metrics-out` dumps the `pufobs` counters; `--verbose`
//! prints a once-per-second heartbeat to stderr. None of them change the
//! report by a byte.

use pufassess::monthly::EvaluationProtocol;
use pufassess::{KeyLifeAccumulator, KeyLifeConfig, KeyProfile};
use pufbench::{cli, keylife_bench_json, metrics};
use pufobs::Instruments;
use puftestbed::store::{RecordFormat, DEFAULT_BATCH_LINES};
use puftestbed::Record;
use std::process::exit;
use std::sync::mpsc;
use std::time::Instant;

fn main() {
    let mut input: Option<String> = None;
    let mut format: Option<RecordFormat> = None;
    let mut protocol = EvaluationProtocol::default();
    let mut profile_list: Option<String> = None;
    let mut secret_bits = 128usize;
    let mut enroll_seed = 2017u64;
    let mut threads = pufbench::default_threads();
    let mut batch_lines = DEFAULT_BATCH_LINES;
    let mut csv_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut verbose = false;

    let mut args = cli::Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--in" => input = Some(args.value(&arg)),
            "--format" => format = Some(args.parse(&arg)),
            "--reads" => protocol.reads_per_window = args.positive(&arg),
            "--eval-day" => protocol.eval_day = args.parse(&arg),
            "--profiles" => profile_list = Some(args.value(&arg)),
            "--secret-bits" => secret_bits = args.positive(&arg),
            "--seed" => enroll_seed = args.parse(&arg),
            "--threads" => threads = args.positive(&arg),
            "--batch-lines" => batch_lines = args.positive(&arg),
            "--csv" => csv_out = Some(args.value(&arg)),
            "--bench-out" => bench_out = Some(args.value(&arg)),
            "--metrics-out" => metrics_out = Some(args.value(&arg)),
            "--verbose" => verbose = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: keylife --in FILE [--format json|binary] [--reads N] \
                     [--eval-day D] [--profiles SPEC[@BITS],...] [--secret-bits N] \
                     [--seed N] [--threads N] [--batch-lines N] [--csv FILE] \
                     [--bench-out FILE] [--metrics-out FILE] [--verbose]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                exit(2);
            }
        }
    }
    let Some(input) = input else {
        eprintln!("--in FILE is required (try --help)");
        exit(2);
    };
    let profiles = parse_profiles(profile_list.as_deref().unwrap_or("golay-r5"), secret_bits)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
    let config = KeyLifeConfig {
        protocol,
        profiles,
        enroll_seed,
    };

    let obs = (metrics_out.is_some() || verbose).then(Instruments::new);
    let reader = pufbench::open_input(&input, format, None, threads, batch_lines, obs.as_ref());
    let heartbeat = verbose.then(|| {
        let ins = obs.as_ref().expect("verbose implies instruments");
        metrics::spawn_heartbeat(ins, metrics::keylife_spec())
    });

    // Shard by device: each worker owns the full per-device state, so the
    // merged result is byte-identical to a single-threaded fold. Records
    // travel in batches of the reader's `--batch-lines`, one send each.
    let started = Instant::now();
    let merged = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::sync_channel::<Vec<Record>>(1);
            let mut accumulator = KeyLifeAccumulator::new(config.clone());
            if let Some(ins) = &obs {
                accumulator.attach_instruments(ins);
            }
            senders.push(tx);
            workers.push(scope.spawn(move || {
                for record in rx.iter().flatten() {
                    accumulator.push(&record);
                }
                accumulator
            }));
        }
        let mut batches: Vec<Vec<Record>> = vec![Vec::new(); threads];
        for item in reader {
            match item {
                Ok(record) => {
                    let shard = record.device.0 as usize % threads;
                    batches[shard].push(record);
                    if batches[shard].len() == batch_lines {
                        let batch = std::mem::take(&mut batches[shard]);
                        senders[shard].send(batch).expect("worker outlives stream");
                    }
                }
                Err(e) => {
                    // Key-reliability numbers over a corrupt or truncated
                    // stream are worse than no numbers: refuse the input.
                    eprintln!("refusing corrupt input {input}: {e}");
                    exit(1);
                }
            }
        }
        for (tx, batch) in senders.into_iter().zip(batches) {
            tx.send(batch).expect("worker outlives stream");
        }
        let mut merged: Option<KeyLifeAccumulator> = None;
        for worker in workers {
            let shard = worker.join().expect("worker panics propagate");
            match &mut merged {
                None => merged = Some(shard),
                Some(m) => m.merge(shard),
            }
        }
        merged.expect("at least one shard")
    });
    drop(heartbeat);
    let elapsed = started.elapsed().as_secs_f64();

    eprintln!(
        "replayed {} records ({} folded, {} reconstructions)",
        merged.records_seen(),
        merged.records_folded(),
        merged.reconstructions()
    );
    if let (Some(path), Some(ins)) = (&metrics_out, &obs) {
        match metrics::write_metrics(path, ins) {
            Ok(()) => eprintln!("wrote metrics snapshot to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
        }
    }

    let life = merged.finish().unwrap_or_else(|e| {
        eprintln!("key-lifetime evaluation failed: {e}");
        exit(1);
    });

    print!("{}", life.render_table());

    if let Some(path) = csv_out {
        std::fs::write(&path, life.csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        eprintln!("wrote {path}");
    }
    if let Some(path) = bench_out {
        std::fs::write(&path, keylife_bench_json(&life, elapsed)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        eprintln!("wrote {path}");
    }
}

/// Parses the `--profiles` list: comma-separated spec tokens, each with an
/// optional `@BITS` secret-length override (else `default_bits`).
fn parse_profiles(list: &str, default_bits: usize) -> Result<Vec<KeyProfile>, String> {
    let profiles: Vec<KeyProfile> = list
        .split(',')
        .filter(|token| !token.is_empty())
        .map(|token| {
            let (spec, bits) = match token.split_once('@') {
                Some((spec, bits)) => (
                    spec,
                    bits.parse::<usize>()
                        .map_err(|_| format!("invalid secret length in profile `{token}`"))?,
                ),
                None => (token, default_bits),
            };
            KeyProfile::parse(spec, bits).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    if profiles.is_empty() {
        return Err("--profiles needs at least one profile".to_string());
    }
    Ok(profiles)
}
