//! Analyses a record file (JSON lines or `pufrec/1` binary) with the
//! paper's evaluation protocol: prints Table I, a coverage report (sparse
//! device-months from brownouts or retry exhaustion are flagged, not
//! averaged over silently), the Fig. 6 development summaries, and the
//! fitted hidden-variable model of each device.
//!
//! Records stream from disk through a parallel parser straight into the
//! bounded-memory window accumulator, so arbitrarily large record files
//! assess in memory proportional to `devices × months`, not file size.
//!
//! ```text
//! assess --in records [--format json|binary] [--reads 1000] [--eval-day 8]
//!        [--csv PREFIX] [--threads N] [--batch-lines N] [--metrics-out FILE]
//!        [--verbose]
//! ```
//!
//! The storage format is detected from the file's first bytes; `--format`
//! forces it instead, except that `--format json` on a file opening with
//! the `pufrec/1` magic is a usage error (exit 2). The assessment output is
//! byte-identical across formats. `--metrics-out` dumps the `pufobs` reader
//! and accumulator counters as JSON after the run; `--verbose` prints a
//! once-per-second progress heartbeat to stderr. Neither changes the
//! assessment by a byte.
//!
//! `--resync BYTES` turns on bounded best-effort resynchronisation for
//! `pufrec/1` input (it implies `--format binary`): after a corrupt
//! region, the reader scans forward for the next CRC-valid frame instead
//! of stopping, skipping at most BYTES in total. Every dropped region is
//! reported on stderr with its exact offsets, counts toward the malformed
//! total, and the lost reads surface in the coverage report as missing or
//! underfilled device-months — degradation is graceful but never silent.
//! For exhaustive offline recovery use `convert --fsck --repair`.

use pufassess::fit;
use pufassess::monthly::EvaluationProtocol;
use pufassess::report::{self, Series};
use pufassess::streaming::WindowAccumulator;
use pufbench::{cli, metrics};
use pufobs::Instruments;
use puftestbed::store::{RecordFormat, DEFAULT_BATCH_LINES};
use std::process::exit;

fn main() {
    let mut input: Option<String> = None;
    let mut format: Option<RecordFormat> = None;
    let mut csv_prefix: Option<String> = None;
    let mut protocol = EvaluationProtocol::default();
    let mut threads = pufbench::default_threads();
    let mut batch_lines = DEFAULT_BATCH_LINES;
    let mut metrics_out: Option<String> = None;
    let mut verbose = false;
    let mut resync: Option<u64> = None;

    let mut args = cli::Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--in" => input = Some(args.value(&arg)),
            "--format" => format = Some(args.parse(&arg)),
            "--reads" => protocol.reads_per_window = args.positive(&arg),
            "--eval-day" => protocol.eval_day = args.parse(&arg),
            "--csv" => csv_prefix = Some(args.value(&arg)),
            "--threads" => threads = args.positive(&arg),
            "--batch-lines" => batch_lines = args.positive(&arg),
            "--metrics-out" => metrics_out = Some(args.value(&arg)),
            "--verbose" => verbose = true,
            "--resync" => resync = Some(args.parse(&arg)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: assess --in FILE [--format json|binary] [--reads N] \
                     [--eval-day D] [--csv PREFIX] [--threads N] [--batch-lines N] \
                     [--metrics-out FILE] [--verbose] [--resync BYTES]"
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

    // Stream: reader thread → parser pool → accumulator. The file is never
    // held in memory; only per-(device, month) window state is.
    let obs = (metrics_out.is_some() || verbose).then(Instruments::new);
    let reader = pufbench::open_input(&input, format, resync, threads, batch_lines, obs.as_ref());
    let mut accumulator = WindowAccumulator::new(protocol);
    if let Some(ins) = &obs {
        accumulator.attach_instruments(ins);
    }
    let heartbeat = verbose.then(|| {
        let ins = obs.as_ref().expect("verbose implies instruments");
        metrics::spawn_heartbeat(ins, metrics::assess_spec(reader.format()))
    });
    let mut malformed = 0u64;
    for item in reader {
        match item {
            Ok(record) => accumulator.push(&record),
            Err(e) if e.is_io() => {
                // A mid-file read failure is data loss, not a bad line:
                // fail loudly instead of assessing a silent prefix.
                eprintln!("reading {input} failed: {e}");
                exit(1);
            }
            Err(e) => {
                malformed += 1;
                eprintln!("skipping malformed record: {e}");
            }
        }
    }
    drop(heartbeat);
    eprintln!(
        "loaded {} records ({malformed} malformed, {} width-mismatched records skipped)",
        accumulator.records_seen(),
        accumulator.skipped_width_mismatch()
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

    let (assessment, windows) = accumulator.finish_with_windows().unwrap_or_else(|e| {
        eprintln!("assessment failed: {e}");
        exit(1);
    });

    println!("=== Table I ===\n");
    let months = assessment.aggregates().len();
    if months >= 2 {
        println!("{}", assessment.table1().render());
    } else {
        println!("Table I needs at least two evaluated months; this file has {months}.\n");
    }

    // Coverage: say so when months are missing devices or starved of reads
    // (brownouts, retry exhaustion) — the aggregates above silently shrink
    // their sample otherwise.
    let coverage = assessment.coverage();
    if coverage.is_complete() {
        println!(
            "coverage: complete — {} devices × {} months\n",
            coverage.expected_devices(),
            coverage.months().len()
        );
    } else {
        println!(
            "coverage: {} of {} months sparse ({} devices expected)",
            coverage.sparse_months().len(),
            coverage.months().len(),
            coverage.expected_devices()
        );
        for month in coverage.sparse_months() {
            let (year, month_no) = month.year_month;
            println!(
                "  {year}-{month_no:02}: {} present, {} missing, {} underfilled",
                month.devices_present,
                month.missing_devices.len(),
                month.underfilled_devices.len()
            );
        }
        println!();
    }

    println!("=== development summaries ===\n");
    for series in [Series::Wchd, Series::NoiseEntropy, Series::StableRatio] {
        println!("{}", report::fig6_text(&assessment, series, 32));
    }

    println!("=== fitted hidden-variable model per device (month 0) ===\n");
    let first_month = windows
        .iter()
        .map(|w| w.year_month)
        .min()
        .expect("non-empty assessment");
    println!(
        "{:<8} {:>10} {:>10} {:>12}",
        "device", "mu", "sigma", "pred. WCHD"
    );
    for window in windows.iter().filter(|w| w.year_month == first_month) {
        match fit::fit_population(&window.counter) {
            Ok(pop) => println!(
                "{:<8} {:>10.3} {:>10.3} {:>11.2}%",
                window.device.to_string(),
                pop.mu,
                pop.sigma,
                pop.expected_wchd() * 100.0
            ),
            Err(e) => println!("{:<8} unfittable: {e}", window.device.to_string()),
        }
    }

    if let Some(prefix) = csv_prefix {
        let devices = format!("{prefix}_devices.csv");
        let aggregates = format!("{prefix}_aggregates.csv");
        std::fs::write(&devices, report::device_series_csv(&assessment)).unwrap_or_else(|e| {
            eprintln!("cannot write {devices}: {e}");
            exit(1);
        });
        std::fs::write(&aggregates, report::aggregate_csv(&assessment)).unwrap_or_else(|e| {
            eprintln!("cannot write {aggregates}: {e}");
            exit(1);
        });
        eprintln!("wrote {devices} and {aggregates}");
    }
}
