//! Runs the `bench-perf/1` kernel and end-to-end performance suites and
//! writes the JSON report.
//!
//! ```text
//! benchperf [--out FILE] [--seed N]
//! ```
//!
//! The quick profile is sub-second in release mode; the repository commits
//! one run as `BENCH_kernels.json` and CI's `perf-smoke` job fails when any
//! suite's speedup ratio collapses by more than 2× against it. Absolute
//! nanoseconds are machine-specific — only the kernel-vs-scalar ratios are
//! compared across machines.

use pufbench::cli;
use pufbench::perf::{perf_report_json, run_quick};
use std::process::exit;

fn main() {
    let mut out: Option<String> = None;
    let mut seed = 2017u64;

    let mut args = cli::Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.value(&arg)),
            "--seed" => seed = args.parse(&arg),
            "--help" | "-h" => {
                eprintln!("usage: benchperf [--out FILE] [--seed N]");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                exit(2);
            }
        }
    }

    let report = run_quick(seed);
    for suite in report.kernels.iter().chain(&report.end_to_end) {
        eprintln!(
            "{:<20} scalar {:>12} ns   kernel {:>12} ns   {:.2}x",
            suite.name,
            suite.scalar_ns,
            suite.kernel_ns,
            suite.speedup()
        );
    }

    let json = perf_report_json(&report);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("error: writing {path}: {e}");
                exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
