//! The benchmark's command line.
//!
//! ```text
//! pipebench --workload campaign|assess|keylife|repro --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. A plain run (`--trace 0`) sets up three
//! times, then runs operations for `S` seconds (at least one) and prints
//! `result_s`, `records_per_s`, `peak_rss_mb` and `setup_s`; a traced run
//! (`--trace 1`) sets up once, alternates plain and traced operations (at
//! least two of each), runs the workload's replays, and prints the
//! per-layer metrics, the self-time table and the span file's path. The
//! last line of stdout is the JSON result. Work files live under
//! `.pipebench/` and are removed at exit; span files stay in
//! `.pipebench/trace/`.

use pipebench::layers;
use pipebench::measure::{self, median, Metric};
use pipebench::trace::{self, Profile, Tracer};
use pipebench::workloads::assess::AssessBench;
use pipebench::workloads::campaign::CampaignBench;
use pipebench::workloads::keylife::KeyLifeBench;
use pipebench::workloads::repro::ReproBench;
use pipebench::workloads::{Checked, Workload};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

const USAGE: &str =
    "usage: pipebench --workload campaign|assess|keylife|repro --seed N --seconds S --trace 0|1";

/// Set-ups per plain run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Work files, relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".pipebench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("pipebench: {e}\n{USAGE}");
        exit(2);
    });
    let result = match args.workload.as_str() {
        "campaign" => run::<CampaignBench>(&args),
        "assess" => run::<AssessBench>(&args),
        "keylife" => run::<KeyLifeBench>(&args),
        "repro" => run::<ReproBench>(&args),
        other => {
            eprintln!("pipebench: unknown workload `{other}`\n{USAGE}");
            exit(2);
        }
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pipebench: {e}");
            exit(1);
        }
    }
}

/// One operation of a run.
struct Op {
    traced: bool,
    result_s: f64,
    rss_mb: f64,
    checked: Checked,
    spans: Vec<trace::Span>,
}

/// Runs one workload in a fresh work directory, removed afterwards.
fn run<W: Workload>(args: &Args) -> io::Result<String> {
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", W::NAME, std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = measure_workload::<W>(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure_workload<W: Workload>(args: &Args, dir: &Path) -> io::Result<String> {
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut bench: Option<W> = None;
    for _ in 0..setups {
        drop(bench.take());
        let started = Instant::now();
        bench = Some(W::setup(args.seed, dir, args.trace)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let expected = bench.expected_records();
    if !measure::reset_peak_rss() {
        eprintln!("pipebench: cannot reset the peak RSS; peak_rss_mb covers the whole process");
    }

    let epoch = Instant::now();
    let started = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    loop {
        let traced = args.trace && ops.len() % 2 == 1;
        let id = u32::try_from(ops.len()).expect("few operations");
        let mut tr = if traced {
            Tracer::on(epoch, id)
        } else {
            Tracer::off()
        };
        measure::reset_peak_rss();
        let root = tr.open(W::NAME);
        let t0 = Instant::now();
        let output = bench.operation(&mut tr);
        let result_s = t0.elapsed().as_secs_f64();
        tr.close(root);
        let rss_mb = measure::peak_rss_mb();
        let (checked, errored) = match output {
            Ok(output) => (bench.check(output), false),
            Err(e) => {
                eprintln!("pipebench: {} operation failed: {e}", W::NAME);
                let all = Checked {
                    records: expected,
                    failed: expected,
                    ..Checked::default()
                };
                (all, true)
            }
        };
        ops.push(Op {
            traced,
            result_s,
            rss_mb,
            checked,
            spans: tr.into_spans(),
        });
        // A traced run needs two plain and two traced operations at least,
        // so the overhead ratio is not one noisy pair.
        let enough = !args.trace || ops.len() >= 4;
        if errored || (enough && started.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }
    let first_digest = ops[0].checked.digest;
    for op in &mut ops {
        if op.checked.digest != first_digest {
            eprintln!("pipebench: operations disagree on the output digest");
            op.checked.failed = op.checked.records.max(expected);
        }
    }
    let attempted: u64 = ops.iter().map(|op| op.checked.records).sum();
    let failed: u64 = ops.iter().map(|op| op.checked.failed).sum();
    let correct = failed == 0;

    println!(
        "pipebench {} seed {}: {} set-ups, {} operations ({} traced), error_rate {} ({failed} \
         failed of {attempted} records)",
        W::NAME,
        args.seed,
        setup_s.len(),
        ops.len(),
        ops.iter().filter(|op| op.traced).count(),
        failed as f64 / attempted.max(1) as f64,
    );
    let metrics = if args.trace {
        traced_metrics(&mut bench, &ops, args, epoch)?
    } else {
        plain_metrics(&ops, &setup_s)
    };
    for m in &metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(measure::result_line(
        correct,
        attempted.max(1),
        failed,
        &metrics,
    ))
}

/// The end-to-end metrics of a plain run.
fn plain_metrics(ops: &[Op], setup_s: &[f64]) -> Vec<Metric> {
    let spread = |values: Vec<f64>| {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("min {lo:.4} max {hi:.4}")
    };
    let times: Vec<f64> = ops.iter().map(|op| op.result_s).collect();
    println!(
        "  result_s over {} operations: {}; setup_s over {} set-ups: {}",
        ops.len(),
        spread(times.clone()),
        setup_s.len(),
        spread(setup_s.to_vec())
    );
    let values = [
        median(times),
        median(ops.iter().map(|op| op.checked.records as f64 / op.result_s)),
        median(ops.iter().map(|op| op.rss_mb)),
        median(setup_s.iter().copied()),
    ];
    measure::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// The per-layer metrics of a traced run: span-derived metrics and counts
/// of every operation (median per metric), the replays' metrics, and the
/// tracing overhead. Prints the self-time tables and writes the span file.
fn traced_metrics<W: Workload>(
    bench: &mut W,
    ops: &[Op],
    args: &Args,
    epoch: Instant,
) -> io::Result<Vec<Metric>> {
    let profiles: Vec<Profile> = ops
        .iter()
        .filter(|op| op.traced)
        .map(|op| trace::profile(&op.spans))
        .collect();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in ops {
        for (&name, &value) in &op.checked.counts {
            samples.entry(name).or_default().push(value);
        }
    }
    for profile in &profiles {
        for (name, value) in layers::from_profile(profile) {
            samples.entry(name).or_default().push(value);
        }
    }
    let mut values: BTreeMap<&'static str, f64> = samples
        .into_iter()
        .map(|(name, v)| (name, median(v)))
        .collect();

    let first_replay = u32::try_from(ops.len()).expect("few operations");
    let busy_s = median(profiles.iter().map(|p| p.busy_s));
    let extras = bench.replays(epoch, first_replay, busy_s)?;
    values.extend(extras.metrics.iter().map(|(&k, &v)| (k, v)));
    let plain_s = median(ops.iter().filter(|op| !op.traced).map(|op| op.result_s));
    let traced_s = median(ops.iter().filter(|op| op.traced).map(|op| op.result_s));
    values.insert("trace.overhead", traced_s / plain_s - 1.0);
    let matched = extras.replay_match && values.get("trace.replay_match").is_none_or(|&m| m == 1.0);
    values.insert("trace.replay_match", f64::from(u8::from(matched)));

    println!("{}", trace::render_table(W::NAME, &profiles));
    for spans in &extras.spans {
        let profile = trace::profile(spans);
        println!("{}", trace::render_table(spans[0].name, &[profile]));
    }
    let span_file =
        Path::new(WORK_DIR)
            .join("trace")
            .join(format!("{}-seed{}.spans.tsv", W::NAME, args.seed));
    std::fs::create_dir_all(span_file.parent().expect("span file has a directory"))?;
    let mut text = String::from("op\tid\tparent\tthread\tname\tstart_ns\tend_ns\n");
    for spans in ops.iter().map(|op| &op.spans).chain(&extras.spans) {
        trace::write_spans(&mut text, spans);
    }
    std::fs::write(&span_file, text)?;
    println!(
        "  spans written to {} (trace.overhead {:+.3}, replay match {})",
        span_file.display(),
        values["trace.overhead"],
        matched
    );

    Ok(layers::METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}
