//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale smoke|small|paper] [--seed N] [--threads N] \
//!       [--records-out FILE] [--format json|binary] [--out-dir DIR] \
//!       [--metrics-out FILE] [--verbose] \
//!       [--checkpoint-out FILE] [--checkpoint-every N] \
//!       [--resume-from FILE] [--halt-after-windows N] \
//!       [--io-faults FILE] \
//!       [--fig3] [--fig4] [--fig5] [--fig6] [--table1] [--accel]
//!       [--keylife] [--all]
//! ```
//!
//! Artifacts are printed to stdout; `--fig4` additionally writes
//! `fig4_startup_pattern.pgm` under `--out-dir` (default `examples/out`,
//! created on demand). The campaign runs once and feeds every selected
//! artifact: one pass streams into the assessment (`--fig5`, `--fig6`,
//! `--table1`) and the key-lifetime workload (`--keylife`), each only when
//! selected. `--records-out` tees the same pass's records to a file in the
//! chosen `--format` (default json) — re-assessing that file reproduces
//! the printed tables.
//! `--metrics-out` dumps the `pufobs` pipeline snapshot (campaign and
//! accumulator counters) as JSON after the run; `--verbose` prints a
//! once-per-second progress heartbeat to stderr. None of these change the
//! printed artifacts by a byte.
//!
//! `--checkpoint-out`/`--checkpoint-every` write `pufchk/1` checkpoints at
//! window boundaries; `--resume-from` continues a halted or killed run and
//! reproduces the uninterrupted run's records and tables exactly. Both
//! `--checkpoint-out` and `--resume-from` need `--records-out`, the file
//! the interrupted stream is salvaged from. `--halt-after-windows` stops
//! the campaign early but resumable, so it needs `--checkpoint-out`;
//! `--checkpoint-every` does too, and `--format` needs `--records-out`.
//! Each exits 2 without the flag it needs.
//!
//! `--io-faults FILE` loads a deterministic storage fault plan (see
//! `puftestbed::store::iofault`) injected into the `--records-out`,
//! checkpoint, and resume-salvage I/O; without the flag every artifact is
//! byte-identical to a build without the fault layer.
//!
//! The campaign flags (`--records-out`, `--checkpoint-out`, `--resume-from`,
//! `--halt-after-windows`, `--io-faults`) need an artifact that runs the
//! campaign: `--fig5`, `--fig6`, `--table1`, `--all` or no artifact flag.
//! Without one, `repro` exits 2 instead of ignoring them.

use pufassess::report::{self, Series};
use pufassess::streaming::WindowAccumulator;
use pufassess::{visualize, KeyLifeAccumulator};
use pufbench::{
    campaign_total_cycles, cli, default_threads, metrics, reopen_for_resume_with, start_campaign,
    Scale,
};
use pufobs::Instruments;
use puftestbed::store::{IoFaultPlan, IoPolicy, RecordFormat, RecordSink, TeeSink};
use puftestbed::PowerWaveform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sramaging::accelerated;
use sramcell::{Environment, SramArray, TechnologyProfile};
use std::collections::BTreeSet;
use std::path::Path;

/// The artifacts `--all` (or no artifact flag) selects, each also a flag.
const ARTIFACTS: [&str; 7] = ["fig3", "fig4", "fig5", "fig6", "table1", "accel", "keylife"];

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 2017;
    let mut threads = default_threads();
    let mut records_out: Option<String> = None;
    let mut format: Option<RecordFormat> = None;
    let mut out_dir = String::from("examples/out");
    let mut metrics_out: Option<String> = None;
    let mut verbose = false;
    let mut checkpoint_out: Option<String> = None;
    let mut checkpoint_every: Option<u32> = None;
    let mut resume_from: Option<String> = None;
    let mut halt_after: Option<u32> = None;
    let mut io_faults_from: Option<String> = None;
    let mut artifacts: BTreeSet<&'static str> = BTreeSet::new();
    let mut args = cli::Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.value(&arg);
                scale = Scale::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale `{value}` (smoke|small|paper)");
                    std::process::exit(2);
                });
            }
            "--seed" => seed = args.parse(&arg),
            "--threads" => threads = args.positive(&arg),
            "--records-out" => records_out = Some(args.value(&arg)),
            "--format" => format = Some(args.parse(&arg)),
            "--metrics-out" => metrics_out = Some(args.value(&arg)),
            "--out-dir" => out_dir = args.value(&arg),
            "--checkpoint-out" => checkpoint_out = Some(args.value(&arg)),
            "--checkpoint-every" => checkpoint_every = Some(args.parse(&arg)),
            "--resume-from" => resume_from = Some(args.value(&arg)),
            "--halt-after-windows" => halt_after = Some(args.positive(&arg)),
            "--io-faults" => io_faults_from = Some(args.value(&arg)),
            "--verbose" => verbose = true,
            "--all" => artifacts.extend(ARTIFACTS),
            other => match ARTIFACTS
                .into_iter()
                .find(|&a| other.strip_prefix("--") == Some(a))
            {
                Some(artifact) => {
                    artifacts.insert(artifact);
                }
                None => {
                    eprintln!("unknown argument `{other}`");
                    std::process::exit(2);
                }
            },
        }
    }
    if artifacts.is_empty() {
        artifacts.extend(ARTIFACTS);
    }
    if resume_from.is_some() && records_out.is_none() {
        eprintln!(
            "--resume-from needs --records-out FILE (the already-measured head of the \
             record stream is salvaged from it to rebuild the assessment)"
        );
        std::process::exit(2);
    }
    let assesses = ["fig5", "fig6", "table1"]
        .iter()
        .any(|a| artifacts.contains(a));
    if !assesses
        && (records_out.is_some()
            || checkpoint_out.is_some()
            || resume_from.is_some()
            || halt_after.is_some()
            || io_faults_from.is_some())
    {
        eprintln!(
            "--records-out, --checkpoint-out, --resume-from, --halt-after-windows and \
             --io-faults act on the campaign, which only --fig5, --fig6 or --table1 runs"
        );
        std::process::exit(2);
    }
    // Flags that only act through a file another flag names: a halted run
    // resumes from its checkpoint, and a checkpoint from the records file.
    let checkpoint = ("--checkpoint-out", checkpoint_out.is_some());
    let records = ("--records-out", records_out.is_some());
    for (flag, given, (needs, present)) in [
        ("--checkpoint-every", checkpoint_every.is_some(), checkpoint),
        ("--halt-after-windows", halt_after.is_some(), checkpoint),
        ("--checkpoint-out", checkpoint_out.is_some(), records),
        ("--format", format.is_some(), records),
    ] {
        if given && !present {
            eprintln!("{flag} needs {needs} FILE");
            std::process::exit(2);
        }
    }
    let format = format.unwrap_or(RecordFormat::Json);

    // Figures 3 and 4 and the accelerated comparison need no campaign.
    if artifacts.contains("fig3") {
        fig3();
    }
    if artifacts.contains("fig4") {
        fig4(seed, &out_dir);
    }
    if artifacts.contains("accel") {
        accel();
    }

    // Instruments are created whenever anything will consume them; the
    // pipeline output is identical either way.
    let obs = (metrics_out.is_some() || verbose).then(Instruments::new);
    let io_policy = io_faults_from.as_ref().map(|path| {
        let plan = IoFaultPlan::load(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot load I/O fault plan {path}: {e}");
            std::process::exit(1);
        });
        let policy = IoPolicy::new(plan, 0);
        match &obs {
            Some(ins) => policy.instruments(ins),
            None => policy,
        }
    });

    let keylife = artifacts.contains("keylife");
    if assesses || keylife {
        eprintln!("running campaign at {scale:?} scale (seed {seed}, {threads} threads)…");
        let heartbeat = if verbose {
            obs.as_ref().map(|ins| {
                let total = campaign_total_cycles(&scale.campaign_config());
                metrics::spawn_heartbeat(ins, metrics::campaign_spec(total))
            })
        } else {
            None
        };
        let (campaign, on_disk) =
            start_campaign(scale.campaign_config(), seed, resume_from.as_deref());
        let mut campaign = campaign.threads(threads);
        if let Some(ins) = &obs {
            campaign = campaign.instruments(ins);
        }
        if let Some(ckpt) = &checkpoint_out {
            campaign = campaign.checkpoints(checkpoint_every.unwrap_or(1), ckpt);
        }
        if let Some(policy) = &io_policy {
            campaign = campaign.io_policy(policy.clone());
        }
        if let Some(n) = halt_after {
            campaign = campaign.halt_after_windows(n);
        }
        // One pass, streamed: each campaign worker folds its boards'
        // records into its part of the selected accumulators as it measures
        // them, so even paper scale never holds the dataset in memory. Only
        // the records file takes the merged stream.
        let mut assessment = assesses.then(|| WindowAccumulator::new(scale.protocol()));
        let mut life = keylife.then(|| KeyLifeAccumulator::new(scale.keylife_config(seed)));
        if let (Some(ins), Some(accumulator)) = (&obs, &mut assessment) {
            accumulator.attach_instruments(ins);
        }
        if let (Some(ins), Some(accumulator)) = (&obs, &mut life) {
            accumulator.attach_instruments(ins);
        }
        let mut folds = TeeSink::new(assessment, life);
        // On resume, the salvage replays the head of the stream into the
        // folds, so they see the complete campaign despite the interruption;
        // each device's salvaged state then goes to the worker that
        // measures it.
        let mut records = records_out.as_deref().map(|path| {
            let declared = u32::try_from(scale.campaign_config().read_bits).unwrap_or(0);
            let policy = io_policy.clone();
            reopen_for_resume_with(path, format, declared, on_disk, Some(&mut folds), policy)
                .unwrap_or_else(|e| {
                    eprintln!("cannot open {path}: {e}");
                    std::process::exit(1);
                })
        });
        let ordered = records.as_mut().map(|sink| sink as &mut dyn RecordSink);
        if let Err(e) = campaign.run_sharded(&mut folds, ordered) {
            // Only the records file can fail; the accumulators take any record.
            let path = records_out.as_deref().unwrap_or_default();
            eprintln!("recording records to {path} failed: {e}");
            std::process::exit(1);
        }
        drop(heartbeat);
        if let (Some(sink), Some(path)) = (records, &records_out) {
            let written = sink.written();
            if let Err(e) = sink.finish() {
                eprintln!("flush of {path} failed: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {written} records to {path} ({format} format)");
        }
        if !campaign.completed() {
            if let Some(ckpt) = &checkpoint_out {
                let summary = campaign.summary_so_far();
                eprintln!(
                    "halted after {} windows ({} records so far); continue with \
                     --resume-from {ckpt} to finish and print the tables",
                    summary.windows, summary.records
                );
            }
            if let (Some(path), Some(ins)) = (&metrics_out, &obs) {
                if let Err(e) = metrics::write_metrics(path, ins) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
        let (assessment, life) = folds.into_inner();
        if let Some(accumulator) = assessment {
            let assessment = accumulator
                .finish()
                .expect("built-in scales produce assessable datasets");
            if artifacts.contains("fig5") {
                println!("\n=== Fig. 5: fractional HD / HW distributions at the start ===\n");
                println!("{}", report::fig5_text(assessment.initial_quality(), 48));
            }
            if artifacts.contains("fig6") {
                println!("\n=== Fig. 6: development of qualities over the aging test ===\n");
                for series in [
                    Series::Wchd,
                    Series::Fhw,
                    Series::NoiseEntropy,
                    Series::PufEntropy,
                ] {
                    println!("{}", report::fig6_text(&assessment, series, 40));
                }
            }
            if artifacts.contains("table1") {
                println!("\n=== Table I ===\n");
                println!("{}", assessment.table1().render());
            }
        }
        if let Some(accumulator) = life {
            let life = accumulator
                .finish()
                .expect("built-in scales produce evaluable datasets");
            println!("\n=== key-lifetime workload (enroll month 0, replay the rest) ===\n");
            print!("{}", life.render_table());
        }
    }

    if let (Some(path), Some(ins)) = (&metrics_out, &obs) {
        match metrics::write_metrics(path, ins) {
            Ok(()) => eprintln!("wrote metrics snapshot to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn fig3() {
    println!("=== Fig. 3: power waveforms (5.4 s period, 3.8 s on) ===\n");
    let l0 = PowerWaveform::paper_layer(0);
    let l1 = PowerWaveform::paper_layer(1);
    let dt = 0.15;
    for (name, w) in [("S3/S4  (layer 0)", l0), ("S19/S20 (layer 1)", l1)] {
        let trace: String = w
            .trace(0.0, 16.2, dt)
            .iter()
            .map(|&(_, on)| if on { '▔' } else { '▁' })
            .collect();
        println!("{name}: {trace}");
    }
    println!(
        "\nperiod {:.1} s, on {:.1} s, off {:.1} s, duty {:.3}",
        l0.period_s(),
        l0.on_s(),
        l0.off_s(),
        l0.duty()
    );
}

fn fig4(seed: u64, out_dir: &str) {
    println!("\n=== Fig. 4: start-up pattern of board S0 (1 KB) ===\n");
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = TechnologyProfile::atmega32u4();
    let sram = SramArray::generate(&profile, 8 * 1024, &mut rng);
    let pattern = sram.power_up(&Environment::nominal(&profile), &mut rng);
    // Print a 64-bit-wide excerpt (the first 2 KiBit) to keep stdout sane.
    let excerpt = pattern.prefix(2048);
    println!("{}", visualize::ascii_raster(&excerpt, 64));
    println!(
        "fractional Hamming weight of the full pattern: {:.4}",
        pattern.fractional_hamming_weight()
    );
    let image = visualize::pgm_image(&pattern, 128);
    let target = Path::new(out_dir).join("fig4_startup_pattern.pgm");
    let write = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&target, &image));
    match write {
        Ok(()) => println!("wrote {} ({} bytes)", target.display(), image.len()),
        Err(e) => eprintln!("could not write {}: {e}", target.display()),
    }
}

fn accel() {
    println!("\n=== Nominal vs accelerated aging (paper §IV-D / §V) ===\n");
    let (nominal, accelerated_study) = accelerated::comparison(24);
    for study in [&nominal, &accelerated_study] {
        println!(
            "{:<24} WCHD {:.2}% → {:.2}%  ({:+.2}%/month compound)",
            study.label,
            study.start_wchd() * 100.0,
            study.end_wchd() * 100.0,
            study.monthly_wchd_rate * 100.0,
        );
    }
    println!(
        "\naccelerated/nominal monthly-rate ratio: {:.2}× (paper: 1.28/0.74 ≈ 1.73×)",
        accelerated_study.monthly_wchd_rate / nominal.monthly_wchd_rate
    );
}
