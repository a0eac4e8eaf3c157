//! `repro`: the paper reproduction users run — `repro --accel --fig5
//! --fig6 --table1 --keylife --scale small --threads 2` through its public
//! calls: the analytic nominal-vs-accelerated comparison, then a campaign
//! streamed into the assessment and a second one into the key-lifetime
//! fold (40 000 records each), never touching the store.
//!
//! It measures what no other workload reaches: the single-threaded
//! analytic aging model, and the streamed path from campaign to
//! accumulator. A traced operation replays both campaigns through the
//! board and bus calls (see [`crate::replay`]) into the same accumulators.

use super::keylife::{count_keylife, failed_records};
use super::{Checked, Counts, Workload, THREADS};
use crate::measure::Digest;
use crate::replay;
use crate::trace::Tracer;
use pufassess::report::{self, Series};
use pufassess::streaming::WindowAccumulator;
use pufassess::{Assessment, KeyLife, KeyLifeAccumulator};
use pufbench::{
    campaign_total_cycles, run_assessment_streaming_with, run_keylife_streaming_with, Scale,
};
use pufobs::Instruments;
use sramaging::accelerated;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The paper's accelerated/nominal monthly WCHD-rate ratio (1.28/0.74).
pub const PAPER_RATE_RATIO: f64 = 1.73;
/// Allowed distance of the reproduced ratio from [`PAPER_RATE_RATIO`].
pub const RATE_RATIO_TOLERANCE: f64 = 0.1;

/// What one `repro` operation produced.
#[derive(Debug, Clone)]
pub struct ReproOutput {
    /// The text the binary prints on stdout.
    pub text: String,
    /// Accelerated over nominal monthly WCHD growth rate.
    pub rate_ratio: f64,
    /// The streamed assessment.
    pub assessment: Assessment,
    /// The streamed key-lifetime report.
    pub life: KeyLife,
    /// Per-layer counts of the pass (traced or instrumented operations).
    pub counts: Counts,
}

/// The `repro` binary's calls for `--accel --fig5 --fig6 --table1
/// --keylife --scale SCALE --seed SEED --threads 2`, in its order. With
/// `tr` on, the two campaigns are replayed through the board and bus calls
/// into the same accumulators; with `obs`, the engine's instruments are
/// attached (as `--metrics-out` does).
///
/// # Errors
///
/// Returns an error only from a traced replay's sink, which cannot fail
/// for accumulators.
pub fn operation(
    scale: Scale,
    seed: u64,
    tr: &mut Tracer,
    obs: Option<&Instruments>,
) -> io::Result<ReproOutput> {
    let mut text = String::new();
    let mut counts = Counts::new();
    let (nominal, accelerated_study) =
        tr.span("sramaging.analytic", || accelerated::comparison(24));
    let _ = writeln!(
        text,
        "\n=== Nominal vs accelerated aging (paper §IV-D / §V) ===\n"
    );
    for study in [&nominal, &accelerated_study] {
        let _ = writeln!(
            text,
            "{:<24} WCHD {:.2}% → {:.2}%  ({:+.2}%/month compound)",
            study.label,
            study.start_wchd() * 100.0,
            study.end_wchd() * 100.0,
            study.monthly_wchd_rate * 100.0,
        );
    }
    let rate_ratio = accelerated_study.monthly_wchd_rate / nominal.monthly_wchd_rate;
    let _ = writeln!(
        text,
        "\naccelerated/nominal monthly-rate ratio: {rate_ratio:.2}× (paper: 1.28/0.74 ≈ 1.73×)"
    );

    let config = scale.campaign_config();
    let started = Instant::now();
    let assessment = if tr.enabled() {
        let mut accumulator = WindowAccumulator::new(scale.protocol());
        let replayed = replay::run(
            &config,
            seed,
            THREADS,
            &mut accumulator,
            "pufassess.fold",
            tr,
        )?;
        count_replay(&mut counts, &replayed);
        counts.insert(
            "pufassess.fold.records",
            accumulator.records_folded() as f64,
        );
        counts.insert(
            "pufassess.fold.skipped",
            accumulator.records_skipped() as f64,
        );
        counts.insert(
            "pufassess.fold.useful_ratio",
            accumulator.records_folded() as f64 / accumulator.records_seen().max(1) as f64,
        );
        tr.span("pufassess.finish", || accumulator.finish())
    } else {
        Ok(run_assessment_streaming_with(scale, seed, THREADS, obs))
    }
    .map_err(|e| io::Error::other(format!("assessment failed: {e}")))?;
    let mut engine_s = started.elapsed().as_secs_f64();
    tr.span("pufassess.render", || {
        text.push_str(&assessment_text(&assessment))
    });

    let started = Instant::now();
    let life = if tr.enabled() {
        let mut accumulator = KeyLifeAccumulator::new(scale.keylife_config(seed));
        let replayed = replay::run(
            &config,
            seed,
            THREADS,
            &mut accumulator,
            "pufassess.keylife",
            tr,
        )?;
        count_replay(&mut counts, &replayed);
        tr.span("pufassess.keylife.finish", || accumulator.finish())
            .map_err(|e| io::Error::other(format!("key-lifetime evaluation failed: {e}")))?
    } else {
        run_keylife_streaming_with(scale, seed, THREADS, seed, obs)
    };
    engine_s += started.elapsed().as_secs_f64();
    tr.span("pufassess.render", || {
        let _ = writeln!(
            text,
            "\n=== key-lifetime workload (enroll month 0, replay the rest) ===\n"
        );
        text.push_str(&life.render_table());
    });
    count_keylife(&mut counts, &life);
    if let Some(ins) = obs {
        super::count_engine(&mut counts, ins, engine_s);
    }
    Ok(ReproOutput {
        text,
        rate_ratio,
        assessment,
        life,
        counts,
    })
}

/// The Fig. 5, Fig. 6 and Table I text `repro` prints for an assessment.
pub fn assessment_text(assessment: &Assessment) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "\n=== Fig. 5: fractional HD / HW distributions at the start ===\n"
    );
    let _ = writeln!(
        text,
        "{}",
        report::fig5_text(assessment.initial_quality(), 48)
    );
    let _ = writeln!(
        text,
        "\n=== Fig. 6: development of qualities over the aging test ===\n"
    );
    for series in [
        Series::Wchd,
        Series::Fhw,
        Series::NoiseEntropy,
        Series::PufEntropy,
    ] {
        let _ = writeln!(text, "{}", report::fig6_text(assessment, series, 40));
    }
    let _ = writeln!(text, "\n=== Table I ===\n");
    let _ = writeln!(text, "{}", assessment.table1().render());
    text
}

/// Adds a replay's board and bus counts.
fn count_replay(counts: &mut Counts, replayed: &replay::Replayed) {
    for (name, value) in [
        ("puftestbed.i2c.transactions", replayed.i2c_transactions),
        ("puftestbed.i2c.bytes", replayed.i2c_bytes),
        ("puftestbed.i2c.failures", replayed.i2c_failures),
    ] {
        *counts.entry(name).or_default() += value as f64;
    }
}

/// The paper's claims a `repro` output must show: the accelerated/nominal
/// rate ratio near 1.73, WCHD and noise entropy rising over the campaign,
/// and no wrong key.
pub fn claims_hold(output: &ReproOutput) -> Result<(), String> {
    let table = output.assessment.table1();
    if (output.rate_ratio - PAPER_RATE_RATIO).abs() > RATE_RATIO_TOLERANCE {
        return Err(format!(
            "rate ratio {:.3} outside {PAPER_RATE_RATIO}±{RATE_RATIO_TOLERANCE}",
            output.rate_ratio
        ));
    }
    if table.wchd.end_avg <= table.wchd.start_avg {
        return Err("WCHD does not rise".into());
    }
    if table.noise.end_avg <= table.noise.start_avg {
        return Err("noise entropy does not rise".into());
    }
    if output.life.wrong_keys != 0 {
        return Err(format!("{} wrong keys", output.life.wrong_keys));
    }
    Ok(())
}

/// The `repro` workload at `Scale::Small`.
#[derive(Debug)]
pub struct ReproBench {
    seed: u64,
    /// The assessment text of the streamed campaign, built in set-up.
    reference: String,
    /// Attach the engine's instruments to plain operations (traced runs
    /// read its shard timings).
    instrument: bool,
}

impl Workload for ReproBench {
    const NAME: &'static str = "repro";
    type Output = ReproOutput;

    /// Streams the workload's campaign into an assessment once: its Fig. 5,
    /// Fig. 6 and Table I text is the reference each operation must print.
    fn setup(seed: u64, _dir: &Path, traced_run: bool) -> io::Result<Self> {
        let assessment = run_assessment_streaming_with(Scale::Small, seed, THREADS, None);
        Ok(Self {
            seed,
            reference: assessment_text(&assessment),
            instrument: traced_run,
        })
    }

    fn operation(&mut self, tr: &mut Tracer) -> io::Result<ReproOutput> {
        let obs = (self.instrument && !tr.enabled()).then(Instruments::new);
        operation(Scale::Small, self.seed, tr, obs.as_ref())
    }

    fn check(&mut self, output: ReproOutput) -> Checked {
        let records = self.expected_records();
        let coverage_gaps = if output.assessment.coverage().is_complete() {
            0
        } else {
            records / 2
        };
        let mut failed = failed_records(&output.life)
            + (records / 2).saturating_sub(output.life.records_seen)
            + coverage_gaps;
        if let Err(problem) = claims_hold(&output) {
            eprintln!("repro: claim check failed: {problem}");
            failed = records;
        }
        if !output.text.contains(&self.reference) {
            eprintln!("repro: assessment differs from the streamed reference");
            failed = records;
        }
        Checked {
            records,
            failed,
            digest: Digest::of(&output.text),
            counts: output.counts,
        }
    }

    fn expected_records(&self) -> u64 {
        2 * campaign_total_cycles(&Scale::Small.campaign_config())
    }
}
