//! `assess`: assess a recorded database — the `assess --in FILE --reads 200
//! --threads 2` path over a `Scale::Small` campaign recorded as JSON lines
//! (8 boards, 2 048-bit reads, 25 windows × 200 reads, 40 000 records).
//!
//! It reads the format `campaign` writes and simulates nothing. Set-up
//! records the campaign through a `TeeSink` into the file and a
//! `WindowAccumulator`, whose rendering is the reference every
//! operation's output must equal byte for byte.

use super::{Checked, Extras, Workload};
use crate::measure::Digest;
use crate::replay;
use crate::trace::Tracer;
use pufassess::fit;
use pufassess::monthly::EvaluationProtocol;
use pufassess::report::{self, Series};
use pufassess::streaming::{WindowAccumulator, WindowSnapshot};
use pufassess::Assessment;
use pufbench::Scale;
use puftestbed::store::RecordFormat;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one `assess` operation produced.
#[derive(Debug, Clone, Default)]
pub struct AssessOutput {
    /// The text the binary prints on stdout.
    pub text: String,
    /// Records decoded.
    pub read: u64,
    /// Malformed records skipped by the reader.
    pub malformed: u64,
    /// Records the accumulator folded.
    pub folded: u64,
    /// Records the accumulator skipped.
    pub skipped: u64,
}

/// The `assess` binary's calls for `--in INPUT --threads 2` with
/// `protocol`: parallel reader → `WindowAccumulator::push` →
/// `finish_with_windows` → Table I, coverage and Fig. 6 text → the month-0
/// model fit of each device.
///
/// # Errors
///
/// Returns an error for unreadable input and failed assessments, where the
/// binary exits with status 1.
pub fn operation(
    input: &Path,
    protocol: EvaluationProtocol,
    tr: &mut Tracer,
) -> io::Result<AssessOutput> {
    let mut reader = tr.span("puftestbed.store.open", || super::open_records(input))?;
    let mut accumulator = WindowAccumulator::new(protocol);
    let mut output = AssessOutput::default();
    let stream = tr.open("assess.stream");
    while let Some(item) = tr.span("puftestbed.store.read.wait", || reader.next()) {
        match item {
            Ok(record) => {
                output.read += 1;
                tr.span("pufassess.fold", || accumulator.push(&record));
            }
            Err(e) if e.is_io() => {
                return Err(io::Error::other(format!(
                    "reading {} failed: {e}",
                    input.display()
                )))
            }
            Err(_) => output.malformed += 1,
        }
    }
    tr.close(stream);
    output.folded = accumulator.records_folded();
    output.skipped = accumulator.records_skipped();
    let (assessment, windows) = tr
        .span("pufassess.finish", || accumulator.finish_with_windows())
        .map_err(|e| io::Error::other(format!("assessment failed: {e}")))?;
    output.text = render(&assessment, &windows, tr);
    Ok(output)
}

/// The `assess` binary's stdout for an assessment and its windows.
pub fn render(assessment: &Assessment, windows: &[WindowSnapshot], tr: &mut Tracer) -> String {
    let render = tr.open("pufassess.render");
    let mut out = String::new();
    {
        let _ = writeln!(out, "=== Table I ===\n\n{}", assessment.table1().render());
        let coverage = assessment.coverage();
        if coverage.is_complete() {
            let _ = writeln!(
                out,
                "coverage: complete — {} devices × {} months\n",
                coverage.expected_devices(),
                coverage.months().len()
            );
        } else {
            let _ = writeln!(
                out,
                "coverage: {} of {} months sparse ({} devices expected)",
                coverage.sparse_months().len(),
                coverage.months().len(),
                coverage.expected_devices()
            );
            for month in coverage.sparse_months() {
                let (year, month_no) = month.year_month;
                let _ = writeln!(
                    out,
                    "  {year}-{month_no:02}: {} present, {} missing, {} underfilled",
                    month.devices_present,
                    month.missing_devices.len(),
                    month.underfilled_devices.len()
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "=== development summaries ===\n");
        for series in [Series::Wchd, Series::NoiseEntropy, Series::StableRatio] {
            let _ = writeln!(out, "{}", report::fig6_text(assessment, series, 32));
        }
        let _ = writeln!(
            out,
            "=== fitted hidden-variable model per device (month 0) ===\n"
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>12}",
            "device", "mu", "sigma", "pred. WCHD"
        );
    }
    let first_month = windows
        .iter()
        .map(|w| w.year_month)
        .min()
        .expect("non-empty assessment");
    for window in windows.iter().filter(|w| w.year_month == first_month) {
        match tr.span("pufassess.fit", || fit::fit_population(&window.counter)) {
            Ok(pop) => {
                let _ = writeln!(
                    out,
                    "{:<8} {:>10.3} {:>10.3} {:>11.2}%",
                    window.device.to_string(),
                    pop.mu,
                    pop.sigma,
                    pop.expected_wchd() * 100.0
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:<8} unfittable: {e}", window.device.to_string());
            }
        }
    }
    tr.close(render);
    out
}

/// The `assess` workload.
#[derive(Debug)]
pub struct AssessBench {
    input: PathBuf,
    reference: String,
    records: u64,
}

impl Workload for AssessBench {
    const NAME: &'static str = "assess";
    type Output = AssessOutput;

    fn setup(seed: u64, dir: &Path, _traced_run: bool) -> io::Result<Self> {
        let input = dir.join("assess.jsonl");
        let mut accumulator = WindowAccumulator::new(Scale::Small.protocol());
        super::record_campaign(
            &Scale::Small.campaign_config(),
            seed,
            &input,
            RecordFormat::Json,
            &mut accumulator,
        )?;
        let records = accumulator.records_seen();
        let (assessment, windows) = accumulator
            .finish_with_windows()
            .map_err(|e| io::Error::other(format!("reference assessment failed: {e}")))?;
        Ok(Self {
            input,
            reference: render(&assessment, &windows, &mut Tracer::off()),
            records,
        })
    }

    fn operation(&mut self, tr: &mut Tracer) -> io::Result<AssessOutput> {
        operation(&self.input, Scale::Small.protocol(), tr)
    }

    fn check(&mut self, output: AssessOutput) -> Checked {
        let attempted = output.read + output.malformed;
        let mut failed = output.malformed + output.skipped;
        if output.text != self.reference || attempted != self.records {
            eprintln!("assess: output differs from the streamed reference");
            failed = attempted.max(self.records);
        }
        let bytes = std::fs::metadata(&self.input).map_or(0, |m| m.len());
        let mut counts = super::Counts::new();
        counts.insert("puftestbed.store.read.records", output.read as f64);
        counts.insert("puftestbed.store.read.bytes", bytes as f64);
        counts.insert("puftestbed.store.read.failed", output.malformed as f64);
        counts.insert("pufassess.fold.records", output.folded as f64);
        counts.insert("pufassess.fold.skipped", output.skipped as f64);
        counts.insert(
            "pufassess.fold.useful_ratio",
            output.folded as f64 / output.read.max(1) as f64,
        );
        Checked {
            records: attempted,
            failed,
            digest: Digest::of(&output.text),
            counts,
        }
    }

    fn expected_records(&self) -> u64 {
        self.records
    }

    fn replays(&mut self, epoch: Instant, first_op: u32, _op_busy_s: f64) -> io::Result<Extras> {
        let decoded = replay::decode(&self.input, epoch, first_op)?;
        let mut extras = Extras {
            replay_match: decoded.records.len() as u64 == self.records,
            spans: vec![decoded.spans],
            ..Extras::default()
        };
        extras.metrics.insert(
            "puftestbed.store.decode.us_per_record",
            decoded.us_per_record,
        );
        Ok(extras)
    }
}
