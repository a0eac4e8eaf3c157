//! `campaign`: simulate and record — the `campaign --months 2` path on the
//! paper's rig (16 boards, 8 192-bit reads, 1 000-read windows), 48 000
//! records of JSON lines. Board manufacturing is part of the operation
//! because users pay it on every run.
//!
//! Set-up streams the same campaign into a digest of its read-outs, the
//! reference the written file must decode to. A traced operation is the
//! engine's windowed loop replayed through the board and bus calls (see
//! [`crate::replay`]); it must write the same bytes.

use super::{Checked, Workload, THREADS};
use crate::measure::Digest;
use crate::replay::{self, ReadoutDigest};
use crate::trace::Tracer;
use pufassess::monthly::EvaluationProtocol;
use pufassess::streaming::WindowAccumulator;
use pufbench::FormatSink;
use pufobs::Instruments;
use puftestbed::store::RecordFormat;
use puftestbed::{Campaign, CampaignConfig, CampaignSummary};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Table I's start column: month-0 average fractional Hamming weight.
pub const PAPER_START_FHW: f64 = 0.6270;
/// Table I's start column: month-0 average within-class Hamming distance.
pub const PAPER_START_WCHD: f64 = 0.0249;
/// Allowed distance of the month-0 FHW from [`PAPER_START_FHW`].
pub const FHW_TOLERANCE: f64 = 0.01;
/// Allowed distance of the month-0 WCHD from [`PAPER_START_WCHD`].
pub const WCHD_TOLERANCE: f64 = 0.004;

/// The workload's rig: the paper's, cut to months 0–2.
pub fn config() -> CampaignConfig {
    CampaignConfig {
        months: 2,
        ..CampaignConfig::default()
    }
}

/// What [`operation`] reports.
#[derive(Debug, Clone, Copy)]
pub struct Ran {
    /// The engine's outcome counters.
    pub summary: CampaignSummary,
    /// Wall seconds inside `Campaign::run`.
    pub run_s: f64,
}

/// The `campaign` binary's calls for `--out OUT --threads 2`: build the
/// rig, stream its records through a JSON [`FormatSink`], publish the
/// file. `obs` attaches the engine's instruments, as `--metrics-out` does.
///
/// # Errors
///
/// Returns the first I/O error of the sink.
pub fn operation(
    config: &CampaignConfig,
    seed: u64,
    out: &Path,
    obs: Option<&Instruments>,
) -> io::Result<Ran> {
    let declared_bits = u32::try_from(config.read_bits).unwrap_or(0);
    let mut campaign = Campaign::new(config.clone(), seed).threads(THREADS);
    let mut sink = FormatSink::create_with(out, RecordFormat::Json, declared_bits, None)?;
    if let Some(ins) = obs {
        campaign = campaign.instruments(ins);
    }
    let started = Instant::now();
    let summary = campaign.run(&mut sink)?;
    let run_s = started.elapsed().as_secs_f64();
    sink.finish()?;
    Ok(Ran { summary, run_s })
}

/// The `campaign` workload.
#[derive(Debug)]
pub struct CampaignBench {
    seed: u64,
    out: PathBuf,
    /// Records the streamed reference campaign emitted.
    records: u64,
    /// Digest of the streamed reference campaign's read-outs.
    readout_digest: u64,
    /// Attach the engine's instruments to plain operations (traced runs
    /// read its shard timings).
    instrument: bool,
    decoded: bool,
}

/// What one operation left behind.
#[derive(Debug)]
pub struct Output {
    /// Records written to the file.
    written: u64,
    /// Reads dropped after exhausting the transport retries.
    dropped: u64,
    /// The engine's instruments and its wall seconds inside
    /// `Campaign::run`, for instrumented plain operations.
    engine: Option<(Instruments, f64)>,
    /// What a traced operation's replay did.
    replayed: Option<replay::Replayed>,
}

impl CampaignBench {
    /// Decodes the file once: record count, no malformed record, the
    /// engine's read-outs, and Table I's month-0 FHW and WCHD within
    /// tolerance of the paper's start column.
    fn decode_check(&self) -> io::Result<Result<(), String>> {
        let reader = super::open_records(&self.out)?;
        let mut accumulator = WindowAccumulator::new(EvaluationProtocol::default());
        let mut readouts = Digest::default();
        let (mut records, mut malformed) = (0u64, 0u64);
        for item in reader {
            match item {
                Ok(record) => {
                    records += 1;
                    replay::readout_digest(&mut readouts, &record);
                    accumulator.push(&record);
                }
                Err(_) => malformed += 1,
            }
        }
        if malformed > 0 || records != self.records {
            return Ok(Err(format!(
                "re-read {records} records and {malformed} malformed, expected {}",
                self.records
            )));
        }
        if readouts.value() != self.readout_digest {
            return Ok(Err("decoded read-outs differ from the engine's".into()));
        }
        let table = match accumulator.finish() {
            Ok(assessment) => assessment.table1(),
            Err(e) => return Ok(Err(format!("assessment failed: {e}"))),
        };
        let (fhw, wchd) = (table.hw.start_avg, table.wchd.start_avg);
        if (fhw - PAPER_START_FHW).abs() > FHW_TOLERANCE
            || (wchd - PAPER_START_WCHD).abs() > WCHD_TOLERANCE
        {
            return Ok(Err(format!(
                "month-0 FHW {fhw:.4} / WCHD {wchd:.4} outside {PAPER_START_FHW}±{FHW_TOLERANCE} \
                 / {PAPER_START_WCHD}±{WCHD_TOLERANCE}"
            )));
        }
        Ok(Ok(()))
    }
}

impl Workload for CampaignBench {
    const NAME: &'static str = "campaign";
    type Output = Output;

    fn setup(seed: u64, dir: &Path, traced_run: bool) -> io::Result<Self> {
        let mut readouts = ReadoutDigest::default();
        let summary = Campaign::new(config(), seed)
            .threads(THREADS)
            .run(&mut readouts)?;
        Ok(Self {
            seed,
            out: dir.join("campaign.jsonl"),
            records: summary.records,
            readout_digest: readouts.0.value(),
            instrument: traced_run,
            decoded: false,
        })
    }

    fn operation(&mut self, tr: &mut Tracer) -> io::Result<Output> {
        let config = config();
        if !tr.enabled() {
            let obs = self.instrument.then(Instruments::new);
            let ran = operation(&config, self.seed, &self.out, obs.as_ref())?;
            return Ok(Output {
                written: ran.summary.records,
                dropped: ran.summary.dropped,
                engine: obs.map(|ins| (ins, ran.run_s)),
                replayed: None,
            });
        }
        let declared_bits = u32::try_from(config.read_bits).unwrap_or(0);
        let mut sink = tr.span("puftestbed.store.create", || {
            FormatSink::create_with(&self.out, RecordFormat::Json, declared_bits, None)
        })?;
        let replayed = replay::run(
            &config,
            self.seed,
            THREADS,
            &mut sink,
            "puftestbed.store.write",
            tr,
        )?;
        let written = sink.written();
        tr.span("puftestbed.store.persist", || sink.finish())?;
        Ok(Output {
            written,
            dropped: 0,
            engine: None,
            replayed: Some(replayed),
        })
    }

    fn check(&mut self, output: Output) -> Checked {
        let attempted = output.written + output.dropped;
        let mut checked = Checked {
            records: attempted,
            failed: output.dropped,
            ..Checked::default()
        };
        let problem = match Digest::of_file(&self.out) {
            Err(e) => Some(format!("cannot re-read {}: {e}", self.out.display())),
            Ok(digest) => {
                checked.digest = digest;
                if self.decoded {
                    None
                } else {
                    self.decoded = true;
                    match self.decode_check() {
                        Ok(Ok(())) => None,
                        Ok(Err(problem)) => Some(problem),
                        Err(e) => Some(format!("cannot decode {}: {e}", self.out.display())),
                    }
                }
            }
        };
        if let Some(problem) = problem {
            eprintln!("campaign: output check failed: {problem}");
            checked.failed = attempted.max(self.records);
        }
        let bytes = std::fs::metadata(&self.out).map_or(0, |m| m.len());
        let counts = &mut checked.counts;
        if let Some((ins, run_s)) = &output.engine {
            super::count_engine(counts, ins, *run_s);
        }
        if let Some(r) = &output.replayed {
            counts.insert("puftestbed.i2c.transactions", r.i2c_transactions as f64);
            counts.insert("puftestbed.i2c.bytes", r.i2c_bytes as f64);
            counts.insert("puftestbed.i2c.failures", r.i2c_failures as f64);
            counts.insert("puftestbed.store.write.records", output.written as f64);
            counts.insert("puftestbed.store.write.bytes", bytes as f64);
            let matched = r.readout_digest == self.readout_digest;
            if !matched {
                eprintln!("campaign: the traced replay's read-outs differ from the engine's");
            }
            counts.insert("trace.replay_match", f64::from(u8::from(matched)));
        }
        checked
    }

    fn expected_records(&self) -> u64 {
        self.records
    }
}
