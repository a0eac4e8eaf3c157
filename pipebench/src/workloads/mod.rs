//! The four workloads. Each one builds its inputs from the seed alone,
//! then runs operations that make the same public calls, in the same
//! order, as the binary it is named after.

use crate::trace::Tracer;
use pufbench::FormatSink;
use pufobs::Instruments;
use puftestbed::store::{AnyRecordReader, RecordFormat, TeeSink, DEFAULT_BATCH_LINES};
use puftestbed::{Campaign, CampaignConfig, RecordSink};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;

pub mod assess;
pub mod campaign;
pub mod keylife;
pub mod repro;

/// Every thread-count setting of every workload.
pub const THREADS: usize = 2;

/// Per-layer values one operation measured besides its spans, by metric
/// name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Records `config`'s campaign into `out` in `format`, teeing every record
/// into `also`.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn record_campaign<S: RecordSink>(
    config: &CampaignConfig,
    seed: u64,
    out: &Path,
    format: RecordFormat,
    also: &mut S,
) -> io::Result<()> {
    let declared_bits = u32::try_from(config.read_bits).unwrap_or(0);
    let mut sink = FormatSink::create_with(out, format, declared_bits, None)?;
    Campaign::new(config.clone(), seed)
        .threads(THREADS)
        .run(&mut TeeSink::new(also, &mut sink))?;
    sink.finish()
}

/// Opens a record file the way the binaries do: the format detected from
/// its first bytes, records decoded by [`THREADS`] workers in batches of
/// `DEFAULT_BATCH_LINES`.
///
/// # Errors
///
/// Returns the error from opening or peeking the file.
pub fn open_records(input: &Path) -> io::Result<AnyRecordReader> {
    let file = BufReader::new(File::open(input)?);
    AnyRecordReader::open(file, THREADS, DEFAULT_BATCH_LINES, None)
}

/// Adds the campaign engine's shard timings from its `pufobs` instruments:
/// summed shard busy time, and that over the thread-time the engine had
/// (`wall_s` on [`THREADS`] workers).
pub fn count_engine(counts: &mut Counts, ins: &Instruments, wall_s: f64) {
    let busy_s = ins
        .snapshot()
        .histogram("campaign.shard_window_ns")
        .map_or(0.0, |h| h.sum as f64 * 1e-9);
    counts.insert("puftestbed.campaign.shard_busy_s", busy_s);
    counts.insert(
        "puftestbed.campaign.parallel_efficiency",
        busy_s / (THREADS as f64 * wall_s),
    );
}

/// The checked result of one operation.
#[derive(Debug, Default)]
pub struct Checked {
    /// Records the operation produced or consumed.
    pub records: u64,
    /// Failed records: dropped reads, malformed, corrupt or skipped
    /// records, erasures — or every record when the output check fails.
    pub failed: u64,
    /// Digest of the operation's output; equal across a run's operations.
    pub digest: u64,
    /// Per-layer counts.
    pub counts: Counts,
}

/// Spans and counts of a replay that ran after the traced operations.
#[derive(Debug, Default)]
pub struct Extras {
    /// Per-layer metrics the replays measured.
    pub metrics: Counts,
    /// The replays' spans, one operation per replay.
    pub spans: Vec<Vec<crate::trace::Span>>,
    /// Whether every replay reproduced the operation it stands in for.
    pub replay_match: bool,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// What an operation hands to [`check`](Self::check).
    type Output;

    /// Builds the inputs and reference outputs from `seed`, in `dir`.
    /// `traced_run` says the run is traced; plain operations then attach
    /// the engine's instruments where a workload reads them.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    fn setup(seed: u64, dir: &Path, traced_run: bool) -> io::Result<Self>;

    /// Runs one operation, recording spans when `tr` is on.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error; the run counts the operation failed.
    fn operation(&mut self, tr: &mut Tracer) -> io::Result<Self::Output>;

    /// Checks an operation's output against the references.
    fn check(&mut self, output: Self::Output) -> Checked;

    /// Records an operation attempts (all failed when it errors).
    fn expected_records(&self) -> u64;

    /// Replays run once after a traced run's operations, for layers the
    /// operations reach only inside the crates. `op_busy_s` is the traced
    /// operations' median busy thread-time, the base of a replayed layer's
    /// share.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    fn replays(
        &mut self,
        _epoch: std::time::Instant,
        _first_op: u32,
        _op_busy_s: f64,
    ) -> io::Result<Extras> {
        Ok(Extras {
            replay_match: true,
            ..Extras::default()
        })
    }
}
