//! The long-term campaign runner: months of power cycles, aging, and
//! record collection, executed board-sharded and (optionally) in parallel.
//!
//! # Execution engine
//!
//! Every board owns an independent deterministic RNG stream whose seed is
//! derived from the campaign seed and the [`BoardId`] alone
//! ([`board_stream_seed`]). Manufacturing variation, power-up noise, and the
//! board's I2C fault draws all come from that stream, so a board's entire
//! measured trajectory is a pure function of `(config, campaign seed,
//! board id)` — independent of how many worker threads execute the campaign
//! and of what every other board does. Workers measure each evaluation
//! window in batches of reads and fold every batch into their own
//! device-disjoint part of the caller's [`ShardedFold`]s, so each board's
//! records are folded on the worker that measures it; the parts merge back
//! in board order when the run returns. Only an ordered [`RecordSink`] (a
//! record file) needs the stream itself: then the workers also hand every
//! batch to the calling thread, which merges it deterministically by
//! `(seq, board)` into the sink while the workers measure the next one.
//! Sink output and merged folds are byte-identical across thread counts,
//! and the engine holds a few batches of records, never a whole window.
//!
//! # Checkpointable state
//!
//! Everything that evolves during a campaign is an explicit value: the
//! per-board cell arrays and aging accumulators, the counter-based
//! [`PufRng`] streams (two `u64`s each), the bus counters, the scheduler
//! position, and the summary counters. [`Campaign::export_state`] captures
//! them as a [`CampaignState`]; [`Campaign::resume`] rebuilds a campaign
//! from one (validating the config hash first) whose remaining record
//! stream is byte-identical to the uninterrupted run's tail — for any
//! thread count. [`Campaign::checkpoints`] writes that state to a
//! [`pufchk/1`](crate::store::checkpoint) file at window boundaries,
//! flushing the sink first so a checkpoint never claims records the output
//! file does not hold.

use crate::board::{BoardId, SlaveBoard};
use crate::faults::{self, FaultChannel, FaultPlan, FaultTally, GapCause, GapRecord};
use crate::i2c::{Address, I2cBus};
use crate::schedule::READOUT_DELAY_S;
use crate::store::checkpoint::{self, BoardState, CampaignState, CheckpointError};
use crate::store::{Record, RecordSink, ShardedFold};
use crate::time::{CalendarDate, Timestamp};
use crate::waveform::PowerWaveform;
use pufbits::{BitVec, PufRng};
use pufobs::{Counter, Histogram, Instruments};
use rand::SeedableRng;
use sramcell::{Environment, PowerUpKernel, TechnologyProfile};
use std::io;
use std::mem;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

/// What the campaign records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurementPlan {
    /// Record only the paper's evaluation windows — the first
    /// `reads_per_window` consecutive measurements after midnight on the
    /// evaluation day of each month. Sequence numbers and timestamps still
    /// account for every unrecorded power cycle, and aging advances by the
    /// full wall time, so the recorded data is statistically identical to a
    /// continuous campaign filtered to the same windows.
    Windowed,
    /// Record every power cycle of the whole span. Only tractable for short
    /// campaigns; used to validate that windowing is faithful.
    Continuous,
}

/// Configuration of a measurement campaign.
///
/// The default is the paper's setup: 16 ATmega32u4 boards in two layers,
/// 2.5 KB SRAM with a 1 KB read window, starting 2017-02-08, running 24
/// months with 1 000-read evaluation windows on the 8th of each month.
///
/// # Examples
///
/// ```
/// let config = puftestbed::CampaignConfig::default();
/// assert_eq!(config.boards, 16);
/// assert_eq!(config.read_bits, 8 * 1024);
/// assert_eq!(config.months, 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of slave boards (devices under test).
    pub boards: usize,
    /// SRAM size per device, bits.
    pub sram_bits: usize,
    /// Read window per power cycle, bits.
    pub read_bits: usize,
    /// Technology profile of every device.
    pub profile: TechnologyProfile,
    /// Operating environment of the rig (`None` = the profile's nominal
    /// conditions, as in the paper). An elevated environment raises the
    /// power-up noise *and* accelerates BTI stress — a full Monte-Carlo
    /// accelerated-aging campaign.
    pub environment: Option<Environment>,
    /// First day of the campaign (also the first evaluation window).
    pub start: CalendarDate,
    /// Campaign length in months.
    pub months: u32,
    /// Measurements recorded per evaluation window.
    pub reads_per_window: u32,
    /// What to record.
    pub plan: MeasurementPlan,
    /// Aging integration substeps per month.
    pub aging_substeps_per_month: u32,
    /// I2C NAK probability per transaction (fault injection).
    pub i2c_nack_rate: f64,
    /// I2C corruption probability per transaction (fault injection).
    pub i2c_corruption_rate: f64,
    /// Transport retries before a read-out is dropped.
    pub i2c_retries: u32,
    /// Deterministic fault schedule (brownouts, I2C bursts, stuck cells,
    /// clock skew). The default empty plan takes none of the fault paths —
    /// record output is byte-identical to a campaign without a plan.
    pub faults: FaultPlan,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            boards: 16,
            sram_bits: 20 * 1024, // 2.5 KByte
            read_bits: 8 * 1024,  // first 1 KByte
            profile: TechnologyProfile::atmega32u4(),
            environment: None,
            start: CalendarDate::new(2017, 2, 8),
            months: 24,
            reads_per_window: 1000,
            plan: MeasurementPlan::Windowed,
            aging_substeps_per_month: 4,
            i2c_nack_rate: 0.0,
            i2c_corruption_rate: 0.0,
            i2c_retries: 3,
            faults: FaultPlan::default(),
        }
    }
}

/// Outcome counters of a campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Evaluation windows executed (months + 1 for windowed plans).
    pub windows: u32,
    /// Records delivered to the sink (to the folds of a
    /// [`run_sharded`](Campaign::run_sharded) without an ordered sink).
    pub records: u64,
    /// Read-outs dropped after exhausting transport retries.
    pub dropped: u64,
    /// Total transport retries performed.
    pub retries: u64,
}

/// The simulated measurement campaign of the paper's §III.
///
/// # Examples
///
/// ```
/// use puftestbed::{Campaign, CampaignConfig};
///
/// let config = CampaignConfig {
///     boards: 2,
///     sram_bits: 256,
///     read_bits: 256,
///     months: 1,
///     reads_per_window: 5,
///     ..CampaignConfig::default()
/// };
/// let records = Campaign::new(config, 7).run_in_memory();
/// // 2 windows × 2 boards × 5 reads.
/// assert_eq!(records.len(), 20);
/// ```
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    seed: u64,
    shards: Vec<BoardShard>,
    threads: usize,
    obs: Option<CampaignInstruments>,
    /// Next evaluation window to execute (`months + 1` = completed).
    next_window: u32,
    /// Counters accumulated so far, across resume boundaries.
    summary: CampaignSummary,
    /// Whether this campaign was rebuilt from a checkpoint.
    resumed: bool,
    /// Write a checkpoint every this many windows (0 = never).
    checkpoint_every: u32,
    checkpoint_out: Option<PathBuf>,
    /// Checkpoint generations kept on disk (1 = just the newest).
    checkpoint_keep: u32,
    /// Optional I/O fault / trace policy for checkpoint writes.
    io_policy: Option<crate::store::IoPolicy>,
    /// Stop `run` after this many windows *in that call* (for tests and
    /// interruption drills; `None` = run to completion).
    halt_after: Option<u32>,
    /// What the fault layer did in this process. Recomputable from
    /// `(config, seed, plan)`, so deliberately not checkpointed.
    tally: FaultTally,
    /// Gaps opened in the record stream (brownouts, exhausted retries).
    gaps: Vec<GapRecord>,
    /// Whether a `run` returned an error. The boards may then have aged
    /// into the failing window and drawn from their streams while
    /// `next_window` still names it, so no later `run` may continue.
    failed: bool,
}

/// Pre-registered handles for the campaign's instrument points. Counters
/// are updated at shard-window granularity (never per power cycle), so
/// instrumentation costs a handful of atomic adds per board per window and
/// two clock reads per board per batch — invisible next to the batch's
/// kernel evaluations — and the record stream itself is untouched.
#[derive(Debug, Clone)]
struct CampaignInstruments {
    ins: Instruments,
    /// `campaign.records` — records the sink accepted, a failed run's too,
    /// or the folds took when there is no ordered sink.
    records: Counter,
    /// `campaign.dropped` — read-outs dropped after exhausting retries.
    dropped: Counter,
    /// `campaign.retries` — transport retries performed.
    retries: Counter,
    /// `campaign.windows` — evaluation windows completed.
    windows: Counter,
    /// `campaign.power_cycles` — power cycles executed across all boards.
    power_cycles: Counter,
    /// `campaign.i2c_faults` — failed I2C transfers (retried or dropped).
    i2c_faults: Counter,
    /// `campaign.shard_windows` — per-board window executions completed.
    shard_windows: Counter,
    /// `campaign.shard_window_ns` — wall time of one board's window: the
    /// sum of its batches, including any time its worker was preempted.
    shard_window_ns: Histogram,
    /// `campaign.boardNN.power_cycles`, indexed by board id.
    board_cycles: Vec<Counter>,
    /// `faults.browned_out_windows` — `(board, window)` pairs lost whole.
    faults_browned_out: Counter,
    /// `faults.missed_power_ups` — power-ups skipped by brownouts.
    faults_missed_power_ups: Counter,
    /// `faults.injected_nacks` — transfer attempts failed by injected NACKs.
    faults_injected_nacks: Counter,
    /// `faults.injected_corruptions` — attempts failed by injected corruption.
    faults_injected_corruptions: Counter,
    /// `faults.stuck_cells_forced` — stuck-cell forcings (cells × reads).
    faults_stuck_cells: Counter,
    /// `retry.attempts` — transport retries (same feed as `campaign.retries`).
    retry_attempts: Counter,
    /// `retry.exhausted` — read-outs dropped after the retry budget ran out.
    retry_exhausted: Counter,
    /// `retry.backoff_ms` — simulated retry backoff accumulated.
    retry_backoff_ms: Counter,
    /// `checkpoint.writes` — checkpoint files written.
    checkpoint_writes: Counter,
    /// `checkpoint.bytes_written` — total checkpoint bytes written.
    checkpoint_bytes: Counter,
    /// `checkpoint.restores` — campaigns rebuilt from a checkpoint.
    checkpoint_restores: Counter,
    /// `checkpoint.write_ns` — wall time of one checkpoint write.
    checkpoint_write_ns: Histogram,
}

impl CampaignInstruments {
    fn new(ins: &Instruments, boards: usize) -> Self {
        Self {
            ins: ins.clone(),
            records: ins.counter("campaign.records"),
            dropped: ins.counter("campaign.dropped"),
            retries: ins.counter("campaign.retries"),
            windows: ins.counter("campaign.windows"),
            power_cycles: ins.counter("campaign.power_cycles"),
            i2c_faults: ins.counter("campaign.i2c_faults"),
            shard_windows: ins.counter("campaign.shard_windows"),
            shard_window_ns: ins.histogram("campaign.shard_window_ns"),
            board_cycles: (0..boards)
                .map(|i| ins.counter(&format!("campaign.board{i:02}.power_cycles")))
                .collect(),
            faults_browned_out: ins.counter("faults.browned_out_windows"),
            faults_missed_power_ups: ins.counter("faults.missed_power_ups"),
            faults_injected_nacks: ins.counter("faults.injected_nacks"),
            faults_injected_corruptions: ins.counter("faults.injected_corruptions"),
            faults_stuck_cells: ins.counter("faults.stuck_cells_forced"),
            retry_attempts: ins.counter("retry.attempts"),
            retry_exhausted: ins.counter("retry.exhausted"),
            retry_backoff_ms: ins.counter("retry.backoff_ms"),
            checkpoint_writes: ins.counter("checkpoint.writes"),
            checkpoint_bytes: ins.counter("checkpoint.bytes_written"),
            checkpoint_restores: ins.counter("checkpoint.restores"),
            checkpoint_write_ns: ins.histogram("checkpoint.write_ns"),
        }
    }
}

/// Derives the seed of one board's RNG stream from the campaign seed.
///
/// A SplitMix64-style finalizer over the campaign seed and board id: streams
/// of different boards (and of the same board under different campaign
/// seeds) are decorrelated, and the mapping involves nothing but `(seed,
/// id)` — the anchor of the engine's thread-count independence.
pub fn board_stream_seed(campaign_seed: u64, board: BoardId) -> u64 {
    pufbits::splitmix64(
        campaign_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(board.0) + 1),
    )
}

/// The most boards a campaign can wire. Board `i` sits on layer `i % 2` at
/// I2C address `0x10 + i / 2`, and 0x77 is the last valid 7-bit slave
/// address, so each layer holds 104 boards.
pub const MAX_BOARDS: usize = 2 * (0x77 - 0x10 + 1);

/// The bus address of board `index`: 0x10 plus its index within its layer.
fn board_address(index: usize) -> Address {
    assert!(
        index < MAX_BOARDS,
        "a campaign wires at most {MAX_BOARDS} boards"
    );
    let offset = u8::try_from(index / 2).expect("index / 2 < 104");
    Address::new(0x10 + offset).expect("0x10 + index / 2 <= 0x77")
}

/// Reads per board in one batch of a window. A worker measures a batch
/// while the merge sinks the previous one, so the engine holds about three
/// batches of records per worker, never a whole window.
const BATCH_READS: u32 = 64;

/// One board's independent execution unit: the device, its layer position,
/// its own bus endpoint, RNG stream, and batched power-up kernel.
#[derive(Debug)]
struct BoardShard {
    board: SlaveBoard,
    layer: usize,
    address: Address,
    bus: I2cBus,
    rng: PufRng,
    kernel: PowerUpKernel,
}

/// What one shard contributes to one evaluation window besides its records.
#[derive(Debug, Default)]
struct ShardOutput {
    /// Records delivered.
    records: u64,
    dropped: u64,
    retries: u64,
    /// The whole window was lost to a brownout.
    browned_out: bool,
    /// Power cycles executed.
    power_cycles: u64,
    /// Power-ups that never happened (brownout).
    missed_power_ups: u64,
    /// Transfer attempts failed by an injected NACK.
    injected_nacks: u64,
    /// Transfer attempts failed by injected corruption.
    injected_corruptions: u64,
    /// Stuck-cell forcings applied (cells × reads).
    stuck_cells_forced: u64,
    /// Simulated retry backoff accumulated, milliseconds.
    backoff_ms: u64,
    /// Wall time spent in this board's window, summed over its batches
    /// (zero without instruments).
    busy: Duration,
}

/// The per-window inputs every shard sees: the schedule position plus the
/// fault context. One immutable value shared by all workers, so the fault
/// layer cannot depend on worker scheduling.
#[derive(Clone, Copy)]
struct WindowCtx<'a> {
    wall_years: f64,
    substeps: u32,
    epoch: Timestamp,
    window_start: Timestamp,
    /// Evaluation window index (0-based month; 0 for continuous plans).
    window: u32,
    reads: u32,
    retry_budget: u32,
    seed: u64,
    plan: &'a FaultPlan,
}

/// The injected-fault decision for one transfer attempt: a pure function of
/// `(seed, board, window, read, attempt)` — no stream state, no locks.
fn injected_fault(
    ctx: &WindowCtx,
    board: BoardId,
    read: u32,
    attempt: u32,
    burst: Option<(f64, f64)>,
) -> Option<FaultChannel> {
    let (nack, corrupt) = burst?;
    let roll = |channel| faults::fault_roll(ctx.seed, board, ctx.window, read, channel, attempt);
    if nack > 0.0 && roll(FaultChannel::Nack) < nack {
        return Some(FaultChannel::Nack);
    }
    if corrupt > 0.0 && roll(FaultChannel::Corruption) < corrupt {
        return Some(FaultChannel::Corruption);
    }
    None
}

impl BoardShard {
    /// Opens the board's window: ages the board by the wall time since the
    /// previous window and marks a brownout.
    fn begin_window(&mut self, ctx: &WindowCtx) -> ShardOutput {
        if ctx.wall_years > 0.0 {
            self.board.age(ctx.wall_years, ctx.substeps);
        }
        ShardOutput {
            browned_out: ctx.plan.browned_out(self.board.id(), ctx.window),
            ..ShardOutput::default()
        }
    }

    /// Measures the window's `reads`: power cycles shipped over the shard's
    /// bus endpoint, with per-read retry/drop accounting and the fault plan
    /// applied, the delivered records pushed onto `records`. All fault
    /// decisions are pure functions of the plan and schedule position —
    /// they never draw from the board's RNG stream, so an empty plan leaves
    /// the stream (and the record bytes) untouched.
    fn measure(
        &mut self,
        ctx: &WindowCtx,
        reads: Range<u32>,
        out: &mut ShardOutput,
        records: &mut Vec<Record>,
    ) {
        let count = u64::from(reads.end.saturating_sub(reads.start));
        if out.browned_out {
            // The board never powers up this window. Aging has already
            // advanced (wall time passes either way), the RNG stream is
            // not drawn from, and the gap is reported instead of leaving
            // the merge waiting on records that will never arrive.
            out.missed_power_ups += count;
            return;
        }
        out.power_cycles += count;
        let id = self.board.id();
        let layer = u8::try_from(self.layer).expect("layer fits u8");
        let waveform = PowerWaveform::paper_layer(layer);
        let period = waveform.period_s();
        let base_cycle = (ctx.window_start.seconds_since(ctx.epoch) as f64 / period) as u64;
        let burst = ctx.plan.burst_rates(id, ctx.window);
        let skew = ctx.plan.layer_skew_s(layer);
        let has_stuck = !ctx.plan.stuck_clusters.is_empty();
        let mut bytes = Vec::new();
        for read in reads {
            let t_in_window =
                f64::from(read) * period + waveform.offset_s() + READOUT_DELAY_S + skew;
            let timestamp = ctx.window_start.offset_by(t_in_window);
            let seq = base_cycle + u64::from(read);
            let mut readout = self.board.power_cycle_with(&mut self.kernel, &mut self.rng);
            if has_stuck {
                out.stuck_cells_forced += ctx.plan.apply_stuck(id, ctx.window, &mut readout);
            }
            bytes.clear();
            readout.to_bytes_into(&mut bytes);
            let mut attempt = 0;
            loop {
                let delivered = match injected_fault(ctx, id, read, attempt, burst) {
                    Some(channel) => {
                        self.bus.record_injected_failure();
                        match channel {
                            FaultChannel::Nack => out.injected_nacks += 1,
                            FaultChannel::Corruption => out.injected_corruptions += 1,
                        }
                        None
                    }
                    None => self.bus.transfer(self.address, &bytes, &mut self.rng).ok(),
                };
                match delivered {
                    Some(received) => {
                        let bits = BitVec::from_bytes_with_len(&received, readout.len());
                        records.push(Record::new(id, seq, timestamp, bits));
                        out.records += 1;
                        break;
                    }
                    None if attempt < ctx.retry_budget => {
                        out.backoff_ms += faults::retry_backoff_ms(attempt);
                        attempt += 1;
                        out.retries += 1;
                    }
                    None => {
                        out.dropped += 1;
                        break;
                    }
                }
            }
        }
    }
}

/// The worker body: runs one window on `shards` in batches of
/// [`BATCH_READS`] reads, folds each batch's records into `fold`, then hands
/// the batch to `deliver` until it returns `false`. A batch `deliver` leaves
/// in place is reused for the next one. With a `clock`, each board's
/// measuring time in the window adds up in its `busy`. A fold error stops
/// the window and comes back beside the outputs.
fn measure_batches<F: RecordSink>(
    shards: &mut [BoardShard],
    ctx: &WindowCtx,
    clock: Option<&Instruments>,
    fold: &mut F,
    mut deliver: impl FnMut(&mut Vec<Record>) -> bool,
) -> (Vec<ShardOutput>, io::Result<()>) {
    let elapsed = |started: Option<Duration>| {
        clock
            .zip(started)
            .map_or(Duration::ZERO, |(c, t0)| c.now().saturating_sub(t0))
    };
    let mut outputs: Vec<ShardOutput> = shards
        .iter_mut()
        .map(|shard| {
            let started = clock.map(Instruments::now);
            let mut out = shard.begin_window(ctx);
            out.busy = elapsed(started);
            out
        })
        .collect();
    let mut start = 0;
    let mut batch = Vec::new();
    let mut folded = Ok(());
    while start < ctx.reads {
        let reads = start..ctx.reads.min(start + BATCH_READS);
        start = reads.end;
        batch.clear();
        batch.reserve(shards.len() * reads.len());
        for (shard, out) in shards.iter_mut().zip(&mut outputs) {
            let started = clock.map(Instruments::now);
            shard.measure(ctx, reads.clone(), out, &mut batch);
            out.busy += elapsed(started);
        }
        folded = batch.iter().try_for_each(|record| fold.record(record));
        if folded.is_err() || !deliver(&mut batch) {
            break;
        }
    }
    (outputs, folded)
}

/// Feeds one batch of every shard's records to the sink in the stream's
/// order, counting the records the sink accepts.
fn sink_batch(
    sink: &mut dyn RecordSink,
    mut batch: Vec<Record>,
    accepted: &mut u64,
) -> io::Result<()> {
    // The deterministic merge order of the record stream: cycle first,
    // board second (the physical arrival order of the rig's sink). Both
    // layers share one period, so every board of a window has the same
    // base cycle and read `r` has `seq = base + r`; clock skew moves only
    // timestamps. Every record of batch k therefore precedes every record
    // of batch k + 1, and the sorted batches, concatenated, are the
    // sorted window.
    batch.sort_unstable_by_key(|r| (r.seq, r.device.0));
    for record in &batch {
        sink.record(record)?;
        *accepted += 1;
    }
    Ok(())
}

/// The folds of [`Campaign::run`], whose ordered sink takes every record.
struct NoFold;

impl RecordSink for NoFold {
    fn record(&mut self, _: &Record) -> io::Result<()> {
        Ok(())
    }
}

impl ShardedFold for NoFold {
    fn split_off(&mut self, _: &[BoardId]) -> Self {
        NoFold
    }

    fn merge(&mut self, _: Self) {}
}

impl Campaign {
    /// Builds the rig: manufactures the devices and stacks them into two
    /// layers (even board indices on layer 0, odd on layer 1, mirroring the
    /// paper's equal split). Each board is manufactured from — and keeps
    /// drawing from — its own [`board_stream_seed`]-derived RNG stream.
    ///
    /// The campaign starts single-threaded; see [`threads`](Self::threads).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no boards, more than
    /// [`MAX_BOARDS`], empty read window, or a read window larger than the
    /// SRAM).
    pub fn new(config: CampaignConfig, seed: u64) -> Self {
        assert!(config.boards > 0, "a campaign needs at least one board");
        assert!(
            config.read_bits > 0 && config.read_bits <= config.sram_bits,
            "invalid read window"
        );
        let shards = (0..config.boards)
            .map(|i| {
                let id = BoardId(u8::try_from(i).expect("board count fits u8"));
                let mut rng = PufRng::seed_from_u64(board_stream_seed(seed, id));
                let mut board = SlaveBoard::new(
                    id,
                    &config.profile,
                    config.sram_bits,
                    config.read_bits,
                    &mut rng,
                );
                if let Some(env) = config.environment {
                    board.set_environment(env);
                }
                BoardShard {
                    board,
                    layer: i % 2,
                    address: board_address(i),
                    bus: I2cBus::with_faults(config.i2c_nack_rate, config.i2c_corruption_rate),
                    rng,
                    kernel: PowerUpKernel::new(),
                }
            })
            .collect();
        Self {
            config,
            seed,
            shards,
            threads: 1,
            obs: None,
            next_window: 0,
            summary: CampaignSummary::default(),
            resumed: false,
            checkpoint_every: 0,
            checkpoint_out: None,
            checkpoint_keep: 1,
            io_policy: None,
            halt_after: None,
            tally: FaultTally::default(),
            gaps: Vec::new(),
            failed: false,
        }
    }

    /// Rebuilds a campaign from a checkpointed [`CampaignState`], positioned
    /// to continue exactly where the checkpoint was taken: the remaining
    /// record stream is byte-identical to the tail of the uninterrupted run,
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::ConfigMismatch`] if `(config, seed)` hash to a
    ///   different value than the checkpoint records — resuming under a
    ///   changed configuration would silently splice incompatible record
    ///   streams, so it is refused outright;
    /// * [`CheckpointError::StateMismatch`] if the state is internally
    ///   inconsistent with the configuration (board count or ids, cell
    ///   counts, window index out of range).
    pub fn resume(
        config: CampaignConfig,
        seed: u64,
        state: &CampaignState,
    ) -> Result<Self, CheckpointError> {
        let expected = checkpoint::config_hash(&config, seed);
        if state.config_hash != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: state.config_hash,
            });
        }
        if state.boards.len() != config.boards {
            return Err(CheckpointError::StateMismatch(format!(
                "checkpoint has {} boards, config expects {}",
                state.boards.len(),
                config.boards
            )));
        }
        let last_window = match config.plan {
            MeasurementPlan::Windowed => config.months + 1,
            MeasurementPlan::Continuous => 1,
        };
        if state.next_window > last_window {
            return Err(CheckpointError::StateMismatch(format!(
                "next window {} out of range (campaign ends at {})",
                state.next_window, last_window
            )));
        }
        let shards = state
            .boards
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let id = BoardId(u8::try_from(i).expect("board count fits u8"));
                if b.board.id != id {
                    return Err(CheckpointError::StateMismatch(format!(
                        "board {i} carries id {}",
                        b.board.id.0
                    )));
                }
                let cells = b.board.array.mismatch.len();
                if cells != config.sram_bits || b.board.array.drift_bias.len() != cells {
                    return Err(CheckpointError::StateMismatch(format!(
                        "board {i} has {cells} cells, config expects {}",
                        config.sram_bits
                    )));
                }
                let mut bus = I2cBus::with_faults(config.i2c_nack_rate, config.i2c_corruption_rate);
                bus.restore_stats(b.bus);
                Ok(BoardShard {
                    board: SlaveBoard::from_state(
                        &config.profile,
                        config.read_bits,
                        config.environment,
                        &b.board,
                    ),
                    layer: i % 2,
                    address: board_address(i),
                    bus,
                    rng: PufRng::from_state(b.rng),
                    kernel: PowerUpKernel::new(),
                })
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        Ok(Self {
            config,
            seed,
            shards,
            threads: 1,
            obs: None,
            next_window: state.next_window,
            summary: state.summary,
            resumed: true,
            checkpoint_every: 0,
            checkpoint_out: None,
            checkpoint_keep: 1,
            io_policy: None,
            halt_after: None,
            tally: FaultTally::default(),
            gaps: Vec::new(),
            failed: false,
        })
    }

    /// Captures the complete evolving state of the campaign as one explicit
    /// value, suitable for [`resume`](Self::resume) or a
    /// [`pufchk/1`](crate::store::checkpoint) file. Valid at window
    /// boundaries — i.e. before [`run`](Self::run), after it returns `Ok`,
    /// or after a [`halt_after_windows`](Self::halt_after_windows) stop.
    ///
    /// Not after `run` returns an error: the boards may have aged into the
    /// failing window and measured part of it while the state still names
    /// that window as the next one, so a campaign resumed from it would
    /// emit a different stream. Resume from the last checkpoint instead.
    pub fn export_state(&self) -> CampaignState {
        CampaignState {
            config_hash: checkpoint::config_hash(&self.config, self.seed),
            seed: self.seed,
            sim_clock: self.sim_clock().0,
            next_window: self.next_window,
            summary: self.summary,
            boards: self
                .shards
                .iter()
                .map(|s| BoardState {
                    board: s.board.export_state(),
                    rng: s.rng.state(),
                    bus: s.bus.stats(),
                })
                .collect(),
        }
    }

    /// Whether every evaluation window has executed.
    pub fn completed(&self) -> bool {
        match self.config.plan {
            MeasurementPlan::Windowed => self.next_window > self.config.months,
            MeasurementPlan::Continuous => self.next_window >= 1,
        }
    }

    /// The counters accumulated so far, across resume boundaries.
    pub fn summary_so_far(&self) -> CampaignSummary {
        self.summary
    }

    /// What the fault layer did in this process (all zeros for an empty
    /// plan). The tally is a pure function of `(config, seed, plan)` over
    /// the windows this process executed, so it is recomputable and kept
    /// out of the `pufchk/1` checkpoint; after a resume it covers the
    /// resumed portion only.
    pub fn fault_tally(&self) -> FaultTally {
        self.tally
    }

    /// The gaps the fault layer opened in the record stream during this
    /// process (brownouts and exhausted retry budgets), in deterministic
    /// `(window, board)` order. Same process-local caveat as
    /// [`fault_tally`](Self::fault_tally).
    pub fn gap_records(&self) -> &[GapRecord] {
        &self.gaps
    }

    /// The simulation clock: the timestamp of the next window to execute
    /// (of the last window once the campaign completed).
    fn sim_clock(&self) -> Timestamp {
        match self.config.plan {
            MeasurementPlan::Windowed => {
                Timestamp::from_date(self.window_date(self.next_window.min(self.config.months)))
            }
            MeasurementPlan::Continuous => self.campaign_epoch(),
        }
    }

    /// Sets the number of worker threads boards are sharded across (clamped
    /// to the board count; 0 is treated as 1). Results are identical for
    /// every value — parallelism only changes wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches an instrument registry. The campaign then maintains
    /// `campaign.*` counters (records, power cycles — total and per board,
    /// drops, retries, I2C faults, windows) and the
    /// `campaign.shard_window_ns` per-board window-timing histogram.
    ///
    /// Instrumentation reads the clock and bumps atomics only; it touches
    /// no RNG stream, so the record output is byte-identical with or
    /// without it.
    pub fn instruments(mut self, ins: &Instruments) -> Self {
        let obs = CampaignInstruments::new(ins, self.config.boards);
        if self.resumed {
            obs.checkpoint_restores.inc();
        }
        self.obs = Some(obs);
        self
    }

    /// Enables checkpointing: after every `every_windows`-th completed
    /// window (and at completion), the campaign flushes the sink and writes
    /// its [`CampaignState`] to `out` atomically — the file always holds
    /// the previous complete checkpoint or the new one, never a torn mix.
    /// `every_windows` of 0 is treated as 1.
    pub fn checkpoints(mut self, every_windows: u32, out: impl Into<PathBuf>) -> Self {
        self.checkpoint_every = every_windows.max(1);
        self.checkpoint_out = Some(out.into());
        self
    }

    /// Keeps the last `keep` checkpoint generations instead of only the
    /// newest: before each checkpoint write the existing files rotate
    /// (`ckpt` → `ckpt.1` → … → `ckpt.{keep-1}`), so a supervisor can fall
    /// back a generation when the newest file fails verification. `keep`
    /// of 0 or 1 keeps only the newest (the default, byte-identical to the
    /// pre-rotation behaviour).
    pub fn checkpoint_keep(mut self, keep: u32) -> Self {
        self.checkpoint_keep = keep.max(1);
        self
    }

    /// Routes checkpoint-file I/O through `policy` (deterministic fault
    /// injection / syscall tracing). Record-sink I/O is the caller's to
    /// wire — see [`RecordWriter::create_with`].
    ///
    /// [`RecordWriter::create_with`]: crate::store::RecordWriter::create_with
    pub fn io_policy(mut self, policy: crate::store::IoPolicy) -> Self {
        self.io_policy = Some(policy);
        self
    }

    /// Stops [`run`](Self::run) after `windows` evaluation windows have
    /// executed *in that call*, leaving the campaign resumable — an
    /// in-process interruption drill. A checkpoint (if configured) is
    /// written before stopping. `windows` of 0 is treated as 1.
    pub fn halt_after_windows(mut self, windows: u32) -> Self {
        self.halt_after = Some(windows);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign, streaming records into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates the first sink or checkpoint I/O error. The records the
    /// sink accepted before it are a prefix of the uninterrupted record
    /// stream. An error may leave the campaign partway through a window, so
    /// every later `run` fails at once, writing nothing; the stream
    /// continues only from the last checkpoint, through
    /// [`resume`](Self::resume).
    pub fn run<S: RecordSink>(&mut self, sink: &mut S) -> io::Result<CampaignSummary> {
        self.run_sharded(&mut NoFold, Some(sink))
    }

    /// Runs the campaign, folding each board's records on the worker that
    /// measures it and, with an `ordered` sink, streaming every record into
    /// that sink as [`run`](Self::run) does.
    ///
    /// `folds` splits into one device-disjoint part per worker
    /// ([`ShardedFold::split_off`]). Each worker folds its batches into its
    /// part, in campaign order per device, and the parts merge back in
    /// board order when the call returns, after an error too. The channels,
    /// the `(seq, board)` sort and the calling thread's sink loop run only
    /// for an `ordered` sink; without one, `campaign.records` and the
    /// summary count the records handed to the folds.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run). A fold's error stops the run as the
    /// sink's does, and the sink's error comes first.
    pub fn run_sharded<F: ShardedFold + Send>(
        &mut self,
        folds: &mut F,
        ordered: Option<&mut (dyn RecordSink + '_)>,
    ) -> io::Result<CampaignSummary> {
        if self.failed {
            return Err(io::Error::other(
                "the campaign stopped at an earlier error; resume it from its last checkpoint",
            ));
        }
        let mut parts: Vec<F> = self
            .shards
            .chunks(self.chunk_len())
            .map(|chunk| {
                let devices: Vec<BoardId> = chunk.iter().map(|s| s.board.id()).collect();
                folds.split_off(&devices)
            })
            .collect();
        let result = match self.config.plan {
            MeasurementPlan::Windowed => self.run_windowed(&mut parts, ordered),
            MeasurementPlan::Continuous => self.run_continuous(&mut parts, ordered),
        };
        for part in parts {
            folds.merge(part);
        }
        self.failed = result.is_err();
        result
    }

    /// Runs the campaign, collecting its records in arrival order. The
    /// counters stay available through [`summary_so_far`](Self::summary_so_far).
    pub fn run_in_memory(&mut self) -> Vec<Record> {
        let mut records = Vec::new();
        self.run(&mut records).expect("a Vec sink cannot fail");
        records
    }

    /// Boards per worker: the contiguous chunk each part of the folds
    /// covers.
    fn chunk_len(&self) -> usize {
        let threads = self.threads.min(self.shards.len()).max(1);
        self.shards.len().div_ceil(threads).max(1)
    }

    fn campaign_epoch(&self) -> Timestamp {
        Timestamp::from_date(self.config.start)
    }

    fn window_date(&self, month: u32) -> CalendarDate {
        let mut date = self.config.start;
        for _ in 0..month {
            date = date.next_month();
        }
        date
    }

    fn run_windowed<F: ShardedFold + Send>(
        &mut self,
        parts: &mut [F],
        mut sink: Option<&mut (dyn RecordSink + '_)>,
    ) -> io::Result<CampaignSummary> {
        let start_days = self.config.start.days_since_epoch();
        let mut ran = 0u32;
        while self.next_window <= self.config.months {
            let month = self.next_window;
            let window_date = self.window_date(month);
            let window_days = window_date.days_since_epoch() - start_days;
            // Age by the wall time since the previous window (inside the
            // workers, so aging parallelizes with the same sharding). The
            // previous window is recomputed from the month index rather
            // than carried across iterations, so a resumed campaign ages
            // by exactly the same spans as the uninterrupted one.
            let previous_days = if month == 0 {
                0
            } else {
                self.window_date(month - 1).days_since_epoch() - start_days
            };
            let wall_years = (window_days - previous_days) as f64 / 365.25;
            let window_start = Timestamp::from_date(window_date);
            let mut summary = self.summary;
            self.run_window(
                parts,
                sink.as_deref_mut(),
                window_start,
                month,
                wall_years,
                &mut summary,
            )?;
            summary.windows += 1;
            self.summary = summary;
            self.next_window = month + 1;
            ran += 1;
            let halt = self.halt_after.is_some_and(|n| ran >= n);
            let done = self.next_window > self.config.months;
            if self.checkpoint_out.is_some()
                && (done || halt || ran.is_multiple_of(self.checkpoint_every))
            {
                self.write_checkpoint(sink.as_deref_mut())?;
            }
            if halt {
                break;
            }
        }
        Ok(self.summary)
    }

    fn run_continuous<F: ShardedFold + Send>(
        &mut self,
        parts: &mut [F],
        mut sink: Option<&mut (dyn RecordSink + '_)>,
    ) -> io::Result<CampaignSummary> {
        // Continuous: one "window" spanning the whole campaign, aged in one
        // sweep before measuring (per-month boundaries would be overkill
        // for the short spans this plan is meant for). A completed (or
        // resumed-as-completed) campaign has nothing left to run.
        if self.next_window == 0 {
            let wall_years = f64::from(self.config.months) / 12.0;
            let mut summary = self.summary;
            self.run_window(
                parts,
                sink.as_deref_mut(),
                self.campaign_epoch(),
                0,
                wall_years,
                &mut summary,
            )?;
            summary.windows += 1;
            self.summary = summary;
            self.next_window = 1;
            if self.checkpoint_out.is_some() {
                self.write_checkpoint(sink)?;
            }
        }
        Ok(self.summary)
    }

    /// Flushes the sink, then writes the current state to the configured
    /// checkpoint path atomically. The ordering is the durability contract:
    /// a checkpoint on disk never claims records the output file does not
    /// yet hold.
    fn write_checkpoint(&mut self, sink: Option<&mut (dyn RecordSink + '_)>) -> io::Result<()> {
        let Some(path) = self.checkpoint_out.clone() else {
            return Ok(());
        };
        if let Some(sink) = sink {
            sink.flush()?;
        }
        let state = self.export_state();
        let started = self.obs.as_ref().map(|o| o.ins.now());
        checkpoint::rotate_generations(&path, self.checkpoint_keep);
        let bytes = checkpoint::write_file_with(&path, &state, self.io_policy.clone())?;
        if let Some(o) = &self.obs {
            if let Some(t0) = started {
                o.checkpoint_write_ns
                    .record_duration(o.ins.now().saturating_sub(t0));
            }
            o.checkpoint_writes.inc();
            o.checkpoint_bytes.add(bytes);
        }
        Ok(())
    }

    /// Executes one evaluation window across all shards — in parallel when
    /// [`threads`](Self::threads) allows, one worker per part of the folds —
    /// in batches of [`BATCH_READS`] reads. Each worker folds its batches
    /// into its part. With a `sink`, the calling thread also merges batch k
    /// of every worker by `(seq, board)` into it while the workers measure
    /// batch k + 1.
    ///
    /// A sink or fold error stops the window. The sink then holds a prefix
    /// of the uninterrupted stream, `campaign.records` counts it, and the
    /// shard counters cover the reads measured so far.
    fn run_window<F: ShardedFold + Send>(
        &mut self,
        parts: &mut [F],
        mut sink: Option<&mut (dyn RecordSink + '_)>,
        window_start: Timestamp,
        window: u32,
        wall_years: f64,
        summary: &mut CampaignSummary,
    ) -> io::Result<()> {
        let substeps = match self.config.plan {
            MeasurementPlan::Windowed => self.config.aging_substeps_per_month.max(1),
            MeasurementPlan::Continuous => {
                (self.config.aging_substeps_per_month * self.config.months).max(1)
            }
        };
        let ctx = WindowCtx {
            wall_years,
            substeps,
            epoch: self.campaign_epoch(),
            window_start,
            window,
            reads: self.config.reads_per_window,
            retry_budget: self.config.i2c_retries,
            seed: self.seed,
            plan: &self.config.faults,
        };
        let clock = self.obs.as_ref().map(|o| &o.ins);
        let mut accepted = 0u64;
        let mut sunk = Ok(());
        let ordered = sink.is_some();
        let workers: Vec<(Vec<ShardOutput>, io::Result<()>)> = if let [part] = parts {
            vec![measure_batches(
                &mut self.shards,
                &ctx,
                clock,
                part,
                |batch| {
                    if let Some(sink) = sink.as_deref_mut() {
                        sunk = sink_batch(sink, mem::take(batch), &mut accepted);
                    }
                    sunk.is_ok()
                },
            )]
        } else {
            // Shard boards across scoped workers in contiguous chunks, one
            // per part; the per-board RNG streams make the outputs
            // identical to the sequential path, so only wall-clock time
            // depends on `threads`. For a sink, each worker runs at most
            // one batch ahead of the merge.
            let chunk_len = self.chunk_len();
            std::thread::scope(|scope| {
                let (handles, receivers): (Vec<_>, Vec<_>) = self
                    .shards
                    .chunks_mut(chunk_len)
                    .zip(parts.iter_mut())
                    .map(|(chunk, part)| {
                        let (tx, rx) = ordered.then(|| mpsc::sync_channel(1)).unzip();
                        let ctx = &ctx;
                        let handle = scope.spawn(move || {
                            measure_batches(chunk, ctx, clock, part, |batch| {
                                tx.as_ref()
                                    .is_none_or(|tx| tx.send(mem::take(batch)).is_ok())
                            })
                        });
                        (handle, rx)
                    })
                    .unzip();
                // Every worker sends the same number of batches, then hangs up.
                if let Some(sink) = sink {
                    'merge: while sunk.is_ok() {
                        let mut batch = Vec::new();
                        for rx in receivers.iter().flatten() {
                            match rx.recv() {
                                Ok(mut part) => batch.append(&mut part),
                                Err(mpsc::RecvError) => break 'merge,
                            }
                        }
                        sunk = sink_batch(sink, batch, &mut accepted);
                    }
                }
                // After a sink error, hanging up fails the `send` a worker
                // may be blocked in, so it returns and the join cannot hang.
                drop(receivers);
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("campaign worker panicked"))
                    .collect()
            })
        };
        let mut folded = Ok(());
        let mut outputs = Vec::with_capacity(self.shards.len());
        for (worker, result) in workers {
            outputs.extend(worker);
            folded = folded.and(result);
        }
        if !ordered {
            accepted = outputs.iter().map(|o| o.records).sum();
        }

        summary.records += accepted;
        let window_date = window_start.datetime().date;
        for (shard, output) in self.shards.iter().zip(&outputs) {
            summary.dropped += output.dropped;
            summary.retries += output.retries;
            self.tally.browned_out_windows += u64::from(output.browned_out);
            self.tally.missed_power_ups += output.missed_power_ups;
            self.tally.injected_nacks += output.injected_nacks;
            self.tally.injected_corruptions += output.injected_corruptions;
            self.tally.stuck_cells_forced += output.stuck_cells_forced;
            self.tally.retry_backoff_ms += output.backoff_ms;
            // Degradation is reported, never silently averaged over: each
            // shortfall becomes an explicit gap record (shards come back in
            // board order, so the gap stream is deterministic too).
            let missed = output.missed_power_ups + output.dropped;
            if missed > 0 {
                self.gaps.push(GapRecord {
                    device: shard.board.id(),
                    window,
                    year_month: (window_date.year, window_date.month),
                    missed_reads: u32::try_from(missed).unwrap_or(u32::MAX),
                    cause: if output.browned_out {
                        GapCause::Brownout
                    } else {
                        GapCause::RetriesExhausted
                    },
                });
            }
            if let Some(o) = &self.obs {
                o.shard_window_ns.record_duration(output.busy);
                o.power_cycles.add(output.power_cycles);
                if let Some(board) = o.board_cycles.get(usize::from(shard.board.id().0)) {
                    board.add(output.power_cycles);
                }
                o.dropped.add(output.dropped);
                o.retries.add(output.retries);
                o.i2c_faults.add(output.dropped + output.retries);
                if output.browned_out {
                    o.faults_browned_out.inc();
                }
                o.faults_missed_power_ups.add(output.missed_power_ups);
                o.faults_injected_nacks.add(output.injected_nacks);
                o.faults_injected_corruptions
                    .add(output.injected_corruptions);
                o.faults_stuck_cells.add(output.stuck_cells_forced);
                o.retry_attempts.add(output.retries);
                o.retry_exhausted.add(output.dropped);
                o.retry_backoff_ms.add(output.backoff_ms);
                o.shard_windows.inc();
            }
        }
        if let Some(o) = &self.obs {
            o.records.add(accepted);
        }
        sunk.and(folded)?;
        if let Some(o) = &self.obs {
            o.windows.inc();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            boards: 4,
            sram_bits: 128,
            read_bits: 128,
            months: 2,
            reads_per_window: 10,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn max_boards_fill_both_address_layers() {
        let config = CampaignConfig {
            boards: MAX_BOARDS,
            ..tiny_config()
        };
        let campaign = Campaign::new(config, 1);
        let last = &campaign.shards[MAX_BOARDS - 1];
        assert_eq!((last.layer, last.address), (1, Address::new(0x77).unwrap()));
    }

    #[test]
    fn windowed_campaign_produces_expected_record_counts() {
        let mut campaign = Campaign::new(tiny_config(), 1);
        let mut records = Vec::new();
        let summary = campaign.run(&mut records).unwrap();
        // (months + 1) windows × boards × reads.
        assert_eq!(records.len(), 3 * 4 * 10);
        let devices: BTreeSet<BoardId> = records.iter().map(|r| r.device).collect();
        assert_eq!(devices.len(), 4);
        assert_eq!(summary.windows, 3);
        assert_eq!(summary.records, 120);
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn every_board_produces_the_same_quantity() {
        // The paper's synchronization property: "each slave board always
        // produces the same quantity of SRAM PUF data".
        let mut campaign = Campaign::new(tiny_config(), 2);
        let records = campaign.run_in_memory();
        let counts: Vec<usize> = (0..4)
            .map(|i| records.iter().filter(|r| r.device == BoardId(i)).count())
            .collect();
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    #[test]
    fn window_timestamps_fall_on_the_evaluation_day() {
        let mut campaign = Campaign::new(tiny_config(), 3);
        let records = campaign.run_in_memory();
        for record in &records {
            let dt = record.timestamp.datetime();
            assert_eq!(dt.date.day, 8, "window day: {dt}");
            // First reads of the window land right after midnight.
            assert!(dt.hour == 0, "within the after-midnight window: {dt}");
        }
        // Months advance: Feb, Mar, Apr 2017.
        let months: Vec<(i32, u8)> = records
            .iter()
            .map(|r| {
                let d = r.timestamp.datetime().date;
                (d.year, d.month)
            })
            .collect();
        assert!(months.contains(&(2017, 2)));
        assert!(months.contains(&(2017, 3)));
        assert!(months.contains(&(2017, 4)));
    }

    #[test]
    fn sequence_numbers_account_for_skipped_cycles() {
        let mut campaign = Campaign::new(tiny_config(), 4);
        let records = campaign.run_in_memory();
        let first_window_seq = records[0].seq;
        let later = records
            .iter()
            .find(|r| r.timestamp.datetime().date.month == 3)
            .unwrap();
        // 28 days of 5.4 s cycles ≈ 448 000 cycles elapsed between windows.
        assert!(later.seq > first_window_seq + 400_000);
    }

    #[test]
    fn layers_interleave_within_a_window() {
        let mut campaign = Campaign::new(tiny_config(), 5);
        let records = campaign.run_in_memory();
        // Boards 0, 2 are layer 0; boards 1, 3 are layer 1. Layer-1 records
        // of the same read index are 2–3 s later.
        let r0 = records.iter().find(|r| r.device == BoardId(0)).unwrap();
        let r1 = records.iter().find(|r| r.device == BoardId(1)).unwrap();
        let dt = r1.timestamp.seconds_since(r0.timestamp);
        assert!((2..=3).contains(&dt), "layer offset {dt}");
    }

    #[test]
    fn read_timestamps_follow_the_layer_waveforms() {
        // Read k of a window is captured READOUT_DELAY_S after the k-th
        // rising edge of the board's layer: a board's reads are one period
        // apart, and layer 1 trails layer 0 by half a period.
        let config = tiny_config();
        let mut campaign = Campaign::new(config.clone(), 8);
        let records = campaign.run_in_memory();
        let period = PowerWaveform::paper_layer(0).period_s();
        let per_window = config.boards * config.reads_per_window as usize;
        assert_eq!(records.len(), (config.months as usize + 1) * per_window);
        for (month, window) in (0..).zip(records.chunks(per_window)) {
            let window_start = Timestamp::from_date(campaign.window_date(month));
            for board in 0..config.boards {
                let layer = u8::try_from(board % 2).unwrap();
                let offset = PowerWaveform::paper_layer(layer).offset_s();
                let reads = window.iter().filter(|r| usize::from(r.device.0) == board);
                let mut count = 0;
                for (read, record) in (0..).zip(reads) {
                    let expected =
                        window_start.offset_by(f64::from(read) * period + offset + READOUT_DELAY_S);
                    assert_eq!(
                        record.timestamp, expected,
                        "month {month}, board {board}, read {read}"
                    );
                    count += 1;
                }
                assert_eq!(
                    count, config.reads_per_window,
                    "month {month}, board {board}"
                );
            }
        }
    }

    #[test]
    fn aging_degrades_across_the_campaign() {
        let config = CampaignConfig {
            boards: 2,
            sram_bits: 8192,
            read_bits: 8192,
            months: 24,
            reads_per_window: 3,
            ..CampaignConfig::default()
        };
        let mut campaign = Campaign::new(config, 6);
        let records = campaign.run_in_memory();
        let device: Vec<&Record> = records.iter().filter(|r| r.device == BoardId(0)).collect();
        let reference = &device[0].data;
        let fresh_fhd = device[1].data.fractional_hamming_distance(reference);
        let aged_fhd = device[device.len() - 1]
            .data
            .fractional_hamming_distance(reference);
        assert!(
            aged_fhd > fresh_fhd,
            "aging must raise WCHD: {fresh_fhd} → {aged_fhd}"
        );
    }

    #[test]
    fn continuous_plan_records_every_cycle() {
        let config = CampaignConfig {
            plan: MeasurementPlan::Continuous,
            months: 0,
            reads_per_window: 25,
            ..tiny_config()
        };
        let mut campaign = Campaign::new(config, 7);
        let records = campaign.run_in_memory();
        assert_eq!(records.len(), 4 * 25);
        // Consecutive seq numbers, no gaps.
        let seqs: Vec<u64> = records
            .iter()
            .filter(|r| r.device == BoardId(0))
            .map(|r| r.seq)
            .collect();
        for w in seqs.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn faulty_transport_drops_but_does_not_corrupt() {
        let config = CampaignConfig {
            i2c_nack_rate: 0.4,
            i2c_retries: 0,
            ..tiny_config()
        };
        let mut campaign = Campaign::new(config, 8);
        let mut records = Vec::new();
        let summary = campaign.run(&mut records).unwrap();
        assert!(summary.dropped > 0, "faults must drop read-outs");
        // Everything that did arrive has the right shape.
        for r in &records {
            assert_eq!(r.data.len(), 128);
        }
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let config = CampaignConfig {
            i2c_nack_rate: 0.3,
            i2c_retries: 50,
            ..tiny_config()
        };
        let mut campaign = Campaign::new(config, 9);
        let mut records = Vec::new();
        let summary = campaign.run(&mut records).unwrap();
        assert_eq!(summary.dropped, 0);
        assert!(summary.retries > 0);
        assert_eq!(records.len(), 120);
    }

    #[test]
    fn elevated_environment_accelerates_the_campaign() {
        use sramcell::Environment;
        let nominal_cfg = CampaignConfig {
            months: 6,
            ..tiny_config()
        };
        let profile = nominal_cfg.profile.clone();
        let hot_cfg = CampaignConfig {
            environment: Some(Environment {
                temp_c: 85.0,
                vdd_v: profile.vdd_v * 1.1,
                ramp_us: profile.ramp_us,
            }),
            ..nominal_cfg.clone()
        };
        let wchd_growth = |cfg: CampaignConfig| {
            let records = Campaign::new(cfg, 77).run_in_memory();
            let device: Vec<&Record> = records.iter().filter(|r| r.device == BoardId(0)).collect();
            let reference = &device[0].data;
            let fresh: f64 = device[1..10]
                .iter()
                .map(|r| r.data.fractional_hamming_distance(reference))
                .sum::<f64>()
                / 9.0;
            let aged: f64 = device[device.len() - 9..]
                .iter()
                .map(|r| r.data.fractional_hamming_distance(reference))
                .sum::<f64>()
                / 9.0;
            aged - fresh
        };
        // The hot/overdriven rig must degrade faster than the nominal one.
        // (Read-out noise is also higher, which adds to the measured FHD.)
        assert!(
            wchd_growth(hot_cfg) > wchd_growth(nominal_cfg),
            "elevated environment must accelerate degradation"
        );
    }

    #[test]
    fn instruments_count_the_campaign_exactly() {
        let ins = Instruments::new();
        let config = CampaignConfig {
            i2c_nack_rate: 0.2,
            i2c_retries: 2,
            ..tiny_config()
        };
        let summary = Campaign::new(config, 11)
            .threads(2)
            .instruments(&ins)
            .run(&mut Vec::new())
            .unwrap();
        let snap = ins.snapshot();
        assert_eq!(snap.counter("campaign.records"), summary.records);
        assert_eq!(snap.counter("campaign.dropped"), summary.dropped);
        assert_eq!(snap.counter("campaign.retries"), summary.retries);
        assert_eq!(snap.counter("campaign.windows"), u64::from(summary.windows));
        assert_eq!(
            snap.counter("campaign.i2c_faults"),
            summary.dropped + summary.retries
        );
        // Every board ran every window; per-board cycles sum to the total.
        let total = snap.counter("campaign.power_cycles");
        assert_eq!(total, 3 * 4 * 10);
        let per_board: u64 = (0..4)
            .map(|i| snap.counter(&format!("campaign.board{i:02}.power_cycles")))
            .sum();
        assert_eq!(per_board, total);
        // One timing sample per (board, window).
        let hist = snap.histogram("campaign.shard_window_ns").unwrap();
        assert_eq!(hist.count, 3 * 4);
    }

    #[test]
    fn counter_rng_preserves_the_statistical_contract() {
        // The board streams moved from the vendored xoshiro (`StdRng`) to
        // the counter-based `PufRng`. The workspace's determinism contract
        // was then over *metrics*, not bitstreams (DESIGN.md §6), so
        // equivalence with the old path means the recorded data sits in
        // the same statistical envelope the old goldens locked: the
        // paper's ~62% one-bias, low within-class noise, ~48%
        // between-class distance.
        let config = CampaignConfig {
            boards: 4,
            sram_bits: 4096,
            read_bits: 4096,
            months: 0,
            reads_per_window: 20,
            ..CampaignConfig::default()
        };
        let records = Campaign::new(config, 13).run_in_memory();
        let mean_weight: f64 = records
            .iter()
            .map(|r| r.data.fractional_hamming_weight())
            .sum::<f64>()
            / records.len() as f64;
        assert!(
            (0.55..=0.70).contains(&mean_weight),
            "power-up bias drifted: mean weight {mean_weight}"
        );
        let reference: Vec<&Record> = records.iter().filter(|r| r.device == BoardId(0)).collect();
        let within: f64 = reference[1..]
            .iter()
            .map(|r| r.data.fractional_hamming_distance(&reference[0].data))
            .sum::<f64>()
            / (reference.len() - 1) as f64;
        assert!(within < 0.15, "within-class noise blew up: {within}");
        let other = records
            .iter()
            .find(|r| r.device == BoardId(1))
            .expect("board 1 recorded");
        let between = other.data.fractional_hamming_distance(&reference[0].data);
        assert!(
            (0.4..=0.6).contains(&between),
            "between-class distance drifted: {between}"
        );
    }

    #[test]
    fn instrumented_run_is_record_identical() {
        let mut plain = Vec::new();
        let plain_summary = Campaign::new(tiny_config(), 12).run(&mut plain).unwrap();
        let ins = Instruments::new();
        let mut instrumented = Vec::new();
        let instrumented_summary = Campaign::new(tiny_config(), 12)
            .instruments(&ins)
            .run(&mut instrumented)
            .unwrap();
        assert_eq!(plain, instrumented);
        assert_eq!(plain_summary, instrumented_summary);
    }

    #[test]
    #[should_panic(expected = "at least one board")]
    fn empty_campaign_rejected() {
        let config = CampaignConfig {
            boards: 0,
            ..tiny_config()
        };
        Campaign::new(config, 0);
    }
}
