//! Bounded-memory streaming assessment.
//!
//! [`Assessment::from_records`](crate::Assessment::from_records) retains
//! every window read-out in a [`pufbits::BitMatrix`]; at the paper's scale
//! (~11 M read-outs per device × 16 devices) that is hundreds of gigabytes.
//! [`WindowAccumulator`] folds the record stream one read-out at a time into
//! per-(device, month) running state — a [`OnesCounter`], the window's first
//! read-out, and incremental WCHD/FHW sums — so peak memory is bounded by
//! `devices × months × window state` and is **independent of the record
//! count**. The selection rule and the WCHD sums come from the window fold
//! in [`monthly`](crate::monthly), which the key-lifetime accumulator folds
//! through too; this module adds the per-cell counts, the FHW sums and the
//! month-zero samples. Both assessment paths finish in one assembly, and
//! the produced [`Assessment`] is identical (bit-for-bit, including every
//! floating-point sum, because additions happen in the same order) to the
//! in-memory path on the same record sequence.
//!
//! The accumulator implements [`RecordSink`], so a campaign can pipe
//! directly into the assessment without touching disk or materialising a
//! dataset:
//!
//! ```
//! use pufassess::monthly::EvaluationProtocol;
//! use pufassess::streaming::WindowAccumulator;
//! use puftestbed::{Campaign, CampaignConfig};
//!
//! let config = CampaignConfig {
//!     boards: 3, sram_bits: 512, read_bits: 512, months: 2, reads_per_window: 10,
//!     ..CampaignConfig::default()
//! };
//! let protocol = EvaluationProtocol { reads_per_window: 10, ..EvaluationProtocol::default() };
//! let mut accumulator = WindowAccumulator::new(protocol);
//! Campaign::new(config, 5).run(&mut accumulator)?;
//! let assessment = accumulator.finish().unwrap();
//! assert_eq!(assessment.months(), 3);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::assessment::{assemble, AssessError, Assessment, WindowStats};
use crate::metrics::{between_class_hds, InitialQuality};
use crate::monthly::{EvaluationProtocol, WindowFold};
use pufbits::{BitMatrix, BitVec, BlockCounter, OnesCounter};
use pufobs::{Counter, Gauge, Instruments};
use puftestbed::store::{RecordSink, ShardedFold};
use puftestbed::{BoardId, Record};
use std::io;

/// One window's state beyond the fold's read count and WCHD sum: everything
/// the metrics need, nothing the record count scales.
#[derive(Debug, Clone)]
struct WindowState {
    /// Per-cell one-counts, staged 64 rows at a time through the word-level
    /// transpose kernel and flushed into a plain [`OnesCounter`] at
    /// [`finish`](WindowAccumulator::finish).
    counter: BlockCounter,
    first_read: BitVec,
    /// Running sum of per-read fractional Hamming weight.
    fhw_sum: f64,
    /// Per-read samples, retained only while this window's month is the
    /// earliest seen (the Fig. 5 initial-quality bundle needs the full
    /// distributions of month zero; later months only need the sums).
    samples: Option<WindowSamples>,
}

#[derive(Debug, Clone, Default)]
struct WindowSamples {
    wchd: Vec<f64>,
    fhw: Vec<f64>,
}

/// A finished window's retained state, for consumers that need more than
/// the [`Assessment`] (e.g. fitting the hidden-variable model from the
/// per-cell one-counts).
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// The measured device.
    pub device: BoardId,
    /// Month key `(year, month)` of the window.
    pub year_month: (i32, u8),
    /// Per-cell one-counts over the window.
    pub counter: OnesCounter,
    /// The first read-out of the window.
    pub first_read: BitVec,
}

/// Streaming, bounded-memory implementation of the paper's evaluation
/// protocol. See the [module docs](self) for the memory argument and an
/// example; see [`Assessment::from_record_stream`] for a one-call wrapper.
///
/// Records must arrive in per-device chronological order (campaign order),
/// the same precondition as [`select_windows`](crate::monthly::select_windows);
/// cross-month violations are detected and reported by
/// [`finish`](Self::finish) as [`AssessError::OutOfOrder`].
#[derive(Debug, Clone)]
pub struct WindowAccumulator {
    fold: WindowFold<WindowState, ()>,
    /// Earliest window month seen so far — the candidate "month zero".
    min_month: Option<(i32, u8)>,
    obs: Option<AccumulatorInstruments>,
}

/// Pre-registered handles for the accumulator's window instruments; the
/// fold maintains the `assess.records_*` counters.
#[derive(Debug, Clone)]
struct AccumulatorInstruments {
    /// `assess.windows_opened` — (device, month) windows opened.
    windows_opened: Counter,
    /// `assess.windows_open` — windows held in memory, summed over the
    /// parts of a sharded fold.
    windows_open: Gauge,
}

impl WindowAccumulator {
    /// Creates an empty accumulator for `protocol`.
    pub fn new(protocol: EvaluationProtocol) -> Self {
        Self {
            fold: WindowFold::new(protocol),
            min_month: None,
            obs: None,
        }
    }

    /// Attaches an instrument registry: the accumulator then maintains the
    /// `assess.*` counters (seen/folded/skipped records, windows opened)
    /// and the `assess.windows_open` gauge. Folding itself is unchanged —
    /// the produced [`Assessment`] is identical with or without
    /// instruments. Clones of an instrumented accumulator share the same
    /// underlying instruments.
    pub fn attach_instruments(&mut self, ins: &Instruments) {
        self.fold.attach_instruments(ins, "assess");
        self.obs = Some(AccumulatorInstruments {
            windows_opened: ins.counter("assess.windows_opened"),
            windows_open: ins.gauge("assess.windows_open"),
        });
    }

    /// The protocol in use.
    pub fn protocol(&self) -> EvaluationProtocol {
        self.fold.protocol()
    }

    /// Records pushed so far (eligible or not).
    pub fn records_seen(&self) -> u64 {
        self.fold.records_seen()
    }

    /// Records folded into a window so far.
    pub fn records_folded(&self) -> u64 {
        self.fold.records_folded()
    }

    /// Records pushed but not folded (ineligible day, window already at
    /// its read cap, or width mismatch). Always
    /// `records_seen() - records_folded()`.
    pub fn records_skipped(&self) -> u64 {
        self.fold.records_seen() - self.fold.records_folded()
    }

    /// Eligible records dropped because their width differed from their
    /// window's established width, or from their device's reference width
    /// when they would open a new window.
    pub fn skipped_width_mismatch(&self) -> u64 {
        self.fold.skipped_width_mismatch()
    }

    /// Number of (device, month) windows opened so far.
    pub fn windows_open(&self) -> usize {
        self.fold.windows().len()
    }

    /// Folds one record into the accumulation.
    ///
    /// Ineligible records (before the evaluation day or past the window
    /// cap) are ignored; width mismatches are counted and skipped, exactly
    /// like [`select_windows_counted`](crate::monthly::select_windows_counted).
    pub fn push(&mut self, record: &Record) {
        let mut stale_month_zero = None;
        let Some((window, _, wchd, opened)) = self.fold.push(
            record,
            || (),
            |ym| {
                if self.min_month.is_none_or(|min| ym < min) {
                    // A new month zero: the old candidate's windows no
                    // longer feed the initial-quality bundle.
                    stale_month_zero = self.min_month.replace(ym);
                }
                WindowState {
                    counter: BlockCounter::new(record.data.len()),
                    first_read: record.data.clone(),
                    fhw_sum: 0.0,
                    samples: (self.min_month == Some(ym)).then(WindowSamples::default),
                }
            },
        ) else {
            return;
        };
        let fhw = record.data.fractional_hamming_weight();
        window
            .state
            .counter
            .add(&record.data)
            .expect("the fold checked the width");
        window.state.fhw_sum += fhw;
        if let Some(samples) = &mut window.state.samples {
            samples.wchd.push(wchd);
            samples.fhw.push(fhw);
        }
        if let Some(stale) = stale_month_zero {
            for window in self.fold.windows_mut() {
                if window.year_month == stale {
                    window.state.samples = None;
                }
            }
        }
        if opened {
            if let Some(o) = &self.obs {
                o.windows_opened.inc();
                o.windows_open.add(1);
            }
        }
    }

    /// Finalizes the accumulation into an [`Assessment`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Assessment::from_records`], plus
    /// [`AssessError::OutOfOrder`] for cross-month order violations.
    pub fn finish(self) -> Result<Assessment, AssessError> {
        self.finish_with_windows().map(|(assessment, _)| assessment)
    }

    /// [`finish`](Self::finish), additionally returning every window's
    /// retained state (sorted by `(device, year, month)`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`finish`](Self::finish).
    pub fn finish_with_windows(self) -> Result<(Assessment, Vec<WindowSnapshot>), AssessError> {
        if let Some(device) = self.fold.out_of_order() {
            return Err(AssessError::OutOfOrder { device });
        }
        if self.fold.records_seen() == 0 {
            return Err(AssessError::Empty);
        }
        let protocol = self.fold.protocol();
        // Flush every window's staged rows into its plain counter. A window
        // exists only once a read folded into it, so no average is 0/0.
        let mut samples = Vec::new();
        let windows: Vec<WindowStats> = self
            .fold
            .into_windows()
            .into_values()
            .map(|w| {
                let reads = f64::from(w.reads);
                samples.push(w.state.samples);
                WindowStats {
                    device: w.device,
                    year_month: w.year_month,
                    reads: w.reads,
                    wchd: w.wchd_sum / reads,
                    fhw: w.state.fhw_sum / reads,
                    counter: w.state.counter.into_counter(),
                    first_read: w.state.first_read,
                }
            })
            .collect();
        // Fig. 5 bundle from the month-zero samples (retained per window in
        // arrival order; concatenated here in window order, exactly as
        // `InitialQuality::evaluate` walks the retained matrices).
        let assessment = assemble(protocol, &windows, |first_month| {
            let mut wchd_samples = Vec::new();
            let mut fhw_samples = Vec::new();
            let mut references = Vec::new();
            for (w, samples) in windows.iter().zip(&samples) {
                if w.year_month == first_month {
                    let samples = samples.as_ref().expect("month-zero windows retain samples");
                    wchd_samples.extend_from_slice(&samples.wchd);
                    fhw_samples.extend_from_slice(&samples.fhw);
                    references.push(w.first_read.clone());
                }
            }
            let references = BitMatrix::from_rows(references).expect("equal read widths");
            InitialQuality::from_samples(wchd_samples, between_class_hds(&references), fhw_samples)
        })?;
        let snapshots = windows
            .into_iter()
            .map(|w| WindowSnapshot {
                device: w.device,
                year_month: w.year_month,
                counter: w.counter,
                first_read: w.first_read,
            })
            .collect();
        Ok((assessment, snapshots))
    }
}

/// A campaign can stream straight into the accumulator: the direct
/// campaign → assessment pipe that never materialises a dataset.
impl RecordSink for WindowAccumulator {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        self.push(record);
        Ok(())
    }
}

/// The month-zero rule holds across parts: a part starts from the earliest
/// month seen so far, so a window it opens keeps per-read samples exactly
/// when it would in one accumulator, and a merge drops the samples of every
/// window outside the merged earliest month.
impl ShardedFold for WindowAccumulator {
    fn split_off(&mut self, devices: &[BoardId]) -> Self {
        Self {
            fold: self.fold.split_off(devices),
            min_month: self.min_month,
            obs: self.obs.clone(),
        }
    }

    /// # Panics
    ///
    /// Panics if both saw a device (a harness bug, not a data condition).
    fn merge(&mut self, part: Self) {
        self.fold.merge(part.fold);
        self.min_month = self.min_month.into_iter().chain(part.min_month).min();
        for window in self.fold.windows_mut() {
            if Some(window.year_month) != self.min_month {
                window.state.samples = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puftestbed::{CalendarDate, Campaign, CampaignConfig, Timestamp};

    fn campaign_config(months: u32, boards: usize) -> CampaignConfig {
        CampaignConfig {
            boards,
            sram_bits: 1024,
            read_bits: 1024,
            months,
            reads_per_window: 25,
            ..CampaignConfig::default()
        }
    }

    fn protocol() -> EvaluationProtocol {
        EvaluationProtocol {
            reads_per_window: 25,
            ..EvaluationProtocol::default()
        }
    }

    #[test]
    fn streaming_equals_in_memory_exactly() {
        let records = Campaign::new(campaign_config(3, 4), 91).run_in_memory();
        let in_memory = Assessment::from_records(&records, &protocol()).unwrap();
        let streamed = Assessment::from_record_stream(&records, &protocol()).unwrap();
        // Bit-exact: every float was accumulated in the same order.
        assert_eq!(in_memory, streamed);
        assert_eq!(in_memory.table1().render(), streamed.table1().render());
    }

    #[test]
    fn campaign_pipes_directly_into_the_accumulator() {
        let mut accumulator = WindowAccumulator::new(protocol());
        Campaign::new(campaign_config(2, 3), 92)
            .run(&mut accumulator)
            .unwrap();
        assert_eq!(accumulator.windows_open(), 3 * 3);
        let direct = accumulator.finish().unwrap();
        let records = Campaign::new(campaign_config(2, 3), 92).run_in_memory();
        let replay = Assessment::from_records(&records, &protocol()).unwrap();
        assert_eq!(direct, replay);
    }

    #[test]
    fn snapshots_carry_the_window_counters() {
        let records = Campaign::new(campaign_config(1, 2), 93).run_in_memory();
        let mut accumulator = WindowAccumulator::new(protocol());
        for r in &records {
            accumulator.push(r);
        }
        let (_, snapshots) = accumulator.finish_with_windows().unwrap();
        assert_eq!(snapshots.len(), 2 * 2);
        for s in &snapshots {
            assert_eq!(s.counter.observations(), 25);
            assert_eq!(s.first_read.len(), 1024);
        }
        // Sorted by (device, year, month).
        assert!(snapshots
            .windows(2)
            .all(|p| { (p[0].device.0, p[0].year_month) <= (p[1].device.0, p[1].year_month) }));
    }

    #[test]
    fn width_mismatches_are_skipped_and_counted() {
        use pufbits::BitVec;
        let at = |d: u8, seq: u64, offset: f64| {
            Record::new(
                BoardId(d),
                seq,
                Timestamp::from_date(CalendarDate::new(2017, 2, 8)).offset_by(offset),
                BitVec::from_bytes(&[seq as u8]),
            )
        };
        let mut accumulator = WindowAccumulator::new(protocol());
        accumulator.push(&at(0, 0, 0.0));
        // Truncated read-out: 4 bits instead of 8.
        accumulator.push(&Record::new(
            BoardId(0),
            1,
            Timestamp::from_date(CalendarDate::new(2017, 2, 8)).offset_by(5.4),
            BitVec::zeros(4),
        ));
        accumulator.push(&at(0, 2, 10.8));
        accumulator.push(&at(1, 0, 1.0));
        assert_eq!(accumulator.skipped_width_mismatch(), 1);
        let (_, snapshots) = accumulator.finish_with_windows().unwrap();
        assert_eq!(snapshots[0].counter.observations(), 2);
    }

    #[test]
    fn instruments_satisfy_the_conservation_invariant() {
        let ins = Instruments::new();
        let config = CampaignConfig {
            // Window cap below the campaign's reads: some records skip.
            reads_per_window: 25,
            ..campaign_config(2, 3)
        };
        let protocol = EvaluationProtocol {
            reads_per_window: 10,
            ..EvaluationProtocol::default()
        };
        let mut accumulator = WindowAccumulator::new(protocol);
        accumulator.attach_instruments(&ins);
        Campaign::new(config, 94).run(&mut accumulator).unwrap();
        let snap = ins.snapshot();
        assert_eq!(snap.counter("assess.records_seen"), 3 * 3 * 25);
        assert_eq!(snap.counter("assess.records_folded"), 3 * 3 * 10);
        assert_eq!(
            snap.counter("assess.records_seen"),
            snap.counter("assess.records_folded") + snap.counter("assess.records_skipped")
        );
        assert_eq!(snap.counter("assess.windows_opened"), 3 * 3);
        assert_eq!(snap.gauge("assess.windows_open"), 3 * 3);
        // The plain accessors agree with the instruments.
        assert_eq!(
            accumulator.records_seen(),
            snap.counter("assess.records_seen")
        );
        assert_eq!(
            accumulator.records_folded(),
            snap.counter("assess.records_folded")
        );
        assert_eq!(
            accumulator.records_skipped(),
            snap.counter("assess.records_skipped")
        );
    }

    #[test]
    fn instrumented_accumulator_produces_the_same_assessment() {
        let records = Campaign::new(campaign_config(2, 3), 95).run_in_memory();
        let mut plain = WindowAccumulator::new(protocol());
        let ins = Instruments::new();
        let mut instrumented = WindowAccumulator::new(protocol());
        instrumented.attach_instruments(&ins);
        for r in &records {
            plain.push(r);
            instrumented.push(r);
        }
        assert_eq!(plain.finish().unwrap(), instrumented.finish().unwrap());
    }

    #[test]
    fn out_of_order_streams_are_detected() {
        use pufbits::BitVec;
        let at = |month: u8, seq: u64| {
            Record::new(
                BoardId(0),
                seq,
                Timestamp::from_date(CalendarDate::new(2017, month, 8)),
                BitVec::from_bytes(&[seq as u8]),
            )
        };
        let mut accumulator = WindowAccumulator::new(protocol());
        accumulator.push(&at(3, 500_000)); // March first…
        accumulator.push(&at(2, 0)); // …then February: reference was wrong.
        let err = accumulator.finish().unwrap_err();
        assert_eq!(err, AssessError::OutOfOrder { device: BoardId(0) });
    }

    #[test]
    fn empty_and_windowless_streams_are_rejected() {
        let accumulator = WindowAccumulator::new(protocol());
        assert_eq!(accumulator.finish().unwrap_err(), AssessError::Empty);

        use pufbits::BitVec;
        let mut accumulator = WindowAccumulator::new(protocol());
        // Eligible day is the 8th; the 7th never opens a window.
        accumulator.push(&Record::new(
            BoardId(0),
            0,
            Timestamp::from_date(CalendarDate::new(2017, 2, 7)),
            BitVec::from_bytes(&[1]),
        ));
        assert_eq!(accumulator.finish().unwrap_err(), AssessError::NoWindows);
    }
}
