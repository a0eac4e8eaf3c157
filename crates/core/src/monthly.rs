//! The monthly selection rule of §IV-B.
//!
//! "We select the first 1 000 consecutive measurements after midnight on the
//! 8th of each month for each SRAM chip." This module implements exactly
//! that filter over a campaign record stream, in both of its forms:
//! [`select_windows_counted`] selects over a record slice and retains every
//! selected read-out, and the crate-private `WindowFold` applies the same
//! rule one record at a time, retaining only counts and sums. Both streaming
//! accumulators, [`WindowAccumulator`](crate::WindowAccumulator) and
//! [`KeyLifeAccumulator`](crate::KeyLifeAccumulator), fold through
//! `WindowFold`; the in-memory references select through
//! [`select_windows_counted`].

use pufbits::{BitMatrix, BitVec, OnesCounter};
use pufobs::{Counter, Instruments};
use puftestbed::{BoardId, Record, Timestamp};
use std::collections::BTreeMap;

/// Parameters of the paper's evaluation protocol.
///
/// # Examples
///
/// ```
/// let p = pufassess::EvaluationProtocol::default();
/// assert_eq!(p.reads_per_window, 1000);
/// assert_eq!(p.eval_day, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvaluationProtocol {
    /// Consecutive measurements per monthly window (paper: 1 000).
    pub reads_per_window: u32,
    /// Day of month whose midnight opens each window (paper: the 8th).
    pub eval_day: u8,
}

impl Default for EvaluationProtocol {
    fn default() -> Self {
        Self {
            reads_per_window: 1000,
            eval_day: 8,
        }
    }
}

/// One device's selected window for one month: the streaming one-counts,
/// the first read-out (the month's reference for BCHD/PUF entropy), and the
/// accumulated FHD-vs-reference samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlyWindow {
    /// The measured device.
    pub device: BoardId,
    /// Month key `(year, month)` of the window.
    pub year_month: (i32, u8),
    /// Per-cell one-counts over the window.
    pub counter: OnesCounter,
    /// The first read-out of the window.
    pub first_read: BitVec,
    /// Every read-out of the window (retained for WCHD against an external
    /// reference).
    pub readouts: BitMatrix,
}

impl MonthlyWindow {
    /// Number of measurements captured in this window.
    pub fn reads(&self) -> u32 {
        self.counter.observations()
    }
}

/// Groups a record stream into per-device, per-month windows, honouring the
/// protocol's selection rule.
///
/// Records must arrive in per-device chronological order (campaign order).
/// Only records timestamped on or after midnight of `protocol.eval_day` in
/// their month are eligible, and only the first `reads_per_window` eligible
/// records per device-month are taken.
///
/// Returns windows sorted by `(device, year, month)`.
///
/// # Examples
///
/// ```
/// use pufassess::monthly::{select_windows, EvaluationProtocol};
/// use puftestbed::{Campaign, CampaignConfig};
///
/// let config = CampaignConfig {
///     boards: 2, sram_bits: 64, read_bits: 64, months: 1, reads_per_window: 8,
///     ..CampaignConfig::default()
/// };
/// let records = Campaign::new(config, 1).run_in_memory();
/// let windows = select_windows(
///     &records,
///     &EvaluationProtocol { reads_per_window: 8, ..EvaluationProtocol::default() },
/// );
/// assert_eq!(windows.len(), 2 * 2); // 2 devices × 2 months
/// assert!(windows.iter().all(|w| w.reads() == 8));
/// ```
pub fn select_windows(records: &[Record], protocol: &EvaluationProtocol) -> Vec<MonthlyWindow> {
    select_windows_counted(records, protocol).windows
}

/// Result of [`select_windows_counted`]: the windows plus skip accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSelection {
    /// Windows sorted by `(device, year, month)`.
    pub windows: Vec<MonthlyWindow>,
    /// Eligible records dropped because their width differed from their
    /// window's first read-out, or from their device's first read-out when
    /// they would open a new window (a parseable-but-truncated record must
    /// not abort the whole assessment).
    pub skipped_width_mismatch: u64,
}

/// The evaluation day clamped into month `(year, month)`.
///
/// The paper evaluates on the 8th, which every month has; a protocol asking
/// for day 29–31 would otherwise name a date that does not exist in short
/// months (no window could ever open in February), and
/// [`window_open`] would panic constructing it. Clamping to the month's last
/// day keeps every month evaluable and is a no-op for day ≤ 28.
pub(crate) fn effective_eval_day(protocol: &EvaluationProtocol, year: i32, month: u8) -> u8 {
    protocol
        .eval_day
        .clamp(1, puftestbed::days_in_month(year, month))
}

/// [`select_windows`] with skip accounting: a record whose width disagrees
/// with its window's established width, or that would open a new window of
/// its device at another width than the device's first read, is counted
/// and dropped instead of aborting the assessment.
pub fn select_windows_counted(
    records: &[Record],
    protocol: &EvaluationProtocol,
) -> WindowSelection {
    let mut windows: BTreeMap<(u8, i32, u8), MonthlyWindow> = BTreeMap::new();
    let mut device_widths: BTreeMap<u8, usize> = BTreeMap::new();
    let mut skipped_width_mismatch = 0u64;
    // A zero-read protocol selects nothing: opening empty windows would feed
    // 0-row matrices (and 0/0 averages) to every metric downstream.
    if protocol.reads_per_window == 0 {
        return WindowSelection {
            windows: Vec::new(),
            skipped_width_mismatch,
        };
    }
    for record in records {
        let dt = record.timestamp.datetime();
        // Eligibility: at or after midnight of the evaluation day (clamped
        // into the month, so short months still open a window).
        if dt.date.day < effective_eval_day(protocol, dt.date.year, dt.date.month) {
            continue;
        }
        let key = (record.device.0, dt.date.year, dt.date.month);
        if !windows.contains_key(&key) {
            // Reference-width rule, as in `WindowFold::push`.
            let width = *device_widths
                .entry(record.device.0)
                .or_insert(record.data.len());
            if record.data.len() != width {
                skipped_width_mismatch += 1;
                continue;
            }
        }
        let window = windows.entry(key).or_insert_with(|| MonthlyWindow {
            device: record.device,
            year_month: (dt.date.year, dt.date.month),
            counter: OnesCounter::new(record.data.len()),
            first_read: record.data.clone(),
            readouts: BitMatrix::new(record.data.len()),
        });
        if window.reads() >= protocol.reads_per_window {
            continue;
        }
        if record.data.len() != window.counter.width() {
            skipped_width_mismatch += 1;
            continue;
        }
        window
            .counter
            .add(&record.data)
            .expect("width checked above");
        window
            .readouts
            .push_row(record.data.clone())
            .expect("width checked above");
    }
    WindowSelection {
        windows: windows.into_values().collect(),
        skipped_width_mismatch,
    }
}

/// Midnight opening the evaluation window of month `(year, month)`.
///
/// The evaluation day is clamped into the month, so e.g. an `eval_day` of 30
/// opens February's window on the 28th (or 29th) instead of panicking on a
/// date that does not exist.
pub fn window_open(protocol: &EvaluationProtocol, year: i32, month: u8) -> Timestamp {
    Timestamp::from_date(puftestbed::CalendarDate::new(
        year,
        month,
        effective_eval_day(protocol, year, month),
    ))
}

/// A device as [`WindowFold`] tracks it, plus the caller's state `D`.
#[derive(Debug, Clone)]
pub(crate) struct FoldDevice<D> {
    /// Month of the device's first eligible read.
    pub(crate) reference_month: (i32, u8),
    /// The device's first eligible read: every WCHD compares with it, and
    /// every folded read has its width.
    pub(crate) reference: BitVec,
    pub(crate) state: D,
}

/// A (device, month) window as [`WindowFold`] tracks it, plus the caller's
/// state `W`.
#[derive(Debug, Clone)]
pub(crate) struct FoldWindow<W> {
    pub(crate) device: BoardId,
    pub(crate) year_month: (i32, u8),
    /// Reads folded into the window.
    pub(crate) reads: u32,
    /// Running sum of per-read FHD against the device reference, in arrival
    /// order (bit-identical to summing the retained rows).
    pub(crate) wchd_sum: f64,
    pub(crate) state: W,
}

/// The streaming form of the selection rule: [`select_windows_counted`]'s
/// evaluation day, window cap and reference-width rule applied one record at
/// a time, plus the order check a stream needs. It keeps counts and sums,
/// never read-outs, so memory is bounded by `devices × months`.
///
/// Records must arrive in per-device chronological order. A device whose
/// earlier month opens after a later one was folded is remembered in
/// [`out_of_order`](Self::out_of_order): its WCHD sums used the wrong
/// reference.
#[derive(Debug, Clone)]
pub(crate) struct WindowFold<W, D> {
    protocol: EvaluationProtocol,
    windows: BTreeMap<(u8, i32, u8), FoldWindow<W>>,
    devices: BTreeMap<u8, FoldDevice<D>>,
    records_seen: u64,
    records_folded: u64,
    skipped_width_mismatch: u64,
    out_of_order: Option<BoardId>,
    obs: Option<FoldInstruments>,
}

/// `<prefix>.records_{seen,folded,skipped}`. Every pushed record is exactly
/// one of folded or skipped, so `seen == folded + skipped` holds at every
/// instant — the pipeline's conservation invariant.
#[derive(Debug, Clone)]
struct FoldInstruments {
    seen: Counter,
    folded: Counter,
    skipped: Counter,
}

/// Counts a skipped record; returns what [`WindowFold::push`] returns for it.
fn skip<T>(obs: &Option<FoldInstruments>) -> Option<T> {
    if let Some(o) = obs {
        o.skipped.inc();
    }
    None
}

impl<W, D> WindowFold<W, D> {
    pub(crate) fn new(protocol: EvaluationProtocol) -> Self {
        Self {
            protocol,
            windows: BTreeMap::new(),
            devices: BTreeMap::new(),
            records_seen: 0,
            records_folded: 0,
            skipped_width_mismatch: 0,
            out_of_order: None,
            obs: None,
        }
    }

    /// Maintains the `<prefix>.records_{seen,folded,skipped}` counters.
    pub(crate) fn attach_instruments(&mut self, ins: &Instruments, prefix: &str) {
        let counter = |name: &str| ins.counter(&format!("{prefix}.records_{name}"));
        self.obs = Some(FoldInstruments {
            seen: counter("seen"),
            folded: counter("folded"),
            skipped: counter("skipped"),
        });
    }

    pub(crate) fn protocol(&self) -> EvaluationProtocol {
        self.protocol
    }

    pub(crate) fn records_seen(&self) -> u64 {
        self.records_seen
    }

    pub(crate) fn records_folded(&self) -> u64 {
        self.records_folded
    }

    pub(crate) fn skipped_width_mismatch(&self) -> u64 {
        self.skipped_width_mismatch
    }

    pub(crate) fn out_of_order(&self) -> Option<BoardId> {
        self.out_of_order
    }

    pub(crate) fn devices(&self) -> &BTreeMap<u8, FoldDevice<D>> {
        &self.devices
    }

    /// Windows keyed and sorted by `(device, year, month)`.
    pub(crate) fn windows(&self) -> &BTreeMap<(u8, i32, u8), FoldWindow<W>> {
        &self.windows
    }

    pub(crate) fn windows_mut(&mut self) -> impl Iterator<Item = &mut FoldWindow<W>> {
        self.windows.values_mut()
    }

    pub(crate) fn into_windows(self) -> BTreeMap<(u8, i32, u8), FoldWindow<W>> {
        self.windows
    }

    /// Folds one record. Returns the window it folded into, the window's
    /// device, the read's FHD against the device reference, and whether the
    /// read opened the window; `None` if the rule skipped the record.
    /// `new_device` builds the caller's state on a device's first eligible
    /// read, `new_window` on the first read of a window (given its month).
    #[inline]
    pub(crate) fn push(
        &mut self,
        record: &Record,
        new_device: impl FnOnce() -> D,
        new_window: impl FnOnce((i32, u8)) -> W,
    ) -> Option<(&mut FoldWindow<W>, &FoldDevice<D>, f64, bool)> {
        self.records_seen += 1;
        if let Some(o) = &self.obs {
            o.seen.inc();
        }
        let date = record.timestamp.datetime().date;
        // As in `select_windows_counted`: a zero-read protocol selects
        // nothing, and the evaluation day is clamped into short months.
        if self.protocol.reads_per_window == 0
            || date.day < effective_eval_day(&self.protocol, date.year, date.month)
        {
            return skip(&self.obs);
        }
        let ym = (date.year, date.month);
        let key = (record.device.0, ym.0, ym.1);
        let opened = !self.windows.contains_key(&key);
        if opened {
            match self.devices.get(&record.device.0) {
                None => {
                    let state = new_device();
                    self.devices.insert(
                        record.device.0,
                        FoldDevice {
                            reference_month: ym,
                            reference: record.data.clone(),
                            state,
                        },
                    );
                }
                // Reference-width rule: a read of another width than its
                // device's reference never opens a window.
                Some(device) if device.reference.len() != record.data.len() => {
                    self.skipped_width_mismatch += 1;
                    return skip(&self.obs);
                }
                Some(device) if ym < device.reference_month => {
                    self.out_of_order.get_or_insert(record.device);
                }
                Some(_) => {}
            }
            let state = new_window(ym);
            self.windows.insert(
                key,
                FoldWindow {
                    device: record.device,
                    year_month: ym,
                    reads: 0,
                    wchd_sum: 0.0,
                    state,
                },
            );
        }
        let device = &self.devices[&record.device.0];
        let window = self.windows.get_mut(&key).expect("window opened above");
        if window.reads >= self.protocol.reads_per_window {
            return skip(&self.obs);
        }
        if record.data.len() != device.reference.len() {
            self.skipped_width_mismatch += 1;
            return skip(&self.obs);
        }
        let fhd = record.data.fractional_hamming_distance(&device.reference);
        window.reads += 1;
        window.wchd_sum += fhd;
        self.records_folded += 1;
        if let Some(o) = &self.obs {
            o.folded.inc();
        }
        Some((window, device, fhd, opened))
    }

    /// Moves the windows and device state of `devices` into a new fold with
    /// no records counted, sharing this fold's instruments.
    pub(crate) fn split_off(&mut self, devices: &[BoardId]) -> Self {
        let owned = |device: u8| devices.iter().any(|d| d.0 == device);
        Self {
            protocol: self.protocol,
            windows: self.windows.extract_if(.., |k, _| owned(k.0)).collect(),
            devices: self.devices.extract_if(.., |k, _| owned(*k)).collect(),
            records_seen: 0,
            records_folded: 0,
            skipped_width_mismatch: 0,
            out_of_order: None,
            obs: self.obs.clone(),
        }
    }

    /// Merges a device-disjoint shard; the merged maps stay key-sorted.
    ///
    /// # Panics
    ///
    /// Panics if the shards saw overlapping devices (a harness bug, not a
    /// data condition).
    pub(crate) fn merge(&mut self, other: Self) {
        for device in other.devices.keys() {
            assert!(
                !self.devices.contains_key(device),
                "shards must be device-disjoint, both saw device {device}"
            );
        }
        self.devices.extend(other.devices);
        self.windows.extend(other.windows);
        self.records_seen += other.records_seen;
        self.records_folded += other.records_folded;
        self.skipped_width_mismatch += other.skipped_width_mismatch;
        self.out_of_order = self.out_of_order.or(other.out_of_order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puftestbed::{CalendarDate, Record};

    fn record_at(device: u8, seq: u64, date: CalendarDate, offset_s: f64, byte: u8) -> Record {
        Record::new(
            BoardId(device),
            seq,
            Timestamp::from_date(date).offset_by(offset_s),
            BitVec::from_bytes(&[byte]),
        )
    }

    #[test]
    fn takes_first_n_after_midnight() {
        let protocol = EvaluationProtocol {
            reads_per_window: 2,
            eval_day: 8,
        };
        let date = CalendarDate::new(2017, 2, 8);
        let records = vec![
            record_at(0, 0, date, 0.0, 0x01),
            record_at(0, 1, date, 5.4, 0x02),
            record_at(0, 2, date, 10.8, 0x04), // beyond the window
        ];
        let windows = select_windows(&records, &protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].reads(), 2);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x01]));
        assert_eq!(windows[0].readouts.rows(), 2);
    }

    #[test]
    fn records_before_the_eval_day_are_ignored() {
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 7), 0.0, 0xFF),
            record_at(0, 1, CalendarDate::new(2017, 2, 8), 0.0, 0x0F),
        ];
        let windows = select_windows(&records, &protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x0F]));
    }

    #[test]
    fn records_later_in_the_month_still_belong_to_it() {
        // The rule is "after midnight on the 8th" — the 20th qualifies.
        let protocol = EvaluationProtocol::default();
        let records = vec![record_at(0, 0, CalendarDate::new(2017, 2, 20), 0.0, 0xAA)];
        let windows = select_windows(&records, &protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].year_month, (2017, 2));
    }

    #[test]
    fn devices_and_months_are_kept_separate() {
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 8), 0.0, 1),
            record_at(1, 0, CalendarDate::new(2017, 2, 8), 2.7, 2),
            record_at(0, 448_000, CalendarDate::new(2017, 3, 8), 0.0, 3),
        ];
        let windows = select_windows(&records, &protocol);
        let keys: Vec<(u8, (i32, u8))> =
            windows.iter().map(|w| (w.device.0, w.year_month)).collect();
        assert_eq!(keys, vec![(0, (2017, 2)), (0, (2017, 3)), (1, (2017, 2))]);
    }

    #[test]
    fn empty_stream_yields_no_windows() {
        assert!(select_windows(&[], &EvaluationProtocol::default()).is_empty());
    }

    #[test]
    fn exact_midnight_of_the_eval_day_is_inclusive() {
        // The boundary itself belongs to the window ("after midnight on the
        // 8th" includes 00:00:00 of the 8th); one second before it does not.
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 7), 86_399.0, 0xF0),
            record_at(0, 1, CalendarDate::new(2017, 2, 8), 0.0, 0x0F),
        ];
        let windows = select_windows(&records, &protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].reads(), 1);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x0F]));
    }

    #[test]
    fn eval_day_beyond_the_month_clamps_to_its_last_day() {
        // Day 30 does not exist in February 2017 — the window must clamp to
        // the 28th rather than never opening (or panicking in window_open).
        let protocol = EvaluationProtocol {
            reads_per_window: 10,
            eval_day: 30,
        };
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 27), 0.0, 0x01),
            record_at(0, 1, CalendarDate::new(2017, 2, 28), 0.0, 0x02),
            record_at(0, 2, CalendarDate::new(2017, 3, 30), 0.0, 0x03),
        ];
        let windows = select_windows(&records, &protocol);
        let months: Vec<(i32, u8)> = windows.iter().map(|w| w.year_month).collect();
        assert_eq!(months, vec![(2017, 2), (2017, 3)]);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x02]));
        assert_eq!(
            window_open(&protocol, 2017, 2),
            Timestamp::from_date(CalendarDate::new(2017, 2, 28))
        );
        assert_eq!(
            window_open(&protocol, 2016, 2),
            Timestamp::from_date(CalendarDate::new(2016, 2, 29))
        );
    }

    #[test]
    fn zero_reads_per_window_selects_nothing() {
        let protocol = EvaluationProtocol {
            reads_per_window: 0,
            eval_day: 8,
        };
        let records = vec![record_at(0, 0, CalendarDate::new(2017, 2, 8), 0.0, 0x01)];
        assert!(select_windows(&records, &protocol).is_empty());
    }

    #[test]
    fn months_with_no_eligible_records_leave_a_gap_not_a_window() {
        // A device dark through an entire month (e.g. a brownout) simply has
        // no window for it — the month key is absent, never an empty window.
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 8), 0.0, 1),
            // All of March falls before the eval day: ineligible.
            record_at(0, 1, CalendarDate::new(2017, 3, 7), 0.0, 2),
            record_at(0, 2, CalendarDate::new(2017, 4, 8), 0.0, 3),
        ];
        let windows = select_windows(&records, &protocol);
        let months: Vec<(i32, u8)> = windows.iter().map(|w| w.year_month).collect();
        assert_eq!(months, vec![(2017, 2), (2017, 4)]);
        assert!(windows.iter().all(|w| w.reads() == 1));
    }

    #[test]
    fn truncated_records_are_skipped_and_counted_not_fatal() {
        let protocol = EvaluationProtocol::default();
        let date = CalendarDate::new(2017, 2, 8);
        let records = vec![
            record_at(0, 0, date, 0.0, 0x01),
            // A truncated read-out: 4 bits instead of 8. Must not panic.
            Record::new(
                BoardId(0),
                1,
                Timestamp::from_date(date).offset_by(5.4),
                BitVec::zeros(4),
            ),
            record_at(0, 2, date, 10.8, 0x03),
        ];
        let selection = select_windows_counted(&records, &protocol);
        assert_eq!(selection.skipped_width_mismatch, 1);
        assert_eq!(selection.windows.len(), 1);
        assert_eq!(selection.windows[0].reads(), 2);
        assert_eq!(selection.windows[0].readouts.rows(), 2);
    }
}
