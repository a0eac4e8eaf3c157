//! The full assessment pipeline: campaign records → Fig. 6 development
//! series → Table I.
//!
//! The per-window statistics it folds (WCHD, FHW, per-cell one-counts) are
//! computed word-parallel by `pufbits` — popcount Hamming kernels and the
//! block-transpose counter — and stay bit-exact against the per-bit scalar
//! oracles, so the committed golden outputs pin this path too.

use crate::entropy::{noise_entropy, puf_entropy, stable_cell_ratio};
use crate::metrics::{fractional_hw, within_class_hd, InitialQuality};
use crate::monthly::{select_windows, EvaluationProtocol};
use crate::table1::Table1;
use pufbits::{BitMatrix, BitVec, OnesCounter};
use pufstats::Summary;
use puftestbed::{BoardId, Record};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error from [`Assessment::from_records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssessError {
    /// The dataset holds no records.
    Empty,
    /// Records exist but none fall inside an evaluation window.
    NoWindows,
    /// A device has no window in the first month (no reference available).
    MissingReference {
        /// The device without a month-zero window.
        device: BoardId,
    },
    /// Fewer than two devices — uniqueness metrics undefined.
    TooFewDevices {
        /// Devices present.
        devices: usize,
    },
    /// A streaming assessment saw a device's records out of chronological
    /// order (a month opened after a later month had already been
    /// accumulated), so its running reference was wrong.
    OutOfOrder {
        /// The device whose stream was out of order.
        device: BoardId,
    },
    /// Devices read different widths, so no cross-device metric (BCHD,
    /// PUF entropy) is defined.
    MixedWidths {
        /// The first device, in window order, whose reads differ in width
        /// from the first window's.
        device: BoardId,
        /// That device's read width in bits.
        bits: usize,
        /// The first window's read width in bits.
        expected_bits: usize,
    },
}

impl fmt::Display for AssessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssessError::Empty => write!(f, "dataset holds no records"),
            AssessError::NoWindows => {
                write!(f, "no records fall inside an evaluation window")
            }
            AssessError::MissingReference { device } => {
                write!(f, "device {device} has no month-zero window")
            }
            AssessError::TooFewDevices { devices } => {
                write!(f, "uniqueness metrics need ≥2 devices, got {devices}")
            }
            AssessError::OutOfOrder { device } => {
                write!(
                    f,
                    "records of device {device} arrived out of chronological order"
                )
            }
            AssessError::MixedWidths {
                device,
                bits,
                expected_bits,
            } => write!(
                f,
                "device {device} reads {bits} bits where the first device reads \
                 {expected_bits}; cross-device metrics need one read width"
            ),
        }
    }
}

impl Error for AssessError {}

/// One device's metrics for one month (a point on each per-device line of
/// the paper's Fig. 6a–c).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMonth {
    /// The device.
    pub device: BoardId,
    /// Calendar month `(year, month)`.
    pub year_month: (i32, u8),
    /// Zero-based month index since the campaign start.
    pub month_index: u32,
    /// Measurements captured in the window (at most
    /// `protocol.reads_per_window`; fewer marks an underfilled window).
    pub reads: u32,
    /// Average FHD of the window's read-outs vs the device's month-zero
    /// reference (Fig. 6a).
    pub wchd: f64,
    /// Average fractional Hamming weight over the window (Fig. 6b).
    pub fhw: f64,
    /// Noise min-entropy over the window (Fig. 6c).
    pub noise_entropy: f64,
    /// Stable-cell ratio over the window.
    pub stable_ratio: f64,
}

/// Cross-device aggregates for one month (the paper's Fig. 6d and Table I
/// columns).
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlyAggregate {
    /// Zero-based month index.
    pub month_index: u32,
    /// Calendar month.
    pub year_month: (i32, u8),
    /// WCHD across devices.
    pub wchd: Summary,
    /// FHW across devices.
    pub fhw: Summary,
    /// Noise entropy across devices.
    pub noise_entropy: Summary,
    /// Stable-cell ratio across devices.
    pub stable_ratio: Summary,
    /// BCHD across device pairs (first read-out of each device's window).
    pub bchd: Summary,
    /// PUF min-entropy across devices (Fig. 6d).
    pub puf_entropy: f64,
}

/// Data coverage of one assessed month: which devices reported, how much
/// data they contributed, and which expected devices are missing or
/// underfilled. A faulted campaign (brownouts, exhausted retries) leaves
/// holes that used to be averaged over silently; coverage makes every hole
/// visible so sparse months can be flagged instead of trusted blindly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonthCoverage {
    /// Zero-based month index.
    pub month_index: u32,
    /// Calendar month `(year, month)`.
    pub year_month: (i32, u8),
    /// Devices with a window this month.
    pub devices_present: usize,
    /// Total measurements folded into this month across devices.
    pub reads: u64,
    /// Devices seen elsewhere in the campaign but absent this month
    /// (e.g. browned out through the whole evaluation window).
    pub missing_devices: Vec<BoardId>,
    /// Devices present but with fewer than `reads_per_window` measurements
    /// (e.g. transport retries exhausted mid-window).
    pub underfilled_devices: Vec<BoardId>,
}

impl MonthCoverage {
    /// `true` if this month's aggregates rest on degraded data: a device is
    /// missing or underfilled, or fewer than two devices reported (making
    /// the uniqueness columns undefined placeholders).
    pub fn is_sparse(&self) -> bool {
        !self.missing_devices.is_empty()
            || !self.underfilled_devices.is_empty()
            || self.devices_present < 2
    }
}

/// Per-month coverage accounting for a whole assessment.
///
/// # Examples
///
/// ```
/// use pufassess::{EvaluationProtocol, WindowAccumulator};
/// use puftestbed::{Campaign, CampaignConfig};
///
/// let config = CampaignConfig {
///     boards: 3, sram_bits: 128, read_bits: 128, months: 1, reads_per_window: 8,
///     ..CampaignConfig::default()
/// };
/// let protocol = EvaluationProtocol { reads_per_window: 8, ..EvaluationProtocol::default() };
/// let mut accumulator = WindowAccumulator::new(protocol);
/// Campaign::new(config, 2).run(&mut accumulator).unwrap();
/// let a = accumulator.finish().unwrap();
/// assert!(a.coverage().is_complete());
/// assert!(a.coverage().sparse_months().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    expected_devices: usize,
    expected_reads: u32,
    months: Vec<MonthCoverage>,
}

impl CoverageReport {
    fn compute(protocol: &EvaluationProtocol, device_months: &[DeviceMonth]) -> Self {
        let mut devices: Vec<BoardId> = device_months.iter().map(|d| d.device).collect();
        devices.sort_unstable();
        devices.dedup();
        let mut keys: Vec<(u32, (i32, u8))> = device_months
            .iter()
            .map(|d| (d.month_index, d.year_month))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let months = keys
            .into_iter()
            .map(|(month_index, year_month)| {
                let of_month: Vec<&DeviceMonth> = device_months
                    .iter()
                    .filter(|d| d.month_index == month_index)
                    .collect();
                let missing_devices = devices
                    .iter()
                    .copied()
                    .filter(|id| of_month.iter().all(|d| d.device != *id))
                    .collect();
                let underfilled_devices = of_month
                    .iter()
                    .filter(|d| d.reads < protocol.reads_per_window)
                    .map(|d| d.device)
                    .collect();
                MonthCoverage {
                    month_index,
                    year_month,
                    devices_present: of_month.len(),
                    reads: of_month.iter().map(|d| u64::from(d.reads)).sum(),
                    missing_devices,
                    underfilled_devices,
                }
            })
            .collect();
        Self {
            expected_devices: devices.len(),
            expected_reads: protocol.reads_per_window,
            months,
        }
    }

    /// Devices expected per month (the union of devices seen anywhere).
    pub fn expected_devices(&self) -> usize {
        self.expected_devices
    }

    /// Full measurements expected per device-month.
    pub fn expected_reads(&self) -> u32 {
        self.expected_reads
    }

    /// Per-month coverage, in month order.
    pub fn months(&self) -> &[MonthCoverage] {
        &self.months
    }

    /// The months whose aggregates rest on degraded data.
    pub fn sparse_months(&self) -> Vec<&MonthCoverage> {
        self.months.iter().filter(|m| m.is_sparse()).collect()
    }

    /// `true` if every month has every device with a full window.
    pub fn is_complete(&self) -> bool {
        self.months.iter().all(|m| !m.is_sparse())
    }
}

/// Cross-device uniqueness of one month's first read-outs: the BCHD summary
/// and the PUF min-entropy. A month where fewer than two devices reported
/// has no device pairs, so its uniqueness is returned as the defined
/// placeholder `(Summary::empty(), 0.0)` — flagged via
/// [`MonthCoverage::is_sparse`] — instead of panicking or emitting NaN.
pub(crate) fn month_uniqueness(firsts: &BitMatrix) -> (Summary, f64) {
    if firsts.rows() < 2 {
        return (Summary::empty(), 0.0);
    }
    (
        Summary::of(crate::metrics::between_class_hds(firsts)),
        puf_entropy(firsts),
    )
}

/// One window's statistics as an assessment path hands them to
/// [`assemble`]. Each path derives the WCHD and FHW means its own way.
#[derive(Debug, Clone)]
pub(crate) struct WindowStats {
    pub(crate) device: BoardId,
    pub(crate) year_month: (i32, u8),
    pub(crate) reads: u32,
    /// Mean FHD of the window's reads against the first read of the
    /// device's first window.
    pub(crate) wchd: f64,
    /// Mean fractional Hamming weight of the window's reads.
    pub(crate) fhw: f64,
    pub(crate) counter: OnesCounter,
    pub(crate) first_read: BitVec,
}

/// Builds an [`Assessment`] from per-window statistics sorted by
/// `(device, year, month)`. Both assessment paths finish here, so their
/// checks and every derived value cannot diverge. `initial_quality` builds
/// the Fig. 5 bundle of the given first month once the checks have passed.
///
/// # Errors
///
/// [`AssessError::NoWindows`] for no windows, then
/// [`AssessError::TooFewDevices`], [`AssessError::MissingReference`] (a
/// device with no window in the first month) and
/// [`AssessError::MixedWidths`], in that order.
pub(crate) fn assemble(
    protocol: EvaluationProtocol,
    windows: &[WindowStats],
    initial_quality: impl FnOnce((i32, u8)) -> InitialQuality,
) -> Result<Assessment, AssessError> {
    let mut months: Vec<(i32, u8)> = windows.iter().map(|w| w.year_month).collect();
    months.sort_unstable();
    months.dedup();
    let Some(&first_month) = months.first() else {
        return Err(AssessError::NoWindows);
    };
    let month_index: BTreeMap<(i32, u8), u32> = months
        .iter()
        .enumerate()
        .map(|(i, &ym)| (ym, u32::try_from(i).expect("month count fits u32")))
        .collect();

    let mut devices: Vec<BoardId> = windows.iter().map(|w| w.device).collect();
    devices.dedup();
    if devices.len() < 2 {
        return Err(AssessError::TooFewDevices {
            devices: devices.len(),
        });
    }
    let has_reference = |d: &BoardId| {
        windows
            .iter()
            .any(|w| w.device == *d && w.year_month == first_month)
    };
    if let Some(&device) = devices.iter().find(|d| !has_reference(d)) {
        return Err(AssessError::MissingReference { device });
    }
    // Cross-device metrics compare reads bit by bit; a device's own windows
    // share its reference width.
    let expected_bits = windows[0].first_read.len();
    if let Some(w) = windows.iter().find(|w| w.first_read.len() != expected_bits) {
        return Err(AssessError::MixedWidths {
            device: w.device,
            bits: w.first_read.len(),
            expected_bits,
        });
    }

    let device_months: Vec<DeviceMonth> = windows
        .iter()
        .map(|w| DeviceMonth {
            device: w.device,
            year_month: w.year_month,
            month_index: month_index[&w.year_month],
            reads: w.reads,
            wchd: w.wchd,
            fhw: w.fhw,
            noise_entropy: noise_entropy(&w.counter),
            stable_ratio: stable_cell_ratio(&w.counter),
        })
        .collect();
    let aggregates = months
        .iter()
        .map(|&ym| {
            let of_month: Vec<&DeviceMonth> = device_months
                .iter()
                .filter(|d| d.year_month == ym)
                .collect();
            let firsts: BitMatrix = windows
                .iter()
                .filter(|w| w.year_month == ym)
                .map(|w| w.first_read.clone())
                .collect();
            let (bchd, month_puf_entropy) = month_uniqueness(&firsts);
            MonthlyAggregate {
                month_index: month_index[&ym],
                year_month: ym,
                wchd: Summary::of(of_month.iter().map(|d| d.wchd)),
                fhw: Summary::of(of_month.iter().map(|d| d.fhw)),
                noise_entropy: Summary::of(of_month.iter().map(|d| d.noise_entropy)),
                stable_ratio: Summary::of(of_month.iter().map(|d| d.stable_ratio)),
                bchd,
                puf_entropy: month_puf_entropy,
            }
        })
        .collect();
    let coverage = CoverageReport::compute(&protocol, &device_months);
    Ok(Assessment {
        protocol,
        device_months,
        aggregates,
        initial_quality: initial_quality(first_month),
        coverage,
    })
}

/// The complete long-term assessment of one campaign.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    protocol: EvaluationProtocol,
    device_months: Vec<DeviceMonth>,
    aggregates: Vec<MonthlyAggregate>,
    initial_quality: InitialQuality,
    coverage: CoverageReport,
}

impl Assessment {
    /// Runs the paper's evaluation protocol over a campaign's records (e.g.
    /// collected by [`Campaign::run_in_memory`](puftestbed::Campaign::run_in_memory)
    /// or read back from a JSON-lines store).
    ///
    /// # Errors
    ///
    /// Returns [`AssessError`] if there are no records, fewer than two
    /// devices, a device lacks a month-zero reference window, or devices
    /// read different widths.
    pub fn from_records(
        records: &[Record],
        protocol: &EvaluationProtocol,
    ) -> Result<Self, AssessError> {
        if records.is_empty() {
            return Err(AssessError::Empty);
        }
        let windows = select_windows(records, protocol);
        let stats: Vec<WindowStats> = windows
            .iter()
            .map(|w| {
                // Windows are sorted by device, then month: the first one
                // found is the device's first window, whose first read is
                // the device's reference.
                let first = windows.iter().find(|f| f.device == w.device);
                let reference = &first.expect("a window of its own device").first_read;
                WindowStats {
                    device: w.device,
                    year_month: w.year_month,
                    reads: w.reads(),
                    wchd: within_class_hd(&w.readouts, reference),
                    fhw: fractional_hw(&w.readouts),
                    counter: w.counter.clone(),
                    first_read: w.first_read.clone(),
                }
            })
            .collect();
        assemble(*protocol, &stats, |first_month| {
            let first_windows: Vec<BitMatrix> = windows
                .iter()
                .filter(|w| w.year_month == first_month)
                .map(|w| w.readouts.clone())
                .collect();
            InitialQuality::evaluate(&first_windows)
        })
    }

    /// Runs the evaluation protocol over a record *stream* in bounded
    /// memory: records are folded one at a time into per-(device, month)
    /// accumulators, so peak memory scales with `devices × months`, not
    /// with the record count. Produces results identical to
    /// [`from_records`](Self::from_records) on the same sequence.
    ///
    /// Records must arrive in per-device chronological order (campaign
    /// order), as for [`select_windows`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`from_records`](Self::from_records), plus
    /// [`AssessError::OutOfOrder`] if a device's stream violates
    /// chronological order across months.
    pub fn from_record_stream<'a, I: IntoIterator<Item = &'a Record>>(
        records: I,
        protocol: &EvaluationProtocol,
    ) -> Result<Self, AssessError> {
        let mut accumulator = crate::streaming::WindowAccumulator::new(*protocol);
        for record in records {
            accumulator.push(record);
        }
        accumulator.finish()
    }

    /// The protocol used.
    pub fn protocol(&self) -> EvaluationProtocol {
        self.protocol
    }

    /// Number of evaluated months (including month zero).
    pub fn months(&self) -> usize {
        self.aggregates.len()
    }

    /// Devices present.
    pub fn devices(&self) -> Vec<BoardId> {
        let mut ids: Vec<BoardId> = self.device_months.iter().map(|d| d.device).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Per-device monthly metrics (the lines of Fig. 6a–c).
    pub fn device_months(&self) -> &[DeviceMonth] {
        &self.device_months
    }

    /// One device's series, in month order.
    pub fn device_series(&self, device: BoardId) -> Vec<&DeviceMonth> {
        let mut v: Vec<&DeviceMonth> = self
            .device_months
            .iter()
            .filter(|d| d.device == device)
            .collect();
        v.sort_by_key(|d| d.month_index);
        v
    }

    /// Cross-device aggregates, in month order (Fig. 6 aggregate view).
    pub fn aggregates(&self) -> &[MonthlyAggregate] {
        &self.aggregates
    }

    /// The Fig. 5 start-of-test quality bundle.
    pub fn initial_quality(&self) -> &InitialQuality {
        &self.initial_quality
    }

    /// Per-(device, month) coverage accounting: missing and underfilled
    /// device-months, so sparse data is flagged instead of silently
    /// averaged.
    pub fn coverage(&self) -> &CoverageReport {
        &self.coverage
    }

    /// Condenses the assessment into the paper's Table I.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two months were evaluated (no aging interval).
    pub fn table1(&self) -> Table1 {
        Table1::from_assessment(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puftestbed::{Campaign, CampaignConfig};

    fn small_campaign(months: u32, boards: usize, seed: u64) -> Vec<Record> {
        let config = CampaignConfig {
            boards,
            sram_bits: 2048,
            read_bits: 2048,
            months,
            reads_per_window: 40,
            ..CampaignConfig::default()
        };
        Campaign::new(config, seed).run_in_memory()
    }

    fn protocol() -> EvaluationProtocol {
        EvaluationProtocol {
            reads_per_window: 40,
            ..EvaluationProtocol::default()
        }
    }

    #[test]
    fn assessment_covers_every_device_and_month() {
        let records = small_campaign(3, 5, 50);
        let a = Assessment::from_records(&records, &protocol()).unwrap();
        assert_eq!(a.months(), 4);
        assert_eq!(a.devices().len(), 5);
        assert_eq!(a.device_months().len(), 20);
        for device in a.devices() {
            assert_eq!(a.device_series(device).len(), 4);
        }
    }

    #[test]
    fn month_zero_wchd_matches_fresh_quality() {
        let records = small_campaign(1, 4, 51);
        let a = Assessment::from_records(&records, &protocol()).unwrap();
        let m0 = &a.aggregates()[0];
        // Paper start: ~2.5 % WCHD, 40–50 % BCHD, 60–70 % FHW.
        assert!(
            (0.01..=0.04).contains(&m0.wchd.mean),
            "wchd {}",
            m0.wchd.mean
        );
        assert!(
            (0.40..=0.52).contains(&m0.bchd.mean),
            "bchd {}",
            m0.bchd.mean
        );
        assert!((0.57..=0.68).contains(&m0.fhw.mean), "fhw {}", m0.fhw.mean);
        assert!(m0.puf_entropy > 0.4, "puf entropy {}", m0.puf_entropy);
    }

    #[test]
    fn aging_trends_appear_in_the_aggregates() {
        let records = small_campaign(24, 4, 52);
        let a = Assessment::from_records(&records, &protocol()).unwrap();
        let first = &a.aggregates()[0];
        let last = &a.aggregates()[a.months() - 1];
        assert!(last.wchd.mean > first.wchd.mean, "wchd rises");
        assert!(
            last.noise_entropy.mean > first.noise_entropy.mean,
            "noise entropy rises"
        );
        assert!(
            last.stable_ratio.mean < first.stable_ratio.mean,
            "stable cells fall"
        );
        // Uniqueness flat.
        assert!((last.fhw.mean - first.fhw.mean).abs() < 0.01);
        assert!((last.puf_entropy - first.puf_entropy).abs() < 0.05);
    }

    #[test]
    fn complete_campaign_has_complete_coverage() {
        let records = small_campaign(2, 3, 55);
        let a = Assessment::from_records(&records, &protocol()).unwrap();
        let cov = a.coverage();
        assert!(cov.is_complete());
        assert!(cov.sparse_months().is_empty());
        assert_eq!(cov.expected_devices(), 3);
        assert_eq!(cov.expected_reads(), 40);
        assert_eq!(cov.months().len(), 3);
        for m in cov.months() {
            assert_eq!(m.devices_present, 3);
            assert_eq!(m.reads, 3 * 40);
            assert!(m.missing_devices.is_empty());
            assert!(m.underfilled_devices.is_empty());
            assert!(!m.is_sparse());
        }
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let err = Assessment::from_records(&[], &protocol()).unwrap_err();
        assert_eq!(err, AssessError::Empty);
        assert!(err.to_string().contains("no records"));
    }

    #[test]
    fn single_device_is_rejected() {
        let records = small_campaign(1, 1, 53);
        let err = Assessment::from_records(&records, &protocol()).unwrap_err();
        assert!(matches!(err, AssessError::TooFewDevices { devices: 1 }));
    }

    #[test]
    fn device_missing_its_reference_window_is_reported() {
        use pufbits::BitVec;
        use puftestbed::{CalendarDate, Record, Timestamp};
        // Device 0 present in both months; device 1 only appears in month 2
        // and therefore has no month-zero reference.
        let at = |y: i32, m: u8| Timestamp::from_date(CalendarDate::new(y, m, 8));
        let records = vec![
            Record::new(BoardId(0), 0, at(2017, 2), BitVec::from_bytes(&[1])),
            Record::new(BoardId(0), 500_000, at(2017, 3), BitVec::from_bytes(&[1])),
            Record::new(BoardId(1), 500_000, at(2017, 3), BitVec::from_bytes(&[2])),
        ];
        let err = Assessment::from_records(
            &records,
            &EvaluationProtocol {
                reads_per_window: 1,
                ..EvaluationProtocol::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, AssessError::MissingReference { device: BoardId(1) });
        assert!(err.to_string().contains("month-zero"));
    }

    #[test]
    fn round_trip_through_json_store_preserves_assessment() {
        use puftestbed::store::{read_json_lines, RecordFormat, RecordSink, RecordWriter};
        let dataset = small_campaign(2, 3, 54);
        let direct = Assessment::from_records(&dataset, &protocol()).unwrap();

        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
        for r in &dataset {
            sink.record(r).unwrap();
        }
        let bytes = sink.into_inner().unwrap();
        let records: Vec<_> = read_json_lines(bytes.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        let replayed = Assessment::from_records(&records, &protocol()).unwrap();
        assert_eq!(direct, replayed);
    }
}
