//! Month-by-month key-reliability workload: does the application survive?
//!
//! The paper's headline numbers (WCHD growing 0.74 %/month under nominal
//! aging) matter because WCHD growth is what eventually makes an enrolled
//! PUF key fail to reconstruct. This module closes that loop: every device
//! is **enrolled** once from its first eligible read (debias → ECC helper
//! data → extractor, via [`pufkeygen`]), and every later device-month of the
//! campaign is **replayed** through key reconstruction, producing a
//! per-month key-failure-rate table per configured ECC profile — observed
//! failures next to the analytic bound derived from that month's worst-case
//! WCHD.
//!
//! Reconstruction replays lean on the same word-parallel `pufbits` kernels
//! as the assessment fold (popcount Hamming distance for the WCHD-derived
//! bounds, kernelized debias/XOR paths inside [`pufkeygen`]), so the
//! observed-vs-bound table is bit-identical to a per-bit implementation.
//!
//! [`KeyLifeAccumulator`] is the streaming, bounded-memory path, folding
//! records one at a time exactly like
//! [`WindowAccumulator`](crate::streaming::WindowAccumulator): the same
//! evaluation-day and window-cap rules, the same width-mismatch
//! skip-and-count policy, and the same out-of-order detection. The width
//! rule also holds against the device's enrollment reference: every read is
//! compared with it, so a read of another width is skipped and counted, not
//! folded. Peak memory is `devices × (months + profiles × helper data)` and
//! independent of the record count. [`KeyLife::from_records`] is the
//! in-memory reference path; the two are locked byte-identical by
//! `crates/core/tests/keylife_equivalence.rs`.
//!
//! **Erasure policy for gaps.** Fault-induced gaps
//! ([`GapRecord`](puftestbed::GapRecord)s) never enter the record file, so
//! the workload infers them: an enrolled device is expected to contribute
//! `reads_per_window` reconstruction attempts in every month after its
//! enrollment month. Missing attempts — an underfilled window, or a device
//! absent from a month entirely — count as **erasures**: reads on which the
//! key was unavailable. The reported rate is
//! `(failures + erasures) / (attempts + erasures)`, so a browned-out month
//! honestly reads as "the key could not be reconstructed" rather than
//! silently shrinking the denominator. Months with no expected attempts
//! render as `-` instead of a rate — the <2-survivor degradation mirror of
//! [`month_uniqueness`](crate::assessment)'s placeholder.

use crate::monthly::{effective_eval_day, EvaluationProtocol};
use pufbits::{splitmix64, BitVec, PufRng};
use pufkeygen::analysis::spec_failure_bound;
use pufkeygen::{CodeSpec, Enrollment, KeyGenerator};
use pufobs::{Counter, Instruments};
use puftestbed::store::RecordSink;
use puftestbed::{BoardId, Record};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io;

/// One ECC profile under evaluation: a named [`CodeSpec`] plus the secret
/// length it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyProfile {
    /// Display name (the spec's textual form, e.g. `golay-r5`).
    pub name: String,
    /// Secret bits the derived key is built from.
    pub secret_bits: usize,
    /// The error-correcting code.
    pub spec: CodeSpec,
}

impl KeyProfile {
    /// Builds a profile from a spec token (`golay-r<R>` / `polar-<N>-<K>`)
    /// and a secret length, validating that the pair can build a generator.
    ///
    /// # Errors
    ///
    /// Returns [`KeyLifeError::InvalidProfile`] for unparsable tokens or
    /// parameters that cannot build a code.
    pub fn parse(token: &str, secret_bits: usize) -> Result<Self, KeyLifeError> {
        let invalid = || KeyLifeError::InvalidProfile {
            profile: token.to_string(),
        };
        let spec: CodeSpec = token.parse().map_err(|_| invalid())?;
        KeyGenerator::from_spec(secret_bits, spec).map_err(|_| invalid())?;
        Ok(Self {
            name: token.to_string(),
            secret_bits,
            spec,
        })
    }

    fn generator(&self) -> KeyGenerator {
        KeyGenerator::from_spec(self.secret_bits, self.spec).expect("profile validated")
    }
}

/// Configuration of the key-lifetime workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLifeConfig {
    /// Window selection rule (shared with the assessment pipeline).
    pub protocol: EvaluationProtocol,
    /// ECC profiles evaluated side by side.
    pub profiles: Vec<KeyProfile>,
    /// Seed for the per-(device, profile) enrollment key material. The
    /// derived keys are a pure function of `(enroll_seed, device, profile
    /// index)`, which is what makes sharded runs and resumed runs
    /// byte-identical.
    pub enroll_seed: u64,
}

/// Error from the key-lifetime workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyLifeError {
    /// No records were pushed.
    Empty,
    /// Records were pushed but none fell on an evaluation day.
    NoWindows,
    /// No ECC profiles were configured.
    NoProfiles,
    /// A device's records crossed months out of order, so its enrollment
    /// reference (and every replay against it) would be wrong.
    OutOfOrder {
        /// The offending device.
        device: BoardId,
    },
    /// A profile token or its parameters were invalid.
    InvalidProfile {
        /// The rejected token.
        profile: String,
    },
}

impl fmt::Display for KeyLifeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyLifeError::Empty => write!(f, "no records to evaluate"),
            KeyLifeError::NoWindows => write!(f, "no records fell on an evaluation day"),
            KeyLifeError::NoProfiles => write!(f, "no ECC profiles configured"),
            KeyLifeError::OutOfOrder { device } => write!(
                f,
                "records of device {} crossed months out of order",
                device.0
            ),
            KeyLifeError::InvalidProfile { profile } => {
                write!(f, "invalid key profile '{profile}'")
            }
        }
    }
}

impl Error for KeyLifeError {}

/// A device's enrollment state: the reference read and one enrollment per
/// profile (`None` where the response could not cover the profile's
/// codeword — that profile simply skips the device).
#[derive(Debug, Clone, PartialEq)]
struct DeviceLife {
    enroll_month: (i32, u8),
    reference: BitVec,
    enrollments: Vec<Option<Enrollment>>,
}

/// Running state of one (device, month) window: counts only, no read-outs.
#[derive(Debug, Clone, PartialEq)]
struct MonthState {
    device: BoardId,
    year_month: (i32, u8),
    width: usize,
    /// Records folded into the window (cap accounting, all months).
    reads: u32,
    /// Running sum of per-read FHD vs the enrollment reference, arrival
    /// order (bit-identical between the streaming and in-memory paths).
    wchd_sum: f64,
    /// Reconstruction failures per profile (post-enrollment months only).
    failures: Vec<u64>,
}

/// Pre-registered handles for the workload's `keylife.*` instruments.
/// Every pushed record is exactly one of folded / skipped, so
/// `keylife.records_seen == keylife.records_folded + keylife.records_skipped`
/// holds at every instant.
#[derive(Debug, Clone)]
struct KeyLifeInstruments {
    /// `keylife.records_seen` — records pushed (eligible or not).
    seen: Counter,
    /// `keylife.records_folded` — records folded into a window.
    folded: Counter,
    /// `keylife.records_skipped` — records not folded.
    skipped: Counter,
    /// `keylife.reconstructions` — reconstruction attempts (records ×
    /// enrolled profiles, post-enrollment months).
    reconstructions: Counter,
    /// `keylife.reconstruct_failures` — attempts that failed (typed error
    /// or wrong key).
    reconstruct_failures: Counter,
    /// `keylife.devices_enrolled` — successful (device, profile)
    /// enrollments.
    devices_enrolled: Counter,
    /// `keylife.enroll_failures` — (device, profile) pairs whose response
    /// could not cover the profile's codeword.
    enroll_failures: Counter,
}

impl KeyLifeInstruments {
    fn new(ins: &Instruments) -> Self {
        Self {
            seen: ins.counter("keylife.records_seen"),
            folded: ins.counter("keylife.records_folded"),
            skipped: ins.counter("keylife.records_skipped"),
            reconstructions: ins.counter("keylife.reconstructions"),
            reconstruct_failures: ins.counter("keylife.reconstruct_failures"),
            devices_enrolled: ins.counter("keylife.devices_enrolled"),
            enroll_failures: ins.counter("keylife.enroll_failures"),
        }
    }
}

/// Streaming, bounded-memory key-lifetime evaluation. See the
/// [module docs](self) for the protocol and the erasure policy.
///
/// Records must arrive in per-device chronological order (campaign order),
/// the same precondition as
/// [`WindowAccumulator`](crate::streaming::WindowAccumulator); cross-month
/// violations are detected and reported by [`finish`](Self::finish) as
/// [`KeyLifeError::OutOfOrder`].
#[derive(Debug, Clone)]
pub struct KeyLifeAccumulator {
    config: KeyLifeConfig,
    generators: Vec<KeyGenerator>,
    devices: BTreeMap<u8, DeviceLife>,
    windows: BTreeMap<(u8, i32, u8), MonthState>,
    records_seen: u64,
    records_folded: u64,
    skipped_width_mismatch: u64,
    reconstructions: u64,
    reconstruct_failures: u64,
    wrong_keys: u64,
    enroll_failures: u64,
    out_of_order: Option<BoardId>,
    obs: Option<KeyLifeInstruments>,
}

impl KeyLifeAccumulator {
    /// Creates an empty accumulator for `config`.
    pub fn new(config: KeyLifeConfig) -> Self {
        let generators = config.profiles.iter().map(KeyProfile::generator).collect();
        Self {
            config,
            generators,
            devices: BTreeMap::new(),
            windows: BTreeMap::new(),
            records_seen: 0,
            records_folded: 0,
            skipped_width_mismatch: 0,
            reconstructions: 0,
            reconstruct_failures: 0,
            wrong_keys: 0,
            enroll_failures: 0,
            out_of_order: None,
            obs: None,
        }
    }

    /// Attaches an instrument registry maintaining the `keylife.*`
    /// counters. Folding is unchanged — the produced [`KeyLife`] is
    /// identical with or without instruments.
    pub fn attach_instruments(&mut self, ins: &Instruments) {
        self.obs = Some(KeyLifeInstruments::new(ins));
    }

    /// The configuration in use.
    pub fn config(&self) -> &KeyLifeConfig {
        &self.config
    }

    /// Records pushed so far (eligible or not).
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Records folded into a window so far.
    pub fn records_folded(&self) -> u64 {
        self.records_folded
    }

    /// Reconstruction attempts so far.
    pub fn reconstructions(&self) -> u64 {
        self.reconstructions
    }

    /// Folds one record: window bookkeeping exactly like the assessment
    /// accumulator, plus per-profile key reconstruction for post-enrollment
    /// months.
    pub fn push(&mut self, record: &Record) {
        self.records_seen += 1;
        if let Some(o) = &self.obs {
            o.seen.inc();
        }
        let protocol = self.config.protocol;
        let dt = record.timestamp.datetime();
        if protocol.reads_per_window == 0 {
            self.count_skip();
            return;
        }
        if dt.date.day < effective_eval_day(&protocol, dt.date.year, dt.date.month) {
            self.count_skip();
            return;
        }
        let ym = (dt.date.year, dt.date.month);
        let key = (record.device.0, ym.0, ym.1);

        if !self.windows.contains_key(&key) {
            self.open_window(record, ym, key);
        }
        let window = self.windows.get_mut(&key).expect("window opened above");
        let device = &self.devices[&record.device.0];
        if window.reads >= protocol.reads_per_window {
            self.count_skip();
            return;
        }
        let width = record.data.len();
        if width != window.width || width != device.reference.len() {
            self.skipped_width_mismatch += 1;
            self.count_skip();
            return;
        }
        window.reads += 1;
        self.records_folded += 1;
        if let Some(o) = &self.obs {
            o.folded.inc();
        }

        window.wchd_sum += record.data.fractional_hamming_distance(&device.reference);
        if ym <= device.enroll_month {
            // Enrollment-month reads calibrate the reference; replay starts
            // with the next month.
            return;
        }
        for (p, enrollment) in device.enrollments.iter().enumerate() {
            let Some(enrollment) = enrollment else {
                continue;
            };
            self.reconstructions += 1;
            if let Some(o) = &self.obs {
                o.reconstructions.inc();
            }
            let failed = match self.generators[p].reconstruct(&record.data, &enrollment.helper) {
                Ok(key) if key == enrollment.key => false,
                Ok(_) => {
                    self.wrong_keys += 1;
                    true
                }
                Err(_) => true,
            };
            if failed {
                window.failures[p] += 1;
                self.reconstruct_failures += 1;
                if let Some(o) = &self.obs {
                    o.reconstruct_failures.inc();
                }
            }
        }
    }

    fn count_skip(&self) {
        if let Some(o) = &self.obs {
            o.skipped.inc();
        }
    }

    /// Opens the (device, month) window for `record`, enrolling the device
    /// if this is its first eligible read.
    fn open_window(&mut self, record: &Record, ym: (i32, u8), key: (u8, i32, u8)) {
        match self.devices.get(&record.device.0) {
            None => {
                let mut enroll_failures = 0;
                let device = enroll_device(
                    &self.config,
                    &self.generators,
                    record.device,
                    ym,
                    &record.data,
                    &mut enroll_failures,
                );
                if let Some(o) = &self.obs {
                    let enrolled = device.enrollments.iter().flatten().count() as u64;
                    o.devices_enrolled.add(enrolled);
                    o.enroll_failures.add(enroll_failures);
                }
                self.enroll_failures += enroll_failures;
                self.devices.insert(record.device.0, device);
            }
            Some(state) if ym < state.enroll_month => {
                // An earlier month opened after the device enrolled from a
                // later one: the enrollment reference was wrong.
                self.out_of_order.get_or_insert(record.device);
            }
            Some(_) => {}
        }
        self.windows.insert(
            key,
            MonthState {
                device: record.device,
                year_month: ym,
                width: record.data.len(),
                reads: 0,
                wchd_sum: 0.0,
                failures: vec![0; self.config.profiles.len()],
            },
        );
    }

    /// Merges a device-disjoint shard into this accumulator. Sharding a
    /// record stream by device and merging preserves byte-identity because
    /// per-device state never crosses shards and the merged maps are
    /// key-sorted.
    ///
    /// # Panics
    ///
    /// Panics if the shards saw overlapping devices (a harness bug, not a
    /// data condition).
    pub fn merge(&mut self, other: KeyLifeAccumulator) {
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
        self.reconstructions += other.reconstructions;
        self.reconstruct_failures += other.reconstruct_failures;
        self.wrong_keys += other.wrong_keys;
        self.enroll_failures += other.enroll_failures;
        self.out_of_order = self.out_of_order.or(other.out_of_order);
    }

    /// Finalizes the accumulation into a [`KeyLife`] report.
    ///
    /// # Errors
    ///
    /// [`KeyLifeError::NoProfiles`] for an empty profile list,
    /// [`KeyLifeError::Empty`] / [`KeyLifeError::NoWindows`] for streams
    /// with nothing to evaluate, and [`KeyLifeError::OutOfOrder`] for
    /// cross-month order violations.
    pub fn finish(self) -> Result<KeyLife, KeyLifeError> {
        if self.config.profiles.is_empty() {
            return Err(KeyLifeError::NoProfiles);
        }
        if let Some(device) = self.out_of_order {
            return Err(KeyLifeError::OutOfOrder { device });
        }
        if self.records_seen == 0 {
            return Err(KeyLifeError::Empty);
        }
        if self.windows.is_empty() {
            return Err(KeyLifeError::NoWindows);
        }
        Ok(assemble(
            &self.config,
            &self.devices,
            &self.windows,
            LifeCounters {
                records_seen: self.records_seen,
                records_folded: self.records_folded,
                skipped_width_mismatch: self.skipped_width_mismatch,
                reconstructions: self.reconstructions,
                reconstruct_failures: self.reconstruct_failures,
                wrong_keys: self.wrong_keys,
                enroll_failures: self.enroll_failures,
            },
        ))
    }
}

/// A campaign can stream straight into the workload, never touching disk.
impl RecordSink for KeyLifeAccumulator {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        self.push(record);
        Ok(())
    }
}

/// Enrollment key material is a pure function of `(seed, device, profile)`:
/// a chained-SplitMix mix in the same spirit as the fault layer's
/// `fault_roll`, feeding a counter-mode [`PufRng`].
fn enroll_rng(seed: u64, device: BoardId, profile: usize) -> PufRng {
    let mut z = seed ^ 0x6B79_6C69_6665_2F31; // "keylife/1"-flavoured salt
    z = splitmix64(z.wrapping_add(u64::from(device.0)).wrapping_add(1));
    z = splitmix64(z.wrapping_add(profile as u64).wrapping_add(1));
    PufRng::from_state((z, 0))
}

fn enroll_device(
    config: &KeyLifeConfig,
    generators: &[KeyGenerator],
    device: BoardId,
    ym: (i32, u8),
    reference: &BitVec,
    enroll_failures: &mut u64,
) -> DeviceLife {
    let enrollments = generators
        .iter()
        .enumerate()
        .map(|(p, generator)| {
            let mut rng = enroll_rng(config.enroll_seed, device, p);
            match generator.enroll(reference, &mut rng) {
                Ok(enrollment) => Some(enrollment),
                Err(_) => {
                    *enroll_failures += 1;
                    None
                }
            }
        })
        .collect();
    DeviceLife {
        enroll_month: ym,
        reference: reference.clone(),
        enrollments,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LifeCounters {
    records_seen: u64,
    records_folded: u64,
    skipped_width_mismatch: u64,
    reconstructions: u64,
    reconstruct_failures: u64,
    wrong_keys: u64,
    enroll_failures: u64,
}

/// One profile's result for one month.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthKeyRow {
    /// Zero-based month index over the evaluated months.
    pub month_index: u32,
    /// Calendar month `(year, month)`.
    pub year_month: (i32, u8),
    /// Enrolled devices expected to report this month (enrolled in an
    /// earlier month).
    pub devices: usize,
    /// Reconstruction attempts actually replayed.
    pub attempts: u64,
    /// Attempts that failed (typed error or wrong key).
    pub failures: u64,
    /// Expected-but-missing attempts: fault gaps, underfilled windows, or
    /// whole missing device-months, each counted as a key-unavailable read.
    pub erasures: u64,
    /// `(failures + erasures) / (attempts + erasures)`, or `None` when
    /// nothing was expected (e.g. the global enrollment month).
    pub rate: Option<f64>,
    /// Worst per-device mean WCHD vs the enrollment reference this month.
    pub max_wchd: Option<f64>,
    /// Analytic failure bound at `max_wchd`, where the profile's code has
    /// one ([`spec_failure_bound`]); `None` for polar profiles.
    pub bound: Option<f64>,
}

/// One profile's enrollment summary and monthly rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileLife {
    /// The evaluated profile.
    pub profile: KeyProfile,
    /// Devices successfully enrolled.
    pub enrolled: usize,
    /// Devices whose response could not cover the profile's codeword.
    pub enroll_failures: usize,
    /// Per-month failure rows, in month order.
    pub rows: Vec<MonthKeyRow>,
}

/// The finished key-lifetime report.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyLife {
    /// Window-selection protocol the replay used.
    pub protocol: EvaluationProtocol,
    /// Enrollment seed the key material derived from.
    pub enroll_seed: u64,
    /// Evaluated months, sorted.
    pub months: Vec<(i32, u8)>,
    /// Devices that produced at least one eligible read.
    pub devices: usize,
    /// Per-profile results, in configuration order.
    pub profiles: Vec<ProfileLife>,
    /// Records pushed (eligible or not).
    pub records_seen: u64,
    /// Records folded into a window.
    pub records_folded: u64,
    /// Eligible records dropped because their width differs from their
    /// window's or from their device's enrollment reference.
    pub skipped_width_mismatch: u64,
    /// Total reconstruction attempts.
    pub reconstructions: u64,
    /// Total reconstruction failures.
    pub reconstruct_failures: u64,
    /// Reconstructions that returned `Ok` with a key different from the
    /// enrolled one — must stay zero; the key check makes silently wrong
    /// keys a (detected) 2⁻⁶⁴ event.
    pub wrong_keys: u64,
    /// (device, profile) enrollment failures.
    pub enroll_failures: u64,
}

fn assemble(
    config: &KeyLifeConfig,
    devices: &BTreeMap<u8, DeviceLife>,
    windows: &BTreeMap<(u8, i32, u8), MonthState>,
    counters: LifeCounters,
) -> KeyLife {
    let mut months: Vec<(i32, u8)> = windows.values().map(|w| w.year_month).collect();
    months.sort_unstable();
    months.dedup();

    let expected = u64::from(config.protocol.reads_per_window);
    let profiles = config
        .profiles
        .iter()
        .enumerate()
        .map(|(p, profile)| {
            let enrolled = devices
                .values()
                .filter(|d| d.enrollments[p].is_some())
                .count();
            let rows = months
                .iter()
                .enumerate()
                .map(|(mi, &ym)| {
                    let mut row_devices = 0usize;
                    let mut attempts = 0u64;
                    let mut failures = 0u64;
                    let mut erasures = 0u64;
                    let mut max_wchd: Option<f64> = None;
                    for (id, device) in devices {
                        if device.enrollments[p].is_none() || ym <= device.enroll_month {
                            continue;
                        }
                        row_devices += 1;
                        match windows.get(&(*id, ym.0, ym.1)) {
                            Some(w) => {
                                let reads = u64::from(w.reads);
                                attempts += reads;
                                failures += w.failures[p];
                                erasures += expected.saturating_sub(reads);
                                if reads > 0 {
                                    let mean = w.wchd_sum / w.reads as f64;
                                    max_wchd = Some(max_wchd.map_or(mean, |m: f64| m.max(mean)));
                                }
                            }
                            None => erasures += expected,
                        }
                    }
                    let denominator = attempts + erasures;
                    let rate = (denominator > 0)
                        .then(|| (failures + erasures) as f64 / denominator as f64);
                    let bound = max_wchd.and_then(|wchd| {
                        spec_failure_bound(profile.spec, wchd, profile.secret_bits)
                    });
                    MonthKeyRow {
                        month_index: u32::try_from(mi).expect("month count fits u32"),
                        year_month: ym,
                        devices: row_devices,
                        attempts,
                        failures,
                        erasures,
                        rate,
                        max_wchd,
                        bound,
                    }
                })
                .collect();
            ProfileLife {
                profile: profile.clone(),
                enrolled,
                enroll_failures: devices.len() - enrolled,
                rows,
            }
        })
        .collect();

    KeyLife {
        protocol: config.protocol,
        enroll_seed: config.enroll_seed,
        months,
        devices: devices.len(),
        profiles,
        records_seen: counters.records_seen,
        records_folded: counters.records_folded,
        skipped_width_mismatch: counters.skipped_width_mismatch,
        reconstructions: counters.reconstructions,
        reconstruct_failures: counters.reconstruct_failures,
        wrong_keys: counters.wrong_keys,
        enroll_failures: counters.enroll_failures,
    }
}

fn render_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{r:.6}"),
        None => "-".to_string(),
    }
}

fn render_bound(bound: Option<f64>) -> String {
    match bound {
        Some(b) => format!("{b:.3e}"),
        None => "-".to_string(),
    }
}

impl KeyLife {
    /// Evaluates the workload over an in-memory record slice — the
    /// reference path the streaming accumulator is locked against. Applies
    /// the identical eligibility, cap, width, and erasure rules.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KeyLifeAccumulator::finish`].
    pub fn from_records(records: &[Record], config: &KeyLifeConfig) -> Result<Self, KeyLifeError> {
        if config.profiles.is_empty() {
            return Err(KeyLifeError::NoProfiles);
        }
        if records.is_empty() {
            return Err(KeyLifeError::Empty);
        }
        let generators: Vec<KeyGenerator> =
            config.profiles.iter().map(KeyProfile::generator).collect();
        let protocol = config.protocol;

        // Group eligible reads into (device, month) windows, preserving
        // arrival order, applying the cap and width rules record by record.
        // A device's first eligible read is its enrollment reference.
        let mut retained: BTreeMap<(u8, i32, u8), Vec<BitVec>> = BTreeMap::new();
        let mut widths: BTreeMap<(u8, i32, u8), usize> = BTreeMap::new();
        let mut references: BTreeMap<u8, ((i32, u8), usize)> = BTreeMap::new();
        let mut records_seen = 0u64;
        let mut records_folded = 0u64;
        let mut skipped_width_mismatch = 0u64;
        for record in records {
            records_seen += 1;
            if protocol.reads_per_window == 0 {
                continue;
            }
            let dt = record.timestamp.datetime();
            if dt.date.day < effective_eval_day(&protocol, dt.date.year, dt.date.month) {
                continue;
            }
            let ym = (dt.date.year, dt.date.month);
            let key = (record.device.0, ym.0, ym.1);
            let (first, reference_width) = *references
                .entry(record.device.0)
                .or_insert((ym, record.data.len()));
            if ym < first {
                return Err(KeyLifeError::OutOfOrder {
                    device: record.device,
                });
            }
            let width = *widths.entry(key).or_insert_with(|| record.data.len());
            let window = retained.entry(key).or_default();
            if window.len() as u64 >= u64::from(protocol.reads_per_window) {
                continue;
            }
            if record.data.len() != width || record.data.len() != reference_width {
                skipped_width_mismatch += 1;
                continue;
            }
            window.push(record.data.clone());
            records_folded += 1;
        }
        if retained.is_empty() {
            return Err(KeyLifeError::NoWindows);
        }

        // Enroll every device from the first read of its earliest window.
        let mut devices: BTreeMap<u8, DeviceLife> = BTreeMap::new();
        let mut enroll_failures = 0u64;
        for (&(id, year, month), reads) in &retained {
            if devices.contains_key(&id) {
                continue;
            }
            let reference = reads.first().expect("windows retain their first read");
            devices.insert(
                id,
                enroll_device(
                    config,
                    &generators,
                    BoardId(id),
                    (year, month),
                    reference,
                    &mut enroll_failures,
                ),
            );
        }

        // Replay every retained read: WCHD accumulation for all months,
        // reconstruction for post-enrollment months.
        let mut reconstructions = 0u64;
        let mut reconstruct_failures = 0u64;
        let mut wrong_keys = 0u64;
        let mut windows: BTreeMap<(u8, i32, u8), MonthState> = BTreeMap::new();
        for (&(id, year, month), reads) in &retained {
            let device = &devices[&id];
            let ym = (year, month);
            let mut state = MonthState {
                device: BoardId(id),
                year_month: ym,
                width: widths[&(id, year, month)],
                reads: u32::try_from(reads.len()).expect("cap fits u32"),
                wchd_sum: 0.0,
                failures: vec![0; config.profiles.len()],
            };
            for read in reads {
                state.wchd_sum += read.fractional_hamming_distance(&device.reference);
                if ym <= device.enroll_month {
                    continue;
                }
                for (p, enrollment) in device.enrollments.iter().enumerate() {
                    let Some(enrollment) = enrollment else {
                        continue;
                    };
                    reconstructions += 1;
                    let failed = match generators[p].reconstruct(read, &enrollment.helper) {
                        Ok(key) if key == enrollment.key => false,
                        Ok(_) => {
                            wrong_keys += 1;
                            true
                        }
                        Err(_) => true,
                    };
                    if failed {
                        state.failures[p] += 1;
                        reconstruct_failures += 1;
                    }
                }
            }
            windows.insert((id, year, month), state);
        }

        Ok(assemble(
            config,
            &devices,
            &windows,
            LifeCounters {
                records_seen,
                records_folded,
                skipped_width_mismatch,
                reconstructions,
                reconstruct_failures,
                wrong_keys,
                enroll_failures,
            },
        ))
    }

    /// Total observed failures plus erasures across all profiles — the
    /// headline "did any key die" number.
    pub fn total_failures(&self) -> u64 {
        self.profiles
            .iter()
            .flat_map(|p| p.rows.iter())
            .map(|r| r.failures + r.erasures)
            .sum()
    }

    /// Renders the human-readable per-profile failure table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "key-lifetime: {} devices, {} months, {} profiles, enroll seed {}\n",
            self.devices,
            self.months.len(),
            self.profiles.len(),
            self.enroll_seed
        ));
        out.push_str(&format!(
            "records: {} seen, {} folded, {} reconstructions, {} failures, {} wrong keys\n",
            self.records_seen,
            self.records_folded,
            self.reconstructions,
            self.reconstruct_failures,
            self.wrong_keys
        ));
        for profile in &self.profiles {
            out.push('\n');
            out.push_str(&format!(
                "profile {} (secret {} bits): enrolled {}/{}\n",
                profile.profile.name, profile.profile.secret_bits, profile.enrolled, self.devices
            ));
            out.push_str(
                "  month    devices  attempts  failures  erasures  rate      max-wchd  bound\n",
            );
            for row in &profile.rows {
                let wchd = match row.max_wchd {
                    Some(w) => format!("{w:.4}"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "  {:4}-{:02} {:>8} {:>9} {:>9} {:>9}  {:<9} {:<9} {}\n",
                    row.year_month.0,
                    row.year_month.1,
                    row.devices,
                    row.attempts,
                    row.failures,
                    row.erasures,
                    render_rate(row.rate),
                    wchd,
                    render_bound(row.bound),
                ));
            }
        }
        out
    }

    /// Renders the machine-readable CSV (one row per profile × month).
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "profile,secret_bits,month_index,year,month,devices,attempts,failures,erasures,rate,max_wchd,bound\n",
        );
        for profile in &self.profiles {
            for row in &profile.rows {
                let wchd = match row.max_wchd {
                    Some(w) => format!("{w:.6}"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    profile.profile.name,
                    profile.profile.secret_bits,
                    row.month_index,
                    row.year_month.0,
                    row.year_month.1,
                    row.devices,
                    row.attempts,
                    row.failures,
                    row.erasures,
                    render_rate(row.rate),
                    wchd,
                    render_bound(row.bound),
                ));
            }
        }
        out
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
            reads_per_window: 20,
            ..CampaignConfig::default()
        }
    }

    fn config() -> KeyLifeConfig {
        KeyLifeConfig {
            protocol: EvaluationProtocol {
                reads_per_window: 20,
                ..EvaluationProtocol::default()
            },
            profiles: vec![
                KeyProfile::parse("golay-r5", 12).unwrap(),
                KeyProfile::parse("polar-128-16", 16).unwrap(),
            ],
            enroll_seed: 7,
        }
    }

    #[test]
    fn profiles_parse_and_reject() {
        let p = KeyProfile::parse("golay-r3", 24).unwrap();
        assert_eq!(p.spec, CodeSpec::GolayRepetition { repetition: 3 });
        assert_eq!(p.name, "golay-r3");
        for bad in ["golay-r4", "polar-100-10", "nonsense", "polar-128-0"] {
            let err = KeyProfile::parse(bad, 16).unwrap_err();
            assert!(matches!(err, KeyLifeError::InvalidProfile { .. }), "{bad}");
            assert!(err.to_string().contains(bad));
        }
        // Zero secret bits can never build a generator.
        assert!(KeyProfile::parse("golay-r5", 0).is_err());
    }

    #[test]
    fn oversized_codes_are_invalid_profiles_not_allocations() {
        // A 2^30-bit polar block would need gigabytes for its frozen set;
        // the 65 536-bit codeword cap refuses it before building anything.
        let err = KeyProfile::parse("polar-1073741824-1", 1).unwrap_err();
        assert_eq!(
            err,
            KeyLifeError::InvalidProfile {
                profile: "polar-1073741824-1".to_string()
            }
        );
    }

    #[test]
    fn healthy_campaign_keeps_every_key_alive() {
        let mut acc = KeyLifeAccumulator::new(config());
        Campaign::new(campaign_config(3, 4), 50)
            .run(&mut acc)
            .unwrap();
        let life = acc.finish().unwrap();
        assert_eq!(life.devices, 4);
        assert_eq!(life.months.len(), 4);
        for profile in &life.profiles {
            assert_eq!(profile.enrolled, 4, "{}", profile.profile.name);
            // Months after enrollment: everything reconstructs.
            for row in &profile.rows[1..] {
                assert_eq!(row.devices, 4);
                assert_eq!(row.attempts, 4 * 20);
                assert_eq!(row.failures, 0, "month {:?}", row.year_month);
                assert_eq!(row.erasures, 0);
                assert_eq!(row.rate, Some(0.0));
            }
            // The enrollment month has nothing to replay.
            assert_eq!(profile.rows[0].rate, None);
        }
        assert_eq!(life.wrong_keys, 0);
        assert_eq!(life.total_failures(), 0);
    }

    #[test]
    fn streaming_matches_in_memory_reference() {
        let dataset = Campaign::new(campaign_config(3, 4), 51).run_in_memory();
        let mut acc = KeyLifeAccumulator::new(config());
        for r in dataset.records() {
            acc.push(r);
        }
        let streamed = acc.finish().unwrap();
        let reference = KeyLife::from_records(dataset.records(), &config()).unwrap();
        assert_eq!(streamed, reference);
        assert_eq!(streamed.render_table(), reference.render_table());
        assert_eq!(streamed.csv(), reference.csv());
    }

    #[test]
    fn sharded_merge_is_identical_to_single_stream() {
        let dataset = Campaign::new(campaign_config(2, 4), 52).run_in_memory();
        let mut single = KeyLifeAccumulator::new(config());
        let mut shard_a = KeyLifeAccumulator::new(config());
        let mut shard_b = KeyLifeAccumulator::new(config());
        for r in dataset.records() {
            single.push(r);
            if r.device.0 % 2 == 0 {
                shard_a.push(r);
            } else {
                shard_b.push(r);
            }
        }
        shard_a.merge(shard_b);
        assert_eq!(shard_a.finish().unwrap(), single.finish().unwrap());
    }

    #[test]
    fn golay_bound_is_present_and_polar_bound_is_absent() {
        let mut acc = KeyLifeAccumulator::new(config());
        Campaign::new(campaign_config(2, 3), 53)
            .run(&mut acc)
            .unwrap();
        let life = acc.finish().unwrap();
        let golay_rows = &life.profiles[0].rows;
        let polar_rows = &life.profiles[1].rows;
        assert!(golay_rows[1].bound.is_some());
        assert!(golay_rows[1].bound.unwrap() < 1e-3);
        assert!(polar_rows[1].bound.is_none());
        assert!(polar_rows[1].max_wchd.is_some());
        // The observed rate must be consistent with the analytic bound:
        // zero failures observed while the bound predicts (essentially)
        // zero.
        assert_eq!(golay_rows[1].rate, Some(0.0));
    }

    #[test]
    fn missing_months_count_as_erasures() {
        // Device 1 vanishes after its first month: every later month is
        // fully erased for it.
        let dataset = Campaign::new(campaign_config(2, 3), 54).run_in_memory();
        let first_month = dataset
            .records()
            .iter()
            .map(|r| {
                let d = r.timestamp.datetime().date;
                (d.year, d.month)
            })
            .min()
            .unwrap();
        let records: Vec<Record> = dataset
            .records()
            .iter()
            .filter(|r| {
                let d = r.timestamp.datetime().date;
                r.device.0 != 1 || (d.year, d.month) == first_month
            })
            .cloned()
            .collect();
        let life = KeyLife::from_records(&records, &config()).unwrap();
        for profile in &life.profiles {
            for row in &profile.rows[1..] {
                assert_eq!(row.erasures, 20, "device 1 fully erased");
                assert_eq!(row.attempts, 2 * 20);
                let expected = 20.0 / 60.0;
                assert!((row.rate.unwrap() - expected).abs() < 1e-12);
            }
        }
        // Streaming agrees.
        let mut acc = KeyLifeAccumulator::new(config());
        for r in &records {
            acc.push(r);
        }
        assert_eq!(acc.finish().unwrap(), life);
    }

    #[test]
    fn narrow_reads_fail_enrollment_gracefully() {
        // 128-bit reads cannot cover either profile's codeword (the golay
        // profile needs 115 debiased bits, polar needs 128).
        let cfg = CampaignConfig {
            boards: 2,
            sram_bits: 128,
            read_bits: 128,
            months: 1,
            reads_per_window: 5,
            ..CampaignConfig::default()
        };
        let mut acc = KeyLifeAccumulator::new(KeyLifeConfig {
            protocol: EvaluationProtocol {
                reads_per_window: 5,
                ..EvaluationProtocol::default()
            },
            ..config()
        });
        Campaign::new(cfg, 55).run(&mut acc).unwrap();
        let life = acc.finish().unwrap();
        assert_eq!(life.enroll_failures, 2 * 2);
        for profile in &life.profiles {
            assert_eq!(profile.enrolled, 0);
            for row in &profile.rows {
                assert_eq!(row.devices, 0);
                assert_eq!(row.rate, None, "no enrollments, no expectations");
            }
        }
    }

    #[test]
    fn error_cases_are_typed() {
        let acc = KeyLifeAccumulator::new(config());
        assert_eq!(acc.finish().unwrap_err(), KeyLifeError::Empty);

        let empty_profiles = KeyLifeConfig {
            profiles: Vec::new(),
            ..config()
        };
        let acc = KeyLifeAccumulator::new(empty_profiles.clone());
        assert_eq!(acc.finish().unwrap_err(), KeyLifeError::NoProfiles);
        assert_eq!(
            KeyLife::from_records(&[], &config()).unwrap_err(),
            KeyLifeError::Empty
        );
        assert_eq!(
            KeyLife::from_records(&[], &empty_profiles).unwrap_err(),
            KeyLifeError::NoProfiles
        );

        // Ineligible day only: no windows.
        let off_day = Record::new(
            BoardId(0),
            0,
            Timestamp::from_date(CalendarDate::new(2017, 2, 7)),
            BitVec::zeros(64),
        );
        let mut acc = KeyLifeAccumulator::new(config());
        acc.push(&off_day);
        assert_eq!(acc.finish().unwrap_err(), KeyLifeError::NoWindows);
        assert_eq!(
            KeyLife::from_records(std::slice::from_ref(&off_day), &config()).unwrap_err(),
            KeyLifeError::NoWindows
        );

        // Out-of-order months poison the enrollment reference.
        let at = |month: u8, seq: u64| {
            Record::new(
                BoardId(0),
                seq,
                Timestamp::from_date(CalendarDate::new(2017, month, 8)),
                BitVec::zeros(64),
            )
        };
        let mut acc = KeyLifeAccumulator::new(config());
        acc.push(&at(3, 10));
        acc.push(&at(2, 0));
        assert_eq!(
            acc.finish().unwrap_err(),
            KeyLifeError::OutOfOrder { device: BoardId(0) }
        );
        assert_eq!(
            KeyLife::from_records(&[at(3, 10), at(2, 0)], &config()).unwrap_err(),
            KeyLifeError::OutOfOrder { device: BoardId(0) }
        );
    }

    #[test]
    fn instruments_satisfy_the_conservation_invariant() {
        let ins = Instruments::new();
        let mut acc = KeyLifeAccumulator::new(config());
        acc.attach_instruments(&ins);
        // Campaign writes more reads than the protocol folds: some skip.
        let cfg = CampaignConfig {
            reads_per_window: 30,
            ..campaign_config(2, 3)
        };
        Campaign::new(cfg, 56).run(&mut acc).unwrap();
        let snap = ins.snapshot();
        assert_eq!(snap.counter("keylife.records_seen"), 3 * 3 * 30);
        assert_eq!(snap.counter("keylife.records_folded"), 3 * 3 * 20);
        assert_eq!(
            snap.counter("keylife.records_seen"),
            snap.counter("keylife.records_folded") + snap.counter("keylife.records_skipped")
        );
        assert_eq!(snap.counter("keylife.devices_enrolled"), 3 * 2);
        assert_eq!(snap.counter("keylife.enroll_failures"), 0);
        // Post-enrollment months: 2 months × 3 devices × 20 reads ×
        // 2 profiles.
        assert_eq!(snap.counter("keylife.reconstructions"), 2 * 3 * 20 * 2);
        assert_eq!(snap.counter("keylife.reconstruct_failures"), 0);
        let life = acc.finish().unwrap();
        assert_eq!(life.reconstructions, 2 * 3 * 20 * 2);
    }

    #[test]
    fn instrumented_accumulator_produces_the_same_report() {
        let dataset = Campaign::new(campaign_config(2, 3), 57).run_in_memory();
        let mut plain = KeyLifeAccumulator::new(config());
        let ins = Instruments::new();
        let mut instrumented = KeyLifeAccumulator::new(config());
        instrumented.attach_instruments(&ins);
        for r in dataset.records() {
            plain.push(r);
            instrumented.push(r);
        }
        assert_eq!(plain.finish().unwrap(), instrumented.finish().unwrap());
    }

    #[test]
    fn rendered_table_and_csv_are_well_formed() {
        let mut acc = KeyLifeAccumulator::new(config());
        Campaign::new(campaign_config(2, 3), 58)
            .run(&mut acc)
            .unwrap();
        let life = acc.finish().unwrap();
        let table = life.render_table();
        assert!(table.contains("profile golay-r5 (secret 12 bits): enrolled 3/3"));
        assert!(table.contains("profile polar-128-16"));
        assert!(table.contains("0.000000"));
        let csv = life.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "profile,secret_bits,month_index,year,month,devices,attempts,failures,erasures,rate,max_wchd,bound");
        // Header + profiles × months rows.
        assert_eq!(lines.len(), 1 + 2 * 3);
        // Polar rows carry "-" bounds.
        assert!(lines
            .iter()
            .any(|l| l.starts_with("polar-128-16") && l.ends_with(",-")));
    }

    #[test]
    fn weak_profiles_show_observed_failures_deterministically() {
        // polar-128-32 (rate 1/4 at block length 128) is genuinely too weak
        // at the testbed's ~3 % WCHD: the workload must *observe* those
        // failures — typed, counted, never a silently wrong key — and
        // reproduce them exactly on a re-run.
        let weak = KeyLifeConfig {
            profiles: vec![KeyProfile::parse("polar-128-32", 32).unwrap()],
            ..config()
        };
        let dataset = Campaign::new(campaign_config(2, 3), 56).run_in_memory();
        let a = KeyLife::from_records(dataset.records(), &weak).unwrap();
        let b = KeyLife::from_records(dataset.records(), &weak).unwrap();
        assert_eq!(a, b);
        assert!(a.reconstruct_failures > 0, "weak profile must fail visibly");
        assert_eq!(a.wrong_keys, 0, "failures are detected, not silent");
        let rows = &a.profiles[0].rows;
        assert!(rows[1..].iter().any(|r| r.rate.unwrap() > 0.0));
        assert!(rows[1].bound.is_none(), "no analytic bound for polar");
    }

    #[test]
    fn enrollment_is_deterministic_in_the_seed() {
        let dataset = Campaign::new(campaign_config(2, 3), 59).run_in_memory();
        let a = KeyLife::from_records(dataset.records(), &config()).unwrap();
        let b = KeyLife::from_records(dataset.records(), &config()).unwrap();
        assert_eq!(a, b);
        let other_seed = KeyLifeConfig {
            enroll_seed: 8,
            ..config()
        };
        let c = KeyLife::from_records(dataset.records(), &other_seed).unwrap();
        // Different key material, identical failure accounting on a healthy
        // campaign.
        assert_eq!(c.reconstruct_failures, a.reconstruct_failures);
        assert_eq!(c.enroll_seed, 8);
    }
}
