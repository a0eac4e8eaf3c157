//! Deterministic fault injection for the long-term campaign.
//!
//! The paper's two-year campaign was not clean: boards dropped off the I2C
//! bus, power cycles were missed, and months carry unequal measurement
//! counts. This module models those degradations as an explicit, seed-keyed
//! [`FaultPlan`]: board brownouts (whole evaluation windows of missing
//! power-ups), I2C NACK/corruption bursts, stuck-at cell clusters, and
//! per-layer clock skew.
//!
//! # Determinism
//!
//! Fault decisions are **stateless**: every probabilistic draw is a pure
//! function of `(campaign seed, board, window, read, channel, attempt)`
//! ([`fault_roll`]), computed with a SplitMix64-style finalizer that never
//! touches a board's main [`pufbits::PufRng`] stream. Three properties
//! follow directly:
//!
//! * **thread independence** — a board's fault trajectory does not depend on
//!   scheduling, so faulted output is byte-identical for any `--threads`;
//! * **resume cleanliness** — nothing needs checkpointing: replaying a
//!   window after a [`pufchk/1`](crate::store::checkpoint) resume re-derives
//!   the same decisions;
//! * **zero-fault identity** — an empty plan takes none of the fault paths
//!   and draws nothing, so its record stream is byte-identical to a run
//!   without any plan at all.
//!
//! Plans are parsed from a small JSON spec via the workspace parser:
//!
//! ```
//! use puftestbed::faults::FaultPlan;
//!
//! let plan = FaultPlan::parse_json(r#"{
//!     "brownouts":     [{"board": 3, "from_window": 2, "until_window": 4}],
//!     "i2c_bursts":    [{"from_window": 1, "until_window": 1, "nack_rate": 0.5}],
//!     "stuck_clusters":[{"board": 0, "cell": 16, "len": 8, "value": true, "from_window": 3}],
//!     "clock_skew":    [{"layer": 1, "skew_s": 0.25}]
//! }"#)?;
//! assert!(!plan.is_empty());
//! assert!(plan.browned_out(puftestbed::BoardId(3), 2));
//! assert!(!plan.browned_out(puftestbed::BoardId(2), 2));
//! # Ok::<(), puftestbed::PlanError>(())
//! ```

use crate::board::BoardId;
use crate::store::checkpoint::Fnv;
use crate::store::json::{self, JsonValue, ParseJsonError};
use pufbits::{splitmix64, BitVec};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A window span of missing power-ups for one board (or all boards).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// Affected board (`None` = every board; a rack-level power loss).
    pub board: Option<u8>,
    /// First affected evaluation window (0-based month index), inclusive.
    pub from_window: u32,
    /// Last affected evaluation window, inclusive.
    pub until_window: u32,
}

/// A burst of elevated I2C fault rates over a window span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct I2cBurst {
    /// Affected board (`None` = every board; a bus-level disturbance).
    pub board: Option<u8>,
    /// First affected evaluation window, inclusive.
    pub from_window: u32,
    /// Last affected evaluation window, inclusive.
    pub until_window: u32,
    /// Per-attempt NACK probability added during the burst.
    pub nack_rate: f64,
    /// Per-attempt corruption probability added during the burst.
    pub corruption_rate: f64,
}

/// A cluster of cells stuck at a fixed value from some window on
/// (permanent damage — e.g. a failed column driver).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckCluster {
    /// Affected board.
    pub board: u8,
    /// First stuck cell index within the read window.
    pub cell: u32,
    /// Number of consecutive stuck cells.
    pub len: u32,
    /// The value the cells are stuck at.
    pub value: bool,
    /// First evaluation window the damage is present in (and ever after).
    pub from_window: u32,
}

/// A constant clock skew applied to one layer's read-out timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSkew {
    /// The affected layer (0 or 1 in the paper's rig).
    pub layer: u8,
    /// Skew in seconds added to every timestamp of that layer.
    pub skew_s: f64,
}

/// A deterministic schedule of campaign faults. See the [module docs](self)
/// for the determinism contract and the JSON spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled brownouts.
    pub brownouts: Vec<Brownout>,
    /// Scheduled I2C fault bursts.
    pub i2c_bursts: Vec<I2cBurst>,
    /// Stuck-at cell clusters.
    pub stuck_clusters: Vec<StuckCluster>,
    /// Per-layer clock skews.
    pub clock_skew: Vec<LayerSkew>,
}

/// Error loading or validating a [`FaultPlan`] or an
/// [`IoFaultPlan`](crate::store::IoFaultPlan). The message does not name
/// the plan: the caller knows which plan it was loading.
#[derive(Debug)]
pub enum PlanError {
    /// The spec file could not be read.
    Io(io::Error),
    /// The spec is not well-formed JSON.
    Json(ParseJsonError),
    /// The spec is JSON but not a valid plan (wrong types, unknown keys or
    /// sections, rates outside `[0, 1]`, inverted window spans).
    Invalid(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "{e}"),
            PlanError::Json(e) => write!(f, "not valid json: {e}"),
            PlanError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Io(e) => Some(e),
            PlanError::Json(e) => Some(e),
            PlanError::Invalid(_) => None,
        }
    }
}

impl From<io::Error> for PlanError {
    fn from(e: io::Error) -> Self {
        PlanError::Io(e)
    }
}

impl From<ParseJsonError> for PlanError {
    fn from(e: ParseJsonError) -> Self {
        PlanError::Json(e)
    }
}

impl FaultPlan {
    /// Returns `true` if the plan schedules nothing — the campaign then
    /// takes none of the fault paths and its output is byte-identical to a
    /// run without a plan.
    pub fn is_empty(&self) -> bool {
        self.brownouts.is_empty()
            && self.i2c_bursts.is_empty()
            && self.stuck_clusters.is_empty()
            && self.clock_skew.is_empty()
    }

    /// Parses a plan from its JSON spec. Every section is optional; an
    /// empty object `{}` is the zero-fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Json`] for malformed JSON and
    /// [`PlanError::Invalid`] for a well-formed spec that is not a valid
    /// plan (wrong types, out-of-range rates, inverted spans, unknown
    /// sections or fields).
    pub fn parse_json(spec: &str) -> Result<Self, PlanError> {
        let value = json::parse(spec)?;
        let Some(entries) = value.as_object() else {
            return Err(PlanError::Invalid("top level must be an object".into()));
        };
        let mut plan = FaultPlan::default();
        for (name, items) in entries {
            match name.as_str() {
                "brownouts" => read_section(name, items, brownout, &mut plan.brownouts)?,
                "i2c_bursts" => read_section(name, items, burst, &mut plan.i2c_bursts)?,
                "stuck_clusters" => read_section(name, items, cluster, &mut plan.stuck_clusters)?,
                "clock_skew" => read_section(name, items, skew, &mut plan.clock_skew)?,
                other => return Err(PlanError::Invalid(format!("unknown section `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// Loads and parses a plan file.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Io`] if the file cannot be read, plus the
    /// conditions of [`parse_json`](Self::parse_json).
    pub fn load(path: &Path) -> Result<Self, PlanError> {
        Self::parse_json(&fs::read_to_string(path)?)
    }

    /// A stable 64-bit hash of the plan (FNV-1a over every field in order).
    /// Feeds the campaign's config hash so a resume under a changed plan is
    /// refused; an empty plan contributes nothing, keeping existing
    /// checkpoints valid.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(b"puffaults/1");
        h.u64(self.brownouts.len() as u64);
        for b in &self.brownouts {
            hash_board(&mut h, b.board);
            h.u64(u64::from(b.from_window));
            h.u64(u64::from(b.until_window));
        }
        h.u64(self.i2c_bursts.len() as u64);
        for b in &self.i2c_bursts {
            hash_board(&mut h, b.board);
            h.u64(u64::from(b.from_window));
            h.u64(u64::from(b.until_window));
            h.f64(b.nack_rate);
            h.f64(b.corruption_rate);
        }
        h.u64(self.stuck_clusters.len() as u64);
        for c in &self.stuck_clusters {
            h.u64(u64::from(c.board));
            h.u64(u64::from(c.cell));
            h.u64(u64::from(c.len));
            h.u64(u64::from(c.value));
            h.u64(u64::from(c.from_window));
        }
        h.u64(self.clock_skew.len() as u64);
        for s in &self.clock_skew {
            h.u64(u64::from(s.layer));
            h.f64(s.skew_s);
        }
        h.finish()
    }

    /// Whether `board` is browned out for the whole of window `window`.
    pub fn browned_out(&self, board: BoardId, window: u32) -> bool {
        self.brownouts.iter().any(|b| {
            b.board.is_none_or(|id| id == board.0)
                && (b.from_window..=b.until_window).contains(&window)
        })
    }

    /// The extra I2C fault rates in force for `board` during `window`, or
    /// `None` when no burst applies. Overlapping bursts combine by taking
    /// the maximum of each rate.
    pub fn burst_rates(&self, board: BoardId, window: u32) -> Option<(f64, f64)> {
        let mut rates: Option<(f64, f64)> = None;
        for b in &self.i2c_bursts {
            let applies = b.board.is_none_or(|id| id == board.0)
                && (b.from_window..=b.until_window).contains(&window);
            if applies {
                let (nack, corrupt) = rates.unwrap_or((0.0, 0.0));
                rates = Some((nack.max(b.nack_rate), corrupt.max(b.corruption_rate)));
            }
        }
        rates
    }

    /// Forces the stuck cells of `board` (as of `window`) into `readout`,
    /// returning the number of cells forced. Out-of-range cluster cells are
    /// clamped to the read-out width.
    pub fn apply_stuck(&self, board: BoardId, window: u32, readout: &mut BitVec) -> u64 {
        let mut forced = 0u64;
        for c in &self.stuck_clusters {
            if c.board != board.0 || window < c.from_window {
                continue;
            }
            let start = c.cell as usize;
            let end = start.saturating_add(c.len as usize).min(readout.len());
            for i in start..end {
                readout.set(i, c.value);
                forced += 1;
            }
        }
        forced
    }

    /// The clock skew (seconds) applied to `layer`'s timestamps. Multiple
    /// entries for one layer sum; an empty plan returns `0.0`.
    pub fn layer_skew_s(&self, layer: u8) -> f64 {
        self.clock_skew
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.skew_s)
            .sum()
    }
}

fn hash_board(h: &mut Fnv, board: Option<u8>) {
    match board {
        None => h.u64(0),
        Some(id) => {
            h.u64(1);
            h.u64(u64::from(id));
        }
    }
}

/// The two probabilistic fault channels a transfer attempt rolls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultChannel {
    /// The slave fails to acknowledge.
    Nack,
    /// The payload is corrupted in flight (fails its CRC).
    Corruption,
}

/// The stateless fault draw: a uniform value in `[0, 1)` that is a pure
/// function of its inputs. The burst machinery compares these draws against
/// the plan's rates, so fault decisions depend on nothing but `(seed,
/// board, window, read, channel, attempt)` — the anchor of the fault
/// layer's thread-count and resume independence (see the [module
/// docs](self)).
pub fn fault_roll(
    seed: u64,
    board: BoardId,
    window: u32,
    read: u32,
    channel: FaultChannel,
    attempt: u32,
) -> f64 {
    let mut z = seed ^ 0xA076_1D64_78BD_642F;
    z = splitmix64(z.wrapping_add(u64::from(board.0)).wrapping_add(1));
    z = splitmix64(z.wrapping_add(u64::from(window)).wrapping_add(1));
    z = splitmix64(z.wrapping_add(u64::from(read)).wrapping_add(1));
    z = splitmix64(z.wrapping_add(match channel {
        FaultChannel::Nack => 1,
        FaultChannel::Corruption => 2,
    }));
    z = splitmix64(z.wrapping_add(u64::from(attempt)).wrapping_add(1));
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Simulated exponential backoff (milliseconds) charged for retry
/// `attempt` (0-based), per the bounded retry-with-backoff of the paper's
/// Algorithm 1 recovery semantics: 1 ms doubling per attempt, capped at
/// 100 ms. Accounting only — the measurement schedule itself stays fixed,
/// so retried runs remain byte-identical in their record streams.
pub fn retry_backoff_ms(attempt: u32) -> u64 {
    (1u64 << attempt.min(7)).min(100)
}

/// Non-checkpointed counters of what the fault layer actually did during a
/// run. A pure function of `(config, seed, plan)` over the windows executed
/// in this process, so it is recomputable and deliberately kept out of the
/// `pufchk/1` wire format; after a resume it covers the resumed portion
/// only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// `(board, window)` pairs lost entirely to brownouts.
    pub browned_out_windows: u64,
    /// Power-ups that never happened because of brownouts.
    pub missed_power_ups: u64,
    /// Transfer attempts failed by an injected NACK.
    pub injected_nacks: u64,
    /// Transfer attempts failed by injected payload corruption.
    pub injected_corruptions: u64,
    /// Stuck-cell forcings applied to read-outs (cells × reads).
    pub stuck_cells_forced: u64,
    /// Simulated retry backoff accumulated, milliseconds.
    pub retry_backoff_ms: u64,
}

/// Why a gap record was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapCause {
    /// The board was browned out for the whole window.
    Brownout,
    /// Read-outs were dropped after exhausting the transport retry budget.
    RetriesExhausted,
}

impl fmt::Display for GapCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GapCause::Brownout => write!(f, "brownout"),
            GapCause::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

/// An explicit hole in the record stream: a `(board, window)` that produced
/// fewer read-outs than scheduled. The campaign emits these instead of
/// stalling or panicking, so downstream coverage accounting can flag sparse
/// months rather than silently averaging over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapRecord {
    /// The affected board.
    pub device: BoardId,
    /// The evaluation window (0-based month index).
    pub window: u32,
    /// Calendar month `(year, month)` of the window.
    pub year_month: (i32, u8),
    /// Scheduled read-outs that were not delivered.
    pub missed_reads: u32,
    /// What opened the gap.
    pub cause: GapCause,
}

impl fmt::Display for GapRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gap: board {} window {} ({}-{:02}) missed {} reads ({})",
            self.device.0,
            self.window,
            self.year_month.0,
            self.year_month.1,
            self.missed_reads,
            self.cause
        )
    }
}

/// One JSON object of a plan spec, read field by field. Every error names
/// the object (`brownouts[0]`, `io-fault plan`), so a rejected spec points
/// at the entry to fix.
pub(crate) struct PlanObject<'a> {
    value: &'a JsonValue,
    what: &'a str,
}

impl<'a> PlanObject<'a> {
    /// Checks that `value` is an object with no keys outside `allowed`.
    pub(crate) fn new(
        value: &'a JsonValue,
        what: &'a str,
        allowed: &[&str],
    ) -> Result<Self, PlanError> {
        let Some(entries) = value.as_object() else {
            return Err(PlanError::Invalid(format!("{what} must be an object")));
        };
        if let Some((key, _)) = entries.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(PlanError::Invalid(format!(
                "{what} has unknown field `{key}`"
            )));
        }
        Ok(Self { value, what })
    }

    fn invalid(&self, problem: impl fmt::Display) -> PlanError {
        PlanError::Invalid(format!("{}: {problem}", self.what))
    }

    /// A required non-negative integer that fits `T`.
    pub(crate) fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, PlanError> {
        self.value
            .get(key)
            .and_then(JsonValue::as_u64)
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| self.invalid(format_args!("`{key}` must be a non-negative integer")))
    }

    /// An optional non-negative integer: absent or `null` reads as `None`.
    pub(crate) fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, PlanError> {
        match self.value.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(_) => self.int(key).map(Some),
        }
    }

    /// A required number.
    fn number(&self, key: &str) -> Result<f64, PlanError> {
        self.value
            .get(key)
            .and_then(JsonValue::as_number)
            .ok_or_else(|| self.invalid(format_args!("`{key}` must be a number")))
    }

    /// A probability in `[0, 1]`; an absent key reads as 0.
    pub(crate) fn rate(&self, key: &str) -> Result<f64, PlanError> {
        if self.value.get(key).is_none() {
            return Ok(0.0);
        }
        let rate = self.number(key)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(self.invalid(format_args!(
                "`{key}` must be a probability in [0, 1], got {rate}"
            )));
        }
        Ok(rate)
    }

    /// The optional `board`: absent or `null` means every board.
    fn board(&self) -> Result<Option<u8>, PlanError> {
        self.opt_int("board")
            .map_err(|_| self.invalid("`board` must be a board id (0-255)"))
    }

    /// The inclusive `from_window`..=`until_window` span.
    fn window_span(&self) -> Result<(u32, u32), PlanError> {
        let (from, until) = (self.int("from_window")?, self.int("until_window")?);
        if until < from {
            return Err(self.invalid(format_args!(
                "until_window {until} precedes from_window {from}"
            )));
        }
        Ok((from, until))
    }
}

/// Reads section `section` of a fault plan: an array whose items `read`
/// parses under the names `section[0]`, `section[1]`, ….
fn read_section<T>(
    section: &str,
    items: &JsonValue,
    read: fn(&JsonValue, &str) -> Result<T, PlanError>,
    into: &mut Vec<T>,
) -> Result<(), PlanError> {
    let items = items
        .as_array()
        .ok_or_else(|| PlanError::Invalid(format!("`{section}` must be an array")))?;
    for (i, item) in items.iter().enumerate() {
        into.push(read(item, &format!("{section}[{i}]"))?);
    }
    Ok(())
}

fn brownout(value: &JsonValue, what: &str) -> Result<Brownout, PlanError> {
    let item = PlanObject::new(value, what, &["board", "from_window", "until_window"])?;
    let (from_window, until_window) = item.window_span()?;
    Ok(Brownout {
        board: item.board()?,
        from_window,
        until_window,
    })
}

fn burst(value: &JsonValue, what: &str) -> Result<I2cBurst, PlanError> {
    let keys = [
        "board",
        "from_window",
        "until_window",
        "nack_rate",
        "corruption_rate",
    ];
    let item = PlanObject::new(value, what, &keys)?;
    let (from_window, until_window) = item.window_span()?;
    let nack_rate = item.rate("nack_rate")?;
    let corruption_rate = item.rate("corruption_rate")?;
    if nack_rate == 0.0 && corruption_rate == 0.0 {
        return Err(item.invalid("a burst needs a nack_rate or corruption_rate above zero"));
    }
    Ok(I2cBurst {
        board: item.board()?,
        from_window,
        until_window,
        nack_rate,
        corruption_rate,
    })
}

fn cluster(value: &JsonValue, what: &str) -> Result<StuckCluster, PlanError> {
    let keys = ["board", "cell", "len", "value", "from_window"];
    let item = PlanObject::new(value, what, &keys)?;
    let board = item
        .board()?
        .ok_or_else(|| item.invalid("`board` is required for a stuck cluster"))?;
    let len = item.int("len")?;
    if len == 0 {
        return Err(item.invalid("`len` must be at least 1"));
    }
    let Some(&JsonValue::Bool(value)) = item.value.get("value") else {
        return Err(item.invalid("`value` must be true or false"));
    };
    Ok(StuckCluster {
        board,
        cell: item.int("cell")?,
        len,
        value,
        from_window: item.int("from_window")?,
    })
}

fn skew(value: &JsonValue, what: &str) -> Result<LayerSkew, PlanError> {
    let item = PlanObject::new(value, what, &["layer", "skew_s"])?;
    let layer = u8::try_from(item.int::<u32>("layer")?)
        .map_err(|_| item.invalid("`layer` must fit a u8"))?;
    let skew_s = item.number("skew_s")?;
    if !skew_s.is_finite() {
        return Err(item.invalid("`skew_s` must be finite"));
    }
    Ok(LayerSkew { layer, skew_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_specs_parse_to_the_zero_plan() {
        for spec in ["{}", r#"{"brownouts": []}"#] {
            let plan = FaultPlan::parse_json(spec).unwrap();
            assert!(plan.is_empty(), "{spec}");
        }
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn full_spec_round_trips_into_fields() {
        let plan = FaultPlan::parse_json(
            r#"{
                "brownouts": [{"from_window": 1, "until_window": 2},
                              {"board": 5, "from_window": 0, "until_window": 0}],
                "i2c_bursts": [{"board": 1, "from_window": 3, "until_window": 4,
                                "nack_rate": 0.25, "corruption_rate": 0.5}],
                "stuck_clusters": [{"board": 2, "cell": 100, "len": 32,
                                    "value": false, "from_window": 6}],
                "clock_skew": [{"layer": 0, "skew_s": -0.5}]
            }"#,
        )
        .unwrap();
        assert_eq!(plan.brownouts.len(), 2);
        assert_eq!(plan.brownouts[0].board, None);
        assert_eq!(plan.brownouts[1].board, Some(5));
        assert_eq!(plan.i2c_bursts[0].nack_rate, 0.25);
        assert_eq!(plan.stuck_clusters[0].len, 32);
        assert!(!plan.stuck_clusters[0].value);
        assert_eq!(plan.clock_skew[0].skew_s, -0.5);
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let cases = [
            ("[1, 2]", "top level"),
            (r#"{"nope": []}"#, "unknown section"),
            (
                r#"{"brownouts": [{"from_window": 3, "until_window": 1}]}"#,
                "precedes",
            ),
            (
                r#"{"i2c_bursts": [{"from_window": 0, "until_window": 0, "nack_rate": 1.5}]}"#,
                "probability",
            ),
            (
                r#"{"i2c_bursts": [{"from_window": 0, "until_window": 0}]}"#,
                "above zero",
            ),
            (
                r#"{"stuck_clusters": [{"cell": 0, "len": 4, "value": true, "from_window": 0}]}"#,
                "required",
            ),
            (
                r#"{"stuck_clusters": [{"board": 0, "cell": 0, "len": 0, "value": true, "from_window": 0}]}"#,
                "at least 1",
            ),
            (
                r#"{"brownouts": [{"board": 0, "from_window": 0, "until_window": 0, "typo": 1}]}"#,
                "unknown field",
            ),
            (
                r#"{"clock_skew": [{"layer": 0, "skew_s": "fast"}]}"#,
                "number",
            ),
            (
                r#"{"brownouts": [{"board": 256, "from_window": 0, "until_window": 0}]}"#,
                "board id",
            ),
            (r#"{"brownouts": {}}"#, "must be an array"),
        ];
        for (spec, needle) in cases {
            let err = FaultPlan::parse_json(spec).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "spec {spec} gave: {msg}");
        }
        assert!(matches!(
            FaultPlan::parse_json("not json"),
            Err(PlanError::Json(_))
        ));
        assert!(matches!(
            FaultPlan::load(Path::new("/nonexistent/plan.json")),
            Err(PlanError::Io(_))
        ));
    }

    #[test]
    fn brownout_matching_honours_board_and_span() {
        let plan = FaultPlan {
            brownouts: vec![
                Brownout {
                    board: Some(3),
                    from_window: 2,
                    until_window: 4,
                },
                Brownout {
                    board: None,
                    from_window: 7,
                    until_window: 7,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.browned_out(BoardId(3), 2));
        assert!(plan.browned_out(BoardId(3), 4));
        assert!(!plan.browned_out(BoardId(3), 5));
        assert!(!plan.browned_out(BoardId(2), 3));
        // The rack-level brownout hits every board.
        assert!(plan.browned_out(BoardId(0), 7));
        assert!(plan.browned_out(BoardId(9), 7));
    }

    #[test]
    fn overlapping_bursts_take_the_maximum_rate() {
        let plan = FaultPlan {
            i2c_bursts: vec![
                I2cBurst {
                    board: None,
                    from_window: 0,
                    until_window: 5,
                    nack_rate: 0.1,
                    corruption_rate: 0.0,
                },
                I2cBurst {
                    board: Some(1),
                    from_window: 3,
                    until_window: 3,
                    nack_rate: 0.05,
                    corruption_rate: 0.4,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.burst_rates(BoardId(0), 3), Some((0.1, 0.0)));
        assert_eq!(plan.burst_rates(BoardId(1), 3), Some((0.1, 0.4)));
        assert_eq!(plan.burst_rates(BoardId(1), 6), None);
    }

    #[test]
    fn stuck_clusters_force_and_clamp() {
        let plan = FaultPlan {
            stuck_clusters: vec![
                StuckCluster {
                    board: 0,
                    cell: 4,
                    len: 4,
                    value: true,
                    from_window: 2,
                },
                StuckCluster {
                    board: 0,
                    cell: 14,
                    len: 100,
                    value: false,
                    from_window: 0,
                },
            ],
            ..FaultPlan::default()
        };
        let mut readout = BitVec::zeros(16);
        // Before from_window, the first cluster is absent.
        assert_eq!(plan.apply_stuck(BoardId(0), 1, &mut readout), 2);
        let mut readout = BitVec::ones(16);
        // At window 2 both apply; the second is clamped to the width.
        let forced = plan.apply_stuck(BoardId(0), 2, &mut readout);
        assert_eq!(forced, 4 + 2);
        assert_eq!(readout.get(4), Some(true));
        assert_eq!(readout.get(14), Some(false));
        assert_eq!(readout.get(15), Some(false));
        // Other boards untouched.
        let mut other = BitVec::ones(16);
        assert_eq!(plan.apply_stuck(BoardId(1), 2, &mut other), 0);
        assert_eq!(other.count_ones(), 16);
    }

    #[test]
    fn layer_skews_sum_per_layer() {
        let plan = FaultPlan {
            clock_skew: vec![
                LayerSkew {
                    layer: 1,
                    skew_s: 0.25,
                },
                LayerSkew {
                    layer: 1,
                    skew_s: 0.5,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.layer_skew_s(0), 0.0);
        assert_eq!(plan.layer_skew_s(1), 0.75);
        assert_eq!(FaultPlan::default().layer_skew_s(0), 0.0);
    }

    #[test]
    fn fault_rolls_are_uniform_and_input_sensitive() {
        let base = fault_roll(7, BoardId(0), 0, 0, FaultChannel::Nack, 0);
        assert!((0.0..1.0).contains(&base));
        // Every input perturbs the draw.
        let others = [
            fault_roll(8, BoardId(0), 0, 0, FaultChannel::Nack, 0),
            fault_roll(7, BoardId(1), 0, 0, FaultChannel::Nack, 0),
            fault_roll(7, BoardId(0), 1, 0, FaultChannel::Nack, 0),
            fault_roll(7, BoardId(0), 0, 1, FaultChannel::Nack, 0),
            fault_roll(7, BoardId(0), 0, 0, FaultChannel::Corruption, 0),
            fault_roll(7, BoardId(0), 0, 0, FaultChannel::Nack, 1),
        ];
        for (i, &o) in others.iter().enumerate() {
            assert_ne!(o, base, "input {i} did not perturb the roll");
        }
        // Statelessness: the same inputs always reproduce the same draw.
        assert_eq!(base, fault_roll(7, BoardId(0), 0, 0, FaultChannel::Nack, 0));
        // Rough uniformity over many draws.
        let mean: f64 = (0..10_000)
            .map(|i| fault_roll(7, BoardId(0), i / 100, i % 100, FaultChannel::Nack, 0))
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(retry_backoff_ms(0), 1);
        assert_eq!(retry_backoff_ms(1), 2);
        assert_eq!(retry_backoff_ms(6), 64);
        assert_eq!(retry_backoff_ms(7), 100);
        assert_eq!(retry_backoff_ms(40), 100);
    }

    #[test]
    fn stable_hash_sees_every_field() {
        let base = FaultPlan {
            brownouts: vec![Brownout {
                board: Some(1),
                from_window: 0,
                until_window: 1,
            }],
            i2c_bursts: vec![I2cBurst {
                board: None,
                from_window: 2,
                until_window: 3,
                nack_rate: 0.1,
                corruption_rate: 0.2,
            }],
            stuck_clusters: vec![StuckCluster {
                board: 0,
                cell: 8,
                len: 4,
                value: true,
                from_window: 5,
            }],
            clock_skew: vec![LayerSkew {
                layer: 1,
                skew_s: 0.25,
            }],
        };
        let h0 = base.stable_hash();
        let mut variations = Vec::new();
        let mut v = base.clone();
        v.brownouts[0].board = None;
        variations.push(v);
        let mut v = base.clone();
        v.brownouts[0].until_window = 2;
        variations.push(v);
        let mut v = base.clone();
        v.i2c_bursts[0].nack_rate = 0.11;
        variations.push(v);
        let mut v = base.clone();
        v.i2c_bursts[0].corruption_rate = 0.21;
        variations.push(v);
        let mut v = base.clone();
        v.stuck_clusters[0].value = false;
        variations.push(v);
        let mut v = base.clone();
        v.stuck_clusters[0].cell = 9;
        variations.push(v);
        let mut v = base.clone();
        v.clock_skew[0].skew_s = 0.26;
        variations.push(v);
        let mut v = base.clone();
        v.clock_skew.clear();
        variations.push(v);
        for (i, v) in variations.iter().enumerate() {
            assert_ne!(v.stable_hash(), h0, "variation {i} did not change the hash");
        }
        // The hash is stable across calls and plans compare structurally.
        assert_eq!(base.stable_hash(), h0);
        assert_eq!(
            FaultPlan::default().stable_hash(),
            FaultPlan::parse_json("{}").unwrap().stable_hash()
        );
    }
}
