//! Deterministic I/O fault injection for the store layer.
//!
//! PR 6's [`FaultPlan`](crate::faults::FaultPlan) made the *hardware* side
//! of the campaign hostile (brownouts, I2C bursts, stuck cells); this
//! module does the same to the *operating system* underneath the store:
//! torn writes at exact byte offsets, short reads, `ENOSPC`, failed
//! `fsync`, and failed `rename`. Every store writer funnels through
//! [`AtomicFile`](super::AtomicFile), so threading an [`IoPolicy`] through
//! that one choke point subjects record files, `pufchk/1` checkpoints, and
//! resume salvage reads alike to the plan.
//!
//! # Determinism
//!
//! Fault decisions are **stateless per operation**, mirroring
//! [`fault_roll`](crate::faults::fault_roll): every draw is a pure function
//! of `(plan seed, incarnation, path hash, op channel, op index)`
//! ([`io_roll`]), where the path hash covers only the file's final name
//! component (so schedules survive a change of temp directory) and the op
//! index counts operations of that kind on that path within the process.
//! All store I/O for one file happens on the thread that owns its sink, so
//! the per-path operation sequence — and therefore the fault schedule — is
//! byte-identical for any `--threads` and across checkpoint resume.
//!
//! The **incarnation** is a salt for supervised restarts: the `supervise`
//! driver passes its restart count, so each child process draws a fresh
//! schedule instead of tripping over the same fault forever. A plan may
//! bound its own horizon with `max_incarnations`, after which it injects
//! nothing — that is what makes a supervised torture run *provably*
//! terminate within its restart budget.
//!
//! An absent policy (or an empty plan) takes none of the fault paths and
//! draws nothing, so a run without `--io-faults` is byte-identical to one
//! predating this module.
//!
//! Plans are parsed from a small JSON spec via the workspace parser:
//!
//! ```
//! use puftestbed::store::iofault::IoFaultPlan;
//!
//! let plan = IoFaultPlan::parse_json(r#"{
//!     "seed": 7,
//!     "torn_write_rate": 0.01,
//!     "fsync_failure_rate": 0.005,
//!     "max_faults": 4,
//!     "max_incarnations": 3
//! }"#)?;
//! assert!(!plan.is_empty());
//! # Ok::<(), puftestbed::PlanError>(())
//! ```

use crate::faults::{PlanError, PlanObject};
use crate::store::checkpoint::Fnv;
use crate::store::json;
use pufbits::splitmix64;
use pufobs::{Counter, Instruments};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A seeded schedule of OS-level I/O faults.
///
/// Rates are per-operation probabilities; `max_faults` caps how many faults
/// one process injects (later draws are *absorbed*, visible only in the
/// `io.faults_absorbed` counter), and `max_incarnations` disarms the plan
/// entirely from that restart count on. The default plan is inert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoFaultPlan {
    /// Seed of the fault schedule (independent of the campaign seed).
    pub seed: u64,
    /// Probability that a write is torn: a prefix of the buffer reaches the
    /// file, then the write fails.
    pub torn_write_rate: f64,
    /// Probability that a read delivers a short prefix and then fails.
    pub short_read_rate: f64,
    /// Probability that a write fails with `ENOSPC` before writing.
    pub enospc_rate: f64,
    /// Probability that an `fsync` (file or directory) fails.
    pub fsync_failure_rate: f64,
    /// Probability that the publishing `rename` fails.
    pub rename_failure_rate: f64,
    /// Cap on faults injected by one process (`None` = unlimited).
    pub max_faults: Option<u64>,
    /// First incarnation at which the plan goes inert (`None` = never).
    pub max_incarnations: Option<u64>,
}

const PLAN_KEYS: &[&str] = &[
    "seed",
    "torn_write_rate",
    "short_read_rate",
    "enospc_rate",
    "fsync_failure_rate",
    "rename_failure_rate",
    "max_faults",
    "max_incarnations",
];

impl IoFaultPlan {
    /// Parses a plan from its JSON spec (strict: unknown keys are errors).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Json`] for malformed JSON and
    /// [`PlanError::Invalid`] for structurally wrong specs.
    pub fn parse_json(text: &str) -> Result<Self, PlanError> {
        let value = json::parse(text)?;
        let plan = PlanObject::new(&value, "io-fault plan", PLAN_KEYS)?;
        Ok(Self {
            seed: plan.int("seed")?,
            torn_write_rate: plan.rate("torn_write_rate")?,
            short_read_rate: plan.rate("short_read_rate")?,
            enospc_rate: plan.rate("enospc_rate")?,
            fsync_failure_rate: plan.rate("fsync_failure_rate")?,
            rename_failure_rate: plan.rate("rename_failure_rate")?,
            max_faults: plan.opt_int("max_faults")?,
            max_incarnations: plan.opt_int("max_incarnations")?,
        })
    }

    /// Loads and parses a plan file.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Io`] if the file cannot be read, plus the
    /// errors of [`parse_json`](Self::parse_json).
    pub fn load(path: &Path) -> Result<Self, PlanError> {
        Self::parse_json(&fs::read_to_string(path)?)
    }

    /// Whether the plan can never fire (every rate is zero).
    pub fn is_empty(&self) -> bool {
        self.torn_write_rate == 0.0
            && self.short_read_rate == 0.0
            && self.enospc_rate == 0.0
            && self.fsync_failure_rate == 0.0
            && self.rename_failure_rate == 0.0
    }
}

/// The operation kinds that keep independent per-path op-index counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A buffer write into an open file.
    Write,
    /// A read from an open file.
    Read,
    /// An `fsync` of a file or directory.
    Fsync,
    /// The publishing rename of an atomic write.
    Rename,
}

impl IoOp {
    fn counter_key(self) -> u64 {
        match self {
            IoOp::Write => 0,
            IoOp::Read => 1,
            IoOp::Fsync => 2,
            IoOp::Rename => 3,
        }
    }
}

/// The fault channels a single operation can roll on. `TornOffset` is not
/// a fault of its own: it is the auxiliary draw that places a torn write's
/// cut point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoChannel {
    TornWrite = 1,
    ShortRead = 2,
    Enospc = 3,
    FsyncFailure = 4,
    RenameFailure = 5,
    TornOffset = 6,
}

/// A stable hash of the file's final name component (FNV-1a). Hashing the
/// name rather than the full path keeps fault schedules identical when the
/// same logical file lives in a different directory (CI temp dirs, test
/// sandboxes).
pub fn path_hash(path: &Path) -> u64 {
    let name = path
        .file_name()
        .unwrap_or(path.as_os_str())
        .as_encoded_bytes();
    let mut fnv = Fnv::new();
    fnv.bytes(name);
    fnv.finish()
}

fn roll_bits(seed: u64, incarnation: u64, path: u64, channel: IoChannel, index: u64) -> u64 {
    let mut z = seed ^ 0xD6E8_FEB8_6659_FD93;
    z = splitmix64(z.wrapping_add(incarnation).wrapping_add(1));
    z = splitmix64(z.wrapping_add(path).wrapping_add(1));
    z = splitmix64(z.wrapping_add(channel as u64));
    z = splitmix64(z.wrapping_add(index).wrapping_add(1));
    z
}

fn bits_to_unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The stateless I/O fault draw: a uniform value in `[0, 1)` that is a
/// pure function of its inputs — the anchor of the layer's thread-count
/// and resume independence (see the [module docs](self)).
pub fn io_roll(seed: u64, incarnation: u64, path: u64, op: IoOp, index: u64) -> f64 {
    let channel = match op {
        IoOp::Write => IoChannel::TornWrite,
        IoOp::Read => IoChannel::ShortRead,
        IoOp::Fsync => IoChannel::FsyncFailure,
        IoOp::Rename => IoChannel::RenameFailure,
    };
    bits_to_unit(roll_bits(seed, incarnation, path, channel, index))
}

/// One I/O operation that actually reached the OS, in order — the trace a
/// recording policy keeps so tests can assert syscall ordering (e.g. that
/// [`AtomicFile::persist`](super::AtomicFile::persist) syncs the parent
/// directory *after* the rename).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoEvent {
    /// Bytes written into a file (under the target's final name).
    Write {
        /// The target path the write belongs to.
        path: PathBuf,
        /// Bytes that reached the file.
        bytes: u64,
    },
    /// An `fsync` of the file itself.
    FsyncFile {
        /// The target path.
        path: PathBuf,
    },
    /// The publishing rename.
    Rename {
        /// Source (temporary) path.
        from: PathBuf,
        /// Destination (final) path.
        to: PathBuf,
    },
    /// An `fsync` of a directory.
    FsyncDir {
        /// The directory synced.
        path: PathBuf,
    },
}

/// The `io.*` counters (see the obs conservation test: `io.faults_fired ==
/// io.faults_injected + io.faults_absorbed`, and `io.faults_injected` is
/// the sum of the per-kind counters).
#[derive(Debug, Clone)]
struct IoStats {
    ops: Counter,
    fired: Counter,
    injected: Counter,
    absorbed: Counter,
    torn_writes: Counter,
    short_reads: Counter,
    enospc: Counter,
    fsync_failures: Counter,
    rename_failures: Counter,
}

impl IoStats {
    fn new(ins: &Instruments) -> Self {
        Self {
            ops: ins.counter("io.ops"),
            fired: ins.counter("io.faults_fired"),
            injected: ins.counter("io.faults_injected"),
            absorbed: ins.counter("io.faults_absorbed"),
            torn_writes: ins.counter("io.torn_writes"),
            short_reads: ins.counter("io.short_reads"),
            enospc: ins.counter("io.enospc"),
            fsync_failures: ins.counter("io.fsync_failures"),
            rename_failures: ins.counter("io.rename_failures"),
        }
    }
}

#[derive(Debug)]
struct PolicyInner {
    plan: IoFaultPlan,
    incarnation: u64,
    injected: AtomicU64,
    /// `(path hash, op kind)` → next op index.
    indices: Mutex<BTreeMap<(u64, u64), u64>>,
    stats: Option<IoStats>,
    trace: Option<Mutex<Vec<IoEvent>>>,
}

/// A cloneable handle deciding, per I/O operation, whether to execute it
/// faithfully or inject a fault — the injectable I/O layer the store's
/// writers and salvage readers run through. Cloning shares the op-index
/// counters, so every clone sees one process-wide schedule.
#[derive(Debug, Clone)]
pub struct IoPolicy {
    inner: Arc<PolicyInner>,
}

impl IoPolicy {
    /// A policy executing `plan` as process incarnation `incarnation`
    /// (the supervisor's restart count; 0 for a first run).
    pub fn new(plan: IoFaultPlan, incarnation: u64) -> Self {
        Self {
            inner: Arc::new(PolicyInner {
                plan,
                incarnation,
                injected: AtomicU64::new(0),
                indices: Mutex::new(BTreeMap::new()),
                stats: None,
                trace: None,
            }),
        }
    }

    /// Attaches the `io.*` instruments. Call before cloning the policy
    /// into the store (builder style).
    #[must_use]
    pub fn instruments(mut self, ins: &Instruments) -> Self {
        let inner =
            Arc::get_mut(&mut self.inner).expect("attach instruments before cloning the policy");
        inner.stats = Some(IoStats::new(ins));
        self
    }

    /// A fault-free policy that records every operation reaching the OS —
    /// the probe the durability tests use to assert syscall ordering.
    pub fn recording() -> Self {
        let mut policy = Self::new(IoFaultPlan::default(), 0);
        let inner = Arc::get_mut(&mut policy.inner).expect("a new policy is not shared yet");
        inner.trace = Some(Mutex::new(Vec::new()));
        policy
    }

    /// The operations recorded so far (empty unless built with
    /// [`recording`](Self::recording)).
    pub fn events(&self) -> Vec<IoEvent> {
        self.inner
            .trace
            .as_ref()
            .map(|t| t.lock().expect("trace lock").clone())
            .unwrap_or_default()
    }

    /// The incarnation this policy was built for.
    pub fn incarnation(&self) -> u64 {
        self.inner.incarnation
    }

    fn armed(&self) -> bool {
        !self.inner.plan.is_empty()
            && self
                .inner
                .plan
                .max_incarnations
                .is_none_or(|cap| self.inner.incarnation < cap)
    }

    fn trace(&self, event: IoEvent) {
        if let Some(t) = &self.inner.trace {
            t.lock().expect("trace lock").push(event);
        }
    }

    fn next_index(&self, path: u64, op: IoOp) -> u64 {
        let mut map = self.inner.indices.lock().expect("op index lock");
        let slot = map.entry((path, op.counter_key())).or_insert(0);
        let index = *slot;
        *slot += 1;
        index
    }

    /// Rolls `channel` for op `index` on `path`; when the dice say fire,
    /// charges the plan's fault budget. Returns `true` only for a fault
    /// that is actually injected (not absorbed by `max_faults`).
    fn fires(&self, path: u64, channel: IoChannel, index: u64, rate: f64) -> bool {
        if rate == 0.0 {
            return false;
        }
        let plan = &self.inner.plan;
        if bits_to_unit(roll_bits(
            plan.seed,
            self.inner.incarnation,
            path,
            channel,
            index,
        )) >= rate
        {
            return false;
        }
        if let Some(s) = &self.inner.stats {
            s.fired.inc();
        }
        let budget_left = plan.max_faults.is_none_or(|cap| {
            // Charge the budget only while it lasts; concurrent clones
            // race benignly (the cap is a bound, not an exact count).
            let charged = self.inner.injected.fetch_add(1, Ordering::Relaxed);
            if charged < cap {
                true
            } else {
                self.inner.injected.fetch_sub(1, Ordering::Relaxed);
                false
            }
        });
        if let Some(s) = &self.inner.stats {
            if budget_left {
                s.injected.inc();
            } else {
                s.absorbed.inc();
            }
        }
        budget_left
    }

    /// Writes `buf` to `file` (opened under target `path`), possibly
    /// injecting `ENOSPC` (nothing written) or a torn write (an exact,
    /// deterministically chosen prefix written, then an error).
    ///
    /// # Errors
    ///
    /// Returns the underlying write error or the injected fault.
    pub fn write(&self, path: &Path, hash: u64, file: &mut File, buf: &[u8]) -> io::Result<usize> {
        if let Some(s) = &self.inner.stats {
            s.ops.inc();
        }
        if self.armed() {
            let plan = &self.inner.plan;
            let index = self.next_index(hash, IoOp::Write);
            if self.fires(hash, IoChannel::Enospc, index, plan.enospc_rate) {
                if let Some(s) = &self.inner.stats {
                    s.enospc.inc();
                }
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("injected ENOSPC on {} (write op {index})", path.display()),
                ));
            }
            if !buf.is_empty()
                && self.fires(hash, IoChannel::TornWrite, index, plan.torn_write_rate)
            {
                let cut = (roll_bits(
                    plan.seed,
                    self.inner.incarnation,
                    hash,
                    IoChannel::TornOffset,
                    index,
                ) % buf.len() as u64) as usize;
                file.write_all(&buf[..cut])?;
                self.trace(IoEvent::Write {
                    path: path.to_path_buf(),
                    bytes: cut as u64,
                });
                if let Some(s) = &self.inner.stats {
                    s.torn_writes.inc();
                }
                return Err(io::Error::other(format!(
                    "injected torn write on {}: wrote {cut} of {} bytes (write op {index})",
                    path.display(),
                    buf.len()
                )));
            }
        }
        file.write_all(buf)?;
        self.trace(IoEvent::Write {
            path: path.to_path_buf(),
            bytes: buf.len() as u64,
        });
        Ok(buf.len())
    }

    /// Syncs `file` (opened under target `path`), possibly injecting a
    /// failed fsync (in which case the data is *not* synced — exactly the
    /// durability loss a real fsync failure means).
    ///
    /// # Errors
    ///
    /// Returns the underlying sync error or the injected fault.
    pub fn fsync(&self, path: &Path, file: &File) -> io::Result<()> {
        let hash = path_hash(path);
        if let Some(s) = &self.inner.stats {
            s.ops.inc();
        }
        if self.armed() {
            let index = self.next_index(hash, IoOp::Fsync);
            if self.fires(
                hash,
                IoChannel::FsyncFailure,
                index,
                self.inner.plan.fsync_failure_rate,
            ) {
                if let Some(s) = &self.inner.stats {
                    s.fsync_failures.inc();
                }
                return Err(io::Error::other(format!(
                    "injected fsync failure on {} (fsync op {index})",
                    path.display()
                )));
            }
        }
        file.sync_all()?;
        self.trace(IoEvent::FsyncFile {
            path: path.to_path_buf(),
        });
        Ok(())
    }

    /// Renames `from` to `to` (the atomic publish), possibly injecting a
    /// failed rename (nothing moved).
    ///
    /// # Errors
    ///
    /// Returns the underlying rename error or the injected fault.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let hash = path_hash(to);
        if let Some(s) = &self.inner.stats {
            s.ops.inc();
        }
        if self.armed() {
            let index = self.next_index(hash, IoOp::Rename);
            if self.fires(
                hash,
                IoChannel::RenameFailure,
                index,
                self.inner.plan.rename_failure_rate,
            ) {
                if let Some(s) = &self.inner.stats {
                    s.rename_failures.inc();
                }
                return Err(io::Error::other(format!(
                    "injected rename failure {} -> {} (rename op {index})",
                    from.display(),
                    to.display()
                )));
            }
        }
        fs::rename(from, to)?;
        self.trace(IoEvent::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
        });
        Ok(())
    }

    /// Syncs directory `dir` (making a completed rename durable), on the
    /// same fsync fault channel as files.
    ///
    /// # Errors
    ///
    /// Returns the open/sync error or the injected fault.
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let hash = path_hash(dir);
        if let Some(s) = &self.inner.stats {
            s.ops.inc();
        }
        if self.armed() {
            let index = self.next_index(hash, IoOp::Fsync);
            if self.fires(
                hash,
                IoChannel::FsyncFailure,
                index,
                self.inner.plan.fsync_failure_rate,
            ) {
                if let Some(s) = &self.inner.stats {
                    s.fsync_failures.inc();
                }
                return Err(io::Error::other(format!(
                    "injected fsync failure on directory {} (fsync op {index})",
                    dir.display()
                )));
            }
        }
        File::open(dir)?.sync_all()?;
        self.trace(IoEvent::FsyncDir {
            path: dir.to_path_buf(),
        });
        Ok(())
    }

    fn short_read_fires(&self, hash: u64) -> Option<(u64, f64)> {
        if !self.armed() {
            return None;
        }
        if let Some(s) = &self.inner.stats {
            s.ops.inc();
        }
        let index = self.next_index(hash, IoOp::Read);
        if self.fires(
            hash,
            IoChannel::ShortRead,
            index,
            self.inner.plan.short_read_rate,
        ) {
            if let Some(s) = &self.inner.stats {
                s.short_reads.inc();
            }
            let unit = bits_to_unit(roll_bits(
                self.inner.plan.seed,
                self.inner.incarnation,
                hash,
                IoChannel::TornOffset,
                index,
            ));
            Some((index, unit))
        } else {
            None
        }
    }
}

/// A reader that subjects its inner stream to the policy's short-read
/// faults: a faulted read delivers a deterministic prefix of the requested
/// bytes, and the *next* read fails — the two-step shape of a real short
/// read followed by a transport error.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    policy: IoPolicy,
    hash: u64,
    path: PathBuf,
    pending: Option<io::Error>,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner` (reading from `path`) under `policy`.
    pub fn new(inner: R, policy: IoPolicy, path: &Path) -> Self {
        Self {
            inner,
            policy,
            hash: path_hash(path),
            path: path.to_path_buf(),
            pending: None,
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(e) = self.pending.take() {
            return Err(e);
        }
        match self.policy.short_read_fires(self.hash) {
            None => self.inner.read(buf),
            Some((index, unit)) => {
                let error = io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "injected short read on {} (read op {index})",
                        self.path.display()
                    ),
                );
                let cut = (unit * buf.len() as f64) as usize;
                if cut == 0 || buf.is_empty() {
                    return Err(error);
                }
                let cut = cut.min(buf.len());
                let got = self.inner.read(&mut buf[..cut])?;
                if got == 0 {
                    return Err(error);
                }
                self.pending = Some(error);
                Ok(got)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(torn: f64) -> IoFaultPlan {
        IoFaultPlan {
            seed: 42,
            torn_write_rate: torn,
            short_read_rate: 0.0,
            enospc_rate: 0.0,
            fsync_failure_rate: 0.0,
            rename_failure_rate: 0.0,
            max_faults: None,
            max_incarnations: None,
        }
    }

    #[test]
    fn rolls_are_pure_functions_of_their_inputs() {
        let a = io_roll(1, 0, 99, IoOp::Write, 5);
        let b = io_roll(1, 0, 99, IoOp::Write, 5);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        // Each coordinate perturbs the draw.
        assert_ne!(a, io_roll(2, 0, 99, IoOp::Write, 5));
        assert_ne!(a, io_roll(1, 1, 99, IoOp::Write, 5));
        assert_ne!(a, io_roll(1, 0, 98, IoOp::Write, 5));
        assert_ne!(a, io_roll(1, 0, 99, IoOp::Write, 6));
        assert_ne!(a, io_roll(1, 0, 99, IoOp::Fsync, 5));
    }

    #[test]
    fn plan_parses_and_rejects_unknown_fields() {
        let plan =
            IoFaultPlan::parse_json(r#"{"seed": 3, "torn_write_rate": 0.5, "max_faults": 2}"#)
                .unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.torn_write_rate, 0.5);
        assert_eq!(plan.max_faults, Some(2));
        assert!(!plan.is_empty());

        assert!(matches!(
            IoFaultPlan::parse_json(r#"{"seed": 3, "torn_rate": 0.5}"#),
            Err(PlanError::Invalid(_))
        ));
        assert!(matches!(
            IoFaultPlan::parse_json(r#"{"torn_write_rate": 0.5}"#),
            Err(PlanError::Invalid(_))
        ));
        assert!(matches!(
            IoFaultPlan::parse_json(r#"{"seed": 1, "enospc_rate": 1.5}"#),
            Err(PlanError::Invalid(_))
        ));
        assert!(matches!(
            IoFaultPlan::parse_json("not json"),
            Err(PlanError::Json(_))
        ));
        let cases = [
            (r#"{"seed": 3, "torn_rate": 0.5}"#, "unknown field"),
            (r#"{"torn_write_rate": 0.5}"#, "`seed`"),
            (r#"{"seed": 1, "enospc_rate": 1.5}"#, "probability"),
            (r#"{"seed": 1, "max_faults": -1}"#, "non-negative integer"),
            ("[1]", "object"),
        ];
        for (spec, needle) in cases {
            let msg = IoFaultPlan::parse_json(spec).unwrap_err().to_string();
            assert!(msg.contains(needle), "spec {spec} gave: {msg}");
        }
        let plan = IoFaultPlan::parse_json(r#"{"seed": 3, "max_faults": null}"#).unwrap();
        assert_eq!(plan.max_faults, None);
    }

    #[test]
    fn empty_plan_never_fires() {
        let policy = IoPolicy::new(plan(0.0), 0);
        assert!(!policy.armed());
    }

    #[test]
    fn max_incarnations_disarms_the_plan() {
        let mut p = plan(1.0);
        p.max_incarnations = Some(2);
        assert!(IoPolicy::new(p.clone(), 0).armed());
        assert!(IoPolicy::new(p.clone(), 1).armed());
        assert!(!IoPolicy::new(p, 2).armed());
    }

    #[test]
    fn max_faults_absorbs_later_draws() {
        let mut p = plan(1.0);
        p.max_faults = Some(2);
        let policy = IoPolicy::new(p, 0);
        let fired: Vec<bool> = (0..5)
            .map(|i| policy.fires(7, IoChannel::TornWrite, i, 1.0))
            .collect();
        assert_eq!(fired, vec![true, true, false, false, false]);
    }

    #[test]
    fn path_hash_covers_only_the_file_name() {
        assert_eq!(
            path_hash(Path::new("/tmp/a/records.pufrec")),
            path_hash(Path::new("/var/b/records.pufrec")),
        );
        assert_ne!(
            path_hash(Path::new("records.pufrec")),
            path_hash(Path::new("records.pufrec.tmp")),
        );
    }

    #[test]
    fn faulty_reader_delivers_a_prefix_then_fails() {
        let mut p = plan(0.0);
        p.short_read_rate = 1.0;
        let policy = IoPolicy::new(p, 0);
        let data = [7u8; 64];
        let mut reader = FaultyReader::new(&data[..], policy, Path::new("x.bin"));
        let mut buf = [0u8; 32];
        let mut delivered = 0usize;
        let err = loop {
            match reader.read(&mut buf) {
                Ok(n) => delivered += n,
                Err(e) => break e,
            }
        };
        assert!(delivered < 64, "short read must not deliver everything");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("injected short read"));
    }
}
