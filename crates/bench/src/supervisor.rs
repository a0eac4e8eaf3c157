//! Crash-restarting supervisor for campaign children.
//!
//! Runs the `campaign` binary as a child process and keeps it making
//! progress: a child that exits non-zero (an injected I/O fault, a real
//! disk error, a `kill -9`) is restarted from the newest checkpoint that
//! still verifies, after a capped exponential backoff and within a bounded
//! restart budget. A child that stops touching its output and checkpoint
//! files for longer than the stall timeout is killed and restarted the
//! same way.
//!
//! Checkpoint generations (`FILE`, `FILE.1`, … — see
//! [`checkpoint::generation_path`]) are tried newest first; a generation
//! whose framing or CRC no longer verifies is *quarantined* (renamed to
//! `<gen>.quarantined-<n>`, preserving the evidence) and the next older
//! one is tried. Because the campaign's resume path replays exactly the
//! records the checkpoint claims and discards any torn tail, the final
//! output of a supervised, repeatedly-killed run is byte-identical to an
//! uninterrupted one — that equivalence is what the CI torture job
//! asserts with `cmp`.
//!
//! Restart counts are passed to the child as `--io-incarnation` (only
//! when the child runs under `--io-faults`), so each incarnation draws a
//! fresh deterministic fault schedule: a plan that killed incarnation 0 at
//! write op 7 will not deterministically kill every retry at the same op.
//! Fault plans can also disarm themselves after K incarnations
//! (`max_incarnations`), making a supervised torture run provably
//! terminate within its restart budget.

use pufobs::Instruments;
use puftestbed::store::atomic::tmp_path;
use puftestbed::store::checkpoint;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant, SystemTime};

/// Restart and watchdog policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How many restarts the run may consume before the supervisor gives
    /// up (the first launch is not a restart).
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per restart.
    pub backoff: Duration,
    /// Upper bound on the (exponentially growing) backoff.
    pub max_backoff: Duration,
    /// A child whose output/checkpoint files all stay untouched this long
    /// is considered stalled and killed.
    pub stall_timeout: Duration,
    /// How often the watchdog samples child status and file mtimes.
    pub poll: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_restarts: 10,
            backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(10),
            stall_timeout: Duration::from_secs(60),
            poll: Duration::from_millis(50),
        }
    }
}

/// The child command line, with the paths the watchdog and resume logic
/// need parsed out of it.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// The program to run (normally the `campaign` binary).
    pub program: String,
    /// Its arguments, verbatim. `--resume-from` and `--io-incarnation`
    /// are appended by the supervisor per incarnation and must not appear
    /// here.
    pub args: Vec<String>,
    /// The child's `--out` target, watched for progress.
    pub out: Option<PathBuf>,
    /// The child's `--checkpoint-out` target: the restart point.
    pub checkpoint: Option<PathBuf>,
    /// The child's `--checkpoint-keep` (generations available to fall
    /// back through), default 1.
    pub checkpoint_keep: u32,
    /// Whether the child runs under `--io-faults` (and so understands
    /// `--io-incarnation`).
    pub io_faulted: bool,
}

impl ChildSpec {
    /// Parses a child command line (`program arg…`). Flags the supervisor
    /// owns (`--resume-from`, `--io-incarnation`) are rejected: the whole
    /// point is that the supervisor decides where each incarnation resumes
    /// from.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (program, args) = argv.split_first().ok_or("empty child command after `--`")?;
        let mut spec = Self {
            program: program.clone(),
            args: args.to_vec(),
            out: None,
            checkpoint: None,
            checkpoint_keep: 1,
            io_faulted: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--resume-from" | "--io-incarnation" => {
                    return Err(format!(
                        "{arg} belongs to the supervisor: it picks the checkpoint and \
                         incarnation for every restart"
                    ));
                }
                "--out" => spec.out = iter.next().map(PathBuf::from),
                "--checkpoint-out" => spec.checkpoint = iter.next().map(PathBuf::from),
                "--checkpoint-keep" => {
                    spec.checkpoint_keep = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--checkpoint-keep needs a positive integer")?;
                }
                "--io-faults" => {
                    spec.io_faulted = true;
                    iter.next();
                }
                _ => {}
            }
        }
        if spec.checkpoint.is_none() {
            return Err(
                "child command has no --checkpoint-out FILE: without checkpoints there is \
                 nothing to restart from"
                    .into(),
            );
        }
        Ok(spec)
    }

    /// The files whose mtimes count as progress for the stall watchdog: the
    /// output and the checkpoint, each with the temporary file that
    /// [`tmp_path`] names for it.
    fn watched_paths(&self) -> Vec<PathBuf> {
        let mut paths = Vec::new();
        if let Some(out) = &self.out {
            paths.push(out.clone());
            paths.push(tmp_path(out));
        }
        if let Some(ckpt) = &self.checkpoint {
            paths.push(ckpt.clone());
            paths.push(tmp_path(ckpt));
        }
        paths
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The child completed cleanly after `restarts` restarts.
    Completed {
        /// Restarts consumed before the clean exit.
        restarts: u32,
    },
    /// The restart budget ran out before a clean exit.
    BudgetExhausted {
        /// Restarts consumed (equals the configured budget).
        restarts: u32,
    },
}

/// The `supervisor.*` counters, mirroring the `io.*` discipline: the
/// conservation identity `supervisor.restarts == supervisor.child_exits -
/// supervisor.clean_exits` holds exactly for every run that ends in
/// [`Outcome::Completed`].
struct SupervisorStats {
    child_exits: pufobs::Counter,
    clean_exits: pufobs::Counter,
    restarts: pufobs::Counter,
    stall_kills: pufobs::Counter,
    quarantined: pufobs::Counter,
    backoff_ms: pufobs::Counter,
}

impl SupervisorStats {
    fn new(ins: &Instruments) -> Self {
        Self {
            child_exits: ins.counter("supervisor.child_exits"),
            clean_exits: ins.counter("supervisor.clean_exits"),
            restarts: ins.counter("supervisor.restarts"),
            stall_kills: ins.counter("supervisor.stall_kills"),
            quarantined: ins.counter("supervisor.checkpoints_quarantined"),
            backoff_ms: ins.counter("supervisor.backoff_ms"),
        }
    }
}

/// Finds the newest checkpoint generation that still verifies, renaming
/// every newer, damaged generation to `<gen>.quarantined-<n>` (evidence is
/// preserved, and the damaged file can no longer shadow an older intact
/// one). Returns the path to resume from, or `None` when no generation
/// survives (the campaign then restarts from scratch).
pub fn newest_valid_checkpoint(
    path: &Path,
    keep: u32,
    mut on_quarantine: impl FnMut(&Path, &Path),
) -> Option<PathBuf> {
    for generation in 0..keep.max(1) {
        let candidate = checkpoint::generation_path(path, generation);
        if !candidate.exists() {
            continue;
        }
        match checkpoint::read_file(&candidate) {
            Ok(_) => return Some(candidate),
            Err(_) => {
                let jail = quarantine_name(&candidate);
                if std::fs::rename(&candidate, &jail).is_ok() {
                    on_quarantine(&candidate, &jail);
                }
            }
        }
    }
    None
}

fn quarantine_name(path: &Path) -> PathBuf {
    for n in 0.. {
        let mut name = path.as_os_str().to_os_string();
        name.push(format!(".quarantined-{n}"));
        let candidate = PathBuf::from(name);
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("some quarantine suffix is free")
}

/// Runs the child to completion under the restart policy. Returns the
/// outcome; spawn failures (program not found) are hard errors.
pub fn run(
    spec: &ChildSpec,
    config: &SupervisorConfig,
    ins: Option<&Instruments>,
) -> io::Result<Outcome> {
    let stats = ins.map(SupervisorStats::new);
    let mut restarts = 0u32;
    loop {
        let resume = spec.checkpoint.as_deref().and_then(|ckpt| {
            newest_valid_checkpoint(ckpt, spec.checkpoint_keep, |from, to| {
                eprintln!(
                    "supervisor: checkpoint {} failed verification, quarantined as {}",
                    from.display(),
                    to.display()
                );
                if let Some(s) = &stats {
                    s.quarantined.inc();
                }
            })
        });
        let mut command = Command::new(&spec.program);
        command.args(&spec.args);
        match &resume {
            Some(ckpt) => {
                eprintln!(
                    "supervisor: incarnation {restarts} resumes from {}",
                    ckpt.display()
                );
                command.arg("--resume-from").arg(ckpt);
            }
            None if restarts > 0 => {
                eprintln!("supervisor: incarnation {restarts} restarts from scratch");
            }
            None => {}
        }
        if spec.io_faulted {
            command.arg("--io-incarnation").arg(restarts.to_string());
        }
        let mut child = command.spawn()?;
        let status = watch(&mut child, spec, config, stats.as_ref())?;
        if let Some(s) = &stats {
            s.child_exits.inc();
        }
        if status {
            if let Some(s) = &stats {
                s.clean_exits.inc();
            }
            return Ok(Outcome::Completed { restarts });
        }
        if restarts >= config.max_restarts {
            return Ok(Outcome::BudgetExhausted { restarts });
        }
        // Capped exponential backoff: backoff · 2^restarts, saturating.
        let factor = 1u64 << restarts.min(20);
        let wait = config
            .backoff
            .saturating_mul(u32::try_from(factor.min(u64::from(u32::MAX))).unwrap_or(u32::MAX))
            .min(config.max_backoff);
        if let Some(s) = &stats {
            s.backoff_ms.add(wait.as_millis() as u64);
        }
        std::thread::sleep(wait);
        restarts += 1;
        if let Some(s) = &stats {
            s.restarts.inc();
        }
    }
}

/// Waits for the child while running the stall watchdog. Returns whether
/// the child exited cleanly; a stalled child is killed (and reported as an
/// unclean exit).
fn watch(
    child: &mut Child,
    spec: &ChildSpec,
    config: &SupervisorConfig,
    stats: Option<&SupervisorStats>,
) -> io::Result<bool> {
    let watched = spec.watched_paths();
    let mut last_stamp = progress_stamp(&watched);
    let mut last_change = Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status.success());
        }
        let stamp = progress_stamp(&watched);
        if stamp != last_stamp {
            last_stamp = stamp;
            last_change = Instant::now();
        } else if last_change.elapsed() >= config.stall_timeout {
            eprintln!(
                "supervisor: no file progress for {:?}, killing stalled child",
                config.stall_timeout
            );
            if let Some(s) = stats {
                s.stall_kills.inc();
            }
            child.kill()?;
            child.wait()?;
            return Ok(false);
        }
        std::thread::sleep(config.poll);
    }
}

/// A fingerprint of "the child is getting somewhere": the newest mtime
/// (and the sizes) of the watched files. Size is included because a file
/// rewritten within mtime granularity still counts as progress.
fn progress_stamp(paths: &[PathBuf]) -> Vec<Option<(SystemTime, u64)>> {
    paths
        .iter()
        .map(|p| {
            std::fs::metadata(p)
                .ok()
                .and_then(|m| m.modified().ok().map(|t| (t, m.len())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pufsup-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn child_spec_extracts_paths_and_rejects_supervisor_flags() {
        let spec = ChildSpec::parse(&args(&[
            "campaign",
            "--out",
            "rec.pufrec",
            "--checkpoint-out",
            "ck.pufchk",
            "--checkpoint-keep",
            "3",
            "--io-faults",
            "plan.json",
        ]))
        .unwrap();
        assert_eq!(spec.out.as_deref(), Some(Path::new("rec.pufrec")));
        assert_eq!(spec.checkpoint.as_deref(), Some(Path::new("ck.pufchk")));
        assert_eq!(spec.checkpoint_keep, 3);
        assert!(spec.io_faulted);

        let err = ChildSpec::parse(&args(&[
            "campaign",
            "--checkpoint-out",
            "ck",
            "--resume-from",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("--resume-from"), "{err}");

        let err = ChildSpec::parse(&args(&["campaign", "--out", "rec"])).unwrap_err();
        assert!(err.contains("--checkpoint-out"), "{err}");
    }

    /// Writes a genuine, verifiable checkpoint by running a tiny campaign.
    fn real_checkpoint(path: &Path) {
        let config = puftestbed::CampaignConfig {
            boards: 1,
            months: 1,
            reads_per_window: 1,
            read_bits: 16,
            sram_bits: 16,
            ..Default::default()
        };
        let mut sink = Vec::<puftestbed::Record>::new();
        puftestbed::Campaign::new(config, 7)
            .checkpoints(1, path)
            .run(&mut sink)
            .unwrap();
        assert!(path.exists());
    }

    #[test]
    fn newest_valid_checkpoint_quarantines_and_falls_back() {
        let dir = temp("fallback");
        let ckpt = dir.join("ck.pufchk");
        // Generation 1 (older) is a real checkpoint; generation 0 (newer)
        // is torn garbage.
        real_checkpoint(&checkpoint::generation_path(&ckpt, 1));
        fs::write(&ckpt, b"pufchk torn garbage").unwrap();

        let mut quarantined = Vec::new();
        let found = newest_valid_checkpoint(&ckpt, 3, |from, to| {
            quarantined.push((from.to_path_buf(), to.to_path_buf()));
        })
        .expect("generation 1 survives");
        assert_eq!(found, checkpoint::generation_path(&ckpt, 1));
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].0, ckpt);
        assert!(quarantined[0].1.exists(), "evidence preserved");
        assert!(!ckpt.exists(), "damaged generation renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_checkpoint_none_when_everything_is_damaged() {
        let dir = temp("alldead");
        let ckpt = dir.join("ck.pufchk");
        fs::write(&ckpt, b"nope").unwrap();
        let mut count = 0;
        assert!(newest_valid_checkpoint(&ckpt, 2, |_, _| count += 1).is_none());
        assert_eq!(count, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
