//! Runs a campaign under the crash-restarting supervisor.
//!
//! ```text
//! supervise [--max-restarts N] [--backoff-ms N] [--max-backoff-ms N]
//!           [--stall-timeout-s N] [--poll-ms N] [--metrics-out FILE]
//!           -- CAMPAIGN-COMMAND…
//! ```
//!
//! Everything after `--` is the child command, normally the `campaign`
//! binary with its own flags. It must include `--checkpoint-out FILE`
//! (the restart point); it must *not* include `--resume-from` or
//! `--io-incarnation` — the supervisor appends those itself for every
//! incarnation, resuming from the newest checkpoint generation that still
//! verifies (damaged ones are quarantined as `<gen>.quarantined-<n>` and
//! an older generation is used instead; give the child
//! `--checkpoint-keep K` to retain fallback generations).
//!
//! A child that exits non-zero — an injected I/O fault, a real disk
//! error, an external `kill -9` — is restarted after a capped exponential
//! backoff, up to `--max-restarts` times. A child whose output and
//! checkpoint files all stay untouched for `--stall-timeout-s` is killed
//! and restarted the same way. Because the campaign's resume path replays
//! exactly the records the checkpoint claims and discards any torn tail,
//! the supervised run's final output is byte-identical to an
//! uninterrupted run.
//!
//! `--metrics-out` writes the `supervisor.*` counters as a `pufobs/1`
//! snapshot; `supervisor.restarts == supervisor.child_exits -
//! supervisor.clean_exits` holds for every supervised run that completes.
//! Exits 0 when the child completed, 1 when the restart budget ran out.

use pufbench::supervisor::{self, ChildSpec, Outcome, SupervisorConfig};
use pufbench::{cli, metrics};
use pufobs::Instruments;
use std::process::exit;
use std::time::Duration;

fn main() {
    let mut config = SupervisorConfig::default();
    let mut metrics_out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let split = args.iter().position(|a| a == "--");
    let (own, child) = match split {
        Some(at) => (&args[..at], &args[at + 1..]),
        None => (&args[..], &args[..0]),
    };

    let mut flags = cli::Args::new(own.to_vec());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--max-restarts" => config.max_restarts = flags.parse(&arg),
            "--backoff-ms" => config.backoff = Duration::from_millis(flags.parse(&arg)),
            "--max-backoff-ms" => config.max_backoff = Duration::from_millis(flags.parse(&arg)),
            "--stall-timeout-s" => config.stall_timeout = Duration::from_secs(flags.parse(&arg)),
            "--poll-ms" => config.poll = Duration::from_millis(flags.parse(&arg)),
            "--metrics-out" => metrics_out = Some(flags.value(&arg)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: supervise [--max-restarts N] [--backoff-ms N] \
                     [--max-backoff-ms N] [--stall-timeout-s N] [--poll-ms N] \
                     [--metrics-out FILE] -- CAMPAIGN-COMMAND…"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                exit(2);
            }
        }
    }
    let spec = ChildSpec::parse(child).unwrap_or_else(|e| {
        eprintln!("bad child command: {e} (try --help)");
        exit(2);
    });

    let obs = metrics_out.as_ref().map(|_| Instruments::new());
    let outcome = supervisor::run(&spec, &config, obs.as_ref()).unwrap_or_else(|e| {
        eprintln!("cannot run {}: {e}", spec.program);
        exit(1);
    });
    if let (Some(path), Some(ins)) = (&metrics_out, &obs) {
        match metrics::write_metrics(path, ins) {
            Ok(()) => eprintln!("wrote metrics snapshot to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    match outcome {
        Outcome::Completed { restarts } => {
            eprintln!("supervise: child completed after {restarts} restart(s)");
        }
        Outcome::BudgetExhausted { restarts } => {
            eprintln!(
                "supervise: giving up — restart budget of {restarts} exhausted without a \
                 clean exit"
            );
            exit(1);
        }
    }
}
