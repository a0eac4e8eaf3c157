//! In-process pipeline benchmark of the SRAM PUF reproduction.
//!
//! Four workloads — `campaign`, `assess`, `keylife` and `repro` — each make
//! the same public calls, in the same order, as the binary they are named
//! after, on inputs generated from a seed, and check every output. A plain
//! run reports end-to-end metrics; a traced run of the same program puts a
//! span around each call into a crate and reports per-layer metrics. See
//! this package's `README.md` for the metrics and what moves them.

pub mod layers;
pub mod measure;
pub mod replay;
pub mod trace;
pub mod workloads;
