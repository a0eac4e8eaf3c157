//! SRAM PUF long-term assessment: reliability, uniqueness, and randomness
//! evaluation protocols.
//!
//! This crate is the reproduction of the paper's primary contribution — the
//! evaluation methodology of its §IV applied to a two-year continuous
//! measurement campaign:
//!
//! * [`metrics`] — the three base metrics of §IV-A: within-class Hamming
//!   distance (reliability), between-class Hamming distance (uniqueness),
//!   and fractional Hamming weight (bias), plus their Fig. 5 histograms.
//! * [`entropy`] — PUF min-entropy across devices (§IV-B4) and noise
//!   min-entropy within a device (§IV-C2).
//! * [`monthly`] — the selection rule of §IV-B: "the first 1 000 consecutive
//!   measurements after midnight on the 8th of each month".
//! * [`assessment`] — the full pipeline from a campaign's records to
//!   per-device monthly metrics and cross-device aggregates (Fig. 6).
//! * [`streaming`] — the same pipeline in bounded memory: records fold one
//!   at a time into per-(device, month) accumulators, so paper-scale
//!   campaigns assess without retaining read-outs.
//! * [`keylife`] — the key-lifetime workload: enroll a fuzzy-extractor key
//!   per device, replay every later device-month through reconstruction,
//!   and report observed monthly key-failure rates next to the analytic
//!   WCHD-derived bound.
//! * [`table1`] — the paper's Table I: start/end values, relative change,
//!   and compound monthly change, average and worst-case over devices.
//! * [`visualize`] — the start-up pattern raster of Fig. 4.
//! * [`report`] — text/CSV rendering of all of the above.
//!
//! # Quick start
//!
//! ```
//! use pufassess::{monthly::EvaluationProtocol, streaming::WindowAccumulator};
//! use puftestbed::{Campaign, CampaignConfig};
//!
//! // A miniature campaign (the full paper scale is the default config).
//! let config = CampaignConfig {
//!     boards: 4,
//!     sram_bits: 1024,
//!     read_bits: 1024,
//!     months: 3,
//!     reads_per_window: 30,
//!     ..CampaignConfig::default()
//! };
//! let protocol = EvaluationProtocol { reads_per_window: 30, ..EvaluationProtocol::default() };
//! // Records fold into the assessment as the campaign emits them.
//! let mut accumulator = WindowAccumulator::new(protocol);
//! Campaign::new(config, 11).run(&mut accumulator)?;
//! let assessment = accumulator.finish()?;
//! assert_eq!(assessment.months(), 4); // months 0..=3
//! let table = assessment.table1();
//! assert!(table.wchd.end_avg > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod assessment;
pub mod entropy;
pub mod fit;
pub mod keylife;
pub mod metrics;
pub mod monthly;
pub mod report;
pub mod streaming;
pub mod table1;
pub mod visualize;

pub use assessment::{AssessError, Assessment, CoverageReport, MonthCoverage};
pub use keylife::{KeyLife, KeyLifeAccumulator, KeyLifeConfig, KeyLifeError, KeyProfile};
pub use monthly::EvaluationProtocol;
pub use streaming::WindowAccumulator;
pub use table1::Table1;
