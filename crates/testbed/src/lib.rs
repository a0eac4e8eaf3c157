//! Simulated measurement rig: Arduino boards, I2C links, power waveforms,
//! campaign runner, record store.
//!
//! This crate reproduces the paper's §III measurement setup (Fig. 2) in
//! software, to the level the analysis sees: which read-outs exist and when
//! each was taken.
//!
//! * **16 boards** ([`SlaveBoard`]), each an ATmega32u4 with 2.5 KB of SRAM
//!   of which the first 1 KB is read out per power cycle, stacked in two
//!   layers (even board indices on layer 0, odd on layer 1);
//! * one simulated **I2C link** per board ([`i2c`]) with Wire-style 32-byte
//!   chunking and a CRC, carrying every read-out to the sink;
//! * one **power waveform** per layer ([`PowerWaveform`], Fig. 3): a 5.4 s
//!   power cycle (3.8 s on / 1.6 s off), layer 1 half a period behind
//!   layer 0 so the layers never switch at the same instant. A board's
//!   read-out is captured [`schedule::READOUT_DELAY_S`] after its layer's
//!   rising edge, so each board reads about 11 times a minute and every
//!   board reads equally often;
//! * a **Raspberry-Pi-style data sink** ([`store`]) persisting read-outs as
//!   JSON lines or binary `pufrec/1` records.
//!
//! The paper's master boards, power-switch board and the Algorithm-1
//! handshake between the layers are not modelled one by one: they decide
//! only when each board powers up, and the waveforms give that timetable.
//!
//! The [`Campaign`] runner ties these together and drives the devices through
//! months of simulated aging. Because the paper's own analysis only consumes
//! the first 1 000 measurements after midnight on the 8th of each month, the
//! runner supports both *continuous* measurement (every cycle, faithful but
//! expensive) and *windowed* measurement (only the evaluation windows are
//! simulated, with sequence numbers and timestamps still accounting for every
//! skipped cycle — statistically identical because aging depends on powered
//! wall-time, not on whether a read-out was recorded).
//!
//! # Examples
//!
//! ```
//! use puftestbed::{Campaign, CampaignConfig};
//!
//! // A miniature two-month campaign over 4 boards.
//! let config = CampaignConfig {
//!     boards: 4,
//!     read_bits: 512,
//!     sram_bits: 512,
//!     months: 2,
//!     reads_per_window: 20,
//!     ..CampaignConfig::default()
//! };
//! let mut campaign = Campaign::new(config, 42);
//! let mut records = Vec::new();
//! let summary = campaign.run(&mut records)?;
//! // Three windows: month 0 (start), month 1, month 2.
//! assert_eq!(summary.windows, 3);
//! assert_eq!(records.len(), 4 * 3 * 20);
//! // Board 3 alone: 3 windows × 20 reads.
//! assert_eq!(records.iter().filter(|r| r.device.0 == 3).count(), 3 * 20);
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod board;
pub mod faults;
pub mod i2c;
pub mod schedule;
pub mod store;
mod time;
mod waveform;

mod campaign;

pub use board::{BoardId, SlaveBoard, SlaveBoardState};
pub use campaign::{
    board_stream_seed, Campaign, CampaignConfig, CampaignSummary, MeasurementPlan, MAX_BOARDS,
};
pub use faults::{FaultPlan, FaultTally, GapCause, GapRecord, PlanError};
pub use store::{BoardState, CampaignState, CheckpointError, Record, RecordSink};
pub use time::{days_in_month, CalendarDate, DateTime, Timestamp};
pub use waveform::PowerWaveform;
