//! When the rig captures its read-outs.
//!
//! The paper's Algorithm 1 has the two layer masters hand the power cycle
//! back and forth by signal; what that leaves in the data is a timetable,
//! and the campaign runner computes the timetable directly. Every board
//! powers up on its layer's [`PowerWaveform`](crate::PowerWaveform) (a
//! 5.4 s period, layer 1 half a period behind layer 0, so the layers never
//! switch at the same instant) and captures its read-out
//! [`READOUT_DELAY_S`] after the rising edge. Read `k` of an evaluation
//! window therefore lands at `window start + k · period + layer offset +
//! READOUT_DELAY_S`, plus any clock skew a [`FaultPlan`](crate::FaultPlan)
//! injects.

/// Delay from a layer's rising edge to its read-out capture, seconds.
/// (Power settle plus the SRAM read, well inside the 3.8 s on-window.)
pub const READOUT_DELAY_S: f64 = 0.5;
