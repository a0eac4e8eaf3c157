//! The power-cycle waveform of the measurement rig (paper Fig. 3).

/// A periodic power waveform: `period_s` seconds per cycle, the first
/// `on_s` of which the supply is high, phase-shifted by `offset_s`.
///
/// The paper's oscilloscope trace (Fig. 3) shows a 5.4 s period with 3.8 s
/// power-on and 1.6 s power-off; boards on the same layer switch together
/// and the two layers are deliberately unsynchronized.
///
/// # Examples
///
/// ```
/// use puftestbed::PowerWaveform;
///
/// let w = PowerWaveform::paper_layer(0);
/// assert!((w.period_s() - 5.4).abs() < 1e-12);
/// assert!(w.is_on(0.1));
/// assert!(!w.is_on(4.0)); // 3.8 s on, then off
/// assert!((w.duty() - 3.8 / 5.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerWaveform {
    period_s: f64,
    on_s: f64,
    offset_s: f64,
}

impl PowerWaveform {
    /// Creates a waveform.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < on_s <= period_s` and `offset_s` is finite.
    pub fn new(period_s: f64, on_s: f64, offset_s: f64) -> Self {
        assert!(
            period_s > 0.0 && on_s > 0.0 && on_s <= period_s,
            "invalid waveform: period {period_s}, on {on_s}"
        );
        assert!(offset_s.is_finite(), "offset must be finite");
        Self {
            period_s,
            on_s,
            offset_s,
        }
    }

    /// The paper's waveform for `layer` (0 or 1): 5.4 s period, 3.8 s on,
    /// with layer 1 shifted half a period so the layers never switch
    /// simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `layer > 1`.
    pub fn paper_layer(layer: u8) -> Self {
        assert!(layer <= 1, "the rig has two layers, got layer {layer}");
        Self::new(5.4, 3.8, f64::from(layer) * 2.7)
    }

    /// Cycle period in seconds.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Power-on time per cycle in seconds.
    pub fn on_s(&self) -> f64 {
        self.on_s
    }

    /// Power-off time per cycle in seconds.
    pub fn off_s(&self) -> f64 {
        self.period_s - self.on_s
    }

    /// Phase offset in seconds.
    pub fn offset_s(&self) -> f64 {
        self.offset_s
    }

    /// Fraction of time the supply is high — the BTI stress duty.
    pub fn duty(&self) -> f64 {
        self.on_s / self.period_s
    }

    /// Whether the supply is high at time `t` seconds.
    pub fn is_on(&self, t: f64) -> bool {
        let phase = (t - self.offset_s).rem_euclid(self.period_s);
        phase < self.on_s
    }

    /// Samples the waveform into `(t, on)` pairs with step `dt` — the
    /// digital equivalent of the paper's oscilloscope capture.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    pub fn trace(&self, t0: f64, t1: f64, dt: f64) -> Vec<(f64, bool)> {
        assert!(dt > 0.0 && t1 >= t0, "invalid trace window");
        let n = ((t1 - t0) / dt) as usize;
        (0..=n)
            .map(|i| {
                let t = t0 + i as f64 * dt;
                (t, self.is_on(t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_waveform_timing() {
        let w = PowerWaveform::paper_layer(0);
        assert!((w.off_s() - 1.6).abs() < 1e-12);
        // On for [0, 3.8), off for [3.8, 5.4), repeating.
        assert!(w.is_on(0.0));
        assert!(w.is_on(3.79));
        assert!(!w.is_on(3.81));
        assert!(!w.is_on(5.39));
        assert!(w.is_on(5.41));
    }

    #[test]
    fn layers_are_unsynchronized() {
        let l0 = PowerWaveform::paper_layer(0);
        let l1 = PowerWaveform::paper_layer(1);
        // At the instant layer 0 switches off (t = 3.8), layer 1 is on.
        assert!(!l0.is_on(3.9));
        assert!(l1.is_on(3.9));
        // The rising edges never coincide: layer 1's trail layer 0's by
        // half a period.
        let shift = (l1.offset_s() - l0.offset_s()).rem_euclid(l0.period_s());
        assert!((shift - l0.period_s() / 2.0).abs() < 1e-12, "shift {shift}");
    }

    #[test]
    fn negative_time_is_handled() {
        let w = PowerWaveform::paper_layer(0);
        // rem_euclid keeps the phase positive.
        assert_eq!(w.is_on(-5.4), w.is_on(0.0));
        assert!(!w.is_on(-0.1)); // the off-time before cycle 0
    }

    #[test]
    fn trace_covers_window() {
        let w = PowerWaveform::paper_layer(0);
        let trace = w.trace(0.0, 10.8, 0.1);
        assert_eq!(trace.len(), 109);
        let on_count = trace.iter().filter(|(_, on)| *on).count();
        // ≈ duty fraction of samples.
        let duty_hat = on_count as f64 / trace.len() as f64;
        assert!((duty_hat - w.duty()).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "two layers")]
    fn third_layer_rejected() {
        PowerWaveform::paper_layer(2);
    }

    #[test]
    #[should_panic(expected = "invalid waveform")]
    fn on_longer_than_period_rejected() {
        PowerWaveform::new(5.0, 6.0, 0.0);
    }
}
