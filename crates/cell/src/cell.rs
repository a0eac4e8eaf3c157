//! A single 6T SRAM cell.

use pufstats::normal::{phi, sample_standard};
use rand::Rng;

/// One 6T SRAM cell, reduced to its static mismatch.
///
/// The mismatch is the effective threshold-voltage imbalance between the
/// cell's cross-coupled inverters in units of the power-up noise sigma; its
/// sign selects the preferred power-up state and its magnitude the strength
/// of that preference. Aging (`sramaging`) acts by shifting this value.
///
/// # Examples
///
/// ```
/// use sramcell::Cell;
///
/// let strongly_one = Cell::new(6.0);
/// assert!(strongly_one.one_probability(1.0) > 0.999_999);
/// let balanced = Cell::new(0.0);
/// assert!((balanced.one_probability(1.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Cell {
    mismatch: f64,
    drift_bias: f64,
}

impl Cell {
    /// Creates a cell with the given static mismatch (noise-sigma units)
    /// and no data-independent drift bias.
    ///
    /// # Panics
    ///
    /// Panics if `mismatch` is not finite.
    pub fn new(mismatch: f64) -> Self {
        Self::with_drift_bias(mismatch, 0.0)
    }

    /// Creates a cell with an explicit *drift bias* — the standardized
    /// strength and direction of the cell's data-independent aging component
    /// (PBTI on the NMOS pair, process-dependent BTI sensitivity). Sampled
    /// `N(0, 1)` at manufacturing by
    /// [`SramArray::generate`](crate::SramArray::generate); the aging law
    /// scales it by the technology's bias ratio.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not finite.
    pub fn with_drift_bias(mismatch: f64, drift_bias: f64) -> Self {
        assert!(mismatch.is_finite(), "cell mismatch must be finite");
        assert!(drift_bias.is_finite(), "cell drift bias must be finite");
        Self {
            mismatch,
            drift_bias,
        }
    }

    /// The static mismatch in noise-sigma units.
    pub fn mismatch(&self) -> f64 {
        self.mismatch
    }

    /// The standardized data-independent drift bias.
    pub fn drift_bias(&self) -> f64 {
        self.drift_bias
    }

    /// Shifts the mismatch by `delta` (used by the aging model).
    ///
    /// # Panics
    ///
    /// Panics if the resulting mismatch is not finite.
    pub fn shift(&mut self, delta: f64) {
        let next = self.mismatch + delta;
        assert!(
            next.is_finite(),
            "cell mismatch drifted to non-finite value"
        );
        self.mismatch = next;
    }

    /// Probability of powering up to `1` when the effective noise sigma is
    /// `noise_sigma` (1.0 at nominal conditions): `Phi(m / noise_sigma)`.
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma <= 0`.
    pub fn one_probability(&self, noise_sigma: f64) -> f64 {
        assert!(noise_sigma > 0.0, "noise sigma must be positive");
        phi(self.mismatch / noise_sigma)
    }

    /// Simulates one power-up: samples the noise and resolves the cell.
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma <= 0`.
    pub fn power_up<R: Rng + ?Sized>(&self, noise_sigma: f64, rng: &mut R) -> bool {
        assert!(noise_sigma > 0.0, "noise sigma must be positive");
        self.mismatch + noise_sigma * sample_standard(rng) > 0.0
    }

    /// The cell's preferred power-up state (`true` = 1).
    pub fn preferred_state(&self) -> bool {
        self.mismatch > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_probability_is_monotone_in_mismatch() {
        let probs: Vec<f64> = [-3.0, -1.0, 0.0, 1.0, 3.0]
            .iter()
            .map(|&m| Cell::new(m).one_probability(1.0))
            .collect();
        for w in probs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn higher_noise_flattens_probability() {
        let cell = Cell::new(2.0);
        let quiet = cell.one_probability(0.5);
        let noisy = cell.one_probability(4.0);
        assert!(quiet > noisy);
        assert!(noisy > 0.5);
    }

    #[test]
    fn power_up_frequency_matches_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let cell = Cell::new(0.8);
        let n = 100_000;
        let ones = (0..n).filter(|_| cell.power_up(1.0, &mut rng)).count();
        let p_hat = ones as f64 / n as f64;
        let p = cell.one_probability(1.0);
        assert!((p_hat - p).abs() < 0.01, "p_hat={p_hat} vs p={p}");
    }

    #[test]
    fn shift_moves_mismatch() {
        let mut cell = Cell::new(1.0);
        cell.shift(-2.5);
        assert!((cell.mismatch() + 1.5).abs() < 1e-12);
        assert!(!cell.preferred_state());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_noise_sigma_rejected() {
        Cell::new(0.0).one_probability(0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_mismatch_rejected() {
        Cell::new(f64::NAN);
    }
}
