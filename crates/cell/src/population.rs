//! The manufacturing population of cell mismatches and its analytic metrics.

use pufstats::normal::{phi, PHI_SATURATION};
use pufstats::solve::gaussian_band_rule;
use pufstats::special::owens_t;

/// Gaussian population of cell mismatches: `m ~ N(mu, sigma^2)` in
/// noise-sigma units.
///
/// Every Table I metric of the paper is an expectation under this population.
/// FHW, WCHD and BCHD are exposed in closed form; noise entropy and the
/// stable-cell ratio have none, and [`expect_p`](Self::expect_p) integrates
/// them in noise units over `|m| ≤ 9`, the tails in closed form. It is also
/// the tests' oracle for the closed forms. These analytic values serve two
/// roles: they are the *oracle* against which the Monte-Carlo simulation is
/// property-tested, and FHW and WCHD are the objective of the
/// [`calibrate`](crate::calibrate) solver.
///
/// # Examples
///
/// ```
/// use sramcell::PopulationModel;
///
/// let pop = PopulationModel::new(0.0, 4.0);
/// // Unbiased population: FHW = 1/2, BCHD = 1/2.
/// assert!((pop.expected_fhw() - 0.5).abs() < 1e-9);
/// assert!((pop.expected_bchd() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationModel {
    /// Mean mismatch (bias) in noise-sigma units.
    pub mu: f64,
    /// Mismatch standard deviation in noise-sigma units.
    pub sigma: f64,
}

impl PopulationModel {
    /// Creates a population model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid population parameters mu={mu}, sigma={sigma}"
        );
        Self { mu, sigma }
    }

    /// Expectation `E[g(p)]` over the one-probability `p = Phi(m)`, by the
    /// [band rule](gaussian_band_rule) on `|m| ≤ PHI_SATURATION`.
    ///
    /// `g` must be continuous on `[0, 1]`: past the band `p` is 0 or 1 to
    /// within about 1e-19, and the tails take `g`'s value at the band edge.
    pub fn expect_p(&self, g: impl Fn(f64) -> f64) -> f64 {
        gaussian_band_rule(self.mu, self.sigma, PHI_SATURATION)
            .into_iter()
            .map(|(m, w)| w * g(phi(m)))
            .sum()
    }

    /// Expected fractional Hamming weight: `E[p] = Phi(mu / sqrt(1+sigma^2))`
    /// (evaluated in closed form).
    pub fn expected_fhw(&self) -> f64 {
        phi(self.mu / (1.0 + self.sigma * self.sigma).sqrt())
    }

    /// Expected within-class fractional Hamming distance against a reference
    /// read-out sampled from the same fresh device: `E[2 p (1 − p)]`,
    /// evaluated in closed form as `4·T(mu / sqrt(1+sigma^2),
    /// 1 / sqrt(1+2 sigma^2))` with Owen's [`T`](owens_t).
    pub fn expected_wchd(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        4.0 * owens_t(self.mu / (1.0 + s2).sqrt(), 1.0 / (1.0 + 2.0 * s2).sqrt())
    }

    /// Expected between-class fractional Hamming distance between two
    /// independent devices: `2 · E[p] · (1 − E[p])`.
    pub fn expected_bchd(&self) -> f64 {
        let f = self.expected_fhw();
        2.0 * f * (1.0 - f)
    }

    /// Expected average min-entropy of the power-up noise,
    /// `E[−log2 max(p, 1 − p)]` — the paper's `(H_min,noise)_average`.
    pub fn expected_noise_entropy(&self) -> f64 {
        self.expect_p(|p| -p.max(1.0 - p).log2())
    }

    /// Expected fraction of *stable* cells over a window of `reads`
    /// consecutive power-ups: `E[p^reads + (1 − p)^reads]`.
    ///
    /// # Panics
    ///
    /// Panics if `reads == 0`.
    pub fn expected_stable_ratio(&self, reads: u32) -> f64 {
        assert!(reads > 0, "stable ratio needs at least one read");
        let r = i32::try_from(reads).expect("read count fits i32");
        self.expect_p(|p| p.powi(r) + (1.0 - p).powi(r))
    }

    /// Probability density of the mismatch at `m`.
    pub fn density(&self, m: f64) -> f64 {
        pufstats::normal::pdf((m - self.mu) / self.sigma) / self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fhw_closed_form_matches_quadrature() {
        let pop = PopulationModel::new(1.3, 5.0);
        let quad = pop.expect_p(|p| p);
        assert!((quad - pop.expected_fhw()).abs() < 1e-8);
    }

    #[test]
    fn wchd_closed_form_matches_quadrature() {
        for mu in [-8.0, -3.0, -0.5, 0.0, 0.7, 2.0, 5.56, 12.0] {
            for sigma in [0.05, 0.5, 1.0, 3.0, 10.0, 17.13, 30.0] {
                let pop = PopulationModel::new(mu, sigma);
                let quad = pop.expect_p(|p| 2.0 * p * (1.0 - p));
                let gap = (pop.expected_wchd() - quad).abs();
                assert!(gap < 1e-14, "mu={mu}, sigma={sigma}: {gap:e}");
            }
        }
    }

    #[test]
    fn wchd_of_a_point_mass_is_2p_1_minus_p() {
        for i in 0..=200 {
            let mu = -10.0 + 0.1 * f64::from(i);
            let p = phi(mu);
            let gap = (PopulationModel::new(mu, 0.0).expected_wchd() - 2.0 * p * (1.0 - p)).abs();
            assert!(gap < 1e-15, "mu={mu}: {gap:e}");
        }
    }

    /// `E[g(Phi(m))]` by composite Simpson on `[-40, 0]` and `[0, 40]`,
    /// 20 000 steps each. The kink of `max(p, 1 − p)` lies on the split, and
    /// `g(0) = g(1) = 0` for both integrands below, so the tails add nothing.
    /// Twice the steps, or ±60, moves no result below by 1e-12 relative.
    fn split_simpson(pop: &PopulationModel, g: impl Fn(f64) -> f64) -> f64 {
        const STEPS: usize = 20_000;
        let h = 40.0 / STEPS as f64;
        let f = |m: f64| g(phi(m)) * pop.density(m);
        let mut sum = 0.0;
        for i in 0..=STEPS {
            let w = if i == 0 || i == STEPS {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            };
            let m = i as f64 * h;
            sum += w * (f(-m) + f(m));
        }
        sum * h / 3.0
    }

    #[test]
    fn band_expectations_match_a_split_simpson_oracle() {
        // The paper fit, wider populations with its bias, and the 65 nm
        // comparator.
        for (mu, sigma) in [
            (5.558114, 17.129842),
            (5.56, 100.0),
            (5.56, 300.0),
            (5.56, 1000.0),
            (-0.213103, 8.441674),
        ] {
            let pop = PopulationModel::new(mu, sigma);
            let noise = split_simpson(&pop, |p| -p.max(1.0 - p).log2());
            let unstable = split_simpson(&pop, |p| 1.0 - p.powi(1000) - (1.0 - p).powi(1000));
            let noise_err = pop.expected_noise_entropy() / noise - 1.0;
            let unstable_err = (1.0 - pop.expected_stable_ratio(1000)) / unstable - 1.0;
            assert!(
                noise_err.abs() < 1e-6,
                "mu={mu}, sigma={sigma}: {noise_err:e}"
            );
            assert!(
                unstable_err.abs() < 1e-6,
                "mu={mu}, sigma={sigma}: {unstable_err:e}"
            );
        }
    }

    #[test]
    fn degenerate_population_is_point_mass() {
        let pop = PopulationModel::new(0.0, 0.0);
        assert!((pop.expected_fhw() - 0.5).abs() < 1e-12);
        assert!((pop.expected_wchd() - 0.5).abs() < 1e-12);
        assert!((pop.expected_noise_entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deeply_skewed_population_is_stable_and_entropy_free() {
        let pop = PopulationModel::new(40.0, 1.0);
        assert!(pop.expected_wchd() < 1e-6);
        assert!(pop.expected_noise_entropy() < 1e-6);
        assert!(pop.expected_stable_ratio(1000) > 0.999_99);
        assert!(pop.expected_fhw() > 0.999_99);
    }

    #[test]
    fn noise_entropy_exceeds_wchd_for_wide_populations() {
        // For a wide (locally flat near m = 0) population the ratio of noise
        // entropy to WCHD approaches ≈1.23 — the same ratio the paper
        // measures (3.05 % / 2.49 % = 1.22).
        let pop = PopulationModel::new(5.0, 16.0);
        let ratio = pop.expected_noise_entropy() / pop.expected_wchd();
        assert!((ratio - 1.23).abs() < 0.03, "ratio {ratio}");
    }

    #[test]
    fn stable_ratio_decreases_with_window_length() {
        let pop = PopulationModel::new(0.3, 6.0);
        let short = pop.expected_stable_ratio(10);
        let long = pop.expected_stable_ratio(1000);
        assert!(long < short);
        assert!(long > 0.0 && short < 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid population parameters")]
    fn negative_sigma_rejected() {
        PopulationModel::new(0.0, -1.0);
    }

    #[test]
    fn density_integrates_to_one() {
        let pop = PopulationModel::new(2.0, 3.0);
        // Riemann sum over ±10 sigma.
        let (lo, hi, n) = (2.0 - 30.0, 2.0 + 30.0, 6000);
        let h = (hi - lo) / n as f64;
        let total: f64 = (0..n)
            .map(|i| pop.density(lo + (i as f64 + 0.5) * h) * h)
            .sum();
        assert!((total - 1.0).abs() < 1e-6);
    }
}
