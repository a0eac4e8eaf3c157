//! Fits the mismatch population to measured PUF metrics.
//!
//! The paper reports its start-of-test metrics (Table I, "Start" column);
//! this module inverts the analytic expectations of [`PopulationModel`] to
//! recover the `(mu, sigma)` that reproduce them:
//!
//! 1. For any `sigma`, the bias `mu = sqrt(1 + sigma^2) · Phi^{-1}(FHW)`
//!    makes the expected fractional Hamming weight exact (closed form).
//! 2. Along that constraint `h = mu / sqrt(1 + sigma^2) = Phi^{-1}(FHW)` is
//!    fixed, and the expected within-class Hamming distance
//!    `E[2p(1-p)] = 4·T(h, 1/sqrt(1 + 2 sigma^2))` (Owen's T, closed form)
//!    is strictly decreasing in `sigma`: a wider population has fewer
//!    near-balanced cells. A bisection on `sigma` completes the fit.
//!
//! The bisection brackets `sigma` in `[1e-6, 1e4]` and stops at 1e-10:
//! about 47 steps of one closed-form evaluation each, some 40 µs per fit on
//! a 2-vCPU Xeon. A derivative-based solver could save only part of that,
//! so the fit keeps the bisection, which asks nothing of the objective but
//! its monotonicity.
//!
//! The remaining Table I metrics (noise entropy, stable-cell ratio, BCHD)
//! are *predictions* of the fitted model, not fitting targets — the unit
//! tests confirm they land near the paper's measurements, which is a
//! non-trivial validation of the single-Gaussian hidden-variable model.

use crate::PopulationModel;
use pufstats::normal::phi_inv;
use pufstats::solve::{bisect, SolveError};
use std::error::Error;
use std::fmt;

/// Error returned by [`to_targets`] for unsatisfiable targets.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrateError {
    /// A target was outside its valid open interval.
    InvalidTarget(String),
    /// The inner root search failed.
    Solve(SolveError),
}

impl fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrateError::InvalidTarget(msg) => write!(f, "invalid calibration target: {msg}"),
            CalibrateError::Solve(e) => write!(f, "calibration solve failed: {e}"),
        }
    }
}

impl Error for CalibrateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CalibrateError::Solve(e) => Some(e),
            CalibrateError::InvalidTarget(_) => None,
        }
    }
}

impl From<SolveError> for CalibrateError {
    fn from(e: SolveError) -> Self {
        CalibrateError::Solve(e)
    }
}

/// Bias `mu` that gives expected FHW `fhw` at population width `sigma`.
pub fn mu_for_fhw(fhw: f64, sigma: f64) -> f64 {
    (1.0 + sigma * sigma).sqrt() * phi_inv(fhw)
}

/// Fits a [`PopulationModel`] to a target fractional Hamming weight and
/// within-class Hamming distance.
///
/// # Errors
///
/// Returns [`CalibrateError::InvalidTarget`] unless `0 < fhw < 1` and
/// `0 < wchd < min(0.5, achievable at this fhw)`, or
/// [`CalibrateError::Solve`] if the bisection cannot bracket the target
/// (WCHD too large for the requested bias).
///
/// # Examples
///
/// ```
/// use sramcell::calibrate::to_targets;
///
/// // The paper's start-of-test metrics.
/// let pop = to_targets(0.6270, 0.0249)?;
/// assert!((pop.expected_fhw() - 0.6270).abs() < 1e-6);
/// assert!((pop.expected_wchd() - 0.0249).abs() < 1e-6);
/// # Ok::<(), sramcell::calibrate::CalibrateError>(())
/// ```
pub fn to_targets(fhw: f64, wchd: f64) -> Result<PopulationModel, CalibrateError> {
    if !(fhw > 0.0 && fhw < 1.0) {
        return Err(CalibrateError::InvalidTarget(format!(
            "fhw must be in (0, 1), got {fhw}"
        )));
    }
    if !(wchd > 0.0 && wchd < 0.5) {
        return Err(CalibrateError::InvalidTarget(format!(
            "wchd must be in (0, 0.5), got {wchd}"
        )));
    }
    let objective = |sigma: f64| {
        let pop = PopulationModel::new(mu_for_fhw(fhw, sigma), sigma);
        pop.expected_wchd() - wchd
    };
    // sigma → 0 gives the maximal WCHD (all cells at p = fhw); large sigma
    // drives WCHD to zero. Bracket accordingly.
    let sigma = bisect(objective, 1e-6, 1e4, 1e-10, 400)?;
    Ok(PopulationModel::new(mu_for_fhw(fhw, sigma), sigma))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_start_targets_are_reproduced() {
        let pop = to_targets(0.6270, 0.0249).unwrap();
        assert!((pop.expected_fhw() - 0.6270).abs() < 1e-7);
        assert!((pop.expected_wchd() - 0.0249).abs() < 1e-7);
        // Model predictions for the non-fitted metrics, vs paper
        // measurements 3.05 % (noise entropy) and 85.9 % (stable cells).
        let noise = pop.expected_noise_entropy();
        assert!((noise - 0.0305).abs() < 0.004, "noise entropy {noise}");
        let stable = pop.expected_stable_ratio(1000);
        assert!((stable - 0.859).abs() < 0.04, "stable {stable}");
        let bchd = pop.expected_bchd();
        assert!((bchd - 0.4679).abs() < 0.002, "bchd {bchd}");
    }

    #[test]
    fn host14_targets_are_reproduced() {
        let pop = to_targets(0.49, 0.053).unwrap();
        assert!((pop.expected_fhw() - 0.49).abs() < 1e-7);
        assert!((pop.expected_wchd() - 0.053).abs() < 1e-7);
    }

    #[test]
    fn unbiased_low_noise_population() {
        let pop = to_targets(0.5, 0.02).unwrap();
        assert!(pop.mu.abs() < 1e-6);
        assert!(pop.sigma > 5.0);
    }

    #[test]
    fn invalid_targets_are_rejected() {
        assert!(matches!(
            to_targets(0.0, 0.02),
            Err(CalibrateError::InvalidTarget(_))
        ));
        assert!(matches!(
            to_targets(0.6, 0.5),
            Err(CalibrateError::InvalidTarget(_))
        ));
        assert!(matches!(
            to_targets(0.6, -0.1),
            Err(CalibrateError::InvalidTarget(_))
        ));
    }

    #[test]
    fn unreachable_wchd_reports_solve_error() {
        // At fhw = 0.99 the maximum achievable WCHD (sigma → 0) is
        // 2·0.99·0.01 ≈ 0.0198 < 0.4.
        let err = to_targets(0.99, 0.4).unwrap_err();
        assert!(matches!(err, CalibrateError::Solve(_)));
        assert!(err.source().is_some());
    }

    #[test]
    fn wide_unbiased_populations_round_trip() {
        // For mu = 0, E[2p(1-p)] = 4·T(0, a) = 2·atan(a)/π with
        // a = 1/sqrt(1 + 2 sigma^2): an exact target that does not come from
        // the objective under test. Stable devices have sigma in the
        // hundreds and beyond.
        for sigma in [0.5f64, 17.13, 300.0, 1000.0, 5000.0] {
            let a = 1.0 / (1.0 + 2.0 * sigma * sigma).sqrt();
            let wchd = 2.0 * a.atan() / std::f64::consts::PI;
            let pop = to_targets(0.5, wchd).unwrap();
            let rel = (pop.sigma / sigma - 1.0).abs();
            assert!(rel < 1e-9, "sigma {sigma}: fitted {} ({rel:e})", pop.sigma);
        }
    }

    #[test]
    fn mu_constraint_holds_along_the_curve() {
        for sigma in [0.5, 2.0, 10.0, 30.0] {
            let pop = PopulationModel::new(mu_for_fhw(0.627, sigma), sigma);
            assert!((pop.expected_fhw() - 0.627).abs() < 1e-9, "sigma={sigma}");
        }
    }
}
