//! Root finding and quadrature for model calibration.
//!
//! The cell and aging crates calibrate their free parameters (mismatch
//! mean/sigma, BTI prefactor) so the model's *analytic* metrics hit the
//! paper's Table I values. Those analytic metrics are expectations over a
//! Gaussian population, evaluated with the band rule and inverted with the
//! root finder in this module.

use crate::normal::{pdf, phi, phi_complement};
use std::error::Error;
use std::fmt;

/// Error returned when a root finder fails to converge or is given an
/// invalid bracket.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// `f(lo)` and `f(hi)` have the same sign, so no root is bracketed.
    NotBracketed {
        /// Function value at the lower bound.
        f_lo: f64,
        /// Function value at the upper bound.
        f_hi: f64,
    },
    /// The iteration budget was exhausted before reaching tolerance.
    NoConvergence {
        /// Best estimate when the budget ran out.
        best: f64,
        /// Residual at the best estimate.
        residual: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotBracketed { f_lo, f_hi } => {
                write!(f, "root not bracketed: f(lo)={f_lo}, f(hi)={f_hi}")
            }
            SolveError::NoConvergence { best, residual } => {
                write!(f, "no convergence: best x={best}, residual={residual}")
            }
        }
    }
}

impl Error for SolveError {}

/// Finds a root of `f` in `[lo, hi]` by bisection.
///
/// Robust and derivative-free; all calibration in this workspace uses
/// monotone objectives, for which bisection is exact to tolerance.
///
/// # Errors
///
/// Returns [`SolveError::NotBracketed`] if `f(lo)` and `f(hi)` have the same
/// sign, or [`SolveError::NoConvergence`] if `max_iter` iterations do not
/// reach `tol`.
///
/// # Examples
///
/// ```
/// use pufstats::solve::bisect;
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200)?;
/// assert!((root - 2f64.sqrt()).abs() < 1e-10);
/// # Ok::<(), pufstats::solve::SolveError>(())
/// ```
pub fn bisect(
    mut f: impl FnMut(f64) -> f64,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    max_iter: u32,
) -> Result<f64, SolveError> {
    let mut f_lo = f(lo);
    let f_hi = f(hi);
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(SolveError::NotBracketed { f_lo, f_hi });
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        let f_mid = f(mid);
        if f_mid == 0.0 || (hi - lo) * 0.5 < tol {
            return Ok(mid);
        }
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    let best = 0.5 * (lo + hi);
    Err(SolveError::NoConvergence {
        best,
        residual: f(best),
    })
}

/// Nodes and weights `(m, w)` with `E[g(m)] ≈ Σ w·g(m)` for
/// `m ~ N(mu, sigma^2)`, when `g` is constant below `-band` and above
/// `band`.
///
/// Composite Simpson covers the band on the lattice `k·h`,
/// `h = min(0.05, 0.004·sigma)`, and each tail's mass, `Phi` in closed
/// form, joins the weight of the band edge it adjoins, so the tails take
/// `g`'s value there. The lattice is anchored at `m = 0`: a kink of `g` at 0
/// lies on a panel edge, and for one `sigma` a narrower band's nodes are a
/// sub-grid of a wider one's. The band is clipped to `mu ± 8·sigma`, so
/// there are at most `16·sigma/h + 1` nodes, 4 001 for `sigma ≤ 12.5`;
/// `sigma == 0` gives the point mass `[(mu, 1.0)]`.
///
/// # Panics
///
/// Panics if `sigma < 0` or `band < 0`.
///
/// # Examples
///
/// ```
/// use pufstats::normal::{phi, PHI_SATURATION};
/// use pufstats::solve::gaussian_band_rule;
/// // E[Phi(m)] for m ~ N(mu, sigma^2) is Phi(mu / sqrt(1 + sigma^2)).
/// let (mu, sigma) = (5.56, 300.0);
/// let rule = gaussian_band_rule(mu, sigma, PHI_SATURATION);
/// let e: f64 = rule.iter().map(|&(m, w)| w * phi(m)).sum();
/// assert!((e - phi(mu / (1.0 + sigma * sigma).sqrt())).abs() < 1e-12);
/// assert_eq!(rule.len(), 361);
/// ```
pub fn gaussian_band_rule(mu: f64, sigma: f64, band: f64) -> Vec<(f64, f64)> {
    assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
    assert!(band >= 0.0, "band must be non-negative, got {band}");
    if sigma == 0.0 {
        return vec![(mu, 1.0)];
    }
    let h = (0.004 * sigma).min(0.05);
    // Band edges in panels of 2h, so that every edge is a panel edge.
    let edge = (band / (2.0 * h)).ceil();
    let lo = ((mu - 8.0 * sigma) / (2.0 * h)).ceil().clamp(-edge, edge) as i64;
    let hi = ((mu + 8.0 * sigma) / (2.0 * h)).floor().clamp(-edge, edge) as i64;
    let steps = 2 * (hi - lo);
    let mut nodes: Vec<(f64, f64)> = (0..=steps)
        .map(|i| {
            let m = (2 * lo + i) as f64 * h;
            let simpson = if steps == 0 {
                0.0
            } else if i == 0 || i == steps {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            };
            (m, simpson * h / 3.0 * pdf((m - mu) / sigma) / sigma)
        })
        .collect();
    let top = nodes.len() - 1;
    nodes[0].1 += phi((nodes[0].0 - mu) / sigma);
    nodes[top].1 += phi_complement((nodes[top].0 - mu) / sigma);
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::phi;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-13, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-11);
    }

    #[test]
    fn bisect_accepts_exact_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12, 10).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_unbracketed() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 50).unwrap_err();
        assert!(matches!(err, SolveError::NotBracketed { .. }));
        assert!(err.to_string().contains("not bracketed"));
    }

    /// `E[g(m)]` by the band rule with band `|mu| + 8·sigma`, which is plain
    /// Simpson on `mu ± 8·sigma` plus the tails' mass.
    fn band_expectation(mu: f64, sigma: f64, g: impl Fn(f64) -> f64) -> f64 {
        gaussian_band_rule(mu, sigma, mu.abs() + 8.0 * sigma)
            .iter()
            .map(|&(m, w)| w * g(m))
            .sum()
    }

    #[test]
    fn band_rule_weights_sum_to_one() {
        for (mu, sigma) in [(3.2, 1.7), (0.4, 1.3), (-4.0, 0.01), (5.56, 17.13)] {
            let total = band_expectation(mu, sigma, |_| 1.0);
            assert!((total - 1.0).abs() < 1e-12, "({mu}, {sigma}): {total}");
        }
    }

    #[test]
    fn band_rule_of_identity_is_mu() {
        let e = band_expectation(3.2, 1.7, |m| m);
        assert!((e - 3.2).abs() < 1e-9);
    }

    #[test]
    fn band_rule_matches_closed_form_phi() {
        // E[Phi(m)] for m ~ N(mu, sigma^2) = Phi(mu / sqrt(1 + sigma^2)).
        let (mu, sigma) = (0.4, 1.3);
        let e = band_expectation(mu, sigma, phi);
        let want = phi(mu / (1.0 + sigma * sigma).sqrt());
        assert!((e - want).abs() < 1e-8, "{e} vs {want}");
    }

    #[test]
    fn band_rule_degenerate_sigma() {
        assert_eq!(gaussian_band_rule(2.0, 0.0, 10.0), vec![(2.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn band_rule_rejects_negative_sigma() {
        gaussian_band_rule(0.0, -1.0, 8.0);
    }
}
