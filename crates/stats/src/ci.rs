//! Binomial confidence intervals.
//!
//! Monte-Carlo assertions throughout the workspace compare an observed
//! proportion (e.g. a measured within-class Hamming distance) against a model
//! prediction; Wilson intervals give the tolerance.

use crate::normal::phi_inv;
use std::error::Error;
use std::fmt;

/// A two-sided confidence interval for a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Returns `true` if `p` lies inside the interval (inclusive).
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Error from constructing a confidence interval on degenerate inputs.
///
/// Degenerate inputs used to panic (or would have divided by zero); they now
/// return a typed error so a caller summarising sparse or faulted data can
/// handle "no data" as a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CiError {
    /// `n == 0`: an interval over no trials/observations is undefined.
    NoObservations,
    /// More successes than trials.
    ImpossibleSuccesses {
        /// Claimed successes.
        successes: u64,
        /// Trials.
        n: u64,
    },
    /// Confidence level outside the open interval `(0, 1)`.
    BadConfidence {
        /// The offending level.
        confidence: f64,
    },
    /// A negative standard deviation.
    NegativeStdDev {
        /// The offending value.
        sd: f64,
    },
}

impl fmt::Display for CiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CiError::NoObservations => {
                write!(f, "confidence interval needs at least one observation")
            }
            CiError::ImpossibleSuccesses { successes, n } => {
                write!(f, "successes {successes} exceeds trials {n}")
            }
            CiError::BadConfidence { confidence } => {
                write!(f, "confidence must be in (0, 1), got {confidence}")
            }
            CiError::NegativeStdDev { sd } => {
                write!(f, "standard deviation must be non-negative, got {sd}")
            }
        }
    }
}

impl Error for CiError {}

fn check_confidence(confidence: f64) -> Result<(), CiError> {
    if confidence > 0.0 && confidence < 1.0 {
        Ok(())
    } else {
        Err(CiError::BadConfidence { confidence })
    }
}

/// The standard-normal quantile `z` with `P(|Z| < z) = confidence`.
///
/// `(1 − confidence) / 2` is exact and strictly inside `(0, 1/2)` for every
/// `confidence` in `(0, 1)`, whereas `0.5 + confidence / 2` rounds to 1 once
/// `confidence` is within an ulp of 1.
fn two_sided_quantile(confidence: f64) -> f64 {
    -phi_inv((1.0 - confidence) / 2.0)
}

/// Wilson score interval for `successes` out of `n` Bernoulli trials at the
/// given two-sided `confidence` (e.g. `0.99`).
///
/// # Errors
///
/// Returns [`CiError`] if `n == 0`, `successes > n`, or `confidence` is not
/// in `(0, 1)`.
///
/// # Examples
///
/// ```
/// let ci = pufstats::ci::wilson(250, 1000, 0.95)?;
/// assert!(ci.contains(0.25));
/// assert!(ci.width() < 0.06);
/// # Ok::<(), pufstats::ci::CiError>(())
/// ```
pub fn wilson(successes: u64, n: u64, confidence: f64) -> Result<Interval, CiError> {
    if n == 0 {
        return Err(CiError::NoObservations);
    }
    if successes > n {
        return Err(CiError::ImpossibleSuccesses { successes, n });
    }
    check_confidence(confidence)?;
    let z = two_sided_quantile(confidence);
    let nf = n as f64;
    let p_hat = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p_hat + z2 / (2.0 * nf)) / denom;
    let half = z * (p_hat * (1.0 - p_hat) / nf + z2 / (4.0 * nf * nf)).sqrt() / denom;
    // The Wilson bounds are exactly 0/1 at the extremes; pin them so floating
    // point cannot exclude the boundary proportion.
    Ok(Interval {
        lo: if successes == 0 {
            0.0
        } else {
            (center - half).max(0.0)
        },
        hi: if successes == n {
            1.0
        } else {
            (center + half).min(1.0)
        },
    })
}

/// Normal-approximation interval for the mean of `n` observations with
/// sample mean `mean` and sample standard deviation `sd`.
///
/// # Errors
///
/// Returns [`CiError`] if `n == 0`, `sd < 0`, or `confidence` is not in
/// `(0, 1)`.
///
/// # Examples
///
/// ```
/// let ci = pufstats::ci::mean_interval(0.5, 0.1, 100, 0.95)?;
/// assert!(ci.contains(0.5));
/// # Ok::<(), pufstats::ci::CiError>(())
/// ```
pub fn mean_interval(mean: f64, sd: f64, n: u64, confidence: f64) -> Result<Interval, CiError> {
    if n == 0 {
        return Err(CiError::NoObservations);
    }
    if sd < 0.0 {
        return Err(CiError::NegativeStdDev { sd });
    }
    check_confidence(confidence)?;
    let z = two_sided_quantile(confidence);
    let half = z * sd / (n as f64).sqrt();
    Ok(Interval {
        lo: mean - half,
        hi: mean + half,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_covers_true_proportion() {
        let ci = wilson(500, 1000, 0.99).unwrap();
        assert!(ci.contains(0.5));
        assert!(!ci.contains(0.6));
    }

    #[test]
    fn wilson_is_clamped_to_unit_interval() {
        let lo = wilson(0, 10, 0.99).unwrap();
        let hi = wilson(10, 10, 0.99).unwrap();
        assert!(lo.lo >= 0.0);
        assert!(hi.hi <= 1.0);
        assert!(lo.contains(0.0));
        assert!(hi.contains(1.0));
    }

    #[test]
    fn wilson_narrows_with_sample_size() {
        let small = wilson(5, 10, 0.95).unwrap();
        let large = wilson(5000, 10_000, 0.95).unwrap();
        assert!(large.width() < small.width());
    }

    #[test]
    fn wilson_rejects_zero_trials_as_a_value() {
        let err = wilson(0, 0, 0.95).unwrap_err();
        assert_eq!(err, CiError::NoObservations);
        assert!(err.to_string().contains("at least one observation"));
    }

    #[test]
    fn wilson_rejects_impossible_successes() {
        let err = wilson(11, 10, 0.95).unwrap_err();
        assert_eq!(
            err,
            CiError::ImpossibleSuccesses {
                successes: 11,
                n: 10
            }
        );
        assert!(err.to_string().contains("exceeds trials"));
    }

    #[test]
    fn degenerate_confidence_levels_are_rejected() {
        for confidence in [0.0, 1.0, -0.3, f64::NAN] {
            assert!(matches!(
                wilson(1, 2, confidence),
                Err(CiError::BadConfidence { .. })
            ));
            assert!(matches!(
                mean_interval(0.0, 1.0, 5, confidence),
                Err(CiError::BadConfidence { .. })
            ));
        }
    }

    #[test]
    fn every_confidence_below_one_gives_its_quantile() {
        for (confidence, z) in [(0.95, 1.959_963_984_540_054), (0.99, 2.575_829_303_548_901)] {
            assert!((two_sided_quantile(confidence) - z).abs() < 1e-12);
        }
        // 1 − 2^-53, the largest double below 1, is valid: an interval, not
        // a panic.
        let widest = 1.0 - f64::EPSILON / 2.0;
        assert!(wilson(500, 1000, widest).unwrap().contains(0.5));
        assert!(mean_interval(0.0, 1.0, 100, widest).unwrap().width() > 1.6);
    }

    #[test]
    fn mean_interval_rejects_degenerate_inputs() {
        assert_eq!(
            mean_interval(0.0, 1.0, 0, 0.95).unwrap_err(),
            CiError::NoObservations
        );
        assert_eq!(
            mean_interval(0.0, -0.5, 5, 0.95).unwrap_err(),
            CiError::NegativeStdDev { sd: -0.5 }
        );
    }

    #[test]
    fn mean_interval_scales_with_sd() {
        let tight = mean_interval(0.0, 0.1, 100, 0.95).unwrap();
        let wide = mean_interval(0.0, 1.0, 100, 0.95).unwrap();
        assert!(wide.width() > tight.width() * 9.0);
    }
}
