//! Fits the BTI drift law to measured aging endpoints.
//!
//! The paper's Table I gives the within-class Hamming distance *and* the
//! noise min-entropy at the start and end of the two-year nominal campaign
//! (WCHD 2.49 % → 2.97 %, noise entropy +19.3 % relative); the comparator
//! accelerated study (ref \[5\]) gives WCHD 5.3 % → 7.2 %. Given a population
//! and a stress schedule, these endpoints pin down:
//!
//! * the drift **prefactor** `A` (how fast cells move — dominates WCHD);
//! * the **bias ratio** `beta` of the data-independent drift component (how
//!   much the unstable band *turns over* rather than accumulates — dominates
//!   the noise-entropy growth relative to the WCHD growth);
//! * the **acceleration factor** of the comparator schedule.
//!
//! All solves are monotone one-dimensional bisection against the last
//! month of [`analytic_series`] (its 1 000-read stable-cell window enters no
//! fit); the (A, beta) pair is found by nesting (for each candidate beta, A
//! is re-fitted to the WCHD endpoint, then beta moves to match the noise
//! endpoint — the noise growth at fixed WCHD endpoint is strictly
//! decreasing in beta).

use crate::{analytic_series, BtiModel};
use pufstats::solve::{bisect, SolveError};
use sramcell::PopulationModel;

/// Finds the BTI prefactor that drives `population`'s expected WCHD to
/// `target_end_wchd` after `months` months at `stress_rate`, holding the
/// drift law's `bias_ratio` fixed.
///
/// # Errors
///
/// Returns [`SolveError`] if the target is not reachable with a prefactor in
/// `(0, 50]` — e.g. a target below the fresh WCHD.
///
/// # Examples
///
/// ```
/// use sramaging::calibrate::fit_prefactor;
/// use sramcell::TechnologyProfile;
///
/// let profile = TechnologyProfile::atmega32u4();
/// // The paper's nominal campaign: 2.49 % → 2.97 % over 24 months.
/// let a = fit_prefactor(&profile.population, 0.2, 1.0, 3.8 / 5.4, 24, 0.0297)?;
/// assert!(a > 0.0 && a < 5.0);
/// # Ok::<(), pufstats::solve::SolveError>(())
/// ```
pub fn fit_prefactor(
    population: &PopulationModel,
    exponent: f64,
    bias_ratio: f64,
    stress_rate: f64,
    months: u32,
    target_end_wchd: f64,
) -> Result<f64, SolveError> {
    let objective = |prefactor: f64| {
        let bti = BtiModel::with_bias_ratio(prefactor, exponent, bias_ratio);
        analytic_series(population, bti, stress_rate, months, 1000)[months as usize].wchd
            - target_end_wchd
    };
    bisect(objective, 1e-6, 50.0, 1e-7, 200)
}

/// Fits the full drift law `(A, beta)` to both Table I endpoints: the WCHD
/// and the noise min-entropy after `months` months.
///
/// # Errors
///
/// Returns [`SolveError`] if either endpoint is unreachable (noise targets
/// are bracketed over `beta ∈ [0, 8]`).
pub fn fit_drift_law(
    population: &PopulationModel,
    exponent: f64,
    stress_rate: f64,
    months: u32,
    target_end_wchd: f64,
    target_end_noise: f64,
) -> Result<BtiModel, SolveError> {
    let mut inner_err = None;
    let noise_given_beta = |beta: f64, inner_err: &mut Option<SolveError>| -> f64 {
        match fit_prefactor(
            population,
            exponent,
            beta,
            stress_rate,
            months,
            target_end_wchd,
        ) {
            Ok(a) => {
                let bti = BtiModel::with_bias_ratio(a, exponent, beta);
                analytic_series(population, bti, stress_rate, months, 1000)[months as usize]
                    .noise_entropy
            }
            Err(e) => {
                *inner_err = Some(e);
                f64::NAN
            }
        }
    };
    // The noise endpoint (at fixed WCHD endpoint) decreases in beta; a
    // coarse bisection suffices because the objective is smooth.
    let beta = bisect(
        |beta| noise_given_beta(beta, &mut inner_err) - target_end_noise,
        0.0,
        8.0,
        1e-4,
        60,
    )?;
    if let Some(e) = inner_err {
        return Err(e);
    }
    let a = fit_prefactor(
        population,
        exponent,
        beta,
        stress_rate,
        months,
        target_end_wchd,
    )?;
    Ok(BtiModel::with_bias_ratio(a, exponent, beta))
}

/// Finds the stress-rate multiplier (acceleration factor) that drives
/// `population`'s expected WCHD to `target_end_wchd` after `months` months,
/// given an already-fitted drift law.
///
/// This inverts the question the paper answers empirically: *how much
/// acceleration would reproduce the reliability loss the accelerated-aging
/// literature reports?*
///
/// # Errors
///
/// Returns [`SolveError`] if no factor in `(0, 10^6]` reaches the target.
pub fn fit_acceleration_factor(
    population: &PopulationModel,
    bti: BtiModel,
    base_stress_rate: f64,
    months: u32,
    target_end_wchd: f64,
) -> Result<f64, SolveError> {
    let objective = |factor: f64| {
        let series = analytic_series(population, bti, base_stress_rate * factor, months, 1000);
        series[months as usize].wchd - target_end_wchd
    };
    bisect(objective, 1e-6, 1e6, 1e-5, 300)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compound_monthly_rate;
    use sramcell::TechnologyProfile;

    #[test]
    fn frozen_profile_constants_hit_both_endpoints() {
        // The (A, beta) pair frozen into TechnologyProfile::atmega32u4()
        // must reproduce the paper's Table I: WCHD 2.49 % → 2.97 % and
        // noise entropy +19.3 % relative.
        let profile = TechnologyProfile::atmega32u4();
        let bti = BtiModel::from_profile(&profile);
        let series = analytic_series(&profile.population, bti, 3.8 / 5.4, 24, 1000);
        assert!(
            (series[24].wchd - 0.0297).abs() < 1e-4,
            "end WCHD {}",
            series[24].wchd
        );
        let noise_rel = series[24].noise_entropy / series[0].noise_entropy - 1.0;
        assert!(
            (noise_rel - 0.193).abs() < 0.015,
            "noise entropy relative change {noise_rel}"
        );
        let rate = compound_monthly_rate(series[0].wchd, series[24].wchd, 24);
        assert!((rate - 0.0074).abs() < 3e-4, "monthly rate {rate}");
    }

    #[test]
    fn prefactor_fit_is_consistent_with_frozen_constant() {
        let profile = TechnologyProfile::atmega32u4();
        let a = fit_prefactor(
            &profile.population,
            0.2,
            profile.bti_bias_ratio,
            3.8 / 5.4,
            24,
            0.0297,
        )
        .unwrap();
        assert!(
            (a - profile.bti_prefactor).abs() < 5e-3,
            "frozen {} vs fitted {a}",
            profile.bti_prefactor
        );
    }

    #[test]
    #[ignore = "slow nested fit; run with --ignored --release"]
    fn full_drift_law_fit_recovers_frozen_constants() {
        let profile = TechnologyProfile::atmega32u4();
        // Noise target: +19.3 % relative over the model's own start value.
        let start_noise = profile.population.expected_noise_entropy();
        let bti = fit_drift_law(
            &profile.population,
            0.2,
            3.8 / 5.4,
            24,
            0.0297,
            start_noise * 1.193,
        )
        .unwrap();
        assert!((bti.prefactor - profile.bti_prefactor).abs() < 0.03);
        assert!((bti.bias_ratio - profile.bti_bias_ratio).abs() < 0.1);
    }

    #[test]
    fn acceleration_fit_reproduces_host14_endpoint() {
        let profile = TechnologyProfile::cmos65nm();
        let bti = BtiModel::from_profile(&profile);
        let af = fit_acceleration_factor(&profile.population, bti, 3.8 / 5.4, 24, 0.072).unwrap();
        assert!(af > 1.0, "accelerated aging needs af > 1, got {af}");
        let series = analytic_series(&profile.population, bti, 3.8 / 5.4 * af, 24, 1000);
        assert!((series[24].wchd - 0.072).abs() < 5e-4);
        let rate = compound_monthly_rate(series[0].wchd, series[24].wchd, 24);
        assert!((rate - 0.0128).abs() < 3e-4, "rate {rate}");
    }

    #[test]
    fn unreachable_target_errors() {
        let profile = TechnologyProfile::atmega32u4();
        // Target below the fresh WCHD can never be reached by aging.
        let err = fit_prefactor(&profile.population, 0.2, 1.0, 3.8 / 5.4, 24, 0.01).unwrap_err();
        assert!(matches!(err, SolveError::NotBracketed { .. }));
    }
}
