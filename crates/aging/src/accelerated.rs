//! The nominal-vs-accelerated comparison at the heart of the paper.
//!
//! The paper's central claim (§IV-D, §V): under *nominal* conditions the
//! within-class Hamming distance grows 0.74 % per month (compound), roughly
//! half the 1.28 %/month that the accelerated-aging literature (ref \[5\],
//! 65 nm, elevated temperature/voltage) extrapolates — i.e. accelerated
//! tests *overestimate* field degradation. This module packages both sides
//! of that comparison.

use crate::{analytic_series, compound_monthly_rate, BtiModel, ExpectedMetrics};
use sramcell::TechnologyProfile;

/// The paper's power-cycle duty: 3.8 s on out of each 5.4 s cycle (Fig. 3).
pub const PAPER_DUTY: f64 = 3.8 / 5.4;

/// One side of the nominal-vs-accelerated comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingStudy {
    /// Label, e.g. `"nominal (this paper)"`.
    pub label: String,
    /// Monthly metric development, entry per month (0..=months).
    pub series: Vec<ExpectedMetrics>,
    /// Compound monthly WCHD growth rate over the whole span.
    pub monthly_wchd_rate: f64,
}

impl AgingStudy {
    fn new(label: &str, series: Vec<ExpectedMetrics>) -> Self {
        let months = series.len() - 1;
        let rate = compound_monthly_rate(series[0].wchd, series[months].wchd, months as u32);
        Self {
            label: label.to_string(),
            series,
            monthly_wchd_rate: rate,
        }
    }

    /// WCHD at the start of the study.
    pub fn start_wchd(&self) -> f64 {
        self.series[0].wchd
    }

    /// WCHD at the end of the study.
    pub fn end_wchd(&self) -> f64 {
        self.series[self.series.len() - 1].wchd
    }
}

/// The nominal campaign of the paper: ATmega32u4 devices, paper duty cycle,
/// room temperature, `months` months.
///
/// # Examples
///
/// ```
/// let study = sramaging::accelerated::nominal_study(24);
/// // Paper: 2.49 % → 2.97 %, 0.74 %/month.
/// assert!((study.start_wchd() - 0.0249).abs() < 1e-3);
/// assert!((study.monthly_wchd_rate - 0.0074).abs() < 1e-3);
/// ```
pub fn nominal_study(months: u32) -> AgingStudy {
    let profile = TechnologyProfile::atmega32u4();
    let series = analytic_series(
        &profile.population,
        BtiModel::from_profile(&profile),
        PAPER_DUTY,
        months,
        1000,
    );
    AgingStudy::new("nominal (this paper)", series)
}

/// The accelerated comparator (ref \[5\]): a 65 nm population whose
/// equivalent-time WCHD trajectory runs 5.3 % → 7.2 % over 24 months,
/// i.e. 1.28 %/month compound.
///
/// The acceleration factor is frozen from
/// [`calibrate::fit_acceleration_factor`](crate::calibrate::fit_acceleration_factor)
/// for that endpoint (a unit test re-derives it).
///
/// # Examples
///
/// ```
/// let study = sramaging::accelerated::accelerated_study(24);
/// assert!((study.monthly_wchd_rate - 0.0128).abs() < 1e-3);
/// ```
pub fn accelerated_study(months: u32) -> AgingStudy {
    let profile = TechnologyProfile::cmos65nm();
    let series = analytic_series(
        &profile.population,
        BtiModel::from_profile(&profile),
        PAPER_DUTY * ACCELERATION_FACTOR,
        months,
        1000,
    );
    AgingStudy::new("accelerated (HOST'14)", series)
}

/// Frozen output of the acceleration-factor calibration for the 65 nm
/// profile (see [`accelerated_study`]).
pub const ACCELERATION_FACTOR: f64 = 7.761_927;

/// Runs both studies and returns `(nominal, accelerated)`. The larger
/// accelerated study runs on a second thread while the caller's thread runs
/// the nominal one; each study's arithmetic is the same as on its own.
pub fn comparison(months: u32) -> (AgingStudy, AgingStudy) {
    std::thread::scope(|scope| {
        let accelerated = scope.spawn(|| accelerated_study(months));
        let nominal = nominal_study(months);
        (
            nominal,
            accelerated.join().expect("the accelerated study panicked"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::fit_acceleration_factor;

    #[test]
    fn frozen_acceleration_factor_matches_fit() {
        let profile = TechnologyProfile::cmos65nm();
        let af = fit_acceleration_factor(
            &profile.population,
            BtiModel::from_profile(&profile),
            PAPER_DUTY,
            24,
            0.072,
        )
        .unwrap();
        assert!(
            (af - ACCELERATION_FACTOR).abs() / af < 1e-3,
            "frozen {ACCELERATION_FACTOR} vs fitted {af}"
        );
    }

    #[test]
    fn accelerated_overestimates_nominal_rate() {
        let (nominal, accelerated) = comparison(24);
        // The paper's headline: 1.28 %/month accelerated vs 0.74 %/month
        // nominal — a ~1.7× overestimate.
        let ratio = accelerated.monthly_wchd_rate / nominal.monthly_wchd_rate;
        assert!((1.4..=2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn endpoints_match_both_studies() {
        let (nominal, accelerated) = comparison(24);
        assert!((nominal.start_wchd() - 0.0249).abs() < 5e-4);
        assert!((nominal.end_wchd() - 0.0297).abs() < 5e-4);
        assert!((accelerated.start_wchd() - 0.053).abs() < 1e-3);
        assert!((accelerated.end_wchd() - 0.072).abs() < 1e-3);
    }

    #[test]
    fn labels_distinguish_studies() {
        let (nominal, accelerated) = comparison(6);
        assert_ne!(nominal.label, accelerated.label);
        assert_eq!(nominal.series.len(), 7);
    }
}
