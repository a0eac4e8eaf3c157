//! Analytic (quadrature) long-term development of the paper's metrics.
//!
//! The Monte-Carlo path (testbed campaign → monthly evaluation) is the
//! faithful reproduction of the paper's pipeline, but it is sampling-noisy
//! and costly at full scale. This module computes the *expected* development
//! of every Table I metric directly: the initial mismatch distribution is
//! discretized on quadrature nodes where the metrics move, each node's
//! deterministic drift trajectory is integrated through the BTI law, and the
//! metrics are evaluated as weighted sums over nodes. The simulator is
//! property-tested against these curves.

use crate::BtiModel;
use pufstats::normal::{pdf, phi, PHI_SATURATION};
use pufstats::solve::gaussian_band_rule;
use sramcell::PopulationModel;

/// Expected values of the paper's metrics at one point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedMetrics {
    /// Months since the start of the test (0 = fresh reference).
    pub month: u32,
    /// Within-class fractional Hamming distance vs the month-0 reference.
    pub wchd: f64,
    /// Fractional Hamming weight.
    pub fhw: f64,
    /// Between-class fractional Hamming distance (`2·FHW·(1−FHW)`).
    pub bchd: f64,
    /// Average min-entropy of the power-up noise.
    pub noise_entropy: f64,
    /// Fraction of stable cells over the evaluation window.
    pub stable_ratio: f64,
    /// Average min-entropy of the PUF across devices (asymptotic estimator).
    pub puf_entropy: f64,
}

/// Computes the expected monthly development of all metrics over `months`
/// months of wall time.
///
/// * `population` — the fresh mismatch distribution.
/// * `bti` — the drift law.
/// * `stress_rate` — effective stress-years accumulated per wall-clock year
///   (duty × acceleration factor; see
///   [`StressConditions::stress_rate`](crate::StressConditions::stress_rate)).
/// * `reads` — the evaluation window for the stable-cell ratio (the paper
///   uses 1 000 consecutive measurements).
///
/// Returns `months + 1` entries; entry 0 is the fresh device, whose WCHD
/// equals the population's [`expected_wchd`](PopulationModel::expected_wchd)
/// (the reference read-out itself is noisy).
///
/// The fresh mismatch `m0` gets [band-rule](gaussian_band_rule) nodes in
/// noise units: every metric is flat in `Phi(m)` past `|m| = 9`, and no
/// trajectory moves more than `(1 + 4·beta)·g(τ_end)`. The drift bias `eta`
/// gets 21 Simpson nodes over `±4`; each month takes 8 substeps.
///
/// # Panics
///
/// Panics if `reads == 0` or `stress_rate < 0`.
///
/// # Examples
///
/// ```
/// use sramaging::{analytic_series, BtiModel};
/// use sramcell::TechnologyProfile;
///
/// let profile = TechnologyProfile::atmega32u4();
/// let series = analytic_series(
///     &profile.population,
///     BtiModel::from_profile(&profile),
///     3.8 / 5.4,
///     24,
///     1000,
/// );
/// assert_eq!(series.len(), 25);
/// // Reliability degrades, randomness improves.
/// assert!(series[24].wchd > series[0].wchd);
/// assert!(series[24].noise_entropy > series[0].noise_entropy);
/// ```
pub fn analytic_series(
    population: &PopulationModel,
    bti: BtiModel,
    stress_rate: f64,
    months: u32,
    reads: u32,
) -> Vec<ExpectedMetrics> {
    assert!(reads > 0, "stable-cell window must be non-empty");
    assert!(stress_rate >= 0.0, "stress rate must be non-negative");

    // Inner Simpson grid over the static drift bias eta (±ETA_RANGE); it
    // collapses to a single node when the drift law carries no
    // data-independent component.
    const ETA_RANGE: f64 = 4.0;
    const ETA_STEPS: usize = 20; // even

    let eta_nodes: Vec<(f64, f64)> = if bti.bias_ratio == 0.0 {
        vec![(0.0, 1.0)]
    } else {
        let h = 2.0 * ETA_RANGE / ETA_STEPS as f64;
        let mut nodes = Vec::with_capacity(ETA_STEPS + 1);
        let mut wsum = 0.0;
        for i in 0..=ETA_STEPS {
            let z = -ETA_RANGE + i as f64 * h;
            let simpson = if i == 0 || i == ETA_STEPS {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            };
            let w = simpson * pdf(z);
            nodes.push((z, w));
            wsum += w;
        }
        for node in &mut nodes {
            node.1 /= wsum;
        }
        nodes
    };

    // Outer band rule over the mismatch m0. Since |dm/dg| <= 1 + beta·|eta|,
    // no node moves farther than `reach` by the last month.
    let tau_end = f64::from(months) / 12.0 * stress_rate;
    let reach = (1.0 + bti.bias_ratio * ETA_RANGE) * bti.cumulative_drift(tau_end);
    let outer = gaussian_band_rule(population.mu, population.sigma, PHI_SATURATION + reach);
    let mut m = Vec::with_capacity(outer.len() * eta_nodes.len());
    let mut eta = Vec::with_capacity(m.capacity());
    let mut weights = Vec::with_capacity(m.capacity());
    for (m0, w_outer) in outer {
        for &(e, w_inner) in &eta_nodes {
            m.push(m0);
            eta.push(e);
            weights.push(w_outer * w_inner);
        }
    }

    let p0: Vec<f64> = m.iter().map(|&mi| phi(mi)).collect();
    let mut out = Vec::with_capacity(months as usize + 1);
    out.push(evaluate(0, &m, &p0, &weights, reads));

    const SUBSTEPS: u32 = 8;
    let beta = bti.bias_ratio;
    for month in 1..=months {
        for s in 0..SUBSTEPS {
            let frac0 = (f64::from(month - 1) + f64::from(s) / f64::from(SUBSTEPS)) / 12.0;
            let frac1 = (f64::from(month - 1) + f64::from(s + 1) / f64::from(SUBSTEPS)) / 12.0;
            let dg = bti.drift_increment(frac0 * stress_rate, frac1 * stress_rate);
            if dg > 0.0 {
                for (mi, &ei) in m.iter_mut().zip(&eta) {
                    *mi += (-(2.0 * phi(*mi) - 1.0) + beta * ei) * dg;
                }
            }
        }
        out.push(evaluate(month, &m, &p0, &weights, reads));
    }
    out
}

fn evaluate(month: u32, m: &[f64], p0: &[f64], w: &[f64], reads: u32) -> ExpectedMetrics {
    let r = i32::try_from(reads).expect("read count fits i32");
    let mut fhw = 0.0;
    let mut wchd = 0.0;
    let mut noise = 0.0;
    let mut stable = 0.0;
    for ((&mi, &p0i), &wi) in m.iter().zip(p0).zip(w) {
        let pt = phi(mi);
        fhw += wi * pt;
        wchd += wi * (p0i * (1.0 - pt) + pt * (1.0 - p0i));
        noise += wi * -pt.max(1.0 - pt).log2();
        stable += wi * (pt.powi(r) + (1.0 - pt).powi(r));
    }
    ExpectedMetrics {
        month,
        wchd,
        fhw,
        bchd: 2.0 * fhw * (1.0 - fhw),
        noise_entropy: noise,
        stable_ratio: stable,
        puf_entropy: -fhw.max(1.0 - fhw).log2(),
    }
}

/// Compound monthly growth rate between two values `months` apart — the
/// paper's "monthly change" column: `(end/start)^(1/months) − 1`.
///
/// The paper's headline numbers follow exactly from this definition:
/// `(2.97/2.49)^(1/24) − 1 = 0.74 %` per month nominal, and
/// `(7.2/5.3)^(1/24) − 1 = 1.28 %` per month accelerated.
///
/// # Panics
///
/// Panics if `start <= 0`, `end <= 0`, or `months == 0`.
///
/// # Examples
///
/// ```
/// let rate = sramaging::compound_monthly_rate(0.0249, 0.0297, 24);
/// assert!((rate - 0.0074).abs() < 2e-4);
/// ```
pub fn compound_monthly_rate(start: f64, end: f64, months: u32) -> f64 {
    assert!(start > 0.0 && end > 0.0, "rates need positive endpoints");
    assert!(months > 0, "rates need a positive interval");
    (end / start).powf(1.0 / f64::from(months)) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerated::{ACCELERATION_FACTOR, PAPER_DUTY};
    use sramcell::TechnologyProfile;

    /// Month-24 `(WCHD, noise entropy)` of the nominal and the accelerated
    /// study on a 64 000 × 81-node σ grid, from
    /// `cargo test --release -p sramaging --lib -- --ignored --nocapture sigma_grid`.
    const SIGMA_GRID_MONTH_24: [(f64, f64); 2] = [
        (2.969_947_220_5e-2, 3.624_982_482_5e-2),
        (7.199_518_354_5e-2, 8.247_744_781_7e-2),
    ];

    /// Population, drift law and stress rate of the two studies.
    fn studies() -> [(PopulationModel, BtiModel, f64); 2] {
        [
            (TechnologyProfile::atmega32u4(), PAPER_DUTY),
            (
                TechnologyProfile::cmos65nm(),
                PAPER_DUTY * ACCELERATION_FACTOR,
            ),
        ]
        .map(|(profile, rate)| (profile.population, BtiModel::from_profile(&profile), rate))
    }

    /// `(WCHD, noise entropy)` after `months` months on a σ-spaced grid:
    /// Simpson over `m0 ∈ μ ± 8σ` in `steps` and over `eta ∈ ±4` in
    /// `eta_steps`, with the series' 8 substeps a month. Each node's
    /// trajectory runs to the end on its own, so memory does not grow with
    /// the grid.
    fn sigma_grid_endpoint(
        (pop, bti, rate): (PopulationModel, BtiModel, f64),
        months: u32,
        steps: usize,
        eta_steps: usize,
    ) -> (f64, f64) {
        let simpson = |i: usize, n: usize| match i {
            0 => 1.0,
            _ if i == n => 1.0,
            _ if i % 2 == 1 => 4.0,
            _ => 2.0,
        };
        let dg: Vec<f64> = (0..months * 8)
            .map(|s| {
                bti.drift_increment(f64::from(s) / 96.0 * rate, f64::from(s + 1) / 96.0 * rate)
            })
            .collect();
        let (mut wchd, mut noise, mut wsum) = (0.0, 0.0, 0.0);
        for i in 0..=steps {
            let z = -8.0 + 16.0 * i as f64 / steps as f64;
            let m0 = pop.mu + pop.sigma * z;
            let p0 = phi(m0);
            for j in 0..=eta_steps {
                let e = -4.0 + 8.0 * j as f64 / eta_steps as f64;
                let w = simpson(i, steps) * pdf(z) * simpson(j, eta_steps) * pdf(e);
                let m = dg.iter().fold(m0, |m, &d| {
                    m + (-(2.0 * phi(m) - 1.0) + bti.bias_ratio * e) * d
                });
                let pt = phi(m);
                wchd += w * (p0 * (1.0 - pt) + pt * (1.0 - p0));
                noise += w * -pt.max(1.0 - pt).log2();
                wsum += w;
            }
        }
        (wchd / wsum, noise / wsum)
    }

    #[test]
    #[ignore = "64 000 × 81-node reference, about 40 s; run with --ignored --release"]
    fn sigma_grid_reference_gives_the_pinned_month_24_values() {
        for (study, (wchd, noise)) in studies().into_iter().zip(SIGMA_GRID_MONTH_24) {
            let (w, n) = sigma_grid_endpoint(study, 24, 64_000, 80);
            println!("month 24: WCHD {w:.10e}, noise entropy {n:.10e}");
            assert!((w / wchd - 1.0).abs() < 1e-9, "WCHD {w:e} vs {wchd:e}");
            assert!((n / noise - 1.0).abs() < 1e-9, "noise {n:e} vs {noise:e}");
        }
    }

    #[test]
    fn month_24_matches_the_sigma_grid_reference() {
        for ((pop, bti, rate), (wchd, noise)) in studies().into_iter().zip(SIGMA_GRID_MONTH_24) {
            let end = analytic_series(&pop, bti, rate, 24, 1000)[24];
            let wchd_err = end.wchd / wchd - 1.0;
            let noise_err = end.noise_entropy / noise - 1.0;
            assert!(wchd_err.abs() < 5e-6, "WCHD {wchd_err:e}");
            assert!(noise_err.abs() < 1e-4, "noise entropy {noise_err:e}");
        }
    }

    fn paper_series(months: u32) -> Vec<ExpectedMetrics> {
        let profile = TechnologyProfile::atmega32u4();
        analytic_series(
            &profile.population,
            BtiModel::from_profile(&profile),
            3.8 / 5.4,
            months,
            1000,
        )
    }

    #[test]
    fn month_zero_matches_population_analytics() {
        let profile = TechnologyProfile::atmega32u4();
        let series = paper_series(1);
        let pop = &profile.population;
        // WCHD and FHW are checked against their closed forms, which the
        // band rule matches to within 2e-13 at this σ. The population's band,
        // |m| ≤ 9, is a sub-grid of the series' month-0 band with the same
        // weights, and every integrand is flat between the two edges, so
        // noise entropy and stable ratio agree to about 1e-13.
        assert!((series[0].wchd - pop.expected_wchd()).abs() < 1e-12);
        assert!((series[0].fhw - pop.expected_fhw()).abs() < 1e-12);
        assert!((series[0].noise_entropy - pop.expected_noise_entropy()).abs() < 1e-12);
        assert!((series[0].stable_ratio - pop.expected_stable_ratio(1000)).abs() < 1e-12);
    }

    #[test]
    fn development_directions_match_the_paper() {
        let series = paper_series(24);
        let (start, end) = (series[0], series[24]);
        assert!(end.wchd > start.wchd, "reliability degrades");
        assert!(
            end.noise_entropy > start.noise_entropy,
            "randomness improves"
        );
        assert!(
            end.stable_ratio < start.stable_ratio,
            "stable cells decrease"
        );
        // Uniqueness untouched (paper: negligible).
        assert!((end.fhw - start.fhw).abs() / start.fhw < 0.01);
        assert!((end.bchd - start.bchd).abs() / start.bchd < 0.01);
        assert!((end.puf_entropy - start.puf_entropy).abs() / start.puf_entropy < 0.01);
    }

    #[test]
    fn change_decelerates_like_fig6a() {
        let series = paper_series(24);
        let first_year = series[12].wchd - series[0].wchd;
        let second_year = series[24].wchd - series[12].wchd;
        assert!(
            first_year > 1.5 * second_year,
            "power-law deceleration: {first_year} vs {second_year}"
        );
    }

    #[test]
    fn zero_stress_rate_freezes_everything() {
        let profile = TechnologyProfile::atmega32u4();
        let series = analytic_series(
            &profile.population,
            BtiModel::from_profile(&profile),
            0.0,
            12,
            1000,
        );
        assert!((series[12].wchd - series[0].wchd).abs() < 1e-12);
        assert!((series[12].stable_ratio - series[0].stable_ratio).abs() < 1e-12);
    }

    #[test]
    fn higher_stress_rate_ages_faster() {
        let profile = TechnologyProfile::atmega32u4();
        let bti = BtiModel::from_profile(&profile);
        let slow = analytic_series(&profile.population, bti, 0.5, 24, 1000);
        let fast = analytic_series(&profile.population, bti, 5.0, 24, 1000);
        assert!(fast[24].wchd > slow[24].wchd);
    }

    #[test]
    fn compound_rate_reproduces_paper_numbers() {
        assert!((compound_monthly_rate(0.0249, 0.0297, 24) - 0.0074).abs() < 2e-4);
        assert!((compound_monthly_rate(0.053, 0.072, 24) - 0.0128).abs() < 2e-4);
        assert!((compound_monthly_rate(0.859, 0.837, 24) - (-0.0011)).abs() < 2e-4);
    }

    #[test]
    #[should_panic(expected = "positive endpoints")]
    fn compound_rate_rejects_zero_start() {
        compound_monthly_rate(0.0, 1.0, 24);
    }
}
