//! Cross-validation of the two independent implementations of the paper's
//! pipeline: the quadrature-based analytic series (`sramaging::longterm`)
//! and the full Monte-Carlo path (testbed campaign → assessment).
//!
//! Both must agree on every metric at every month within Monte-Carlo
//! tolerance — this is the strongest internal consistency check in the
//! workspace, since the two paths share only the cell/aging primitives.

use sram_puf_longterm::pufassess::{Assessment, EvaluationProtocol};
use sram_puf_longterm::puftestbed::{Campaign, CampaignConfig};
use sram_puf_longterm::sramaging::{analytic_series, BtiModel};
use sram_puf_longterm::sramcell::TechnologyProfile;

#[test]
fn monte_carlo_campaign_tracks_the_analytic_series() {
    let reads = 200u32;
    let boards = 8usize;
    let bits = 4096usize;
    let months = 12u32;

    let config = CampaignConfig {
        boards,
        sram_bits: bits,
        read_bits: bits,
        months,
        reads_per_window: reads,
        ..CampaignConfig::default()
    };
    let profile = config.profile.clone();
    let records = Campaign::new(config, 31_415).run_in_memory();
    let assessment = Assessment::from_records(
        &records,
        &EvaluationProtocol {
            reads_per_window: reads,
            ..EvaluationProtocol::default()
        },
    )
    .unwrap();

    let analytic = analytic_series(
        &profile.population,
        BtiModel::from_profile(&profile),
        3.8 / 5.4,
        months,
        reads,
    );

    // Tolerances: per-month cross-device means over boards*bits cells. The
    // WCHD mean pools 8×4096 Bernoulli cells → σ ≈ sqrt(p/N) ≈ 0.001; use
    // 5-sigma-ish bands. Entropy and stable-ratio estimators carry extra
    // finite-window bias, so their bands are wider.
    for aggregate in assessment.aggregates() {
        let month = aggregate.month_index as usize;
        let expected = &analytic[month];
        assert!(
            (aggregate.wchd.mean - expected.wchd).abs() < 0.004,
            "month {month}: MC wchd {:.4} vs analytic {:.4}",
            aggregate.wchd.mean,
            expected.wchd
        );
        assert!(
            (aggregate.fhw.mean - expected.fhw).abs() < 0.01,
            "month {month}: MC fhw {:.4} vs analytic {:.4}",
            aggregate.fhw.mean,
            expected.fhw
        );
        assert!(
            (aggregate.noise_entropy.mean - expected.noise_entropy).abs() < 0.008,
            "month {month}: MC noise entropy {:.4} vs analytic {:.4}",
            aggregate.noise_entropy.mean,
            expected.noise_entropy
        );
        assert!(
            (aggregate.stable_ratio.mean - expected.stable_ratio).abs() < 0.02,
            "month {month}: MC stable {:.4} vs analytic {:.4}",
            aggregate.stable_ratio.mean,
            expected.stable_ratio
        );
        assert!(
            (aggregate.bchd.mean - expected.bchd).abs() < 0.02,
            "month {month}: MC bchd {:.4} vs analytic {:.4}",
            aggregate.bchd.mean,
            expected.bchd
        );
    }
}

#[test]
fn disabled_aging_freezes_the_monte_carlo_campaign() {
    // Ablation consistency: a zero-prefactor profile must show no trend in
    // the Monte-Carlo path either.
    let mut profile = TechnologyProfile::atmega32u4();
    profile.bti_prefactor = 0.0;
    let reads = 100u32;
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 4096,
        read_bits: 4096,
        months: 12,
        reads_per_window: reads,
        profile,
        ..CampaignConfig::default()
    };
    let records = Campaign::new(config, 2_718).run_in_memory();
    let assessment = Assessment::from_records(
        &records,
        &EvaluationProtocol {
            reads_per_window: reads,
            ..EvaluationProtocol::default()
        },
    )
    .unwrap();
    let first = &assessment.aggregates()[0];
    let last = assessment.aggregates().last().unwrap();
    // Only Monte-Carlo jitter, no trend.
    assert!(
        (last.wchd.mean - first.wchd.mean).abs() < 0.002,
        "frozen wchd drifted: {:.4} → {:.4}",
        first.wchd.mean,
        last.wchd.mean
    );
    assert!((last.stable_ratio.mean - first.stable_ratio.mean).abs() < 0.01);
}
