//! End-to-end integration: simulated rig → record stream → evaluation
//! protocol → Table I, asserting the *shape* of the paper's results.

use sram_puf_longterm::pufassess::{Assessment, EvaluationProtocol};
use sram_puf_longterm::puftestbed::{BoardId, Campaign, CampaignConfig};

fn campaign_config(months: u32) -> CampaignConfig {
    CampaignConfig {
        boards: 8,
        sram_bits: 4096,
        read_bits: 4096,
        months,
        reads_per_window: 100,
        ..CampaignConfig::default()
    }
}

fn protocol() -> EvaluationProtocol {
    EvaluationProtocol {
        reads_per_window: 100,
        ..EvaluationProtocol::default()
    }
}

#[test]
fn two_year_campaign_reproduces_table1_shape() {
    let records = Campaign::new(campaign_config(24), 424).run_in_memory();
    let assessment = Assessment::from_records(&records, &protocol()).unwrap();
    let table = assessment.table1();

    // Start column: the calibrated model must land on the paper's values.
    assert!(
        (table.wchd.start_avg - 0.0249).abs() < 0.004,
        "start WCHD {:.4} vs paper 0.0249",
        table.wchd.start_avg
    );
    assert!(
        (table.hw.start_avg - 0.627).abs() < 0.02,
        "start HW {:.4} vs paper 0.627",
        table.hw.start_avg
    );
    assert!(
        (table.bchd.start_avg - 0.468).abs() < 0.02,
        "start BCHD {:.4} vs paper 0.4679",
        table.bchd.start_avg
    );
    assert!(
        (table.noise.start_avg - 0.0305).abs() < 0.012,
        "start noise entropy {:.4} vs paper 0.0305",
        table.noise.start_avg
    );
    assert!(
        (table.stable.start_avg - 0.859).abs() < 0.05,
        "start stable ratio {:.4} vs paper 0.859",
        table.stable.start_avg
    );
    assert!(
        (table.puf_entropy_start - 0.649).abs() < 0.06,
        "start PUF entropy {:.4} vs paper 0.6492",
        table.puf_entropy_start
    );

    // Trends: who moves, in which direction, by roughly what factor.
    let wchd_rel = table.wchd.relative_change();
    assert!(
        (0.08..=0.35).contains(&wchd_rel),
        "WCHD relative change {wchd_rel:.3} vs paper +0.193"
    );
    // NOTE: the empirical noise-entropy estimator is window-size sensitive:
    // marginally unstable cells are invisible until their flip probability
    // crosses ~1/reads, so short windows (100 reads here vs the paper's
    // 1 000) amplify the measured relative change. The paper-protocol value
    // (~+0.19 at 1 000 reads) is verified by the full-scale reproduction
    // recorded in EXPERIMENTS.md; here only the direction and rough size
    // are asserted.
    let noise_rel = table.noise.relative_change();
    assert!(
        (0.05..=0.60).contains(&noise_rel),
        "noise entropy relative change {noise_rel:.3} vs paper +0.193"
    );
    let stable_rel = table.stable.relative_change();
    assert!(
        (-0.06..=-0.005).contains(&stable_rel),
        "stable-cell relative change {stable_rel:.3} vs paper -0.0249"
    );
    assert!(table.hw.is_negligible(), "HW change must be negligible");
    assert!(table.bchd.is_negligible(), "BCHD change must be negligible");
    let puf_rel = (table.puf_entropy_end / table.puf_entropy_start - 1.0).abs();
    assert!(
        puf_rel < 0.01,
        "PUF entropy change {puf_rel:.4} not negligible"
    );
}

#[test]
fn monthly_rate_matches_paper_within_tolerance() {
    let records = Campaign::new(campaign_config(24), 425).run_in_memory();
    let table = Assessment::from_records(&records, &protocol())
        .unwrap()
        .table1();
    let monthly = table.wchd.monthly_change(24);
    assert!(
        (0.004..=0.011).contains(&monthly),
        "monthly WCHD change {monthly:.4} vs paper 0.0074"
    );
}

#[test]
fn wchd_growth_decelerates_like_fig6a() {
    let records = Campaign::new(campaign_config(24), 426).run_in_memory();
    let assessment = Assessment::from_records(&records, &protocol()).unwrap();
    let series = assessment.aggregates();
    let first_year = series[12].wchd.mean - series[0].wchd.mean;
    let second_year = series[24].wchd.mean - series[12].wchd.mean;
    assert!(
        first_year > second_year,
        "first year {first_year:.4} must outpace second year {second_year:.4}"
    );
}

#[test]
fn every_device_line_trends_the_same_way() {
    // Fig. 6a/6c plot one line per device; each individual device must show
    // the aging trend, not only the average.
    let records = Campaign::new(campaign_config(24), 427).run_in_memory();
    let assessment = Assessment::from_records(&records, &protocol()).unwrap();
    for device in assessment.devices() {
        let series = assessment.device_series(device);
        let first = series.first().unwrap();
        let last = series.last().unwrap();
        assert!(
            last.wchd > first.wchd,
            "device {device}: wchd {:.4} → {:.4}",
            first.wchd,
            last.wchd
        );
        assert!(
            last.noise_entropy > first.noise_entropy,
            "device {device}: noise entropy must rise"
        );
    }
}

#[test]
fn dropped_boards_do_not_corrupt_the_assessment() {
    // Fault-injected transport: some read-outs are lost, but everything
    // recorded remains consistent and assessable.
    let config = CampaignConfig {
        i2c_nack_rate: 0.05,
        i2c_retries: 0,
        months: 2,
        ..campaign_config(2)
    };
    let mut records = Vec::new();
    let summary = Campaign::new(config, 428).run(&mut records).unwrap();
    assert!(summary.dropped > 0);
    let assessment = Assessment::from_records(&records, &protocol()).unwrap();
    assert_eq!(assessment.months(), 3);
    // Windows are smaller than requested but metrics stay in range.
    let m0 = &assessment.aggregates()[0];
    assert!(m0.wchd.mean < 0.05);
}

#[test]
fn device_identities_stay_distinguishable_after_aging() {
    let records = Campaign::new(campaign_config(24), 429).run_in_memory();
    let assessment = Assessment::from_records(&records, &protocol()).unwrap();
    let last = assessment.aggregates().last().unwrap();
    // Worst pair of aged devices still far from the within-class band.
    assert!(
        last.bchd.min > 0.35,
        "aged devices must stay unique: min BCHD {:.3}",
        last.bchd.min
    );
    let _ = BoardId(0); // silence unused import at smaller configs
}
