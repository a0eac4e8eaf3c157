//! Fault-injection layer contract tests: the tentpole's determinism
//! guarantees. A faulted campaign is byte-reproducible for any thread
//! count and across a checkpoint/resume boundary; a zero-fault plan is
//! byte-identical to a campaign without any plan; and each fault class
//! degrades the record stream exactly as scheduled — removing or altering
//! only what the plan names, never disturbing unaffected boards.

use pufobs::Instruments;
use puftestbed::faults::{Brownout, I2cBurst, LayerSkew, StuckCluster};
use puftestbed::store::Record;
use puftestbed::{BoardId, Campaign, CampaignConfig, FaultPlan, GapCause};

fn base_config() -> CampaignConfig {
    CampaignConfig {
        boards: 4,
        sram_bits: 256,
        read_bits: 256,
        months: 2,
        reads_per_window: 10,
        ..CampaignConfig::default()
    }
}

fn spicy_plan() -> FaultPlan {
    FaultPlan {
        brownouts: vec![Brownout {
            board: Some(2),
            from_window: 1,
            until_window: 1,
        }],
        i2c_bursts: vec![I2cBurst {
            board: Some(1),
            from_window: 0,
            until_window: 2,
            nack_rate: 0.3,
            corruption_rate: 0.1,
        }],
        stuck_clusters: vec![StuckCluster {
            board: 0,
            cell: 8,
            len: 8,
            value: true,
            from_window: 1,
        }],
        clock_skew: vec![LayerSkew {
            layer: 1,
            skew_s: 10.0,
        }],
    }
}

fn run(config: CampaignConfig, seed: u64, threads: usize) -> Vec<Record> {
    Campaign::new(config, seed).threads(threads).run_in_memory()
}

#[test]
fn zero_fault_plan_is_byte_identical_to_no_plan() {
    let no_plan = run(base_config(), 5, 1);
    let empty_plan = run(
        CampaignConfig {
            faults: FaultPlan::parse_json("{}").unwrap(),
            ..base_config()
        },
        5,
        2,
    );
    let lines = |records: &[Record]| -> String {
        records.iter().map(|r| r.to_json_line() + "\n").collect()
    };
    assert_eq!(lines(&no_plan), lines(&empty_plan));
}

#[test]
fn faulted_campaign_is_thread_count_independent() {
    let config = CampaignConfig {
        faults: spicy_plan(),
        ..base_config()
    };
    let reference = run(config.clone(), 7, 1);
    assert!(!reference.is_empty());
    for threads in [2, 3, 8] {
        assert_eq!(
            run(config.clone(), 7, threads),
            reference,
            "threads={threads}"
        );
    }
    // And reproducible outright.
    assert_eq!(run(config, 7, 1), reference);
}

#[test]
fn faulted_campaign_resumes_byte_identically() {
    let config = CampaignConfig {
        faults: spicy_plan(),
        ..base_config()
    };
    let mut reference_sink = Vec::new();
    Campaign::new(config.clone(), 9)
        .threads(2)
        .run(&mut reference_sink)
        .unwrap();
    let reference = reference_sink;

    // Interrupt after one window, resume with a different thread count.
    let mut head_sink = Vec::new();
    let mut halted = Campaign::new(config.clone(), 9)
        .threads(1)
        .halt_after_windows(1);
    halted.run(&mut head_sink).unwrap();
    let state = halted.export_state();
    let mut tail_sink = Vec::new();
    Campaign::resume(config, 9, &state)
        .unwrap()
        .threads(4)
        .run(&mut tail_sink)
        .unwrap();

    let mut resumed = head_sink;
    resumed.extend(tail_sink);
    assert_eq!(resumed, reference);
}

#[test]
fn resume_under_a_changed_plan_is_refused() {
    let config = CampaignConfig {
        faults: spicy_plan(),
        ..base_config()
    };
    let mut halted = Campaign::new(config.clone(), 9).halt_after_windows(1);
    halted.run(&mut Vec::new()).unwrap();
    let state = halted.export_state();
    let mut changed = config;
    changed.faults.brownouts[0].until_window = 2;
    assert!(
        Campaign::resume(changed, 9, &state).is_err(),
        "a changed fault plan must fail the config-hash check"
    );
}

#[test]
fn brownout_removes_exactly_the_scheduled_device_month() {
    let clean = run(base_config(), 11, 1);
    let config = CampaignConfig {
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(2),
                from_window: 1,
                until_window: 1,
            }],
            ..FaultPlan::default()
        },
        ..base_config()
    };
    let mut campaign = Campaign::new(config, 11);
    let records = campaign.run_in_memory();
    // Board 2's window-1 records (window 1 = March 2017) vanish; every
    // other board's stream is untouched byte-for-byte — the brownout
    // decision is a pure function of the plan, so it cannot leak into
    // other boards through scheduling or shared RNG state.
    assert_eq!(records.len(), clean.len() - 10);
    assert!(
        !records
            .iter()
            .any(|r| r.device == BoardId(2) && r.timestamp.datetime().date.month == 3),
        "browned-out window must produce no records"
    );
    let others = |records: &[Record]| -> Vec<Record> {
        records
            .iter()
            .filter(|r| r.device != BoardId(2))
            .cloned()
            .collect()
    };
    assert_eq!(others(&records), others(&clean));
    // Board 2 keeps its schedule (seq/timestamps) outside the brownout;
    // its post-brownout *data* legitimately differs from the clean run
    // because the missed power-ups never drew from its stream.
    let board2 = |records: &[Record]| -> Vec<(u64, i64)> {
        records
            .iter()
            .filter(|r| r.device == BoardId(2) && r.timestamp.datetime().date.month != 3)
            .map(|r| (r.seq, r.timestamp.0))
            .collect()
    };
    assert_eq!(board2(&records), board2(&clean));
    // The hole is reported, not silently averaged over.
    let tally = campaign.fault_tally();
    assert_eq!(tally.browned_out_windows, 1);
    assert_eq!(tally.missed_power_ups, 10);
    let gaps = campaign.gap_records();
    assert_eq!(gaps.len(), 1);
    assert_eq!(gaps[0].device, BoardId(2));
    assert_eq!(gaps[0].window, 1);
    assert_eq!(gaps[0].year_month, (2017, 3));
    assert_eq!(gaps[0].missed_reads, 10);
    assert_eq!(gaps[0].cause, GapCause::Brownout);
}

#[test]
fn stuck_cluster_forces_bits_from_its_window_on() {
    let config = CampaignConfig {
        faults: FaultPlan {
            stuck_clusters: vec![StuckCluster {
                board: 0,
                cell: 8,
                len: 8,
                value: true,
                from_window: 1,
            }],
            ..FaultPlan::default()
        },
        ..base_config()
    };
    let mut campaign = Campaign::new(config, 13);
    let records = campaign.run_in_memory();
    let clean = run(base_config(), 13, 1);
    for (faulted, clean) in records.iter().zip(&clean) {
        assert_eq!(faulted.device, clean.device);
        assert_eq!(faulted.seq, clean.seq);
        let month = faulted.timestamp.datetime().date.month;
        if faulted.device == BoardId(0) && month >= 3 {
            for i in 8..16 {
                assert_eq!(faulted.data.get(i), Some(true), "cell {i} not stuck");
            }
        } else {
            assert_eq!(faulted.data, clean.data, "untouched record changed");
        }
    }
    // 8 cells × 10 reads × 2 windows (months 1 and 2).
    assert_eq!(campaign.fault_tally().stuck_cells_forced, 8 * 10 * 2);
}

#[test]
fn clock_skew_shifts_one_layer_only() {
    let clean = run(base_config(), 17, 1);
    let skewed = run(
        CampaignConfig {
            faults: FaultPlan {
                clock_skew: vec![LayerSkew {
                    layer: 1,
                    skew_s: 10.0,
                }],
                ..FaultPlan::default()
            },
            ..base_config()
        },
        17,
        1,
    );
    assert_eq!(skewed.len(), clean.len());
    for (s, c) in skewed.iter().zip(&clean) {
        assert_eq!(s.device, c.device);
        assert_eq!(s.data, c.data, "skew must not touch the data");
        // Odd board indices sit on layer 1.
        let expected_shift = if s.device.0 % 2 == 1 { 10 } else { 0 };
        assert_eq!(
            s.timestamp.seconds_since(c.timestamp),
            expected_shift,
            "board {}",
            s.device.0
        );
    }
}

#[test]
fn i2c_burst_drops_are_gap_recorded_and_survivors_are_clean() {
    let clean = run(base_config(), 19, 1);
    let config = CampaignConfig {
        i2c_retries: 1,
        faults: FaultPlan {
            i2c_bursts: vec![I2cBurst {
                board: Some(1),
                from_window: 0,
                until_window: 2,
                nack_rate: 0.5,
                corruption_rate: 0.3,
            }],
            ..FaultPlan::default()
        },
        ..base_config()
    };
    let ins = Instruments::new();
    let mut campaign = Campaign::new(config, 19).instruments(&ins);
    let mut records = Vec::new();
    let summary = campaign.run(&mut records).unwrap();
    assert!(summary.dropped > 0, "burst must drop read-outs");
    assert!(summary.retries > 0, "burst must trigger retries");
    // Delivered records are bit-exact copies of the clean run's — injected
    // transport faults delay or drop read-outs but never corrupt the
    // payload that finally lands, and never touch other boards.
    for faulted in &records {
        let original = clean
            .iter()
            .find(|c| c.device == faulted.device && c.seq == faulted.seq)
            .expect("every surviving record exists in the clean run");
        assert_eq!(faulted, original);
    }
    let tally = campaign.fault_tally();
    assert!(tally.injected_nacks > 0);
    assert!(tally.injected_corruptions > 0);
    assert!(tally.retry_backoff_ms >= summary.retries);
    // Gaps name board 1 only, with RetriesExhausted.
    assert!(!campaign.gap_records().is_empty());
    for gap in campaign.gap_records() {
        assert_eq!(gap.device, BoardId(1));
        assert_eq!(gap.cause, GapCause::RetriesExhausted);
    }
    // The faults.* / retry.* instruments mirror the tally exactly.
    let snap = ins.snapshot();
    assert_eq!(snap.counter("faults.injected_nacks"), tally.injected_nacks);
    assert_eq!(
        snap.counter("faults.injected_corruptions"),
        tally.injected_corruptions
    );
    assert_eq!(snap.counter("retry.attempts"), summary.retries);
    assert_eq!(snap.counter("retry.exhausted"), summary.dropped);
    assert_eq!(snap.counter("retry.backoff_ms"), tally.retry_backoff_ms);
    assert_eq!(snap.counter("faults.browned_out_windows"), 0);
}

#[test]
fn fault_tallies_are_thread_count_independent() {
    let config = CampaignConfig {
        faults: spicy_plan(),
        ..base_config()
    };
    let mut one = Campaign::new(config.clone(), 23).threads(1);
    one.run(&mut Vec::new()).unwrap();
    let mut eight = Campaign::new(config, 23).threads(8);
    eight.run(&mut Vec::new()).unwrap();
    assert_eq!(one.fault_tally(), eight.fault_tally());
    assert_eq!(one.gap_records(), eight.gap_records());
}
