//! The streaming key-lifetime path must be indistinguishable from the
//! in-memory reference: same `KeyLife` (bit-for-bit floats), same rendered
//! table, same CSV — on clean campaigns, on faulted campaigns whose gaps
//! become erasures, and through device-disjoint sharding with a
//! deterministic merge. The differential twin of
//! `crates/bench/tests/streaming_equivalence.rs`.

use pufassess::monthly::EvaluationProtocol;
use pufassess::{KeyLife, KeyLifeAccumulator, KeyLifeConfig, KeyProfile};
use pufbits::BitVec;
use puftestbed::faults::{Brownout, I2cBurst};
use puftestbed::{
    BoardId, CalendarDate, Campaign, CampaignConfig, Dataset, FaultPlan, Record, Timestamp,
};

fn keylife_config() -> KeyLifeConfig {
    KeyLifeConfig {
        protocol: EvaluationProtocol {
            reads_per_window: 30,
            ..EvaluationProtocol::default()
        },
        profiles: vec![
            KeyProfile::parse("golay-r5", 12).unwrap(),
            KeyProfile::parse("polar-128-16", 16).unwrap(),
        ],
        enroll_seed: 7,
    }
}

fn clean_campaign() -> Dataset {
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        ..CampaignConfig::default()
    };
    Campaign::new(config, 71).run_in_memory()
}

/// Transport faults and scheduled outages on: board 1 loses window 2 whole
/// (a brownout gap), board 2 rides out an I2C burst that drops and
/// corrupts read-outs. The record file carries only the surviving reads —
/// the workload must infer the rest as erasures, identically on both
/// paths.
fn faulted_campaign() -> Dataset {
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        i2c_nack_rate: 0.05,
        i2c_corruption_rate: 0.02,
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(1),
                from_window: 2,
                until_window: 2,
            }],
            i2c_bursts: vec![I2cBurst {
                board: Some(2),
                from_window: 1,
                until_window: 3,
                nack_rate: 0.4,
                corruption_rate: 0.2,
            }],
            ..FaultPlan::default()
        },
        ..CampaignConfig::default()
    };
    Campaign::new(config, 71).run_in_memory()
}

fn streamed(dataset: &Dataset, config: &KeyLifeConfig) -> KeyLife {
    let mut accumulator = KeyLifeAccumulator::new(config.clone());
    for record in dataset.records() {
        accumulator.push(record);
    }
    accumulator.finish().unwrap()
}

/// Shards the records by `device % shards`, folds each shard in its own
/// accumulator, and merges in shard order — the harness's parallel layout.
fn sharded(dataset: &Dataset, config: &KeyLifeConfig, shards: usize) -> KeyLife {
    let mut accumulators: Vec<KeyLifeAccumulator> = (0..shards)
        .map(|_| KeyLifeAccumulator::new(config.clone()))
        .collect();
    for record in dataset.records() {
        accumulators[record.device.0 as usize % shards].push(record);
    }
    let mut merged: Option<KeyLifeAccumulator> = None;
    for shard in accumulators {
        match &mut merged {
            None => merged = Some(shard),
            Some(m) => m.merge(shard),
        }
    }
    merged.unwrap().finish().unwrap()
}

#[test]
fn streaming_matches_in_memory_on_a_clean_campaign() {
    let dataset = clean_campaign();
    let config = keylife_config();
    let in_memory = KeyLife::from_records(dataset.records(), &config).unwrap();
    let streamed = streamed(&dataset, &config);
    assert_eq!(in_memory, streamed);
    assert_eq!(in_memory.render_table(), streamed.render_table());
    assert_eq!(in_memory.csv(), streamed.csv());
    assert_eq!(in_memory.total_failures(), 0, "clean campaign loses no key");
}

#[test]
fn streaming_matches_in_memory_on_a_faulted_campaign() {
    let dataset = faulted_campaign();
    let config = keylife_config();
    let in_memory = KeyLife::from_records(dataset.records(), &config).unwrap();
    let streamed = streamed(&dataset, &config);
    assert_eq!(in_memory, streamed);
    assert_eq!(in_memory.render_table(), streamed.render_table());
    assert_eq!(in_memory.csv(), streamed.csv());

    // The faults must actually have bitten: the brownout month reports the
    // whole missing window as erasures, and the burst leaves at least one
    // underfilled window. Otherwise this test locks nothing.
    let golay = &in_memory.profiles[0];
    let erasures: u64 = golay.rows.iter().map(|r| r.erasures).sum();
    assert!(
        erasures >= u64::from(config.protocol.reads_per_window),
        "expected at least one browned-out window of erasures, got {erasures}"
    );
    let brownout_month = golay
        .rows
        .iter()
        .find(|r| r.erasures >= u64::from(config.protocol.reads_per_window))
        .expect("a month absorbs the brownout");
    assert!(
        brownout_month.rate.unwrap() > 0.0,
        "erasures must surface in the rate"
    );
}

#[test]
fn a_read_of_another_width_than_the_reference_is_skipped_on_both_paths() {
    // Device 0 enrolls from a 1 024-bit read in February. Its 2 048-bit
    // March read opens March's window at its own width, but it cannot be
    // compared with the reference: both paths must skip and count it.
    let read = |seq: u64, month: u8, bits: usize| {
        Record::new(
            BoardId(0),
            seq,
            Timestamp::from_date(CalendarDate::new(2017, month, 8)),
            BitVec::from_bits((0..bits).map(|i| i % 3 == 0)),
        )
    };
    let records = [read(0, 2, 1024), read(1, 3, 2048)];
    let config = keylife_config();
    let in_memory = KeyLife::from_records(&records, &config).unwrap();
    let mut accumulator = KeyLifeAccumulator::new(config.clone());
    for record in &records {
        accumulator.push(record);
    }
    let streamed = accumulator.finish().unwrap();
    assert_eq!(in_memory, streamed);
    assert_eq!(in_memory.render_table(), streamed.render_table());
    assert_eq!(in_memory.csv(), streamed.csv());
    assert_eq!(streamed.skipped_width_mismatch, 1);
    assert_eq!(streamed.records_folded, 1);
    assert_eq!(streamed.reconstructions, 0);
}

#[test]
fn sharded_merge_is_identical_for_every_shard_count() {
    for dataset in [clean_campaign(), faulted_campaign()] {
        let config = keylife_config();
        let sequential = streamed(&dataset, &config);
        for shards in [1, 2, 3, 8] {
            let merged = sharded(&dataset, &config, shards);
            assert_eq!(sequential, merged, "shards={shards}");
            assert_eq!(
                sequential.render_table(),
                merged.render_table(),
                "shards={shards}"
            );
        }
    }
}

#[test]
fn resumed_and_uninterrupted_faulted_campaigns_agree() {
    // A campaign halted at a window boundary and resumed from its
    // checkpoint state must feed the accumulator the identical stream: the
    // halted head plus the resumed tail equals the uninterrupted run.
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        i2c_nack_rate: 0.05,
        i2c_corruption_rate: 0.02,
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(1),
                from_window: 2,
                until_window: 2,
            }],
            ..FaultPlan::default()
        },
        ..CampaignConfig::default()
    };
    let keylife = keylife_config();

    let mut uninterrupted = KeyLifeAccumulator::new(keylife.clone());
    Campaign::new(config.clone(), 71)
        .run(&mut uninterrupted)
        .unwrap();
    let uninterrupted = uninterrupted.finish().unwrap();

    let mut resumed = KeyLifeAccumulator::new(keylife);
    let mut head = Campaign::new(config.clone(), 71).halt_after_windows(2);
    head.run(&mut resumed).unwrap();
    assert!(!head.completed());
    let state = head.export_state();
    Campaign::resume(config, 71, &state)
        .unwrap()
        .run(&mut resumed)
        .unwrap();
    let resumed = resumed.finish().unwrap();

    assert_eq!(uninterrupted, resumed);
    assert_eq!(uninterrupted.render_table(), resumed.render_table());
}
