//! Satellite: the sharded campaign engine is deterministic — same
//! `CampaignConfig` + seed twice, and any thread count, produce
//! byte-identical records.

use pufobs::Instruments;
use puftestbed::store::{Record, RecordSink};
use puftestbed::{Campaign, CampaignConfig, MeasurementPlan};
use std::io;

fn config_with_faults() -> CampaignConfig {
    // Faults exercise the per-board I2C fault draws; retries exercise the
    // retry/drop accounting under every thread topology.
    CampaignConfig {
        boards: 6,
        sram_bits: 512,
        read_bits: 300,
        months: 2,
        reads_per_window: 15,
        i2c_nack_rate: 0.1,
        i2c_corruption_rate: 0.05,
        i2c_retries: 4,
        ..CampaignConfig::default()
    }
}

fn run(config: CampaignConfig, seed: u64, threads: usize) -> (Vec<Record>, String) {
    let records = Campaign::new(config, seed).threads(threads).run_in_memory();
    let bytes: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
    (records, bytes)
}

#[test]
fn same_seed_twice_is_byte_identical() {
    let (records_a, bytes_a) = run(config_with_faults(), 99, 1);
    let (records_b, bytes_b) = run(config_with_faults(), 99, 1);
    assert!(!records_a.is_empty());
    assert_eq!(records_a, records_b);
    assert_eq!(bytes_a, bytes_b);
}

#[test]
fn thread_count_does_not_change_the_record_stream() {
    let (records_1, bytes_1) = run(config_with_faults(), 7, 1);
    for threads in [2, 3, 8] {
        let (records_n, bytes_n) = run(config_with_faults(), 7, threads);
        assert_eq!(records_1, records_n, "threads={threads}");
        assert_eq!(bytes_1, bytes_n, "threads={threads}");
    }
}

#[test]
fn summaries_agree_across_thread_counts() {
    let summary_1 = Campaign::new(config_with_faults(), 41)
        .threads(1)
        .run(&mut Vec::new())
        .unwrap();
    let summary_8 = Campaign::new(config_with_faults(), 41)
        .threads(8)
        .run(&mut Vec::new())
        .unwrap();
    assert_eq!(summary_1, summary_8);
    assert!(summary_1.retries > 0, "faults must actually fire");
}

#[test]
fn continuous_plan_is_thread_count_independent_too() {
    let config = CampaignConfig {
        plan: MeasurementPlan::Continuous,
        months: 0,
        i2c_nack_rate: 0.0,
        i2c_corruption_rate: 0.0,
        ..config_with_faults()
    };
    let (records_1, _) = run(config.clone(), 13, 1);
    let (records_4, _) = run(config, 13, 4);
    assert_eq!(records_1, records_4);
}

#[test]
fn different_seeds_produce_different_data() {
    let (records_a, _) = run(config_with_faults(), 1, 1);
    let (records_b, _) = run(config_with_faults(), 2, 1);
    assert_ne!(records_a, records_b);
}

/// Accepts its first `limit` records, then fails every call.
struct FailingSink {
    records: Vec<Record>,
    limit: usize,
}

impl RecordSink for FailingSink {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        if self.records.len() == self.limit {
            return Err(io::Error::other("disk full"));
        }
        self.records.push(record.clone());
        Ok(())
    }
}

#[test]
fn a_failing_sink_holds_a_prefix_of_the_stream_at_any_thread_count() {
    // 1 252 = 750 + 502: the failure lands in the second window's second
    // batch of reads, while the workers are still measuring.
    const ACCEPTED: usize = 1252;
    let config = CampaignConfig {
        boards: 5,
        reads_per_window: 150,
        ..config_with_faults()
    };
    let (full, _) = run(config.clone(), 7, 1);
    assert!(full.len() > ACCEPTED + 500, "{} records", full.len());
    for threads in [1, 2, 3, 8] {
        let ins = Instruments::new();
        let mut sink = FailingSink {
            records: Vec::new(),
            limit: ACCEPTED,
        };
        let err = Campaign::new(config.clone(), 7)
            .threads(threads)
            .instruments(&ins)
            .run(&mut sink)
            .expect_err("the sink fails");
        assert_eq!(err.to_string(), "disk full", "threads={threads}");
        assert!(sink.records[..] == full[..ACCEPTED], "threads={threads}");
        assert_eq!(
            ins.snapshot().counter("campaign.records"),
            ACCEPTED as u64,
            "threads={threads}"
        );
    }
}

#[test]
fn a_campaign_stopped_by_a_sink_error_does_not_run_again() {
    // The boards have aged into the failing window and drawn from their
    // streams; running on would age and measure that window a second time.
    let config = CampaignConfig {
        boards: 5,
        reads_per_window: 150,
        ..config_with_faults()
    };
    let mut campaign = Campaign::new(config, 7);
    let mut sink = FailingSink {
        records: Vec::new(),
        limit: 1252,
    };
    campaign.run(&mut sink).expect_err("the sink fails");
    let mut again = Vec::new();
    let err = campaign
        .run(&mut again)
        .expect_err("a second run must not continue the stream");
    assert!(err.to_string().contains("last checkpoint"), "{err}");
    assert!(again.is_empty(), "{} records written", again.len());
}
