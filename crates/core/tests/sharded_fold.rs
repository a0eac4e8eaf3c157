//! Folding a campaign through `Campaign::run_sharded` — each worker folds
//! its own boards' records into its part of the accumulators, and the parts
//! merge back in board order — must leave exactly what `Campaign::run` into
//! one accumulator leaves: at every thread count, with or without an
//! ordered sink, and after a resume whose salvaged head was folded first.

use pufassess::monthly::EvaluationProtocol;
use pufassess::{KeyLifeAccumulator, KeyLifeConfig, KeyProfile, WindowAccumulator};
use puftestbed::faults::{Brownout, I2cBurst};
use puftestbed::store::TeeSink;
use puftestbed::{Campaign, CampaignConfig, CampaignSummary, FaultPlan, Record, RecordSink};
use std::io;

const SEED: u64 = 31;
const READS: u32 = 30;

type Folds = TeeSink<WindowAccumulator, KeyLifeAccumulator>;

/// Boards 2 and 3 brown out in window 0, so their earliest month is not
/// the campaign's: a worker holding only them sees a later month zero, and
/// the merge must drop that month's per-read samples again. Board 1 rides
/// out an I²C burst that drops and retries reads.
fn config() -> CampaignConfig {
    CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: READS,
        faults: FaultPlan {
            brownouts: [2, 3]
                .map(|board| Brownout {
                    board: Some(board),
                    from_window: 0,
                    until_window: 0,
                })
                .to_vec(),
            i2c_bursts: vec![I2cBurst {
                board: Some(1),
                from_window: 1,
                until_window: 2,
                nack_rate: 0.4,
                corruption_rate: 0.2,
            }],
            ..FaultPlan::default()
        },
        ..CampaignConfig::default()
    }
}

fn folds() -> Folds {
    let protocol = EvaluationProtocol {
        reads_per_window: READS,
        ..EvaluationProtocol::default()
    };
    let keylife = KeyLifeConfig {
        protocol,
        profiles: vec![
            KeyProfile::parse("golay-r5", 12).unwrap(),
            KeyProfile::parse("polar-128-16", 16).unwrap(),
        ],
        enroll_seed: 7,
    };
    TeeSink::new(
        WindowAccumulator::new(protocol),
        KeyLifeAccumulator::new(keylife),
    )
}

/// What the folds hold: the assessment accumulator's whole state (its
/// month-zero samples included), the finished assessment, and the
/// key-lifetime table and CSV.
fn outcome(folds: Folds) -> [String; 4] {
    let (assessment, life) = folds.into_inner();
    let state = format!("{assessment:?}");
    let life = life.finish().expect("the campaign enrolls every device");
    [
        state,
        format!("{:?}", assessment.finish()),
        life.render_table(),
        life.csv(),
    ]
}

/// `Campaign::run` into one pair of accumulators on one thread, and its
/// summary.
fn reference() -> ([String; 4], CampaignSummary) {
    let mut folds = folds();
    let summary = Campaign::new(config(), SEED).run(&mut folds).unwrap();
    (outcome(folds), summary)
}

#[test]
fn sharded_folds_equal_one_accumulator_at_every_thread_count() {
    let (want, want_summary) = reference();
    for threads in 1..=5 {
        let mut folds = folds();
        let summary = Campaign::new(config(), SEED)
            .threads(threads)
            .run_sharded(&mut folds, None)
            .unwrap();
        assert_eq!(summary, want_summary, "threads {threads}");
        assert_eq!(outcome(folds), want, "threads {threads}");
    }
}

#[test]
fn an_ordered_sink_still_gets_the_stream_while_the_workers_fold() {
    let stream = Campaign::new(config(), SEED).run_in_memory();
    let (want, _) = reference();
    for threads in [1, 3] {
        let mut folds = folds();
        let mut records = Vec::new();
        Campaign::new(config(), SEED)
            .threads(threads)
            .run_sharded(&mut folds, Some(&mut records))
            .unwrap();
        assert_eq!(records, stream, "threads {threads}");
        assert_eq!(outcome(folds), want, "threads {threads}");
    }
}

#[test]
fn a_resumed_campaign_folds_its_salvaged_head_into_the_same_result() {
    let (want, _) = reference();
    for (windows, head_threads, tail_threads) in [(1, 3, 2), (2, 1, 4), (3, 2, 5)] {
        let mut head = Campaign::new(config(), SEED)
            .threads(head_threads)
            .halt_after_windows(windows);
        let salvaged = head.run_in_memory();
        let state = head.export_state();
        let mut folds = folds();
        for record in &salvaged {
            folds.record(record).unwrap();
        }
        Campaign::resume(config(), SEED, &state)
            .unwrap()
            .threads(tail_threads)
            .run_sharded(&mut folds, None)
            .unwrap();
        assert_eq!(
            outcome(folds),
            want,
            "{windows} windows on {head_threads} threads, then {tail_threads}"
        );
    }
}

/// Accepts `left` records, then fails every write.
struct FailingSink {
    left: usize,
}

impl RecordSink for FailingSink {
    fn record(&mut self, _: &Record) -> io::Result<()> {
        if self.left == 0 {
            return Err(io::Error::other("disk full"));
        }
        self.left -= 1;
        Ok(())
    }
}

#[test]
fn the_parts_merge_back_after_a_sink_error() {
    for threads in [1, 2, 4] {
        let mut tee = folds();
        let mut campaign = Campaign::new(config(), SEED).threads(threads);
        let mut sink = FailingSink { left: 150 };
        assert!(campaign.run_sharded(&mut tee, Some(&mut sink)).is_err());
        assert!(campaign.run_sharded(&mut folds(), None).is_err());
        let (assessment, _) = tee.into_inner();
        // Every worker folded at least the batches the sink accepted, and
        // every part came back.
        assert!(assessment.records_seen() >= 150, "threads {threads}");
        assert!(assessment.windows_open() >= 2, "threads {threads}");
    }
}
