//! Property tests: the assessment is a pure function of the record
//! *content* — the reader's `--batch-lines`, the parser thread count, and
//! the campaign's shard count must never change a single statistic.

use proptest::prelude::*;
use pufassess::monthly::EvaluationProtocol;
use pufassess::streaming::WindowAccumulator;
use pufassess::Assessment;
use puftestbed::store::{AnyRecordReader, RecordFormat, RecordWriter};
use puftestbed::{Campaign, CampaignConfig};
use std::io::Cursor;
use std::sync::OnceLock;

const READS: u32 = 12;

fn protocol() -> EvaluationProtocol {
    EvaluationProtocol {
        reads_per_window: READS,
        ..EvaluationProtocol::default()
    }
}

fn fixture_config() -> CampaignConfig {
    CampaignConfig {
        boards: 3,
        sram_bits: 192,
        read_bits: 192,
        months: 2,
        reads_per_window: READS,
        ..CampaignConfig::default()
    }
}

fn campaign_bytes(threads: usize) -> Vec<u8> {
    let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
    Campaign::new(fixture_config(), 77)
        .threads(threads)
        .run(&mut sink)
        .expect("vec sink cannot fail");
    sink.into_inner().expect("vec flush cannot fail")
}

/// Streams `bytes` through the parallel reader with the given shape and
/// folds every record into a fresh accumulator.
fn assess_with(bytes: &[u8], threads: usize, batch_lines: usize) -> Assessment {
    let reader = AnyRecordReader::spawn(
        Cursor::new(bytes.to_vec()),
        RecordFormat::Json,
        threads,
        batch_lines,
        None,
    );
    let mut accumulator = WindowAccumulator::new(protocol());
    for item in reader {
        accumulator.push(&item.expect("fixture contains no malformed lines"));
    }
    accumulator.finish().expect("fixture is assessable")
}

/// The shared fixture: serialized records plus the single-threaded,
/// single-batch baseline assessment every case must reproduce.
fn fixture() -> &'static (Vec<u8>, usize, Assessment) {
    static FIXTURE: OnceLock<(Vec<u8>, usize, Assessment)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let bytes = campaign_bytes(1);
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        let baseline = assess_with(&bytes, 1, lines);
        (bytes, lines, baseline)
    })
}

#[test]
fn named_batch_shapes_agree_with_the_baseline() {
    // The shapes called out in the regression report: one line at a time,
    // an uneven prime stride, and everything in a single batch.
    let (bytes, lines, baseline) = fixture();
    for batch_lines in [1, 7, *lines] {
        for threads in [1, 4] {
            assert_eq!(
                &assess_with(bytes, threads, batch_lines),
                baseline,
                "batch_lines={batch_lines} threads={threads} changed the assessment"
            );
        }
    }
}

#[test]
fn campaign_shard_count_does_not_change_the_assessment() {
    let (bytes, _, baseline) = fixture();
    for threads in [2, 4] {
        let sharded = campaign_bytes(threads);
        assert_eq!(
            &sharded[..],
            &bytes[..],
            "{threads} campaign shards changed the record bytes"
        );
        assert_eq!(&assess_with(&sharded, 2, 5), baseline);
    }
}

proptest! {
    #[test]
    fn assessment_is_invariant_to_reader_shape(batch_lines in 1usize..40, threads in 1usize..5) {
        let (bytes, _, baseline) = fixture();
        prop_assert_eq!(&assess_with(bytes, threads, batch_lines), baseline);
    }
}
