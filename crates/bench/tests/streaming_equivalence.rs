//! The streaming pipeline must be indistinguishable from the in-memory
//! one: same `Assessment` (bit-for-bit floats), same Table I text, same
//! CSVs — on a faulty multi-month campaign and through the full JSON-lines
//! disk format with the parallel parser.

use pufassess::monthly::EvaluationProtocol;
use pufassess::streaming::WindowAccumulator;
use pufassess::{report, Assessment};
use puftestbed::store::{AnyRecordReader, RecordFormat, RecordSink, RecordWriter};
use puftestbed::{Campaign, CampaignConfig, Record};
use std::io::Cursor;

fn faulty_campaign() -> Vec<Record> {
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        // Transport faults on: dropped and retried read-outs must not
        // desynchronise the streaming accumulation.
        i2c_nack_rate: 0.05,
        i2c_corruption_rate: 0.02,
        ..CampaignConfig::default()
    };
    Campaign::new(config, 71).run_in_memory()
}

fn protocol() -> EvaluationProtocol {
    EvaluationProtocol {
        reads_per_window: 30,
        ..EvaluationProtocol::default()
    }
}

#[test]
fn streaming_matches_in_memory_on_a_faulty_campaign() {
    let records = faulty_campaign();
    let in_memory = Assessment::from_records(&records, &protocol()).unwrap();
    let streamed = Assessment::from_record_stream(&records, &protocol()).unwrap();
    assert_eq!(in_memory, streamed);
    assert_eq!(in_memory.table1().render(), streamed.table1().render());
    assert_eq!(
        report::device_series_csv(&in_memory),
        report::device_series_csv(&streamed)
    );
    assert_eq!(
        report::aggregate_csv(&in_memory),
        report::aggregate_csv(&streamed)
    );
}

#[test]
fn streaming_matches_through_the_json_store_and_parallel_parser() {
    let records = faulty_campaign();
    let in_memory = Assessment::from_records(&records, &protocol()).unwrap();

    let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
    for r in &records {
        sink.record(r).unwrap();
    }
    let bytes = sink.into_inner().unwrap();

    for threads in [1, 4] {
        let reader = AnyRecordReader::spawn(
            Cursor::new(bytes.clone()),
            RecordFormat::Json,
            threads,
            64,
            None,
        );
        let mut accumulator = WindowAccumulator::new(protocol());
        for item in reader {
            accumulator.push(&item.expect("no malformed lines in a fresh store"));
        }
        assert_eq!(accumulator.skipped_width_mismatch(), 0);
        let streamed = accumulator.finish().unwrap();
        assert_eq!(in_memory, streamed, "threads={threads}");
    }
}
