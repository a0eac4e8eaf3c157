//! Integration: campaign records persisted to a JSON-lines file on disk and
//! replayed into an identical assessment — the Raspberry-Pi database path
//! of the paper's Fig. 2.

use sram_puf_longterm::pufassess::{Assessment, EvaluationProtocol};
use sram_puf_longterm::puftestbed::store::{read_json_lines, RecordFormat, RecordWriter};
use sram_puf_longterm::puftestbed::{Campaign, CampaignConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;

/// Removes its file when dropped, also when an assertion fails first.
struct RemovedOnDrop(PathBuf);

impl Drop for RemovedOnDrop {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn campaign_streams_to_disk_and_replays_identically() {
    let config = CampaignConfig {
        boards: 3,
        sram_bits: 1024,
        read_bits: 1024,
        months: 2,
        reads_per_window: 25,
        ..CampaignConfig::default()
    };
    let protocol = EvaluationProtocol {
        reads_per_window: 25,
        ..EvaluationProtocol::default()
    };

    let path = std::env::temp_dir().join(format!(
        "sram_puf_longterm_records_{}.jsonl",
        std::process::id()
    ));
    let _cleanup = RemovedOnDrop(path.clone());

    // Stream the campaign straight to disk.
    let mut campaign = Campaign::new(config.clone(), 9001);
    let file = File::create(&path).expect("create temp record file");
    let mut sink =
        RecordWriter::new(BufWriter::new(file), RecordFormat::Json, 0).expect("no header to write");
    let summary = campaign.run(&mut sink).expect("write records");
    sink.into_inner()
        .expect("flush")
        .into_inner()
        .expect("flush buffer");
    assert_eq!(summary.records, 3 * 3 * 25);

    // Replay from disk.
    let reader = BufReader::new(File::open(&path).expect("reopen"));
    let records: Vec<_> = read_json_lines(reader)
        .collect::<Result<_, _>>()
        .expect("every persisted line parses");
    assert_eq!(records.len() as u64, summary.records);

    let replayed = Assessment::from_records(&records, &protocol).expect("assessable");

    // An identically seeded in-memory run must agree exactly.
    let direct_records = Campaign::new(config, 9001).run_in_memory();
    let direct = Assessment::from_records(&direct_records, &protocol).unwrap();
    assert_eq!(replayed, direct);
}

#[test]
fn corrupted_lines_are_reported_not_swallowed() {
    let good = sram_puf_longterm::puftestbed::Record::new(
        sram_puf_longterm::puftestbed::BoardId(0),
        0,
        sram_puf_longterm::puftestbed::Timestamp(0),
        sram_puf_longterm::pufbits::BitVec::from_bytes(&[0xAA]),
    )
    .to_json_line();
    let stream = format!("{good}\nnot json at all\n{good}\n");
    let results: Vec<_> = read_json_lines(stream.as_bytes()).collect();
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
}
