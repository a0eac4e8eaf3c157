//! Property-based invariants of the fsck/salvage subsystem.
//!
//! The central guarantees: truncating a `pufrec/1` file at *any* byte
//! offset, the salvage recovers exactly the frames that were fully
//! written before the cut and its journal accounts for every dropped
//! byte; corrupting any single byte is either detected (the report is not
//! clean) or harmless (every record survives unchanged); and the
//! streaming resync reader recovers the same record sequence as the
//! offline salvage.

use proptest::prelude::*;
use pufbits::BitVec;
use puftestbed::store::binary::HEADER_LEN;
use puftestbed::store::fsck::salvage_pufrec;
use puftestbed::store::{AnyRecordReader, Record, RecordFormat, RecordSink, RecordWriter};
use puftestbed::{BoardId, Timestamp};
use std::io::Cursor;

/// Records with varied payload widths, so frame boundaries are irregular.
fn sample_records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|seq| {
            let width = 1 + (seq as usize % 5);
            let data: Vec<u8> = (0..width)
                .map(|i| (seq as u8).wrapping_mul(31) ^ i as u8)
                .collect();
            Record::new(
                BoardId((seq % 4) as u8),
                seq,
                Timestamp(1_486_512_000 + seq as i64 * 60),
                BitVec::from_bytes(&data),
            )
        })
        .collect()
}

fn encode(records: &[Record]) -> Vec<u8> {
    let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
    for r in records {
        sink.record(r).unwrap();
    }
    sink.into_inner().unwrap()
}

/// The stream offset at which each frame *ends* (so a cut at or past the
/// offset keeps the frame).
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut cursor = HEADER_LEN;
    while cursor < bytes.len() {
        let (_, used) = Record::decode_binary(&bytes[cursor..]).expect("clean file decodes");
        cursor += used;
        ends.push(cursor);
    }
    ends
}

/// Truncation at EVERY byte offset of a generated file — exhaustive, not
/// sampled: this is exactly what a torn write, a full disk, or a `kill
/// -9` mid-append leaves behind.
#[test]
fn truncation_at_every_offset_recovers_exactly_the_complete_frames() {
    let records = sample_records(8);
    let bytes = encode(&records);
    let ends = frame_ends(&bytes);
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        let mut kept: Vec<Record> = Vec::new();
        let report = salvage_pufrec(prefix, |r| kept.push(r.clone()));

        // Exactly the frames fully written before the cut survive.
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            kept,
            records[..complete].to_vec(),
            "cut at {cut}: expected the first {complete} frames"
        );
        assert_eq!(report.frames_ok, complete as u64, "cut at {cut}");

        // The journal accounts for every byte of the truncated file.
        assert_eq!(
            report.bytes_kept + report.bytes_dropped,
            cut as u64,
            "cut at {cut}: kept + dropped must cover the file"
        );
        assert_eq!(
            report.dropped.iter().map(|d| d.len).sum::<u64>(),
            report.bytes_dropped,
            "cut at {cut}: journal ranges must sum to bytes_dropped"
        );
        // Dropped ranges carry real positions inside the file.
        for range in &report.dropped {
            assert!(range.offset + range.len <= cut as u64, "cut at {cut}");
        }
        // A cut through the header loses header_ok; at or past it, never.
        assert_eq!(report.header_ok, cut >= HEADER_LEN, "cut at {cut}");
    }
}

proptest! {
    /// Any single corrupted byte is either detected (the report says so)
    /// or harmless (every record survives bit-for-bit) — never a silent
    /// change of the salvaged data.
    #[test]
    fn single_byte_corruption_is_detected_or_harmless(
        n in 1u64..10,
        pick in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let records = sample_records(n);
        let mut bytes = encode(&records);
        let pos = (pick % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;

        let mut kept: Vec<Record> = Vec::new();
        let report = salvage_pufrec(&bytes, |r| kept.push(r.clone()));

        prop_assert_eq!(
            report.bytes_kept + report.bytes_dropped,
            bytes.len() as u64,
            "every byte accounted for"
        );
        if report.clean() {
            // Harmless (e.g. a flip inside the header's declared-bits
            // field): the data must be untouched.
            prop_assert_eq!(kept, records);
        }
        // Otherwise: detected, with the journal naming the damage. Either
        // way the corruption never silently alters a salvaged record.
        for record in &kept {
            prop_assert!(
                records.contains(record),
                "salvage must never invent records"
            );
        }
    }

    /// The streaming bounded resync recovers the same record sequence as
    /// the offline exhaustive salvage (its in-memory counterpart), so
    /// `assess --resync` and `convert --fsck --repair` agree on what a
    /// damaged file still holds.
    #[test]
    fn streaming_resync_agrees_with_offline_salvage(
        n in 2u64..12,
        pick in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let records = sample_records(n);
        let mut bytes = encode(&records);
        let pos = (pick % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;

        let mut offline: Vec<Record> = Vec::new();
        salvage_pufrec(&bytes, |r| offline.push(r.clone()));

        let streaming: Vec<Record> =
            AnyRecordReader::spawn_resync(Cursor::new(bytes), 2, 3, u64::MAX, None)
                .filter_map(Result::ok)
                .collect();
        prop_assert_eq!(streaming, offline);
    }
}
