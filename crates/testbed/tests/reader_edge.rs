//! Edge cases of the parallel record reader: degenerate batch sizes,
//! files without a trailing newline, CRLF line endings, lines that are not
//! UTF-8, and mid-file I/O failures — all must preserve in-order delivery
//! and exact positions.

use pufbits::BitVec;
use pufobs::Instruments;
use puftestbed::store::{
    read_json_lines, AnyRecordReader, ParseRecordError, Record, RecordFormat, RecordSink,
    RecordWriter,
};
use puftestbed::{BoardId, Timestamp};
use std::io::{BufRead, Cursor, Read};

fn records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|seq| {
            Record::new(
                BoardId((seq % 3) as u8),
                seq,
                Timestamp(seq as i64),
                BitVec::from_bytes(&[seq as u8, 0x5A]),
            )
        })
        .collect()
}

fn jsonl(n: u64) -> Vec<u8> {
    let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
    for r in records(n) {
        sink.record(&r).unwrap();
    }
    sink.into_inner().unwrap()
}

#[test]
fn batch_size_one_preserves_order() {
    let items: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(jsonl(40)), RecordFormat::Json, 4, 1, None)
            .collect::<Result<_, _>>()
            .unwrap();
    assert_eq!(items, records(40));
}

#[test]
fn zero_batch_size_is_clamped_not_fatal() {
    let items: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(jsonl(10)), RecordFormat::Json, 0, 0, None)
            .collect::<Result<_, _>>()
            .unwrap();
    assert_eq!(items, records(10));
}

#[test]
fn missing_trailing_newline_still_yields_the_last_record() {
    let mut bytes = jsonl(13);
    assert_eq!(bytes.pop(), Some(b'\n'));
    let items: Vec<_> = AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Json, 3, 4, None)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(items, records(13));
}

#[test]
fn crlf_line_endings_parse_cleanly() {
    // A file produced on Windows: the reader strips `\r\n` as
    // `BufRead::lines` does.
    let crlf: Vec<u8> = jsonl(17)
        .into_iter()
        .flat_map(|b| {
            if b == b'\n' {
                vec![b'\r', b'\n']
            } else {
                vec![b]
            }
        })
        .collect();
    let items: Vec<_> = AnyRecordReader::spawn(Cursor::new(crlf), RecordFormat::Json, 3, 4, None)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(items, records(17));
}

#[test]
fn a_non_utf8_line_is_one_malformed_record_in_both_json_readers() {
    let mut bytes = jsonl(20);
    // One hex digit of the record on line 7 (0-based) becomes 0xFF.
    let start = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(6)
        .map(|(i, _)| i + 1)
        .unwrap();
    let data = bytes[start..]
        .windows(8)
        .position(|w| w == b"\"data\":\"")
        .unwrap();
    bytes[start + data + 8] = 0xFF;

    let ins = Instruments::new();
    let parallel: Vec<_> = AnyRecordReader::spawn(
        Cursor::new(bytes.clone()),
        RecordFormat::Json,
        3,
        4,
        Some(&ins),
    )
    .collect();
    let sequential: Vec<_> = read_json_lines(Cursor::new(bytes)).collect();
    let mut expected = records(20);
    expected.remove(7);
    for items in [&parallel, &sequential] {
        assert_eq!(items.len(), 20);
        let good: Vec<_> = items.iter().filter_map(|r| r.clone().ok()).collect();
        assert_eq!(good, expected);
        assert_eq!(
            items[7],
            Err(ParseRecordError::Malformed(
                "line is not valid UTF-8".into()
            ))
        );
    }
    let snap = ins.snapshot();
    assert_eq!(snap.counter("reader.malformed_lines"), 1);
    assert_eq!(snap.counter("reader.io_errors"), 0);
}

/// A `BufRead` over a prefix of a record file that fails with
/// `UnexpectedEof` once the prefix is exhausted — a stream that dies
/// mid-file rather than at a record boundary.
struct TruncatedReader {
    data: Cursor<Vec<u8>>,
    failed: bool,
}

impl TruncatedReader {
    fn exhausted(&self) -> bool {
        self.data.position() as usize == self.data.get_ref().len()
    }

    fn fail(&mut self) -> std::io::Error {
        self.failed = true;
        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "stream died mid-file")
    }
}

impl Read for TruncatedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.exhausted() && !self.failed {
            return Err(self.fail());
        }
        self.data.read(buf)
    }
}

impl BufRead for TruncatedReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.exhausted() && !self.failed {
            return Err(self.fail());
        }
        self.data.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.data.consume(amt);
    }
}

#[test]
fn io_error_mid_file_is_delivered_at_the_exact_position_in_order() {
    let bytes = jsonl(20);
    // Truncate a few bytes into line 8 (after the 7th newline), so exactly
    // 7 records are readable and the 8th line is cut mid-record.
    let cut = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(6)
        .map(|(i, _)| i + 4)
        .unwrap();
    let reader = TruncatedReader {
        data: Cursor::new(bytes[..cut].to_vec()),
        failed: false,
    };

    let items: Vec<_> = AnyRecordReader::spawn(reader, RecordFormat::Json, 3, 4, None).collect();

    // The 7 complete records arrive first, in input order; the failure is
    // the very next item — the partial 8th line is reported as I/O loss,
    // never as a malformed record — and the stream ends there.
    assert_eq!(items.len(), 8);
    let good: Vec<_> = items[..7]
        .iter()
        .map(|r| r.clone().expect("complete records parse"))
        .collect();
    assert_eq!(good, records(20)[..7].to_vec());
    match items[7].as_ref().unwrap_err() {
        ParseRecordError::Io { kind, .. } => {
            assert_eq!(*kind, std::io::ErrorKind::UnexpectedEof);
        }
        other => panic!("expected an Io error, got {other:?}"),
    }
}

fn pufrec(n: u64) -> Vec<u8> {
    let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
    for r in records(n) {
        sink.record(&r).unwrap();
    }
    sink.into_inner().unwrap()
}

#[test]
fn binary_reader_agrees_with_json_reader() {
    let json: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(jsonl(50)), RecordFormat::Json, 3, 4, None)
            .collect::<Result<_, _>>()
            .unwrap();
    let binary: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(pufrec(50)), RecordFormat::Binary, 3, 4, None)
            .collect::<Result<_, _>>()
            .unwrap();
    assert_eq!(json, binary);
    assert_eq!(json, records(50));
}

#[test]
fn binary_zero_batch_and_thread_counts_are_clamped_not_fatal() {
    let items: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(pufrec(10)), RecordFormat::Binary, 0, 0, None)
            .collect::<Result<_, _>>()
            .unwrap();
    assert_eq!(items, records(10));
}

#[test]
fn binary_io_error_mid_file_is_delivered_at_the_exact_position_in_order() {
    let bytes = pufrec(20);
    // Cut mid-way through the 8th record's frame, with the stream dying
    // (not cleanly ending) at the cut.
    let record_len = (bytes.len() - puftestbed::store::binary::HEADER_LEN) / 20;
    let cut = puftestbed::store::binary::HEADER_LEN + 7 * record_len + record_len / 2;
    let reader = TruncatedReader {
        data: Cursor::new(bytes[..cut].to_vec()),
        failed: false,
    };

    let items: Vec<_> = AnyRecordReader::spawn(reader, RecordFormat::Binary, 3, 4, None).collect();

    assert_eq!(items.len(), 8);
    let good: Vec<_> = items[..7]
        .iter()
        .map(|r| r.clone().expect("complete records decode"))
        .collect();
    assert_eq!(good, records(20)[..7].to_vec());
    match items[7].as_ref().unwrap_err() {
        ParseRecordError::Io { kind, .. } => {
            assert_eq!(*kind, std::io::ErrorKind::UnexpectedEof);
        }
        other => panic!("expected an Io error, got {other:?}"),
    }
}

#[test]
fn zero_length_binary_file_is_typed_corrupt_with_position() {
    let items: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(Vec::new()), RecordFormat::Binary, 2, 4, None).collect();
    assert_eq!(items.len(), 1);
    let err = items[0].as_ref().unwrap_err();
    assert!(!err.is_io(), "clean EOF is structural damage, not I/O loss");
    match err {
        ParseRecordError::Corrupt(msg) => {
            assert!(
                msg.contains("file header truncated at 0 of 12 bytes"),
                "{msg}"
            )
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn header_only_binary_file_yields_no_records_and_no_errors() {
    let items: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(pufrec(0)), RecordFormat::Binary, 2, 4, None).collect();
    assert!(
        items.is_empty(),
        "a header with no frames is a valid empty file"
    );
}

#[test]
fn truncation_inside_a_length_prefix_is_corrupt_with_the_exact_offset() {
    let bytes = pufrec(5);
    let record_len = (bytes.len() - puftestbed::store::binary::HEADER_LEN) / 5;
    // Keep 3 whole frames plus 2 bytes of the 4th frame's length prefix.
    let cut = puftestbed::store::binary::HEADER_LEN + 3 * record_len + 2;
    let items: Vec<_> = AnyRecordReader::spawn(
        Cursor::new(bytes[..cut].to_vec()),
        RecordFormat::Binary,
        2,
        4,
        None,
    )
    .collect();
    assert_eq!(items.len(), 4);
    assert_eq!(
        items[..3]
            .iter()
            .map(|r| r.clone().unwrap())
            .collect::<Vec<_>>(),
        records(5)[..3].to_vec()
    );
    let err = items[3].as_ref().unwrap_err();
    assert!(!err.is_io(), "a cleanly-ended torn file is Corrupt, not Io");
    match err {
        ParseRecordError::Corrupt(msg) => {
            let expected = format!(
                "record truncated inside the length prefix (2 of 4 bytes at offset {})",
                puftestbed::store::binary::HEADER_LEN + 3 * record_len
            );
            assert!(msg.contains(&expected), "{msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn resync_recovers_the_frames_after_a_corrupt_region() {
    let mut bytes = pufrec(20);
    let record_len = (bytes.len() - puftestbed::store::binary::HEADER_LEN) / 20;
    // Destroy the 5th frame's payload; its CRC no longer matches.
    bytes[puftestbed::store::binary::HEADER_LEN + 4 * record_len + 9] ^= 0xFF;

    let items: Vec<_> =
        AnyRecordReader::spawn_resync(Cursor::new(bytes), 2, 4, 1 << 20, None).collect();
    let good: Vec<_> = items
        .iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    let notices: Vec<_> = items
        .iter()
        .filter_map(|r| r.as_ref().err().map(|e| e.to_string()))
        .collect();
    // Every frame but the destroyed one survives, and the loss is loud:
    // one resync notice naming the dropped range.
    let mut expected = records(20);
    expected.remove(4);
    assert_eq!(good, expected);
    assert_eq!(notices.len(), 1);
    assert!(
        notices[0].contains("resynchronised") && notices[0].contains(&record_len.to_string()),
        "{}",
        notices[0]
    );
}

#[test]
fn resync_with_an_exhausted_skip_budget_gives_up_loudly() {
    let mut bytes = pufrec(10);
    let record_len = (bytes.len() - puftestbed::store::binary::HEADER_LEN) / 10;
    bytes[puftestbed::store::binary::HEADER_LEN + 2 * record_len + 9] ^= 0xFF;

    // A budget smaller than one frame cannot reach the next valid frame.
    let items: Vec<_> = AnyRecordReader::spawn_resync(Cursor::new(bytes), 2, 4, 3, None).collect();
    let good = items.iter().filter(|r| r.is_ok()).count();
    assert_eq!(good, 2, "the frames before the damage still arrive");
    let last = items.last().unwrap().as_ref().unwrap_err().to_string();
    assert!(
        last.contains("resync abandoned") && last.contains("skip budget of 3 bytes"),
        "{last}"
    );
}

#[test]
fn resync_on_a_clean_file_is_equivalent_to_the_strict_reader() {
    let bytes = pufrec(30);
    let strict: Vec<_> =
        AnyRecordReader::spawn(Cursor::new(bytes.clone()), RecordFormat::Binary, 3, 4, None)
            .collect::<Result<_, _>>()
            .unwrap();
    let resync: Vec<_> = AnyRecordReader::spawn_resync(Cursor::new(bytes), 3, 4, 1024, None)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(strict, resync);
}

/// The `convert` flow: decode with the auto-detecting reader, re-encode in
/// the other format, and back. Migration must be lossless — the same
/// records after any number of hops, and the JSON → binary → JSON hop
/// reproduces the original file byte-for-byte.
#[test]
fn convert_round_trip_is_lossless_and_byte_identical() {
    let original_json = jsonl(64);

    let reader = AnyRecordReader::open(Cursor::new(original_json.clone()), 2, 8, None).unwrap();
    assert_eq!(reader.format(), RecordFormat::Json);
    let mut to_binary = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
    for item in reader {
        to_binary.record(&item.unwrap()).unwrap();
    }
    let binary = to_binary.into_inner().unwrap();

    let reader = AnyRecordReader::open(Cursor::new(binary), 2, 8, None).unwrap();
    assert_eq!(reader.format(), RecordFormat::Binary);
    let mut back_to_json = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
    for item in reader {
        back_to_json.record(&item.unwrap()).unwrap();
    }
    let round_tripped = back_to_json.into_inner().unwrap();

    assert_eq!(round_tripped, original_json);
}
