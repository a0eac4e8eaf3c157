//! Verification and salvage of the store's on-disk formats.
//!
//! The `pufrec/1` record format carries a CRC-32 per frame and the
//! `pufchk/1` checkpoint a CRC over its whole body, so damage is always
//! *detectable* — this module adds *recovery*: a resync scanner that walks
//! a damaged byte stream and re-locks onto the next position where a
//! complete, CRC-valid frame begins, so one torn write costs the frames it
//! touched rather than everything after it.
//!
//! Every salvage produces an [`FsckReport`] whose [`DroppedRange`] journal
//! accounts for *every* byte of the input: `bytes_kept + bytes_dropped ==
//! bytes_total`, with each dropped range carrying its exact offset. That
//! accounting is what the truncation property test pins down for every cut
//! offset of a generated file, and what `convert --fsck --repair` writes
//! next to the salvaged file.
//!
//! The streaming counterpart (bounded, best-effort) lives in
//! [`AnyRecordReader::spawn_resync`](super::AnyRecordReader::spawn_resync);
//! this module is the offline, exhaustive form the `fsck` CLI and the
//! property tests drive.

use super::binary::{FileHeader, HEADER_LEN, VERSION};
use super::{checkpoint, Record};

/// A contiguous byte range the salvage dropped, with why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedRange {
    /// Absolute offset of the first dropped byte.
    pub offset: u64,
    /// Length of the dropped range in bytes.
    pub len: u64,
    /// Human-readable cause (truncated frame, CRC mismatch, bad header…).
    pub reason: String,
}

/// What a verification/salvage pass found.
#[derive(Debug, Clone, PartialEq)]
pub struct FsckReport {
    /// The format the pass ran as (`pufrec`, `pufchk`, or `json`).
    pub format: &'static str,
    /// Total input bytes examined.
    pub bytes_total: u64,
    /// Bytes belonging to intact structure (header + valid frames/lines).
    pub bytes_kept: u64,
    /// Bytes dropped as unrecoverable (always `bytes_total - bytes_kept`).
    pub bytes_dropped: u64,
    /// Intact records/frames found.
    pub frames_ok: u64,
    /// Whether the file header itself was intact.
    pub header_ok: bool,
    /// The journal of dropped ranges, in offset order.
    pub dropped: Vec<DroppedRange>,
}

impl FsckReport {
    /// Whether the file verified clean (nothing dropped, header intact).
    pub fn clean(&self) -> bool {
        self.dropped.is_empty() && self.header_ok
    }

    fn new(format: &'static str, bytes_total: u64) -> Self {
        Self {
            format,
            bytes_total,
            bytes_kept: 0,
            bytes_dropped: 0,
            frames_ok: 0,
            header_ok: false,
            dropped: Vec::new(),
        }
    }

    fn drop_range(&mut self, offset: u64, len: u64, reason: String) {
        if len == 0 {
            return;
        }
        self.bytes_dropped += len;
        self.dropped.push(DroppedRange {
            offset,
            len,
            reason,
        });
    }
}

/// Scans a `pufrec/1` byte image, calling `keep` for every intact frame in
/// stream order and journalling everything else. After any damage the
/// scanner re-locks on the next byte offset at which a complete frame
/// decodes (length prefix plausible, CRC valid, payload well-formed).
///
/// The salvaged record sequence is exactly the frames [`Record::decode_binary`]
/// accepts, so re-encoding them reproduces the undamaged portion of the
/// file byte-for-byte.
pub fn salvage_pufrec(bytes: &[u8], mut keep: impl FnMut(&Record)) -> FsckReport {
    let mut report = FsckReport::new("pufrec", bytes.len() as u64);
    let mut cursor = match FileHeader::parse(bytes) {
        Ok(_) => {
            report.header_ok = true;
            report.bytes_kept = HEADER_LEN as u64;
            HEADER_LEN
        }
        // A damaged header is just the first corrupt region: scan for the
        // first frame from offset 0.
        Err(_) => 0,
    };
    while cursor < bytes.len() {
        match Record::decode_binary(&bytes[cursor..]) {
            Ok((record, used)) => {
                keep(&record);
                report.frames_ok += 1;
                report.bytes_kept += used as u64;
                cursor += used;
            }
            Err(first_error) => {
                // Re-lock: the next offset at which a complete frame
                // decodes. Everything in between is dropped.
                let start = cursor;
                let mut probe = cursor + 1;
                let relocked = loop {
                    if probe >= bytes.len() {
                        break None;
                    }
                    if Record::decode_binary(&bytes[probe..]).is_ok() {
                        break Some(probe);
                    }
                    probe += 1;
                };
                let end = relocked.unwrap_or(bytes.len());
                let reason = if report.header_ok || start != 0 {
                    format!("unreadable frame region: {first_error}")
                } else {
                    format!("unreadable file header: {first_error}")
                };
                report.drop_range(start as u64, (end - start) as u64, reason);
                cursor = end;
            }
        }
    }
    report
}

/// The header a repaired `pufrec/1` file gets: the original header when it
/// was intact, else a fresh one with an unspecified declared width.
pub fn repair_header(bytes: &[u8]) -> FileHeader {
    FileHeader::parse(bytes).unwrap_or(FileHeader {
        version: VERSION,
        declared_bits: 0,
    })
}

/// Verifies a `pufchk/1` checkpoint image. Checkpoints are single-shot
/// state (there is no record sequence to partially salvage), so the file
/// is either wholly intact or wholly dropped — the supervisor's
/// quarantine-and-fall-back-a-generation logic keys off exactly this.
pub fn fsck_pufchk(bytes: &[u8]) -> FsckReport {
    let mut report = FsckReport::new("pufchk", bytes.len() as u64);
    match checkpoint::decode(bytes) {
        Ok(_) => {
            report.header_ok = true;
            report.bytes_kept = bytes.len() as u64;
            report.frames_ok = 1;
        }
        Err(e) => {
            report.drop_range(0, bytes.len() as u64, format!("invalid checkpoint: {e}"));
        }
    }
    report
}

/// Verifies a JSON-lines record file, calling `keep` for every parseable
/// record line. Blank lines are structure (the reader skips them), so they
/// count as kept; malformed lines are dropped with their exact byte range.
pub fn salvage_json_lines(bytes: &[u8], mut keep: impl FnMut(&Record)) -> FsckReport {
    let mut report = FsckReport::new("json", bytes.len() as u64);
    // JSON-lines files have no header to lose.
    report.header_ok = true;
    let mut offset = 0u64;
    for chunk in bytes.split_inclusive(|&b| b == b'\n') {
        let len = chunk.len() as u64;
        let line = match std::str::from_utf8(chunk) {
            Ok(text) => text.trim_end_matches(['\n', '\r']),
            Err(_) => {
                report.drop_range(offset, len, "line is not valid UTF-8".into());
                offset += len;
                continue;
            }
        };
        if line.trim().is_empty() {
            report.bytes_kept += len;
        } else {
            match Record::parse_json_line(line) {
                Ok(record) => {
                    keep(&record);
                    report.frames_ok += 1;
                    report.bytes_kept += len;
                }
                Err(e) => {
                    report.drop_range(offset, len, format!("unparseable line: {e}"));
                }
            }
        }
        offset += len;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RecordFormat, RecordSink, RecordWriter};
    use crate::{BoardId, Timestamp};
    use pufbits::BitVec;

    fn sample(device: u8, seq: u64) -> Record {
        Record::new(
            BoardId(device),
            seq,
            Timestamp(1_486_512_000 + seq as i64),
            BitVec::from_bytes(&[seq as u8, device, 0x5A]),
        )
    }

    fn corpus(n: u64) -> Vec<u8> {
        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
        for seq in 0..n {
            sink.record(&sample((seq % 3) as u8, seq)).unwrap();
        }
        sink.into_inner().unwrap()
    }

    fn accounted(report: &FsckReport) -> bool {
        report.bytes_kept + report.bytes_dropped == report.bytes_total
            && report.bytes_dropped == report.dropped.iter().map(|d| d.len).sum::<u64>()
    }

    #[test]
    fn clean_file_verifies_clean() {
        let bytes = corpus(10);
        let mut kept = Vec::new();
        let report = salvage_pufrec(&bytes, |r| kept.push(r.clone()));
        assert!(report.clean());
        assert_eq!(report.frames_ok, 10);
        assert_eq!(kept.len(), 10);
        assert_eq!(report.bytes_kept, bytes.len() as u64);
        assert!(accounted(&report));
    }

    #[test]
    fn one_corrupt_frame_loses_only_itself() {
        let mut bytes = corpus(10);
        // Flip a data byte inside the 4th frame's payload (frames are
        // uniform here, so frame length is (total - header) / 10).
        let frame_len = (bytes.len() - HEADER_LEN) / 10;
        let target = HEADER_LEN + 3 * frame_len + 10;
        bytes[target] ^= 0xFF;
        let mut kept = Vec::new();
        let report = salvage_pufrec(&bytes, |r| kept.push(r.clone()));
        assert!(!report.clean());
        assert_eq!(report.frames_ok, 9);
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(
            report.dropped[0].offset,
            (HEADER_LEN + 3 * frame_len) as u64
        );
        assert_eq!(report.dropped[0].len, frame_len as u64);
        assert!(accounted(&report));
        let seqs: Vec<u64> = kept.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn damaged_header_still_yields_every_frame() {
        let mut bytes = corpus(5);
        bytes[0] = b'X';
        let mut kept = 0u64;
        let report = salvage_pufrec(&bytes, |_| kept += 1);
        assert!(!report.header_ok);
        assert_eq!(report.frames_ok, 5);
        assert_eq!(kept, 5);
        // The header bytes are the single dropped region.
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].offset, 0);
        assert!(accounted(&report));
        assert_eq!(repair_header(&bytes).version, VERSION);
    }

    #[test]
    fn pufchk_is_all_or_nothing() {
        let report = fsck_pufchk(b"pufchk garbage");
        assert!(!report.clean());
        assert_eq!(report.bytes_dropped, 14);
        assert!(accounted(&report));
    }

    #[test]
    fn json_lines_salvage_drops_only_bad_lines() {
        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
        sink.record(&sample(0, 1)).unwrap();
        sink.record(&sample(1, 2)).unwrap();
        let mut bytes = sink.into_inner().unwrap();
        bytes.extend_from_slice(b"{ not json\n");
        let mut sink2 = RecordWriter::new(bytes, RecordFormat::Json, 0).unwrap();
        sink2.record(&sample(2, 3)).unwrap();
        let bytes = sink2.into_inner().unwrap();

        let mut kept = Vec::new();
        let report = salvage_json_lines(&bytes, |r| kept.push(r.seq));
        assert_eq!(kept, vec![1, 2, 3]);
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].len, 11);
        assert!(accounted(&report));
    }
}
