//! The `pufrec/1` compact binary record store.
//!
//! The JSON-lines store spends paper-scale ingest almost entirely on text:
//! JSON tokenizing plus two hex characters per data byte. `pufrec/1` is the
//! length-prefixed binary equivalent — the hot path becomes a `memcpy` and a
//! CRC — at roughly half the bytes on disk (raw data bytes instead of hex,
//! fixed 26-byte framing instead of ~70 characters of field names).
//!
//! # Wire layout (all integers little-endian)
//!
//! File header (12 bytes):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0 | 6 | magic `b"pufrec"` |
//! | 6 | 2 | version (`1`) |
//! | 8 | 4 | declared bit-width (advisory; `0` = unspecified/mixed) |
//!
//! Then zero or more length-prefixed records:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0 | 4 | `len` — payload length in bytes (`22 + bits.div_ceil(8)`) |
//! | 4 | 2 | `device` |
//! | 6 | 8 | `seq` |
//! | 14 | 8 | `timestamp` (signed) |
//! | 22 | 4 | `bits` — pattern length in bits |
//! | 26 | `len − 22` | data bytes, LSB-first (the [`BitVec`] byte order) |
//! | 4 + `len` | 4 | CRC-32 (IEEE) over the `len` payload bytes |
//!
//! [`RecordWriter`](super::RecordWriter) writes the header and then one
//! [`Record::encode_binary`] frame per record. The length prefix lets
//! readers split records without decoding them
//! ([`AnyRecordReader`](super::AnyRecordReader) batches frames to a worker
//! pool exactly as it batches JSON lines; this module holds the frame
//! producers it runs); the per-record CRC turns torn or corrupted writes
//! into in-band [`ParseRecordError::Corrupt`] items at the record where the
//! damage sits, the same contract as the JSON path's `Malformed`/`Io`
//! variants.

use super::reader::BatchFeed;
use super::{ParseRecordError, Record};
use crate::{BoardId, Timestamp};
use pufbits::BitVec;
use std::io::{self, BufRead, Read};

/// Magic bytes opening every `pufrec` file.
pub const MAGIC: [u8; 6] = *b"pufrec";

/// Format version this module reads and writes.
pub const VERSION: u16 = 1;

/// File header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Fixed (non-data) payload bytes per record: device + seq + timestamp +
/// bits.
const FIXED_PAYLOAD: usize = 2 + 8 + 8 + 4;

/// Upper bound accepted for one record's payload (64 MiB — far above any
/// real SRAM read-out). A larger length prefix means the stream is corrupt;
/// rejecting it keeps a flipped length byte from looking like a plausible
/// giant allocation.
const MAX_PAYLOAD: usize = 64 << 20;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum every `pufrec/1` record carries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The `pufrec/1` file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Format version (currently always [`VERSION`]).
    pub version: u16,
    /// Declared read-out width in bits; advisory (`0` = unspecified or
    /// mixed widths). Readers size decode buffers from the per-record
    /// `bits` field, never from this.
    pub declared_bits: u32,
}

impl FileHeader {
    /// Serializes the header.
    pub fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..6].copy_from_slice(&MAGIC);
        out[6..8].copy_from_slice(&self.version.to_le_bytes());
        out[8..12].copy_from_slice(&self.declared_bits.to_le_bytes());
        out
    }

    /// Parses a header.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRecordError::Corrupt`] on a short buffer, wrong
    /// magic, or unsupported version.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseRecordError> {
        if bytes.len() < HEADER_LEN {
            return Err(ParseRecordError::Corrupt(format!(
                "file header truncated at {} of {HEADER_LEN} bytes",
                bytes.len()
            )));
        }
        if bytes[..6] != MAGIC {
            return Err(ParseRecordError::Corrupt(
                "missing pufrec magic bytes".into(),
            ));
        }
        let version = u16::from_le_bytes([bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(ParseRecordError::Corrupt(format!(
                "unsupported pufrec version {version} (this build reads {VERSION})"
            )));
        }
        Ok(Self {
            version,
            declared_bits: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        })
    }
}

impl Record {
    /// Appends this record's `pufrec/1` frame (length prefix, payload,
    /// CRC-32) to `out`. The buffer is appended to, not cleared, so a sink
    /// can reuse one scratch vector across records.
    ///
    /// # Panics
    ///
    /// Panics if the pattern exceeds `u32::MAX` bits (no real read-out
    /// comes close).
    ///
    /// # Examples
    ///
    /// ```
    /// use pufbits::BitVec;
    /// use puftestbed::{BoardId, Record, Timestamp};
    ///
    /// let r = Record::new(BoardId(3), 17, Timestamp(-5), BitVec::from_bytes(&[0xA5]));
    /// let mut buf = Vec::new();
    /// r.encode_binary(&mut buf);
    /// let (back, used) = Record::decode_binary(&buf)?;
    /// assert_eq!(back, r);
    /// assert_eq!(used, buf.len());
    /// # Ok::<(), puftestbed::store::ParseRecordError>(())
    /// ```
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        let bits = u32::try_from(self.data.len()).expect("pattern length fits u32");
        let payload_len = FIXED_PAYLOAD + self.data.byte_len();
        out.reserve(4 + payload_len + 4);
        out.extend_from_slice(
            &u32::try_from(payload_len)
                .expect("payload fits u32")
                .to_le_bytes(),
        );
        let payload_start = out.len();
        out.extend_from_slice(&u16::from(self.device.0).to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.timestamp.0.to_le_bytes());
        out.extend_from_slice(&bits.to_le_bytes());
        self.data.to_bytes_into(out);
        let crc = crc32(&out[payload_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Decodes one `pufrec/1` frame from the start of `bytes`, returning
    /// the record and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRecordError::Corrupt`] on a truncated frame, an
    /// implausible length prefix, a CRC mismatch, or a payload whose data
    /// length disagrees with its `bits` field, and
    /// [`ParseRecordError::OutOfRange`] for a `device` above 255.
    pub fn decode_binary(bytes: &[u8]) -> Result<(Record, usize), ParseRecordError> {
        if bytes.len() < 4 {
            return Err(ParseRecordError::Corrupt(format!(
                "record truncated inside the length prefix ({} of 4 bytes)",
                bytes.len()
            )));
        }
        let payload_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        check_payload_len(payload_len)?;
        let frame_len = 4 + payload_len + 4;
        if bytes.len() < frame_len {
            return Err(ParseRecordError::Corrupt(format!(
                "record truncated at {} of {frame_len} bytes",
                bytes.len()
            )));
        }
        let record = decode_frame(&bytes[4..frame_len])?;
        Ok((record, frame_len))
    }
}

/// Validates a length prefix before anything is allocated from it.
fn check_payload_len(payload_len: usize) -> Result<(), ParseRecordError> {
    if !(FIXED_PAYLOAD..=MAX_PAYLOAD).contains(&payload_len) {
        return Err(ParseRecordError::Corrupt(format!(
            "implausible record length {payload_len} (valid: {FIXED_PAYLOAD}..={MAX_PAYLOAD})"
        )));
    }
    Ok(())
}

/// Decodes one frame body (payload followed by its CRC; the length prefix
/// already stripped and validated).
pub(super) fn decode_frame(frame: &[u8]) -> Result<Record, ParseRecordError> {
    let payload = &frame[..frame.len() - 4];
    let stored = u32::from_le_bytes(frame[frame.len() - 4..].try_into().expect("4 crc bytes"));
    let actual = crc32(payload);
    if stored != actual {
        return Err(ParseRecordError::Corrupt(format!(
            "crc mismatch (stored {stored:08x}, computed {actual:08x})"
        )));
    }
    let device_raw = u16::from_le_bytes([payload[0], payload[1]]);
    let device = BoardId(
        u8::try_from(device_raw).map_err(|_| ParseRecordError::OutOfRange {
            field: "device",
            value: device_raw.to_string(),
        })?,
    );
    let seq = u64::from_le_bytes(payload[2..10].try_into().expect("8 seq bytes"));
    let timestamp = i64::from_le_bytes(payload[10..18].try_into().expect("8 timestamp bytes"));
    let bits = u32::from_le_bytes(payload[18..22].try_into().expect("4 bits bytes")) as usize;
    let data_bytes = &payload[FIXED_PAYLOAD..];
    if data_bytes.len() != bits.div_ceil(8) {
        return Err(ParseRecordError::Corrupt(format!(
            "data length {} does not cover {} bits",
            data_bytes.len(),
            bits
        )));
    }
    Ok(Record {
        device,
        seq,
        timestamp: Timestamp(timestamp),
        data: BitVec::from_bytes_with_len(data_bytes, bits),
    })
}

/// Reads exactly `buf.len()` bytes unless the stream ends first; returns
/// how many bytes were read (fewer than requested only at end-of-stream).
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reader-thread body for the binary pipeline: validate the header, then
/// split the stream into frame batches on length prefixes. Workers never
/// see the raw stream, so a torn trailing record or a bad length prefix is
/// reported here, in-band, at the exact record it corrupts.
pub(super) fn read_frame_batches<R: BufRead>(
    mut reader: R,
    batch_records: usize,
    feed: &mut BatchFeed,
) {
    let mut header = [0u8; HEADER_LEN];
    match read_full(&mut reader, &mut header) {
        Ok(n) => {
            if let Err(e) = FileHeader::parse(&header[..n]) {
                feed.send_error(e);
                return;
            }
            feed.count_bytes(n as u64);
        }
        Err(e) => {
            feed.send_error(ParseRecordError::from_io(&e));
            return;
        }
    }

    // Absolute stream offset of the next unread byte, so every framing
    // error names the exact byte position of the damage.
    let mut offset = HEADER_LEN as u64;
    let mut batch: Vec<Vec<u8>> = Vec::with_capacity(batch_records);
    let mut batch_bytes = 0u64;
    loop {
        // Flushes the pending batch; returns false when the consumer is gone.
        macro_rules! flush_batch {
            () => {{
                let flushed = batch.is_empty()
                    || feed.send(
                        std::mem::replace(&mut batch, Vec::with_capacity(batch_records)),
                        std::mem::take(&mut batch_bytes),
                    );
                flushed
            }};
        }

        let mut prefix = [0u8; 4];
        let got = match read_full(&mut reader, &mut prefix) {
            Ok(got) => got,
            Err(e) => {
                if flush_batch!() {
                    feed.send_error(ParseRecordError::from_io(&e));
                }
                return;
            }
        };
        if got == 0 {
            // Clean end of stream on a record boundary.
            let _ = flush_batch!();
            return;
        }
        if got < 4 {
            if flush_batch!() {
                feed.send_error(ParseRecordError::Corrupt(format!(
                    "record truncated inside the length prefix ({got} of 4 bytes at \
                     offset {offset})"
                )));
            }
            return;
        }
        let payload_len = u32::from_le_bytes(prefix) as usize;
        if check_payload_len(payload_len).is_err() {
            // A damaged length prefix desynchronises the framing: nothing
            // after this point can be trusted, so stop like an I/O failure.
            if flush_batch!() {
                feed.send_error(ParseRecordError::Corrupt(format!(
                    "implausible record length {payload_len} at offset {offset} \
                     (valid: {FIXED_PAYLOAD}..={MAX_PAYLOAD})"
                )));
            }
            return;
        }
        let mut frame = vec![0u8; payload_len + 4];
        match read_full(&mut reader, &mut frame) {
            Ok(n) if n == frame.len() => {
                batch_bytes += 4 + frame.len() as u64;
                offset += 4 + frame.len() as u64;
                batch.push(frame);
                if batch.len() == batch_records && !flush_batch!() {
                    return; // consumer dropped
                }
            }
            Ok(n) => {
                if flush_batch!() {
                    feed.send_error(ParseRecordError::Corrupt(format!(
                        "record truncated at {} of {} bytes (frame at offset {offset})",
                        4 + n,
                        4 + frame.len()
                    )));
                }
                return;
            }
            Err(e) => {
                if flush_batch!() {
                    feed.send_error(ParseRecordError::from_io(&e));
                }
                return;
            }
        }
    }
}

/// Largest payload a resync scan will consider for a candidate frame: far
/// above any real SRAM read-out, small enough that garbage interpreted as
/// a length prefix cannot make the scanner buffer tens of megabytes.
const RESYNC_MAX_PAYLOAD: usize = 1 << 20;

/// Reader-thread body for the resync pipeline: like [`read_frame_batches`]
/// but framing damage starts a forward scan for the next CRC-valid frame
/// instead of ending the stream. Frames are CRC-verified here *before*
/// dispatch (resync is for damaged files, not the hot path), so a frame a
/// worker later rejects can only be semantically malformed, never torn.
pub(super) fn read_frame_batches_resync<R: BufRead>(
    mut reader: R,
    batch_records: usize,
    feed: &mut BatchFeed,
    max_skip_bytes: u64,
) {
    /// Tops `carry` up to at least `want` bytes (EOF permitting).
    fn fill<R: Read>(reader: &mut R, carry: &mut Vec<u8>, want: usize) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        while carry.len() < want {
            match reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => carry.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Whether a complete, CRC-valid frame starts at `carry[at..]`;
    /// returns its total length (prefix + payload + CRC).
    fn frame_at(carry: &[u8], at: usize) -> Option<usize> {
        let prefix = carry.get(at..at + 4)?;
        let payload_len = u32::from_le_bytes(prefix.try_into().expect("4 prefix bytes")) as usize;
        if check_payload_len(payload_len).is_err() || payload_len > RESYNC_MAX_PAYLOAD {
            return None;
        }
        let frame_len = 4 + payload_len + 4;
        let frame = carry.get(at + 4..at + frame_len)?;
        let stored = u32::from_le_bytes(frame[payload_len..].try_into().expect("4 crc bytes"));
        (crc32(&frame[..payload_len]) == stored).then_some(frame_len)
    }

    // Unconsumed stream bytes; `offset` is the absolute position of
    // `carry[0]`.
    let mut carry: Vec<u8> = Vec::new();
    let mut offset = 0u64;
    let mut skipped_total = 0u64;
    let mut batch: Vec<Vec<u8>> = Vec::with_capacity(batch_records);
    let mut batch_bytes = 0u64;

    if let Err(e) = fill(&mut reader, &mut carry, HEADER_LEN) {
        feed.send_error(ParseRecordError::from_io(&e));
        return;
    }
    // `Some((cause, first_probe))` puts the next iteration into scan mode.
    let mut scanning = match FileHeader::parse(&carry) {
        Ok(_) => {
            carry.drain(..HEADER_LEN);
            offset = HEADER_LEN as u64;
            feed.count_bytes(HEADER_LEN as u64);
            None
        }
        // Treat the damaged header as the first corrupt region and scan
        // for the first frame from offset 0 (a headerless image may open
        // directly on a frame).
        Err(e) => Some((format!("unreadable file header ({e})"), 0usize)),
    };

    loop {
        macro_rules! flush_batch {
            () => {{
                let flushed = batch.is_empty()
                    || feed.send(
                        std::mem::replace(&mut batch, Vec::with_capacity(batch_records)),
                        std::mem::take(&mut batch_bytes),
                    );
                flushed
            }};
        }

        if let Some((cause, first_probe)) = scanning.take() {
            // Forward scan: find the next offset where a complete frame
            // decodes. `probe` starts past whatever just failed (1 for a
            // damaged frame, 0 for a damaged header).
            let mut probe = first_probe;
            let relocked = loop {
                if skipped_total + probe as u64 > max_skip_bytes {
                    if flush_batch!() {
                        feed.send_error(ParseRecordError::Corrupt(format!(
                            "resync abandoned at offset {offset}: skip budget of \
                             {max_skip_bytes} bytes exhausted ({cause})"
                        )));
                    }
                    return;
                }
                // A candidate needs its prefix plus up to a full frame of
                // lookahead in the carry buffer.
                if let Err(e) = fill(&mut reader, &mut carry, probe + 8 + RESYNC_MAX_PAYLOAD) {
                    if flush_batch!() {
                        feed.send_error(ParseRecordError::from_io(&e));
                    }
                    return;
                }
                if probe >= carry.len() {
                    break None; // EOF: the whole remaining carry is lost.
                }
                if frame_at(&carry, probe).is_some() {
                    break Some(probe);
                }
                probe += 1;
            };
            let dropped = relocked.unwrap_or(carry.len());
            skipped_total += dropped as u64;
            feed.count_bytes(dropped as u64);
            if flush_batch!() {
                feed.send_error(ParseRecordError::Corrupt(format!(
                    "resynchronised: dropped {dropped} corrupt bytes at offsets \
                     {offset}..{} ({cause})",
                    offset + dropped as u64
                )));
            } else {
                return; // consumer dropped
            }
            carry.drain(..dropped);
            offset += dropped as u64;
            if relocked.is_none() {
                return; // nothing valid remains
            }
            continue;
        }

        if let Err(e) = fill(&mut reader, &mut carry, 8 + RESYNC_MAX_PAYLOAD) {
            if flush_batch!() {
                feed.send_error(ParseRecordError::from_io(&e));
            }
            return;
        }
        if carry.is_empty() {
            let _ = flush_batch!();
            return; // clean end of stream on a record boundary
        }
        match frame_at(&carry, 0) {
            Some(frame_len) => {
                batch.push(carry[4..frame_len].to_vec());
                batch_bytes += frame_len as u64;
                carry.drain(..frame_len);
                offset += frame_len as u64;
                if batch.len() == batch_records && !flush_batch!() {
                    return; // consumer dropped
                }
            }
            None => {
                let cause = if carry.len() < 4 {
                    format!(
                        "record truncated inside the length prefix ({} of 4 bytes)",
                        carry.len()
                    )
                } else {
                    "damaged frame (bad length prefix, CRC mismatch, or truncation)".to_string()
                };
                scanning = Some((cause, 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{AnyRecordReader, RecordFormat, RecordSink, RecordWriter};
    use pufobs::Instruments;
    use std::io::Cursor;

    fn sample(device: u8, seq: u64) -> Record {
        Record::new(
            BoardId(device),
            seq,
            Timestamp(1_486_512_000 + seq as i64 * 5),
            BitVec::from_bytes(&[seq as u8, device, 0xFF]),
        )
    }

    fn corpus(n: u64) -> Vec<u8> {
        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
        for seq in 0..n {
            sink.record(&sample((seq % 5) as u8, seq)).unwrap();
        }
        sink.into_inner().unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values (e.g. RFC 3720 appendix / zlib).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn wire_layout_is_stable() {
        // Golden-format guard: readers in other languages depend on this
        // exact layout; change it only with a format version bump.
        let r = Record::new(
            BoardId(3),
            17,
            Timestamp(1_486_512_000),
            BitVec::from_bytes(&[0xA5, 0x01]),
        );
        let mut buf = Vec::new();
        r.encode_binary(&mut buf);
        let mut expected = vec![
            24, 0, 0, 0, // len = 22 + 2
            3, 0, // device u16
            17, 0, 0, 0, 0, 0, 0, 0, // seq u64
        ];
        expected.extend_from_slice(&1_486_512_000i64.to_le_bytes());
        expected.extend_from_slice(&16u32.to_le_bytes()); // bits
        expected.extend_from_slice(&[0xA5, 0x01]); // data
        expected.extend_from_slice(&crc32(&buf[4..buf.len() - 4]).to_le_bytes());
        assert_eq!(buf, expected);
    }

    #[test]
    fn header_round_trips_and_rejects_damage() {
        let h = FileHeader {
            version: VERSION,
            declared_bits: 8192,
        };
        assert_eq!(FileHeader::parse(&h.to_bytes()).unwrap(), h);
        let mut bad_magic = h.to_bytes();
        bad_magic[0] = b'q';
        assert!(FileHeader::parse(&bad_magic).is_err());
        let mut bad_version = h.to_bytes();
        bad_version[6] = 2;
        let err = FileHeader::parse(&bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        assert!(FileHeader::parse(&h.to_bytes()[..5]).is_err());
    }

    #[test]
    fn extreme_field_values_round_trip() {
        for (seq, ts, bits) in [
            (u64::MAX, i64::MIN, 0usize),
            (u64::MAX - 1, i64::MAX, 1),
            ((1u64 << 53) + 1, -1, 8191),
            (0, 0, 8192),
        ] {
            let mut data = BitVec::zeros(bits);
            if bits > 0 {
                data.set(0, true);
                data.set(bits - 1, true);
            }
            let r = Record::new(BoardId(255), seq, Timestamp(ts), data);
            let mut buf = Vec::new();
            r.encode_binary(&mut buf);
            let (back, used) = Record::decode_binary(&buf).unwrap();
            assert_eq!(back, r);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn oversized_devices_are_rejected_not_truncated() {
        // Forge a frame whose device field exceeds the BoardId domain.
        let mut buf = Vec::new();
        sample(0, 0).encode_binary(&mut buf);
        buf[4] = 0x2C; // device = 300 (0x012C)
        buf[5] = 0x01;
        let payload_end = buf.len() - 4;
        let crc = crc32(&buf[4..payload_end]);
        buf.truncate(payload_end);
        buf.extend_from_slice(&crc.to_le_bytes());
        let err = Record::decode_binary(&buf).unwrap_err();
        assert!(
            matches!(
                err,
                ParseRecordError::OutOfRange {
                    field: "device",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn crc_rejects_a_flipped_data_byte() {
        let mut buf = Vec::new();
        sample(7, 3).encode_binary(&mut buf);
        buf[26] ^= 0x40; // first data byte
        let err = Record::decode_binary(&buf).unwrap_err();
        assert!(matches!(err, ParseRecordError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("crc mismatch"), "{err}");
    }

    #[test]
    fn truncated_frames_are_corrupt_not_panics() {
        let mut buf = Vec::new();
        sample(1, 9).encode_binary(&mut buf);
        for cut in [0, 3, 4, 10, buf.len() - 1] {
            let err = Record::decode_binary(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, ParseRecordError::Corrupt(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn sink_then_parallel_reader_round_trips_in_order() {
        let records: Vec<Record> = (0..257).map(|i| sample((i % 5) as u8, i)).collect();
        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Binary, 24).unwrap();
        for r in &records {
            sink.record(r).unwrap();
        }
        assert_eq!(sink.written(), 257);
        let bytes = sink.into_inner().unwrap();
        assert_eq!(FileHeader::parse(&bytes).unwrap().declared_bits, 24);
        for threads in [1, 2, 7] {
            let back: Vec<Record> = AnyRecordReader::spawn(
                Cursor::new(bytes.clone()),
                RecordFormat::Binary,
                threads,
                16,
                None,
            )
            .collect::<Result<_, _>>()
            .unwrap();
            assert_eq!(back, records, "threads = {threads}");
        }
    }

    #[test]
    fn empty_file_yields_no_records() {
        let bytes = corpus(0);
        assert_eq!(bytes.len(), HEADER_LEN);
        let items: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Binary, 2, 4, None).collect();
        assert!(items.is_empty());
    }

    #[test]
    fn garbage_file_reports_a_corrupt_header() {
        let items: Vec<_> = AnyRecordReader::spawn(
            Cursor::new(b"{\"device\":0}\n".to_vec()),
            RecordFormat::Binary,
            2,
            4,
            None,
        )
        .collect();
        assert_eq!(items.len(), 1);
        let err = items[0].as_ref().unwrap_err();
        assert!(matches!(err, ParseRecordError::Corrupt(_)), "{err}");
    }

    #[test]
    fn flipped_byte_surfaces_at_the_exact_record_index() {
        let mut bytes = corpus(20);
        // Flip a data byte inside record 7: header + 7 frames + offset into
        // the 8th frame's data region.
        let frame = 4 + FIXED_PAYLOAD + 3 + 4;
        let pos = HEADER_LEN + 7 * frame + 4 + FIXED_PAYLOAD + 1;
        bytes[pos] ^= 0x80;
        let items: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Binary, 3, 4, None).collect();
        assert_eq!(items.len(), 20);
        for (i, item) in items.iter().enumerate() {
            if i == 7 {
                let err = item.as_ref().unwrap_err();
                assert!(err.to_string().contains("crc mismatch"), "{err}");
            } else {
                assert!(item.is_ok(), "record {i} should decode");
            }
        }
    }

    #[test]
    fn truncated_file_ends_with_a_corrupt_item_at_the_torn_record() {
        let bytes = corpus(10);
        let cut = bytes.len() - 5; // tear the last record
        let items: Vec<_> = AnyRecordReader::spawn(
            Cursor::new(bytes[..cut].to_vec()),
            RecordFormat::Binary,
            3,
            4,
            None,
        )
        .collect();
        assert_eq!(items.len(), 10);
        assert!(items[..9].iter().all(Result::is_ok));
        let err = items[9].as_ref().unwrap_err();
        assert!(matches!(err, ParseRecordError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn early_drop_joins_cleanly() {
        let bytes = corpus(1000);
        let mut reader =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Binary, 4, 8, None);
        assert!(reader.next().is_some());
        drop(reader); // must not deadlock or leak threads
    }

    #[test]
    fn instruments_account_for_every_byte_and_record() {
        let ins = Instruments::new();
        let bytes = corpus(26);
        let total = bytes.len() as u64;
        let records: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Binary, 2, 4, Some(&ins))
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
        assert_eq!(records.len(), 26);
        let snap = ins.snapshot();
        // Binary byte accounting is exact: header + every frame.
        assert_eq!(snap.counter("reader.bytes_read"), total);
        assert_eq!(snap.counter("reader.records_decoded"), 26);
        assert_eq!(snap.counter("reader.corrupt_records"), 0);
        assert_eq!(snap.counter("reader.io_errors"), 0);
        assert_eq!(snap.counter("reader.batches"), 7); // 26 in batches of 4
        assert_eq!(snap.gauge("reader.queue_depth"), 0);
        assert_eq!(snap.histogram("reader.batch_parse_ns").unwrap().count, 7);
    }

    #[test]
    fn instrumented_reader_yields_the_same_records() {
        let bytes = corpus(57);
        let plain: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes.clone()), RecordFormat::Binary, 3, 8, None)
                .collect();
        let ins = Instruments::new();
        let instrumented: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Binary, 3, 8, Some(&ins))
                .collect();
        assert_eq!(plain, instrumented);
    }
}
