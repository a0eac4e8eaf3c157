//! The data sink: campaign records, as the rig's Raspberry Pi stores them.
//!
//! The paper's Raspberry Pi "receives SRAM data from master boards, and
//! sends them to a database and stores them in a JSON format". This module
//! provides the record type and two interchangeable storage formats:
//!
//! * JSON lines (the paper's format) — a self-contained JSON value model
//!   with writer and parser (no external JSON dependency);
//! * [`pufrec/1`](binary) — a compact length-prefixed binary layout with
//!   per-record CRC-32, roughly half the bytes and a fraction of the decode
//!   cost at paper scale.
//!
//! One [`RecordWriter`] writes either format to any stream, or atomically
//! to a file; [`RecordFormat`] detects a file's format from its first bytes
//! and one [`AnyRecordReader`] reads either back. Other sinks serve
//! in-memory analysis.

use crate::{BoardId, Timestamp};
use pufbits::BitVec;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::str::FromStr;

pub mod atomic;
pub mod binary;
pub mod checkpoint;
pub mod fsck;
pub mod iofault;
pub mod json;
pub mod reader;

pub use atomic::AtomicFile;
pub use binary::FileHeader;
pub use checkpoint::{BoardState, CampaignState, CheckpointError};
pub use fsck::{DroppedRange, FsckReport};
pub use iofault::{IoFaultPlan, IoPolicy};
use json::JsonValue;
pub use reader::{AnyRecordReader, DEFAULT_BATCH_LINES};

/// One stored measurement: which device, which power cycle, when, and the
/// captured pattern.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use puftestbed::{BoardId, Record, Timestamp};
///
/// let r = Record::new(BoardId(3), 17, Timestamp(1_486_512_000), BitVec::from_bytes(&[0xA5]));
/// let line = r.to_json_line();
/// let back = Record::parse_json_line(&line)?;
/// assert_eq!(back, r);
/// # Ok::<(), puftestbed::store::ParseRecordError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The measured device.
    pub device: BoardId,
    /// Per-device sequence number of the power cycle (0-based; counts every
    /// cycle, including unrecorded ones in windowed campaigns).
    pub seq: u64,
    /// Capture instant.
    pub timestamp: Timestamp,
    /// The captured power-up pattern.
    pub data: BitVec,
}

impl Record {
    /// Creates a record.
    pub fn new(device: BoardId, seq: u64, timestamp: Timestamp, data: BitVec) -> Self {
        Self {
            device,
            seq,
            timestamp,
            data,
        }
    }

    /// Serializes to one line of JSON (no trailing newline).
    ///
    /// All integer fields are written exactly — `seq` values above 2^53 and
    /// extreme timestamps survive the round-trip bit-for-bit (an `f64`
    /// detour would silently corrupt them).
    ///
    /// Allocates a fresh `String` per call; bulk writers should prefer
    /// [`write_json_line`](Self::write_json_line), which reuses a scratch
    /// buffer.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.render_json_line(&mut line);
        line
    }

    /// Writes this record's JSON line (with trailing newline) to `writer`,
    /// rendering through the caller-owned `scratch` buffer so steady-state
    /// serialization allocates nothing. The emitted line is byte-identical
    /// to [`to_json_line`](Self::to_json_line).
    ///
    /// # Errors
    ///
    /// Returns the write error, if any.
    pub fn write_json_line<W: Write>(
        &self,
        writer: &mut W,
        scratch: &mut String,
    ) -> io::Result<()> {
        scratch.clear();
        self.render_json_line(scratch);
        scratch.push('\n');
        writer.write_all(scratch.as_bytes())
    }

    /// Renders the JSON line into `out` (appends; no trailing newline).
    /// Fields are written directly — no intermediate value tree, no
    /// per-record allocations beyond growing `out` itself. `data` is the
    /// read-out's [`Display`](fmt::Display) hex.
    fn render_json_line(&self, out: &mut String) {
        use fmt::Write as _;

        out.reserve(70 + 2 * self.data.byte_len());
        write!(
            out,
            r#"{{"device":{},"seq":{},"timestamp":{},"bits":{},"data":"{}"}}"#,
            self.device.0,
            self.seq,
            self.timestamp.0,
            self.data.len(),
            self.data
        )
        .expect("writing to a String cannot fail");
    }

    /// Parses a record from a JSON line produced by
    /// [`to_json_line`](Self::to_json_line).
    ///
    /// Lines in the canonical writer layout (fields in written order, no
    /// extra whitespace) take a direct scanning path that decodes the hex
    /// payload straight into the record's word storage — one allocation per
    /// record, no JSON value tree. Any deviation falls back to the full
    /// tree parser, which accepts arbitrary field order and whitespace and
    /// produces the exact error taxonomy below.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRecordError`] on malformed JSON, missing fields,
    /// integer fields outside their domain (e.g. `device` above 255 or a
    /// negative `seq` — rejected, never silently truncated), or
    /// inconsistent bit counts.
    pub fn parse_json_line(line: &str) -> Result<Self, ParseRecordError> {
        if let Some(record) = Self::parse_json_line_fast(line) {
            return Ok(record);
        }
        Self::parse_json_line_tree(line)
    }

    /// The canonical-layout scanner. Returns `None` on *any* deviation —
    /// unexpected byte, non-canonical number, out-of-domain field, length
    /// mismatch — so error reporting is always the tree parser's job and
    /// the two paths agree on every accepted line (the fast path only
    /// accepts lines the tree parser would parse to the same record).
    fn parse_json_line_fast(line: &str) -> Option<Self> {
        #[inline]
        fn lit(b: &[u8], pos: &mut usize, want: &[u8]) -> Option<()> {
            let end = pos.checked_add(want.len())?;
            if b.get(*pos..end)? == want {
                *pos = end;
                Some(())
            } else {
                None
            }
        }
        // A canonical JSON unsigned integer: digits only, no leading zero
        // (except "0" itself), no overflow.
        #[inline]
        fn uint(b: &[u8], pos: &mut usize) -> Option<u64> {
            let start = *pos;
            let mut v: u64 = 0;
            while let Some(d) = b.get(*pos).filter(|c| c.is_ascii_digit()) {
                v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
                *pos += 1;
            }
            if *pos == start || (*pos - start > 1 && b[start] == b'0') {
                return None;
            }
            Some(v)
        }
        #[inline]
        fn int(b: &[u8], pos: &mut usize) -> Option<i64> {
            let negative = b.get(*pos) == Some(&b'-');
            if negative {
                *pos += 1;
            }
            let magnitude = uint(b, pos)?;
            if negative {
                if magnitude > i64::MAX as u64 + 1 {
                    None
                } else {
                    Some((magnitude as i64).wrapping_neg())
                }
            } else {
                i64::try_from(magnitude).ok()
            }
        }
        // Canonical hex is lowercase; uppercase falls back (the tree parser
        // accepts it and produces the same record).
        #[inline]
        fn hex_val(c: u8) -> u8 {
            match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                _ => 0xFF,
            }
        }

        let b = line.as_bytes();
        let mut pos = 0usize;
        lit(b, &mut pos, b"{\"device\":")?;
        let device = BoardId(u8::try_from(uint(b, &mut pos)?).ok()?);
        lit(b, &mut pos, b",\"seq\":")?;
        let seq = uint(b, &mut pos)?;
        lit(b, &mut pos, b",\"timestamp\":")?;
        let timestamp = Timestamp(int(b, &mut pos)?);
        lit(b, &mut pos, b",\"bits\":")?;
        let bits = usize::try_from(uint(b, &mut pos)?).ok()?;
        lit(b, &mut pos, b",\"data\":\"")?;
        // The payload length is implied by `bits`; anything else (odd hex,
        // inconsistent bit count, trailing bytes) is the tree parser's case.
        let hex_len = bits.div_ceil(8).checked_mul(2)?;
        let data_end = pos.checked_add(hex_len)?;
        if b.len() != data_end.checked_add(2)? || &b[data_end..] != b"\"}" {
            return None;
        }
        // Hex pairs decode straight into the word layout `BitVec` uses
        // (byte i lands in word i/8 at bit 8·(i%8)): the one allocation of
        // the whole decode is the record's own word storage.
        let mut words = vec![0u64; bits.div_ceil(64)];
        for (i, pair) in b[pos..data_end].chunks_exact(2).enumerate() {
            let hi = hex_val(pair[0]);
            let lo = hex_val(pair[1]);
            if hi | lo > 0x0F {
                return None;
            }
            words[i / 8] |= u64::from((hi << 4) | lo) << (8 * (i % 8));
        }
        Some(Self {
            device,
            seq,
            timestamp,
            data: BitVec::from_words(words, bits),
        })
    }

    /// The general tree-parsing path: arbitrary field order and whitespace,
    /// full error taxonomy. [`parse_json_line`](Self::parse_json_line)
    /// falls back to this for every non-canonical line; it is public as the
    /// reference decoder the perf suite times the fast path against.
    pub fn parse_json_line_tree(line: &str) -> Result<Self, ParseRecordError> {
        let value = json::parse(line).map_err(ParseRecordError::Json)?;
        let obj = value
            .as_object()
            .ok_or_else(|| ParseRecordError::Malformed("record is not an object".into()))?;
        let field = |name: &str| -> Result<&JsonValue, ParseRecordError> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| ParseRecordError::Malformed(format!("missing field `{name}`")))
        };
        let uint = |name: &'static str| -> Result<u64, ParseRecordError> {
            let value = field(name)?;
            value.as_u64().ok_or_else(|| ParseRecordError::OutOfRange {
                field: name,
                value: value.to_string(),
            })
        };
        let device_raw = uint("device")?;
        let device =
            BoardId(
                u8::try_from(device_raw).map_err(|_| ParseRecordError::OutOfRange {
                    field: "device",
                    value: device_raw.to_string(),
                })?,
            );
        let seq = uint("seq")?;
        let ts_value = field("timestamp")?;
        let timestamp =
            Timestamp(
                ts_value
                    .as_i64()
                    .ok_or_else(|| ParseRecordError::OutOfRange {
                        field: "timestamp",
                        value: ts_value.to_string(),
                    })?,
            );
        let bits_raw = uint("bits")?;
        let bits = usize::try_from(bits_raw).map_err(|_| ParseRecordError::OutOfRange {
            field: "bits",
            value: bits_raw.to_string(),
        })?;
        let hex = field("data")?
            .as_str()
            .ok_or_else(|| ParseRecordError::Malformed("field `data` not a string".into()))?;
        if hex.len() % 2 != 0 {
            return Err(ParseRecordError::Malformed("odd-length hex data".into()));
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for i in (0..hex.len()).step_by(2) {
            let byte = u8::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|_| ParseRecordError::Malformed("invalid hex data".into()))?;
            bytes.push(byte);
        }
        if bytes.len() != bits.div_ceil(8) {
            return Err(ParseRecordError::Malformed(format!(
                "data length {} does not cover {} bits",
                bytes.len(),
                bits
            )));
        }
        let data = BitVec::from_bytes_with_len(&bytes, bits);
        Ok(Self {
            device,
            seq,
            timestamp,
            data,
        })
    }
}

/// Error parsing a stored record.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseRecordError {
    /// The line was not valid JSON.
    Json(json::ParseJsonError),
    /// The JSON did not describe a record.
    Malformed(String),
    /// A field held a number outside its domain (e.g. `device` above 255,
    /// a negative or fractional `seq`). Distinct from [`Malformed`] so
    /// readers cannot confuse truncation-prone values with structural noise.
    ///
    /// [`Malformed`]: Self::Malformed
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The rejected value, as it appeared in the JSON.
        value: String,
    },
    /// A binary record failed its framing or CRC check (torn write, flipped
    /// bits, truncated file). While the length-prefix framing stays intact
    /// this is per-record, like [`Malformed`]; damage to the framing itself
    /// ends the stream, like [`Io`].
    ///
    /// [`Malformed`]: Self::Malformed
    /// [`Io`]: Self::Io
    Corrupt(String),
    /// The underlying stream failed mid-read. Unlike the parse variants this
    /// does not describe one bad line: everything after it is missing, so
    /// consumers must abort, not skip.
    Io {
        /// The I/O error kind.
        kind: io::ErrorKind,
        /// The I/O error message.
        message: String,
    },
}

impl ParseRecordError {
    /// Converts an I/O failure into its in-band error item.
    pub fn from_io(e: &io::Error) -> Self {
        ParseRecordError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }

    /// Whether this error means the stream itself broke (so the remaining
    /// data is unreadable) rather than one line being bad.
    pub fn is_io(&self) -> bool {
        matches!(self, ParseRecordError::Io { .. })
    }
}

impl fmt::Display for ParseRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRecordError::Json(e) => write!(f, "invalid json: {e}"),
            ParseRecordError::Malformed(msg) => write!(f, "malformed record: {msg}"),
            ParseRecordError::OutOfRange { field, value } => {
                write!(f, "field `{field}` out of range: {value}")
            }
            ParseRecordError::Corrupt(msg) => write!(f, "corrupt record: {msg}"),
            ParseRecordError::Io { kind, message } => {
                write!(f, "io error ({kind:?}): {message}")
            }
        }
    }
}

impl Error for ParseRecordError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseRecordError::Json(e) => Some(e),
            ParseRecordError::Malformed(_)
            | ParseRecordError::OutOfRange { .. }
            | ParseRecordError::Corrupt(_)
            | ParseRecordError::Io { .. } => None,
        }
    }
}

/// Destination for campaign records, in arrival order.
///
/// The campaign runner is generic over the sink so the same run can stream
/// to disk, accumulate in memory, or feed the analysis pipeline directly.
pub trait RecordSink {
    /// Accepts one record.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if persisting the record fails.
    fn record(&mut self, record: &Record) -> io::Result<()>;

    /// Pushes every record accepted so far out of in-process buffers (a
    /// durability barrier, not a finalizer — the sink stays usable). The
    /// campaign calls this before writing a checkpoint, so a checkpoint's
    /// record count never exceeds what the output actually holds. In-memory
    /// sinks have nothing to push; the default is a no-op.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if flushing fails.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        (**self).record(record)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
}

/// A sink that may be absent: `None` accepts and drops every record, so one
/// [`TeeSink`] of `Option`s stands for any choice of optional consumers.
impl<S: RecordSink> RecordSink for Option<S> {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        self.as_mut().map_or(Ok(()), |sink| sink.record(record))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.as_mut().map_or(Ok(()), RecordSink::flush)
    }
}

/// A sink whose state is kept per device, so it can fold a record stream in
/// device-disjoint parts: each part sees its devices' records in their
/// campaign order, and the parts merge back into what one sink fed the
/// whole stream would hold. The campaign engine folds each board's records
/// on the worker that measures it this way
/// ([`Campaign::run_sharded`](crate::Campaign::run_sharded)).
pub trait ShardedFold: RecordSink + Sized {
    /// Moves the state of `devices` into a new part, which starts with no
    /// records counted. On resume the head of the stream already folded
    /// for those devices goes with them.
    fn split_off(&mut self, devices: &[BoardId]) -> Self;

    /// Merges back a part that holds none of this sink's devices.
    fn merge(&mut self, part: Self);
}

/// An absent fold stays absent in every part.
impl<S: ShardedFold> ShardedFold for Option<S> {
    fn split_off(&mut self, devices: &[BoardId]) -> Self {
        self.as_mut().map(|sink| sink.split_off(devices))
    }

    fn merge(&mut self, part: Self) {
        if let (Some(sink), Some(part)) = (self.as_mut(), part) {
            sink.merge(part);
        }
    }
}

/// Sink duplicating every record to two sinks, in order (e.g. feed the
/// streaming assessor while also persisting the raw records to disk).
#[derive(Debug)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A: RecordSink, B: RecordSink> TeeSink<A, B> {
    /// Creates a tee over two sinks.
    pub fn new(first: A, second: B) -> Self {
        Self { first, second }
    }

    /// Consumes the tee, returning both sinks.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: RecordSink, B: RecordSink> RecordSink for TeeSink<A, B> {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        self.first.record(record)?;
        self.second.record(record)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.first.flush()?;
        self.second.flush()
    }
}

impl<A: ShardedFold, B: ShardedFold> ShardedFold for TeeSink<A, B> {
    fn split_off(&mut self, devices: &[BoardId]) -> Self {
        Self::new(
            self.first.split_off(devices),
            self.second.split_off(devices),
        )
    }

    fn merge(&mut self, part: Self) {
        self.first.merge(part.first);
        self.second.merge(part.second);
    }
}

/// Sink writing records to any [`Write`] (a file, a pipe — a `&mut`
/// reference also works) in either storage format: one JSON line per
/// record, or `pufrec/1` frames after the file header. Encoding goes
/// through reused scratch buffers, so steady-state writes allocate nothing.
#[derive(Debug)]
pub struct RecordWriter<W> {
    writer: W,
    format: RecordFormat,
    written: u64,
    line: String,
    frame: Vec<u8>,
}

impl<W: Write> RecordWriter<W> {
    /// Creates a writer of `format` over `writer`. For `pufrec/1` it writes
    /// the file header first, so even an empty campaign leaves a
    /// recognisable file; `declared_bits` goes into that header (advisory:
    /// pass the campaign read width, or 0 when unknown or mixed). JSON
    /// lines have no header and ignore it.
    ///
    /// # Errors
    ///
    /// Returns the error from writing the file header.
    pub fn new(mut writer: W, format: RecordFormat, declared_bits: u32) -> io::Result<Self> {
        if format == RecordFormat::Binary {
            let header = FileHeader {
                version: binary::VERSION,
                declared_bits,
            };
            writer.write_all(&header.to_bytes())?;
        }
        Ok(Self {
            writer,
            format,
            written: 0,
            line: String::new(),
            frame: Vec::new(),
        })
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the flush error, if any.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> RecordSink for RecordWriter<W> {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        match self.format {
            RecordFormat::Json => record.write_json_line(&mut self.writer, &mut self.line)?,
            RecordFormat::Binary => {
                self.frame.clear();
                record.encode_binary(&mut self.frame);
                self.writer.write_all(&self.frame)?;
            }
        }
        self.written += 1;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Write buffer of a record file. A paper-width record is about 2 KiB of
/// JSON or 1 KiB of `pufrec/1`, so std's default 8 KiB buffer issued a
/// `write(2)` every few records: about 12 400 for a 100 MB campaign file,
/// where 256 KiB issues about 390. Durability does not depend on it:
/// [`finish`](RecordWriter::finish) syncs the file and its directory, and a
/// campaign flushes its sink before every checkpoint.
const WRITE_BUFFER: usize = 256 * 1024;

/// A buffered, atomically written record file — the `--format` plumbing
/// of the CLI binaries. Bytes stream into `<path>.tmp`; only
/// [`finish`](Self::finish) renames them to the final path, so a crash
/// mid-run never leaves a torn file under the final name (the `.tmp` is
/// what the resume machinery salvages).
impl RecordWriter<BufWriter<AtomicFile>> {
    /// Starts an atomic write to `path` and wraps it in a writer of
    /// `format`; `declared_bits` is as for [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns the error from creating the file or writing the header.
    pub fn create(
        path: impl AsRef<Path>,
        format: RecordFormat,
        declared_bits: u32,
    ) -> io::Result<Self> {
        Self::create_with(path, format, declared_bits, None)
    }

    /// [`create`](Self::create) for a campaign output under supervision:
    /// all I/O routes through the optional [`IoPolicy`] (deterministic
    /// fault injection), and the temporary file survives a *failed* run —
    /// not just a killed one — so the checkpoint-resume salvage always has
    /// its partial bytes. `None` policy still keeps the partial (that is
    /// free, and a real disk error deserves the same resumability as an
    /// injected one).
    ///
    /// # Errors
    ///
    /// Returns the error from creating the file or writing the header.
    pub fn create_with(
        path: impl AsRef<Path>,
        format: RecordFormat,
        declared_bits: u32,
        policy: Option<IoPolicy>,
    ) -> io::Result<Self> {
        let file = BufWriter::with_capacity(
            WRITE_BUFFER,
            AtomicFile::create_with(path, policy)?.keep_partial_on_drop(),
        );
        Self::new(file, format, declared_bits)
    }

    /// Flushes everything and atomically publishes the file at its final
    /// path.
    ///
    /// # Errors
    ///
    /// Returns the first flush/sync/rename error.
    pub fn finish(self) -> io::Result<()> {
        self.into_inner()?
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .persist()
    }
}

/// Collects every record in memory, in arrival order (tests, small
/// campaigns).
impl RecordSink for Vec<Record> {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        self.push(record.clone());
        Ok(())
    }
}

/// Reads back a JSON-lines stream written by a [`RecordWriter`].
///
/// # Errors
///
/// Individual malformed lines are returned as `Err` items with a parse
/// variant; a failure of the underlying stream is returned as
/// [`ParseRecordError::Io`] (and ends the iteration — everything after a
/// broken read is missing, so consumers must abort rather than skip).
pub fn read_json_lines<R: BufRead>(
    mut reader: R,
) -> impl Iterator<Item = Result<Record, ParseRecordError>> {
    let mut line = Vec::new();
    let mut failed = false;
    std::iter::from_fn(move || {
        while !failed {
            match read_line_bytes(&mut reader, &mut line) {
                Ok(0) => return None,
                Ok(_) => {
                    if let Some(item) = decode_json_line(&line) {
                        return Some(item);
                    }
                }
                Err(e) => {
                    failed = true;
                    return Some(Err(ParseRecordError::from_io(&e)));
                }
            }
        }
        None
    })
}

/// Reads one line into `buf` (cleared first) and strips its `\n`, then a
/// `\r` before it, as [`BufRead::lines`] does, but leaves the UTF-8 check
/// to [`decode_json_line`]. Returns the bytes consumed; 0 at end of stream.
fn read_line_bytes<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<usize> {
    buf.clear();
    let n = reader.read_until(b'\n', buf)?;
    if buf.ends_with(b"\n") {
        buf.pop();
        if buf.ends_with(b"\r") {
            buf.pop();
        }
    }
    Ok(n)
}

/// Decodes one JSON line, given without its line ending. A blank line
/// yields `None` (readers skip it); a line that is not UTF-8 is one
/// malformed record, not a failure of the stream.
fn decode_json_line(line: &[u8]) -> Option<Result<Record, ParseRecordError>> {
    match std::str::from_utf8(line) {
        Ok(text) if text.trim().is_empty() => None,
        Ok(text) => Some(Record::parse_json_line(text)),
        Err(_) => Some(Err(ParseRecordError::Malformed(
            "line is not valid UTF-8".into(),
        ))),
    }
}

/// On-disk record encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordFormat {
    /// One JSON object per line — the paper's format, human-greppable.
    Json,
    /// [`pufrec/1`](binary) length-prefixed binary with per-record CRC —
    /// roughly half the bytes, a fraction of the decode cost.
    Binary,
}

impl RecordFormat {
    /// Detects the format from the stream's first bytes without consuming
    /// them: the [`pufrec` magic](binary::MAGIC) means binary, anything
    /// else is treated as JSON lines (whose first byte is `{`, `\n`, or
    /// whitespace — never `p`).
    ///
    /// # Errors
    ///
    /// Returns the error from filling the reader's buffer.
    pub fn detect<R: BufRead>(reader: &mut R) -> io::Result<Self> {
        let head = reader.fill_buf()?;
        if head.starts_with(&binary::MAGIC) || binary::MAGIC.starts_with(head) && !head.is_empty() {
            Ok(RecordFormat::Binary)
        } else {
            Ok(RecordFormat::Json)
        }
    }
}

impl fmt::Display for RecordFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordFormat::Json => "json",
            RecordFormat::Binary => "binary",
        })
    }
}

impl FromStr for RecordFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(RecordFormat::Json),
            "binary" => Ok(RecordFormat::Binary),
            other => Err(format!("unknown record format `{other}` (json|binary)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(device: u8, seq: u64) -> Record {
        Record::new(
            BoardId(device),
            seq,
            Timestamp(1_486_512_000 + seq as i64 * 5),
            BitVec::from_bytes(&[seq as u8, device, 0xFF]),
        )
    }

    #[test]
    fn json_format_is_stable() {
        // Golden-format guard: readers in other languages depend on this
        // exact layout; change it only with a format version bump.
        let r = Record::new(
            BoardId(3),
            17,
            Timestamp(1_486_512_000),
            BitVec::from_bytes(&[0xA5, 0x01]),
        );
        assert_eq!(
            r.to_json_line(),
            r#"{"device":3,"seq":17,"timestamp":1486512000,"bits":16,"data":"a501"}"#
        );
    }

    #[test]
    fn fast_and_tree_parsers_agree_on_canonical_lines() {
        // Every canonical line must take the fast path and produce exactly
        // what the tree parser produces.
        let mut records = vec![
            sample(7, 123),
            Record::new(
                BoardId(255),
                u64::MAX,
                Timestamp(i64::MAX),
                BitVec::zeros(0),
            ),
            Record::new(BoardId(0), 0, Timestamp(i64::MIN), BitVec::zeros(13)),
            Record::new(BoardId(0), 1 << 53, Timestamp(-1), BitVec::ones(65)),
        ];
        for n in [1usize, 7, 8, 9, 63, 64, 65, 127, 128, 1000] {
            let mut data = BitVec::zeros(n);
            data.set(0, true);
            data.set(n - 1, true);
            records.push(Record::new(BoardId(9), n as u64, Timestamp(n as i64), data));
        }
        for r in records {
            let line = r.to_json_line();
            let fast = Record::parse_json_line_fast(&line).expect("canonical line takes fast path");
            let tree = Record::parse_json_line_tree(&line).unwrap();
            assert_eq!(fast, tree, "line: {line}");
            assert_eq!(fast, r, "line: {line}");
        }
    }

    #[test]
    fn non_canonical_lines_fall_back_to_the_tree_parser() {
        // Reordered fields, whitespace, uppercase hex, leading zeros: the
        // scanner must decline (fall back), and the final result must still
        // match the tree parser's — value or error.
        let lines = [
            // Field order permuted.
            r#"{"seq":17,"device":3,"timestamp":1486512000,"bits":16,"data":"a501"}"#,
            // Whitespace.
            r#"{ "device":3,"seq":17,"timestamp":1486512000,"bits":16,"data":"a501" }"#,
            // Uppercase hex (valid JSON, non-canonical rendering).
            r#"{"device":3,"seq":17,"timestamp":1486512000,"bits":16,"data":"A501"}"#,
            // Leading zero (invalid JSON number).
            r#"{"device":03,"seq":17,"timestamp":1486512000,"bits":16,"data":"a501"}"#,
            // Trailing garbage.
            r#"{"device":3,"seq":17,"timestamp":1486512000,"bits":16,"data":"a501"}x"#,
        ];
        for line in lines {
            assert!(
                Record::parse_json_line_fast(line).is_none(),
                "fast path must decline: {line}"
            );
            match (
                Record::parse_json_line(line),
                Record::parse_json_line_tree(line),
            ) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "line: {line}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "line: {line}"),
                (a, b) => panic!("paths disagree on {line}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn json_line_round_trips() {
        let r = sample(7, 123);
        let back = Record::parse_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn non_byte_aligned_patterns_round_trip() {
        let mut data = BitVec::zeros(13);
        data.set(0, true);
        data.set(12, true);
        let r = Record::new(BoardId(0), 1, Timestamp(0), data);
        let back = Record::parse_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.data.len(), 13);
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = Record::parse_json_line(r#"{"device":1}"#).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn extreme_integer_fields_round_trip_exactly() {
        // seq above 2^53 and i64-extreme timestamps corrupt through f64;
        // the store must carry them bit-for-bit.
        for (seq, ts) in [
            (u64::MAX, i64::MAX),
            (u64::MAX - 1, i64::MIN),
            ((1u64 << 53) + 1, -1),
            (0, 0),
        ] {
            let r = Record::new(
                BoardId(255),
                seq,
                Timestamp(ts),
                BitVec::from_bytes(&[0xA5]),
            );
            let line = r.to_json_line();
            let back = Record::parse_json_line(&line).unwrap();
            assert_eq!(back, r, "line: {line}");
        }
    }

    #[test]
    fn out_of_range_fields_are_rejected_not_truncated() {
        // device 300 used to truncate to 255 via `as u8`.
        let line = r#"{"device":300,"seq":0,"timestamp":0,"bits":8,"data":"ff"}"#;
        let err = Record::parse_json_line(line).unwrap_err();
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
        // A negative seq used to saturate to 0 via `as u64`.
        let line = r#"{"device":0,"seq":-3,"timestamp":0,"bits":8,"data":"ff"}"#;
        let err = Record::parse_json_line(line).unwrap_err();
        assert!(
            matches!(err, ParseRecordError::OutOfRange { field: "seq", .. }),
            "{err}"
        );
        // Fractional counts are meaningless, not roundable.
        let line = r#"{"device":0,"seq":1.5,"timestamp":0,"bits":8,"data":"ff"}"#;
        assert!(matches!(
            Record::parse_json_line(line).unwrap_err(),
            ParseRecordError::OutOfRange { field: "seq", .. }
        ));
        // A timestamp beyond i64 cannot be represented.
        let line = r#"{"device":0,"seq":0,"timestamp":18446744073709551615,"bits":8,"data":"ff"}"#;
        assert!(matches!(
            Record::parse_json_line(line).unwrap_err(),
            ParseRecordError::OutOfRange {
                field: "timestamp",
                ..
            }
        ));
    }

    /// A reader that yields some valid bytes, then an I/O error.
    struct FailingReader {
        data: std::io::Cursor<Vec<u8>>,
        failed: bool,
    }

    impl std::io::Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.data.read(buf)?;
            if n == 0 && !self.failed {
                self.failed = true;
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link died"));
            }
            Ok(n)
        }
    }

    impl BufRead for FailingReader {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.data.position() as usize == self.data.get_ref().len() && !self.failed {
                self.failed = true;
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link died"));
            }
            self.data.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.data.consume(amt);
        }
    }

    #[test]
    fn mid_stream_io_errors_are_not_misreported_as_bad_lines() {
        let mut data = sample(0, 1).to_json_line().into_bytes();
        data.push(b'\n');
        let reader = FailingReader {
            data: std::io::Cursor::new(data),
            failed: false,
        };
        let items: Vec<_> = read_json_lines(reader).collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        let err = items[1].as_ref().unwrap_err();
        assert!(err.is_io(), "{err}");
        assert!(
            matches!(
                err,
                ParseRecordError::Io {
                    kind: io::ErrorKind::BrokenPipe,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn invalid_json_is_reported_with_source() {
        let err = Record::parse_json_line("not json").unwrap_err();
        assert!(matches!(err, ParseRecordError::Json(_)));
        assert!(err.source().is_some());
    }

    #[test]
    fn inconsistent_bits_rejected() {
        let line = r#"{"device":0,"seq":0,"timestamp":0,"bits":64,"data":"ff"}"#;
        assert!(Record::parse_json_line(line).is_err());
    }

    #[test]
    fn bad_hex_rejected() {
        let line = r#"{"device":0,"seq":0,"timestamp":0,"bits":8,"data":"zz"}"#;
        assert!(Record::parse_json_line(line).is_err());
        let odd = r#"{"device":0,"seq":0,"timestamp":0,"bits":8,"data":"abc"}"#;
        assert!(Record::parse_json_line(odd).is_err());
    }

    #[test]
    fn json_lines_sink_then_read_back() {
        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
        let records: Vec<Record> = (0..5).map(|i| sample(i % 3, u64::from(i))).collect();
        for r in &records {
            sink.record(r).unwrap();
        }
        assert_eq!(sink.written(), 5);
        let buffer = sink.into_inner().unwrap();
        let back: Vec<Record> = read_json_lines(buffer.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn reader_skips_blank_lines() {
        let data = "\n\n".to_string() + &sample(0, 0).to_json_line() + "\n\n";
        let back: Vec<_> = read_json_lines(data.as_bytes()).collect();
        assert_eq!(back.len(), 1);
        assert!(back[0].is_ok());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = Vec::new();
        for i in 0..3 {
            sink.record(&sample(0, i)).unwrap();
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink[2].seq, 2);
    }

    #[test]
    fn write_json_line_matches_to_json_line() {
        let mut out = Vec::new();
        let mut scratch = String::from("stale content from a previous record");
        for r in [
            sample(7, 123),
            Record::new(
                BoardId(255),
                u64::MAX,
                Timestamp(i64::MIN),
                BitVec::zeros(0),
            ),
            Record::new(BoardId(0), 0, Timestamp(-1), BitVec::zeros(13)),
        ] {
            out.clear();
            r.write_json_line(&mut out, &mut scratch).unwrap();
            assert_eq!(out, (r.to_json_line() + "\n").into_bytes());
        }

        // The `data` field against a per-byte hex reference, across word
        // boundaries, the faulted 301-bit width and the paper's 8 192 bits.
        for bits in [1usize, 7, 8, 9, 63, 64, 65, 301, 8192] {
            let data: BitVec = (0..bits as u64)
                .map(|i| pufbits::splitmix64(i ^ bits as u64) & 1 == 1)
                .collect();
            let hex: String = data.bytes().map(|b| format!("{b:02x}")).collect();
            let want =
                format!(r#"{{"device":1,"seq":2,"timestamp":3,"bits":{bits},"data":"{hex}"}}"#);
            out.clear();
            Record::new(BoardId(1), 2, Timestamp(3), data)
                .write_json_line(&mut out, &mut scratch)
                .unwrap();
            assert_eq!(out, (want + "\n").into_bytes(), "{bits} bits");
        }
    }

    #[test]
    fn tee_sink_duplicates_in_order() {
        let json = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
        let mut tee = TeeSink::new(Vec::<Record>::new(), json);
        let records: Vec<Record> = (0..4).map(|i| sample(i % 2, u64::from(i))).collect();
        for r in &records {
            // Exercise the blanket `&mut S` impl too.
            let sink: &mut dyn RecordSink = &mut tee;
            sink.record(r).unwrap();
        }
        let (memory, lines) = tee.into_inner();
        assert_eq!(memory, records);
        let back: Vec<Record> = read_json_lines(lines.into_inner().unwrap().as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn option_sink_forwards_when_present_and_drops_when_absent() {
        let records: Vec<Record> = (0..3).map(|i| sample(i % 2, u64::from(i))).collect();
        let mut tee = TeeSink::new(Some(Vec::<Record>::new()), None::<Vec<Record>>);
        for r in &records {
            tee.record(r).unwrap();
        }
        tee.flush().unwrap();
        assert_eq!(tee.into_inner(), (Some(records), None));
    }

    #[test]
    fn record_format_parses_and_displays() {
        assert_eq!("json".parse::<RecordFormat>().unwrap(), RecordFormat::Json);
        assert_eq!(
            "binary".parse::<RecordFormat>().unwrap(),
            RecordFormat::Binary
        );
        assert!("csv".parse::<RecordFormat>().is_err());
        assert_eq!(RecordFormat::Json.to_string(), "json");
        assert_eq!(RecordFormat::Binary.to_string(), "binary");
    }

    #[test]
    fn any_reader_detects_both_formats_and_agrees() {
        let records: Vec<Record> = (0..40).map(|i| sample((i % 3) as u8, i)).collect();
        let mut json = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
        let mut bin = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
        for r in &records {
            json.record(r).unwrap();
            bin.record(r).unwrap();
        }
        for (bytes, expected) in [
            (json.into_inner().unwrap(), RecordFormat::Json),
            (bin.into_inner().unwrap(), RecordFormat::Binary),
        ] {
            let reader = AnyRecordReader::open(std::io::Cursor::new(bytes), 2, 8, None).unwrap();
            assert_eq!(reader.format(), expected);
            let back: Vec<Record> = reader.collect::<Result<_, _>>().unwrap();
            assert_eq!(back, records, "format {expected}");
        }
    }

    #[test]
    fn empty_stream_detects_as_json_and_yields_nothing() {
        let reader = AnyRecordReader::open(std::io::Cursor::new(Vec::new()), 1, 1, None).unwrap();
        assert_eq!(reader.format(), RecordFormat::Json);
        assert_eq!(reader.count(), 0);
    }
}
