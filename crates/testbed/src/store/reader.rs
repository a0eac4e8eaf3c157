//! Bounded-memory parallel ingest of record streams.
//!
//! [`read_json_lines`](super::read_json_lines) parses sequentially on the
//! caller's thread. At paper scale (~175 M records, ~350 GB of JSON) the
//! parse dominates ingest, so [`AnyRecordReader`] fans fixed-size batches
//! out to worker threads through *bounded* channels: peak memory is
//! `O(threads × batch)` regardless of file size, and the yielded record
//! order is identical to the sequential reader's (batches are re-sequenced
//! by index on the consumer side).
//!
//! ```text
//!  reader thread ──(idx, Vec<item>)──▶ workers ──(idx, Vec<Result>)──▶ reorder ──▶ iterator
//!        bounded sync_channel               bounded sync_channel        BTreeMap
//! ```
//!
//! Only the producer (how the stream splits into byte items) and the
//! per-item decode function depend on the [`RecordFormat`]. JSON lines
//! split on newlines; a worker checks a line's UTF-8 and decodes it through
//! [`Record::parse_json_line`]'s canonical-layout fast path (one allocation
//! per record — the word storage itself; see
//! `crates/testbed/tests/alloc_regression.rs`), falling back to the tree
//! parser only on non-canonical input. `pufrec/1` splits on length
//! prefixes (see [`binary`]) and decodes a frame with a CRC check.
//!
//! A mid-stream I/O failure is delivered in-band as a
//! [`ParseRecordError::Io`] item at the exact position it occurred, then the
//! stream ends — consumers can abort loudly instead of assessing partial
//! data.

use super::{binary, ParseRecordError, Record, RecordFormat};
use pufobs::{Counter, Gauge, Histogram, Instruments};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Default number of lines (or binary records) per parse batch.
pub const DEFAULT_BATCH_LINES: usize = 1024;

/// Pre-registered handles for the reader pipeline's instrument points.
/// Counters update once per batch (not per item), so instrumentation adds
/// a few atomic operations per `batch` decoded records.
#[derive(Debug, Clone)]
struct ReaderInstruments {
    ins: Instruments,
    /// `reader.bytes_read` — bytes pulled off the input stream: each JSON
    /// line with its line ending, or the `pufrec/1` header and frames.
    bytes: Counter,
    /// `reader.lines_read` — lines pulled off the input stream (JSON only).
    lines: Option<Counter>,
    /// `reader.batches` — batches dispatched to the worker pool.
    batches: Counter,
    /// `reader.records_parsed` (JSON) / `reader.records_decoded` (binary)
    /// — records decoded successfully.
    records: Counter,
    /// `reader.malformed_lines` (JSON) / `reader.corrupt_records` (binary)
    /// — items that failed to decode.
    malformed: Counter,
    /// `reader.io_errors` — mid-stream I/O failures delivered in-band.
    io_errors: Counter,
    /// `reader.queue_depth` — batches queued between reader and workers.
    queue_depth: Gauge,
    /// `reader.batch_parse_ns` — wall time to decode one batch.
    batch_parse_ns: Histogram,
}

impl ReaderInstruments {
    /// Registers the instruments under `format`'s names.
    fn new(ins: &Instruments, format: RecordFormat) -> Self {
        let json = format == RecordFormat::Json;
        let (records, malformed) = if json {
            ("reader.records_parsed", "reader.malformed_lines")
        } else {
            ("reader.records_decoded", "reader.corrupt_records")
        };
        Self {
            ins: ins.clone(),
            bytes: ins.counter("reader.bytes_read"),
            lines: json.then(|| ins.counter("reader.lines_read")),
            batches: ins.counter("reader.batches"),
            records: ins.counter(records),
            malformed: ins.counter(malformed),
            io_errors: ins.counter("reader.io_errors"),
            queue_depth: ins.gauge("reader.queue_depth"),
            batch_parse_ns: ins.histogram("reader.batch_parse_ns"),
        }
    }
}

/// Numbered batches: stream items to the workers, decoded results back.
type WorkBatch = (usize, Vec<Vec<u8>>);
type ResultBatch = (usize, Vec<Result<Record, ParseRecordError>>);

/// Decodes one stream item; `None` drops it (how JSON skips blank lines).
type Decode = fn(&[u8]) -> Option<Result<Record, ParseRecordError>>;

/// The producer side of the pipeline, handed to the reader-thread body:
/// tracks the batch sequence number and maintains the producer-side
/// instruments so every format's producer stays a plain split loop.
pub(crate) struct BatchFeed {
    work_tx: SyncSender<WorkBatch>,
    result_tx: SyncSender<ResultBatch>,
    obs: Option<ReaderInstruments>,
    idx: usize,
}

impl BatchFeed {
    /// Dispatches one batch covering `bytes` input bytes to the worker
    /// pool. Returns `false` if the consumer dropped the iterator (the
    /// producer should stop reading).
    pub(crate) fn send(&mut self, batch: Vec<Vec<u8>>, bytes: u64) -> bool {
        if let Some(o) = &self.obs {
            o.bytes.add(bytes);
            if let Some(lines) = &o.lines {
                lines.add(batch.len() as u64);
            }
            o.batches.inc();
            o.queue_depth.add(1);
        }
        let ok = self.work_tx.send((self.idx, batch)).is_ok();
        self.idx += 1;
        ok
    }

    /// Counts stream bytes that belong to no batch (e.g. the file header).
    pub(crate) fn count_bytes(&self, bytes: u64) {
        if let Some(o) = &self.obs {
            o.bytes.add(bytes);
        }
    }

    /// Delivers a terminal in-band error (I/O failure, torn trailing
    /// record) after everything sent so far, then ends the stream.
    pub(crate) fn send_error(&mut self, err: ParseRecordError) {
        if let Some(o) = &self.obs {
            if err.is_io() {
                o.io_errors.inc();
            } else {
                o.malformed.inc();
            }
        }
        let _ = self.result_tx.send((self.idx, vec![Err(err)]));
        self.idx += 1;
    }
}

/// Iterator over the records of a JSON-lines or `pufrec/1` stream, decoded
/// by a pool of worker threads and yielded in input order.
///
/// [`open`](Self::open) detects the format from the stream's first bytes,
/// [`spawn`](Self::spawn) takes it from the caller, and
/// [`spawn_resync`](Self::spawn_resync) reads damaged `pufrec/1` input.
/// A bad item is one `Err` at its own position: a malformed JSON line or a
/// corrupt frame costs only itself, while an I/O failure, or a damaged
/// `pufrec/1` length prefix that desynchronises the framing, ends the
/// stream. `threads` is clamped to at least 1, and a `batch` (lines or
/// frames per worker batch) of 0 is treated as 1. In-flight memory is
/// bounded by roughly `4 × threads × batch` items: two bounded channels
/// plus the batches the workers hold. Dropping the iterator early shuts
/// the pipeline down and joins every thread.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use puftestbed::store::{AnyRecordReader, RecordFormat, RecordSink, RecordWriter};
/// use puftestbed::{BoardId, Record, Timestamp};
///
/// let mut json = RecordWriter::new(Vec::new(), RecordFormat::Json, 0)?;
/// let mut binary = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0)?;
/// for seq in 0..100 {
///     let r = Record::new(BoardId(1), seq, Timestamp(0), BitVec::from_bytes(&[0xA5]));
///     json.record(&r)?;
///     binary.record(&r)?;
/// }
/// for bytes in [json.into_inner()?, binary.into_inner()?] {
///     let reader = AnyRecordReader::open(std::io::Cursor::new(bytes), 4, 8, None)?;
///     let records: Vec<Record> = reader.collect::<Result<_, _>>().unwrap();
///     assert_eq!(records.len(), 100);
///     assert_eq!(records[99].seq, 99);
/// }
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct AnyRecordReader {
    format: RecordFormat,
    /// Results ready to be yielded, in order.
    ready: VecDeque<Result<Record, ParseRecordError>>,
    /// Out-of-order batches waiting for their predecessors.
    reorder: BTreeMap<usize, Vec<Result<Record, ParseRecordError>>>,
    /// Index of the next batch to yield.
    next_batch: usize,
    results: Option<Receiver<ResultBatch>>,
    handles: Vec<JoinHandle<()>>,
}

impl AnyRecordReader {
    /// Detects the format of `reader` and spawns its pipeline.
    ///
    /// # Errors
    ///
    /// Returns the error from peeking the stream head.
    pub fn open<R: BufRead + Send + 'static>(
        mut reader: R,
        threads: usize,
        batch: usize,
        instruments: Option<&Instruments>,
    ) -> io::Result<Self> {
        let format = RecordFormat::detect(&mut reader)?;
        Ok(Self::spawn(reader, format, threads, batch, instruments))
    }

    /// Spawns the pipeline reading `reader` as `format` (a `pufrec/1`
    /// stream starts at its file header). With an instrument registry the
    /// pipeline maintains `reader.bytes_read`, `reader.batches`,
    /// `reader.io_errors`, the `reader.queue_depth` gauge and the
    /// `reader.batch_parse_ns` histogram, plus `reader.lines_read`,
    /// `reader.records_parsed` and `reader.malformed_lines` for JSON lines
    /// or `reader.records_decoded` and `reader.corrupt_records` for
    /// `pufrec/1`. The yielded records are identical either way.
    pub fn spawn<R: BufRead + Send + 'static>(
        reader: R,
        format: RecordFormat,
        threads: usize,
        batch: usize,
        instruments: Option<&Instruments>,
    ) -> Self {
        let batch = batch.max(1);
        match format {
            RecordFormat::Json => Self::pipeline(
                format,
                threads,
                instruments,
                move |feed| read_line_batches(reader, batch, feed),
                super::decode_json_line,
            ),
            RecordFormat::Binary => Self::pipeline(
                format,
                threads,
                instruments,
                move |feed| binary::read_frame_batches(reader, batch, feed),
                |frame| Some(binary::decode_frame(frame)),
            ),
        }
    }

    /// [`spawn`](Self::spawn) for `pufrec/1` input, with best-effort
    /// resync: after a corrupt region (bad header, damaged length prefix,
    /// CRC mismatch) the reader scans forward for the next byte offset at
    /// which a complete, CRC-valid frame begins and continues from there,
    /// instead of ending the stream. Each skipped region surfaces as one
    /// in-band [`ParseRecordError::Corrupt`] item naming its exact byte
    /// range, so a consumer that tolerates corrupt items (e.g. `assess`)
    /// degrades gracefully and its coverage report shows the loss.
    ///
    /// `max_skip_bytes` bounds the total bytes skipped across the whole
    /// stream; past it the reader gives up with a terminal error (a file
    /// that is mostly garbage should fail loudly, not crawl). Candidate
    /// frames during a scan are bounded to 1 MiB payloads — far above any
    /// real read-out, far below the 64 MiB framing limit — so garbage
    /// cannot make the scanner buffer half the file. Real I/O errors
    /// remain terminal. The offline, exhaustive form of this scanner is
    /// [`fsck::salvage_pufrec`](super::fsck::salvage_pufrec).
    pub fn spawn_resync<R: BufRead + Send + 'static>(
        reader: R,
        threads: usize,
        batch: usize,
        max_skip_bytes: u64,
        instruments: Option<&Instruments>,
    ) -> Self {
        let batch = batch.max(1);
        Self::pipeline(
            RecordFormat::Binary,
            threads,
            instruments,
            move |feed| binary::read_frame_batches_resync(reader, batch, feed, max_skip_bytes),
            |frame| Some(binary::decode_frame(frame)),
        )
    }

    /// The format the stream is read as.
    pub fn format(&self) -> RecordFormat {
        self.format
    }

    /// Spawns `threads` decode workers running `decode` per item and one
    /// producer thread running `produce` over a [`BatchFeed`].
    fn pipeline(
        format: RecordFormat,
        threads: usize,
        instruments: Option<&Instruments>,
        produce: impl FnOnce(&mut BatchFeed) + Send + 'static,
        decode: Decode,
    ) -> Self {
        let threads = threads.max(1);
        let obs = instruments.map(|ins| ReaderInstruments::new(ins, format));
        let (work_tx, work_rx) = mpsc::sync_channel(threads);
        let (result_tx, result_rx) = mpsc::sync_channel::<ResultBatch>(threads);
        let work_rx = Arc::new(Mutex::new(work_rx));

        let mut handles = Vec::with_capacity(threads + 1);
        for _ in 0..threads {
            let work_rx = Arc::clone(&work_rx);
            let result_tx = result_tx.clone();
            let obs = obs.clone();
            handles.push(std::thread::spawn(move || {
                decode_worker(&work_rx, &result_tx, obs.as_ref(), decode)
            }));
        }
        handles.push(std::thread::spawn(move || {
            let mut feed = BatchFeed {
                work_tx,
                result_tx,
                obs,
                idx: 0,
            };
            produce(&mut feed);
        }));

        Self {
            format,
            ready: VecDeque::new(),
            reorder: BTreeMap::new(),
            next_batch: 0,
            results: Some(result_rx),
            handles,
        }
    }

    /// Pulls result batches until the next in-order batch is available (or
    /// the pipeline is exhausted), refilling `ready`.
    fn refill(&mut self) {
        let Some(results) = &self.results else {
            return;
        };
        while self.ready.is_empty() {
            // Drain contiguous batches already waiting in the reorder map.
            while let Some(batch) = self.reorder.remove(&self.next_batch) {
                self.next_batch += 1;
                self.ready.extend(batch);
            }
            if !self.ready.is_empty() {
                return;
            }
            match results.recv() {
                Ok((idx, batch)) => {
                    self.reorder.insert(idx, batch);
                }
                Err(_) => {
                    // Pipeline finished; everything left must be contiguous.
                    while let Some(batch) = self.reorder.remove(&self.next_batch) {
                        self.next_batch += 1;
                        self.ready.extend(batch);
                    }
                    debug_assert!(self.reorder.is_empty(), "gap in batch sequence");
                    self.shutdown();
                    return;
                }
            }
        }
    }

    fn shutdown(&mut self) {
        // Dropping the receiver makes every pending worker/reader send fail,
        // so the threads unwind promptly even on early drop.
        self.results = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Iterator for AnyRecordReader {
    type Item = Result<Record, ParseRecordError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.ready.is_empty() {
            self.refill();
        }
        self.ready.pop_front()
    }
}

impl Drop for AnyRecordReader {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker-thread body: decode item batches, preserving every item's
/// outcome.
fn decode_worker(
    work_rx: &Mutex<Receiver<WorkBatch>>,
    result_tx: &SyncSender<ResultBatch>,
    obs: Option<&ReaderInstruments>,
    decode: Decode,
) {
    loop {
        let received = {
            let rx = work_rx.lock().expect("work queue lock poisoned");
            rx.recv()
        };
        let Ok((idx, items)) = received else {
            return; // reader finished and channel drained
        };
        let started = obs.map(|o| {
            o.queue_depth.sub(1);
            o.ins.now()
        });
        let parsed: Vec<Result<Record, ParseRecordError>> =
            items.iter().filter_map(|item| decode(item)).collect();
        if let (Some(o), Some(t0)) = (obs, started) {
            o.batch_parse_ns
                .record_duration(o.ins.now().saturating_sub(t0));
            let malformed = parsed.iter().filter(|r| r.is_err()).count() as u64;
            o.records.add(parsed.len() as u64 - malformed);
            o.malformed.add(malformed);
        }
        if result_tx.send((idx, parsed)).is_err() {
            return; // consumer dropped
        }
    }
}

/// Reader-thread body for the JSON pipeline: slice the stream into line
/// batches, push them to the workers, and deliver I/O failures in-band at
/// the position they occurred.
fn read_line_batches<R: BufRead>(mut reader: R, batch_lines: usize, feed: &mut BatchFeed) {
    let mut batch = Vec::with_capacity(batch_lines);
    let mut batch_bytes = 0u64;
    loop {
        let mut line = Vec::new();
        match super::read_line_bytes(&mut reader, &mut line) {
            Ok(0) => break,
            Ok(n) => {
                batch_bytes += n as u64;
                batch.push(line);
                if batch.len() == batch_lines {
                    let full = std::mem::replace(&mut batch, Vec::with_capacity(batch_lines));
                    if !feed.send(full, batch_bytes) {
                        return; // consumer dropped
                    }
                    batch_bytes = 0;
                }
            }
            Err(e) => {
                // Flush what parsed cleanly, then the error, then stop: the
                // rest of the stream is unreadable.
                if !batch.is_empty() && !feed.send(std::mem::take(&mut batch), batch_bytes) {
                    return;
                }
                feed.send_error(ParseRecordError::from_io(&e));
                return;
            }
        }
    }
    if !batch.is_empty() {
        let _ = feed.send(batch, batch_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{read_json_lines, RecordSink, RecordWriter};
    use crate::{BoardId, Timestamp};
    use pufbits::BitVec;
    use std::io::Cursor;

    fn jsonl(n: u64) -> Vec<u8> {
        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
        for seq in 0..n {
            let r = Record::new(
                BoardId((seq % 5) as u8),
                seq,
                Timestamp(seq as i64),
                BitVec::from_bytes(&[seq as u8, 0xA5]),
            );
            sink.record(&r).unwrap();
        }
        sink.into_inner().unwrap()
    }

    #[test]
    fn matches_sequential_reader_for_every_thread_count() {
        let bytes = jsonl(257); // deliberately not a batch multiple
        let sequential: Vec<_> = read_json_lines(Cursor::new(bytes.clone())).collect();
        for threads in [1, 2, 7] {
            let parallel: Vec<_> = AnyRecordReader::spawn(
                Cursor::new(bytes.clone()),
                RecordFormat::Json,
                threads,
                16,
                None,
            )
            .collect();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn malformed_lines_surface_in_position() {
        let mut bytes = jsonl(10);
        bytes.extend_from_slice(b"not json\n");
        bytes.extend_from_slice(&jsonl(3));
        let items: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Json, 3, 4, None).collect();
        assert_eq!(items.len(), 14);
        assert!(items[10].is_err());
        assert_eq!(items.iter().filter(|i| i.is_err()).count(), 1);
    }

    #[test]
    fn blank_lines_are_skipped_like_the_sequential_reader() {
        let mut bytes = b"\n\n".to_vec();
        bytes.extend_from_slice(&jsonl(5));
        bytes.extend_from_slice(b"\n");
        let records: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Json, 2, 2, None)
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn early_drop_joins_cleanly() {
        let bytes = jsonl(1000);
        let mut reader = AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Json, 4, 8, None);
        assert!(reader.next().is_some());
        drop(reader); // must not deadlock or leak threads
    }

    /// A `BufRead` that fails after the underlying data is exhausted.
    struct FailingReader {
        data: Cursor<Vec<u8>>,
        failed: bool,
    }

    impl std::io::Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.data.read(buf)?;
            if n == 0 && !self.failed {
                self.failed = true;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "truncated",
                ));
            }
            Ok(n)
        }
    }

    impl BufRead for FailingReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.data.position() as usize == self.data.get_ref().len() && !self.failed {
                self.failed = true;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "truncated",
                ));
            }
            self.data.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.data.consume(amt);
        }
    }

    #[test]
    fn instruments_account_for_every_line() {
        let ins = Instruments::new();
        let mut bytes = jsonl(20);
        bytes.extend_from_slice(b"not json\n");
        bytes.extend_from_slice(&jsonl(5));
        let total_bytes = bytes.len() as u64;
        let items: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Json, 2, 4, Some(&ins))
                .collect();
        assert_eq!(items.len(), 26);
        let snap = ins.snapshot();
        assert_eq!(snap.counter("reader.lines_read"), 26);
        assert_eq!(snap.counter("reader.bytes_read"), total_bytes);
        assert_eq!(snap.counter("reader.records_parsed"), 25);
        assert_eq!(snap.counter("reader.malformed_lines"), 1);
        assert_eq!(snap.counter("reader.io_errors"), 0);
        // 26 lines in batches of 4 → 7 batches, all timed and drained.
        assert_eq!(snap.counter("reader.batches"), 7);
        assert_eq!(snap.gauge("reader.queue_depth"), 0);
        assert_eq!(snap.histogram("reader.batch_parse_ns").unwrap().count, 7);
        // Conservation: every line is parsed or malformed.
        assert_eq!(
            snap.counter("reader.lines_read"),
            snap.counter("reader.records_parsed") + snap.counter("reader.malformed_lines")
        );
    }

    #[test]
    fn instrumented_reader_yields_the_same_records() {
        let bytes = jsonl(57);
        let plain: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes.clone()), RecordFormat::Json, 3, 8, None)
                .collect();
        let ins = Instruments::new();
        let instrumented: Vec<_> =
            AnyRecordReader::spawn(Cursor::new(bytes), RecordFormat::Json, 3, 8, Some(&ins))
                .collect();
        assert_eq!(plain, instrumented);
    }

    #[test]
    fn io_failure_arrives_in_band_after_the_good_records() {
        let reader = FailingReader {
            data: Cursor::new(jsonl(10)),
            failed: false,
        };
        let items: Vec<_> =
            AnyRecordReader::spawn(reader, RecordFormat::Json, 3, 4, None).collect();
        assert_eq!(items.len(), 11);
        assert!(items[..10].iter().all(Result::is_ok));
        assert!(items[10].as_ref().unwrap_err().is_io());
    }
}
