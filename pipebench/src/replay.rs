//! Traced replays of work the crates do out of a benchmark's reach: the
//! campaign engine's fault-free windowed loop, and the record decoding the
//! parallel readers spread over their workers.
//!
//! `Campaign::run` calls into `sramcell`, `sramaging` and the I2C bus from
//! inside the crate. [`run`] makes the same
//! calls in the same order from here — `SlaveBoard::{new, age,
//! power_cycle_with}` and `I2cBus::transfer` on each board's own
//! `board_stream_seed` stream, the boards sharded in contiguous chunks
//! over the same thread count, each window merged by `(seq, board)` — with
//! a span around each call. It emits the records the engine would emit;
//! callers prove it did the engine's work by comparing digests of the
//! read-out bits and of the sink's output.

use crate::measure::Digest;
use crate::trace::{self, Tracer};
use pufbits::{BitVec, PufRng};
use puftestbed::i2c::{Address, I2cBus};
use puftestbed::schedule::READOUT_DELAY_S;
use puftestbed::{
    board_stream_seed, BoardId, CampaignConfig, MeasurementPlan, PowerWaveform, Record, RecordSink,
    SlaveBoard, Timestamp,
};
use rand::SeedableRng;
use sramcell::PowerUpKernel;
use std::io;
use std::path::Path;
use std::time::Instant;

/// What a replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Records handed to the sink.
    pub records: u64,
    /// Digest of every record's device, sequence number and read-out bits,
    /// in sink order (see [`readout_digest`]).
    pub readout_digest: u64,
    /// `SlaveBoard::power_cycle_with` calls.
    pub power_ups: u64,
    /// `SlaveBoard::age` calls.
    pub age_calls: u64,
    /// I2C transactions, summed over the boards' buses.
    pub i2c_transactions: u64,
    /// I2C payload bytes delivered.
    pub i2c_bytes: u64,
    /// Failed I2C transactions.
    pub i2c_failures: u64,
}

/// Folds one record's device, sequence number and read-out bits into a
/// digest.
pub fn readout_digest(digest: &mut Digest, record: &Record) {
    digest.update_word(u64::from(record.device.0));
    digest.update_word(record.seq);
    digest.update_word(record.data.len() as u64);
    for &word in record.data.as_words() {
        digest.update_word(word);
    }
}

/// A sink that digests the read-outs of the records passing through it.
#[derive(Debug, Default)]
pub struct ReadoutDigest(pub Digest);

impl RecordSink for ReadoutDigest {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        readout_digest(&mut self.0, record);
        Ok(())
    }
}

struct Board {
    board: SlaveBoard,
    layer: usize,
    address: Address,
    bus: I2cBus,
    rng: PufRng,
    kernel: PowerUpKernel,
}

/// Replays the campaign of `config` and `seed` on `threads` workers into
/// `sink`, with a span called `sink_span` around each record delivered.
///
/// # Panics
///
/// Panics unless `config` is fault-free and windowed: the replay covers
/// the engine's plain path only.
///
/// # Errors
///
/// Propagates the first sink error.
pub fn run<S: RecordSink>(
    config: &CampaignConfig,
    seed: u64,
    threads: usize,
    sink: &mut S,
    sink_span: &'static str,
    tr: &mut Tracer,
) -> io::Result<Replayed> {
    assert!(
        config.plan == MeasurementPlan::Windowed
            && config.faults.is_empty()
            && config.i2c_nack_rate == 0.0
            && config.i2c_corruption_rate == 0.0,
        "the replay covers fault-free windowed campaigns only"
    );
    let mut boards: Vec<Board> = (0..config.boards)
        .map(|i| {
            let id = BoardId(u8::try_from(i).expect("board count fits u8"));
            let mut rng = PufRng::seed_from_u64(board_stream_seed(seed, id));
            let mut board = tr.span("puftestbed.board.new", || {
                SlaveBoard::new(
                    id,
                    &config.profile,
                    config.sram_bits,
                    config.read_bits,
                    &mut rng,
                )
            });
            if let Some(env) = config.environment {
                board.set_environment(env);
            }
            Board {
                board,
                layer: i % 2,
                address: Address::new(0x10 + u8::try_from(i / 2).expect("board count fits u8"))
                    .expect("slave addresses stay in the valid range"),
                bus: I2cBus::ideal(),
                rng,
                kernel: PowerUpKernel::new(),
            }
        })
        .collect();

    let epoch = Timestamp::from_date(config.start);
    let start_days = config.start.days_since_epoch();
    let period = PowerWaveform::paper_layer(0).period_s();
    let substeps = config.aging_substeps_per_month.max(1);
    let chunk_len = boards.len().div_ceil(threads.clamp(1, boards.len()));
    let mut done = Replayed::default();
    let mut digest = Digest::default();
    let mut previous = config.start;
    let mut date = config.start;
    for month in 0..=config.months {
        if month > 0 {
            previous = date;
            date = date.next_month();
        }
        let previous_days = if month == 0 {
            0
        } else {
            previous.days_since_epoch() - start_days
        };
        let wall_years = (date.days_since_epoch() - start_days - previous_days) as f64 / 365.25;
        let window_start = Timestamp::from_date(date);
        let base_cycle = (window_start.seconds_since(epoch) as f64 / period) as u64;
        let reads = config.reads_per_window;

        let window = tr.open("puftestbed.campaign");
        let parent: &Tracer = tr;
        let (mut records, workers): (Vec<Vec<Record>>, Vec<Tracer>) = std::thread::scope(|scope| {
            let handles: Vec<_> = boards
                .chunks_mut(chunk_len)
                .enumerate()
                .map(|(w, chunk)| {
                    let mut wt = parent.fork(u32::try_from(w + 1).expect("few workers"));
                    scope.spawn(move || {
                        let shard = wt.open("puftestbed.campaign.shard");
                        let mut out = Vec::with_capacity(chunk.len() * reads as usize);
                        let mut bytes = Vec::new();
                        for b in chunk.iter_mut() {
                            if wall_years > 0.0 {
                                wt.span("sramaging.age", || b.board.age(wall_years, substeps));
                            }
                            let id = b.board.id();
                            for read in 0..reads {
                                // A fault-free plan has no clock skew to add.
                                let t = f64::from(read) * period
                                    + 2.7 * b.layer as f64
                                    + READOUT_DELAY_S;
                                let timestamp = window_start.offset_by(t);
                                let seq = base_cycle + u64::from(read);
                                let readout = wt.span("sramcell.power_up", || {
                                    b.board.power_cycle_with(&mut b.kernel, &mut b.rng)
                                });
                                bytes.clear();
                                readout.to_bytes_into(&mut bytes);
                                let received = wt
                                    .span("puftestbed.i2c", || {
                                        b.bus.transfer(b.address, &bytes, &mut b.rng)
                                    })
                                    .expect("an ideal bus delivers every transfer");
                                let bits = BitVec::from_bytes_with_len(&received, readout.len());
                                out.push(Record::new(id, seq, timestamp, bits));
                            }
                        }
                        wt.close(shard);
                        (out, wt)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .unzip()
        });
        for worker in workers {
            tr.join(worker);
        }
        let mut merged: Vec<Record> = records.iter_mut().flat_map(std::mem::take).collect();
        merged.sort_unstable_by_key(|r| (r.seq, r.device.0));
        for record in &merged {
            tr.span(sink_span, || sink.record(record))?;
            readout_digest(&mut digest, record);
        }
        tr.close(window);
        done.records += merged.len() as u64;
        done.power_ups += u64::from(reads) * boards.len() as u64;
        if wall_years > 0.0 {
            done.age_calls += boards.len() as u64;
        }
    }
    done.readout_digest = digest.value();
    for b in &boards {
        done.i2c_transactions += b.bus.transactions();
        done.i2c_bytes += b.bus.bytes_moved();
        done.i2c_failures += b.bus.failures();
    }
    Ok(done)
}

/// What a [`decode`] replay measured.
#[derive(Debug)]
pub struct Decoded {
    /// The decoded records, in file order.
    pub records: Vec<Record>,
    /// Mean decode time per record, microseconds.
    pub us_per_record: f64,
    /// The replay's spans.
    pub spans: Vec<trace::Span>,
}

/// Decodes every record of a record file on one thread, with a span
/// around each `Record::parse_json_line` or `Record::decode_binary` call
/// (the work the parallel readers spread over their workers).
///
/// # Errors
///
/// Returns the read error, or a decode error as `InvalidData`.
pub fn decode(input: &Path, epoch: Instant, op: u32) -> io::Result<Decoded> {
    use puftestbed::store::binary::{FileHeader, HEADER_LEN, MAGIC};
    let invalid = |e: puftestbed::store::ParseRecordError| {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    };
    let bytes = std::fs::read(input)?;
    let mut tr = Tracer::on(epoch, op);
    let root = tr.open("replay.decode");
    let mut records = Vec::new();
    if bytes.starts_with(&MAGIC) {
        FileHeader::parse(&bytes).map_err(invalid)?;
        let mut at = HEADER_LEN;
        while at < bytes.len() {
            let (record, used) = tr
                .span("puftestbed.store.decode", || {
                    Record::decode_binary(&bytes[at..])
                })
                .map_err(invalid)?;
            records.push(record);
            at += used;
        }
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record = tr
                .span("puftestbed.store.decode", || Record::parse_json_line(line))
                .map_err(invalid)?;
            records.push(record);
        }
    }
    tr.close(root);
    let spans = tr.into_spans();
    let decode = trace::profile(&spans).layer("puftestbed.store.decode");
    Ok(Decoded {
        records,
        us_per_record: decode.self_s * 1e6 / decode.calls.max(1) as f64,
        spans,
    })
}
