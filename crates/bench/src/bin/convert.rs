//! Converts a record file between the JSON-lines and `pufrec/1` binary
//! stores, losslessly — every field round-trips bit-for-bit, so assessing
//! the converted file produces byte-identical output.
//!
//! ```text
//! convert --in records.jsonl --out records.pufrec --format binary
//!         [--threads N] [--batch N]
//! ```
//!
//! The input format is detected from the file's first bytes; `--format`
//! names the *output* format. Decoding runs on the parallel reader
//! pipeline, so large corpora convert at close to disk speed. Any
//! malformed or corrupt input record aborts the conversion: a migration
//! must be exact, and silently dropping records would make the converted
//! file assess differently from its source. The output is written
//! atomically — it appears at `--out` only once the conversion is
//! complete, so an aborted migration leaves nothing that could pass for a
//! converted file.
//!
//! ## fsck / repair
//!
//! ```text
//! convert --fsck --in FILE [--repair --out FILE] [--journal FILE]
//!         [--format json|binary] [--metrics-out FILE]
//! ```
//!
//! `--fsck` verifies a `pufrec/1`, `pufchk/1`, or JSON-lines file
//! (framing, CRCs, parseability) and reports every damaged byte range with
//! its exact offset. With `--repair`, the intact frames are salvaged into
//! `--out` (written atomically) alongside a `pufsck/1` JSON journal
//! (default `<out>.journal`) that accounts for *every* input byte:
//! `bytes_kept + bytes_dropped == bytes_total`. Checkpoints are
//! all-or-nothing — a damaged `pufchk/1` cannot be repaired, only
//! detected. Exit codes: 0 the file is clean, 1 damaged but repaired,
//! 2 usage error, 4 damaged and not repaired.

use pufbench::{cli, metrics, FormatSink};
use pufobs::Instruments;
use puftestbed::store::json::JsonValue;
use puftestbed::store::{
    fsck, AnyRecordReader, AtomicFile, RecordFormat, RecordSink, DEFAULT_BATCH_LINES,
};
use puftestbed::Record;
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::exit;

fn main() {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut format: Option<RecordFormat> = None;
    let mut threads = pufbench::default_threads();
    let mut batch = DEFAULT_BATCH_LINES;
    let mut fsck_mode = false;
    let mut repair = false;
    let mut journal: Option<String> = None;
    let mut metrics_out: Option<String> = None;

    let mut args = cli::Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--in" => input = Some(args.value(&arg)),
            "--out" => output = Some(args.value(&arg)),
            "--format" => format = Some(args.parse(&arg)),
            "--threads" => threads = args.positive(&arg),
            "--batch" => batch = args.positive(&arg),
            "--fsck" => fsck_mode = true,
            "--repair" => repair = true,
            "--journal" => journal = Some(args.value(&arg)),
            "--metrics-out" => metrics_out = Some(args.value(&arg)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: convert --in FILE --out FILE --format json|binary \
                     [--threads N] [--batch N]\n       \
                     convert --fsck --in FILE [--repair --out FILE] [--journal FILE] \
                     [--format json|binary] [--metrics-out FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                exit(2);
            }
        }
    }
    if repair && !fsck_mode {
        eprintln!("--repair only makes sense with --fsck (try --help)");
        exit(2);
    }
    if fsck_mode {
        let Some(input) = input else {
            eprintln!("--fsck needs --in FILE (try --help)");
            exit(2);
        };
        if repair && output.is_none() {
            eprintln!("--repair needs --out FILE for the salvaged copy");
            exit(2);
        }
        exit(run_fsck(
            &input,
            repair,
            output.as_deref(),
            journal.as_deref(),
            format,
            metrics_out.as_deref(),
        ));
    }
    let (Some(input), Some(output), Some(format)) = (input, output, format) else {
        eprintln!("--in FILE, --out FILE and --format json|binary are required (try --help)");
        exit(2);
    };

    match convert(&input, &output, format, threads, batch) {
        Ok((written, in_format)) => {
            eprintln!("converted {written} records: {input} ({in_format}) → {output} ({format})")
        }
        Err(message) => {
            // The atomic sink never published anything at `--out`: an
            // aborted migration leaves no file that could pass for a
            // conversion.
            eprintln!("{message}");
            eprintln!("conversion aborted: a migration must be lossless, not a silent prefix");
            exit(1);
        }
    }
}

fn convert(
    input: &str,
    output: &str,
    format: RecordFormat,
    threads: usize,
    batch: usize,
) -> Result<(u64, RecordFormat), String> {
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let reader = AnyRecordReader::open(BufReader::new(file), threads, batch, None)
        .map_err(|e| format!("cannot read {input}: {e}"))?;
    let in_format = reader.format();
    // The converted file's header cannot promise one read width: the input
    // may mix widths, so declare 0 (unspecified).
    let mut sink = FormatSink::create(output, format, 0)
        .map_err(|e| format!("cannot create {output}: {e}"))?;
    // Early returns drop `sink`, which removes the unpublished temp file.
    for (index, item) in reader.enumerate() {
        let record = item.map_err(|e| format!("{input}: record {index}: {e}"))?;
        sink.record(&record)
            .map_err(|e| format!("writing {output} failed: {e}"))?;
    }
    let written = sink.written();
    sink.finish()
        .map_err(|e| format!("flush of {output} failed: {e}"))?;
    Ok((written, in_format))
}

/// Which on-disk store a file holds, for the fsck pass.
#[derive(Clone, Copy, PartialEq)]
enum Store {
    Pufrec,
    Pufchk,
    Json,
}

/// Detects the store from the file's leading magic: `pufchk` for a
/// checkpoint, else the rule [`RecordFormat::detect`] applies for `assess`
/// and `keylife`, so a file that is a proper prefix of the `pufrec` magic
/// is a truncated `pufrec/1` header here too. A `pufrec/1` file with a
/// destroyed header has no magic left, so as a fallback the pufrec salvage
/// scanner probes for frames — if it locks onto any, the file is treated
/// as (headerless) pufrec rather than JSON.
fn detect(bytes: &[u8]) -> Store {
    if bytes.starts_with(b"pufchk") {
        Store::Pufchk
    } else if RecordFormat::detect(&mut &bytes[..]).expect("a byte slice reads without error")
        == RecordFormat::Binary
        || fsck::salvage_pufrec(bytes, |_| {}).frames_ok > 0
    {
        Store::Pufrec
    } else {
        Store::Json
    }
}

/// Runs `--fsck` and returns the process exit code: 0 clean, 1 damaged but
/// repaired, 4 damaged and not repaired. I/O failures exit 1 directly.
fn run_fsck(
    input: &str,
    repair: bool,
    out: Option<&str>,
    journal: Option<&str>,
    out_format: Option<RecordFormat>,
    metrics_out: Option<&str>,
) -> i32 {
    let bytes = std::fs::read(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(1);
    });
    let store = detect(&bytes);
    let mut kept: Vec<Record> = Vec::new();
    let report = match store {
        Store::Pufrec => fsck::salvage_pufrec(&bytes, |r| kept.push(r.clone())),
        Store::Pufchk => fsck::fsck_pufchk(&bytes),
        Store::Json => fsck::salvage_json_lines(&bytes, |r| kept.push(r.clone())),
    };
    eprintln!(
        "fsck {input} ({}): {} intact frame(s), {} of {} byte(s) dropped in {} range(s){}",
        report.format,
        report.frames_ok,
        report.bytes_dropped,
        report.bytes_total,
        report.dropped.len(),
        if report.header_ok {
            ""
        } else {
            " — file header damaged"
        }
    );
    for range in &report.dropped {
        eprintln!(
            "  dropped {} byte(s) at offset {}: {}",
            range.len, range.offset, range.reason
        );
    }

    // A damaged checkpoint has no record sequence to salvage from: it is
    // detectable but not repairable.
    let repairable = store != Store::Pufchk;
    let repaired = if repair && repairable {
        let out = out.expect("--repair requires --out");
        let format = out_format.unwrap_or(match store {
            Store::Json => RecordFormat::Json,
            _ => RecordFormat::Binary,
        });
        let declared_bits = match store {
            Store::Pufrec => fsck::repair_header(&bytes).declared_bits,
            _ => 0,
        };
        let mut sink = FormatSink::create(out, format, declared_bits).unwrap_or_else(|e| {
            eprintln!("cannot create {out}: {e}");
            exit(1);
        });
        for record in &kept {
            if let Err(e) = sink.record(record) {
                eprintln!("writing {out} failed: {e}");
                exit(1);
            }
        }
        if let Err(e) = sink.finish() {
            eprintln!("flush of {out} failed: {e}");
            exit(1);
        }
        eprintln!("repaired: {} record(s) salvaged into {out}", kept.len());
        true
    } else {
        false
    };

    // The journal defaults next to the repaired file; an explicit
    // `--journal` also works for a verify-only pass.
    let journal_path = journal
        .map(str::to_string)
        .or_else(|| repair.then(|| format!("{}.journal", out.unwrap_or(input))));
    if let Some(path) = journal_path {
        if let Err(e) = write_journal(&path, input, &report, repaired) {
            eprintln!("cannot write journal {path}: {e}");
            exit(1);
        }
        eprintln!("journal written to {path}");
    }

    if let Some(path) = metrics_out {
        let ins = Instruments::new();
        ins.counter("fsck.files_scanned").inc();
        ins.counter("fsck.bytes_total").add(report.bytes_total);
        ins.counter("fsck.bytes_kept").add(report.bytes_kept);
        ins.counter("fsck.bytes_dropped").add(report.bytes_dropped);
        ins.counter("fsck.frames_ok").add(report.frames_ok);
        ins.counter("fsck.ranges_dropped")
            .add(report.dropped.len() as u64);
        if repaired {
            ins.counter("fsck.repairs").inc();
        }
        if let Err(e) = metrics::write_metrics(path, &ins) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
    }

    if report.clean() {
        0
    } else if repaired {
        1
    } else {
        if repair && !repairable {
            eprintln!("checkpoints are all-or-nothing: nothing to salvage, not repaired");
        }
        4
    }
}

/// Writes the `pufsck/1` journal atomically. Every input byte is accounted
/// for: `bytes_kept + bytes_dropped == bytes_total`, with each dropped
/// range carrying its exact offset, length, and cause.
fn write_journal(
    path: &str,
    input: &str,
    report: &fsck::FsckReport,
    repaired: bool,
) -> std::io::Result<()> {
    let dropped: Vec<JsonValue> = report
        .dropped
        .iter()
        .map(|d| {
            JsonValue::Object(vec![
                ("offset".into(), JsonValue::UInt(d.offset)),
                ("len".into(), JsonValue::UInt(d.len)),
                ("reason".into(), JsonValue::String(d.reason.clone())),
            ])
        })
        .collect();
    let journal = JsonValue::Object(vec![
        ("format".into(), JsonValue::String("pufsck/1".into())),
        ("store".into(), JsonValue::String(report.format.into())),
        ("source".into(), JsonValue::String(input.into())),
        ("bytes_total".into(), JsonValue::UInt(report.bytes_total)),
        ("bytes_kept".into(), JsonValue::UInt(report.bytes_kept)),
        (
            "bytes_dropped".into(),
            JsonValue::UInt(report.bytes_dropped),
        ),
        ("frames_ok".into(), JsonValue::UInt(report.frames_ok)),
        ("header_ok".into(), JsonValue::Bool(report.header_ok)),
        ("repaired".into(), JsonValue::Bool(repaired)),
        ("dropped".into(), JsonValue::Array(dropped)),
    ]);
    let mut file = AtomicFile::create(path)?;
    writeln!(file, "{journal}")?;
    file.persist()
}
