//! Shared scenarios and plumbing for the CLI binaries.
//!
//! The `repro` binary regenerates the paper's tables and figures from the
//! scenarios here; `campaign`, `assess`, `keylife`, `convert` and
//! `supervise` share its record-file sink, record-file input, campaign
//! start and resume salvage, metrics and, with `benchperf`, flag parsing
//! ([`cli`]). Performance is measured in
//! two places: [`perf`] (the `benchperf` binary) times each hot kernel
//! against its reference, and the `pipebench` package (`BENCHMARK.json`)
//! times the whole pipeline end to end, layer by layer. Scales:
//!
//! * [`Scale::Smoke`] — seconds; CI-sized sanity run.
//! * [`Scale::Small`] — tens of seconds; trends clearly visible.
//! * [`Scale::Paper`] — the full 16-board × 25-month × 1 000-read protocol
//!   (minutes in release mode; the read-out count per window is the paper's).

use pufassess::monthly::EvaluationProtocol;
use pufassess::streaming::WindowAccumulator;
use pufassess::{Assessment, KeyLife, KeyLifeAccumulator, KeyLifeConfig, KeyProfile};
use pufobs::Instruments;
use puftestbed::store::atomic::tmp_path;
use puftestbed::store::iofault::FaultyReader;
use puftestbed::store::{
    checkpoint, AnyRecordReader, AtomicFile, IoPolicy, RecordFormat, RecordSink, RecordWriter,
};
use puftestbed::{Campaign, CampaignConfig};
use std::fs;
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// How much of the paper's scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sanity scale (4 boards, 1 KiB·¼ arrays, 50 reads, 6 months).
    Smoke,
    /// Reduced scale with clear trends (8 boards, 2 048 bits, 200 reads,
    /// 24 months).
    Small,
    /// The paper's full protocol (16 boards, 8 192-bit read-outs, 1 000
    /// reads, 24 months).
    Paper,
}

impl Scale {
    /// Parses a scale name (`smoke`, `small`, `paper`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Scale::Smoke),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The campaign configuration at this scale.
    pub fn campaign_config(&self) -> CampaignConfig {
        match self {
            Scale::Smoke => CampaignConfig {
                boards: 4,
                sram_bits: 1024,
                read_bits: 1024,
                months: 6,
                reads_per_window: 50,
                ..CampaignConfig::default()
            },
            Scale::Small => CampaignConfig {
                boards: 8,
                sram_bits: 2048,
                read_bits: 2048,
                months: 24,
                reads_per_window: 200,
                ..CampaignConfig::default()
            },
            // The paper's defaults.
            Scale::Paper => CampaignConfig::default(),
        }
    }

    /// The matching evaluation protocol.
    pub fn protocol(&self) -> EvaluationProtocol {
        EvaluationProtocol {
            reads_per_window: self.campaign_config().reads_per_window,
            ..EvaluationProtocol::default()
        }
    }

    /// ECC profiles dimensioned for this scale's read width: the secret
    /// length is chosen so the debiased response (≈23 % of the raw bits at
    /// the paper's 62.7 % bias) still covers the codeword. Paper scale
    /// carries the paper's full 128-bit secret; the reduced scales shrink
    /// the secret with the read-out, keeping enrollment feasible.
    pub fn keylife_profiles(&self) -> Vec<KeyProfile> {
        let specs: &[(&str, usize)] = match self {
            Scale::Smoke => &[("golay-r5", 12), ("polar-128-16", 16)],
            Scale::Small => &[("golay-r5", 24), ("polar-256-32", 32)],
            Scale::Paper => &[("golay-r5", 128), ("polar-512-128", 128)],
        };
        specs
            .iter()
            .map(|&(token, bits)| {
                KeyProfile::parse(token, bits).expect("built-in profiles are valid")
            })
            .collect()
    }

    /// The key-lifetime workload configuration at this scale.
    pub fn keylife_config(&self, enroll_seed: u64) -> KeyLifeConfig {
        KeyLifeConfig {
            protocol: self.protocol(),
            profiles: self.keylife_profiles(),
            enroll_seed,
        }
    }
}

/// The default worker-thread count for campaign execution: the machine's
/// available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs the campaign and the full in-memory assessment pipeline at `scale`
/// sequentially: the collected-records reference the streaming
/// [`run_assessment_streaming_with`] is checked against.
///
/// # Panics
///
/// Panics if the assessment fails (cannot happen for the built-in scales).
pub fn run_assessment(scale: Scale, seed: u64) -> Assessment {
    let records = Campaign::new(scale.campaign_config(), seed).run_in_memory();
    Assessment::from_records(&records, &scale.protocol())
        .expect("built-in scales produce assessable datasets")
}

/// Runs the campaign across `threads` workers, each folding its own boards'
/// records into its part of the streaming [`WindowAccumulator`]
/// ([`Campaign::run_sharded`]) — no dataset is materialised, so peak memory
/// is bounded by the per-window state regardless of how many records the
/// campaign emits. The result is identical to [`run_assessment`] at the
/// same scale and seed. With `instruments`, the campaign maintains
/// `campaign.*` metrics and the accumulator `assess.*` metrics; the
/// assessment is identical with or without them.
///
/// Pipebench's `repro` workload and the golden test call this; the `repro`
/// binary feeds this accumulator and the key-lifetime one from a single
/// campaign instead.
///
/// # Panics
///
/// Panics if the assessment fails (cannot happen for the built-in scales).
pub fn run_assessment_streaming_with(
    scale: Scale,
    seed: u64,
    threads: usize,
    instruments: Option<&Instruments>,
) -> Assessment {
    let mut accumulator = WindowAccumulator::new(scale.protocol());
    let mut campaign = Campaign::new(scale.campaign_config(), seed).threads(threads);
    if let Some(ins) = instruments {
        accumulator.attach_instruments(ins);
        campaign = campaign.instruments(ins);
    }
    campaign
        .run_sharded(&mut accumulator, None)
        .expect("accumulators cannot fail");
    accumulator
        .finish()
        .expect("built-in scales produce assessable datasets")
}

/// Runs the campaign at `scale` across `threads` workers, each folding its
/// own boards' records into its part of the key-lifetime workload: every
/// device enrolls a key per profile from its first eligible read and every
/// later device-month replays through reconstruction. The report is
/// identical for every thread count, and identical with or without
/// `instruments`.
///
/// Like [`run_assessment_streaming_with`], pipebench's `repro` workload
/// calls this; the `repro` binary folds keys in its one campaign pass.
///
/// # Panics
///
/// Panics if the workload fails (cannot happen for the built-in scales).
pub fn run_keylife_streaming_with(
    scale: Scale,
    seed: u64,
    threads: usize,
    enroll_seed: u64,
    instruments: Option<&Instruments>,
) -> KeyLife {
    let mut accumulator = KeyLifeAccumulator::new(scale.keylife_config(enroll_seed));
    let mut campaign = Campaign::new(scale.campaign_config(), seed).threads(threads);
    if let Some(ins) = instruments {
        accumulator.attach_instruments(ins);
        campaign = campaign.instruments(ins);
    }
    campaign
        .run_sharded(&mut accumulator, None)
        .expect("accumulators cannot fail");
    accumulator
        .finish()
        .expect("built-in scales produce evaluable datasets")
}

/// Serializes a [`KeyLife`] report plus wall-clock throughput into the
/// `bench-keylife/1` JSON document (`BENCH_keylife.json`): per-profile
/// attempt/failure/erasure totals with the worst month's observed rate and
/// analytic bound, plus the stream counters. Floats are finite by
/// construction, so the output is always valid JSON.
pub fn keylife_bench_json(life: &KeyLife, elapsed_seconds: f64) -> String {
    fn opt(value: Option<f64>) -> String {
        value.map_or_else(|| "null".to_string(), |v| v.to_string())
    }
    let throughput = if elapsed_seconds > 0.0 {
        life.records_seen as f64 / elapsed_seconds
    } else {
        0.0
    };
    let profiles: Vec<String> = life
        .profiles
        .iter()
        .map(|p| {
            let attempts: u64 = p.rows.iter().map(|r| r.attempts).sum();
            let failures: u64 = p.rows.iter().map(|r| r.failures).sum();
            let erasures: u64 = p.rows.iter().map(|r| r.erasures).sum();
            let worst_rate = p
                .rows
                .iter()
                .filter_map(|r| r.rate)
                .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))));
            let worst_bound = p
                .rows
                .iter()
                .filter_map(|r| r.bound)
                .fold(None, |acc, b| Some(acc.map_or(b, |a: f64| a.max(b))));
            format!(
                "    {{\"name\": \"{}\", \"secret_bits\": {}, \"enrolled\": {}, \
                 \"attempts\": {}, \"failures\": {}, \"erasures\": {}, \
                 \"worst_month_rate\": {}, \"worst_month_bound\": {}}}",
                p.profile.name,
                p.profile.secret_bits,
                p.enrolled,
                attempts,
                failures,
                erasures,
                opt(worst_rate),
                opt(worst_bound),
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"bench-keylife/1\",\n  \"devices\": {},\n  \"months\": {},\n  \
         \"enroll_seed\": {},\n  \"records_seen\": {},\n  \"records_folded\": {},\n  \
         \"reconstructions\": {},\n  \"reconstruct_failures\": {},\n  \"wrong_keys\": {},\n  \
         \"enroll_failures\": {},\n  \"elapsed_seconds\": {},\n  \"records_per_second\": {},\n  \
         \"profiles\": [\n{}\n  ]\n}}\n",
        life.devices,
        life.months.len(),
        life.enroll_seed,
        life.records_seen,
        life.records_folded,
        life.reconstructions,
        life.reconstruct_failures,
        life.wrong_keys,
        life.enroll_failures,
        elapsed_seconds,
        throughput,
        profiles.join(",\n"),
    )
}

/// The CLIs' record file: a [`RecordWriter`] over a 256 KiB buffer on an
/// [`AtomicFile`], published by [`finish`](RecordWriter::finish).
pub type FormatSink = RecordWriter<BufWriter<AtomicFile>>;

/// Opens the record file `input` for `assess` and `keylife`: `--resync`
/// (`resync`) reads it as damaged `pufrec/1`, `--format` (`format`) forces
/// a format, and otherwise the format is detected from its first bytes.
///
/// Exits 1 when the file cannot be opened or read. Exits 2, a usage error,
/// before any record is read when `resync` meets a forced JSON format, or
/// when a forced JSON format meets a file that starts like `pufrec/1`: the
/// JSON reader would split its frames at newline bytes and report each
/// piece as a malformed record.
pub fn open_input(
    input: &str,
    format: Option<RecordFormat>,
    resync: Option<u64>,
    threads: usize,
    batch: usize,
    instruments: Option<&Instruments>,
) -> AnyRecordReader {
    if resync.is_some() && format == Some(RecordFormat::Json) {
        eprintln!("--resync re-locks on pufrec/1 frame CRCs; it cannot apply to --format json");
        std::process::exit(2);
    }
    let cannot = |verb: &str, e: io::Error| -> ! {
        eprintln!("cannot {verb} {input}: {e}");
        std::process::exit(1);
    };
    let mut file = BufReader::new(fs::File::open(input).unwrap_or_else(|e| cannot("open", e)));
    match (resync, format) {
        // `--resync` implies binary: the file's own header may be part of
        // the damage, so format sniffing cannot be trusted to recognise it.
        (Some(budget), _) => {
            AnyRecordReader::spawn_resync(file, threads, batch, budget, instruments)
        }
        (None, Some(format)) => {
            if format == RecordFormat::Json
                && RecordFormat::detect(&mut file).unwrap_or_else(|e| cannot("read", e))
                    == RecordFormat::Binary
            {
                eprintln!(
                    "{input} holds pufrec/1 records; --format json cannot read them \
                     (drop --format or pass --format binary)"
                );
                std::process::exit(2);
            }
            AnyRecordReader::spawn(file, format, threads, batch, instruments)
        }
        (None, None) => AnyRecordReader::open(file, threads, batch, instruments)
            .unwrap_or_else(|e| cannot("read", e)),
    }
}

/// Starts the campaign of `config` and `seed`: a new one, or, with
/// `resume_from`, the one that `pufchk/1` checkpoint left off, announced on
/// stderr. Returns it with the number of records the checkpoint says are
/// already on disk (0 for a new campaign), the count
/// [`reopen_for_resume_with`] salvages.
///
/// A checkpoint that cannot be read or belongs to another campaign exits
/// the process with status 1 before any output is touched, so a refused
/// resume leaves the partial output alone.
pub fn start_campaign(
    config: CampaignConfig,
    seed: u64,
    resume_from: Option<&str>,
) -> (Campaign, u64) {
    let Some(ckpt) = resume_from else {
        return (Campaign::new(config, seed), 0);
    };
    let (campaign, state) = checkpoint::read_file(Path::new(ckpt))
        .and_then(|state| Ok((Campaign::resume(config, seed, &state)?, state)))
        .unwrap_or_else(|e| {
            eprintln!("cannot resume from {ckpt}: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "resuming at window {} with {} records already on disk",
        state.next_window, state.summary.records
    );
    (campaign, state.summary.records)
}

/// Reopens a campaign output file for a checkpoint resume.
///
/// The interrupted run left its records in `<path>.tmp` (unpersisted
/// atomic write) or, if it got as far as finishing, in `path` itself; the
/// checkpoint claims the first `expect` of them. This renames that partial
/// file to `<path>.salvage`, re-encodes exactly `expect` records from it
/// into a fresh [`FormatSink`] (the codecs are deterministic, so the
/// re-encoded prefix is byte-identical to the original), optionally teeing
/// each salvaged record into `also` (e.g. an assessment accumulator), and
/// deletes the salvage file. The returned sink is positioned exactly where
/// the checkpoint was taken.
///
/// The salvage read and the fresh sink route through the optional
/// [`IoPolicy`] (deterministic fault injection). An injected fault
/// mid-salvage is safe: the salvage file stays on disk and the next attempt
/// re-reads it from the start.
///
/// With `expect == 0` there is nothing to salvage and this is just
/// [`RecordWriter::create_with`].
///
/// # Errors
///
/// Fails if no partial output exists, if it holds fewer than `expect`
/// readable records (the checkpoint then claims data that was never made
/// durable — resuming would corrupt the stream), on any I/O error, or on
/// any injected fault.
pub fn reopen_for_resume_with(
    path: &str,
    format: RecordFormat,
    declared_bits: u32,
    expect: u64,
    mut also: Option<&mut dyn RecordSink>,
    policy: Option<IoPolicy>,
) -> io::Result<FormatSink> {
    if expect == 0 {
        return FormatSink::create_with(path, format, declared_bits, policy);
    }
    let target = Path::new(path);
    let salvage = salvage_path(target);
    if !salvage.exists() {
        let partial = [tmp_path(target), target.to_path_buf()]
            .into_iter()
            .find(|p| p.exists())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "cannot resume: checkpoint claims {expect} records but no partial \
                         output exists at {path} (or its .tmp)"
                    ),
                )
            })?;
        fs::rename(&partial, &salvage)?;
    }
    let salvage_file = fs::File::open(&salvage)?;
    let reader: Box<dyn io::Read + Send> = match policy.clone() {
        Some(p) => Box::new(FaultyReader::new(salvage_file, p, &salvage)),
        None => Box::new(salvage_file),
    };
    let reader = AnyRecordReader::open(
        BufReader::new(reader),
        1, // strictly in-order: torn bytes past the prefix must not surface early
        256,
        None,
    )?;
    let mut sink = FormatSink::create_with(path, format, declared_bits, policy)?;
    let mut recovered = 0u64;
    for item in reader {
        if recovered == expect {
            break;
        }
        let record = item.map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "cannot resume: partial output {} is unreadable at record {recovered} \
                     of the {expect} the checkpoint claims: {e}",
                    salvage.display()
                ),
            )
        })?;
        sink.record(&record)?;
        if let Some(other) = also.as_deref_mut() {
            other.record(&record)?;
        }
        recovered += 1;
    }
    if recovered < expect {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "cannot resume: partial output {} holds {recovered} records, checkpoint \
                 claims {expect}",
                salvage.display()
            ),
        ));
    }
    // Flush the re-encoded prefix to the OS *before* deleting the salvage
    // file: a crash in between must leave either the salvage (re-read on
    // the next attempt) or a `.tmp` already holding every record the
    // checkpoint claims — never neither. Without this, a kill landing
    // between the delete and the next buffered flush strands the resume.
    RecordSink::flush(&mut sink)?;
    fs::remove_file(&salvage)?;
    Ok(sink)
}

/// Where [`reopen_for_resume_with`] parks the interrupted run's partial output
/// while re-encoding it (`<target>.salvage`).
pub fn salvage_path(target: &Path) -> PathBuf {
    let mut name = target.as_os_str().to_os_string();
    name.push(".salvage");
    PathBuf::from(name)
}

/// Total power cycles a campaign at `config` will execute — the progress
/// denominator for ETA rendering.
pub fn campaign_total_cycles(config: &CampaignConfig) -> u64 {
    let windows = match config.plan {
        puftestbed::MeasurementPlan::Windowed => u64::from(config.months) + 1,
        puftestbed::MeasurementPlan::Continuous => 1,
    };
    windows * config.boards as u64 * u64::from(config.reads_per_window)
}

pub mod perf;
pub mod supervisor;

/// Shared flag parsing for the CLI binaries: a missing or malformed flag
/// value prints one line to stderr and exits with status 2, never a panic.
pub mod cli {
    use std::process::exit;
    use std::str::FromStr;

    /// The command line after the program name, walked one flag at a time.
    #[derive(Debug)]
    pub struct Args(std::vec::IntoIter<String>);

    impl Args {
        /// The process's own arguments.
        pub fn from_env() -> Self {
            Self::new(std::env::args().skip(1).collect())
        }

        /// Walks `args` (without the program name).
        pub fn new(args: Vec<String>) -> Self {
            Self(args.into_iter())
        }

        /// The value after `flag`; exits 2 if the command line ends first.
        pub fn value(&mut self, flag: &str) -> String {
            self.0.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        }

        /// The value after `flag`, parsed; exits 2 if it is missing or does
        /// not parse.
        pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
            let value = self.value(flag);
            value.parse().unwrap_or_else(|_| {
                eprintln!("invalid value `{value}` for {flag}");
                exit(2);
            })
        }

        /// [`parse`](Self::parse) for a count that must not be zero.
        pub fn positive<T: FromStr + PartialEq + From<u8>>(&mut self, flag: &str) -> T {
            let n = self.parse(flag);
            if n == T::from(0) {
                eprintln!("{flag} must be positive");
                exit(2);
            }
            n
        }
    }

    impl Iterator for Args {
        type Item = String;

        fn next(&mut self) -> Option<String> {
            self.0.next()
        }
    }
}

/// Shared `--metrics-out` / `--verbose` plumbing for the CLI binaries.
pub mod metrics {
    use pufobs::render::progress_line;
    use pufobs::{Heartbeat, Instruments, ProgressSpec};
    use puftestbed::store::RecordFormat;
    use std::time::Duration;

    /// Writes the current snapshot of `ins` to `path` as one JSON document
    /// (the `pufobs/1` schema) with a trailing newline.
    pub fn write_metrics(path: &str, ins: &Instruments) -> std::io::Result<()> {
        let mut json = ins.snapshot().to_json();
        json.push('\n');
        std::fs::write(path, json)
    }

    /// Spawns a once-per-second stderr heartbeat rendering `spec`. Keep the
    /// returned handle alive while work runs; drop (or `stop`) it before
    /// printing final output so lines do not interleave.
    pub fn spawn_heartbeat(ins: &Instruments, spec: ProgressSpec) -> Heartbeat {
        Heartbeat::spawn(ins.clone(), Duration::from_secs(1), move |snap| {
            progress_line(snap, &spec)
        })
    }

    /// The heartbeat spec for a campaign producer: power cycles against the
    /// known total, with drop/retry columns.
    pub fn campaign_spec(total_cycles: u64) -> ProgressSpec {
        ProgressSpec::new(
            "campaign",
            "campaign.power_cycles",
            "cycles",
            Some(total_cycles),
        )
        .extra("records", "campaign.records")
        .extra("dropped", "campaign.dropped")
        .extra("retries", "campaign.retries")
    }

    /// The heartbeat spec for the assessment consumer: folded records (the
    /// total is unknown when reading a file, so no ETA), with skip/malformed
    /// columns; `malformed` reads the counter of the input's `format`.
    pub fn assess_spec(format: RecordFormat) -> ProgressSpec {
        let malformed = match format {
            RecordFormat::Json => "reader.malformed_lines",
            RecordFormat::Binary => "reader.corrupt_records",
        };
        ProgressSpec::new("assess", "assess.records_seen", "rec", None)
            .extra("folded", "assess.records_folded")
            .extra("skipped", "assess.records_skipped")
            .extra("malformed", malformed)
    }

    /// The heartbeat spec for the key-lifetime consumer: records against an
    /// unknown total, with reconstruction-attempt and failure columns.
    pub fn keylife_spec() -> ProgressSpec {
        ProgressSpec::new("keylife", "keylife.records_seen", "rec", None)
            .extra("folded", "keylife.records_folded")
            .extra("reconstructions", "keylife.reconstructions")
            .extra("failures", "keylife.reconstruct_failures")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn smoke_assessment_runs_end_to_end() {
        let a = run_assessment(Scale::Smoke, 1);
        assert_eq!(a.months(), 7);
        assert_eq!(a.devices().len(), 4);
    }

    #[test]
    fn streaming_assessment_matches_in_memory() {
        let streamed = run_assessment_streaming_with(Scale::Smoke, 1, 2, None);
        let in_memory = run_assessment(Scale::Smoke, 1);
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn keylife_profiles_fit_their_scales_and_serialize_to_valid_json() {
        // Every built-in profile must enroll at its scale: the debiased
        // response has to cover the codeword, which is exactly what
        // running the workload end to end checks.
        let life = run_keylife_streaming_with(Scale::Smoke, 1, 2, 7, None);
        assert_eq!(life.devices, 4);
        assert_eq!(life.enroll_failures, 0);
        assert_eq!(life.wrong_keys, 0);

        let json = keylife_bench_json(&life, 1.5);
        assert!(json.contains("\"schema\": \"bench-keylife/1\""));
        assert!(json.contains("\"name\": \"golay-r5\""));
        assert!(json.contains("\"name\": \"polar-128-16\""));
        // No trailing commas, balanced braces — the CI job re-validates
        // with python3 -m json.tool.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(!json.contains(",\n  ]"), "{json}");
        // Small and paper profiles at least construct.
        assert_eq!(Scale::Small.keylife_profiles().len(), 2);
        assert_eq!(Scale::Paper.keylife_profiles().len(), 2);
    }

    #[test]
    fn assess_progress_counts_corrupt_pufrec_frames_as_malformed() {
        use puftestbed::{BoardId, Record, Timestamp};
        let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
        for seq in 0..3 {
            let data = pufbits::BitVec::from_bytes(&[0xA5]);
            sink.record(&Record::new(BoardId(0), seq, Timestamp(0), data))
                .unwrap();
        }
        let mut bytes = sink.into_inner().unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF; // the last frame's CRC
        let ins = Instruments::new();
        let reader = AnyRecordReader::spawn(
            std::io::Cursor::new(bytes),
            RecordFormat::Binary,
            1,
            4,
            Some(&ins),
        );
        assert_eq!(reader.filter(Result::is_err).count(), 1);
        let line = pufobs::render::progress_line(
            &ins.snapshot(),
            &metrics::assess_spec(RecordFormat::Binary),
        );
        assert!(line.contains("malformed 1"), "{line}");
    }

    #[test]
    fn paper_scale_config_matches_the_paper() {
        let c = Scale::Paper.campaign_config();
        assert_eq!(c.boards, 16);
        assert_eq!(c.read_bits, 8192);
        assert_eq!(c.reads_per_window, 1000);
        assert_eq!(c.months, 24);
    }
}
