//! `keylife`: key-lifetime replay at the paper's key size — the `keylife
//! --in FILE --reads 100 --profiles golay-r5@128,polar-512-128@128 --seed
//! SEED --threads 2` path over the paper rig's months 0–6 at 100 reads per
//! window, recorded as `pufrec/1` (11 200 records, 19 200
//! reconstructions).
//!
//! Same shape as `assess` (reader → fold), with a heavy fold in place of a
//! light one and the binary decoder in place of JSON. Set-up records the
//! campaign through a `TeeSink` into the file and a `KeyLifeAccumulator`,
//! whose table is the reference.

use super::{Checked, Counts, Extras, Workload, THREADS};
use crate::layers;
use crate::measure::Digest;
use crate::replay;
use crate::trace::{self, Tracer};
use pufassess::monthly::EvaluationProtocol;
use pufassess::{KeyLife, KeyLifeAccumulator, KeyLifeConfig, KeyProfile};
use pufbits::PufRng;
use pufkeygen::{Enrollment, KeyGenerator};
use puftestbed::store::RecordFormat;
use puftestbed::{BoardId, CampaignConfig, Record};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

/// The `--profiles` list: the paper's 128-bit key under both codes.
pub const PROFILES: &str = "golay-r5@128,polar-512-128@128";

/// Reads per window of the recorded rig.
pub const READS: u32 = 100;

/// The workload's rig: the paper's, months 0–6 at [`READS`] reads per
/// window.
pub fn config() -> CampaignConfig {
    CampaignConfig {
        months: 6,
        reads_per_window: READS,
        ..CampaignConfig::default()
    }
}

/// Parses a `--profiles` list the way the `keylife` binary does:
/// comma-separated spec tokens, each with an optional `@BITS` secret
/// length (else 128).
///
/// # Errors
///
/// Returns the message the binary prints for an invalid list.
pub fn parse_profiles(list: &str) -> Result<Vec<KeyProfile>, String> {
    let profiles: Vec<KeyProfile> = list
        .split(',')
        .filter(|token| !token.is_empty())
        .map(|token| {
            let (spec, bits) = match token.split_once('@') {
                Some((spec, bits)) => (
                    spec,
                    bits.parse::<usize>()
                        .map_err(|_| format!("invalid secret length in profile `{token}`"))?,
                ),
                None => (token, 128),
            };
            KeyProfile::parse(spec, bits).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    if profiles.is_empty() {
        return Err("--profiles needs at least one profile".to_string());
    }
    Ok(profiles)
}

/// The key-lifetime configuration of `--reads reads --profiles profiles
/// --seed seed`.
///
/// # Panics
///
/// Panics on an invalid profile list.
pub fn keylife_config(reads: u32, profiles: &str, seed: u64) -> KeyLifeConfig {
    KeyLifeConfig {
        protocol: EvaluationProtocol {
            reads_per_window: reads,
            ..EvaluationProtocol::default()
        },
        profiles: parse_profiles(profiles).expect("valid profile list"),
        enroll_seed: seed,
    }
}

/// What one `keylife` operation produced.
#[derive(Debug, Clone)]
pub struct KeyLifeOutput {
    /// The text the binary prints on stdout.
    pub text: String,
    /// The merged report.
    pub life: KeyLife,
    /// Records decoded.
    pub read: u64,
}

/// The `keylife` binary's calls: parallel reader → device-sharded
/// `KeyLifeAccumulator`s on [`THREADS`] workers → `merge` → `finish` →
/// `render_table`.
///
/// # Errors
///
/// Returns an error for unreadable or corrupt input, which the binary
/// refuses with status 1, and for a failed evaluation.
pub fn operation(
    input: &Path,
    config: &KeyLifeConfig,
    tr: &mut Tracer,
) -> io::Result<KeyLifeOutput> {
    let mut reader = tr.span("puftestbed.store.open", || super::open_records(input))?;
    let shards = tr.open("keylife.shards");
    let forks: Vec<Tracer> = (1..=THREADS as u32).map(|t| tr.fork(t)).collect();
    let mut read = 0u64;
    let merged = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(THREADS);
        let mut workers = Vec::with_capacity(THREADS);
        for mut wt in forks {
            let (tx, rx) = mpsc::sync_channel::<Record>(1024);
            let mut accumulator = KeyLifeAccumulator::new(config.clone());
            senders.push(tx);
            workers.push(scope.spawn(move || {
                while let Ok(record) = wt.span("pufassess.keylife.wait", || rx.recv()) {
                    wt.span("pufassess.keylife", || accumulator.push(&record));
                }
                (accumulator, wt)
            }));
        }
        let mut refused = None;
        while let Some(item) = tr.span("puftestbed.store.read.wait", || reader.next()) {
            match item {
                Ok(record) => {
                    read += 1;
                    let shard = record.device.0 as usize % THREADS;
                    tr.span("pufassess.keylife.send.wait", || {
                        senders[shard].send(record)
                    })
                    .expect("worker outlives stream");
                }
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        drop(senders);
        let mut merged: Option<KeyLifeAccumulator> = None;
        for worker in workers {
            let (shard, wt) = worker.join().expect("keylife worker panicked");
            tr.join(wt);
            match &mut merged {
                None => merged = Some(shard),
                Some(m) => tr.span("pufassess.keylife.merge", || m.merge(shard)),
            }
        }
        match refused {
            Some(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("refusing corrupt input {}: {e}", input.display()),
            )),
            None => Ok(merged.expect("at least one shard")),
        }
    });
    tr.close(shards);
    let life = tr.span("pufassess.keylife.finish", || {
        merged?.finish().map_err(io::Error::other)
    })?;
    let text = tr.span("pufassess.render", || life.render_table());
    Ok(KeyLifeOutput { text, life, read })
}

/// Records that failed in a key-lifetime report: skipped records and
/// erasures (reads missing from enrolled device-months).
pub fn failed_records(life: &KeyLife) -> u64 {
    let erasures: u64 = life
        .profiles
        .iter()
        .flat_map(|p| p.rows.iter())
        .map(|row| row.erasures)
        .sum();
    (life.records_seen - life.records_folded) + erasures
}

/// Key-lifetime counts of a report.
pub fn count_keylife(counts: &mut Counts, life: &KeyLife) {
    counts.insert(
        "pufassess.keylife.reconstructions",
        life.reconstructions as f64,
    );
    counts.insert(
        "pufassess.keylife.failures",
        life.reconstruct_failures as f64,
    );
    counts.insert("pufassess.keylife.wrong_keys", life.wrong_keys as f64);
    counts.insert(
        "pufassess.keylife.success_ratio",
        1.0 - life.reconstruct_failures as f64 / life.reconstructions.max(1) as f64,
    );
}

/// The `keylife` workload.
#[derive(Debug)]
pub struct KeyLifeBench {
    input: PathBuf,
    config: KeyLifeConfig,
    reference: String,
    records: u64,
    /// Reconstructions, failures and wrong keys of the reference, which
    /// the keygen replay must reproduce.
    totals: (u64, u64, u64),
}

impl Workload for KeyLifeBench {
    const NAME: &'static str = "keylife";
    type Output = KeyLifeOutput;

    fn setup(seed: u64, dir: &Path, _traced_run: bool) -> io::Result<Self> {
        let input = dir.join("keylife.pufrec");
        let config = keylife_config(READS, PROFILES, seed);
        let mut accumulator = KeyLifeAccumulator::new(config.clone());
        super::record_campaign(
            &self::config(),
            seed,
            &input,
            RecordFormat::Binary,
            &mut accumulator,
        )?;
        let records = accumulator.records_seen();
        let life = accumulator
            .finish()
            .map_err(|e| io::Error::other(format!("reference evaluation failed: {e}")))?;
        Ok(Self {
            input,
            config,
            reference: life.render_table(),
            records,
            totals: (
                life.reconstructions,
                life.reconstruct_failures,
                life.wrong_keys,
            ),
        })
    }

    fn operation(&mut self, tr: &mut Tracer) -> io::Result<KeyLifeOutput> {
        operation(&self.input, &self.config, tr)
    }

    fn check(&mut self, output: KeyLifeOutput) -> Checked {
        let mut failed = failed_records(&output.life);
        if output.text != self.reference || output.read != self.records {
            eprintln!("keylife: output differs from the streamed reference");
            failed = output.read.max(self.records);
        }
        let bytes = std::fs::metadata(&self.input).map_or(0, |m| m.len());
        let mut counts = Counts::new();
        counts.insert("puftestbed.store.read.records", output.read as f64);
        counts.insert("puftestbed.store.read.bytes", bytes as f64);
        count_keylife(&mut counts, &output.life);
        Checked {
            records: output.read,
            failed,
            digest: Digest::of(&output.text),
            counts,
        }
    }

    fn expected_records(&self) -> u64 {
        self.records
    }

    fn replays(&mut self, epoch: Instant, first_op: u32, op_busy_s: f64) -> io::Result<Extras> {
        let decoded = replay::decode(&self.input, epoch, first_op)?;
        let (totals, keygen_spans) =
            keygen_replay(&decoded.records, &self.config, epoch, first_op + 1);
        let profile = trace::profile(&keygen_spans);
        let mut extras = Extras {
            replay_match: decoded.records.len() as u64 == self.records && totals == self.totals,
            spans: vec![decoded.spans, keygen_spans],
            ..Extras::default()
        };
        if !extras.replay_match {
            eprintln!(
                "keylife: replays decoded {} records (of {}) with keygen totals {totals:?} \
                 (reference: {:?})",
                decoded.records.len(),
                self.records,
                self.totals
            );
        }
        extras.metrics.insert(
            "puftestbed.store.decode.us_per_record",
            decoded.us_per_record,
        );
        let mut reconstruct_s = 0.0;
        for p in &self.config.profiles {
            let layer = profile.layer(reconstruct_span(&p.name));
            reconstruct_s += layer.self_s;
            extras.metrics.insert(
                reconstruct_metric(&p.name),
                layer.self_s * 1e6 / layer.calls.max(1) as f64,
            );
        }
        extras
            .metrics
            .insert("pufkeygen.reconstruct.busy_s", reconstruct_s);
        extras
            .metrics
            .insert("pufkeygen.reconstruct.share", reconstruct_s / op_busy_s);
        Ok(extras)
    }
}

/// The per-layer metric of profile `name`'s mean reconstruction time,
/// `pufkeygen.reconstruct.<name>.us`; without the `.us` it names the spans
/// around `KeyGenerator::reconstruct`.
///
/// # Panics
///
/// Panics for a profile without a per-layer metric.
fn reconstruct_metric(name: &str) -> &'static str {
    layers::METRICS
        .iter()
        .map(|&(metric, _)| metric)
        .find(|metric| {
            metric
                .strip_prefix("pufkeygen.reconstruct.")
                .and_then(|rest| rest.strip_suffix(".us"))
                == Some(name)
        })
        .expect("the workload's profiles have per-layer metrics")
}

/// The span name of `KeyGenerator::reconstruct` for profile `name`.
fn reconstruct_span(name: &str) -> &'static str {
    let metric = reconstruct_metric(name);
    &metric[..metric.len() - ".us".len()]
}

/// The enrollment randomness `KeyLifeAccumulator` derives for `(seed,
/// device, profile)`: two chained SplitMix64 finalisers over a salted
/// seed, feeding a counter-mode `PufRng`. Kept in step with the
/// accumulator by the replay's totals check.
fn enroll_rng(seed: u64, device: BoardId, profile: usize) -> PufRng {
    fn splitmix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut z = seed ^ 0x6B79_6C69_6665_2F31;
    z = splitmix(z.wrapping_add(u64::from(device.0)).wrapping_add(1));
    z = splitmix(z.wrapping_add(profile as u64).wrapping_add(1));
    PufRng::from_state((z, 0))
}

/// One device's replay state: its enrollment month and keys, and the reads
/// folded per month.
struct Device {
    enroll_month: (i32, u8),
    enrollments: Vec<Option<Enrollment>>,
    windows: BTreeMap<(i32, u8), (usize, u32)>,
}

/// Replays the key-lifetime fold's `pufkeygen` calls — `KeyGenerator::
/// enroll` on each device's first eligible read, `KeyGenerator::
/// reconstruct` on every later eligible read — sharded by device over
/// [`THREADS`] workers, with a span around each call. Returns the
/// reconstruction, failure and wrong-key totals (which must equal the
/// operation's) and the spans.
fn keygen_replay(
    records: &[Record],
    config: &KeyLifeConfig,
    epoch: Instant,
    op: u32,
) -> ((u64, u64, u64), Vec<trace::Span>) {
    let mut tr = Tracer::on(epoch, op);
    let root = tr.open("replay.keygen");
    let generators: Vec<KeyGenerator> = config
        .profiles
        .iter()
        .map(|p| KeyGenerator::from_spec(p.secret_bits, p.spec).expect("profile validated"))
        .collect();
    let names: Vec<&'static str> = config
        .profiles
        .iter()
        .map(|p| reconstruct_span(&p.name))
        .collect();
    let protocol = config.protocol;
    let forks: Vec<Tracer> = (1..=THREADS as u32).map(|t| tr.fork(t)).collect();
    let results: Vec<((u64, u64, u64), Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(w, mut wt)| {
                let (generators, names) = (&generators, &names);
                scope.spawn(move || {
                    let mut devices: BTreeMap<u8, Device> = BTreeMap::new();
                    let mut totals = (0u64, 0u64, 0u64);
                    let mine = records
                        .iter()
                        .filter(|r| r.device.0 as usize % THREADS == w);
                    for record in mine {
                        let date = record.timestamp.datetime().date;
                        let eval_day = protocol
                            .eval_day
                            .clamp(1, puftestbed::days_in_month(date.year, date.month));
                        if protocol.reads_per_window == 0 || date.day < eval_day {
                            continue;
                        }
                        let ym = (date.year, date.month);
                        let device = devices.entry(record.device.0).or_insert_with(|| Device {
                            enroll_month: ym,
                            enrollments: generators
                                .iter()
                                .enumerate()
                                .map(|(p, g)| {
                                    let mut rng = enroll_rng(config.enroll_seed, record.device, p);
                                    wt.span("pufkeygen.enroll", || g.enroll(&record.data, &mut rng))
                                        .ok()
                                })
                                .collect(),
                            windows: BTreeMap::new(),
                        });
                        let window = device.windows.entry(ym).or_insert((record.data.len(), 0));
                        if window.1 >= protocol.reads_per_window || record.data.len() != window.0 {
                            continue;
                        }
                        window.1 += 1;
                        if ym <= device.enroll_month {
                            continue;
                        }
                        for (p, enrollment) in device.enrollments.iter().enumerate() {
                            let Some(enrollment) = enrollment else {
                                continue;
                            };
                            totals.0 += 1;
                            let key = wt.span(names[p], || {
                                generators[p].reconstruct(&record.data, &enrollment.helper)
                            });
                            match key {
                                Ok(key) if key == enrollment.key => {}
                                Ok(_) => {
                                    totals.1 += 1;
                                    totals.2 += 1;
                                }
                                Err(_) => totals.1 += 1,
                            }
                        }
                    }
                    (totals, wt)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("keygen replay worker panicked"))
            .collect()
    });
    let mut totals = (0, 0, 0);
    for (t, wt) in results {
        tr.join(wt);
        totals = (totals.0 + t.0, totals.1 + t.1, totals.2 + t.2);
    }
    tr.close(root);
    (totals, tr.into_spans())
}
