//! `bench-perf/1`: fixed-seed kernel and end-to-end performance suites.
//!
//! Each kernel suite times a word-parallel kernel from [`pufbits::kernel`]
//! against its per-bit scalar oracle (`pufbits::kernel::scalar`) on the same
//! fixed-seed data, except `power_up`, which times the campaign engine's
//! batched power-up kernel against the per-cell `SramArray::power_up`
//! reference, `normal_cdf`, which times the rational `erfc` kernel under
//! `Phi` against its incomplete-gamma oracle, and `json_encode`, which times
//! the record writer's word-wise hex against per-byte formatting. The
//! end-to-end suite times the production decode + fold pipeline
//! (canonical-layout JSON scanner, block-transpose counters, popcount
//! Hamming kernels) against the reference pipeline (tree-parsing decoder,
//! per-set-bit counter, per-bit distance scans) over the same record
//! stream. Results render as a
//! `bench-perf/1` JSON document; the repository commits one as
//! `BENCH_kernels.json` and CI fails when any suite's speedup ratio
//! collapses by more than 2× against it.
//!
//! Timings are best-of-N wall-clock (`Instant`), which is stable enough for
//! a ratio check with a deliberately loose threshold; the committed
//! absolute nanoseconds are machine-specific and only the ratios travel.

use pufassess::streaming::WindowAccumulator;
use pufassess::Assessment;
use pufbits::{kernel, BitVec, BlockCounter, OnesCounter, PufRng};
use pufstats::special;
use puftestbed::store::{RecordFormat, RecordWriter};
use puftestbed::{BoardId, Campaign, Record, Timestamp};
use rand::SeedableRng;
use sramcell::{Environment, PowerUpKernel, SramArray, TechnologyProfile};
use std::time::Instant;

/// One suite's timings: the kernel and its scalar reference on identical
/// inputs, in nanoseconds (best of the profile's iterations).
#[derive(Debug, Clone)]
pub struct SuiteTiming {
    /// Suite name, e.g. `"pairwise_distance"`.
    pub name: &'static str,
    /// Work items processed per run (pairs, bits, records — per the suite).
    pub items: u64,
    /// Reference (scalar) time in nanoseconds.
    pub scalar_ns: u64,
    /// Kernel time in nanoseconds.
    pub kernel_ns: u64,
}

impl SuiteTiming {
    /// Scalar time over kernel time — how many times faster the kernel is.
    pub fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.kernel_ns as f64
    }
}

/// The full report: kernel microsuites plus the end-to-end pipeline suite.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The fixed seed every suite derives its data from.
    pub seed: u64,
    /// Profile name (`"quick"`).
    pub profile: &'static str,
    /// Kernel microsuites.
    pub kernels: Vec<SuiteTiming>,
    /// End-to-end pipeline suites.
    pub end_to_end: Vec<SuiteTiming>,
}

/// Best-of-`iters` wall-clock nanoseconds for `f`, with the result fed to
/// a black box so the optimizer cannot drop the work.
fn time_best_of<R>(iters: u32, mut f: impl FnMut() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best.max(1)
}

/// Deterministic word stream (xorshift64*), tail-masked to `len` bits.
fn masked_stream(len: usize, mut seed: u64) -> Vec<u64> {
    seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut words: Vec<u64> = (0..len.div_ceil(64))
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
        })
        .collect();
    if let Some(last) = words.last_mut() {
        *last &= kernel::tail_mask(len);
    }
    words
}

/// Runs every suite in the quick profile (sub-second in release mode) and
/// returns the report. All data is derived from `seed`; two runs with the
/// same seed time identical work.
pub fn run_quick(seed: u64) -> PerfReport {
    const ITERS: u32 = 5;
    let mut kernels = Vec::new();

    // Pairwise Hamming distance: the uniqueness/BCHD hot loop. 48 rows of
    // 4096 bits → 1128 pairs per run.
    {
        const ROWS: usize = 48;
        const WIDTH: usize = 4096;
        let rows: Vec<Vec<u64>> = (0..ROWS)
            .map(|r| masked_stream(WIDTH, seed.wrapping_add(r as u64)))
            .collect();
        let pairs = (ROWS * (ROWS - 1) / 2) as u64;
        let kernel_ns = time_best_of(ITERS, || {
            let mut acc = 0u64;
            for i in 0..ROWS {
                for j in (i + 1)..ROWS {
                    acc += kernel::hamming_distance(&rows[i], &rows[j]);
                }
            }
            acc
        });
        let scalar_ns = time_best_of(ITERS, || {
            let mut acc = 0u64;
            for i in 0..ROWS {
                for j in (i + 1)..ROWS {
                    acc += kernel::scalar::hamming_distance(&rows[i], &rows[j], WIDTH);
                }
            }
            acc
        });
        kernels.push(SuiteTiming {
            name: "pairwise_distance",
            items: pairs,
            scalar_ns,
            kernel_ns,
        });
    }

    // Whole-stream popcount fold (FHW, bias).
    {
        const LEN: usize = 1 << 20;
        let words = masked_stream(LEN, seed ^ 0x01);
        let kernel_ns = time_best_of(ITERS, || kernel::ones(&words));
        let scalar_ns = time_best_of(ITERS, || kernel::scalar::ones(&words, LEN));
        kernels.push(SuiteTiming {
            name: "ones_fold",
            items: LEN as u64,
            scalar_ns,
            kernel_ns,
        });
    }

    // Per-cell one-count accumulation: BlockCounter's 64-row transpose vs
    // the per-set-bit counter. 256 rows of 4096 bits.
    {
        const ROWS: usize = 256;
        const WIDTH: usize = 4096;
        let readouts: Vec<BitVec> = (0..ROWS)
            .map(|r| {
                BitVec::from_words(
                    masked_stream(WIDTH, seed.wrapping_add(1000 + r as u64)),
                    WIDTH,
                )
            })
            .collect();
        let kernel_ns = time_best_of(ITERS, || {
            let mut c = BlockCounter::new(WIDTH);
            for r in &readouts {
                c.add(r).unwrap();
            }
            c.into_counter()
        });
        let scalar_ns = time_best_of(ITERS, || {
            let mut c = OnesCounter::new(WIDTH);
            for r in &readouts {
                c.add(r).unwrap();
            }
            c
        });
        kernels.push(SuiteTiming {
            name: "ones_counter_block",
            items: (ROWS * WIDTH) as u64,
            scalar_ns,
            kernel_ns,
        });
    }

    // Masked selection (TRNG noise-cell extraction, debias replay).
    {
        const LEN: usize = 1 << 20;
        let data = masked_stream(LEN, seed ^ 0x02);
        let mask = masked_stream(LEN, seed ^ 0x03);
        let mut out = Vec::new();
        let kernel_ns = time_best_of(ITERS, || kernel::select(&data, &mask, LEN, &mut out));
        let scalar_ns = time_best_of(ITERS, || {
            kernel::scalar::select(&data, &mask, LEN, &mut out)
        });
        kernels.push(SuiteTiming {
            name: "select",
            items: LEN as u64,
            scalar_ns,
            kernel_ns,
        });
    }

    // Von-Neumann pair selection (debias enrollment).
    {
        const LEN: usize = 1 << 20;
        let words = masked_stream(LEN, seed ^ 0x04);
        let (mut m, mut b) = (Vec::new(), Vec::new());
        let kernel_ns = time_best_of(ITERS, || kernel::pair_select(&words, LEN, &mut m, &mut b));
        let scalar_ns = time_best_of(ITERS, || {
            kernel::scalar::pair_select(&words, LEN, &mut m, &mut b)
        });
        kernels.push(SuiteTiming {
            name: "pair_select",
            items: LEN as u64,
            scalar_ns,
            kernel_ns,
        });
    }

    // Transition count (SP800-22 runs) and Markov contingency table.
    {
        const LEN: usize = 1 << 20;
        let words = masked_stream(LEN, seed ^ 0x05);
        let kernel_ns = time_best_of(ITERS, || kernel::transitions(&words, LEN));
        let scalar_ns = time_best_of(ITERS, || kernel::scalar::transitions(&words, LEN));
        kernels.push(SuiteTiming {
            name: "transitions",
            items: LEN as u64,
            scalar_ns,
            kernel_ns,
        });
        let kernel_ns = time_best_of(ITERS, || kernel::pair_counts(&words, LEN));
        let scalar_ns = time_best_of(ITERS, || kernel::scalar::pair_counts(&words, LEN));
        kernels.push(SuiteTiming {
            name: "pair_counts",
            items: LEN as u64,
            scalar_ns,
            kernel_ns,
        });
    }

    // Overlapping cyclic window counts (serial / approximate entropy).
    {
        const LEN: usize = 1 << 18;
        const M: usize = 3;
        let words = masked_stream(LEN, seed ^ 0x06);
        let kernel_ns = time_best_of(ITERS, || kernel::window_counts(&words, LEN, M));
        let scalar_ns = time_best_of(ITERS, || kernel::scalar::window_counts(&words, LEN, M));
        kernels.push(SuiteTiming {
            name: "window_counts_m3",
            items: LEN as u64,
            scalar_ns,
            kernel_ns,
        });
    }

    kernels.push(power_up(seed, ITERS));
    kernels.push(normal_cdf(ITERS));
    kernels.push(json_encode(seed, ITERS));

    // End-to-end: decode + streaming assessment over a smoke-scale
    // campaign rendered to canonical JSON lines.
    let end_to_end = vec![end_to_end_assess(seed, ITERS)];

    PerfReport {
        seed,
        profile: "quick",
        kernels,
        end_to_end,
    }
}

/// The `power_up` suite: 64 read-outs of the paper's 8 192-bit ATmega32u4
/// array through the campaign engine's [`PowerUpKernel`] (a cached mask of
/// the always-1 cells and one raw RNG word per cell that can read either
/// way, word packing) against the per-cell [`SramArray::power_up`]
/// reference, one polar Box–Muller normal per cell. The kernel's cache is
/// warm, as it is for every read of a measurement window after the first.
fn power_up(seed: u64, iters: u32) -> SuiteTiming {
    const READS: u64 = 64;
    let profile = TechnologyProfile::atmega32u4();
    let env = Environment::nominal(&profile);
    let mut rng = PufRng::seed_from_u64(seed);
    let sram = SramArray::generate(&profile, 8192, &mut rng);
    let mut kernel = PowerUpKernel::new();
    kernel.power_up(&sram, &env, &mut rng);
    let kernel_ns = time_best_of(iters, || {
        for _ in 0..READS {
            std::hint::black_box(kernel.power_up(&sram, &env, &mut rng));
        }
    });
    let scalar_ns = time_best_of(iters, || {
        for _ in 0..READS {
            std::hint::black_box(sram.power_up(&env, &mut rng));
        }
    });
    SuiteTiming {
        name: "power_up",
        items: READS,
        scalar_ns,
        kernel_ns,
    }
}

/// The `normal_cdf` suite: [`special::erfc`] at `Phi`'s argument `−m/√2`
/// against the [`special::erfc_via_gamma`] oracle, over the 4 001-node grid
/// of `m ∈ μ ± 8σ` for the paper's ATmega32u4 population.
fn normal_cdf(iters: u32) -> SuiteTiming {
    const STEPS: usize = 4000;
    let population = TechnologyProfile::atmega32u4().population;
    let args: Vec<f64> = (0..=STEPS)
        .map(|i| {
            let z = -8.0 + i as f64 * 16.0 / STEPS as f64;
            -(population.mu + population.sigma * z) / std::f64::consts::SQRT_2
        })
        .collect();
    let kernel_ns = time_best_of(iters, || {
        args.iter().map(|&x| special::erfc(x)).sum::<f64>()
    });
    let scalar_ns = time_best_of(iters, || {
        args.iter()
            .map(|&x| special::erfc_via_gamma(x))
            .sum::<f64>()
    });
    SuiteTiming {
        name: "normal_cdf",
        items: args.len() as u64,
        scalar_ns,
        kernel_ns,
    }
}

/// The `json_encode` suite: 64 JSON lines of paper-width (8 192-bit)
/// records through [`Record::write_json_line`], whose `data` field is the
/// read-out's word-wise hex, against a per-byte reference that writes each
/// of [`BitVec::bytes`] with `{:02x}`. Both must render the same bytes.
fn json_encode(seed: u64, iters: u32) -> SuiteTiming {
    use std::fmt::Write as _;

    const RECORDS: u64 = 64;
    let records: Vec<Record> = (0..RECORDS)
        .map(|seq| {
            let data = masked_stream(8192, seed.wrapping_add(seq));
            Record::new(
                BoardId((seq % 16) as u8),
                seq,
                Timestamp(1_486_512_000 + seq as i64),
                BitVec::from_words(data, 8192),
            )
        })
        .collect();
    let encode = |out: &mut Vec<u8>, scratch: &mut String| {
        out.clear();
        for r in &records {
            r.write_json_line(out, scratch)
                .expect("writing to a Vec cannot fail");
        }
    };
    let reference = |out: &mut String| -> std::fmt::Result {
        out.clear();
        for r in &records {
            write!(
                out,
                r#"{{"device":{},"seq":{},"timestamp":{},"bits":{},"data":""#,
                r.device.0,
                r.seq,
                r.timestamp.0,
                r.data.len()
            )?;
            for b in r.data.bytes() {
                write!(out, "{b:02x}")?;
            }
            out.push_str("\"}\n");
        }
        Ok(())
    };
    let (mut lines, mut scratch, mut text) = (Vec::new(), String::new(), String::new());
    encode(&mut lines, &mut scratch);
    reference(&mut text).expect("writing to a String cannot fail");
    assert_eq!(lines, text.as_bytes(), "json_encode: the encoders disagree");

    let kernel_ns = time_best_of(iters, || encode(&mut lines, &mut scratch));
    let scalar_ns = time_best_of(iters, || reference(&mut text));
    SuiteTiming {
        name: "json_encode",
        items: RECORDS,
        scalar_ns,
        kernel_ns,
    }
}

/// The end-to-end suite: records/sec through decode + fold.
///
/// * **kernel path** — the production pipeline: canonical-scanner decode
///   ([`Record::parse_json_line`]) into the real [`WindowAccumulator`]
///   (block-transpose counters, popcount WCHD/FHW).
/// * **scalar path** — the pre-kernel shape: tree-parsing decode
///   ([`Record::parse_json_line_tree`]) into a fold that does the same
///   per-record work with the per-bit oracles (per-set-bit counter add,
///   per-bit Hamming distance and weight).
fn end_to_end_assess(seed: u64, iters: u32) -> SuiteTiming {
    let scale = crate::Scale::Smoke;
    let mut sink = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).expect("vec sink");
    Campaign::new(scale.campaign_config(), seed)
        .run(&mut sink)
        .expect("in-memory campaign cannot fail");
    let records = sink.written();
    let bytes = sink.into_inner().expect("vec sink");
    let lines: Vec<String> = String::from_utf8(bytes)
        .expect("json lines are utf-8")
        .lines()
        .map(str::to_owned)
        .collect();
    let protocol = scale.protocol();

    let kernel_ns = time_best_of(iters, || {
        let mut acc = WindowAccumulator::new(protocol);
        for line in &lines {
            let record = Record::parse_json_line(line).expect("canonical line");
            acc.push(&record);
        }
        let assessment: Assessment = acc.finish().expect("smoke campaign assesses");
        assessment
    });

    let scalar_ns = time_best_of(iters, || {
        // Reference fold: same per-record statistics, per-bit.
        let mut counters: std::collections::BTreeMap<u8, OnesCounter> = Default::default();
        let mut firsts: std::collections::BTreeMap<u8, BitVec> = Default::default();
        let mut wchd_sum = 0.0f64;
        let mut fhw_sum = 0.0f64;
        for line in &lines {
            let record = Record::parse_json_line_tree(line).expect("valid line");
            let width = record.data.len();
            let reference = firsts
                .entry(record.device.0)
                .or_insert_with(|| record.data.clone());
            let hd = kernel::scalar::hamming_distance(
                record.data.as_words(),
                reference.as_words(),
                width,
            );
            wchd_sum += hd as f64 / width as f64;
            fhw_sum += kernel::scalar::ones(record.data.as_words(), width) as f64 / width as f64;
            counters
                .entry(record.device.0)
                .or_insert_with(|| OnesCounter::new(width))
                .add(&record.data)
                .expect("constant width");
        }
        (wchd_sum, fhw_sum, counters.len())
    });

    SuiteTiming {
        name: "streaming_assess",
        items: records,
        scalar_ns,
        kernel_ns,
    }
}

/// Renders a report as a `bench-perf/1` JSON document (newline-terminated;
/// validates under `python3 -m json.tool`).
pub fn perf_report_json(report: &PerfReport) -> String {
    fn suites(list: &[SuiteTiming]) -> String {
        list.iter()
            .map(|s| {
                format!(
                    "    {{\"name\": \"{}\", \"items\": {}, \"scalar_ns\": {}, \
                     \"kernel_ns\": {}, \"speedup\": {:.3}}}",
                    s.name,
                    s.items,
                    s.scalar_ns,
                    s.kernel_ns,
                    s.speedup()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    }
    format!(
        "{{\n  \"schema\": \"bench-perf/1\",\n  \"profile\": \"{}\",\n  \"seed\": {},\n  \
         \"kernels\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ]\n}}\n",
        report.profile,
        report.seed,
        suites(&report.kernels),
        suites(&report.end_to_end),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_reports_every_suite_and_valid_json() {
        let report = run_quick(4242);
        let names: Vec<&str> = report.kernels.iter().map(|s| s.name).collect();
        for expected in [
            "pairwise_distance",
            "ones_fold",
            "ones_counter_block",
            "select",
            "pair_select",
            "transitions",
            "pair_counts",
            "window_counts_m3",
            "power_up",
            "normal_cdf",
            "json_encode",
        ] {
            assert!(names.contains(&expected), "missing suite {expected}");
        }
        assert_eq!(report.end_to_end.len(), 1);
        assert_eq!(report.end_to_end[0].name, "streaming_assess");
        assert!(report.end_to_end[0].items > 0);

        let json = perf_report_json(&report);
        assert!(json.contains("\"schema\": \"bench-perf/1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  ]"), "{json}");
        for s in report.kernels.iter().chain(&report.end_to_end) {
            assert!(s.scalar_ns > 0 && s.kernel_ns > 0, "{}", s.name);
            assert!(s.speedup().is_finite());
        }
    }
}
