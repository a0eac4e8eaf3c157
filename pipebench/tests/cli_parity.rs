//! Each workload's operation prints exactly what the binary it mirrors
//! prints given the same flags, on smoke-size inputs — so the in-process
//! benchmark cannot drift from what users run. Traced operations (spans on,
//! campaigns replayed through the board and bus calls) must print the same
//! as plain ones.

use pipebench::trace::Tracer;
use pipebench::workloads::{assess, campaign, keylife, repro};
use pufassess::monthly::EvaluationProtocol;
use pufbench::Scale;
use puftestbed::store::RecordFormat;
use puftestbed::CampaignConfig;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const SEEDS: [u64; 2] = [2017, 41];

/// Reads per window of the smoke rig.
const READS: u32 = 20;

fn temp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli_parity")
        .join(name);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir
}

fn stdout_of(bin: &str, args: &[String]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// The rig the `campaign` binary builds from `--boards 4 --months 2
/// --reads 20 --read-bits BITS`.
fn smoke_rig(read_bits: usize) -> CampaignConfig {
    let mut config = CampaignConfig {
        boards: 4,
        months: 2,
        reads_per_window: READS,
        read_bits,
        ..CampaignConfig::default()
    };
    config.sram_bits = config.sram_bits.max(read_bits);
    config
}

/// Records the smoke rig with the `campaign` binary.
fn record_with_cli(out: &Path, seed: u64, read_bits: usize, format: &str) {
    stdout_of(
        env!("CARGO_BIN_EXE_campaign"),
        &[
            "--out".into(),
            out.display().to_string(),
            "--format".into(),
            format.into(),
            "--boards".into(),
            "4".into(),
            "--months".into(),
            "2".into(),
            "--reads".into(),
            READS.to_string(),
            "--read-bits".into(),
            read_bits.to_string(),
            "--seed".into(),
            seed.to_string(),
            "--threads".into(),
            "2".into(),
        ],
    );
}

#[test]
fn campaign_writes_the_bytes_the_binary_writes() {
    for seed in SEEDS {
        let dir = temp_dir(&format!("campaign-{seed}"));
        let (cli, plain, traced) = (
            dir.join("cli.jsonl"),
            dir.join("plain.jsonl"),
            dir.join("traced.jsonl"),
        );
        record_with_cli(&cli, seed, 512, "json");
        let config = smoke_rig(512);
        campaign::operation(&config, seed, &plain, None).expect("campaign");
        let mut sink = pufbench::FormatSink::create(&traced, RecordFormat::Json, 512).unwrap();
        let mut tr = Tracer::on(Instant::now(), 0);
        pipebench::replay::run(&config, seed, 2, &mut sink, "write", &mut tr).expect("replay");
        sink.finish().unwrap();
        let expected = std::fs::read(&cli).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(std::fs::read(&plain).unwrap(), expected, "seed {seed}");
        assert_eq!(std::fs::read(&traced).unwrap(), expected, "seed {seed}");
    }
}

#[test]
fn assess_prints_what_the_binary_prints() {
    for seed in SEEDS {
        let dir = temp_dir(&format!("assess-{seed}"));
        let input = dir.join("records.jsonl");
        record_with_cli(&input, seed, 512, "json");
        let cli = stdout_of(
            env!("CARGO_BIN_EXE_assess"),
            &[
                "--in".into(),
                input.display().to_string(),
                "--reads".into(),
                READS.to_string(),
                "--threads".into(),
                "2".into(),
            ],
        );
        let protocol = EvaluationProtocol {
            reads_per_window: READS,
            ..EvaluationProtocol::default()
        };
        let plain = assess::operation(&input, protocol, &mut Tracer::off()).expect("assess");
        let mut tr = Tracer::on(Instant::now(), 0);
        let traced = assess::operation(&input, protocol, &mut tr).expect("assess");
        assert!(cli.contains("=== Table I ==="));
        assert_eq!(plain.text, cli, "seed {seed}");
        assert_eq!(traced.text, cli, "seed {seed}");
        assert_eq!((plain.malformed, plain.skipped), (0, 0));
    }
}

#[test]
fn keylife_prints_what_the_binary_prints() {
    for seed in SEEDS {
        let dir = temp_dir(&format!("keylife-{seed}"));
        let input = dir.join("records.pufrec");
        record_with_cli(&input, seed, 8192, "binary");
        let cli = stdout_of(
            env!("CARGO_BIN_EXE_keylife"),
            &[
                "--in".into(),
                input.display().to_string(),
                "--reads".into(),
                READS.to_string(),
                "--profiles".into(),
                keylife::PROFILES.into(),
                "--seed".into(),
                seed.to_string(),
                "--threads".into(),
                "2".into(),
            ],
        );
        let config = keylife::keylife_config(READS, keylife::PROFILES, seed);
        let plain = keylife::operation(&input, &config, &mut Tracer::off()).expect("keylife");
        let mut tr = Tracer::on(Instant::now(), 0);
        let traced = keylife::operation(&input, &config, &mut tr).expect("keylife");
        assert!(cli.contains("profile polar-512-128"));
        assert_eq!(plain.text, cli, "seed {seed}");
        assert_eq!(traced.text, cli, "seed {seed}");
        assert!(plain.life.reconstructions > 0);
    }
}

#[test]
fn repro_prints_what_the_binary_prints() {
    let seed = SEEDS[1];
    let cli = stdout_of(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "--scale",
            "smoke",
            "--accel",
            "--fig5",
            "--fig6",
            "--table1",
            "--keylife",
            "--seed",
            &seed.to_string(),
            "--threads",
            "2",
        ]
        .map(String::from),
    );
    let plain = repro::operation(Scale::Smoke, seed, &mut Tracer::off(), None).expect("repro");
    let mut tr = Tracer::on(Instant::now(), 0);
    let traced = repro::operation(Scale::Smoke, seed, &mut tr, None).expect("repro");
    assert!(cli.contains("=== key-lifetime workload"));
    assert_eq!(plain.text, cli);
    assert_eq!(traced.text, cli);
    repro::claims_hold(&plain).expect("the paper's claims hold at smoke scale");
}
