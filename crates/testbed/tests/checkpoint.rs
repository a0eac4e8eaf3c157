//! The headline guarantee of the checkpoint layer: a campaign interrupted
//! at *any* window boundary and resumed from its checkpoint produces a
//! record stream byte-identical to the uninterrupted run — for any thread
//! count on either side of the interruption — and a resume against the
//! wrong configuration, seed, or a damaged checkpoint is refused with a
//! typed error, never silently.

use proptest::prelude::*;
use puftestbed::store::checkpoint::{self, BoardState, CampaignState, CheckpointError};
use puftestbed::{
    BoardId, Campaign, CampaignConfig, CampaignSummary, MeasurementPlan, Record, SlaveBoardState,
};

const SEED: u64 = 2020;

/// Small but fully exercised: faults on (so the bus draws from the RNG
/// streams), retries on, several windows.
fn config() -> CampaignConfig {
    CampaignConfig {
        boards: 5,
        sram_bits: 256,
        read_bits: 192,
        months: 4,
        reads_per_window: 8,
        i2c_nack_rate: 0.1,
        i2c_corruption_rate: 0.05,
        i2c_retries: 3,
        ..CampaignConfig::default()
    }
}

fn json_bytes(records: &[Record]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in records {
        bytes.extend_from_slice(r.to_json_line().as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

fn full_run(cfg: &CampaignConfig, seed: u64, threads: usize) -> (Vec<Record>, CampaignSummary) {
    let mut campaign = Campaign::new(cfg.clone(), seed).threads(threads);
    let mut records = Vec::new();
    let summary = campaign.run(&mut records).expect("a Vec sink cannot fail");
    (records, summary)
}

/// Runs `halt` windows, checkpoints through a full encode/decode cycle,
/// resumes, and finishes; returns head + tail records and the final
/// summary.
fn interrupted_run(
    cfg: &CampaignConfig,
    seed: u64,
    halt: u32,
    threads_before: usize,
    threads_after: usize,
) -> (Vec<Record>, CampaignSummary) {
    let mut first = Campaign::new(cfg.clone(), seed)
        .threads(threads_before)
        .halt_after_windows(halt);
    let mut head = Vec::new();
    first.run(&mut head).expect("a Vec sink cannot fail");
    assert!(!first.completed(), "halt must leave work remaining");
    // Round-trip the state through the wire format, as a real resume does.
    let state = checkpoint::decode(&checkpoint::encode(&first.export_state()))
        .expect("fresh checkpoint decodes");
    let mut second = Campaign::resume(cfg.clone(), seed, &state)
        .expect("matching config resumes")
        .threads(threads_after);
    let mut tail = Vec::new();
    let summary = second.run(&mut tail).expect("a Vec sink cannot fail");
    assert!(second.completed());
    let mut records = head;
    records.extend(tail);
    (records, summary)
}

#[test]
fn resume_at_every_boundary_is_byte_identical_for_any_threads() {
    let cfg = config();
    let (reference, ref_summary) = full_run(&cfg, SEED, 1);
    let reference_bytes = json_bytes(&reference);
    for halt in 1..=cfg.months {
        for &(before, after) in &[(1, 3), (3, 8), (8, 1)] {
            let (records, summary) = interrupted_run(&cfg, SEED, halt, before, after);
            assert_eq!(
                json_bytes(&records),
                reference_bytes,
                "halt after {halt} windows, threads {before}→{after}"
            );
            assert_eq!(summary, ref_summary);
        }
    }
}

#[test]
fn resumed_campaign_reexports_the_same_state() {
    let cfg = config();
    let mut first = Campaign::new(cfg.clone(), SEED).halt_after_windows(2);
    let mut sink = Vec::new();
    first.run(&mut sink).unwrap();
    let state = first.export_state();
    let resumed = Campaign::resume(cfg, SEED, &state).unwrap();
    assert_eq!(resumed.export_state(), state);
    assert_eq!(resumed.summary_so_far(), state.summary);
}

#[test]
fn continuous_plan_checkpoint_round_trips_too() {
    let cfg = CampaignConfig {
        plan: MeasurementPlan::Continuous,
        months: 0,
        reads_per_window: 12,
        i2c_nack_rate: 0.0,
        i2c_corruption_rate: 0.0,
        ..config()
    };
    let mut campaign = Campaign::new(cfg.clone(), SEED);
    let mut sink = Vec::new();
    campaign.run(&mut sink).unwrap();
    assert!(campaign.completed());
    let state = checkpoint::decode(&checkpoint::encode(&campaign.export_state())).unwrap();
    // Resuming a completed continuous campaign runs nothing further.
    let mut resumed = Campaign::resume(cfg, SEED, &state).unwrap();
    let mut tail = Vec::new();
    let summary = resumed.run(&mut tail).unwrap();
    assert_eq!(tail.len(), 0);
    assert_eq!(summary, state.summary);
}

#[test]
fn wrong_seed_is_refused_with_a_config_mismatch() {
    let cfg = config();
    let mut campaign = Campaign::new(cfg.clone(), SEED).halt_after_windows(1);
    campaign.run(&mut Vec::new()).unwrap();
    let state = campaign.export_state();
    let err = Campaign::resume(cfg, SEED + 1, &state).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn changed_config_is_refused_with_a_config_mismatch() {
    let cfg = config();
    let mut campaign = Campaign::new(cfg.clone(), SEED).halt_after_windows(1);
    campaign.run(&mut Vec::new()).unwrap();
    let state = campaign.export_state();
    let changed = CampaignConfig {
        i2c_nack_rate: cfg.i2c_nack_rate + 0.01,
        ..cfg
    };
    let err = Campaign::resume(changed, SEED, &state).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn internally_inconsistent_state_is_refused() {
    let cfg = config();
    let mut campaign = Campaign::new(cfg.clone(), SEED).halt_after_windows(1);
    campaign.run(&mut Vec::new()).unwrap();
    let good = campaign.export_state();

    // A state passing the hash but carrying the wrong board count.
    let mut short = good.clone();
    short.boards.pop();
    assert!(matches!(
        Campaign::resume(cfg.clone(), SEED, &short),
        Err(CheckpointError::StateMismatch(_))
    ));

    // A window index beyond the campaign's end.
    let mut overrun = good.clone();
    overrun.next_window = cfg.months + 2;
    assert!(matches!(
        Campaign::resume(cfg.clone(), SEED, &overrun),
        Err(CheckpointError::StateMismatch(_))
    ));

    // Swapped board ids.
    let mut swapped = good;
    swapped.boards.swap(0, 1);
    assert!(matches!(
        Campaign::resume(cfg, SEED, &swapped),
        Err(CheckpointError::StateMismatch(_))
    ));
}

#[test]
fn damaged_checkpoint_file_never_resumes_silently() {
    let cfg = config();
    let mut campaign = Campaign::new(cfg, SEED).halt_after_windows(1);
    campaign.run(&mut Vec::new()).unwrap();
    let state = campaign.export_state();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("pufchk_damaged_{}.pufchk", std::process::id()));
    checkpoint::write_file(&path, &state).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Corrupt one byte in the middle of the body.
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() / 2] ^= 0x20;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(
        matches!(
            checkpoint::read_file(&path),
            Err(CheckpointError::Corrupt(_))
        ),
        "corruption must be detected"
    );

    // Truncate, as a crash mid-write on a non-atomic filesystem would.
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    assert!(matches!(
        checkpoint::read_file(&path),
        Err(CheckpointError::Corrupt(_))
    ));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_files_appear_at_the_configured_cadence() {
    let cfg = config();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("pufchk_cadence_{}.pufchk", std::process::id()));
    let ins = pufobs::Instruments::new();
    let mut campaign = Campaign::new(cfg.clone(), SEED)
        .instruments(&ins)
        .checkpoints(2, &path);
    let mut sink = Vec::new();
    campaign.run(&mut sink).unwrap();
    // 5 windows at a cadence of 2 → checkpoints after windows 2, 4, and at
    // completion.
    let snap = ins.snapshot();
    assert_eq!(snap.counter("checkpoint.writes"), 3);
    assert!(snap.counter("checkpoint.bytes_written") > 0);
    let final_state = checkpoint::read_file(&path).unwrap();
    assert_eq!(final_state.next_window, cfg.months + 1);
    assert_eq!(final_state, campaign.export_state());
    std::fs::remove_file(&path).unwrap();
}

fn arb_state() -> impl Strategy<Value = CampaignState> {
    let cell = -8.0f64..8.0;
    let board = (
        0u64..1 << 40,
        (any::<u64>(), any::<u64>()),
        (0u64..1 << 40, 0u64..1 << 20, 0u64..1 << 50),
        0.0f64..30.0,
        proptest::collection::vec((cell.clone(), cell), 1..24),
    );
    (
        any::<u64>(),
        any::<u64>(),
        -(1i64 << 40)..1 << 40,
        0u32..1000,
        (0u32..1000, 0u64..1 << 40, 0u64..1 << 20, 0u64..1 << 20),
        proptest::collection::vec(board, 1..6),
    )
        .prop_map(
            |(config_hash, seed, sim_clock, next_window, s, boards)| CampaignState {
                config_hash,
                seed,
                sim_clock,
                next_window,
                summary: CampaignSummary {
                    windows: s.0,
                    records: s.1,
                    dropped: s.2,
                    retries: s.3,
                },
                boards: boards
                    .into_iter()
                    .enumerate()
                    .map(|(i, (cycles, rng, bus, age, cells))| BoardState {
                        board: SlaveBoardState {
                            id: BoardId(u8::try_from(i).expect("few boards")),
                            cycles_completed: cycles,
                            array: sramcell::ArrayState {
                                mismatch: cells.iter().map(|c| c.0).collect(),
                                drift_bias: cells.iter().map(|c| c.1).collect(),
                            },
                            aging: sramaging::AgingState {
                                stress_age_years: age,
                            },
                        },
                        rng,
                        bus: puftestbed::i2c::BusStats {
                            transactions: bus.0,
                            failures: bus.1,
                            bytes_moved: bus.2,
                        },
                    })
                    .collect(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_campaign_state_round_trips_the_wire_format_exactly(state in arb_state()) {
        let bytes = checkpoint::encode(&state);
        let back = checkpoint::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, state);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_boundary_and_threads_still_match_the_full_run(
        halt in 1u32..4,
        before in 1usize..5,
        after in 1usize..5,
        seed in 0u64..1 << 32,
    ) {
        let cfg = config();
        let (reference, ref_summary) = full_run(&cfg, seed, 2);
        let (records, summary) = interrupted_run(&cfg, seed, halt, before, after);
        prop_assert_eq!(json_bytes(&records), json_bytes(&reference));
        prop_assert_eq!(summary, ref_summary);
    }
}
