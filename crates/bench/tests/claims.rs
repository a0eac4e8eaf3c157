//! The paper's claims as statistical assertions over a fixed seed ensemble.
//!
//! Each seed runs one campaign, streamed through a [`TeeSink`] into the
//! assessment ([`WindowAccumulator`]) and the key-lifetime workload
//! ([`KeyLifeAccumulator`]) together. A claim about a quantity is asserted
//! on the interval `mean ± 3 sd` of that quantity over the seeds: where one
//! more seed would land, not where the ensemble mean lies. So the check
//! follows the spread the model really has, and a change to the simulator
//! that only redraws the noise (another RNG layout, say) passes with the
//! same seeds and intervals, while one that moves a claim does not. The
//! goldens pin bytes; this suite pins what those bytes are meant to show.
//!
//! The seeds are fixed in advance. The small-scale ensemble runs in the
//! default test run; the paper-scale one is `#[ignore]`d and runs with
//! `cargo test --release -p pufbench --test claims -- --ignored`.

use pufassess::streaming::WindowAccumulator;
use pufassess::{KeyLife, KeyLifeAccumulator, Table1};
use pufbench::Scale;
use pufstats::Summary;
use puftestbed::store::TeeSink;
use puftestbed::Campaign;
use sramaging::accelerated;

/// Seeds of the small-scale ensemble, fixed before any result was seen.
const SMALL_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// Seeds of the paper-scale ensemble: the small ones plus the seed the
/// documentation's single-seed tables use.
const PAPER_SEEDS: [u64; 7] = [1, 2, 3, 4, 5, 6, 2017];

/// Width of the prediction interval, in ensemble standard deviations.
const SPREAD: f64 = 3.0;

/// What one seed's campaign shows.
struct Outcome {
    table: Table1,
    life: KeyLife,
}

fn run(scale: Scale, seed: u64) -> Outcome {
    let mut assessment = WindowAccumulator::new(scale.protocol());
    let mut keylife = KeyLifeAccumulator::new(scale.keylife_config(seed));
    Campaign::new(scale.campaign_config(), seed)
        .threads(2)
        .run(&mut TeeSink::new(&mut assessment, &mut keylife))
        .expect("accumulator sinks cannot fail");
    Outcome {
        table: assessment.finish().expect("assessable campaign").table1(),
        life: keylife.finish().expect("evaluable campaign"),
    }
}

/// The prediction interval `mean ± SPREAD · sd` of one claim's `values`
/// over the seeds. Prints the ensemble.
fn interval(claim: &str, values: &[f64]) -> (f64, f64) {
    let s = Summary::of(values.iter().copied());
    let (lo, hi) = (s.mean - SPREAD * s.std_dev, s.mean + SPREAD * s.std_dev);
    eprintln!("{claim}: seeds {values:.5?} -> [{lo:.5}, {hi:.5}]");
    (lo, hi)
}

/// [`interval`], asserted to hold the paper's value.
fn predicted(claim: &str, values: &[f64], paper: f64) -> (f64, f64) {
    let (lo, hi) = interval(claim, values);
    assert!(
        lo <= paper && paper <= hi,
        "{claim}: the paper's {paper} is outside [{lo}, {hi}] (seeds {values:?})"
    );
    (lo, hi)
}

fn assert_claims(scale: Scale, seeds: &[u64]) {
    let outcomes: Vec<Outcome> = seeds.iter().map(|&seed| run(scale, seed)).collect();
    let each = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).collect::<Vec<f64>>();

    // WCHD grows by the paper's +0.74 % a month, and visibly.
    let wchd = each(|o| o.table.wchd.monthly_change(o.table.months));
    let (lo, _) = predicted("WCHD AVG monthly change", &wchd, 0.0074);
    assert!(lo > 0.0, "WCHD AVG may not grow: {wchd:?}");
    // The noise entropy rises by the paper's +19.3 %.
    let noise = each(|o| o.table.noise.relative_change());
    let (lo, _) = predicted("noise entropy AVG change", &noise, 0.193);
    assert!(lo > 0.0, "noise entropy AVG may not rise: {noise:?}");

    // HW, BCHD and the PUF entropy do not drift, and every seed prints
    // their change as "negligible".
    let puf = |o: &Outcome| o.table.puf_entropy_end / o.table.puf_entropy_start - 1.0;
    predicted(
        "HW AVG change",
        &each(|o| o.table.hw.relative_change()),
        0.0,
    );
    predicted(
        "BCHD AVG change",
        &each(|o| o.table.bchd.relative_change()),
        0.0,
    );
    predicted("PUF entropy change", &each(puf), 0.0);
    for (seed, o) in seeds.iter().zip(&outcomes) {
        assert!(o.table.hw.is_negligible(), "seed {seed}: HW AVG moved");
        assert!(o.table.bchd.is_negligible(), "seed {seed}: BCHD AVG moved");
        assert!(puf(o).abs() < 0.01, "seed {seed}: PUF entropy moved");
    }

    // Fewer cells stay stable. Only the sign is claimed: the paper's
    // −2.49 % is a known miss of the drift law (EXPERIMENTS.md).
    let stable = each(|o| o.table.stable.relative_change());
    let (_, hi) = interval("stable cells AVG change", &stable);
    assert!(hi < 0.0, "the stable-cell ratio may not fall: {stable:?}");

    // golay-r5 never fails more often than its analytic bound says.
    for (seed, o) in seeds.iter().zip(&outcomes) {
        let golay = o
            .life
            .profiles
            .iter()
            .find(|p| p.profile.name == "golay-r5")
            .expect("every scale runs golay-r5");
        for row in &golay.rows[1..] {
            let (rate, bound) = (row.rate.unwrap(), row.bound.unwrap());
            assert!(
                rate <= bound,
                "seed {seed}, month {}: golay-r5 failed at {rate} > bound {bound}",
                row.month_index
            );
        }
    }
}

#[test]
fn small_scale_ensemble_holds_the_paper_claims() {
    assert_claims(Scale::Small, &SMALL_SEEDS);
}

#[test]
#[ignore = "paper scale: minutes in release mode"]
fn paper_scale_ensemble_holds_the_paper_claims() {
    assert_claims(Scale::Paper, &PAPER_SEEDS);
}

#[test]
fn accelerated_aging_overstates_the_nominal_rate_by_the_papers_ratio() {
    // Analytic, so one evaluation is the whole ensemble: 1.28/0.74.
    let (nominal, accelerated) = accelerated::comparison(24);
    let ratio = accelerated.monthly_wchd_rate / nominal.monthly_wchd_rate;
    assert!((ratio - 1.73).abs() <= 0.1, "ratio {ratio}");
}
