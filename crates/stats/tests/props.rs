//! Property-based invariants of the numerical substrate.

use proptest::prelude::*;
use pufstats::entropy::{min_entropy_bit, shannon_entropy_bit};
use pufstats::normal::{phi, phi_complement, phi_inv};
use pufstats::solve::{bisect, gaussian_band_rule};
use pufstats::special::{erf, erfc};
use pufstats::{ci, Accumulator, Histogram, Summary};

proptest! {
    #[test]
    fn phi_is_monotone_and_bounded(a in -30.0f64..30.0, b in -30.0f64..30.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(phi(lo) <= phi(hi));
        prop_assert!((0.0..=1.0).contains(&phi(a)));
        prop_assert!((phi(a) + phi_complement(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erfc_is_non_increasing_and_complements_erf(a in -30.0f64..30.0, b in -30.0f64..30.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(erfc(lo) >= erfc(hi));
        prop_assert!((0.0..=2.0).contains(&erfc(a)));
        prop_assert!((erf(a) + erfc(a) - 1.0).abs() < 1e-15);
        prop_assert_eq!(erf(-a), -erf(a));
    }

    #[test]
    fn phi_inv_round_trips(p in 1e-9f64..1.0) {
        prop_assume!(p < 1.0 - 1e-9);
        let x = phi_inv(p);
        prop_assert!((phi(x) - p).abs() < 1e-9, "phi(phi_inv({p})) = {}", phi(x));
    }

    #[test]
    fn entropy_bounds_hold(p in 0.0f64..=1.0) {
        let h_min = min_entropy_bit(p);
        let h_sh = shannon_entropy_bit(p);
        prop_assert!((0.0..=1.0).contains(&h_min));
        prop_assert!(h_min <= h_sh + 1e-12, "min {h_min} > shannon {h_sh}");
        // Symmetry.
        prop_assert!((h_min - min_entropy_bit(1.0 - p)).abs() < 1e-12);
    }

    #[test]
    fn summary_is_translation_equivariant(values in prop::collection::vec(-1e3f64..1e3, 1..100), shift in -1e3f64..1e3) {
        let base = Summary::of(values.iter().copied());
        let shifted = Summary::of(values.iter().map(|v| v + shift));
        prop_assert!((shifted.mean - base.mean - shift).abs() < 1e-6);
        prop_assert!((shifted.variance - base.variance).abs() < 1e-4 * base.variance.max(1.0));
        prop_assert!((shifted.min - base.min - shift).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_is_order_independent(a in prop::collection::vec(-1e3f64..1e3, 1..50), b in prop::collection::vec(-1e3f64..1e3, 1..50)) {
        let mut ab: Accumulator = a.iter().copied().collect();
        ab.merge(&b.iter().copied().collect());
        let mut ba: Accumulator = b.iter().copied().collect();
        ba.merge(&a.iter().copied().collect());
        let (sa, sb) = (ab.summary(), ba.summary());
        prop_assert_eq!(sa.n, sb.n);
        prop_assert!((sa.mean - sb.mean).abs() < 1e-9);
        prop_assert!((sa.variance - sb.variance).abs() < 1e-6);
    }

    #[test]
    fn histogram_conserves_samples(values in prop::collection::vec(-0.5f64..1.5, 0..200)) {
        let h = Histogram::of(0.0, 1.0, 10, values.iter().copied());
        prop_assert_eq!(h.total(), values.len() as u64);
        let percent_sum: f64 = (0..h.bins()).map(|i| h.percent(i)).sum();
        if !values.is_empty() {
            prop_assert!((percent_sum - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn wilson_always_contains_the_point_estimate(successes in 0u64..500, extra in 0u64..500) {
        let n = successes + extra + 1;
        let interval = ci::wilson(successes, n, 0.95).unwrap();
        let p_hat = successes as f64 / n as f64;
        prop_assert!(interval.contains(p_hat), "{interval:?} vs {p_hat}");
        prop_assert!(interval.lo >= 0.0 && interval.hi <= 1.0);
    }

    #[test]
    fn band_rule_is_linear(mu in -5.0f64..5.0, sigma in 0.01f64..10.0, a in -3.0f64..3.0, b in -3.0f64..3.0) {
        // E[a·m + b] = a·mu + b; band |mu| + 8·sigma is Simpson on mu ± 8·sigma.
        let rule = gaussian_band_rule(mu, sigma, mu.abs() + 8.0 * sigma);
        let e: f64 = rule.iter().map(|&(m, w)| w * (a * m + b)).sum();
        prop_assert!((e - (a * mu + b)).abs() < 1e-6 * (1.0 + a.abs() * (mu.abs() + sigma)), "{e}");
    }

    #[test]
    fn bisect_finds_roots_of_random_monotone_cubics(root in -5.0f64..5.0) {
        // f(x) = (x - root)^3 is monotone with a known root.
        let f = |x: f64| (x - root).powi(3);
        let found = bisect(f, -10.0, 10.0, 1e-10, 200).unwrap();
        prop_assert!((found - root).abs() < 1e-6);
    }
}
