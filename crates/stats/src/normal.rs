//! Standard-normal distribution: CDF, quantile, density, and sampling.
//!
//! The hidden-variable SRAM cell model (Maes, CHES 2013) maps a static
//! process mismatch `m` to a one-probability `p = Phi(m / sigma_noise)`;
//! everything in the cell and aging crates leans on these routines.

use crate::special::{erf, erfc};
use rand::Rng;

/// Standard-normal cumulative distribution function `Phi(x)`.
///
/// # Examples
///
/// ```
/// assert!((pufstats::normal::phi(0.0) - 0.5).abs() < 1e-15);
/// assert!(pufstats::normal::phi(6.0) > 0.999_999_999);
/// ```
pub fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard-normal survival function `1 - Phi(x)`, accurate in the upper
/// tail where `phi(x)` would round to one.
///
/// # Examples
///
/// ```
/// let tail = pufstats::normal::phi_complement(8.0);
/// assert!(tail > 0.0 && tail < 1e-14);
/// ```
pub fn phi_complement(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// The `|x|` past which `Phi(x)` is 0 or 1 to within about 1e-19 in f64:
/// `Phi(-9) = 1.13e-19`, and `phi(x)` rounds to exactly 1 above 8.3. Any
/// continuous function of `Phi(x)` is therefore constant beyond `±9` to
/// that accuracy.
pub const PHI_SATURATION: f64 = 9.0;

/// Standard-normal probability density function.
///
/// # Examples
///
/// ```
/// let d = pufstats::normal::pdf(0.0);
/// assert!((d - 0.3989422804014327).abs() < 1e-15);
/// ```
pub fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse standard-normal CDF (the probit function), `Phi^{-1}(p)`.
///
/// Uses Acklam's rational approximation refined by one Halley step, giving
/// full double precision over `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use pufstats::normal::{phi, phi_inv};
/// let x = phi_inv(0.975);
/// assert!((x - 1.959963984540054).abs() < 1e-9);
/// assert!((phi(phi_inv(0.3)) - 0.3).abs() < 1e-12);
/// ```
pub fn phi_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "phi_inv requires 0 < p < 1, got {p}");
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the true CDF.
    let e = phi(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Draws one standard-normal sample using the polar Box–Muller method.
///
/// Self-contained Gaussian sampling (the workspace does not depend on
/// `rand_distr`).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = pufstats::normal::sample_standard(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws one `N(mean, sd^2)` sample.
///
/// # Panics
///
/// Panics if `sd < 0`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = pufstats::normal::sample(&mut rng, 10.0, 0.0);
/// assert_eq!(x, 10.0);
/// ```
pub fn sample<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    assert!(
        sd >= 0.0,
        "standard deviation must be non-negative, got {sd}"
    );
    mean + sd * sample_standard(rng)
}

/// `Phi(x)` expressed through `erf`, exposed for cross-checks.
pub fn phi_via_erf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phi_known_values() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (-1.0, 0.158_655_253_931_457_05),
            (1.959_963_984_540_054, 0.975),
            (3.0, 0.998_650_101_968_369_9),
        ];
        for (x, want) in cases {
            assert!((phi(x) - want).abs() < 1e-12, "phi({x}) = {}", phi(x));
        }
    }

    #[test]
    fn phi_and_complement_sum_to_one() {
        for x in [-4.0, -1.0, 0.0, 0.5, 2.0, 6.0] {
            assert!((phi(x) + phi_complement(x) - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn phi_is_symmetric_to_rounding() {
        for i in 0..=80_000 {
            let x = -40.0 + f64::from(i) * 1e-3;
            let sum = phi(x) + phi(-x);
            assert!(
                (sum - 1.0).abs() <= 2.3e-16,
                "phi({x}) + phi({}) = {sum}",
                -x
            );
        }
    }

    #[test]
    fn phi_edge_values() {
        assert_eq!(phi(f64::INFINITY), 1.0);
        assert_eq!(phi(f64::NEG_INFINITY), 0.0);
        assert!(phi(f64::NAN).is_nan());
        assert_eq!(phi_complement(f64::INFINITY), 0.0);
        assert_eq!(phi_complement(f64::NEG_INFINITY), 1.0);
        assert!(phi_complement(f64::NAN).is_nan());
    }

    #[test]
    fn phi_matches_erf_form() {
        for x in [-3.0, -0.2, 0.0, 0.7, 2.5] {
            assert!((phi(x) - phi_via_erf(x)).abs() < 1e-13);
        }
    }

    #[test]
    fn phi_inv_round_trips() {
        for p in [1e-10, 1e-4, 0.01, 0.3, 0.5, 0.627, 0.99, 1.0 - 1e-10] {
            let x = phi_inv(p);
            assert!((phi(x) - p).abs() < 1e-11 * p.max(1e-3), "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "requires 0 < p < 1")]
    fn phi_inv_rejects_boundary() {
        phi_inv(1.0);
    }

    #[test]
    fn sampling_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = sample(&mut rng, 1.0, 2.0);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn pdf_is_symmetric_and_normalized_at_zero() {
        assert!((pdf(1.3) - pdf(-1.3)).abs() < 1e-16);
        assert!(pdf(0.0) > pdf(0.1));
    }
}
