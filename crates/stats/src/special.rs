//! Special functions: `erf`, `erfc`, Owen's `T`, `ln Γ`, and the regularized
//! incomplete gamma functions.
//!
//! [`erf`] and [`erfc`] back the standard-normal CDF in [`crate::normal`],
//! which the cell model, the aging model and the population fit evaluate
//! millions of times per run. They are a port of fdlibm's `s_erf.c`, the
//! algorithm musl, FreeBSD msun and Go's `math.Erfc` share: a rational
//! approximation on each of `|x| < 0.84375`, `< 1.25`, `< 1/0.35` and `< 28`,
//! no loop, at most two `exp` calls, and an error below 1 ulp.
//!
//! [`owens_t`] gives the population's expected within-class Hamming distance
//! in closed form, `E[2p(1−p)] = 4·T(h, a)`, which the month-0 fit bisects
//! on. It integrates `T`'s defining integral with a fixed two-panel,
//! 32-point Gauss–Legendre rule, accurate to a few ulp on `0 ≤ a ≤ 1`, the
//! only range the fit reaches.
//!
//! [`ln_gamma`] and the incomplete gamma functions back the p-values of the
//! randomness tests in [`crate::randtests`]. Because `erfc(x) = Q(1/2, x²)`,
//! they also give the kernel an independent oracle, [`erfc_via_gamma`]. The
//! oracle is the less accurate side: the exponent of its prefactor is rounded
//! at magnitude `x²`, so its relative error grows with `x`, to about
//! 1.6e-13 near `x = 24`.

// The `erf`/`erfc` kernel is ported from fdlibm's s_erf.c, which carries
// this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

/// 0.84506291151 rounded to 24 bits: the anchor that the `[0.84375, 1.25)`
/// approximation adds its correction `PA/QA` to.
const ERX: f64 = 8.450_629_115_104_675e-1; // 0x3FEB0AC1_60000000
/// `2/√π − 1`: `erf(x) = x + EFX·x` to within an ulp for `|x| < 2⁻²⁸`.
const EFX: f64 = 1.283_791_670_955_126e-1; // 0x3FC06EBA_8214DB69

// erf(x) = x + x·PP(x²)/QQ(x²) on |x| < 0.84375.
const PP: [f64; 5] = [
    1.283_791_670_955_125_6e-1,  // 0x3FC06EBA_8214DB68
    -3.250_421_072_470_015e-1,   // 0xBFD4CD7D_691CB913
    -2.848_174_957_559_851e-2,   // 0xBF9D2A51_DBD7194F
    -5.770_270_296_489_442e-3,   // 0xBF77A291_236668E4
    -2.376_301_665_665_016_3e-5, // 0xBEF8EAD6_120016AC
];
const QQ: [f64; 5] = [
    3.979_172_239_591_553_5e-1, // 0x3FD97779_CDDADC09
    6.502_224_998_876_73e-2,    // 0x3FB0A54C_5536CEBA
    5.081_306_281_875_766e-3,   // 0x3F74D022_C4D36B0F
    1.324_947_380_043_216_4e-4, // 0x3F215DC9_221C1A10
    -3.960_228_278_775_368e-6,  // 0xBED09C43_42A26120
];

// erf(|x|) = ERX + PA(s)/QA(s), s = |x| − 1, on 0.84375 ≤ |x| < 1.25.
const PA: [f64; 7] = [
    -2.362_118_560_752_659_4e-3, // 0xBF6359B8_BEF77538
    4.148_561_186_837_483_3e-1,  // 0x3FDA8D00_AD92B34D
    -3.722_078_760_357_013e-1,   // 0xBFD7D240_FBB8C3F1
    3.183_466_199_011_617_5e-1,  // 0x3FD45FCA_805120E4
    -1.108_946_942_823_966_8e-1, // 0xBFBC6398_3D3E28EC
    3.547_830_432_561_823_6e-2,  // 0x3FA22A36_599795EB
    -2.166_375_594_868_791e-3,   // 0xBF61BF38_0A96073F
];
const QA: [f64; 6] = [
    1.064_208_804_008_442_3e-1, // 0x3FBB3E66_18EEE323
    5.403_979_177_021_71e-1,    // 0x3FE14AF0_92EB6F33
    7.182_865_441_419_627e-2,   // 0x3FB2635C_D99FE9A7
    1.261_712_198_087_616_4e-1, // 0x3FC02660_E763351F
    1.363_708_391_202_905e-2,   // 0x3F8BEDC2_6B51DD1C
    1.198_449_984_679_910_7e-2, // 0x3F888B54_5735151D
];

// erfc(x) = exp(−x² − 0.5625 + RA(s)/SA(s)) / x, s = 1/x², on
// 1.25 ≤ x < 1/0.35.
const RA: [f64; 8] = [
    -9.864_944_034_847_148e-3,  // 0xBF843412_600D6435
    -6.938_585_727_071_818e-1,  // 0xBFE63416_E4BA7360
    -1.055_862_622_532_329_1e1, // 0xC0251E04_41B0E726
    -6.237_533_245_032_600_6e1, // 0xC04F300A_E4CBA38D
    -1.623_966_694_625_734_7e2, // 0xC0644CB1_84282266
    -1.846_050_929_067_110_4e2, // 0xC067135C_EBCCABB2
    -8.128_743_550_630_66e1,    // 0xC0545265_57E4D2F2
    -9.814_329_344_169_145,     // 0xC023A0EF_C69AC25C
];
const SA: [f64; 8] = [
    1.965_127_166_743_925_7e1, // 0x4033A6B9_BD707687
    1.376_577_541_435_190_4e2, // 0x4061350C_526AE721
    4.345_658_774_752_292_3e2, // 0x407B290D_D58A1A71
    6.453_872_717_332_679e2,   // 0x40842B19_21EC2868
    4.290_081_400_275_678_3e2, // 0x407AD021_57700314
    1.086_350_055_417_794_4e2, // 0x405B28A3_EE48AE2C
    6.570_249_770_319_282,     // 0x401A47EF_8E484A93
    -6.042_441_521_485_81e-2,  // 0xBFAEEFF2_EE749A62
];

// The same form with RB/SB on 1/0.35 ≤ x < 28.
const RB: [f64; 7] = [
    -9.864_942_924_700_1e-3,    // 0xBF843412_39E86F4A
    -7.992_832_376_805_23e-1,   // 0xBFE993BA_70C285DE
    -1.775_795_491_775_475_2e1, // 0xC031C209_555F995A
    -1.606_363_848_558_219_2e2, // 0xC064145D_43C5ED98
    -6.375_664_433_683_896e2,   // 0xC083EC88_1375F228
    -1.025_095_131_611_077_2e3, // 0xC0900461_6A2E5992
    -4.835_191_916_086_514e2,   // 0xC07E384E_9BDC383F
];
const SB: [f64; 7] = [
    3.033_806_074_348_246e1,   // 0x403E568B_261D5190
    3.257_925_129_965_739e2,   // 0x40745CAE_221B9F0A
    1.536_729_586_084_437e3,   // 0x409802EB_189D5118
    3.199_858_219_508_595_5e3, // 0x40A8FFB7_688C246A
    2.553_050_406_433_164_4e3, // 0x40A3F219_CEDF3BE6
    4.745_285_412_069_553_7e2, // 0x407DA874_E79FE763
    -2.244_095_244_658_582e1,  // 0xC03670E2_42712D62
];

/// The high 32 bits of `|x|`, which fdlibm compares against to pick an
/// interval.
fn high_word(x: f64) -> u32 {
    ((x.to_bits() >> 32) as u32) & 0x7fff_ffff
}

/// `c[0] + z·(c[1] + z·(c[2] + …))`, innermost first, as fdlibm writes it.
fn poly(z: f64, c: &[f64]) -> f64 {
    let (&last, rest) = c.split_last().expect("non-empty coefficient list");
    rest.iter().rfold(last, |acc, &k| k + z * acc)
}

/// `1 + z·(c[0] + z·(c[1] + …))`: the denominators, whose constant term is 1.
fn poly1(z: f64, c: &[f64]) -> f64 {
    1.0 + z * poly(z, c)
}

/// `PP(x²)/QQ(x²)`, so that `erf(x) = x + x·small(x)` for `|x| < 0.84375`.
fn small(x: f64) -> f64 {
    let z = x * x;
    poly(z, &PP) / poly1(z, &QQ)
}

/// `erf(|x|) − ERX` for `0.84375 ≤ |x| < 1.25`.
fn near_one(x: f64) -> f64 {
    let s = x.abs() - 1.0;
    poly(s, &PA) / poly1(s, &QA)
}

/// `erfc(x)` for `1.25 ≤ x < 28`, with `ix` the high word of `x`.
fn tail(x: f64, ix: u32) -> f64 {
    let s = 1.0 / (x * x);
    // The split sits where the high word reaches 0x4006DB6D, just below
    // 1/0.35 ≈ 2.857142857.
    let ratio = if ix < 0x4006_db6d {
        poly(s, &RA) / poly1(s, &SA)
    } else {
        poly(s, &RB) / poly1(s, &SB)
    };
    // x = z + (x − z) with the low 32 bits of z cleared: z² is exact, and
    // −x² = −z² + (z − x)(z + x) loses nothing to cancellation.
    let z = f64::from_bits(x.to_bits() & 0xffff_ffff_0000_0000);
    (-z * z - 0.5625).exp() * ((z - x) * (z + x) + ratio).exp() / x
}

/// Error function `erf(x)`, to within 1 ulp.
///
/// `erf(±∞) = ±1`, and `erf(NaN)` is NaN.
///
/// # Examples
///
/// ```
/// let e = pufstats::special::erf(1.0);
/// assert!((e - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    let ix = high_word(x);
    if ix < 0x3feb_0000 {
        // |x| < 0.84375
        if ix < 0x3e30_0000 {
            // |x| < 2^-28
            return x + EFX * x;
        }
        return x + x * small(x);
    }
    let magnitude = if ix < 0x3ff4_0000 {
        // |x| < 1.25
        ERX + near_one(x)
    } else if ix < 0x4018_0000 {
        // |x| < 6
        1.0 - tail(x.abs(), ix)
    } else if x.is_nan() {
        return x;
    } else {
        // erfc(6) < 2^-55, so 1 − erfc(|x|) rounds to 1.
        1.0
    };
    magnitude.copysign(x)
}

/// Complementary error function `erfc(x) = 1 - erf(x)`, to within 1 ulp.
///
/// Accurate in the far tail (down to `erfc(27) ≈ 5e-319`, a subnormal),
/// which matters for min-entropy of strongly skewed cells. `erfc(+∞) = 0`,
/// `erfc(−∞) = 2`, and `erfc(NaN)` is NaN.
///
/// # Examples
///
/// ```
/// let e = pufstats::special::erfc(2.0);
/// assert!((e - 0.0046777349810472645).abs() < 1e-14);
/// ```
pub fn erfc(x: f64) -> f64 {
    let ix = high_word(x);
    if ix < 0x3feb_0000 {
        // |x| < 0.84375
        if ix < 0x3c70_0000 {
            // |x| < 2^-56
            return 1.0 - x;
        }
        let y = small(x);
        return if x < 0.25 {
            1.0 - (x + x * y)
        } else {
            0.5 - (x * y + (x - 0.5))
        };
    }
    if ix < 0x3ff4_0000 {
        // |x| < 1.25
        let r = near_one(x);
        return if x > 0.0 {
            (1.0 - ERX) - r
        } else {
            1.0 + (ERX + r)
        };
    }
    if ix < 0x403c_0000 {
        // |x| < 28
        return if x > 0.0 {
            tail(x, ix)
        } else if ix < 0x4018_0000 {
            2.0 - tail(-x, ix)
        } else {
            // x <= -6: erfc(6) < 2^-55, so 2 − erfc(|x|) rounds to 2.
            2.0
        };
    }
    if x > 0.0 {
        // erfc(28) underflows past the smallest subnormal.
        0.0
    } else if x < 0.0 {
        2.0
    } else {
        x // NaN
    }
}

/// `erfc(x)` through the incomplete gamma function: `Q(1/2, x²)`, or
/// `2 − Q(1/2, x²)` for negative `x`.
///
/// An independent oracle for [`erfc`], exposed for cross-checks and the
/// `normal_cdf` performance suite. It is several times slower than the
/// kernel and less accurate (see the module docs).
///
/// # Panics
///
/// Panics if `x` is NaN.
///
/// # Examples
///
/// ```
/// use pufstats::special::{erfc, erfc_via_gamma};
/// assert!((erfc_via_gamma(2.0) / erfc(2.0) - 1.0).abs() < 1e-14);
/// ```
pub fn erfc_via_gamma(x: f64) -> f64 {
    let q = gamma_q(0.5, x * x);
    if x < 0.0 {
        2.0 - q
    } else {
        q
    }
}

/// The 16 non-negative nodes of the 32-point Gauss–Legendre rule on
/// `[−1, 1]`, with their weights; the rule is symmetric about 0.
///
/// Computed once, by Newton's method on `P₃₂` from the usual cosine
/// guesses. The weights are then rescaled to sum to 1, so the full rule
/// integrates 1 to 2 up to rounding; that halves the largest error of
/// [`owens_t`].
fn gauss_legendre_32() -> &'static [(f64, f64); 16] {
    static RULE: std::sync::OnceLock<[(f64, f64); 16]> = std::sync::OnceLock::new();
    RULE.get_or_init(|| {
        // (P₃₂(x), P₃₂'(x)) by the three-term recurrence.
        let legendre = |x: f64| {
            let (mut prev, mut p) = (1.0, x);
            for j in 1..32 {
                let j = f64::from(j);
                (prev, p) = (p, ((2.0 * j + 1.0) * x * p - j * prev) / (j + 1.0));
            }
            (p, 32.0 * (x * p - prev) / (x * x - 1.0))
        };
        let mut rule: [(f64, f64); 16] = std::array::from_fn(|i| {
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / 32.5).cos();
            // The guess is good to ~1e-3 and Newton doubles the digits.
            for _ in 0..8 {
                let (p, dp) = legendre(x);
                x -= p / dp;
            }
            let (_, dp) = legendre(x);
            (x, 2.0 / ((1.0 - x * x) * dp * dp))
        });
        let half: f64 = rule.iter().map(|&(_, w)| w).sum();
        for node in &mut rule {
            node.1 /= half;
        }
        rule
    })
}

/// Owen's T function, `T(h, a) = (1/2π) ∫₀ᵃ exp(−h²(1+x²)/2) / (1+x²) dx`,
/// for `0 ≤ a ≤ 1`.
///
/// A population `m ~ N(μ, σ²)` of one-probabilities `p = Φ(m)` has
/// `E[2p(1−p)] = 4·T(μ/√(1+σ²), 1/√(1+2σ²))`, so every `a` the cell model
/// asks for lies in `(0, 1]`.
///
/// Evaluated with a 32-point Gauss–Legendre rule on each half of `[0, a]`.
/// On that domain the integrand is smooth and bounded, and the result is
/// within 1e-15 relative of a 64-panel evaluation for `|h| ≤ 5` and within
/// 1e-14 for `|h| ≤ 30` (past `|h| ≈ 37`, `T` leaves the normal floats).
/// `T(h, 0) = 0` and `T(−h, a) = T(h, a)` hold exactly, `T(0, a) =
/// atan(a)/(2π)` and `T(h, 1) = Φ(h)·Φ(−h)/2` within 1e-16. `T` is
/// non-decreasing in `a` wherever a step in `a` moves it by more than a few
/// ulp, which holds for `|h| ≤ 5` at steps of 1e-5; for larger `|h|` the
/// tail of `T(h, ·)` is flat to within its rounding.
///
/// # Panics
///
/// Panics unless `0 ≤ a ≤ 1`.
///
/// # Examples
///
/// ```
/// use pufstats::special::owens_t;
/// use std::f64::consts::PI;
///
/// // T(0, a) = atan(a) / 2π.
/// assert!((owens_t(0.0, 0.5) - 0.5f64.atan() / (2.0 * PI)).abs() < 1e-16);
/// assert_eq!(owens_t(1.3, 0.0), 0.0);
/// ```
pub fn owens_t(h: f64, a: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&a),
        "owens_t needs 0 <= a <= 1, got a={a}"
    );
    let half_h2 = 0.5 * h * h;
    let f = |x: f64| {
        let x2 = x * x;
        (-half_h2 * x2).exp() / (1.0 + x2)
    };
    // Panels [0, a/2] and [a/2, a], centred on r and 3r with half-width r.
    let r = 0.25 * a;
    let sum: f64 = gauss_legendre_32()
        .iter()
        .map(|&(x, w)| {
            w * (f(r * (1.0 - x)) + f(r * (1.0 + x)) + f(r * (3.0 - x)) + f(r * (3.0 + x)))
        })
        .sum();
    (-half_h2).exp() * r * sum / (2.0 * std::f64::consts::PI)
}

/// Natural log of the gamma function, `ln Γ(x)` for `x > 0` (Lanczos).
///
/// # Panics
///
/// Panics if `x <= 0`.
///
/// # Examples
///
/// ```
/// // Γ(5) = 24
/// assert!((pufstats::special::ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos g=7, n=9 coefficients.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// // P(1, x) = 1 - exp(-x)
/// let p = pufstats::special::gamma_p(1.0, 2.0);
/// assert!((p - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
/// ```
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// let q = pufstats::special::gamma_q(1.0, 0.0);
/// assert!((q - 1.0).abs() < 1e-15);
/// ```
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Lentz continued fraction for Q(a,x).
    let mut b = x + 1.0 - a;
    let mut c = 1e308;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -f64::from(i) * (f64::from(i) - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + an / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::phi;

    #[test]
    fn erf_known_values() {
        let cases = [
            (0.0, 0.0),
            (0.1, 0.112_462_916_018_284_9),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-12, "erf({x}) = {}", erf(x));
            assert!((erf(-x) + want).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_is_complement_and_tail_accurate() {
        for x in [0.0, 0.3, 0.7, 1.5, 3.0, 5.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x={x}");
        }
        // Tail value from high-precision tables: erfc(5) ≈ 1.5374597944280e-12
        assert!((erfc(5.0) / 1.537_459_794_428_035e-12 - 1.0).abs() < 1e-9);
        // Deep tail stays finite and positive.
        assert!(erfc(20.0) > 0.0 && erfc(20.0) < 1e-170);
    }

    #[test]
    fn erfc_negative_arguments() {
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-14);
    }

    #[test]
    fn erfc_matches_tabulated_values() {
        // Correctly rounded values of erfc from a high-precision evaluation.
        let cases = [
            (0.1, 0.887_537_083_981_715),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 0.004_677_734_981_047_266),
            (3.0, 2.209_049_699_858_544e-5),
            (5.0, 1.537_459_794_428_035e-12),
            (10.0, 2.088_487_583_762_545e-45),
            (20.0, 5.395_865_611_607_901e-176),
            (26.0, 5.663_192_408_856_143e-296),
        ];
        for (x, want) in cases {
            let rel = (erfc(x) / want - 1.0).abs();
            assert!(rel < 4e-16, "erfc({x}) = {:e}, want {want:e}", erfc(x));
        }
    }

    #[test]
    fn erfc_agrees_with_the_incomplete_gamma_oracle() {
        // Dense sweep of [-6, 26.5]; erfc leaves the normal floats just above.
        const N: u32 = 100_000;
        let mut worst = (0.0f64, 0.0f64);
        for i in 0..=N {
            let x = -6.0 + 32.5 * f64::from(i) / f64::from(N);
            let want = erfc_via_gamma(x);
            assert!(want.is_normal(), "x = {x}");
            let rel = (erfc(x) / want - 1.0).abs();
            if rel > worst.0 {
                worst = (rel, x);
            }
        }
        assert!(
            worst.0 < 5e-13,
            "relative gap {:e} at x = {}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn erf_and_erfc_are_monotone_across_interval_boundaries() {
        // The exact switch points of the kernel. The 1/0.35 split sits where
        // the high word reaches 0x4006DB6D, just below 1/0.35; 0.25 splits
        // the evaluation order of erfc on [0, 0.84375).
        let split = f64::from_bits(0x4006_db6d_0000_0000);
        for boundary in [
            0.25, 0.84375, -0.84375, 1.25, -1.25, split, -split, 6.0, -6.0, 28.0,
        ] {
            let mut x = boundary;
            for _ in 0..1000 {
                x = x.next_down();
            }
            let (mut c, mut e) = (erfc(x), erf(x));
            for _ in 0..2000 {
                x = x.next_up();
                assert!(erfc(x) <= c, "erfc rises at x = {x:e}");
                assert!(erf(x) >= e, "erf falls at x = {x:e}");
                (c, e) = (erfc(x), erf(x));
            }
        }
    }

    #[test]
    fn erf_and_erfc_edge_values() {
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert!(erfc(f64::NAN).is_nan());
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert!(erf(f64::NAN).is_nan());
        assert_eq!(erfc(0.0), 1.0);
        assert_eq!(erf(-0.0).to_bits(), (-0.0f64).to_bits());
        // Tiny arguments take the first-order branches.
        assert_eq!(erfc(1e-20), 1.0);
        assert!((erf(1e-10) / (1e-10 * 2.0 / std::f64::consts::PI.sqrt()) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn owens_t_vanishes_at_a_zero_and_is_even_in_h() {
        for i in 0..=400 {
            let h = -20.0 + 0.1 * f64::from(i);
            assert_eq!(owens_t(h, 0.0), 0.0, "h = {h}");
            for a in [1e-9, 0.01, 0.3, 0.7, 1.0] {
                assert_eq!(owens_t(-h, a), owens_t(h, a), "h = {h}, a = {a}");
            }
        }
    }

    #[test]
    fn owens_t_meets_its_closed_forms() {
        // T(0, a) = atan(a)/2π and T(h, 1) = Φ(h)·Φ(−h)/2.
        let two_pi = 2.0 * std::f64::consts::PI;
        for i in 0..=10_000 {
            let a = f64::from(i) / 10_000.0;
            let gap = (owens_t(0.0, a) - a.atan() / two_pi).abs();
            assert!(gap < 1e-16, "T(0, {a}) off by {gap:e}");
        }
        for i in 0..=4_000 {
            let h = -10.0 + f64::from(i) / 200.0;
            let gap = (owens_t(h, 1.0) - phi(h) * phi(-h) / 2.0).abs();
            assert!(gap < 1e-16, "T({h}, 1) off by {gap:e}");
        }
    }

    #[test]
    fn owens_t_matches_a_many_panel_evaluation() {
        // The same rule on 64 panels of [0, a]: each panel is 32 times
        // narrower, so its error is far below the two-panel rule's.
        let reference = |h: f64, a: f64| {
            let r = a / 128.0;
            let f = |x: f64| (-0.5 * h * h * (1.0 + x * x)).exp() / (1.0 + x * x);
            let sum: f64 = (0..64)
                .map(|k| {
                    let c = r * f64::from(2 * k + 1);
                    gauss_legendre_32()
                        .iter()
                        .map(|&(x, w)| w * (f(c - r * x) + f(c + r * x)))
                        .sum::<f64>()
                })
                .sum();
            r * sum / (2.0 * std::f64::consts::PI)
        };
        for i in 0..=60 {
            let h = 0.5 * f64::from(i);
            for j in 1..=20 {
                let a = 0.05 * f64::from(j);
                let want = reference(h, a);
                let rel = (owens_t(h, a) / want - 1.0).abs();
                let bound = if h <= 5.0 { 1e-15 } else { 1e-14 };
                assert!(rel < bound, "T({h}, {a}) off by {rel:e} relative");
            }
        }
    }

    #[test]
    fn owens_t_is_non_decreasing_in_a() {
        // The month-0 fit bisects on 4·T(h, a), h fixed by the FHW.
        for h in [0.0, 0.3, 1.0, 2.5, 5.0] {
            let mut prev = 0.0;
            for i in 0..=100_000 {
                let a = f64::from(i) / 100_000.0;
                let t = owens_t(h, a);
                assert!(t >= prev, "T({h}, a) falls at a = {a}");
                prev = t;
            }
        }
    }

    #[test]
    #[should_panic(expected = "owens_t needs 0 <= a <= 1")]
    fn owens_t_rejects_a_outside_the_unit_interval() {
        owens_t(0.0, 1.5);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15 {
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n})"
            );
            fact *= n as f64;
        }
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn gamma_p_q_are_complements() {
        for a in [0.5, 1.0, 2.5, 10.0] {
            for x in [0.1, 1.0, 5.0, 20.0] {
                assert!(
                    (gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-12,
                    "a={a}, x={x}"
                );
            }
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        for x in [0.0, 0.5, 1.0, 3.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_p_chi_square_median() {
        // Chi-square with k dof has CDF P(k/2, x/2); median of k=2 is 2 ln 2.
        let median = 2.0 * 2.0f64.ln();
        assert!((gamma_p(1.0, median / 2.0) - 0.5).abs() < 1e-12);
    }
}
