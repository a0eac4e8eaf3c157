//! Entropy measures for binary sources.
//!
//! The paper uses *min-entropy* throughout (following NIST SP 800-90B and its
//! refs \[12\], \[16\]): for a binary source emitting `1` with probability `p`,
//!
//! ```text
//! H_min = -log2(max(p, 1 - p))
//! ```
//!
//! Two aggregations appear:
//!
//! * **PUF entropy** (`Hmin,PUF`, uniqueness): per bit *location*, `p` is the
//!   probability over *devices*; averaged over locations.
//! * **Noise entropy** (`Hmin,noise`, randomness): per *cell*, `p` is the
//!   one-probability over repeated power-ups of a *single* device; averaged
//!   over cells.

/// Min-entropy of one binary source with one-probability `p`, in bits.
///
/// Returns `0.0` for fully skewed sources (`p` ∈ {0, 1}) and `1.0` for a
/// balanced source.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or NaN.
///
/// # Examples
///
/// ```
/// use pufstats::entropy::min_entropy_bit;
/// assert_eq!(min_entropy_bit(0.5), 1.0);
/// assert_eq!(min_entropy_bit(1.0), 0.0);
/// ```
pub fn min_entropy_bit(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    -p.max(1.0 - p).log2()
}

/// Average min-entropy over independent binary sources, the paper's
/// `(H_min)_average = (1/n) Σ -log2 max(p_i, 1-p_i)`.
///
/// # Panics
///
/// Panics if the iterator is empty or any probability is out of range.
///
/// # Examples
///
/// ```
/// use pufstats::entropy::average_min_entropy;
/// let h = average_min_entropy([0.5, 1.0]);
/// assert!((h - 0.5).abs() < 1e-12);
/// ```
pub fn average_min_entropy<I: IntoIterator<Item = f64>>(probabilities: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for p in probabilities {
        sum += min_entropy_bit(p);
        n += 1;
    }
    assert!(n > 0, "average_min_entropy of an empty sequence");
    sum / n as f64
}

/// Shannon (binary) entropy of a source with one-probability `p`, in bits.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or NaN.
///
/// # Examples
///
/// ```
/// use pufstats::entropy::shannon_entropy_bit;
/// assert_eq!(shannon_entropy_bit(0.5), 1.0);
/// assert_eq!(shannon_entropy_bit(0.0), 0.0);
/// ```
pub fn shannon_entropy_bit(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let term = |q: f64| if q == 0.0 { 0.0 } else { -q * q.log2() };
    term(p) + term(1.0 - p)
}

/// NIST SP 800-90B *most common value* min-entropy estimate for a sample of
/// binary symbols: an upper confidence bound on the most common symbol's
/// probability, converted to min-entropy per bit.
///
/// `ones` is the number of one bits out of `n` samples.
///
/// # Panics
///
/// Panics if `n == 0` or `ones > n`.
///
/// # Examples
///
/// ```
/// use pufstats::entropy::mcv_estimate;
/// // A perfectly balanced large sample estimates close to 1 bit.
/// let h = mcv_estimate(500_000, 1_000_000);
/// assert!(h > 0.99 && h <= 1.0);
/// ```
pub fn mcv_estimate(ones: u64, n: u64) -> f64 {
    assert!(n > 0, "mcv_estimate needs at least one sample");
    assert!(ones <= n, "ones {ones} exceeds sample count {n}");
    let p_hat = (ones.max(n - ones)) as f64 / n as f64;
    // 99% upper confidence bound per SP 800-90B §6.3.1.
    let p_u = (p_hat + 2.576 * (p_hat * (1.0 - p_hat) / (n as f64 - 1.0).max(1.0)).sqrt()).min(1.0);
    -p_u.log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_entropy_extremes() {
        assert_eq!(min_entropy_bit(0.0), 0.0);
        assert_eq!(min_entropy_bit(1.0), 0.0);
        assert_eq!(min_entropy_bit(0.5), 1.0);
    }

    #[test]
    fn min_entropy_is_symmetric() {
        for p in [0.1, 0.25, 0.4] {
            assert!((min_entropy_bit(p) - min_entropy_bit(1.0 - p)).abs() < 1e-15);
        }
    }

    #[test]
    fn min_entropy_below_shannon() {
        for p in [0.05, 0.2, 0.37, 0.45] {
            assert!(min_entropy_bit(p) <= shannon_entropy_bit(p) + 1e-15);
        }
    }

    #[test]
    fn paper_scale_noise_entropy() {
        // A population where 86% of cells are fully stable and the rest have
        // p = 0.5 would have average noise min-entropy 0.14 bits. The paper's
        // measured values (~0.03) reflect milder instability.
        let probs = (0..100).map(|i| if i < 86 { 1.0 } else { 0.5 });
        assert!((average_min_entropy(probs) - 0.14).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn average_of_empty_panics() {
        average_min_entropy(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_probability_panics() {
        min_entropy_bit(1.2);
    }

    #[test]
    fn shannon_entropy_known_value() {
        // H(0.25) = 0.811278...
        assert!((shannon_entropy_bit(0.25) - 0.811_278_124_459_132_8).abs() < 1e-12);
    }

    #[test]
    fn mcv_estimate_penalizes_small_samples() {
        let small = mcv_estimate(50, 100);
        let large = mcv_estimate(50_000, 100_000);
        assert!(
            small < large,
            "small-sample bound must be more conservative"
        );
        assert!(large <= 1.0);
    }

    #[test]
    fn mcv_estimate_of_constant_source_is_zero() {
        assert_eq!(mcv_estimate(0, 1000), 0.0);
        assert_eq!(mcv_estimate(1000, 1000), 0.0);
    }
}
