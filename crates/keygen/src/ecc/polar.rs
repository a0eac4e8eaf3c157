//! Binary polar codes with successive-cancellation decoding.
//!
//! The paper's reference \[13\] (Chen et al., GLOBECOM 2017) builds a robust
//! SRAM-PUF key generator on polar codes; this module provides that
//! alternative to the Golay ⊗ repetition concatenation. The construction is
//! the classic Arıkan scheme:
//!
//! * **Construction**: channel reliabilities are estimated with the
//!   Bhattacharyya-parameter recursion (`z⁻ = 2z − z²`, `z⁺ = z²`) from the
//!   design crossover probability; the `k` most reliable synthetic channels
//!   carry information, the rest are frozen to zero.
//! * **Encoding**: the recursive `[enc(u₁) ⊕ enc(u₂), enc(u₂)]` butterfly
//!   (`x = u·F^{⊗log₂ n}` without bit reversal).
//! * **Decoding**: successive cancellation over log-likelihood ratios with
//!   the min-sum `f` and exact `g` kernels, run in one `n`-entry scratch
//!   buffer with in-place partial sums. Sub-blocks whose every position is
//!   frozen decode to zeros without evaluating their LLRs: a frozen
//!   decision ignores its LLR, so the shortcut is exact. Rate-1 and
//!   single-parity-check shortcuts are not: where an LLR is exactly zero
//!   they can decide differently from SC, which resolves every zero to a 0
//!   bit.

use crate::ecc::{BlockCode, DecodeError};
use pufbits::BitVec;

/// A polar code of length `n = 2^m` with `k` information bits, constructed
/// for a binary symmetric channel with the given design crossover
/// probability.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufkeygen::ecc::{BlockCode, PolarCode};
///
/// let code = PolarCode::new(256, 64, 0.05)?;
/// let msg = BitVec::from_bits((0..64).map(|i| i % 3 == 0));
/// let mut word = code.encode(&msg);
/// // A few bit errors are decoded through.
/// for i in [5, 77, 200] {
///     word.set(i, !word.get(i).unwrap());
/// }
/// assert_eq!(code.decode(&word)?, msg);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolarCode {
    n: usize,
    k: usize,
    design_p: f64,
    /// Frozen flags of the decoding tree in heap order: node 1 is the whole
    /// block, node `i` has the halves `2i` and `2i + 1`, and the leaves
    /// `n..2n` are the u-domain positions. A node is `true` when every
    /// position under it is frozen.
    frozen: Vec<bool>,
}

/// Error for invalid polar-code parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPolarParametersError {
    /// Requested block length.
    pub n: usize,
    /// Requested information bits.
    pub k: usize,
}

impl std::fmt::Display for InvalidPolarParametersError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid polar parameters: n = {} must be a power of two ≥ 2 and 0 < k = {} ≤ n",
            self.n, self.k
        )
    }
}

impl std::error::Error for InvalidPolarParametersError {}

impl PolarCode {
    /// Constructs the code.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPolarParametersError`] unless `n` is a power of two
    /// (≥ 2) and `0 < k ≤ n`.
    ///
    /// # Panics
    ///
    /// Panics if `design_p` is outside `(0, 0.5)`.
    pub fn new(n: usize, k: usize, design_p: f64) -> Result<Self, InvalidPolarParametersError> {
        if n < 2 || !n.is_power_of_two() || k == 0 || k > n {
            return Err(InvalidPolarParametersError { n, k });
        }
        assert!(
            design_p > 0.0 && design_p < 0.5,
            "design crossover must be in (0, 0.5), got {design_p}"
        );
        // Bhattacharyya recursion, halves layout to match the recursive
        // encoder/decoder: first half = minus (worse), second half = plus.
        let mut z = vec![2.0 * (design_p * (1.0 - design_p)).sqrt()];
        while z.len() < n {
            let mut next = Vec::with_capacity(z.len() * 2);
            next.extend(z.iter().map(|&zi| (2.0 * zi - zi * zi).min(1.0)));
            next.extend(z.iter().map(|&zi| zi * zi));
            z = next;
        }
        // Freeze the n−k least reliable (largest z) channels.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| z[a].total_cmp(&z[b]));
        let mut frozen = vec![true; 2 * n];
        for &i in order.iter().take(k) {
            frozen[n + i] = false;
        }
        for node in (1..n).rev() {
            frozen[node] = frozen[2 * node] && frozen[2 * node + 1];
        }
        Ok(Self {
            n,
            k,
            design_p,
            frozen,
        })
    }

    /// The frozen-position mask (u-domain), mostly useful for inspection.
    pub fn frozen_mask(&self) -> &[bool] {
        &self.frozen[self.n..]
    }

    /// The design crossover probability.
    pub fn design_p(&self) -> f64 {
        self.design_p
    }

    fn encode_in_place(x: &mut [u8]) {
        let n = x.len();
        if n == 1 {
            return;
        }
        let (first, second) = x.split_at_mut(n / 2);
        Self::encode_in_place(first);
        Self::encode_in_place(second);
        for i in 0..n / 2 {
            first[i] ^= second[i];
        }
    }

    /// Successive-cancellation decode of tree node `node`, whose input LLRs
    /// are `llr`. `below` (as long as `llr`) is the scratch for the LLRs of
    /// the node's descendants: a child's input goes in its upper half.
    /// Writes the node's re-encoded bits `x` in place and pushes its
    /// information bits onto `message`.
    fn sc_decode(
        &self,
        node: usize,
        llr: &[f64],
        below: &mut [f64],
        x: &mut [u8],
        message: &mut BitVec,
    ) {
        if self.frozen[node] {
            x.fill(0);
            return;
        }
        if let [llr] = llr {
            let bit = u8::from(*llr < 0.0);
            x[0] = bit;
            message.push(bit == 1);
            return;
        }
        let half = llr.len() / 2;
        let (a, b) = llr.split_at(half);
        let (below, child) = below.split_at_mut(half);
        let (x1, x2) = x.split_at_mut(half);
        for ((c, &a), &b) in child.iter_mut().zip(a).zip(b) {
            *c = f(a, b);
        }
        self.sc_decode(2 * node, child, below, x1, message);
        for (((c, &a), &b), &x) in child.iter_mut().zip(a).zip(b).zip(x1.iter()) {
            *c = g(a, b, x);
        }
        self.sc_decode(2 * node + 1, child, below, x2, message);
        for (x1, &x2) in x1.iter_mut().zip(x2.iter()) {
            *x1 ^= x2;
        }
    }
}

/// The min-sum check-node combine.
#[inline]
fn f(a: f64, b: f64) -> f64 {
    a.signum() * b.signum() * a.abs().min(b.abs())
}

/// The variable-node combine given the partial sum `x` of the first half.
#[inline]
fn g(a: f64, b: f64, x: u8) -> f64 {
    if x == 1 {
        b - a
    } else {
        b + a
    }
}

impl BlockCode for PolarCode {
    fn message_bits(&self) -> usize {
        self.k
    }

    fn codeword_bits(&self) -> usize {
        self.n
    }

    /// Polar SC decoding has no deterministic correction radius; the
    /// guaranteed floor is zero even though typical performance at the
    /// design rate is excellent. Callers needing certainty should rely on
    /// the extractor's key check.
    fn correctable_errors(&self) -> usize {
        0
    }

    fn encode(&self, message: &BitVec) -> BitVec {
        assert_eq!(message.len(), self.k, "polar messages are {} bits", self.k);
        let mut u = vec![0u8; self.n];
        let mut next = 0;
        for (i, &is_frozen) in self.frozen_mask().iter().enumerate() {
            if !is_frozen {
                u[i] = u8::from(message.get(next).expect("length checked"));
                next += 1;
            }
        }
        Self::encode_in_place(&mut u);
        u.iter().map(|&b| b == 1).collect()
    }

    fn decode(&self, word: &BitVec) -> Result<BitVec, DecodeError> {
        if word.len() != self.n {
            return Err(DecodeError::length_mismatch(word.len(), self.n));
        }
        let llr_mag = ((1.0 - self.design_p) / self.design_p).ln();
        let channel = |i: usize| {
            if word.get(i) == Some(true) {
                -llr_mag
            } else {
                llr_mag
            }
        };
        // The root's input is the channel, read straight from `word`; the
        // scratch holds the inputs of every node below it.
        let half = self.n / 2;
        let mut scratch = vec![0.0; self.n];
        let mut x = vec![0u8; self.n];
        let mut message = BitVec::new();
        let (below, child) = scratch.split_at_mut(half);
        let (x1, x2) = x.split_at_mut(half);
        for (i, c) in child.iter_mut().enumerate() {
            *c = f(channel(i), channel(i + half));
        }
        self.sc_decode(2, child, below, x1, &mut message);
        for (i, c) in child.iter_mut().enumerate() {
            *c = g(channel(i), channel(i + half), x1[i]);
        }
        self.sc_decode(3, child, below, x2, &mut message);
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn code() -> PolarCode {
        PolarCode::new(256, 64, 0.05).unwrap()
    }

    fn random_message(k: usize, rng: &mut StdRng) -> BitVec {
        BitVec::from_bits((0..k).map(|_| rng.gen::<bool>()))
    }

    #[test]
    fn construction_freezes_the_right_count() {
        let c = code();
        assert_eq!(c.frozen_mask().iter().filter(|&&f| f).count(), 256 - 64);
        assert_eq!(c.message_bits(), 64);
        assert_eq!(c.codeword_bits(), 256);
        // The first u-channel is the worst and must always be frozen.
        assert!(c.frozen_mask()[0]);
        // The last u-channel is the best and must carry information.
        assert!(!c.frozen_mask()[255]);
    }

    #[test]
    fn clean_round_trip() {
        let c = code();
        let mut rng = StdRng::seed_from_u64(170);
        for _ in 0..50 {
            let msg = random_message(64, &mut rng);
            assert_eq!(c.decode(&c.encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn encoding_is_linear() {
        let c = code();
        let mut rng = StdRng::seed_from_u64(171);
        let a = random_message(64, &mut rng);
        let b = random_message(64, &mut rng);
        assert_eq!(c.encode(&a).xor(&c.encode(&b)), c.encode(&a.xor(&b)));
    }

    #[test]
    fn corrects_paper_scale_noise() {
        // Rate 1/4 at the paper's worst-case end-of-life BER (3.25 %):
        // SC decoding should essentially never fail.
        let c = code();
        let mut rng = StdRng::seed_from_u64(172);
        let mut failures = 0;
        for _ in 0..300 {
            let msg = random_message(64, &mut rng);
            let mut word = c.encode(&msg);
            for i in 0..word.len() {
                if rng.gen::<f64>() < 0.0325 {
                    word.set(i, !word.get(i).unwrap());
                }
            }
            if c.decode(&word).unwrap() != msg {
                failures += 1;
            }
        }
        assert_eq!(failures, 0, "SC failures at paper BER");
    }

    #[test]
    fn fails_gracefully_under_heavy_noise() {
        // 30 % BER is beyond any rate-1/4 code's capability; decoding
        // still returns *something* (the key check upstream rejects it).
        let c = code();
        let mut rng = StdRng::seed_from_u64(173);
        let msg = random_message(64, &mut rng);
        let mut word = c.encode(&msg);
        for i in 0..word.len() {
            if rng.gen::<f64>() < 0.30 {
                word.set(i, !word.get(i).unwrap());
            }
        }
        let decoded = c.decode(&word).unwrap();
        assert_eq!(decoded.len(), 64);
    }

    #[test]
    fn higher_rate_is_less_robust() {
        let mut rng = StdRng::seed_from_u64(174);
        let low_rate = PolarCode::new(256, 64, 0.05).unwrap();
        let high_rate = PolarCode::new(256, 192, 0.05).unwrap();
        let trials = 150;
        let fail_count = |c: &PolarCode, rng: &mut StdRng| {
            let mut failures = 0;
            for _ in 0..trials {
                let msg = random_message(c.message_bits(), rng);
                let mut word = c.encode(&msg);
                for i in 0..word.len() {
                    if rng.gen::<f64>() < 0.06 {
                        word.set(i, !word.get(i).unwrap());
                    }
                }
                if c.decode(&word).unwrap() != msg {
                    failures += 1;
                }
            }
            failures
        };
        let low = fail_count(&low_rate, &mut rng);
        let high = fail_count(&high_rate, &mut rng);
        assert!(low < high, "rate 1/4: {low} failures, rate 3/4: {high}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(PolarCode::new(100, 50, 0.05).is_err()); // not a power of 2
        assert!(PolarCode::new(256, 0, 0.05).is_err());
        assert!(PolarCode::new(256, 257, 0.05).is_err());
        assert!(PolarCode::new(1, 1, 0.05).is_err());
        let err = PolarCode::new(100, 50, 0.05).unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    #[should_panic(expected = "design crossover")]
    fn invalid_design_p_panics() {
        let _ = PolarCode::new(256, 64, 0.7);
    }

    #[test]
    fn all_zero_message_gives_all_zero_codeword() {
        let c = code();
        let word = c.encode(&BitVec::zeros(64));
        assert_eq!(word.count_ones(), 0);
    }
}
