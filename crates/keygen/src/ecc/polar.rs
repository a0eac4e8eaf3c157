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
//!   the min-sum `f` and exact `g` kernels, run in one `2n`-entry scratch
//!   buffer (the channel, then every node's input) with in-place partial
//!   sums. Sub-blocks whose every position is frozen decode to zeros
//!   without evaluating their LLRs: a frozen decision ignores its LLR, so
//!   the shortcut is exact. Rate-1 and single-parity-check shortcuts are
//!   not: where an LLR is exactly zero they can decide differently from
//!   SC, which resolves every zero to a 0 bit.

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
    ///
    /// Every node has at least two positions: a two-position node decides
    /// its leaves in place. A half that is all frozen is not evaluated,
    /// since nothing reads its LLRs: a frozen first half leaves `x1 = 0`,
    /// so the second half's input is `g(a, b, 0) = b + a`, and a frozen
    /// second half leaves the first half's bits as they are.
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
        let (first, second) = (2 * node, 2 * node + 1);
        if let &[a, b] = llr {
            let u1 = if self.frozen[first] {
                0
            } else {
                decide(f(a, b), message)
            };
            let u2 = if self.frozen[second] {
                0
            } else {
                decide(g(a, b, u1), message)
            };
            x[0] = u1 ^ u2;
            x[1] = u2;
            return;
        }
        let half = llr.len() / 2;
        let (a, b) = llr.split_at(half);
        let (below, child) = below.split_at_mut(half);
        let (x1, x2) = x.split_at_mut(half);
        if self.frozen[first] {
            for ((c, &a), &b) in child.iter_mut().zip(a).zip(b) {
                *c = b + a;
            }
            self.sc_decode(second, child, below, x2, message);
            // x1 ^ x2 with x1 = 0.
            x1.copy_from_slice(x2);
            return;
        }
        for ((c, &a), &b) in child.iter_mut().zip(a).zip(b) {
            *c = f(a, b);
        }
        self.sc_decode(first, child, below, x1, message);
        if self.frozen[second] {
            x2.fill(0);
            return;
        }
        for (((c, &a), &b), &x) in child.iter_mut().zip(a).zip(b).zip(x1.iter()) {
            *c = g(a, b, x);
        }
        self.sc_decode(second, child, below, x2, message);
        for (x1, &x2) in x1.iter_mut().zip(x2.iter()) {
            *x1 ^= x2;
        }
    }
}

const SIGN_BIT: u64 = 1 << 63;

/// The min-sum check-node combine: magnitude `min(|a|, |b|)`, sign bit
/// `sign(a) XOR sign(b)`. This is `a.signum() * b.signum() * min(|a|, |b|)`
/// for every non-NaN input, signed zeros included (`signum(-0.0)` is −1),
/// without the two multiplications.
#[inline]
fn f(a: f64, b: f64) -> f64 {
    let sign = (a.to_bits() ^ b.to_bits()) & SIGN_BIT;
    f64::from_bits(a.abs().min(b.abs()).to_bits() | sign)
}

/// The variable-node combine given the partial sum `x` (0 or 1) of the
/// first half: `b + a`, with `a`'s sign bit flipped when `x` is 1. IEEE 754
/// defines `b − a` as `b + (−a)`, so this is the branchy `b ± a` exactly.
#[inline]
fn g(a: f64, b: f64, x: u8) -> f64 {
    b + f64::from_bits(a.to_bits() ^ (u64::from(x) << 63))
}

/// The SC hard decision: a negative LLR is a 1 bit, anything else (an
/// exact zero included) a 0 bit. Pushes the bit onto `message`.
#[inline]
fn decide(llr: f64, message: &mut BitVec) -> u8 {
    let bit = u8::from(llr < 0.0);
    message.push(bit == 1);
    bit
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
        // The root's input is the channel: `llr_mag` (positive, as
        // `design_p < 0.5`) with the word's bit as its sign bit. The rest
        // of the scratch holds the inputs of every node below the root.
        let mut scratch = vec![0.0; 2 * self.n];
        let (below, channel) = scratch.split_at_mut(self.n);
        for (llrs, &bits) in channel.chunks_mut(64).zip(word.as_words()) {
            for (i, llr) in llrs.iter_mut().enumerate() {
                *llr = f64::from_bits(llr_mag.to_bits() | (bits >> i) << 63);
            }
        }
        let mut x = vec![0u8; self.n];
        let mut message = BitVec::new();
        self.sc_decode(1, channel, below, &mut x, &mut message);
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

    /// The plain SC decoder, kept verbatim from before `decode` was tuned
    /// (only `self` became `code`), as the oracle for `decode`:
    /// per-position channel reads, the `signum` product in `f`, the branch
    /// in `g`, and one recursive call per child down to the leaves.
    mod oracle {
        use super::super::PolarCode;
        use pufbits::BitVec;

        fn sc_decode(
            code: &PolarCode,
            node: usize,
            llr: &[f64],
            below: &mut [f64],
            x: &mut [u8],
            message: &mut BitVec,
        ) {
            if code.frozen[node] {
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
            sc_decode(code, 2 * node, child, below, x1, message);
            for (((c, &a), &b), &x) in child.iter_mut().zip(a).zip(b).zip(x1.iter()) {
                *c = g(a, b, x);
            }
            sc_decode(code, 2 * node + 1, child, below, x2, message);
            for (x1, &x2) in x1.iter_mut().zip(x2.iter()) {
                *x1 ^= x2;
            }
        }

        fn f(a: f64, b: f64) -> f64 {
            a.signum() * b.signum() * a.abs().min(b.abs())
        }

        fn g(a: f64, b: f64, x: u8) -> f64 {
            if x == 1 {
                b - a
            } else {
                b + a
            }
        }

        pub(super) fn decode(code: &PolarCode, word: &BitVec) -> BitVec {
            assert_eq!(word.len(), code.n);
            let llr_mag = ((1.0 - code.design_p) / code.design_p).ln();
            let channel = |i: usize| {
                if word.get(i) == Some(true) {
                    -llr_mag
                } else {
                    llr_mag
                }
            };
            let half = code.n / 2;
            let mut scratch = vec![0.0; code.n];
            let mut x = vec![0u8; code.n];
            let mut message = BitVec::new();
            let (below, child) = scratch.split_at_mut(half);
            let (x1, x2) = x.split_at_mut(half);
            for (i, c) in child.iter_mut().enumerate() {
                *c = f(channel(i), channel(i + half));
            }
            sc_decode(code, 2, child, below, x1, &mut message);
            for (i, c) in child.iter_mut().enumerate() {
                *c = g(channel(i), channel(i + half), x1[i]);
            }
            sc_decode(code, 3, child, below, x2, &mut message);
            message
        }
    }

    /// Words that exercise `code`: seeded codewords at bit error rates 0,
    /// 0.03, 0.15 and 0.5, and words whose halves repeat or complement each
    /// other. The latter make `g` cancel to exact-zero LLRs (`b − a` with
    /// `a = b`, `b + a` with `a = −b`), which SC must decide as 0 bits.
    fn oracle_words(code: &PolarCode, rng: &mut StdRng) -> Vec<BitVec> {
        let n = code.codeword_bits();
        let mut words = Vec::new();
        for ber in [0.0, 0.03, 0.15, 0.5] {
            for _ in 0..6 {
                let msg = random_message(code.message_bits(), rng);
                let mut word = code.encode(&msg);
                for i in 0..n {
                    if rng.gen::<f64>() < ber {
                        word.set(i, !word.get(i).unwrap());
                    }
                }
                words.push(word);
            }
        }
        for _ in 0..3 {
            let half: Vec<bool> = (0..n / 2).map(|_| rng.gen()).collect();
            let repeat = half.iter().chain(&half).copied();
            let complement = half.iter().copied().chain(half.iter().map(|&b| !b));
            words.push(BitVec::from_bits(repeat));
            words.push(BitVec::from_bits(complement));
        }
        words.push(BitVec::zeros(n));
        words.push(BitVec::ones(n));
        words.push(BitVec::from_bits((0..n).map(|i| i % 2 == 1)));
        words.push(BitVec::from_bits((0..n).map(|i| i % 3 == 0)));
        words
    }

    fn assert_matches_oracle(code: &PolarCode, rng: &mut StdRng) {
        for word in oracle_words(code, rng) {
            assert_eq!(
                code.decode(&word).unwrap(),
                oracle::decode(code, &word),
                "n = {}, k = {}, p = {}, frozen {:?}, word {word:?}",
                code.n,
                code.k,
                code.design_p,
                code.frozen_mask()
            );
        }
    }

    /// A code of length `n` whose u-domain frozen mask is `leaves`, set
    /// through the private field, so the oracle covers frozen sets the
    /// construction never makes.
    fn with_frozen(n: usize, design_p: f64, leaves: &[bool]) -> PolarCode {
        let k = leaves.iter().filter(|&&frozen| !frozen).count();
        let mut code = PolarCode::new(n, k, design_p).unwrap();
        code.frozen[n..].copy_from_slice(leaves);
        for node in (1..n).rev() {
            code.frozen[node] = code.frozen[2 * node] && code.frozen[2 * node + 1];
        }
        code
    }

    #[test]
    fn decode_matches_the_oracle_on_every_constructed_code() {
        let mut rng = StdRng::seed_from_u64(175);
        for m in 1..=10 {
            let n = 1usize << m;
            let mut ks = vec![1, n / 8, n / 4, n / 2, n - 1, n];
            ks.retain(|&k| k > 0);
            ks.dedup();
            for k in ks {
                for p in [0.01, 0.05, 0.2, 0.45] {
                    assert_matches_oracle(&PolarCode::new(n, k, p).unwrap(), &mut rng);
                }
            }
        }
    }

    #[test]
    fn decode_matches_the_oracle_on_arbitrary_frozen_sets() {
        let mut rng = StdRng::seed_from_u64(176);
        for m in 1..=10 {
            let n = 1usize << m;
            let mut masks = Vec::new();
            for frozen_share in [0.1, 0.5, 0.9] {
                for _ in 0..3 {
                    let mut mask: Vec<bool> =
                        (0..n).map(|_| rng.gen::<f64>() < frozen_share).collect();
                    // A code carries at least one information bit.
                    let keep = rng.gen_range(0..n);
                    mask[keep] = false;
                    masks.push(mask);
                }
            }
            for open in [0, n / 2, n - 1, rng.gen_range(0..n)] {
                let mut all_but_one = vec![true; n];
                all_but_one[open] = false;
                masks.push(all_but_one);
            }
            masks.push(vec![false; n]);
            for mask in masks {
                for p in [0.05, 0.45] {
                    assert_matches_oracle(&with_frozen(n, p, &mask), &mut rng);
                }
            }
        }
    }
}
