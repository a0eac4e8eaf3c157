//! Debiasing of biased PUF responses (the paper's ref \[14\]).
//!
//! The paper measures a fractional Hamming weight of 60–70 % — the SRAM
//! prefers `1`. A code-offset extractor built directly on such a response
//! leaks key information through the helper data. *Index-based pair
//! selection* (a von-Neumann-style scheme in the spirit of Maes et al.,
//! CHES 2015) fixes this at enrollment time: the response is scanned in
//! non-overlapping pairs, and only pairs whose two bits differ contribute
//! (their first bit). The selection mask becomes public helper data; because
//! a `01` pair is exactly as likely as a `10` pair, the selected bits are
//! unbiased, and the mask itself reveals nothing about their values.

use pufbits::BitVec;
use std::error::Error;
use std::fmt;

/// Error returned when a debias mask does not fit the response it is
/// applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskLengthError {
    /// Mask length in bits.
    pub mask: usize,
    /// Response length in bits.
    pub response: usize,
}

impl fmt::Display for MaskLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "debias mask is {} bits but the response is {} bits",
            self.mask, self.response
        )
    }
}

impl Error for MaskLengthError {}

/// The enrollment-time output of pair-selection debiasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebiasSelection {
    /// Mask over the original response: ones mark the *first bit* of every
    /// selected (differing) pair. Public helper data.
    pub mask: BitVec,
    /// The debiased bits, one per selected pair.
    pub bits: BitVec,
}

/// Runs pair-selection debiasing over an enrollment response.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufkeygen::debias::enroll_debias;
///
/// //                              pair:  (1,1)  (0,1)  (1,0)  (0,0)
/// let response = BitVec::from_bits([true, true, false, true, true, false, false, false]);
/// let sel = enroll_debias(&response);
/// assert_eq!(sel.bits, BitVec::from_bits([false, true]));
/// assert_eq!(sel.mask.count_ones(), 2);
/// ```
pub fn enroll_debias(response: &BitVec) -> DebiasSelection {
    // Differing pairs are found a whole word at a time:
    // `(w ^ (w >> 1)) & 0x5555…` marks the first bit of every selected pair.
    let mut mask_words = Vec::new();
    let mut bits_words = Vec::new();
    let count = pufbits::kernel::pair_select(
        response.as_words(),
        response.len(),
        &mut mask_words,
        &mut bits_words,
    );
    DebiasSelection {
        mask: BitVec::from_words(mask_words, response.len()),
        bits: BitVec::from_words(bits_words, count),
    }
}

/// Re-extracts the debiased bits from a later (noisy) response using the
/// enrollment mask: the bit at each marked position is taken as-is, up to
/// the first `limit` of them (all of them when the mask marks fewer). A
/// reconstruction takes only the bits its codeword covers, usually far
/// fewer than the mask marks, and the extraction costs one step per bit
/// taken.
///
/// Noise on either bit of a selected pair can flip the extracted bit; the
/// error-correcting layer above absorbs that (the effective bit error rate
/// roughly matches the raw response's).
///
/// # Errors
///
/// Returns [`MaskLengthError`] if the mask length does not match the
/// response — helper data from another device or a truncated store must
/// surface as a typed error, never a panic.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufkeygen::debias::{enroll_debias, reconstruct_debias};
///
/// let response = BitVec::from_bits([false, true, true, false, true, false]);
/// let sel = enroll_debias(&response);
/// assert_eq!(reconstruct_debias(&response, &sel.mask, usize::MAX)?, sel.bits);
/// assert_eq!(reconstruct_debias(&response, &sel.mask, 2)?, sel.bits.prefix(2));
/// # Ok::<(), pufkeygen::debias::MaskLengthError>(())
/// ```
pub fn reconstruct_debias(
    response: &BitVec,
    mask: &BitVec,
    limit: usize,
) -> Result<BitVec, MaskLengthError> {
    if response.len() != mask.len() {
        return Err(MaskLengthError {
            mask: mask.len(),
            response: response.len(),
        });
    }
    // Cut the stream just past the `limit`-th set mask bit.
    let mut cut = mask.len();
    let mut remaining = limit;
    for (w, &word) in mask.as_words().iter().enumerate() {
        let ones = word.count_ones() as usize;
        if remaining <= ones {
            let mut rest = word;
            for _ in 0..remaining {
                rest &= rest - 1;
            }
            let taken = word ^ rest;
            cut = w * 64 + (64 - taken.leading_zeros() as usize);
            break;
        }
        remaining -= ones;
    }
    let mut words = Vec::new();
    let count = pufbits::kernel::select(response.as_words(), mask.as_words(), cut, &mut words);
    Ok(BitVec::from_words(words, count))
}

/// Expected debiased yield per input bit for a response with one-probability
/// `p`: a pair differs with probability `2p(1−p)`, contributing one bit per
/// two input bits.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// // At the paper's 62.7 % bias, about 23 % of input bits survive.
/// let y = pufkeygen::debias::expected_yield(0.627);
/// assert!((y - 0.2337).abs() < 1e-3);
/// ```
pub fn expected_yield(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    p * (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn biased_response(n: usize, p: f64, seed: u64) -> BitVec {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<f64>() < p).collect()
    }

    #[test]
    fn output_is_unbiased_even_for_biased_input() {
        let response = biased_response(200_000, 0.627, 90);
        let sel = enroll_debias(&response);
        let fhw = sel.bits.fractional_hamming_weight();
        assert!((fhw - 0.5).abs() < 0.01, "debiased fhw {fhw}");
    }

    #[test]
    fn yield_matches_prediction() {
        let p = 0.627;
        let response = biased_response(100_000, p, 91);
        let sel = enroll_debias(&response);
        let measured = sel.bits.len() as f64 / response.len() as f64;
        assert!((measured - expected_yield(p)).abs() < 0.01);
    }

    #[test]
    fn mask_marks_exactly_the_selected_pairs() {
        let response = biased_response(1000, 0.5, 92);
        let sel = enroll_debias(&response);
        assert_eq!(sel.mask.count_ones(), sel.bits.len());
        // Every marked index is even (first bit of a pair).
        for i in 0..sel.mask.len() {
            if sel.mask.get(i) == Some(true) {
                assert_eq!(i % 2, 0);
            }
        }
    }

    #[test]
    fn reconstruction_is_exact_without_noise() {
        let response = biased_response(4096, 0.627, 93);
        let sel = enroll_debias(&response);
        assert_eq!(
            reconstruct_debias(&response, &sel.mask, usize::MAX).unwrap(),
            sel.bits
        );
    }

    #[test]
    fn noise_propagates_at_comparable_rate() {
        let response = biased_response(100_000, 0.627, 94);
        let sel = enroll_debias(&response);
        // Flip 3 % of the raw response.
        let mut rng = StdRng::seed_from_u64(95);
        let mut noisy = response.clone();
        for i in 0..noisy.len() {
            if rng.gen::<f64>() < 0.03 {
                noisy.set(i, !noisy.get(i).unwrap());
            }
        }
        let bits = reconstruct_debias(&noisy, &sel.mask, usize::MAX).unwrap();
        let ber = bits.fractional_hamming_distance(&sel.bits);
        // Only the first bit of each pair is re-read, so the debiased BER
        // tracks the raw BER.
        assert!((0.01..=0.06).contains(&ber), "debiased ber {ber}");
    }

    #[test]
    fn odd_length_responses_drop_the_last_bit() {
        let response = BitVec::from_bits([true, false, true]);
        let sel = enroll_debias(&response);
        assert_eq!(sel.bits.len(), 1);
        assert_eq!(sel.mask.len(), 3);
        // The mask still replays over the odd-length response.
        assert_eq!(
            reconstruct_debias(&response, &sel.mask, usize::MAX).unwrap(),
            sel.bits
        );
    }

    #[test]
    fn empty_response_yields_empty_selection() {
        let sel = enroll_debias(&BitVec::new());
        assert!(sel.bits.is_empty());
        assert!(sel.mask.is_empty());
        assert_eq!(
            reconstruct_debias(&BitVec::new(), &sel.mask, usize::MAX).unwrap(),
            BitVec::new()
        );
    }

    #[test]
    fn all_identical_bits_select_nothing() {
        for bit in [false, true] {
            let response = BitVec::from_bits(std::iter::repeat_n(bit, 64));
            let sel = enroll_debias(&response);
            assert!(sel.bits.is_empty(), "constant response has no pairs");
            assert_eq!(sel.mask.count_ones(), 0);
            assert!(reconstruct_debias(&response, &sel.mask, usize::MAX)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn enroll_matches_per_pair_scalar_loop_exactly() {
        // The word-parallel pair selection must reproduce the original
        // per-pair scan bit for bit, including odd-length tails.
        for &n in &[0usize, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1001] {
            for seed in 0..4u64 {
                let response = biased_response(n, 0.627, 700 + seed);
                let mut mask = BitVec::zeros(response.len());
                let mut bits = BitVec::new();
                for p in 0..response.len() / 2 {
                    let a = response.get(2 * p).unwrap();
                    let b = response.get(2 * p + 1).unwrap();
                    if a != b {
                        mask.set(2 * p, true);
                        bits.push(a);
                    }
                }
                let sel = enroll_debias(&response);
                assert_eq!(sel.mask, mask, "mask n={n} seed={seed}");
                assert_eq!(sel.bits, bits, "bits n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn mismatched_mask_is_a_typed_error() {
        let response = BitVec::zeros(8);
        let mask = BitVec::zeros(6);
        let err = reconstruct_debias(&response, &mask, usize::MAX).unwrap_err();
        assert_eq!(
            err,
            MaskLengthError {
                mask: 6,
                response: 8
            }
        );
        assert!(err.to_string().contains("6 bits"));
    }
}
