//! The repetition code: the classic inner code of SRAM PUF key generators.

use crate::ecc::{BlockCode, DecodeError};
use pufbits::BitVec;
use std::error::Error;
use std::fmt;

/// Repetition code of odd length `n`: one message bit becomes `n` copies,
/// decoded by majority vote. Corrects `(n-1)/2` errors per block.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufkeygen::ecc::{BlockCode, Repetition};
///
/// let rep = Repetition::new(5)?;
/// let word = rep.encode(&BitVec::from_bits([true]));
/// assert_eq!(word, BitVec::ones(5));
/// # Ok::<(), pufkeygen::ecc::EvenRepetitionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repetition {
    n: usize,
}

/// Error for invalid repetition lengths (must be odd and positive, so that
/// majority voting has no ties).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvenRepetitionError {
    /// The rejected length.
    pub n: usize,
}

impl fmt::Display for EvenRepetitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repetition length must be odd and positive, got {}",
            self.n
        )
    }
}

impl Error for EvenRepetitionError {}

impl Repetition {
    /// Creates a repetition code of odd length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`EvenRepetitionError`] if `n` is even or zero.
    pub fn new(n: usize) -> Result<Self, EvenRepetitionError> {
        if n == 0 || n.is_multiple_of(2) {
            Err(EvenRepetitionError { n })
        } else {
            Ok(Self { n })
        }
    }

    /// Probability that a block decodes wrongly when each bit flips i.i.d.
    /// with probability `p` — the inner-code failure rate used to dimension
    /// the concatenation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn block_error_probability(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "bit error rate out of range");
        let n = self.n;
        let t = n / 2;
        // Sum of P(#errors > t) = Σ_{k=t+1}^{n} C(n,k) p^k (1-p)^(n-k).
        let mut total = 0.0;
        for k in (t + 1)..=n {
            total += binomial(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
        }
        total
    }

    /// The majority decision for a block holding `ones` one bits; an odd
    /// length never ties.
    pub(crate) fn majority(&self, ones: usize) -> bool {
        ones * 2 > self.n
    }
}

fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

impl BlockCode for Repetition {
    fn message_bits(&self) -> usize {
        1
    }

    fn codeword_bits(&self) -> usize {
        self.n
    }

    fn correctable_errors(&self) -> usize {
        (self.n - 1) / 2
    }

    fn encode(&self, message: &BitVec) -> BitVec {
        assert_eq!(message.len(), 1, "repetition encodes one bit at a time");
        let bit = message.get(0).expect("length checked");
        BitVec::from_bits(std::iter::repeat_n(bit, self.n))
    }

    fn decode(&self, word: &BitVec) -> Result<BitVec, DecodeError> {
        if word.len() != self.n {
            return Err(DecodeError::length_mismatch(word.len(), self.n));
        }
        // Majority over an odd count never ties; decoding cannot fail.
        Ok(BitVec::from_bits([self.majority(word.count_ones())]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_corrects_up_to_capacity() {
        let rep = Repetition::new(7).unwrap();
        let mut word = rep.encode(&BitVec::from_bits([true]));
        for i in 0..rep.correctable_errors() {
            word.set(i, false);
        }
        assert_eq!(rep.decode(&word).unwrap(), BitVec::from_bits([true]));
        // One more error flips the majority.
        word.set(3, false);
        assert_eq!(rep.decode(&word).unwrap(), BitVec::from_bits([false]));
    }

    #[test]
    fn even_or_zero_lengths_rejected() {
        assert!(Repetition::new(0).is_err());
        assert!(Repetition::new(4).is_err());
        assert!(Repetition::new(4).unwrap_err().to_string().contains("odd"));
        assert!(Repetition::new(1).is_ok());
    }

    #[test]
    fn block_error_probability_known_values() {
        let rep = Repetition::new(3).unwrap();
        // P(≥2 of 3 flip) with p = 0.1: 3·0.01·0.9 + 0.001 = 0.028.
        assert!((rep.block_error_probability(0.1) - 0.028).abs() < 1e-12);
        assert_eq!(rep.block_error_probability(0.0), 0.0);
        assert_eq!(rep.block_error_probability(1.0), 1.0);
    }

    #[test]
    fn block_error_probability_shrinks_with_length() {
        let p = 0.0325; // paper worst-case end-of-life BER
        let e3 = Repetition::new(3).unwrap().block_error_probability(p);
        let e5 = Repetition::new(5).unwrap().block_error_probability(p);
        let e7 = Repetition::new(7).unwrap().block_error_probability(p);
        assert!(e3 > e5 && e5 > e7);
        assert!(e5 < 1e-3, "rep-5 residual {e5}");
    }

    #[test]
    #[should_panic(expected = "one bit at a time")]
    fn multi_bit_message_rejected() {
        Repetition::new(3)
            .unwrap()
            .encode(&BitVec::from_bits([true, false]));
    }
}
