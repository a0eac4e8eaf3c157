//! Error-correcting codes for the helper-data scheme.
//!
//! The fuzzy extractor uses a classic concatenation: an inner
//! [`Repetition`] code knocks the raw PUF bit error rate (≈3 % fresh,
//! ≈3.3 % worst-case after two years of aging — Table I) down by majority
//! voting, and an outer binary [`Golay`] \[23,12,7\] code mops up the
//! residual errors. See [`Concatenated`] for the composition and its
//! failure-rate arithmetic.

mod golay;
mod polar;
mod repetition;

pub use golay::Golay;
pub use polar::{InvalidPolarParametersError, PolarCode};
pub use repetition::{EvenRepetitionError, Repetition};

use pufbits::{kernel, BitVec};
use std::error::Error;
use std::fmt;

/// A binary block code.
///
/// Implementations encode `k`-bit messages into `n`-bit codewords and
/// decode possibly corrupted codewords back.
pub trait BlockCode {
    /// Message length in bits.
    fn message_bits(&self) -> usize;

    /// Codeword length in bits.
    fn codeword_bits(&self) -> usize;

    /// Number of bit errors the code corrects with certainty.
    fn correctable_errors(&self) -> usize;

    /// Encodes one message block.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != self.message_bits()`.
    fn encode(&self, message: &BitVec) -> BitVec;

    /// Decodes one (possibly corrupted) codeword block.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the corruption exceeds the code's
    /// correction capability in a detectable way. (An undetectable
    /// miscorrection returns the wrong message — the fuzzy extractor's key
    /// check catches that case.)
    fn decode(&self, word: &BitVec) -> Result<BitVec, DecodeError>;
}

/// Error returned when a codeword cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Block index at which decoding failed (0 for single-block decodes).
    pub block: usize,
    /// Why the block failed to decode.
    pub kind: DecodeErrorKind,
}

/// Classification of a [`DecodeError`]: noise beyond the code's capability
/// versus a structurally malformed input (which would previously panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The error pattern exceeds the code's detectable correction capability.
    Uncorrectable,
    /// The codeword has the wrong length for this code.
    LengthMismatch {
        /// Bits supplied.
        got: usize,
        /// Bits the code expects.
        expected: usize,
    },
    /// A multi-block word is not a whole number of codeword blocks.
    NotBlockAligned {
        /// Bits supplied.
        got: usize,
        /// Codeword block size.
        block_bits: usize,
    },
    /// A multi-block word covers fewer message bits than requested.
    TooShort {
        /// Message bits the word covers.
        covered: usize,
        /// Message bits requested.
        needed: usize,
    },
}

impl DecodeError {
    /// A codeword of the wrong length (single-block decode).
    pub fn length_mismatch(got: usize, expected: usize) -> Self {
        Self {
            block: 0,
            kind: DecodeErrorKind::LengthMismatch { got, expected },
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DecodeErrorKind::Uncorrectable => {
                write!(f, "uncorrectable error pattern in block {}", self.block)
            }
            DecodeErrorKind::LengthMismatch { got, expected } => write!(
                f,
                "codeword length {got} does not match code ({expected}) in block {}",
                self.block
            ),
            DecodeErrorKind::NotBlockAligned { got, block_bits } => write!(
                f,
                "codeword length {got} is not a multiple of block size {block_bits}"
            ),
            DecodeErrorKind::TooShort { covered, needed } => write!(
                f,
                "codeword covers only {covered} message bits, need {needed}"
            ),
        }
    }
}

impl Error for DecodeError {}

/// Concatenation of an outer code with an inner repetition code: each outer
/// codeword bit is repeated by the inner code.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufkeygen::ecc::{BlockCode, Concatenated, Golay, Repetition};
///
/// let code = Concatenated::new(Golay::new(), Repetition::new(5)?);
/// assert_eq!(code.message_bits(), 12);
/// assert_eq!(code.codeword_bits(), 23 * 5);
///
/// let message = BitVec::from_bits((0..12).map(|i| i % 3 == 0));
/// let mut word = code.encode(&message);
/// // Scatter bit errors: two flipped repetitions of one bit and a single
/// // flip elsewhere are all transparently corrected.
/// word.set(0, !word.get(0).unwrap());
/// word.set(1, !word.get(1).unwrap());
/// word.set(60, !word.get(60).unwrap());
/// assert_eq!(code.decode(&word)?, message);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Concatenated {
    outer: Golay,
    inner: Repetition,
}

impl Concatenated {
    /// Combines an outer Golay code with an inner repetition code.
    pub fn new(outer: Golay, inner: Repetition) -> Self {
        Self { outer, inner }
    }

    /// The inner repetition factor.
    pub fn repetition(&self) -> usize {
        self.inner.codeword_bits()
    }
}

impl BlockCode for Concatenated {
    fn message_bits(&self) -> usize {
        self.outer.message_bits()
    }

    fn codeword_bits(&self) -> usize {
        self.outer.codeword_bits() * self.inner.codeword_bits()
    }

    fn correctable_errors(&self) -> usize {
        // Guaranteed floor: the inner majority absorbs ⌊r/2⌋ errors per
        // repetition group and the outer code 3 group failures; adversarial
        // placement could flip a group with ⌈r/2⌉ errors, so the certain
        // bound is (⌊r/2⌋+1)·3 + ⌊r/2⌋ errors... conservatively we report
        // the simple product floor.
        (self.inner.codeword_bits() / 2 + 1) * (self.outer.correctable_errors() + 1) - 1
    }

    fn encode(&self, message: &BitVec) -> BitVec {
        let outer_word = self.outer.encode(message);
        let mut out = BitVec::new();
        for bit in outer_word.iter() {
            out.append(&self.inner.encode(&BitVec::from_bits([bit])));
        }
        out
    }

    /// Takes each repetition group's majority from one popcount over its
    /// bit range ([`kernel::range_ones`]) and hands the outer code the
    /// decisions as one packed word.
    fn decode(&self, word: &BitVec) -> Result<BitVec, DecodeError> {
        if word.len() != self.codeword_bits() {
            return Err(DecodeError::length_mismatch(
                word.len(),
                self.codeword_bits(),
            ));
        }
        let r = self.inner.codeword_bits();
        let groups = self.outer.codeword_bits();
        let mut outer_word = 0u64;
        for g in 0..groups {
            let ones = kernel::range_ones(word.as_words(), g * r, (g + 1) * r);
            outer_word |= u64::from(self.inner.majority(ones as usize)) << g;
        }
        self.outer
            .decode(&BitVec::from_words(vec![outer_word], groups))
    }
}

/// Encodes a multi-block message with any [`BlockCode`], zero-padding the
/// final block.
///
/// # Panics
///
/// Panics if `message` is empty.
pub fn encode_blocks<C: BlockCode>(code: &C, message: &BitVec) -> BitVec {
    assert!(!message.is_empty(), "cannot encode an empty message");
    let k = code.message_bits();
    let mut out = BitVec::new();
    for start in (0..message.len()).step_by(k) {
        let mut block = message.range(start, k.min(message.len() - start));
        block.append(&BitVec::zeros(k - block.len()));
        out.append(&code.encode(&block));
    }
    out
}

/// Decodes a multi-block codeword produced by [`encode_blocks`], returning
/// `message_len` bits.
///
/// # Errors
///
/// Returns [`DecodeError`] with the failing block index, or a structural
/// error ([`DecodeErrorKind::NotBlockAligned`] / [`DecodeErrorKind::TooShort`])
/// if `word` is not a whole number of codeword blocks covering `message_len`.
pub fn decode_blocks<C: BlockCode>(
    code: &C,
    word: &BitVec,
    message_len: usize,
) -> Result<BitVec, DecodeError> {
    let n = code.codeword_bits();
    if !word.len().is_multiple_of(n) {
        return Err(DecodeError {
            block: 0,
            kind: DecodeErrorKind::NotBlockAligned {
                got: word.len(),
                block_bits: n,
            },
        });
    }
    let blocks = word.len() / n;
    if blocks * code.message_bits() < message_len {
        return Err(DecodeError {
            block: 0,
            kind: DecodeErrorKind::TooShort {
                covered: blocks * code.message_bits(),
                needed: message_len,
            },
        });
    }
    let mut out = BitVec::new();
    for b in 0..blocks {
        let decoded = code
            .decode(&word.range(b * n, n))
            .map_err(|e| DecodeError {
                block: b * 1000 + e.block,
                kind: e.kind,
            })?;
        out.append(&decoded);
    }
    Ok(out.prefix(message_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn paper_code() -> Concatenated {
        Concatenated::new(Golay::new(), Repetition::new(5).unwrap())
    }

    #[test]
    fn concatenated_round_trips_clean() {
        let code = paper_code();
        let msg = BitVec::from_bits((0..12).map(|i| i % 2 == 1));
        assert_eq!(code.decode(&code.encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn concatenated_corrects_paper_scale_noise() {
        // At the paper's worst-case end-of-life BER (3.25 %), decoding a
        // 115-bit block must essentially always succeed.
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(77);
        let mut failures = 0;
        for trial in 0..500 {
            let msg = BitVec::from_bits((0..12).map(|_| rng.gen::<bool>()));
            let mut word = code.encode(&msg);
            for i in 0..word.len() {
                if rng.gen::<f64>() < 0.0325 {
                    word.set(i, !word.get(i).unwrap());
                }
            }
            match code.decode(&word) {
                Ok(decoded) if decoded == msg => {}
                _ => failures += 1,
            }
            let _ = trial;
        }
        assert_eq!(failures, 0, "decode failures at paper BER");
    }

    #[test]
    fn multi_block_encoding_round_trips() {
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(78);
        let msg = BitVec::from_bits((0..128).map(|_| rng.gen::<bool>()));
        let word = encode_blocks(&code, &msg);
        assert_eq!(word.len(), 128usize.div_ceil(12) * 115);
        let back = decode_blocks(&code, &word, 128).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn decode_blocks_reports_failing_block() {
        let code = paper_code();
        let msg = BitVec::from_bits((0..24).map(|i| i % 5 == 0));
        let mut word = encode_blocks(&code, &msg);
        // Obliterate the second block entirely.
        for i in 115..230 {
            let bit = word.get(i).unwrap();
            if i % 2 == 0 {
                word.set(i, !bit);
            }
        }
        // Either an error or a miscorrect; if an error, it names block ≥1.
        if let Err(e) = decode_blocks(&code, &word, 24) {
            assert!(e.block >= 1000, "block index {}", e.block);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn correctable_errors_reports_a_positive_floor() {
        assert!(paper_code().correctable_errors() >= 11);
    }

    #[test]
    fn wrong_length_words_are_typed_errors_not_panics() {
        let code = paper_code();
        let err = code.decode(&BitVec::zeros(7)).unwrap_err();
        assert_eq!(
            err.kind,
            DecodeErrorKind::LengthMismatch {
                got: 7,
                expected: 115
            }
        );
        assert!(err.to_string().contains("does not match"));
        let golay_err = Golay::new().decode(&BitVec::zeros(22)).unwrap_err();
        assert_eq!(
            golay_err.kind,
            DecodeErrorKind::LengthMismatch {
                got: 22,
                expected: 23
            }
        );
        let rep_err = Repetition::new(5)
            .unwrap()
            .decode(&BitVec::zeros(4))
            .unwrap_err();
        assert_eq!(
            rep_err.kind,
            DecodeErrorKind::LengthMismatch {
                got: 4,
                expected: 5
            }
        );
        let polar_err = PolarCode::new(256, 64, 0.05)
            .unwrap()
            .decode(&BitVec::new())
            .unwrap_err();
        assert_eq!(
            polar_err.kind,
            DecodeErrorKind::LengthMismatch {
                got: 0,
                expected: 256
            }
        );
    }

    #[test]
    fn decode_blocks_rejects_malformed_words_with_typed_errors() {
        let code = paper_code();
        // Not block aligned.
        let err = decode_blocks(&code, &BitVec::zeros(116), 12).unwrap_err();
        assert_eq!(
            err.kind,
            DecodeErrorKind::NotBlockAligned {
                got: 116,
                block_bits: 115
            }
        );
        // Aligned but too short for the message.
        let err = decode_blocks(&code, &BitVec::zeros(115), 24).unwrap_err();
        assert_eq!(
            err.kind,
            DecodeErrorKind::TooShort {
                covered: 12,
                needed: 24
            }
        );
        assert!(err.to_string().contains("covers only"));
        // Empty is a special case of both — still an error, never a panic.
        assert!(decode_blocks(&code, &BitVec::new(), 12).is_err());
    }
}
