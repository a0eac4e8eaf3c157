//! The binary Golay code \[23,12,7\].

use crate::ecc::{BlockCode, DecodeError};
use pufbits::BitVec;
use std::sync::OnceLock;

/// Generator polynomial `g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1`,
/// bit `i` = coefficient of `x^i`.
const GENERATOR: u32 = 0xC75;
const N: usize = 23;
const K: usize = 12;
const PARITY: usize = 11;

/// The perfect binary Golay code: 12 message bits, 23 codeword bits,
/// minimum distance 7, corrects every pattern of up to 3 bit errors.
///
/// Encoding is systematic-cyclic (parity in the low 11 positions, message in
/// the high 12); decoding is exact syndrome lookup — the code is perfect, so
/// the 2^11 syndromes are in one-to-one correspondence with the ≤3-error
/// patterns and decoding never *fails*, though patterns of ≥4 errors
/// miscorrect (caught downstream by the extractor's key check).
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufkeygen::ecc::{BlockCode, Golay};
///
/// let golay = Golay::new();
/// let msg = BitVec::from_bits((0..12).map(|i| i % 4 == 0));
/// let mut word = golay.encode(&msg);
/// word.set(3, !word.get(3).unwrap());
/// word.set(11, !word.get(11).unwrap());
/// word.set(22, !word.get(22).unwrap());
/// assert_eq!(golay.decode(&word)?, msg);
/// # Ok::<(), pufkeygen::ecc::DecodeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Golay;

impl Golay {
    /// Creates the code.
    pub fn new() -> Self {
        Self
    }

    /// Remainder of `v` (degree < 23) modulo the generator polynomial.
    fn poly_mod(mut v: u32) -> u16 {
        for i in (PARITY..N).rev() {
            if v & (1 << i) != 0 {
                v ^= GENERATOR << (i - PARITY);
            }
        }
        (v & 0x7FF) as u16
    }

    /// Syndrome → minimal error pattern, built once for the process.
    fn table() -> &'static [u32; 2048] {
        static TABLE: OnceLock<[u32; 2048]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = [u32::MAX; 2048];
            table[0] = 0;
            // All weight-1..3 patterns; a perfect code fills the table.
            for a in 0..N {
                let ea = 1u32 << a;
                table[Self::poly_mod(ea) as usize] = ea;
                for b in (a + 1)..N {
                    let eab = ea | (1 << b);
                    table[Self::poly_mod(eab) as usize] = eab;
                    for c in (b + 1)..N {
                        let eabc = eab | (1 << c);
                        table[Self::poly_mod(eabc) as usize] = eabc;
                    }
                }
            }
            debug_assert!(
                table.iter().all(|&e| e != u32::MAX),
                "perfect code fills table"
            );
            table
        })
    }

    /// The bits of a message or codeword as one packed value: both fit
    /// the vector's first storage word, bit `i` at position `i`.
    fn to_u32(word: &BitVec) -> u32 {
        word.as_words().first().map_or(0, |&w| w as u32)
    }

    /// The low `bits` bits of `value` as a vector (`bits` ≤ 32).
    fn from_u32(value: u32, bits: usize) -> BitVec {
        BitVec::from_words(vec![u64::from(value)], bits)
    }
}

impl BlockCode for Golay {
    fn message_bits(&self) -> usize {
        K
    }

    fn codeword_bits(&self) -> usize {
        N
    }

    fn correctable_errors(&self) -> usize {
        3
    }

    fn encode(&self, message: &BitVec) -> BitVec {
        assert_eq!(message.len(), K, "golay messages are {K} bits");
        let m = Self::to_u32(message);
        let shifted = m << PARITY;
        let parity = u32::from(Self::poly_mod(shifted));
        Self::from_u32(shifted | parity, N)
    }

    fn decode(&self, word: &BitVec) -> Result<BitVec, DecodeError> {
        if word.len() != N {
            return Err(DecodeError::length_mismatch(word.len(), N));
        }
        let r = Self::to_u32(word);
        let syndrome = Self::poly_mod(r);
        let error = Self::table()[syndrome as usize];
        let corrected = r ^ error;
        // A perfect code always lands on some codeword; report the message.
        Ok(Self::from_u32(corrected >> PARITY, K))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn all_messages() -> impl Iterator<Item = BitVec> {
        (0u32..4096).map(|m| Golay::from_u32(m, K))
    }

    #[test]
    fn encode_is_systematic() {
        let msg = BitVec::from_bits((0..12).map(|i| i % 2 == 0));
        let word = Golay::new().encode(&msg);
        for i in 0..K {
            assert_eq!(word.get(PARITY + i), msg.get(i));
        }
    }

    #[test]
    fn every_codeword_has_zero_syndrome() {
        let golay = Golay::new();
        for msg in all_messages().step_by(37) {
            let word = golay.encode(&msg);
            assert_eq!(Golay::poly_mod(Golay::to_u32(&word)), 0);
        }
    }

    #[test]
    fn minimum_weight_of_nonzero_codewords_is_seven() {
        let golay = Golay::new();
        let mut min_weight = usize::MAX;
        for msg in all_messages() {
            let word = golay.encode(&msg);
            let w = word.count_ones();
            if w > 0 {
                min_weight = min_weight.min(w);
            }
        }
        assert_eq!(min_weight, 7);
    }

    #[test]
    fn corrects_every_error_pattern_up_to_three() {
        let golay = Golay::new();
        let msg = BitVec::from_bits((0..12).map(|i| (i * 5) % 3 == 1));
        let clean = golay.encode(&msg);
        let clean_u = Golay::to_u32(&clean);
        // All weight-1 and weight-2, sampled weight-3.
        for a in 0..N {
            for b in (a + 1)..N {
                let word = Golay::from_u32(clean_u ^ (1 << a) ^ (1 << b), N);
                assert_eq!(golay.decode(&word).unwrap(), msg, "errors at {a},{b}");
            }
        }
        let mut rng = StdRng::seed_from_u64(80);
        for _ in 0..200 {
            let mut e = 0u32;
            while e.count_ones() < 3 {
                e |= 1 << rng.gen_range(0..N);
            }
            let word = Golay::from_u32(clean_u ^ e, N);
            assert_eq!(golay.decode(&word).unwrap(), msg);
        }
    }

    #[test]
    fn four_errors_miscorrect_to_a_different_message() {
        // A perfect code has no detection margin beyond distance 3: any
        // weight-4 pattern lands within distance 3 of a *different*
        // codeword.
        let golay = Golay::new();
        let msg = BitVec::zeros(12);
        let clean_u = Golay::to_u32(&golay.encode(&msg));
        let word = Golay::from_u32(clean_u ^ 0b1111, N);
        let decoded = golay.decode(&word).unwrap();
        assert_ne!(decoded, msg, "weight-4 must miscorrect, not correct");
    }

    #[test]
    fn syndrome_table_is_a_perfect_cover() {
        // 1 + 23 + 253 + 1771 = 2048 = 2^11: exactly fills the table.
        let table = Golay::table();
        assert!(table.iter().all(|&e| e.count_ones() <= 3));
        let mut seen = std::collections::HashSet::new();
        for &e in table.iter() {
            assert!(seen.insert(e), "duplicate error pattern {e:#x}");
        }
    }

    #[test]
    fn round_trip_all_messages() {
        let golay = Golay::new();
        for msg in all_messages().step_by(17) {
            assert_eq!(golay.decode(&golay.encode(&msg)).unwrap(), msg);
        }
    }
}
