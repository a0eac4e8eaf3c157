//! Property-based invariants of the codecs and the extractor.

use proptest::prelude::*;
use pufbits::BitVec;
use pufkeygen::debias::{enroll_debias, reconstruct_debias};
use pufkeygen::ecc::{BlockCode, Concatenated, Golay, Repetition};
use pufkeygen::sha256;

fn message_12() -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), 12).prop_map(BitVec::from_bits)
}

proptest! {
    #[test]
    fn golay_corrects_any_three_errors(msg in message_12(), positions in prop::collection::btree_set(0usize..23, 0..=3)) {
        let golay = Golay::new();
        let mut word = golay.encode(&msg);
        for &p in &positions {
            word.set(p, !word.get(p).unwrap());
        }
        prop_assert_eq!(golay.decode(&word).unwrap(), msg);
    }

    #[test]
    fn golay_codewords_are_linear(a in message_12(), b in message_12()) {
        // The code is linear: enc(a) ^ enc(b) = enc(a ^ b).
        let golay = Golay::new();
        let lhs = golay.encode(&a).xor(&golay.encode(&b));
        let rhs = golay.encode(&a.xor(&b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn repetition_majority_is_exact(bit in any::<bool>(), n_half in 1usize..6, flips in prop::collection::btree_set(0usize..11, 0..=5)) {
        let n = 2 * n_half + 1;
        let rep = Repetition::new(n).unwrap();
        let mut word = rep.encode(&BitVec::from_bits([bit]));
        let applied: Vec<usize> = flips.iter().copied().filter(|&p| p < n).collect();
        for &p in &applied {
            word.set(p, !word.get(p).unwrap());
        }
        let decoded = rep.decode(&word).unwrap().get(0).unwrap();
        let expected = if applied.len() <= (n - 1) / 2 { bit } else { !bit };
        prop_assert_eq!(decoded, expected);
    }

    #[test]
    fn concatenated_corrects_scattered_errors(msg in message_12(), error_groups in prop::collection::btree_set(0usize..23, 0..=3), within in prop::collection::vec(0usize..5, 3)) {
        // Up to 3 outer bits fully corrupted (3 of 5 repetitions flipped)
        // must always decode: that is within the design capability.
        let code = Concatenated::new(Golay::new(), Repetition::new(5).unwrap());
        let mut word = code.encode(&msg);
        for (gi, &g) in error_groups.iter().enumerate() {
            // Flip 3 repetitions of group g, starting at a random offset.
            let start = within[gi % within.len()];
            for k in 0..3 {
                let idx = g * 5 + (start + k) % 5;
                word.set(idx, !word.get(idx).unwrap());
            }
        }
        prop_assert_eq!(code.decode(&word).unwrap(), msg);
    }

    #[test]
    fn debias_reconstruction_is_stable_under_identity(bits in prop::collection::vec(any::<bool>(), 0..400)) {
        let response = BitVec::from_bits(bits);
        let sel = enroll_debias(&response);
        prop_assert_eq!(reconstruct_debias(&response, &sel.mask, usize::MAX).unwrap(), sel.bits.clone());
        // The mask never selects the second bit of a pair.
        for i in (1..sel.mask.len()).step_by(2) {
            prop_assert_eq!(sel.mask.get(i), Some(false));
        }
    }

    #[test]
    fn debias_reconstruction_takes_a_prefix_of_the_masked_bits(
        bits in prop::collection::vec(any::<(bool, bool)>(), 0..400),
        limit in 0usize..250,
    ) {
        // The mask comes from one read, the extraction runs on another.
        let enrolled = BitVec::from_bits(bits.iter().map(|&(a, _)| a));
        let later = BitVec::from_bits(bits.iter().map(|&(_, b)| b));
        let mask = enroll_debias(&enrolled).mask;
        let all = later.select(&mask);
        prop_assert_eq!(
            reconstruct_debias(&later, &mask, limit).unwrap(),
            all.prefix(limit.min(all.len()))
        );
    }

    #[test]
    fn sha256_split_invariance(data in prop::collection::vec(any::<u8>(), 0..300), split in 0usize..300) {
        let split = split.min(data.len());
        let mut h = sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256::digest(&data));
    }

    #[test]
    fn sha256_is_sensitive_to_single_bit_flips(data in prop::collection::vec(any::<u8>(), 1..100), byte in 0usize..100, bit in 0u8..8) {
        let byte = byte.min(data.len() - 1);
        let mut flipped = data.clone();
        flipped[byte] ^= 1 << bit;
        prop_assert_ne!(sha256::digest(&data), sha256::digest(&flipped));
    }
}
