//! Property-based invariants of the Hamming-space substrate.

use proptest::prelude::*;
use pufbits::{BitMatrix, BitVec, OnesCounter};

fn bitvec_strategy(max_len: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), 0..max_len).prop_map(BitVec::from_bits)
}

fn bitvec_pair(max_len: usize) -> impl Strategy<Value = (BitVec, BitVec)> {
    prop::collection::vec(any::<(bool, bool)>(), 0..max_len).prop_map(|pairs| {
        let a = BitVec::from_bits(pairs.iter().map(|&(x, _)| x));
        let b = BitVec::from_bits(pairs.iter().map(|&(_, y)| y));
        (a, b)
    })
}

proptest! {
    #[test]
    fn hamming_distance_is_a_metric((a, b) in bitvec_pair(300), c_bits in prop::collection::vec(any::<bool>(), 0..300)) {
        // Symmetry and identity.
        prop_assert_eq!(a.checked_hamming_distance(&b), b.checked_hamming_distance(&a));
        prop_assert_eq!(a.hamming_distance(&a), 0);
        // Triangle inequality on equal-length triples.
        if c_bits.len() == a.len() {
            let c = BitVec::from_bits(c_bits);
            let ab = a.hamming_distance(&b);
            let bc = b.hamming_distance(&c);
            let ac = a.hamming_distance(&c);
            prop_assert!(ac <= ab + bc);
        }
    }

    #[test]
    fn xor_weight_equals_distance((a, b) in bitvec_pair(300)) {
        prop_assert_eq!(a.xor(&b).count_ones(), a.hamming_distance(&b));
    }

    #[test]
    fn fractional_metrics_stay_in_unit_interval((a, b) in bitvec_pair(300)) {
        let fhd = a.fractional_hamming_distance(&b);
        prop_assert!((0.0..=1.0).contains(&fhd));
        let fhw = a.fractional_hamming_weight();
        prop_assert!((0.0..=1.0).contains(&fhw));
    }

    #[test]
    fn not_inverts_every_bit(v in bitvec_strategy(300)) {
        let n = v.not();
        prop_assert_eq!(n.count_ones(), v.count_zeros());
        prop_assert_eq!(v.hamming_distance(&n), v.len());
        prop_assert_eq!(n.not(), v);
    }

    #[test]
    fn byte_round_trip_preserves_byte_aligned_vectors(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let v = BitVec::from_bytes(&bytes);
        prop_assert_eq!(v.to_bytes(), bytes);
    }

    #[test]
    fn prefix_then_iter_matches_original(v in bitvec_strategy(300), cut in 0usize..300) {
        let cut = cut.min(v.len());
        let p = v.prefix(cut);
        prop_assert_eq!(p.len(), cut);
        for i in 0..cut {
            prop_assert_eq!(p.get(i), v.get(i));
        }
    }

    #[test]
    fn select_yields_masked_count((data, mask) in bitvec_pair(300)) {
        let selected = data.select(&mask);
        prop_assert_eq!(selected.len(), mask.count_ones());
    }

    #[test]
    fn counter_agrees_with_matrix(rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 40), 1..20)) {
        let matrix: BitMatrix = rows.iter().map(|r| BitVec::from_bits(r.iter().copied())).collect();
        let counter = matrix.ones_counter();
        // Column-wise recount.
        for col in 0..40 {
            let manual = rows.iter().filter(|r| r[col]).count() as u32;
            prop_assert_eq!(counter.count(col), Some(manual));
        }
        // Stable cells + unstable mask partition the width.
        prop_assert_eq!(
            counter.stable_cell_count() + counter.unstable_mask().count_ones(),
            40
        );
    }

    #[test]
    fn merge_of_split_counters_matches_whole(rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 16), 2..12), split in 1usize..11) {
        let split = split.min(rows.len() - 1);
        let mut whole = OnesCounter::new(16);
        let mut left = OnesCounter::new(16);
        let mut right = OnesCounter::new(16);
        for (i, row) in rows.iter().enumerate() {
            let v = BitVec::from_bits(row.iter().copied());
            whole.add(&v).unwrap();
            if i < split { left.add(&v).unwrap() } else { right.add(&v).unwrap() };
        }
        left.merge(&right).unwrap();
        prop_assert_eq!(left, whole);
    }

    #[test]
    fn range_and_append_match_per_bit_get_and_push(
        bits in prop::collection::vec(any::<bool>(), 400..500),
        extra in prop::collection::vec(0usize..200, 2),
    ) {
        // Offsets and lengths at every word edge, plus two drawn ones.
        let edges = [0usize, 1, 63, 64, 65, extra[0], extra[1]];
        let v = BitVec::from_bits(bits.iter().copied());
        for &start in &edges {
            for &len in &edges {
                let per_bit = BitVec::from_bits((start..start + len).map(|i| v.get(i).unwrap()));
                // Equality covers the word image, so stray tail bits or a
                // spare trailing word fail it too.
                prop_assert_eq!(v.range(start, len), per_bit.clone());

                let mut head = v.prefix(start);
                head.append(&per_bit);
                let mut pushed = v.prefix(start);
                for bit in per_bit.iter() {
                    pushed.push(bit);
                }
                prop_assert_eq!(head, pushed);
            }
        }
        prop_assert_eq!(v.range(v.len(), 0), BitVec::new());
    }

    #[test]
    fn push_matches_from_bits(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut pushed = BitVec::new();
        for &b in &bits {
            pushed.push(b);
        }
        prop_assert_eq!(pushed, BitVec::from_bits(bits));
    }
}
