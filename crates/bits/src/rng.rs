//! A counter-based deterministic random stream with trivially serializable
//! state.
//!
//! The campaign engine needs per-board RNG streams whose *complete* state
//! can be exported into a checkpoint and restored bit-exactly. A xoshiro
//! generator would work (its state is four words), but a counter-based
//! design is even simpler to reason about: the state is `(key, counter)` —
//! two u64s — and the output at any point is a pure function of them, so a
//! checkpoint/restore cycle is trivially lossless and a stream can in
//! principle even be split by counter offset.
//!
//! The construction is SplitMix64 with a per-stream key: the counter walks
//! the golden-ratio Weyl sequence and each output is the SplitMix64
//! finalizer applied to `counter ^ key`. SplitMix64's finalizer is designed
//! exactly for whitening a Weyl sequence (it passes BigCrush in its
//! original form); XORing a fixed key selects one of 2^64 decorrelated
//! streams without disturbing that structure. Unlike xoshiro there is no
//! all-zero degenerate state: key 0, counter 0 is simply plain SplitMix64.

use rand::{RngCore, SeedableRng};

/// Weyl-sequence increment: the golden ratio, as in SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finaliser: a bijective avalanche mix of one word.
///
/// [`PufRng`] whitens its Weyl counter with it, and the workspace's
/// stateless seed derivations (board streams, fault rolls, enrollment keys)
/// chain it over their inputs.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A keyed SplitMix64 counter stream: the workspace's checkpointable PRNG.
///
/// # Examples
///
/// ```
/// use pufbits::PufRng;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = PufRng::seed_from_u64(7);
/// let a: f64 = rng.gen();
/// // The full generator state is two u64s; restoring them replays the
/// // stream exactly.
/// let state = rng.state();
/// let b: u64 = rng.gen();
/// let mut replay = PufRng::from_state(state);
/// assert_eq!(replay.gen::<u64>(), b);
/// assert!((0.0..1.0).contains(&a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PufRng {
    key: u64,
    counter: u64,
}

impl PufRng {
    /// The complete generator state, as stored in checkpoints.
    pub fn state(&self) -> (u64, u64) {
        (self.key, self.counter)
    }

    /// Rebuilds a generator from a [`state`](Self::state) snapshot; the
    /// restored stream continues exactly where the snapshot was taken.
    pub fn from_state((key, counter): (u64, u64)) -> Self {
        Self { key, counter }
    }
}

impl RngCore for PufRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(GOLDEN_GAMMA);
        splitmix64(self.counter ^ self.key)
    }
}

impl SeedableRng for PufRng {
    type Seed = [u8; 16];

    fn from_seed(seed: Self::Seed) -> Self {
        Self {
            key: u64::from_le_bytes(seed[0..8].try_into().expect("8-byte chunk")),
            counter: u64::from_le_bytes(seed[8..16].try_into().expect("8-byte chunk")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = PufRng::seed_from_u64(7);
        let mut b = PufRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = PufRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut rng = PufRng::seed_from_u64(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut resumed = PufRng::from_state(rng.state());
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn splitmix64_matches_the_reference_first_output() {
        // SplitMix64's first output from state 0: one golden-ratio step, mixed.
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0xE220_A839_7B1D_CDAF);
        assert_eq!(PufRng::from_state((0, 0)).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn zero_state_is_not_degenerate() {
        // Unlike xoshiro, (0, 0) is a perfectly fine state: plain SplitMix64.
        let mut rng = PufRng::from_state((0, 0));
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(first.iter().any(|&w| w != 0));
        let mut seen = first.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), first.len(), "outputs repeat: {first:?}");
    }

    #[test]
    fn keys_decorrelate_streams() {
        let mut a = PufRng::from_state((1, 0));
        let mut b = PufRng::from_state((2, 0));
        let agree = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(agree, 0);
    }

    #[test]
    fn uniform_float_moments() {
        let mut rng = PufRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            sq += x * x;
        }
        let mean = sum / f64::from(n);
        let var = sq / f64::from(n) - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.002, "var {var}");
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = PufRng::seed_from_u64(4);
        let ones = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4500..5500).contains(&ones), "{ones}");
    }

    #[test]
    fn ranges_hit_their_bounds() {
        let mut rng = PufRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn from_seed_reads_key_then_counter() {
        let mut seed = [0u8; 16];
        seed[0] = 0x11;
        seed[8] = 0x22;
        let rng = PufRng::from_seed(seed);
        assert_eq!(rng.state(), (0x11, 0x22));
    }
}
