//! Batched power-up kernel: the block-sampled, word-packed fast path for
//! simulating read-outs.
//!
//! [`SramArray::power_up`] is the reference implementation: per cell it draws
//! one Gaussian via rejection sampling (discarding the second Box–Muller
//! variate), recomputes `mismatch + noise_sigma · z > 0`, and pushes the bit
//! through a `BitVec` collect. [`PowerUpKernel`] restructures the same model
//! for throughput:
//!
//! * the decision is rewritten as `z > −mismatch / noise_sigma`, and those
//!   per-cell **thresholds** are precomputed once per `(aging epoch,
//!   noise sigma)` and reused across reads — the aging simulator bumps the
//!   array's [`epoch`](SramArray::epoch) whenever it touches cells, which
//!   invalidates the cache;
//! * noise is sampled in **blocks** through
//!   [`pufstats::normal::fill_standard`], which keeps both variates of every
//!   Box–Muller acceptance and works in two passes — candidate pairs first,
//!   with no branch on the rejection, then every `ln`/`sqrt` scaling — so
//!   the scalings of successive pairs overlap; it draws and returns what
//!   one acceptance at a time would;
//! * bits are packed 64 at a time into `u64` words and handed to
//!   [`BitVec::from_words`], skipping per-bit pushes.
//!
//! The kernel produces the same per-cell one-probabilities as the scalar
//! path (`Phi(mismatch / noise_sigma)`), but not the same bitstream: it
//! consumes the RNG in a different order. Across code versions the
//! kernel's own bits are pinned by the campaign digest goldens (DESIGN.md
//! §6).
//!
//! A kernel caches thresholds for **one** logical device; give each board
//! its own kernel rather than sharing one across devices.

use crate::{Environment, SramArray};
use pufbits::BitVec;
use pufstats::normal::fill_standard;
use rand::Rng;

/// Noise samples drawn per block: multiple of 64 so packing stays
/// word-aligned, small enough (32 KiB) to live in L1/L2.
const BLOCK_BITS: usize = 4096;

/// Reusable batched power-up state: cached per-cell thresholds plus a noise
/// scratch block.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sramcell::{Environment, PowerUpKernel, SramArray, TechnologyProfile};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let profile = TechnologyProfile::atmega32u4();
/// let sram = SramArray::generate(&profile, 1024, &mut rng);
/// let env = Environment::nominal(&profile);
/// let mut kernel = PowerUpKernel::new();
/// let a = kernel.power_up(&sram, &env, &mut rng);
/// let b = kernel.power_up(&sram, &env, &mut rng);
/// assert_eq!(a.len(), 1024);
/// assert!(a.fractional_hamming_distance(&b) < 0.10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerUpKernel {
    thresholds: Vec<f64>,
    cache_key: Option<(u64, u64)>,
    noise: Vec<f64>,
}

impl PowerUpKernel {
    /// Creates a kernel with an empty threshold cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates one full read-out of `sram` under `env`.
    pub fn power_up<R: Rng + ?Sized>(
        &mut self,
        sram: &SramArray,
        env: &Environment,
        rng: &mut R,
    ) -> BitVec {
        self.power_up_prefix(sram, env, sram.len(), rng)
    }

    /// Simulates a read-out of the first `bits` cells of `sram` under `env`
    /// — the testbed's read window — without sampling noise for cells past
    /// the window.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds the array length.
    pub fn power_up_prefix<R: Rng + ?Sized>(
        &mut self,
        sram: &SramArray,
        env: &Environment,
        bits: usize,
        rng: &mut R,
    ) -> BitVec {
        assert!(
            bits <= sram.len(),
            "read window of {bits} bits exceeds the {}-cell array",
            sram.len()
        );
        let noise_sigma = env.noise_sigma(sram.profile());
        self.refresh(sram, noise_sigma);

        let thresholds = &self.thresholds[..bits];
        let noise = &mut self.noise;
        let mut words = vec![0u64; bits.div_ceil(64)];
        let mut next_word = 0;
        for block in thresholds.chunks(BLOCK_BITS) {
            let z = &mut noise[..block.len()];
            fill_standard(rng, z);
            for (ts, zs) in block.chunks(64).zip(z.chunks(64)) {
                let mut word = 0u64;
                for (bit, (&t, &z)) in ts.iter().zip(zs).enumerate() {
                    word |= u64::from(z > t) << bit;
                }
                words[next_word] = word;
                next_word += 1;
            }
        }
        BitVec::from_words(words, bits)
    }

    /// Recomputes thresholds if the cache does not match this
    /// `(epoch, noise sigma)` — e.g. after aging or an environment change.
    fn refresh(&mut self, sram: &SramArray, noise_sigma: f64) {
        let key = (sram.epoch(), noise_sigma.to_bits());
        if self.cache_key == Some(key) && self.thresholds.len() == sram.len() {
            return;
        }
        self.thresholds.clear();
        self.thresholds
            .extend(sram.cells().iter().map(|c| -c.mismatch() / noise_sigma));
        self.noise.resize(BLOCK_BITS.min(sram.len()), 0.0);
        self.cache_key = Some(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TechnologyProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(bits: usize, seed: u64) -> (SramArray, Environment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = TechnologyProfile::atmega32u4();
        let sram = SramArray::generate(&profile, bits, &mut rng);
        let env = Environment::nominal(&profile);
        (sram, env)
    }

    #[test]
    fn prefix_matches_full_read_statistics() {
        let (sram, env) = fixture(5000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut kernel = PowerUpKernel::new();
        let full = kernel.power_up(&sram, &env, &mut rng);
        let prefix = kernel.power_up_prefix(&sram, &env, 1234, &mut rng);
        assert_eq!(full.len(), 5000);
        assert_eq!(prefix.len(), 1234);
        // Same device, same statistics: the two windows disagree only at
        // noisy cells.
        let fhd = prefix.fractional_hamming_distance(&full.prefix(1234));
        assert!(fhd < 0.10, "fhd {fhd}");
    }

    #[test]
    fn cache_survives_reads_and_is_invalidated_by_aging() {
        let (mut sram, env) = fixture(1024, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut kernel = PowerUpKernel::new();
        kernel.power_up(&sram, &env, &mut rng);
        let key = kernel.cache_key;
        kernel.power_up(&sram, &env, &mut rng);
        assert_eq!(kernel.cache_key, key, "reads must not rebuild thresholds");

        // Flip every cell's mismatch through the mutable path: the epoch
        // bump must force a rebuild that reflects the new values.
        for cell in sram.cells_mut() {
            *cell = crate::Cell::new(-cell.mismatch());
        }
        let before: Vec<f64> = kernel.thresholds.clone();
        kernel.power_up(&sram, &env, &mut rng);
        assert_ne!(kernel.cache_key, key);
        assert!(kernel
            .thresholds
            .iter()
            .zip(&before)
            .all(|(now, old)| (now + old).abs() < 1e-12));
    }

    #[test]
    fn environment_change_rebuilds_thresholds() {
        let (sram, env) = fixture(512, 5);
        let hot = Environment {
            temp_c: 105.0,
            ..env
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut kernel = PowerUpKernel::new();
        kernel.power_up(&sram, &env, &mut rng);
        let nominal_key = kernel.cache_key;
        kernel.power_up(&sram, &hot, &mut rng);
        assert_ne!(kernel.cache_key, nominal_key);
    }

    #[test]
    fn odd_lengths_pack_cleanly() {
        for bits in [1, 63, 64, 65, 4095, 4096, 4097] {
            let (sram, env) = fixture(bits, 7);
            let mut rng = StdRng::seed_from_u64(8);
            let mut kernel = PowerUpKernel::new();
            let read = kernel.power_up(&sram, &env, &mut rng);
            assert_eq!(read.len(), bits);
            // Tail invariant: bits past `len` stay zero.
            let rebuilt = BitVec::from_words(read.as_words().to_vec(), bits);
            assert_eq!(rebuilt, read);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_window_is_rejected() {
        let (sram, env) = fixture(64, 9);
        let mut kernel = PowerUpKernel::new();
        let mut rng = StdRng::seed_from_u64(10);
        kernel.power_up_prefix(&sram, &env, 65, &mut rng);
    }
}
