//! Batched power-up kernel: the block-sampled, word-packed fast path for
//! simulating read-outs.
//!
//! [`SramArray::power_up`] is the reference implementation: per cell it draws
//! one Gaussian via rejection sampling (discarding the second Box–Muller
//! variate), recomputes `mismatch + noise_sigma · z > 0`, and pushes the bit
//! through a `BitVec` collect. [`PowerUpKernel`] restructures the same model
//! for throughput:
//!
//! * the decision is rewritten as `z > t` with the per-cell **threshold**
//!   `t = −mismatch / noise_sigma`; the thresholds of the whole array, and
//!   a word-packed mask of each cell's **preferred** bit `t < 0` (its read
//!   with no noise), are computed once per `(aging epoch, noise sigma)` and
//!   reused across reads — the aging simulator bumps the array's
//!   [`epoch`](SramArray::epoch) whenever it touches cells, which
//!   invalidates the cache;
//! * noise is sampled in **blocks** of the read window: both variates of
//!   every polar Box–Muller acceptance are kept, and
//!   [`pufstats::normal::fill_polar_pairs`] draws a block's accepted
//!   uniform pairs `(u, v)` with no branch on the rejection, exactly as
//!   [`pufstats::normal::fill_standard`] does;
//! * a pair's two normals are `u · r` and `v · r` with
//!   `r = sqrt(−2 ln s / s)` and `s = u² + v²`, but `r` is computed only
//!   for the pairs that can move a cell off its preferred bit: a
//!   branch-free test marks those among 64 pairs at a time in a `u64`, and
//!   only the marked pairs are scaled and compared, as `fill_standard`
//!   would scale them; every other cell keeps its bit from the mask;
//! * bits are packed 64 at a time into `u64` words and handed to
//!   [`BitVec::from_words`], skipping per-bit pushes.
//!
//! **Why the test is exact.** `r > 0`, so a cell's normal `z = w · r` has
//! the sign of its uniform `w`, or is `+0.0` when `w` is. If `w` points
//! towards the preferred bit (`w > 0` and `t < 0`, or `w <= 0` and
//! `t >= 0`), then `z > t` equals `t < 0`. Otherwise let `m` be 1023 minus
//! the biased exponent of `s`. Then `s >= 2^−m`, so
//! `z² = w²(−2 ln s)/s <= −2 ln s <= 2m ln 2`, and the rounding of `s`,
//! `ln`, the divide, `sqrt` and the product adds about 10 ulps. A cell
//! with `t² >= B(m) = 2m ln 2 (1 + 1e−9) + 1e−9` therefore keeps its
//! preferred bit too. A pair is scaled if either of its cells passes
//! neither test: about 7 % of the pairs of the paper's ATmega32u4
//! population. Each read therefore returns the bits, and leaves the RNG in
//! the state, of scaling every pair.
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
use pufstats::normal::{fill_polar_pairs, fill_standard};
use rand::Rng;
use std::f64::consts::LN_2;

/// Noise samples drawn per block: multiple of 128 so the 64-pair groups
/// stay word-aligned, small enough (32 KiB) to live in L1/L2.
const BLOCK_BITS: usize = 4096;

/// Reusable batched power-up state: cached per-cell thresholds and
/// preferred bits plus a noise scratch block.
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
    /// Bit `i % 64` of word `i / 64` is `thresholds[i] < 0`.
    preferred: Vec<u64>,
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

        // `from_words` clears the preferred bits past the window.
        let mut words = self.preferred[..bits.div_ceil(64)].to_vec();
        let blocks = self.thresholds[..bits].chunks(BLOCK_BITS);
        for (block, words) in blocks.zip(words.chunks_mut(BLOCK_BITS / 64)) {
            let (pairs, tail) = self.noise[..block.len()].split_at_mut(block.len() & !1);
            fill_polar_pairs(rng, pairs);
            // An odd last cell takes the first normal of one more
            // acceptance, as in `fill_standard`.
            fill_standard(rng, tail);
            for ((uv, ts), words) in pairs
                .chunks(128)
                .zip(block.chunks(128))
                .zip(words.chunks_mut(2))
            {
                let mut marked = scaling_mask(uv, ts);
                while marked != 0 {
                    let j = marked.trailing_zeros() as usize;
                    marked &= marked - 1;
                    let (u, v) = (uv[2 * j], uv[2 * j + 1]);
                    let s = u * u + v * v;
                    let r = (-2.0 * s.ln() / s).sqrt();
                    let bit = 2 * j % 64;
                    let word = &mut words[j / 32];
                    *word = *word & !(0b11 << bit)
                        | u64::from(u * r > ts[2 * j]) << bit
                        | u64::from(v * r > ts[2 * j + 1]) << (bit + 1);
                }
            }
            if let [z] = tail {
                let i = block.len() - 1;
                let word = &mut words[i / 64];
                *word = *word & !(1 << (i % 64)) | u64::from(*z > block[i]) << (i % 64);
            }
        }
        BitVec::from_words(words, bits)
    }

    /// Recomputes thresholds and preferred bits if the cache does not match
    /// this `(epoch, noise sigma)` — e.g. after aging or an environment
    /// change.
    fn refresh(&mut self, sram: &SramArray, noise_sigma: f64) {
        let key = (sram.epoch(), noise_sigma.to_bits());
        if self.cache_key == Some(key) && self.thresholds.len() == sram.len() {
            return;
        }
        self.thresholds.clear();
        self.thresholds
            .extend(sram.cells().iter().map(|c| -c.mismatch() / noise_sigma));
        self.preferred.clear();
        self.preferred.extend(self.thresholds.chunks(64).map(|ts| {
            ts.iter()
                .enumerate()
                .fold(0, |word, (bit, &t)| word | u64::from(t < 0.0) << bit)
        }));
        self.noise.resize(BLOCK_BITS.min(sram.len()), 0.0);
        self.cache_key = Some(key);
    }
}

/// Bit `j` set when pair `j` of the polar uniforms `uv` may move one of
/// its two cells, with thresholds `ts[2j]` and `ts[2j + 1]`, off its
/// preferred bit. Reads at most 64 pairs.
fn scaling_mask(uv: &[f64], ts: &[f64]) -> u64 {
    uv.chunks_exact(2)
        .zip(ts.chunks_exact(2))
        .enumerate()
        .fold(0, |mask, (j, (uv, ts))| {
            mask | u64::from(may_flip(uv[0], uv[1], ts[0], ts[1])) << j
        })
}

/// Whether scaling the accepted polar pair `(u, v)` may move the cell with
/// threshold `tu` or the one with `tv` off its preferred bit `t < 0`.
/// `false` proves that neither moves (module docs); `true` leaves it to
/// the exact comparison.
#[inline(always)]
fn may_flip(u: f64, v: f64, tu: f64, tv: f64) -> bool {
    let s = u * u + v * v;
    // 2^-104 <= s < 1, so the sign bit is clear and 1 <= m <= 104.
    let m = 1023 - (s.to_bits() >> 52) as i32;
    let bound = f64::from(m) * (2.0 * LN_2 * (1.0 + 1e-9)) + 1e-9;
    // Compared, not multiplied or read off the sign bit: `w * t` rounds
    // to zero for tiny `t`, and `t = -0.0` has preferred bit 0.
    let keeps = |w: f64, t: f64| ((w > 0.0) == (t < 0.0)) | (t * t >= bound);
    !(keeps(u, tu) & keeps(v, tv))
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

    /// The kernel's read before the preferred-state mask, verbatim: every
    /// pair is scaled by `fill_standard` and every cell compared with its
    /// threshold.
    fn reference_prefix<R: Rng + ?Sized>(
        sram: &SramArray,
        env: &Environment,
        bits: usize,
        rng: &mut R,
    ) -> BitVec {
        let noise_sigma = env.noise_sigma(sram.profile());
        let thresholds: Vec<f64> = sram.cells()[..bits]
            .iter()
            .map(|c| -c.mismatch() / noise_sigma)
            .collect();
        let mut noise = vec![0.0; BLOCK_BITS.min(sram.len())];
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

    /// Reads the first `bits` cells of `sram` through one kernel and the
    /// reference, at nominal and at 105 °C, before and after aging through
    /// `cells_mut`. The aging negates every mismatch, so a stale cache
    /// would flip every preferred state. Bits and the RNG state must match
    /// after every read.
    fn assert_matches_reference(mut sram: SramArray, bits: usize, seed: u64) {
        let nominal = Environment::nominal(sram.profile());
        let hot = Environment {
            temp_c: 105.0,
            ..nominal
        };
        let mut kernel = PowerUpKernel::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        for aged in [false, true] {
            if aged {
                for cell in sram.cells_mut() {
                    *cell = crate::Cell::new(-cell.mismatch());
                }
            }
            for env in [nominal, hot, nominal] {
                for read in 0..3 {
                    let got = kernel.power_up_prefix(&sram, &env, bits, &mut rng);
                    let want = reference_prefix(&sram, &env, bits, &mut reference_rng);
                    let at = format!(
                        "{bits} of {} cells, {} °C, aged {aged}, read {read}",
                        sram.len(),
                        env.temp_c
                    );
                    assert_eq!(got, want, "bits differ: {at}");
                    assert_eq!(rng, reference_rng, "RNG state differs: {at}");
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_at_every_width() {
        let widths = [1, 2, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097];
        for bits in widths.into_iter().chain(8191..=8193) {
            let (sram, _) = fixture(bits, 11);
            assert_matches_reference(sram, bits, 12);
        }
        for (bits, cells) in [(1234, 5000), (8192, 20 * 1024)] {
            let (sram, _) = fixture(cells, 13);
            assert_matches_reference(sram, bits, 14);
        }
    }

    #[test]
    fn kernel_matches_the_reference_for_narrow_and_wide_populations() {
        // Narrow populations put nearly every cell next to its threshold,
        // so nearly every pair needs its scaling; wide ones almost none.
        let profile = TechnologyProfile::atmega32u4();
        let mut rng = StdRng::seed_from_u64(15);
        for sigma in [0.01, 0.5, 3.0, 1000.0] {
            let cells = (0..4097)
                .map(|_| crate::Cell::new(pufstats::normal::sample(&mut rng, 0.0, sigma)))
                .collect();
            let sram = SramArray::from_cells(&profile, cells);
            assert_matches_reference(sram, 4097, 16);
        }
    }

    #[test]
    fn kernel_matches_the_reference_at_edge_mismatches() {
        // Signed zeros, a subnormal, the |z| < 12.02 bound and the
        // sqrt(2 ln 2) bound of pairs with s in [0.5, 1).
        let edges = [0.0, 1e-300, 5e-324, 11.99, 12.02, 1.1774];
        let cells = edges
            .iter()
            .flat_map(|&m| [m, -m])
            .cycle()
            .take(8193)
            .map(crate::Cell::new)
            .collect();
        let sram = SramArray::from_cells(&TechnologyProfile::atmega32u4(), cells);
        assert_matches_reference(sram.clone(), 8193, 17);
        assert_matches_reference(sram, 129, 18);
    }

    #[test]
    fn the_bound_marks_every_cell_the_largest_normal_can_flip() {
        // u = ±2^-k and v = 0 give s = 2^-2k exactly, so z² = −2 ln s is
        // 2m ln 2 with m = 2k: the bound without its margin. A threshold on
        // u's side, one ulp closer to zero than z, flips the cell.
        for k in 1..=52 {
            for sign in [1.0, -1.0] {
                let w = sign * 0.5f64.powi(k);
                let s = w * w;
                let z = w * (-2.0 * s.ln() / s).sqrt();
                let t = sign * f64::from_bits(z.abs().to_bits() - 1);
                assert_ne!(z > t, t < 0.0, "k {k}, sign {sign}: no flip");
                assert!(may_flip(w, 0.0, t, 0.0), "k {k}, u {w}, t {t}");
                assert!(may_flip(0.0, w, 0.0, t), "k {k}, v {w}, t {t}");
            }
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
