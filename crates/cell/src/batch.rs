//! Batched power-up kernel: the cached, word-packed fast path for
//! simulating read-outs.
//!
//! [`SramArray::power_up`] is the reference implementation: per cell it draws
//! one Gaussian via rejection sampling (discarding the second Box–Muller
//! variate), recomputes `mismatch + noise_sigma · z > 0`, and pushes the bit
//! through a `BitVec` collect. [`PowerUpKernel`] samples the same model
//! without the Gaussian. Under it cell `i` reads 1 with probability
//! `p_i = Phi(x_i)`, `x_i = mismatch_i / noise_sigma`, independently at every
//! power-up, so a read is one Bernoulli draw per cell:
//!
//! * once per `(aging epoch, noise sigma, read window)`, the kernel turns
//!   the `p_i` of each cell in the window into a 64-bit threshold
//!   `q_i ≈ p_i · 2⁶⁴`. Cells with `q_i = 2⁶⁴` (always 1)
//!   go into a word-packed mask, cells with `q_i = 0` (always 0) are
//!   dropped, and the rest form the **draw list**, ascending by index. The
//!   aging simulator bumps the array's [`epoch`](SramArray::epoch) whenever
//!   it touches cells, which invalidates the cache;
//! * a read copies the mask and sets bit `i` to `next_u64() < q_i` for
//!   each listed cell: one raw RNG word per listed cell, with no rejection,
//!   `ln` or `sqrt`;
//! * bits are packed 64 at a time into `u64` words and handed to
//!   [`BitVec::from_words`], skipping per-bit pushes.
//!
//! **The threshold.** `q_i` is taken from the tail `Phi(−|x_i|)`, which
//! `phi_complement` computes to full relative precision on either side:
//! the probability of the cell's less likely bit is rounded down to a
//! multiple of 2⁻⁶⁴, so `q_i = ⌊p_i · 2⁶⁴⌋` for `x_i <= 0` and
//! `q_i = 2⁶⁴ − ⌊(1 − p_i) · 2⁶⁴⌋` above 0. A listed cell reads 1 with
//! probability exactly `q_i / 2⁶⁴`, within about 2e−14 of `p_i` relative to
//! the smaller of `p_i` and `1 − p_i` (the rounding of `x_i` and of
//! `phi_complement` at `|x_i| < 9.1`), plus 2⁻⁶⁴. A cell **saturates**, and
//! takes no draw, when its tail is below 2⁻⁶⁴, at `|x_i| ≳ 9.1`: about 61 %
//! of the paper's ATmega32u4 population.
//!
//! The kernel produces the same per-cell one-probabilities as the scalar
//! path (`Phi(mismatch / noise_sigma)`), but not the same bitstream: it
//! consumes the RNG differently. Across code versions the kernel's own bits
//! are pinned by the campaign digest goldens (DESIGN.md §6).
//!
//! A kernel caches thresholds for **one** logical device; give each board
//! its own kernel rather than sharing one across devices.

use crate::{Environment, SramArray};
use pufbits::BitVec;
use pufstats::normal::phi_complement;
use rand::Rng;

/// `2⁶⁴`, the scale of the fixed-point thresholds.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Reusable batched power-up state: the cached always-1 mask and draw list
/// of one device.
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
    /// Bit `i % 64` of word `i / 64` is set when cell `i` always reads 1.
    ones: Vec<u64>,
    /// The cells that take a draw, ascending.
    listed: Vec<u32>,
    /// `thresholds[k]` is `q` of cell `listed[k]`.
    thresholds: Vec<u64>,
    /// `(epoch, noise sigma bits, window bits)` the cache was built for.
    cache_key: Option<(u64, u64, usize)>,
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
    /// — the testbed's read window — drawing nothing for cells past the
    /// window.
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
        self.refresh(sram, env.noise_sigma(sram.profile()), bits);

        let mut words = self.ones.clone();
        for (&i, &q) in self.listed.iter().zip(&self.thresholds) {
            let i = i as usize;
            words[i / 64] |= u64::from(rng.next_u64() < q) << (i % 64);
        }
        BitVec::from_words(words, bits)
    }

    /// Rebuilds the mask and the draw list of the first `bits` cells if the
    /// cache does not match this `(epoch, noise sigma, bits)` — e.g. after
    /// aging or an environment change.
    fn refresh(&mut self, sram: &SramArray, noise_sigma: f64, bits: usize) {
        let key = (sram.epoch(), noise_sigma.to_bits(), bits);
        if self.cache_key == Some(key) {
            return;
        }
        self.ones.clear();
        self.ones.resize(bits.div_ceil(64), 0);
        self.listed.clear();
        self.thresholds.clear();
        // Room for every cell of the window at once: grown by doubling on a
        // campaign's worker threads, the list left freed blocks among the
        // records, and a later key-lifetime fold in the same process peaked
        // 5 MB higher in about a third of runs.
        self.listed.reserve_exact(bits);
        self.thresholds.reserve_exact(bits);
        for (i, cell) in sram.cells()[..bits].iter().enumerate() {
            match Read::of(cell.mismatch() / noise_sigma) {
                Read::Below(q) => {
                    let i = u32::try_from(i).expect("an array has fewer than 2^32 cells");
                    self.listed.push(i);
                    self.thresholds.push(q);
                }
                Read::Always(bit) => self.ones[i / 64] |= u64::from(bit) << (i % 64),
            }
        }
        self.cache_key = Some(key);
    }
}

/// How a cell at `x = mismatch / noise_sigma` reads (module docs).
#[derive(Debug, PartialEq)]
enum Read {
    /// Always this bit: the other one's probability rounds down to 0.
    Always(bool),
    /// 1 when a raw RNG word is below `q`, with `0 < q < 2⁶⁴`.
    Below(u64),
}

impl Read {
    fn of(x: f64) -> Self {
        // The probability of the less likely bit, rounded down; NaN gives 0.
        let tail = (phi_complement(x.abs()) * TWO_POW_64) as u64;
        match (tail, x > 0.0) {
            (0, above) => Read::Always(above),
            (tail, false) => Read::Below(tail),
            (tail, true) => Read::Below(tail.wrapping_neg()),
        }
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
        // bump must force a rebuild that reflects the new values. Negating
        // `x` maps `q` to `2⁶⁴ − q` and swaps the always-1 and always-0
        // cells.
        for cell in sram.cells_mut() {
            *cell = crate::Cell::new(-cell.mismatch());
        }
        let before = kernel.clone();
        kernel.power_up(&sram, &env, &mut rng);
        assert_ne!(kernel.cache_key, key);
        assert_eq!(kernel.listed, before.listed);
        assert!(kernel
            .thresholds
            .iter()
            .zip(&before.thresholds)
            .all(|(now, old)| now.wrapping_add(*old) == 0));
        let always_one = |k: &PowerUpKernel| k.ones.iter().map(|w| w.count_ones()).sum::<u32>();
        let always_zero_before = sram.len() - before.listed.len() - always_one(&before) as usize;
        assert_eq!(always_one(&kernel) as usize, always_zero_before);
        assert!(kernel
            .ones
            .iter()
            .zip(&before.ones)
            .all(|(a, b)| a & b == 0));
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

    /// The model the kernel samples, one cell at a time and with no cache:
    /// cell `i` reads 1 when a raw RNG word is below `2⁶⁴ · Phi(x_i)`, with
    /// the probability of its less likely bit rounded down to a multiple of
    /// 2⁻⁶⁴; a cell whose rounded probability is 0 or 1 takes no draw.
    fn reference_prefix<R: Rng + ?Sized>(
        sram: &SramArray,
        env: &Environment,
        bits: usize,
        rng: &mut R,
    ) -> BitVec {
        let noise_sigma = env.noise_sigma(sram.profile());
        sram.cells()[..bits]
            .iter()
            .map(|cell| {
                let x = cell.mismatch() / noise_sigma;
                let less_likely = (phi_complement(x.abs()) * 2f64.powi(64)) as u128;
                let q = if x > 0.0 {
                    (1 << 64) - less_likely
                } else {
                    less_likely
                };
                match q {
                    0 => false,
                    q if q == 1 << 64 => true,
                    q => u128::from(rng.next_u64()) < q,
                }
            })
            .collect()
    }

    /// Reads the first `bits` cells of `sram` through one kernel and the
    /// reference, at nominal and at 105 °C, before and after aging through
    /// `cells_mut`. The aging negates every mismatch, so a stale cache
    /// would swap the always-1 and always-0 cells. Between reads of `bits`
    /// cells the kernel also reads the first half of them, so a cache kept
    /// across a change of window fails too. Bits and the RNG state must
    /// match after every read.
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
                let half = bits.div_ceil(2);
                for (read, width) in [bits, bits, half, bits].into_iter().enumerate() {
                    let got = kernel.power_up_prefix(&sram, &env, width, &mut rng);
                    let want = reference_prefix(&sram, &env, width, &mut reference_rng);
                    let at = format!(
                        "{width} of {} cells, {} °C, aged {aged}, read {read}",
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
        // Narrow populations list every cell for a draw; wide ones saturate
        // nearly all of them.
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
        // The saturation edge at nominal (noise sigma 1, so x is the
        // mismatch): the largest x whose tail still rounds to 2⁻⁶⁴.
        let (mut lo, mut hi) = (9.0f64.to_bits(), 9.5f64.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if let Read::Below(_) = Read::of(f64::from_bits(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let edge = f64::from_bits(lo);
        assert_eq!(Read::of(edge.next_up()), Read::Always(true));
        assert_eq!(Read::of(-edge.next_up()), Read::Always(false));
        assert_eq!(Read::of(edge), Read::Below(u64::MAX));
        assert_eq!(Read::of(-edge), Read::Below(1));

        // Signed zeros, subnormals, the cells either side of both
        // saturation edges, and tails that underflow.
        let edges = [
            0.0,
            1e-300,
            5e-324,
            edge.next_down(),
            edge,
            edge.next_up(),
            edge.next_up().next_up(),
            1.0,
            40.0,
        ];
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
    #[should_panic(expected = "exceeds")]
    fn oversized_window_is_rejected() {
        let (sram, env) = fixture(64, 9);
        let mut kernel = PowerUpKernel::new();
        let mut rng = StdRng::seed_from_u64(10);
        kernel.power_up_prefix(&sram, &env, 65, &mut rng);
    }
}
