//! The base metrics of the paper's §IV-A: WCHD, BCHD, and FHW.
//!
//! All distance and weight folds run word-parallel through
//! [`pufbits::kernel`] (XOR + hardware popcount via `BitMatrix`/`BitVec`);
//! the per-read fraction divisions happen in the same order as a per-bit
//! scan would produce them, so the reported floats are bit-exact against
//! the scalar oracles.

use pufbits::{BitMatrix, BitVec};
use pufstats::{Histogram, Summary};

/// Average within-class fractional Hamming distance: every read-out of a
/// device compared to that device's reference pattern.
///
/// # Panics
///
/// Panics if `readouts` is empty or widths mismatch.
///
/// # Examples
///
/// ```
/// use pufbits::{BitMatrix, BitVec};
/// use pufassess::metrics::within_class_hd;
///
/// let reference = BitVec::from_bytes(&[0xFF]);
/// let m = BitMatrix::from_rows([
///     BitVec::from_bytes(&[0xFF]),
///     BitVec::from_bytes(&[0xFE]),
/// ])?;
/// assert!((within_class_hd(&m, &reference) - 0.0625).abs() < 1e-12);
/// # Ok::<(), pufbits::MismatchedLengthError>(())
/// ```
pub fn within_class_hd(readouts: &BitMatrix, reference: &BitVec) -> f64 {
    assert!(!readouts.is_empty(), "within_class_hd needs read-outs");
    let fhds = readouts.fhd_to_reference(reference);
    fhds.iter().sum::<f64>() / fhds.len() as f64
}

/// Pairwise between-class fractional Hamming distances over device
/// references (`n·(n−1)/2` values for `n` devices).
///
/// # Panics
///
/// Panics if fewer than two references are given.
pub fn between_class_hds(references: &BitMatrix) -> Vec<f64> {
    assert!(
        references.rows() >= 2,
        "between-class distance needs at least two devices"
    );
    references.pairwise_fhd()
}

/// Average fractional Hamming weight over a window of read-outs.
///
/// # Panics
///
/// Panics if `readouts` is empty.
pub fn fractional_hw(readouts: &BitMatrix) -> f64 {
    assert!(!readouts.is_empty(), "fractional_hw needs read-outs");
    let ws = readouts.row_fhw();
    ws.iter().sum::<f64>() / ws.len() as f64
}

/// The Fig. 5 bundle: distributions of WCHD, BCHD, and FHW at one point in
/// time over all devices.
///
/// The paper plots all three as histograms over the unit interval
/// ("Fractional hamming distance / hamming weight") with percentage counts.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialQuality {
    /// Within-class FHD samples (every device, every window read-out).
    pub wchd: Histogram,
    /// Between-class FHD samples (every device pair).
    pub bchd: Histogram,
    /// Fractional Hamming weight samples (every device, every read-out).
    pub fhw: Histogram,
    /// Descriptive statistics of the same three sample sets.
    pub wchd_summary: Summary,
    /// Summary of the between-class samples.
    pub bchd_summary: Summary,
    /// Summary of the Hamming-weight samples.
    pub fhw_summary: Summary,
}

impl InitialQuality {
    /// Number of histogram bins used (the paper's Fig. 5 resolution).
    pub const BINS: usize = 100;

    /// Evaluates the Fig. 5 quality bundle from per-device read-out windows.
    ///
    /// `windows[d]` holds device `d`'s consecutive read-outs; the first row
    /// of each window is that device's reference.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two devices are given or any window is empty.
    pub fn evaluate(windows: &[BitMatrix]) -> Self {
        assert!(windows.len() >= 2, "Fig. 5 needs at least two devices");
        let mut wchd_samples = Vec::new();
        let mut fhw_samples = Vec::new();
        let mut references = Vec::new();
        for window in windows {
            assert!(!window.is_empty(), "every device needs read-outs");
            let reference = window.row(0).expect("non-empty window").clone();
            wchd_samples.extend(window.fhd_to_reference(&reference));
            fhw_samples.extend(window.row_fhw());
            references.push(reference);
        }
        let references = BitMatrix::from_rows(references).expect("equal read widths");
        let bchd_samples = between_class_hds(&references);
        Self::from_samples(wchd_samples, bchd_samples, fhw_samples)
    }

    /// Builds the bundle from already-collected sample sets (the streaming
    /// pipeline accumulates these per window without retaining read-outs).
    /// Sample order matters only for bit-exact reproducibility of the
    /// summaries; [`evaluate`](Self::evaluate) orders device-by-device.
    pub fn from_samples(
        wchd_samples: Vec<f64>,
        bchd_samples: Vec<f64>,
        fhw_samples: Vec<f64>,
    ) -> Self {
        // An empty sample set (degenerate input, e.g. no device pairs) gets
        // the defined zero placeholder instead of a panic or NaN summary.
        let summarize = |samples: &[f64]| {
            if samples.is_empty() {
                Summary::empty()
            } else {
                Summary::of(samples.iter().copied())
            }
        };
        Self {
            wchd: Histogram::of(0.0, 1.0, Self::BINS, wchd_samples.iter().copied()),
            bchd: Histogram::of(0.0, 1.0, Self::BINS, bchd_samples.iter().copied()),
            fhw: Histogram::of(0.0, 1.0, Self::BINS, fhw_samples.iter().copied()),
            wchd_summary: summarize(&wchd_samples),
            bchd_summary: summarize(&bchd_samples),
            fhw_summary: summarize(&fhw_samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sramcell::{Environment, SramArray, TechnologyProfile};

    fn device_window(seed: u64, reads: usize, bits: usize) -> BitMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = TechnologyProfile::atmega32u4();
        let sram = SramArray::generate(&profile, bits, &mut rng);
        let env = Environment::nominal(&profile);
        (0..reads).map(|_| sram.power_up(&env, &mut rng)).collect()
    }

    #[test]
    fn wchd_of_identical_readouts_is_zero() {
        let row = BitVec::from_bytes(&[0xAB, 0xCD]);
        let m = BitMatrix::from_rows([row.clone(), row.clone()]).unwrap();
        assert_eq!(within_class_hd(&m, &row), 0.0);
    }

    #[test]
    fn bchd_of_complementary_references_is_one() {
        let m = BitMatrix::from_rows([BitVec::zeros(16), BitVec::ones(16)]).unwrap();
        assert_eq!(between_class_hds(&m), vec![1.0]);
    }

    #[test]
    fn fhw_averages_rows() {
        let m = BitMatrix::from_rows([BitVec::zeros(8), BitVec::ones(8)]).unwrap();
        assert!((fractional_hw(&m) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fig5_shapes_match_paper() {
        // 6 simulated devices, 50 reads each: WCHD below 5 %, BCHD in the
        // 40–50 % band, FHW in the 60–70 % band — the Fig. 5 shape.
        let windows: Vec<BitMatrix> = (0..6).map(|d| device_window(d, 50, 4096)).collect();
        let q = InitialQuality::evaluate(&windows);
        assert!(q.wchd_summary.max < 0.05, "wchd max {}", q.wchd_summary.max);
        assert!(
            (0.40..=0.52).contains(&q.bchd_summary.mean),
            "bchd mean {}",
            q.bchd_summary.mean
        );
        assert!(
            (0.58..=0.68).contains(&q.fhw_summary.mean),
            "fhw mean {}",
            q.fhw_summary.mean
        );
        // Histograms account for every sample.
        assert_eq!(q.wchd.total(), 6 * 50);
        assert_eq!(q.bchd.total(), 15);
        assert_eq!(q.fhw.total(), 6 * 50);
        // WCHD and BCHD are clearly separated (the uniqueness argument).
        assert!(q.wchd_summary.max < q.bchd_summary.min);
    }

    #[test]
    #[should_panic(expected = "at least two devices")]
    fn fig5_requires_two_devices() {
        InitialQuality::evaluate(&[device_window(0, 3, 64)]);
    }

    #[test]
    fn from_samples_tolerates_empty_sample_sets() {
        let q = InitialQuality::from_samples(vec![0.1, 0.2], Vec::new(), Vec::new());
        assert_eq!(q.wchd_summary.n, 2);
        assert_eq!(q.bchd_summary, Summary::empty());
        assert_eq!(q.fhw_summary, Summary::empty());
        assert_eq!(q.bchd.total(), 0);
        assert!(q.bchd_summary.mean.is_finite());
    }

    #[test]
    #[should_panic(expected = "needs read-outs")]
    fn empty_window_rejected() {
        within_class_hd(&BitMatrix::new(8), &BitVec::zeros(8));
    }
}
