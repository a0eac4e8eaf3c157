//! Packed bit vectors and Hamming-space utilities for PUF analysis.
//!
//! SRAM PUF evaluation is dominated by bulk operations on power-up patterns:
//! Hamming distance and weight (reliability and bias metrics), per-bit
//! one-counts over thousands of repeated read-outs (one-probabilities,
//! stable-cell detection), and XOR masks (noise extraction). This crate
//! provides the data structures those operations run on:
//!
//! * [`BitVec`] — a densely packed, word-aligned bit vector with `popcnt`-based
//!   Hamming kernels.
//! * [`BitMatrix`] — a rectangular stack of equal-length read-outs.
//! * [`OnesCounter`] — a streaming per-bit one-count accumulator that turns an
//!   unbounded stream of read-outs into per-cell one-probabilities without
//!   storing the read-outs themselves.
//! * [`BlockCounter`] — a 64-row staging wrapper around [`OnesCounter`] that
//!   accumulates via the word-level transpose kernel instead of per-set-bit
//!   increments.
//! * [`kernel`] — the word-parallel (u64 + hardware popcount) primitives all
//!   of the above are built on, with per-bit scalar reference oracles.
//!
//! # Examples
//!
//! ```
//! use pufbits::BitVec;
//!
//! let reference = BitVec::from_bytes(&[0xFF, 0x0F]);
//! let readout = BitVec::from_bytes(&[0xFE, 0x0F]);
//! assert_eq!(reference.hamming_distance(&readout), 1);
//! assert!((reference.fractional_hamming_distance(&readout) - 1.0 / 16.0).abs() < 1e-12);
//! ```

mod bitvec;
mod counter;
pub mod kernel;
mod matrix;
mod rng;

pub use bitvec::{BitVec, Bytes, Iter};
pub use counter::{BlockCounter, OnesCounter};
pub use matrix::BitMatrix;
pub use rng::{splitmix64, PufRng};

use std::error::Error;
use std::fmt;

/// Error returned by checked binary operations on bit containers whose
/// operands have different lengths.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
///
/// let a = BitVec::zeros(8);
/// let b = BitVec::zeros(9);
/// assert!(a.checked_hamming_distance(&b).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MismatchedLengthError {
    /// Length of the left operand, in bits.
    pub left: usize,
    /// Length of the right operand, in bits.
    pub right: usize,
}

impl fmt::Display for MismatchedLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit containers have mismatched lengths: {} vs {}",
            self.left, self.right
        )
    }
}

impl Error for MismatchedLengthError {}
