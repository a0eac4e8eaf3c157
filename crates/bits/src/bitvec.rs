//! Densely packed bit vector with Hamming-space kernels.

use crate::MismatchedLengthError;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor};

const WORD_BITS: usize = 64;

/// A densely packed, growable bit vector.
///
/// Bits are stored little-endian within 64-bit words: bit `i` lives in word
/// `i / 64` at position `i % 64`. Unused bits in the final word are always
/// kept zero, which lets bulk operations (Hamming weight/distance, equality)
/// run on whole words without masking.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
///
/// let mut v = BitVec::zeros(10);
/// v.set(3, true);
/// assert_eq!(v.count_ones(), 1);
/// assert!(v.get(3).unwrap());
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::new();
    /// assert!(v.is_empty());
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::zeros(100);
    /// assert_eq!(v.len(), 100);
    /// assert_eq!(v.count_ones(), 0);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::ones(70);
    /// assert_eq!(v.count_ones(), 70);
    /// ```
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a bit vector from bytes, least-significant bit of `bytes[0]`
    /// first. The resulting length is `8 * bytes.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bytes(&[0b0000_0001]);
    /// assert!(v.get(0).unwrap());
    /// assert!(!v.get(1).unwrap());
    /// ```
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self {
            words: pack_bytes(bytes),
            len: bytes.len() * 8,
        }
    }

    /// Creates a bit vector from an iterator of booleans.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bits([true, false, true]);
    /// assert_eq!(v.len(), 3);
    /// assert_eq!(v.count_ones(), 2);
    /// ```
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        bits.into_iter().collect()
    }

    /// Creates a bit vector of `len` bits directly from packed little-endian
    /// words (bit `i` is bit `i % 64` of `words[i / 64]`). This is the
    /// zero-copy entry point for kernels that assemble read-outs a word at a
    /// time; any set bits past `len` in the final word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `len.div_ceil(64)` long.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_words(vec![0b101], 3);
    /// assert_eq!(v, pufbits::BitVec::from_bits([true, false, true]));
    /// ```
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count does not match bit length {len}"
        );
        let mut v = Self { words, len };
        v.mask_tail();
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`, or `None` if out of bounds.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::ones(4);
    /// assert_eq!(v.get(3), Some(true));
    /// assert_eq!(v.get(4), None);
    /// ```
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1)
    }

    /// Sets the bit at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut v = pufbits::BitVec::zeros(8);
    /// v.set(7, true);
    /// assert_eq!(v.count_ones(), 1);
    /// ```
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds (len {})",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// Appends a bit.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut v = pufbits::BitVec::new();
    /// v.push(true);
    /// v.push(false);
    /// assert_eq!(v.len(), 2);
    /// ```
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let i = self.len - 1;
            self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
    }

    /// Number of one bits (Hamming weight), one popcount per word
    /// ([`crate::kernel::ones`]).
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bytes(&[0b1011_0000]);
    /// assert_eq!(v.count_ones(), 3);
    /// ```
    pub fn count_ones(&self) -> usize {
        crate::kernel::ones(&self.words) as usize
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Hamming weight divided by length (the paper's *fractional Hamming
    /// weight*, FHW). Returns `0.0` for an empty vector.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bytes(&[0x0F]);
    /// assert!((v.fractional_hamming_weight() - 0.5).abs() < 1e-12);
    /// ```
    pub fn fractional_hamming_weight(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Number of positions where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; use
    /// [`checked_hamming_distance`](Self::checked_hamming_distance) for a
    /// fallible variant.
    ///
    /// # Examples
    ///
    /// ```
    /// use pufbits::BitVec;
    /// let a = BitVec::from_bytes(&[0b1100]);
    /// let b = BitVec::from_bytes(&[0b1010]);
    /// assert_eq!(a.hamming_distance(&b), 2);
    /// ```
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        self.checked_hamming_distance(other)
            .expect("hamming_distance: mismatched lengths")
    }

    /// Fallible [`hamming_distance`](Self::hamming_distance).
    ///
    /// # Errors
    ///
    /// Returns [`MismatchedLengthError`] if the operands have different
    /// lengths.
    pub fn checked_hamming_distance(&self, other: &BitVec) -> Result<usize, MismatchedLengthError> {
        if self.len != other.len {
            return Err(MismatchedLengthError {
                left: self.len,
                right: other.len,
            });
        }
        Ok(crate::kernel::hamming_distance(&self.words, &other.words) as usize)
    }

    /// Hamming distance divided by length (the paper's *fractional Hamming
    /// distance*, FHD). Returns `0.0` when both vectors are empty.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use pufbits::BitVec;
    /// let a = BitVec::zeros(8);
    /// let b = BitVec::ones(8);
    /// assert!((a.fractional_hamming_distance(&b) - 1.0).abs() < 1e-12);
    /// ```
    pub fn fractional_hamming_distance(&self, other: &BitVec) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.hamming_distance(other) as f64 / self.len as f64
    }

    /// Bitwise XOR, the *noise pattern* between two read-outs.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &BitVec) -> BitVec {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or(&self, other: &BitVec) -> BitVec {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise NOT (within `len`).
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::zeros(10).not();
    /// assert_eq!(v.count_ones(), 10);
    /// ```
    pub fn not(&self) -> BitVec {
        let mut out = BitVec {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    fn zip_words(&self, other: &BitVec, f: impl Fn(u64, u64) -> u64) -> BitVec {
        assert_eq!(
            self.len, other.len,
            "bitwise op on mismatched lengths {} vs {}",
            self.len, other.len
        );
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        }
    }

    /// Extracts the bits selected by `mask` (positions where `mask` is one),
    /// in order. Used for stable-cell selection and debiasing masks.
    ///
    /// Runs word-parallel ([`crate::kernel::select`]): the extraction
    /// touches only the *set* mask bits instead of walking every position
    /// with a get/push pair.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use pufbits::BitVec;
    /// let data = BitVec::from_bits([true, false, true, true]);
    /// let mask = BitVec::from_bits([true, true, false, true]);
    /// let sel = data.select(&mask);
    /// assert_eq!(sel, BitVec::from_bits([true, false, true]));
    /// ```
    pub fn select(&self, mask: &BitVec) -> BitVec {
        assert_eq!(
            self.len,
            mask.len,
            "select with mismatched mask length {} vs {}",
            self.len,
            mask.len()
        );
        let mut words = Vec::new();
        let len = crate::kernel::select(&self.words, &mask.words, self.len, &mut words);
        BitVec { words, len }
    }

    /// Truncated copy holding the first `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix(&self, len: usize) -> BitVec {
        assert!(
            len <= self.len,
            "prefix {len} longer than vector {}",
            self.len
        );
        let mut out = BitVec {
            words: self.words[..len.div_ceil(WORD_BITS)].to_vec(),
            len,
        };
        if len == 0 {
            out.words.clear();
        }
        out.mask_tail();
        out
    }

    /// Copy of the `len` bits starting at bit `start`, assembled a word at a
    /// time: output word `i` is input word `start / 64 + i` shifted down by
    /// `start % 64`, with the next word's low bits shifted in on top.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pufbits::BitVec;
    /// let v = BitVec::from_bits([true, false, true, true, false]);
    /// assert_eq!(v.range(1, 3), BitVec::from_bits([false, true, true]));
    /// ```
    pub fn range(&self, start: usize, len: usize) -> BitVec {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "range {start}+{len} past vector {}",
            self.len
        );
        let first = start / WORD_BITS;
        let shift = start % WORD_BITS;
        let words = (first..first + len.div_ceil(WORD_BITS))
            .map(|w| {
                let high = match self.words.get(w + 1) {
                    Some(&next) if shift != 0 => next << (WORD_BITS - shift),
                    _ => 0,
                };
                (self.words[w] >> shift) | high
            })
            .collect();
        BitVec::from_words(words, len)
    }

    /// Appends all of `other`'s bits, a word at a time: each of its words
    /// is split across the current last word and a new one at the shift
    /// `self.len() % 64`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pufbits::BitVec;
    /// let mut v = BitVec::from_bits([true]);
    /// v.append(&BitVec::from_bits([false, true]));
    /// assert_eq!(v, BitVec::from_bits([true, false, true]));
    /// ```
    pub fn append(&mut self, other: &BitVec) {
        let shift = self.len % WORD_BITS;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                *self.words.last_mut().expect("a partial word exists") |= w << shift;
                self.words.push(w >> (WORD_BITS - shift));
            }
        }
        self.len += other.len;
        // The last pushed word may hold only zero tail bits.
        self.words.truncate(self.len.div_ceil(WORD_BITS));
    }

    /// Serializes to bytes, least-significant bit first; the final byte is
    /// zero-padded. Inverse of [`from_bytes`](Self::from_bytes) when the
    /// length is a multiple of eight.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.byte_len());
        self.to_bytes_into(&mut bytes);
        bytes
    }

    /// Number of bytes [`to_bytes`](Self::to_bytes) produces:
    /// `len().div_ceil(8)`.
    pub fn byte_len(&self) -> usize {
        self.len.div_ceil(8)
    }

    /// Appends the packed bytes (the [`to_bytes`](Self::to_bytes)
    /// serialization) to `out` without allocating a fresh buffer — the
    /// zero-copy path for codecs writing one record after another into a
    /// reused scratch vector. Each word goes out as its eight little-endian
    /// bytes, the last one cut to [`byte_len`](Self::byte_len).
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bytes(&[0xA5, 0x01]);
    /// let mut out = Vec::new();
    /// v.to_bytes_into(&mut out);
    /// assert_eq!(out, [0xA5, 0x01]);
    /// ```
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        let len = self.byte_len();
        let (whole, tail) = (len / 8, len % 8);
        out.reserve(len);
        for word in &self.words[..whole] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        if tail != 0 {
            out.extend_from_slice(&self.words[whole].to_le_bytes()[..tail]);
        }
    }

    /// Iterator over the packed bytes, least-significant bit first (the
    /// byte sequence [`to_bytes`](Self::to_bytes) returns), without
    /// materialising a buffer.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bytes(&[0xDE, 0xAD]);
    /// assert!(v.bytes().eq([0xDE, 0xAD]));
    /// ```
    pub fn bytes(&self) -> Bytes<'_> {
        Bytes { vec: self, pos: 0 }
    }

    /// Creates a bit vector of exactly `len` bits from its packed byte
    /// serialization — the single-allocation inverse of
    /// [`to_bytes`](Self::to_bytes) for lengths that are not a multiple of
    /// eight (equivalent to `from_bytes(bytes).prefix(len)` without the
    /// intermediate copy). Pad bits past `len` in the final byte are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != len.div_ceil(8)`.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bytes_with_len(&[0xFF, 0x1F], 13);
    /// assert_eq!(v.len(), 13);
    /// assert_eq!(v.count_ones(), 13);
    /// ```
    pub fn from_bytes_with_len(bytes: &[u8], len: usize) -> Self {
        assert_eq!(
            bytes.len(),
            len.div_ceil(8),
            "byte count does not cover bit length {len}"
        );
        let mut v = Self {
            words: pack_bytes(bytes),
            len,
        };
        v.mask_tail();
        v
    }

    /// The underlying 64-bit words (tail bits beyond `len` are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over the bits.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = pufbits::BitVec::from_bits([true, false]);
    /// let bits: Vec<bool> = v.iter().collect();
    /// assert_eq!(bits, [true, false]);
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter { vec: self, pos: 0 }
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Packs `bytes` into little-endian words eight at a time, the last word
/// zero-padded: the word storage of [`BitVec::from_bytes`] and
/// [`BitVec::from_bytes_with_len`], in one allocation.
fn pack_bytes(bytes: &[u8]) -> Vec<u64> {
    let mut words = Vec::with_capacity(bytes.len().div_ceil(8));
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    words.extend(chunks.map(|c| u64::from_le_bytes(c.try_into().expect("an 8-byte chunk"))));
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        words.push(u64::from_le_bytes(last));
    }
    words
}

/// Iterator over the packed bytes of a [`BitVec`], produced by
/// [`BitVec::bytes`].
#[derive(Debug, Clone)]
pub struct Bytes<'a> {
    vec: &'a BitVec,
    pos: usize,
}

impl Iterator for Bytes<'_> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.pos >= self.vec.byte_len() {
            return None;
        }
        let i = self.pos;
        self.pos += 1;
        Some(((self.vec.words[i / 8] >> ((i % 8) * 8)) & 0xFF) as u8)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.byte_len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Bytes<'_> {}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.vec.get(self.pos)?;
        self.pos += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::new();
        v.extend(iter);
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl BitXor for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        self.xor(rhs)
    }
}

impl BitAnd for &BitVec {
    type Output = BitVec;

    fn bitand(self, rhs: &BitVec) -> BitVec {
        self.and(rhs)
    }
}

impl BitOr for &BitVec {
    type Output = BitVec;

    fn bitor(self, rhs: &BitVec) -> BitVec {
        self.or(rhs)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i) == Some(true)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

/// The two lowercase hex digits of every byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [DIGITS[b >> 4], DIGITS[b & 0xF]];
        b += 1;
    }
    table
};

/// Lowercase hex of [`bytes`](BitVec::bytes), two digits per byte: the
/// `data` field of a stored record. Each word goes out as one 16-digit
/// `write_str`, the last one cut to [`byte_len`](BitVec::byte_len).
impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut digits_left = 2 * self.byte_len();
        for word in &self.words {
            let mut digits = [0u8; 16];
            for (pair, byte) in digits.chunks_exact_mut(2).zip(word.to_le_bytes()) {
                pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
            }
            let n = digits_left.min(digits.len());
            f.write_str(std::str::from_utf8(&digits[..n]).expect("hex digits are ASCII"))?;
            digits_left -= n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_weights() {
        assert_eq!(BitVec::zeros(130).count_ones(), 0);
        assert_eq!(BitVec::ones(130).count_ones(), 130);
        assert_eq!(BitVec::ones(130).count_zeros(), 0);
    }

    #[test]
    fn tail_bits_stay_zero_after_not() {
        let v = BitVec::zeros(5).not();
        assert_eq!(v.count_ones(), 5);
        assert_eq!(v.as_words()[0], 0b11111);
    }

    #[test]
    fn from_bytes_round_trips() {
        let bytes = [0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        let v = BitVec::from_bytes(&bytes);
        assert_eq!(v.len(), 40);
        assert_eq!(v.to_bytes(), bytes);
    }

    /// The word-wise byte packing, unpacking and hex encoding against the
    /// per-byte `bytes()` iterator, at every length to 200 bits and at the
    /// paper's 8 192, over seeded random bits.
    #[test]
    fn byte_iterator_matches_to_bytes() {
        for len in (0..=200usize).chain([8192]) {
            let mut state = len as u64;
            let words = (0..len.div_ceil(WORD_BITS))
                .map(|_| {
                    state = state.wrapping_add(1);
                    crate::splitmix64(state)
                })
                .collect();
            let v = BitVec::from_words(words, len);
            let collected: Vec<u8> = v.bytes().collect();
            assert_eq!(collected, v.to_bytes(), "len {len}");
            assert_eq!(v.bytes().len(), v.byte_len());
            let mut appended = vec![0xEE];
            v.to_bytes_into(&mut appended);
            assert_eq!(appended[0], 0xEE, "to_bytes_into must append");
            assert_eq!(&appended[1..], &collected[..]);

            assert_eq!(BitVec::from_bytes_with_len(&collected, len), v, "len {len}");
            if len % 8 == 0 {
                assert_eq!(BitVec::from_bytes(&collected), v, "len {len}");
            }
            let hex: String = v.bytes().map(|b| format!("{b:02x}")).collect();
            assert_eq!(v.to_string(), hex, "len {len}");
        }
    }

    #[test]
    fn from_bytes_with_len_equals_from_bytes_prefix() {
        let bytes = [0xDE, 0xAD, 0xBE];
        for len in [17usize, 20, 24] {
            assert_eq!(
                BitVec::from_bytes_with_len(&bytes[..len.div_ceil(8)], len),
                BitVec::from_bytes(&bytes[..len.div_ceil(8)]).prefix(len)
            );
        }
        assert_eq!(BitVec::from_bytes_with_len(&[], 0), BitVec::new());
        // Pad bits past `len` are masked off.
        let v = BitVec::from_bytes_with_len(&[0xFF], 3);
        assert_eq!(v.count_ones(), 3);
        assert_eq!(v.as_words()[0], 0b111);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn from_bytes_with_len_rejects_short_buffers() {
        BitVec::from_bytes_with_len(&[0xFF], 9);
    }

    #[test]
    fn get_and_set_agree() {
        let mut v = BitVec::zeros(200);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(199, true);
        assert_eq!(v.count_ones(), 4);
        for i in [0, 63, 64, 199] {
            assert_eq!(v.get(i), Some(true));
        }
        v.set(63, false);
        assert_eq!(v.get(63), Some(false));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let v = BitVec::zeros(8);
        assert_eq!(v.get(8), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut v = BitVec::zeros(8);
        v.set(8, true);
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a = BitVec::from_bytes(&[0xFF, 0x00]);
        let b = BitVec::from_bytes(&[0x0F, 0x01]);
        assert_eq!(a.hamming_distance(&b), 5);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn checked_hamming_distance_rejects_mismatch() {
        let a = BitVec::zeros(8);
        let b = BitVec::zeros(16);
        let err = a.checked_hamming_distance(&b).unwrap_err();
        assert_eq!(err.left, 8);
        assert_eq!(err.right, 16);
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn fractional_metrics_are_normalized() {
        let a = BitVec::zeros(4);
        let b = BitVec::from_bits([true, true, false, false]);
        assert!((a.fractional_hamming_distance(&b) - 0.5).abs() < 1e-12);
        assert!((b.fractional_hamming_weight() - 0.5).abs() < 1e-12);
        assert_eq!(BitVec::new().fractional_hamming_weight(), 0.0);
        assert_eq!(
            BitVec::new().fractional_hamming_distance(&BitVec::new()),
            0.0
        );
    }

    #[test]
    fn xor_is_noise_pattern() {
        let a = BitVec::from_bytes(&[0b1010]);
        let b = BitVec::from_bytes(&[0b0110]);
        let n = a.xor(&b);
        assert_eq!(n.count_ones(), a.hamming_distance(&b));
    }

    #[test]
    fn operators_match_methods() {
        let a = BitVec::from_bytes(&[0xAA]);
        let b = BitVec::from_bytes(&[0x0F]);
        assert_eq!(&a ^ &b, a.xor(&b));
        assert_eq!(&a & &b, a.and(&b));
        assert_eq!(&a | &b, a.or(&b));
    }

    #[test]
    fn select_extracts_masked_bits() {
        let data = BitVec::from_bits([true, true, false, true, false]);
        let mask = BitVec::from_bits([false, true, true, true, false]);
        assert_eq!(data.select(&mask), BitVec::from_bits([true, false, true]));
    }

    #[test]
    fn prefix_truncates() {
        let v = BitVec::ones(100);
        let p = v.prefix(70);
        assert_eq!(p.len(), 70);
        assert_eq!(p.count_ones(), 70);
        assert_eq!(v.prefix(0), BitVec::new());
    }

    #[test]
    fn push_and_iter_round_trip() {
        let bits = [true, false, true, true, false, false, true];
        let v: BitVec = bits.iter().copied().collect();
        let back: Vec<bool> = v.iter().collect();
        assert_eq!(back, bits);
        assert_eq!(v.iter().len(), bits.len());
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let v = BitVec::from_bytes(&[0xA5]);
        assert!(!format!("{v:?}").is_empty());
        assert_eq!(v.to_string(), "a5");
        assert!(!format!("{:?}", BitVec::new()).is_empty());
    }
}
