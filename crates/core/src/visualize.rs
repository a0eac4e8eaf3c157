//! Start-up pattern visualization (paper Fig. 4).

use pufbits::BitVec;
use std::fmt::Write as _;

/// Renders a power-up pattern as an ASCII raster of `width` bits per line
/// (`'#'` = 1, `'.'` = 0), the terminal equivalent of the paper's Fig. 4.
///
/// # Panics
///
/// Panics if `width == 0`.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufassess::visualize::ascii_raster;
///
/// let art = ascii_raster(&BitVec::from_bytes(&[0b0000_1111]), 4);
/// assert_eq!(art, "####\n....\n");
/// ```
pub fn ascii_raster(pattern: &BitVec, width: usize) -> String {
    assert!(width > 0, "raster width must be positive");
    let mut out = String::new();
    for (i, bit) in pattern.iter().enumerate() {
        out.push(if bit { '#' } else { '.' });
        if (i + 1) % width == 0 {
            out.push('\n');
        }
    }
    if !pattern.len().is_multiple_of(width) {
        out.push('\n');
    }
    out
}

/// Renders a power-up pattern as a binary PGM (P5) image, one pixel per
/// bit (`1` → white), `width` pixels per row. The last row is padded with
/// black if the pattern does not fill it.
///
/// # Panics
///
/// Panics if `width == 0` or the pattern is empty.
///
/// # Examples
///
/// ```
/// use pufbits::BitVec;
/// use pufassess::visualize::pgm_image;
///
/// let img = pgm_image(&BitVec::ones(64), 8);
/// assert!(img.starts_with(b"P5\n8 8\n255\n"));
/// assert_eq!(img.len(), 11 + 64);
/// ```
pub fn pgm_image(pattern: &BitVec, width: usize) -> Vec<u8> {
    assert!(width > 0, "image width must be positive");
    assert!(!pattern.is_empty(), "cannot render an empty pattern");
    let height = pattern.len().div_ceil(width);
    let mut out = Vec::with_capacity(width * height + 32);
    let mut header = String::new();
    write!(header, "P5\n{width} {height}\n255\n").expect("writing to string");
    out.extend_from_slice(header.as_bytes());
    for row in 0..height {
        for col in 0..width {
            let bit = pattern.get(row * width + col).unwrap_or(false);
            out.push(if bit { 255 } else { 0 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raster_lines_have_requested_width() {
        let art = ascii_raster(&BitVec::zeros(20), 8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), 8);
        assert_eq!(lines[2].len(), 4); // ragged tail
    }

    #[test]
    fn raster_marks_ones() {
        let mut v = BitVec::zeros(4);
        v.set(2, true);
        assert_eq!(ascii_raster(&v, 4), "..#.\n");
    }

    #[test]
    fn pgm_has_correct_geometry_and_padding() {
        let img = pgm_image(&BitVec::ones(10), 4);
        // 3 rows of 4 pixels; last two pixels padded black.
        let body = &img[img.len() - 12..];
        assert_eq!(&body[..10], &[255u8; 10][..]);
        assert_eq!(&body[10..], &[0u8, 0u8][..]);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        ascii_raster(&BitVec::zeros(8), 0);
    }
}
