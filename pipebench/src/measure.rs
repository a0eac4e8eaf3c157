//! Medians, peak-RSS probes, output digests and the result line.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Median of `values` (0 when empty; the mean of the middle pair for an
/// even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so a later [`peak_rss_mb`] covers only what ran in between.
/// Returns `false` where the kernel does not allow it; the peak then
/// covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over bytes, the digest every output check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one 64-bit word into the digest (for structured data such as
    /// read-out bits, where hashing bytewise would cost more than the
    /// check is worth).
    pub fn update_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Digest of `text`.
    pub fn of(text: &str) -> u64 {
        let mut d = Self::default();
        d.update(text.as_bytes());
        d.value()
    }

    /// Digest of a file's bytes.
    pub fn of_file(path: &Path) -> io::Result<u64> {
        let mut file = File::open(path)?;
        let mut d = Self::default();
        let mut buf = vec![0u8; 1 << 20];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                return Ok(d.value());
            }
            d.update(&buf[..n]);
        }
    }
}

/// Hashing writer: a byte stream's digest without storing it.
impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The end-to-end metrics of a plain run with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("result_s", "s"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the run's result as the one-line JSON object the benchmark
/// prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(Digest::of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::of("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric::new("a_s", 1.5, "s"), Metric::new("b", 2.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
