//! Text and CSV rendering of the assessment artifacts (Fig. 5, Fig. 6).

use crate::assessment::Assessment;
use crate::metrics::InitialQuality;
use std::fmt::Write as _;

/// Which development series of Fig. 6 to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Fig. 6a: within-class Hamming distance.
    Wchd,
    /// Fig. 6b: fractional Hamming weight.
    Fhw,
    /// Fig. 6c: noise entropy.
    NoiseEntropy,
    /// Fig. 6d: PUF entropy.
    PufEntropy,
    /// Table I companion: stable-cell ratio.
    StableRatio,
    /// Table I companion: between-class Hamming distance.
    Bchd,
}

impl Series {
    /// Column label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Series::Wchd => "wchd",
            Series::Fhw => "fhw",
            Series::NoiseEntropy => "noise_entropy",
            Series::PufEntropy => "puf_entropy",
            Series::StableRatio => "stable_ratio",
            Series::Bchd => "bchd",
        }
    }
}

/// Extracts a monthly aggregate series `(month_index, mean)` (for
/// [`Series::PufEntropy`] the single cross-device value).
pub fn aggregate_series(assessment: &Assessment, series: Series) -> Vec<(u32, f64)> {
    assessment
        .aggregates()
        .iter()
        .map(|a| {
            let value = match series {
                Series::Wchd => a.wchd.mean,
                Series::Fhw => a.fhw.mean,
                Series::NoiseEntropy => a.noise_entropy.mean,
                Series::PufEntropy => a.puf_entropy,
                Series::StableRatio => a.stable_ratio.mean,
                Series::Bchd => a.bchd.mean,
            };
            (a.month_index, value)
        })
        .collect()
}

/// CSV of the per-device Fig. 6 lines: one row per (device, month) with all
/// per-device metrics, headed by a label row.
///
/// # Examples
///
/// ```no_run
/// # fn demo(assessment: &pufassess::Assessment) {
/// let csv = pufassess::report::device_series_csv(assessment);
/// std::fs::write("fig6_devices.csv", csv).unwrap();
/// # }
/// ```
pub fn device_series_csv(assessment: &Assessment) -> String {
    let mut out =
        String::from("device,month,year,calendar_month,wchd,fhw,noise_entropy,stable_ratio\n");
    for d in assessment.device_months() {
        writeln!(
            out,
            "{},{},{},{},{:.6},{:.6},{:.6},{:.6}",
            d.device.0,
            d.month_index,
            d.year_month.0,
            d.year_month.1,
            d.wchd,
            d.fhw,
            d.noise_entropy,
            d.stable_ratio
        )
        .expect("writing to string");
    }
    out
}

/// CSV of the monthly aggregates (the Fig. 6 summary view plus Table I
/// inputs).
pub fn aggregate_csv(assessment: &Assessment) -> String {
    let mut out = String::from(
        "month,year,calendar_month,wchd_avg,wchd_max,fhw_avg,noise_avg,noise_min,stable_avg,bchd_avg,bchd_min,puf_entropy\n",
    );
    for a in assessment.aggregates() {
        writeln!(
            out,
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
            a.month_index,
            a.year_month.0,
            a.year_month.1,
            a.wchd.mean,
            a.wchd.max,
            a.fhw.mean,
            a.noise_entropy.mean,
            a.noise_entropy.min,
            a.stable_ratio.mean,
            a.bchd.mean,
            a.bchd.min,
            a.puf_entropy
        )
        .expect("writing to string");
    }
    out
}

/// Renders the Fig. 5 histograms as labelled ASCII charts.
pub fn fig5_text(quality: &InitialQuality, bar_width: usize) -> String {
    let mut out = String::new();
    out.push_str("Fractional Hamming distance / Hamming weight distributions\n\n");
    out.push_str(&format!(
        "Within-class HD   (mean {:.4}):\n{}\n",
        quality.wchd_summary.mean,
        quality.wchd.render_ascii(bar_width)
    ));
    out.push_str(&format!(
        "Between-class HD  (mean {:.4}):\n{}\n",
        quality.bchd_summary.mean,
        quality.bchd.render_ascii(bar_width)
    ));
    out.push_str(&format!(
        "Fractional HW     (mean {:.4}):\n{}\n",
        quality.fhw_summary.mean,
        quality.fhw.render_ascii(bar_width)
    ));
    out
}

/// Renders one aggregate series as a labelled text chart (month, value,
/// bar), the terminal stand-in for a Fig. 6 panel.
pub fn fig6_text(assessment: &Assessment, series: Series, bar_width: usize) -> String {
    let data = aggregate_series(assessment, series);
    let lo = data.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let hi = data
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut out = format!("{} development ({} months)\n", series.label(), data.len());
    for (month, value) in data {
        let bar = (((value - lo) / span) * bar_width as f64).round() as usize;
        writeln!(out, "m{month:>3}  {value:.5}  {}", "*".repeat(bar.max(1)))
            .expect("writing to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monthly::EvaluationProtocol;
    use puftestbed::{Campaign, CampaignConfig};

    fn assessment() -> Assessment {
        let config = CampaignConfig {
            boards: 3,
            sram_bits: 1024,
            read_bits: 1024,
            months: 2,
            reads_per_window: 20,
            ..CampaignConfig::default()
        };
        let records = Campaign::new(config, 70).run_in_memory();
        Assessment::from_records(
            &records,
            &EvaluationProtocol {
                reads_per_window: 20,
                ..EvaluationProtocol::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn aggregate_series_covers_every_month() {
        let a = assessment();
        for s in [
            Series::Wchd,
            Series::Fhw,
            Series::NoiseEntropy,
            Series::PufEntropy,
            Series::StableRatio,
            Series::Bchd,
        ] {
            let data = aggregate_series(&a, s);
            assert_eq!(data.len(), 3, "{}", s.label());
            assert!(data.iter().all(|&(_, v)| v.is_finite()));
        }
    }

    #[test]
    fn device_csv_has_header_and_rows() {
        let a = assessment();
        let csv = device_series_csv(&a);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("device,month"));
        assert_eq!(lines.len(), 1 + 3 * 3);
    }

    #[test]
    fn aggregate_csv_has_one_row_per_month() {
        let a = assessment();
        let csv = aggregate_csv(&a);
        assert_eq!(csv.lines().count(), 1 + 3);
    }

    #[test]
    fn text_renders_are_nonempty() {
        let a = assessment();
        assert!(fig5_text(a.initial_quality(), 30).contains("Within-class"));
        let chart = fig6_text(&a, Series::Wchd, 20);
        assert!(chart.contains("m  0"));
        assert!(chart.contains('*'));
    }
}
