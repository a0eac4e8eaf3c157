//! The paper's Table I: evaluation result at the start and the end of the
//! test.

use crate::assessment::Assessment;
use sramaging::compound_monthly_rate;
use std::fmt;

/// Which extreme counts as the *worst case* for a metric, matching the
/// paper's WC rows (largest WCHD, most biased HW, most stable cells, least
/// noise entropy, least distinguishable BCHD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorstDirection {
    /// The maximum across devices is the worst case.
    Max,
    /// The minimum across devices is the worst case.
    Min,
}

/// One metric's Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name as printed.
    pub name: String,
    /// Which device extreme is "worst".
    pub worst: WorstDirection,
    /// Average at the start of the test.
    pub start_avg: f64,
    /// Worst case at the start.
    pub start_wc: f64,
    /// Average at the end of the test.
    pub end_avg: f64,
    /// Worst case at the end.
    pub end_wc: f64,
}

impl MetricRow {
    /// Relative change of the average, `end/start − 1`.
    pub fn relative_change(&self) -> f64 {
        self.end_avg / self.start_avg - 1.0
    }

    /// Compound monthly change of the average over `months` months.
    pub fn monthly_change(&self, months: u32) -> f64 {
        compound_monthly_rate(self.start_avg, self.end_avg, months)
    }

    /// Relative change of the worst case.
    pub fn wc_relative_change(&self) -> f64 {
        self.end_wc / self.start_wc - 1.0
    }

    /// Compound monthly change of the worst case.
    pub fn wc_monthly_change(&self, months: u32) -> f64 {
        compound_monthly_rate(self.start_wc, self.end_wc, months)
    }

    /// Whether the paper would print the change as "negligible"
    /// (|relative| < 0.01 % per its footnote... in practice the paper uses
    /// "change is less than 0.01", i.e. 1 % relative on these scales).
    pub fn is_negligible(&self) -> bool {
        self.relative_change().abs() < 0.01
    }
}

/// The condensed two-year result, one row per metric (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Months between the start and end columns.
    pub months: u32,
    /// Within-class Hamming distance (reliability).
    pub wchd: MetricRow,
    /// Fractional Hamming weight (bias).
    pub hw: MetricRow,
    /// Stable-cell ratio (randomness).
    pub stable: MetricRow,
    /// Noise min-entropy (randomness).
    pub noise: MetricRow,
    /// Between-class Hamming distance (uniqueness).
    pub bchd: MetricRow,
    /// PUF min-entropy at the start (single cross-device value).
    pub puf_entropy_start: f64,
    /// PUF min-entropy at the end.
    pub puf_entropy_end: f64,
}

impl Table1 {
    /// Builds Table I from an assessment.
    ///
    /// # Panics
    ///
    /// Panics if the assessment spans fewer than two months.
    pub fn from_assessment(assessment: &Assessment) -> Self {
        let aggregates = assessment.aggregates();
        assert!(
            aggregates.len() >= 2,
            "Table I needs at least two evaluated months"
        );
        let start = &aggregates[0];
        let end = &aggregates[aggregates.len() - 1];
        let months = end.month_index - start.month_index;
        let row = |name: &str,
                   worst: WorstDirection,
                   s: &pufstats::Summary,
                   e: &pufstats::Summary| MetricRow {
            name: name.to_string(),
            worst,
            start_avg: s.mean,
            start_wc: match worst {
                WorstDirection::Max => s.max,
                WorstDirection::Min => s.min,
            },
            end_avg: e.mean,
            end_wc: match worst {
                WorstDirection::Max => e.max,
                WorstDirection::Min => e.min,
            },
        };
        Self {
            months,
            wchd: row("WCHD", WorstDirection::Max, &start.wchd, &end.wchd),
            hw: row("HW", WorstDirection::Max, &start.fhw, &end.fhw),
            stable: row(
                "Ratio of Stable Cells",
                WorstDirection::Max,
                &start.stable_ratio,
                &end.stable_ratio,
            ),
            noise: row(
                "Noise entropy",
                WorstDirection::Min,
                &start.noise_entropy,
                &end.noise_entropy,
            ),
            bchd: row("BCHD", WorstDirection::Min, &start.bchd, &end.bchd),
            puf_entropy_start: start.puf_entropy,
            puf_entropy_end: end.puf_entropy,
        }
    }

    /// All five device-resolved rows, in the paper's order.
    pub fn rows(&self) -> [&MetricRow; 5] {
        [&self.wchd, &self.hw, &self.stable, &self.noise, &self.bchd]
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "EVALUATION RESULT OF SRAM PUF QUALITIES AT THE START AND THE END OF THE TEST\n",
        );
        out.push_str(&format!(
            "{:<24}{:>5}  {:>9}  {:>9}  {:>10}  {:>9}\n",
            "Evaluation", "", "Start", "End", "Rel.Change", "Monthly"
        ));
        // A metric at 0 on either end (WCHD and noise entropy of one-read
        // windows) has no relative or compound monthly change.
        let change = |start: f64, end: f64| {
            let rel = end / start - 1.0;
            if rel.abs() < 0.01 {
                ("negligible".to_string(), "negligible".to_string())
            } else if start > 0.0 && end > 0.0 {
                (
                    format!("{:+.1}%", rel * 100.0),
                    format!(
                        "{:+.2}%",
                        compound_monthly_rate(start, end, self.months) * 100.0
                    ),
                )
            } else {
                ("n/a".to_string(), "n/a".to_string())
            }
        };
        let fmt_pct = |x: f64| format!("{:.2}%", x * 100.0);
        for row in self.rows() {
            let lines = [
                (row.name.as_str(), "AVG.", row.start_avg, row.end_avg),
                ("", "WC.", row.start_wc, row.end_wc),
            ];
            for (name, label, start, end) in lines {
                let (rel, monthly) = change(start, end);
                out.push_str(&format!(
                    "{:<24}{:>5}  {:>9}  {:>9}  {:>10}  {:>9}\n",
                    name,
                    label,
                    fmt_pct(start),
                    fmt_pct(end),
                    rel,
                    monthly,
                ));
            }
        }
        let puf_rel = self.puf_entropy_end / self.puf_entropy_start - 1.0;
        out.push_str(&format!(
            "{:<24}{:>5}  {:>8.2}%  {:>8.2}%  {:>10}\n",
            "PUF entropy",
            "",
            self.puf_entropy_start * 100.0,
            self.puf_entropy_end * 100.0,
            if puf_rel.abs() < 0.01 {
                "negligible".to_string()
            } else {
                format!("{:+.1}%", puf_rel * 100.0)
            },
        ));
        out
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monthly::EvaluationProtocol;
    use puftestbed::{Campaign, CampaignConfig};

    fn assessment(months: u32) -> Assessment {
        let config = CampaignConfig {
            boards: 4,
            sram_bits: 2048,
            read_bits: 2048,
            months,
            reads_per_window: 30,
            ..CampaignConfig::default()
        };
        let records = Campaign::new(config, 60).run_in_memory();
        Assessment::from_records(
            &records,
            &EvaluationProtocol {
                reads_per_window: 30,
                ..EvaluationProtocol::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn table_reports_the_paper_directions() {
        let table = assessment(24).table1();
        assert_eq!(table.months, 24);
        assert!(table.wchd.relative_change() > 0.0, "wchd grows");
        assert!(table.noise.relative_change() > 0.0, "noise entropy grows");
        assert!(table.stable.relative_change() < 0.0, "stable cells shrink");
        assert!(table.hw.is_negligible(), "hw flat");
        assert!(table.bchd.is_negligible(), "bchd flat");
        assert!((table.puf_entropy_end - table.puf_entropy_start).abs() < 0.05);
    }

    #[test]
    fn worst_case_brackets_the_average() {
        let table = assessment(6);
        let table = table.table1();
        assert!(table.wchd.start_wc >= table.wchd.start_avg);
        assert!(table.noise.start_wc <= table.noise.start_avg);
        assert!(table.bchd.start_wc <= table.bchd.start_avg);
        assert!(table.stable.start_wc >= table.stable.start_avg);
    }

    #[test]
    fn monthly_change_definition_matches_paper() {
        let row = MetricRow {
            name: "WCHD".into(),
            worst: WorstDirection::Max,
            start_avg: 0.0249,
            start_wc: 0.0272,
            end_avg: 0.0297,
            end_wc: 0.0325,
        };
        assert!((row.relative_change() - 0.193).abs() < 0.002);
        assert!((row.monthly_change(24) - 0.0074).abs() < 2e-4);
        assert!((row.wc_relative_change() - 0.195).abs() < 0.002);
        assert!((row.wc_monthly_change(24) - 0.0074).abs() < 2e-4);
    }

    #[test]
    fn render_includes_all_rows() {
        let rendered = assessment(2).table1().render();
        for name in [
            "WCHD",
            "HW",
            "Stable",
            "Noise entropy",
            "BCHD",
            "PUF entropy",
        ] {
            assert!(rendered.contains(name), "missing {name} in:\n{rendered}");
        }
        assert!(rendered.contains("AVG."));
        assert!(rendered.contains("WC."));
    }

    #[test]
    fn a_zero_endpoint_renders_n_a_instead_of_panicking() {
        // One read per window: month-zero WCHD and every noise entropy are
        // 0, which the compound monthly rate cannot take.
        let config = CampaignConfig {
            boards: 2,
            sram_bits: 256,
            read_bits: 256,
            months: 1,
            reads_per_window: 1,
            ..CampaignConfig::default()
        };
        let records = Campaign::new(config, 61).run_in_memory();
        let protocol = EvaluationProtocol {
            reads_per_window: 1,
            ..EvaluationProtocol::default()
        };
        let table = Assessment::from_records(&records, &protocol)
            .unwrap()
            .table1();
        assert_eq!(table.wchd.start_avg, 0.0);
        let rendered = table.render();
        let wchd = rendered.lines().find(|l| l.starts_with("WCHD")).unwrap();
        assert!(wchd.ends_with("n/a        n/a"), "{rendered}");
    }
}
