//! The paper's experiment, end to end: run a multi-month measurement
//! campaign on a rack of simulated Arduino boards, apply the §IV evaluation
//! protocol, and print the Fig. 5 histograms, Fig. 6 development series,
//! and Table I.
//!
//! ```text
//! cargo run --release --example longterm_campaign            # reduced scale
//! cargo run --release --example longterm_campaign -- paper   # full protocol
//! ```

use sram_puf_longterm::pufassess::report::{self, Series};
use sram_puf_longterm::pufassess::{EvaluationProtocol, WindowAccumulator};
use sram_puf_longterm::puftestbed::{Campaign, CampaignConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paper_scale = std::env::args().nth(1).as_deref() == Some("paper");
    let config = if paper_scale {
        // The exact protocol of §III: 16 boards, 1 KB read-outs, 1 000-read
        // windows on the 8th of each month, 24 months.
        CampaignConfig::default()
    } else {
        CampaignConfig {
            boards: 8,
            sram_bits: 2048,
            read_bits: 2048,
            months: 24,
            reads_per_window: 200,
            ..CampaignConfig::default()
        }
    };
    let protocol = EvaluationProtocol {
        reads_per_window: config.reads_per_window,
        ..EvaluationProtocol::default()
    };

    eprintln!(
        "running {} boards × {} months × {} reads/window…",
        config.boards, config.months, config.reads_per_window
    );
    // Records fold into the assessment as the campaign emits them, so a
    // paper-scale run never holds its 400 000 read-outs in memory at once.
    let mut accumulator = WindowAccumulator::new(protocol);
    let summary = Campaign::new(config, 2017).run(&mut accumulator)?;
    eprintln!(
        "campaign done: {} records ({} windows)",
        summary.records, summary.windows
    );

    let assessment = accumulator.finish()?;

    println!("=== Fig. 5: initial quality ===\n");
    println!("{}", report::fig5_text(assessment.initial_quality(), 48));

    println!("=== Fig. 6: development over the aging test ===\n");
    for series in [
        Series::Wchd,
        Series::Fhw,
        Series::NoiseEntropy,
        Series::PufEntropy,
        Series::StableRatio,
    ] {
        println!("{}", report::fig6_text(&assessment, series, 40));
    }

    println!("=== Table I ===\n{}", assessment.table1().render());

    // CSVs for external plotting.
    std::fs::write("fig6_devices.csv", report::device_series_csv(&assessment))?;
    std::fs::write("fig6_aggregates.csv", report::aggregate_csv(&assessment))?;
    eprintln!("wrote fig6_devices.csv and fig6_aggregates.csv");
    Ok(())
}
