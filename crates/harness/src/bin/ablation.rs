//! DDS ablations (DESIGN.md experiments A1-A3): how much of the BBV+DDV
//! gain comes from each term of `DDS = Σ F·D·C`, plus a DDS-only detector
//! (no BBV gate).
//!
//! Usage: `ablation [--scale test|scaled|paper] [--jobs N]`
//! (default: scaled).

use dsm_harness::cli;
use dsm_harness::figures::budget_table;
use dsm_harness::report;
use dsm_harness::sweep::{ablation_curve, bbv_curve, bbv_ddv_curve, vector_ddv_curve, DdsAblation};

fn main() {
    let cli = cli::parse("ablation [--scale test|scaled|paper] [--jobs N]");
    let scale = cli.scale();
    let jobs = cli.jobs();
    eprintln!("ablation: running with {jobs} worker(s)");
    let (table, rows) = budget_table(32, scale, 30, |trace| {
        vec![
            ("BBV only", bbv_curve(trace)),
            ("BBV+DDV (full F*D*C)", bbv_ddv_curve(trace)),
            ("BBV+DDS[C=1] (no contention)", ablation_curve(trace, DdsAblation::NoContention)),
            ("BBV+DDS[D=1] (no distance)", ablation_curve(trace, DdsAblation::NoDistance)),
            ("BBV+DDS[F only]", ablation_curve(trace, DdsAblation::FrequencyOnly)),
            ("BBV||F*D vector (extension)", vector_ddv_curve(trace, 1.0)),
        ]
    });
    let out = format!(
        "DDS ablations at 32P (identifier CoV at fixed phase budgets; lower is better)\n\n{table}"
    );
    println!("{out}");
    report::announce(&report::write_text("ablation.txt", &out).expect("write"));
    report::announce(
        &report::write_csv("ablation.csv", &["app", "variant", "phases", "cov"], &rows)
            .expect("write"),
    );
}
