//! Regenerate the paper's Figure 4 (BBV vs BBV+DDV CoV curves at 8 and 32
//! processors for LU, FMM, Art, Equake) and the §IV FMM headline.
//!
//! Usage: `fig4 [--scale test|scaled|paper] [--jobs N] [--telemetry-out <dir>]`
//! (default: scaled; jobs defaults to the hardware parallelism;
//! `--telemetry-out` additionally writes one Chrome-trace / metrics /
//! summary triple per workload at 2 processors).

use dsm_harness::cli;
use dsm_harness::figures::{figure4, headline_fmm};
use dsm_harness::{report, telemetry};

fn main() {
    let cli = cli::parse("fig4 [--scale test|scaled|paper] [--jobs N] [--telemetry-out <dir>]");
    let scale = cli.scale();
    let jobs = cli.jobs();
    eprintln!("fig4: running with {jobs} worker(s)");
    let t0 = std::time::Instant::now();
    let fig = figure4(scale);
    let ascii = fig.render_ascii();
    println!("{ascii}");

    let mut headline = String::from("FMM headline (paper SIV):\n");
    for p in [8usize, 32] {
        let h = headline_fmm(scale, p, 25.0);
        headline.push_str(&format!(
            "  {p:>2}P at 25-phase budget: BBV CoV = {}, BBV+DDV CoV = {}\n",
            fmt_pct(h.bbv_cov_at_budget),
            fmt_pct(h.ddv_cov_at_budget)
        ));
        headline.push_str(&format!(
            "  {p:>2}P phases to reach the BBV's CoV: BBV = {}, BBV+DDV = {}\n",
            fmt_f(h.bbv_phases_at_target),
            fmt_f(h.ddv_phases_at_target)
        ));
    }
    println!("{headline}");

    let (h, rows) = fig.csv();
    report::announce(&report::write_csv("fig4.csv", &h, &rows).expect("write csv"));
    report::announce(
        &report::write_text("fig4.txt", &format!("{ascii}\n{headline}")).expect("write txt"),
    );
    report::announce(&report::write_json("fig4.json", &fig.to_json()).expect("write json"));

    if let Some(dir) = cli.telemetry_out() {
        let paths =
            telemetry::export_workloads(&dir, scale, 2).expect("write telemetry artifacts");
        for p in &paths {
            report::announce(p);
        }
    }
    eprintln!("fig4 done in {:?}", t0.elapsed());
}

fn fmt_pct(x: Option<f64>) -> String {
    x.map(|v| format!("{:.1} %", v * 100.0))
        .unwrap_or_else(|| "n/a".into())
}

fn fmt_f(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.1}")).unwrap_or_else(|| "n/a".into())
}
