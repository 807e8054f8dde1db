//! Regenerate the paper's Figure 2 (baseline BBV CoV curves at 2/8/32
//! processors for LU, FMM, Art, Equake).
//!
//! Usage: `fig2 [--scale test|scaled|paper] [--jobs N] [--telemetry-out <dir>]`
//! (default: scaled; jobs defaults to the hardware parallelism;
//! `--telemetry-out` additionally writes one Chrome-trace / metrics /
//! summary triple per workload at 2 processors).

use dsm_harness::cli;
use dsm_harness::figures::{figure2, headline_lu};
use dsm_harness::{report, telemetry};

fn main() {
    let cli = cli::parse("fig2 [--scale test|scaled|paper] [--jobs N] [--telemetry-out <dir>]");
    let scale = cli.scale();
    let jobs = cli.jobs();
    eprintln!("fig2: running with {jobs} worker(s)");
    let t0 = std::time::Instant::now();
    let fig = figure2(scale);
    let ascii = fig.render_ascii();
    println!("{ascii}");

    let lu = headline_lu(scale);
    let mut headline = String::from("LU headline (paper SIII-A):\n");
    for (p, cov) in &lu.cov_at_7_phases {
        headline.push_str(&format!(
            "  {p:>2}P: CoV at 7 phases = {}\n",
            cov.map(|c| format!("{:.1} %", c * 100.0))
                .unwrap_or_else(|| "n/a".into())
        ));
    }
    for (p, phases) in &lu.phases_for_20pct {
        headline.push_str(&format!(
            "  {p:>2}P: phases for 20 % CoV = {}\n",
            phases
                .map(|x| format!("{x:.0}"))
                .unwrap_or_else(|| ">25 / n/a".into())
        ));
    }
    println!("{headline}");

    let (h, rows) = fig.csv();
    report::announce(&report::write_csv("fig2.csv", &h, &rows).expect("write csv"));
    report::announce(
        &report::write_text("fig2.txt", &format!("{ascii}\n{headline}")).expect("write txt"),
    );
    report::announce(&report::write_json("fig2.json", &fig.to_json()).expect("write json"));

    if let Some(dir) = cli.telemetry_out() {
        let paths =
            telemetry::export_workloads(&dir, scale, 2).expect("write telemetry artifacts");
        for p in &paths {
            report::announce(p);
        }
    }
    eprintln!("fig2 done in {:?}", t0.elapsed());
}
