//! Related-work baseline comparison (DESIGN.md experiment A4): BBV and
//! BBV+DDV against Dhodapkar–Smith working-set signatures and
//! Balasubramonian conditional branch counts, on the same captured traces.
//!
//! Usage: `baselines [--scale test|scaled|paper] [--procs N] [--jobs N] [--cold]
//! [--no-cache]` (default: scaled, 32 processors).

use dsm_harness::cli::{self, procs};
use dsm_harness::figures::{budget_table, config_at};
use dsm_harness::report;
use dsm_harness::sweep::{bbv_curve, bbv_ddv_curve, branch_count_curve, working_set_curve};
use dsm_workloads::App;

fn main() {
    let cli = cli::parse(
        "baselines [--scale test|scaled|paper] [--procs N] [--jobs N] [--cold] [--no-cache]",
    );
    let scale = cli.scale();
    let n_procs = cli.get("--procs", 32, procs(|n| config_at(App::Lu, n, scale)));
    let jobs = cli.init_engine();
    eprintln!("baselines: running with {jobs} worker(s)");
    let (table, rows, run_report) = budget_table("baselines", n_procs, scale, 34, |trace| {
        vec![
            ("branch-count (Balasubramonian)", branch_count_curve(trace)),
            ("working-set sig (Dhodapkar-Smith)", working_set_curve(trace)),
            ("BBV (Sherwood)", bbv_curve(trace)),
            ("BBV+DDV (this paper)", bbv_ddv_curve(trace)),
        ]
    });
    let out = format!(
        "Detector comparison at {n_procs}P (identifier CoV at fixed phase budgets)\n\n{table}"
    );
    println!("{out}");
    report::announce(&report::write_text("baselines.txt", &out).expect("write"));
    report::announce(
        &report::write_csv(
            "baselines.csv",
            &["app", "detector", "phases", "cov"],
            &rows,
        )
        .expect("write"),
    );
    report::announce(
        &report::write_text("baselines-run.json", &run_report.to_json())
            .expect("write run report"),
    );
    eprintln!("{}", run_report.summary());
}
