//! Related-work baseline comparison (DESIGN.md experiment A4): BBV and
//! BBV+DDV against Dhodapkar–Smith working-set signatures and
//! Balasubramonian conditional branch counts, on the same captured traces.
//!
//! Usage: `baselines [--scale test|scaled|paper] [--procs N] [--jobs N]
//! [--cold] [--no-cache]`.

use dsm_analysis::curve::CovCurve;
use dsm_harness::experiment::scale_from_args;
use dsm_harness::figures::config_at;
use dsm_harness::sweep::{bbv_curve, bbv_ddv_curve, branch_count_curve, working_set_curve};
use dsm_harness::trace::capture_cached;
use dsm_harness::{parallel, report};
use dsm_workloads::App;

fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let scale = scale_from_args();
    let n_procs: usize = arg_after("--procs")
        .map(|s| s.parse().unwrap())
        .unwrap_or(32);
    let jobs = parallel::init_from_args();
    eprintln!("baselines: running with {jobs} worker(s)");

    // Fill memory + disk caches for every app up front, in parallel.
    let configs: Vec<_> = App::ALL
        .iter()
        .map(|&app| config_at(app, n_procs, scale))
        .collect();
    let (_, run_report) = parallel::capture_matrix("baselines", &configs);

    let mut out =
        format!("Detector comparison at {n_procs}P (identifier CoV at fixed phase budgets)\n\n");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for app in App::ALL {
        let trace = capture_cached(config_at(app, n_procs, scale));
        let variants: Vec<(&str, CovCurve)> = vec![
            ("branch-count (Balasubramonian)", branch_count_curve(&trace)),
            (
                "working-set sig (Dhodapkar-Smith)",
                working_set_curve(&trace),
            ),
            ("BBV (Sherwood)", bbv_curve(&trace)),
            ("BBV+DDV (this paper)", bbv_ddv_curve(&trace)),
        ];
        out.push_str(&format!("{}:\n", app.name()));
        for (name, curve) in &variants {
            let at = |k: f64| {
                curve
                    .cov_at_phases(k)
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "  n/a".into())
            };
            out.push_str(&format!(
                "  {:<34} @7={} @15={} @25={}\n",
                name,
                at(7.0),
                at(15.0),
                at(25.0)
            ));
            for k in [7.0, 15.0, 25.0] {
                if let Some(cov) = curve.cov_at_phases(k) {
                    rows.push(vec![
                        app.name().into(),
                        name.to_string(),
                        format!("{k}"),
                        format!("{cov:.6}"),
                    ]);
                }
            }
        }
        out.push('\n');
    }
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
