//! DDS ablations (DESIGN.md experiments A1-A3): how much of the BBV+DDV
//! gain comes from each term of `DDS = Σ F·D·C`, plus a DDS-only detector
//! (no BBV gate).
//!
//! Usage: `ablation [--scale test|scaled|paper] [--jobs N] [--cold]
//! [--no-cache]` (default: scaled).

use dsm_analysis::curve::CovCurve;
use dsm_harness::experiment::scale_from_args;
use dsm_harness::figures::config_at;
use dsm_harness::sweep::{ablation_curve, bbv_curve, bbv_ddv_curve, vector_ddv_curve, DdsAblation};
use dsm_harness::trace::capture_cached;
use dsm_harness::{parallel, report};
use dsm_workloads::App;

fn summarize(c: &CovCurve) -> String {
    let at = |k: f64| {
        c.cov_at_phases(k)
            .map(|v| format!("{:.3}", v))
            .unwrap_or_else(|| "  n/a".into())
    };
    format!("@7={} @15={} @25={}", at(7.0), at(15.0), at(25.0))
}

fn main() {
    let scale = scale_from_args();
    let jobs = parallel::init_from_args();
    eprintln!("ablation: running with {jobs} worker(s)");
    let n_procs = 32usize;

    // Fill memory + disk caches for every app up front, in parallel.
    let configs: Vec<_> = App::ALL
        .iter()
        .map(|&app| config_at(app, n_procs, scale))
        .collect();
    let (_, run_report) = parallel::capture_matrix("ablation", &configs);

    let mut out = String::from(
        "DDS ablations at 32P (identifier CoV at fixed phase budgets; lower is better)\n\n",
    );
    let mut rows: Vec<Vec<String>> = Vec::new();

    for app in App::ALL {
        let trace = capture_cached(config_at(app, n_procs, scale));
        let variants: Vec<(&str, CovCurve)> = vec![
            ("BBV only", bbv_curve(&trace)),
            ("BBV+DDV (full F*D*C)", bbv_ddv_curve(&trace)),
            (
                "BBV+DDS[C=1] (no contention)",
                ablation_curve(&trace, DdsAblation::NoContention),
            ),
            (
                "BBV+DDS[D=1] (no distance)",
                ablation_curve(&trace, DdsAblation::NoDistance),
            ),
            (
                "BBV+DDS[F only]",
                ablation_curve(&trace, DdsAblation::FrequencyOnly),
            ),
            ("BBV||F*D vector (extension)", vector_ddv_curve(&trace, 1.0)),
        ];
        out.push_str(&format!("{}:\n", app.name()));
        for (name, curve) in &variants {
            out.push_str(&format!("  {:<30} {}\n", name, summarize(curve)));
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
    report::announce(&report::write_text("ablation.txt", &out).expect("write"));
    report::announce(
        &report::write_csv("ablation.csv", &["app", "variant", "phases", "cov"], &rows)
            .expect("write"),
    );
    report::announce(
        &report::write_text("ablation-run.json", &run_report.to_json()).expect("write run report"),
    );
    eprintln!("{}", run_report.summary());
}
