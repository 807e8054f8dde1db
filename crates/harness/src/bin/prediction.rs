//! Phase-prediction experiment (the paper's §VI future-work direction):
//! last-phase and RLE-Markov predictor accuracy over each detector's
//! classified phase streams, per application and system size.
//!
//! Usage: `prediction [--scale test|scaled|paper]` (default: scaled).

use dsm_harness::cli;
use dsm_harness::figures::config_at;
use dsm_harness::report;
use dsm_harness::trace::capture_cached;
use dsm_phase::detector::{DetectorMode, Thresholds, TraceClassifier};
use dsm_phase::predictor::{accuracy_over, LastPhasePredictor, RlePredictor};
use dsm_workloads::App;

fn main() {
    let scale = cli::parse("prediction [--scale test|scaled|paper]").scale();
    let mut out =
        String::from("Phase prediction accuracy (mean over processors; higher is better)\n\n");
    let mut rows: Vec<Vec<String>> = Vec::new();
    out.push_str(&format!(
        "{:<8} {:>4} {:>9} {:>12} {:>12}\n",
        "app", "P", "detector", "last-phase", "RLE-Markov"
    ));
    for app in App::ALL {
        for procs in [8usize, 32] {
            let trace = capture_cached(config_at(app, procs, scale));
            for (name, mode, thr) in [
                ("BBV", DetectorMode::Bbv, Thresholds::bbv_only(0.30)),
                (
                    "BBV+DDV",
                    DetectorMode::BbvDdv,
                    Thresholds {
                        bbv: 0.30,
                        dds: 0.25,
                    },
                ),
            ] {
                let (mut last_sum, mut rle_sum) = (0.0, 0.0);
                for records in &trace.records {
                    let ids = TraceClassifier::classify_proc(records, mode, thr, 32);
                    last_sum += accuracy_over(&mut LastPhasePredictor::new(), &ids);
                    rle_sum += accuracy_over(&mut RlePredictor::new(64), &ids);
                }
                let n = trace.records.len() as f64;
                let (last, rle) = (last_sum / n, rle_sum / n);
                out.push_str(&format!(
                    "{:<8} {:>4} {:>9} {:>11.1}% {:>11.1}%\n",
                    app.name(),
                    procs,
                    name,
                    last * 100.0,
                    rle * 100.0
                ));
                rows.push(vec![
                    app.name().into(),
                    procs.to_string(),
                    name.into(),
                    format!("{last:.4}"),
                    format!("{rle:.4}"),
                ]);
            }
        }
    }
    println!("{out}");
    report::announce(&report::write_text("prediction.txt", &out).expect("write"));
    report::announce(
        &report::write_csv(
            "prediction.csv",
            &["app", "procs", "detector", "last_phase_acc", "rle_acc"],
            &rows,
        )
        .expect("write"),
    );
}
