//! Reproduce the §III-B DDV communication-overhead arithmetic (~160 kB/s
//! per node, under 0.15 % of a 1.5 GB/s memory controller) and report the
//! measured overhead of an actual captured run.
//!
//! Usage: `overhead`.

use dsm_harness::cli;
use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::overhead::{measured_overhead, OverheadModel};
use dsm_harness::report;
use dsm_harness::trace::capture_cached;
use dsm_workloads::App;

fn main() {
    cli::parse("overhead");
    let mut out = OverheadModel::paper().report();
    out.push('\n');

    out.push_str("Measured on captured scaled runs (4-byte counters):\n");
    for app in App::ALL {
        for p in [8usize, 32] {
            let trace = capture_cached(ExperimentConfig::scaled(app, p));
            let m = measured_overhead(&trace, 4.0);
            out.push_str(&format!(
                "  {:>7} {:>2}P: {} F-vectors exchanged, {:.1} kB total, {:.3} ms simulated, {:.1} kB/s per node\n",
                app.name(),
                p,
                m.vectors_exchanged,
                m.bytes_total / 1e3,
                m.sim_seconds * 1e3,
                m.bytes_per_sec_per_node / 1e3,
            ));
        }
    }
    println!("{out}");
    report::announce(&report::write_text("overhead.txt", &out).expect("write"));
}
