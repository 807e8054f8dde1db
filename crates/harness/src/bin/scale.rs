//! Scaling-curve sweep: single-run throughput at 16/64/128 processors on
//! the serial core, O(n²) reference DDV gather vs the O(n) aggregate gather,
//! plus the gather counters and detector CoV of CPI at scale.
//!
//! Usage: `scale [--samples N] [--app NAME] [--jobs N]` (default 3 samples,
//! Ocean — the interval-dense workload where the per-interval gather is the
//! documented hot spot). Artefacts: `scale.txt` (table) and `scale.json`
//! (schema in EXPERIMENTS.md). Every point is asserted bit-identical
//! between the two arms before any number is reported.

use dsm_analysis::Table;
use dsm_harness::cli::{self, number};
use dsm_harness::json::Json;
use dsm_harness::scale::{scale_sweep, ScalePoint, Spread};
use dsm_harness::report;
use dsm_workloads::App;

fn render(points: &[ScalePoint]) -> String {
    let mut t = Table::new(vec![
        "procs",
        "events",
        "ref ev/s",
        "ref min / median",
        "aggregate ev/s",
        "aggregate min / median",
        "speedup",
        "rounds",
        "cov cpi",
    ])
    .with_title(
        "one-run scaling: O(n^2) reference vs O(n) aggregate DDV gather \
         (events/sec: fastest sample, then slowest and median)",
    );
    let spread = |s: Spread| format!("{:.0} / {:.0}", s.min, s.median);
    for p in points {
        t.row(vec![
            p.n_procs.to_string(),
            p.events.to_string(),
            format!("{:.0}", p.reference.max),
            spread(p.reference),
            format!("{:.0}", p.aggregate.max),
            spread(p.aggregate),
            format!("{:.2}x", p.speedup),
            p.gather_rounds.to_string(),
            format!("{:.3}", p.cov_cpi),
        ]);
    }
    t.render()
}

fn main() {
    let cli = cli::parse("scale [--samples N] [--app NAME] [--jobs N]");
    cli.jobs();
    let samples: usize = cli.get("--samples", 3, number);
    let app = cli.get("--app", App::Ocean, cli::app);

    let points = scale_sweep(app, samples);
    let out = render(&points);
    print!("{out}");

    report::announce(&report::write_text("scale.txt", &out).expect("write table"));
    let json = Json::obj()
        .field("experiment", "scale_sweep")
        .field("app", app.name())
        .field("samples", samples)
        .field(
            "points",
            Json::Arr(points.iter().map(|p| p.to_json()).collect()),
        );
    report::announce(&report::write_json("scale.json", &json).expect("write json"));
}
