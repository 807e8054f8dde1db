//! Cross-node phase-similarity diagnosis report: fault-free, injected
//! straggler, and serial-init placement columns for every workload at 16P,
//! diagnosed by the blind `dsm-diagnose` engine from classified streams.
//!
//! Usage: `diagnose [--smoke]` (`--smoke` runs the CI subset: LU + Ocean,
//! fault-free + straggler columns only).
//! Artefacts: `diagnose.txt` (report + slowdown-localization table) and
//! `diagnose.json` (schema `dsm-diagnose/v1`, documented in
//! EXPERIMENTS.md).

use dsm_harness::diagnose::{full_report, reports_json, reports_text, smoke_report};
use dsm_harness::cli;
use dsm_harness::report;

fn main() {
    let smoke = cli::parse("diagnose [--smoke]").has("--smoke");
    let reports = if smoke { smoke_report() } else { full_report() };

    let text = reports_text(&reports);
    print!("{text}");
    report::announce(&report::write_text("diagnose.txt", &text).expect("write report"));
    report::announce(&report::write_json("diagnose.json", &reports_json(&reports)).expect("write json"));
}
