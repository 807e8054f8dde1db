//! Blind slowdown-localization gate and the online/offline differential.
//!
//! The gate injects a targeted straggler through the PR 3 fault layer and
//! asserts the diagnosis engine finds it *blind*: the engine consumes only
//! the classified per-node streams and run telemetry — `diagnose_app`
//! hands it neither the fault plan nor the placement policy — yet its top
//! outlier must be the injected node and its flagged interval range must
//! overlap the injected epoch, on every workload.
//!
//! The differential pins the serve-path semantics: replaying the same
//! classified intervals through the windowed online [`DiagnosisSink`] (with
//! a window covering the whole stream) must reproduce the offline verdict
//! *exactly* — same clusters, scores, outliers, flags, and hints.

use dsm_diagnose::DiagnosisSink;
use dsm_harness::diagnose::{
    capture_diag, classified_streams, diagnose_app, node_telemetry, report_config, straggler_plan,
};
use dsm_harness::ExperimentConfig;
use dsm_workloads::App;

fn assert_localizes(app: App) {
    let r = diagnose_app(app, 16, false);
    let c = r.columns.iter().find(|c| c.label == "straggler").expect("straggler column");
    let (node, lo, hi) = c.injected.expect("injection recorded");
    let top = c.diagnosis.outliers.first().expect("at least one outlier");
    assert_eq!(top.node, node, "top outlier must be the injected node ({app:?})");
    let (a, b) = top.flagged.expect("flagged range");
    assert!(a <= hi && b >= lo, "flagged [{a}, {b}] misses injected [{lo}, {hi}] ({app:?})");
    assert_eq!(c.localized, Some(true));
}

#[test]
fn straggler_localizes_blind_on_lu() {
    assert_localizes(App::Lu);
}

#[test]
fn straggler_localizes_blind_on_fmm() {
    assert_localizes(App::Fmm);
}

#[test]
fn straggler_localizes_blind_on_art() {
    assert_localizes(App::Art);
}

#[test]
fn straggler_localizes_blind_on_equake() {
    assert_localizes(App::Equake);
}

#[test]
fn straggler_localizes_blind_on_ocean() {
    assert_localizes(App::Ocean);
}

#[test]
fn online_sink_reproduces_the_offline_diagnosis_exactly() {
    let config = ExperimentConfig::test(App::Lu, 16);
    let golden = capture_diag(config, None);
    let (plan, _, _) = straggler_plan(App::Lu, &golden);
    let faulty = capture_diag(config, Some(plan));
    let streams = classified_streams(&faulty);
    let telemetry = node_telemetry(&faulty, &streams);

    let cfg = report_config();
    let offline = dsm_diagnose::diagnose(&cfg, &streams, Some(&telemetry)).unwrap();

    // Replay the same intervals through the online sink in arrival order
    // (interleaved across nodes, index order per node — the serve batch
    // path's guarantee), with a window long enough to retain everything.
    let window = streams.iter().map(|s| s.len()).max().unwrap();
    let mut sink = DiagnosisSink::new(streams.len(), window, cfg);
    let longest = streams.iter().map(|s| s.len()).max().unwrap() as u64;
    let mut per_node: Vec<_> = streams.iter().map(|s| s.iter()).collect();
    for _ in 0..longest {
        for node in &mut per_node {
            if let Some(c) = node.next() {
                sink.observe(&c);
            }
        }
    }
    let online = sink.diagnose(Some(&telemetry)).unwrap();
    assert_eq!(online, offline, "online and offline verdicts must be identical");
    assert_eq!(sink.realigns(), 0);
}
