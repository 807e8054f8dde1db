//! Offline cross-node diagnosis report (`results/diagnose.{txt,json}`).
//!
//! For each workload at 16P the report runs three columns and hands the
//! classified per-node streams — never the fault plan or placement policy —
//! to the `dsm-diagnose` engine:
//!
//! * **fault-free** — the golden capture; the expected verdict is a single
//!   behavioural cluster (or at least no strong outlier);
//! * **straggler** — PR 3's fault layer re-run with a targeted per-node
//!   slowdown over the middle third of the golden run
//!   ([`FaultPlan::straggler`]); the expected verdict is the injected node
//!   as top outlier with a flagged interval range overlapping the injected
//!   epoch. The report grades this (`localized`) because *it* knows the
//!   plan; the engine does not — `tests/diagnose_localization.rs` holds
//!   that gate on all five workloads;
//! * **serial-init** — the workload behind a serial-initialization prologue
//!   under first-touch homing (the classic placement pathology): node 0
//!   homes everyone's data, so its remote-miss share collapses while its
//!   peers' soar, and attribution should surface `PlacementSkew`.
//!
//! Telemetry joined against each outlier comes from the run's own
//! [`dsm_sim::stats::SystemStats`] — per-node miss/stall shares plus the global fault and
//! reconfiguration counters every node sees identically.

use dsm_diagnose::{diagnose, DiagnoseConfig, Diagnosis, NodeTelemetry};
use dsm_phase::detector::{DetectorMode, TraceClassifier, TraceCollector};
use dsm_phase::stream::PhaseStream;
use dsm_phase::{ClassifiedInterval, DEFAULT_FOOTPRINT_VECTORS};
use dsm_sim::config::{DistributionPolicy, FaultPlan};
use dsm_workloads::{make_serial_init_stream, App};

use dsm_phase::detector::DetectorGeometry as Geometry;

use crate::experiment::ExperimentConfig;
use crate::faults::SWEEP_THRESHOLDS;
use crate::json::Json;
use crate::trace::{capture_system, capture_with, SystemTrace};

/// Seed for the report's injected straggler plans.
pub const DIAGNOSE_SEED: u64 = 99;

/// Sampling-interval divisor for the diagnosis captures. Test-scale runs
/// span only a handful of default-size intervals per node — too coarse to
/// localize an epoch, and coarse enough that per-node interval counts
/// diverge wildly. Finer sampling is an observation-rate change only (same
/// rationale as the placement study's divisor). The rate is picked so every
/// node's phases *recur*: the CPI-residual term needs at least two
/// instances of a phase to contrast a slowed instance against a clean one.
pub const DIAG_INTERVAL_DIVISOR: u64 = 32;

/// Capture `config` at the diagnosis sampling rate, optionally under a
/// fault plan.
pub fn capture_diag(config: ExperimentConfig, plan: Option<FaultPlan>) -> SystemTrace {
    let mut sys_cfg = config.system_config();
    sys_cfg.interval_insns = (sys_cfg.interval_insns / DIAG_INTERVAL_DIVISOR).max(1);
    if let Some(p) = plan {
        sys_cfg.fault = p;
    }
    capture_with(config, sys_cfg, Geometry::default())
}

/// Engine configuration the report (and the localization gate) runs at.
/// Real test-scale captures are nothing like an idealized SPMD fleet:
/// nodes run asymmetric work partitions, so the phase and lag terms carry
/// a large *structural* cross-node disagreement floor that no fault
/// injection changes. The phase-normalized CPI residual term is the one
/// term that stays near zero between healthy nodes (each node's phases
/// explain its own CPI) and rises only under a genuine anomaly — so the
/// report weights it dominantly and keeps phase/lag as tie-breaking
/// context.
pub fn report_config() -> DiagnoseConfig {
    DiagnoseConfig {
        phase_weight: 0.5,
        cpi_weight: 8.0,
        lag_weight: 0.25,
        // Healthy nodes carry diffuse low-level residual jitter (warmup
        // instances, data-dependent phase behaviour); the deadband keeps
        // that out of the score so only straggler-scale excursions count.
        cpi_deadband: 0.2,
        ..DiagnoseConfig::default()
    }
}

/// The node the report's straggler plan targets for `app` — spread across
/// the machine deterministically so every report run injects the same
/// fault into the same place.
pub fn straggler_node(app: App, n_procs: usize) -> usize {
    let ix = App::EXTENDED.iter().position(|&a| a == app).unwrap_or(0);
    (ix * 7 + 5) % n_procs
}

/// The injected plan for `app`: a full-strength targeted slowdown spanning
/// the second quarter through fifteen-sixteenths of the target node's
/// *intervals* in the golden run,
/// `(plan, from_cycle, until_cycle)`. The epoch is picked on the interval
/// axis rather than as a fraction of the finish cycle because early
/// intervals are sync-wait-dominated and eat most of the cycle axis — a
/// cycle-based window can land on a handful of intervals. The fault layer
/// gates on wall-clock cycles, and the slowdown *stretches* the intervals
/// it covers, so a window sized from golden cycles alone would be consumed
/// after a few stretched intervals; `until` is therefore widened by the
/// deterministic issue-throttle cost of the intended intervals
/// (`insns * slowdown_issue_num / 256` each) so the epoch covers the
/// intended interval range on the faulty timeline. The window leaves the
/// first quarter and the final sixteenth clean — the residual term detects
/// a slowed instance only by contrast against clean instances of the
/// *same* phase, so an epoch that swallows the whole run normalizes
/// itself away. The report re-maps the window onto the faulty run's own
/// timeline when grading.
pub fn straggler_plan(app: App, golden: &SystemTrace) -> (FaultPlan, u64, u64) {
    let n_procs = golden.config.n_procs;
    let node = straggler_node(app, n_procs);
    let recs = &golden.records[node];
    let cum: Vec<u64> = recs
        .iter()
        .scan(0u64, |acc, r| {
            *acc += r.cycles;
            Some(*acc)
        })
        .collect();
    let plan = FaultPlan::straggler(DIAGNOSE_SEED, node, 0, 0);
    let (from, until) = if recs.len() >= 8 {
        let (lo_ix, hi_ix) = (recs.len() / 4, 15 * recs.len() / 16);
        let throttle: u64 = recs[lo_ix..hi_ix]
            .iter()
            .map(|r| r.insns * plan.slowdown_issue_num / 256)
            .sum();
        (cum[lo_ix - 1], cum[hi_ix - 1] + throttle)
    } else {
        (golden.stats.finish_cycle / 4, 15 * golden.stats.finish_cycle / 16)
    };
    (FaultPlan { slowdown_from_cycle: from, slowdown_until_cycle: until, ..plan }, from, until)
}

/// Classify a captured trace per node at the sweep thresholds and thread
/// the result through the shared [`PhaseStream`] type.
pub fn classified_streams(trace: &SystemTrace) -> Vec<PhaseStream> {
    trace
        .records
        .iter()
        .enumerate()
        .map(|(p, recs)| {
            let ids = TraceClassifier::classify_proc(
                recs,
                DetectorMode::BbvDdv,
                SWEEP_THRESHOLDS,
                DEFAULT_FOOTPRINT_VECTORS,
            );
            let mut seen: Vec<u32> = Vec::new();
            let intervals: Vec<ClassifiedInterval> = recs
                .iter()
                .zip(&ids)
                .map(|(r, &id)| {
                    let is_new = !seen.contains(&id);
                    if is_new {
                        seen.push(id);
                    }
                    ClassifiedInterval {
                        proc: p,
                        index: r.index,
                        phase_id: id,
                        is_new_phase: is_new,
                        cpi: r.cpi(),
                        degraded: false,
                    }
                })
                .collect();
            PhaseStream::from_intervals(p, intervals)
        })
        .collect()
}

/// Per-node telemetry counters from a run's own statistics: the per-node
/// miss/stall shares, the per-node degraded-interval count from the
/// classified stream, and the global fault/NACK/reconfig counters (every
/// node carries the same global value, so they can corroborate but never
/// fabricate a per-node excess).
pub fn node_telemetry(trace: &SystemTrace, streams: &[PhaseStream]) -> Vec<NodeTelemetry> {
    let s = &trace.stats;
    s.procs
        .iter()
        .enumerate()
        .map(|(p, ps)| NodeTelemetry {
            remote_miss_share: ps.remote_miss_fraction(),
            barrier_stall_share: if ps.cycles > 0 {
                ps.sync_wait_cycles as f64 / ps.cycles as f64
            } else {
                0.0
            },
            mem_stall_share: if ps.cycles > 0 {
                ps.mem_stall_cycles as f64 / ps.cycles as f64
            } else {
                0.0
            },
            degraded_intervals: streams
                .get(p)
                .map_or(0, |st| st.intervals().iter().filter(|c| c.degraded).count() as u64),
            retries: s.faults.retries,
            nacks: s.directory.nacks,
            reconfig_events: s.reconfig.migrations + s.reconfig.dvfs_epochs + s.reconfig.core_switches,
        })
        .collect()
}

/// The inclusive interval-index range of `node`'s stream whose cycle span
/// intersects `[from_cycle, until_cycle)` — the injected epoch mapped onto
/// interval indices via the node's own cumulative interval cycles.
pub fn cycle_window_to_intervals(
    trace: &SystemTrace,
    node: usize,
    from_cycle: u64,
    until_cycle: u64,
) -> Option<(u64, u64)> {
    let mut lo = None;
    let mut hi = None;
    let mut start = 0u64;
    for r in &trace.records[node] {
        let end = start + r.cycles;
        if start < until_cycle && end > from_cycle {
            lo.get_or_insert(r.index);
            hi = Some(r.index);
        }
        start = end;
    }
    lo.zip(hi)
}

/// One diagnosed column of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseColumn {
    /// `fault-free`, `straggler`, or `serial-init`.
    pub label: String,
    pub diagnosis: Diagnosis,
    /// `(node, from_interval, to_interval)` of the injected straggler epoch
    /// (straggler column only) — ground truth the *report* knows for
    /// grading; the engine never sees it.
    pub injected: Option<(usize, u64, u64)>,
    /// Straggler column: did the engine's top outlier match the injected
    /// node with an overlapping flagged range?
    pub localized: Option<bool>,
}

/// One workload's report: the three columns at 16P.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseReport {
    pub app: App,
    pub n_procs: usize,
    pub seed: u64,
    pub columns: Vec<DiagnoseColumn>,
}

fn diagnose_trace(trace: &SystemTrace) -> Diagnosis {
    let streams = classified_streams(trace);
    let telemetry = node_telemetry(trace, &streams);
    diagnose(&report_config(), &streams, Some(&telemetry)).expect("one finite share set per node")
}

/// Capture the serial-init + first-touch placement column: the same
/// machine, the workload behind a serial-initialization prologue, sampled
/// finely enough for test-scale runs (same divisor as the placement study).
pub fn capture_serial_init(config: ExperimentConfig) -> SystemTrace {
    let mut sys_cfg = config.system_config();
    sys_cfg.distribution = DistributionPolicy::FirstTouch;
    sys_cfg.interval_insns = (sys_cfg.interval_insns / DIAG_INTERVAL_DIVISOR).max(1);
    let stream = make_serial_init_stream(config.app, config.n_procs, config.scale);
    let system = capture_system(sys_cfg, stream, Geometry::default(), TraceCollector::new);
    SystemTrace::from_run(config, system.run())
}

/// Diagnose one workload at `n_procs` across the report's columns.
/// `serial_init: false` drops the placement column (the smoke run).
pub fn diagnose_app(app: App, n_procs: usize, serial_init: bool) -> DiagnoseReport {
    let config = ExperimentConfig::test(app, n_procs);
    let golden = capture_diag(config, None);
    let mut columns = vec![DiagnoseColumn {
        label: "fault-free".into(),
        diagnosis: diagnose_trace(&golden),
        injected: None,
        localized: None,
    }];

    let (plan, from, until) = straggler_plan(app, &golden);
    let node = plan.slowdown_node.expect("straggler plan targets a node");
    let faulty = capture_diag(config, Some(plan));
    let diagnosis = diagnose_trace(&faulty);
    let injected = cycle_window_to_intervals(&faulty, node, from, until)
        .map(|(lo, hi)| (node, lo, hi));
    let localized = injected.map(|(node, lo, hi)| {
        diagnosis.outliers.first().is_some_and(|o| {
            o.node == node && o.flagged.is_some_and(|(a, b)| a <= hi && b >= lo)
        })
    });
    columns.push(DiagnoseColumn { label: "straggler".into(), diagnosis, injected, localized });

    if serial_init {
        let placed = capture_serial_init(config);
        columns.push(DiagnoseColumn {
            label: "serial-init".into(),
            diagnosis: diagnose_trace(&placed),
            injected: None,
            localized: None,
        });
    }

    DiagnoseReport { app, n_procs, seed: DIAGNOSE_SEED, columns }
}

/// The full report: all five workloads, all three columns.
pub fn full_report() -> Vec<DiagnoseReport> {
    App::EXTENDED.iter().map(|&app| diagnose_app(app, 16, true)).collect()
}

/// The CI smoke report: LU + Ocean, fault-free + straggler columns.
pub fn smoke_report() -> Vec<DiagnoseReport> {
    [App::Lu, App::Ocean].iter().map(|&app| diagnose_app(app, 16, false)).collect()
}

fn diagnosis_json(d: &Diagnosis) -> Json {
    Json::obj()
        .field("n_nodes", d.n_nodes)
        .field("aligned_intervals", d.aligned_intervals)
        .field(
            "clusters",
            Json::Arr(
                d.clusters
                    .iter()
                    .map(|c| Json::Arr(c.iter().map(|&n| Json::from(n)).collect()))
                    .collect(),
            ),
        )
        .field("majority", d.majority)
        .field("scores", Json::Arr(d.scores.iter().map(|&s| Json::from(s)).collect()))
        .field(
            "outliers",
            Json::Arr(
                d.outliers
                    .iter()
                    .map(|o| {
                        let mut j = Json::obj().field("node", o.node).field("score", o.score);
                        j = match o.flagged {
                            Some((lo, hi)) => j
                                .field("flagged_from", lo)
                                .field("flagged_to", hi),
                            None => j,
                        };
                        j.field(
                            "hints",
                            Json::Arr(
                                o.hints
                                    .iter()
                                    .map(|h| {
                                        Json::obj()
                                            .field("kind", h.kind.name())
                                            .field("score", h.score)
                                            .field(
                                                "evidence",
                                                Json::Arr(
                                                    h.evidence
                                                        .iter()
                                                        .map(|(k, v)| {
                                                            Json::obj()
                                                                .field("counter", k.as_str())
                                                                .field("delta", *v)
                                                        })
                                                        .collect(),
                                                ),
                                            )
                                    })
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        )
}

/// JSON artefact, schema `dsm-diagnose/v1` (documented in EXPERIMENTS.md).
pub fn reports_json(reports: &[DiagnoseReport]) -> Json {
    let cfg = report_config();
    Json::obj()
        .field("schema", "dsm-diagnose/v1")
        .field("seed", DIAGNOSE_SEED)
        .field(
            "config",
            Json::obj()
                .field("phase_weight", cfg.phase_weight)
                .field("cpi_weight", cfg.cpi_weight)
                .field("lag_weight", cfg.lag_weight)
                .field("cpi_deadband", cfg.cpi_deadband)
                .field("max_lag", cfg.max_lag)
                .field("degraded_weight", cfg.degraded_weight)
                .field("cluster_threshold", cfg.cluster_threshold)
                .field("cpi_flag_rel", cfg.cpi_flag_rel)
                .field("gap_tolerance", cfg.gap_tolerance)
                .field("attr_rel", cfg.attr_rel),
        )
        .field(
            "apps",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .field("app", r.app.name())
                            .field("n_procs", r.n_procs)
                            .field(
                                "columns",
                                Json::Arr(
                                    r.columns
                                        .iter()
                                        .map(|c| {
                                            let mut j = Json::obj()
                                                .field("label", c.label.as_str())
                                                .field("diagnosis", diagnosis_json(&c.diagnosis));
                                            if let Some((node, lo, hi)) = c.injected {
                                                j = j
                                                    .field("injected_node", node)
                                                    .field("injected_from", lo)
                                                    .field("injected_to", hi);
                                            }
                                            match c.localized {
                                                Some(l) => j.field("localized", l),
                                                None => j,
                                            }
                                        })
                                        .collect(),
                                ),
                            )
                    })
                    .collect(),
            ),
        )
}

/// Human-readable report with the slowdown-localization validation table.
pub fn reports_text(reports: &[DiagnoseReport]) -> String {
    let mut out = String::from("cross-node phase-similarity diagnosis\n");
    for r in reports {
        out.push_str(&format!("\n{} {}P (seed {})\n", r.app.name(), r.n_procs, r.seed));
        for c in &r.columns {
            let d = &c.diagnosis;
            out.push_str(&format!(
                "  {:<11} clusters {:>2}  majority {:>2} nodes  outliers {}\n",
                c.label,
                d.clusters.len(),
                d.majority_nodes().len(),
                d.outliers.len(),
            ));
            for o in &d.outliers {
                let range = o
                    .flagged
                    .map_or("-".to_string(), |(a, b)| format!("[{a}, {b}]"));
                let hint = o.hints.first().map_or("-", |h| h.kind.name());
                out.push_str(&format!(
                    "              node {:>2}  score {:.4}  flagged {:<12} hint {}\n",
                    o.node, o.score, range, hint,
                ));
            }
        }
    }
    out.push_str("\nslowdown localization (straggler column)\n");
    out.push_str(&format!(
        "{:>8} {:>9} {:>11} {:>13} {:>13} {:>10}\n",
        "app", "injected", "top outlier", "injected ivls", "flagged ivls", "localized",
    ));
    for r in reports {
        let Some(c) = r.columns.iter().find(|c| c.label == "straggler") else { continue };
        let (node, lo, hi) = c.injected.expect("straggler column records its injection");
        let top = c.diagnosis.outliers.first();
        out.push_str(&format!(
            "{:>8} {:>9} {:>11} {:>13} {:>13} {:>10}\n",
            r.app.name(),
            node,
            top.map_or("-".to_string(), |o| o.node.to_string()),
            format!("[{lo}, {hi}]"),
            top.and_then(|o| o.flagged).map_or("-".to_string(), |(a, b)| format!("[{a}, {b}]")),
            c.localized.map_or("-".to_string(), |l| l.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_column_localizes_on_lu() {
        let r = diagnose_app(App::Lu, 16, false);
        assert_eq!(r.columns.len(), 2);
        let c = &r.columns[1];
        assert_eq!(c.label, "straggler");
        assert_eq!(c.localized, Some(true), "column: {c:#?}");
    }

    #[test]
    fn serial_init_column_surfaces_placement_skew() {
        let r = diagnose_app(App::Lu, 16, true);
        let c = &r.columns[2];
        assert_eq!(c.label, "serial-init");
        let has_skew = c.diagnosis.outliers.iter().any(|o| {
            o.hints.iter().any(|h| h.kind == dsm_diagnose::HintKind::PlacementSkew)
        });
        assert!(has_skew, "column: {c:#?}");
    }

    #[test]
    fn report_json_is_stable_and_self_parses() {
        let reports = vec![diagnose_app(App::Lu, 16, false)];
        let a = reports_json(&reports).to_string();
        let b = reports_json(&reports).to_string();
        assert_eq!(a, b);
        let back = crate::json::parse(&a).expect("self-parse");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some("dsm-diagnose/v1"));
        let apps = back.get("apps").and_then(Json::as_arr).unwrap();
        assert_eq!(apps.len(), 1);
        let cols = apps[0].get("columns").and_then(Json::as_arr).unwrap();
        assert_eq!(cols.len(), 2);
        assert!(cols[1].get("localized").is_some());
    }
}
