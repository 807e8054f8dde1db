//! Topology sweep: phase-detection quality and link-level traffic across
//! interconnect layouts.
//!
//! For each [`TopologyKind`] the sweep re-runs a workload on the routed
//! fabric with per-link contention enabled, classifies the captured
//! intervals with both the BBV baseline and the paper's BBV+DDV detector
//! at fixed thresholds, and reports the per-directed-link demand profile
//! (total flit-hops, the hottest link and its flit count, and the
//! peak-to-mean imbalance). The hypercube point doubles as the baseline:
//! every other layout's finish cycle is reported relative to it, so the
//! table reads as "what does trading the paper's network for X cost, and
//! does the detector still see the same phases".

use dsm_phase::detector::DetectorMode;
use dsm_sim::topology::{link_label, TopologyKind};
use dsm_workloads::App;

use crate::experiment::ExperimentConfig;
use crate::faults::{classified_cov, SWEEP_THRESHOLDS};
use crate::json::Json;
use crate::trace::{capture_with, SystemTrace};

/// One layout's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyPoint {
    pub kind: TopologyKind,
    /// Maximum route length between any two nodes, in links.
    pub diameter: u32,
    /// Directed links in the layout (including switch links for fat-tree).
    pub n_links: usize,
    /// Mean per-processor identifier CoV of CPI, BBV-only baseline.
    pub cov_bbv: f64,
    /// Mean per-processor identifier CoV of CPI, BBV+DDV detector.
    pub cov_bbv_ddv: f64,
    /// Mean phases detected per processor (BBV+DDV).
    pub phases: f64,
    pub finish_cycle: u64,
    /// Finish cycle relative to the hypercube run (1.0 = baseline).
    pub slowdown: f64,
    /// Delivered message hops summed over the run.
    pub total_hops: u64,
    /// Cycles messages spent queued behind busy links.
    pub link_wait_cycles: u64,
    /// Flit-cycles summed over every directed link.
    pub total_flit_hops: u64,
    /// Flit count on the single most-loaded directed link.
    pub peak_link_flits: u64,
    /// Label of that link (`"from->to"`, switches prefixed `s`), if any
    /// traffic flowed at all.
    pub hottest_link: Option<String>,
    /// Peak link flits over the mean across links carrying traffic — 1.0
    /// means perfectly balanced demand.
    pub imbalance: f64,
}

/// A whole sweep: one point per layout, hypercube first.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySweep {
    pub app: App,
    pub n_procs: usize,
    pub points: Vec<TopologyPoint>,
}

/// Capture one workload on one layout (link contention on) and distil the
/// detector-quality and link-demand numbers.
pub fn topology_point(config: ExperimentConfig, kind: TopologyKind) -> (TopologyPoint, SystemTrace) {
    let mut sys_cfg = config.system_config();
    sys_cfg.network.topology = kind;
    sys_cfg.network.link_contention = true;
    let trace = capture_with(config, sys_cfg, Default::default());
    assert!(
        trace.stats.coherence_transactions_conserved(),
        "{} on {}: transactions not conserved",
        config.label(),
        kind.name(),
    );
    let (cov_bbv, _) = classified_cov(&trace, DetectorMode::Bbv, SWEEP_THRESHOLDS);
    let (cov_bbv_ddv, phases) = classified_cov(&trace, DetectorMode::BbvDdv, SWEEP_THRESHOLDS);

    // The layout's shape, without routing every node pair again: the
    // capture's fabric already did.
    let links = kind.links(config.n_procs);
    let net = &trace.stats.network;
    let carrying: Vec<u64> = net.link_flits.iter().copied().filter(|&f| f > 0).collect();
    let mean = carrying.iter().sum::<u64>() as f64 / carrying.len().max(1) as f64;
    let point = TopologyPoint {
        kind,
        diameter: kind.diameter(config.n_procs),
        n_links: links.len(),
        cov_bbv,
        cov_bbv_ddv,
        phases,
        finish_cycle: trace.stats.finish_cycle,
        slowdown: 1.0, // filled in by the sweep once the baseline is known
        total_hops: net.total_hops,
        link_wait_cycles: net.link_wait_cycles,
        total_flit_hops: net.total_flit_hops,
        peak_link_flits: net.peak_link_flits(),
        hottest_link: net.hottest_link().map(|l| link_label(config.n_procs, links[l])),
        imbalance: if mean > 0.0 { net.peak_link_flits() as f64 / mean } else { 1.0 },
    };
    (point, trace)
}

/// Run the sweep for one workload over every layout. Hypercube (the
/// paper's network) leads and sets the slowdown baseline.
pub fn topology_sweep(app: App, n_procs: usize) -> TopologySweep {
    assert!(
        TopologyKind::ALL.iter().all(|k| k.supports(n_procs)),
        "{n_procs} processors must suit every layout (power of two)"
    );
    let config = ExperimentConfig::test(app, n_procs);
    let mut points: Vec<TopologyPoint> = TopologyKind::ALL
        .iter()
        .map(|&kind| topology_point(config, kind).0)
        .collect();
    let baseline = points[0].finish_cycle;
    for p in &mut points {
        p.slowdown =
            if baseline > 0 { p.finish_cycle as f64 / baseline as f64 } else { 1.0 };
    }
    TopologySweep { app, n_procs, points }
}

impl TopologySweep {
    /// JSON artefact (schema documented in EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("app", self.app.name())
            .field("n_procs", self.n_procs)
            .field("thresholds", Json::obj()
                .field("bbv", SWEEP_THRESHOLDS.bbv)
                .field("dds", SWEEP_THRESHOLDS.dds))
            .field(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            let hottest = match &p.hottest_link {
                                Some(l) => Json::from(l.as_str()),
                                None => Json::Null,
                            };
                            Json::obj()
                                .field("topology", p.kind.name())
                                .field("diameter", p.diameter as u64)
                                .field("n_links", p.n_links)
                                .field("cov_bbv", p.cov_bbv)
                                .field("cov_bbv_ddv", p.cov_bbv_ddv)
                                .field("phases", p.phases)
                                .field("finish_cycle", p.finish_cycle)
                                .field("slowdown", p.slowdown)
                                .field("total_hops", p.total_hops)
                                .field("link_wait_cycles", p.link_wait_cycles)
                                .field("total_flit_hops", p.total_flit_hops)
                                .field("peak_link_flits", p.peak_link_flits)
                                .field("hottest_link", hottest)
                                .field("imbalance", p.imbalance)
                        })
                        .collect(),
                ),
            )
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} {}P — link contention on, thresholds bbv {} / dds {}\n\
             {:>10} {:>4} {:>6} {:>9} {:>9} {:>7} {:>9} {:>10} {:>10} {:>9} {:>6} {:>12}\n",
            self.app.name(),
            self.n_procs,
            SWEEP_THRESHOLDS.bbv,
            SWEEP_THRESHOLDS.dds,
            "topology",
            "diam",
            "links",
            "CoV(bbv)",
            "CoV(ddv)",
            "phases",
            "slowdown",
            "hops",
            "flit-hops",
            "peak",
            "imbal",
            "hottest",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>10} {:>4} {:>6} {:>9.4} {:>9.4} {:>7.1} {:>8.3}x {:>10} {:>10} {:>9} {:>6.2} {:>12}\n",
                p.kind.name(),
                p.diameter,
                p.n_links,
                p.cov_bbv,
                p.cov_bbv_ddv,
                p.phases,
                p.slowdown,
                p.total_hops,
                p.total_flit_hops,
                p.peak_link_flits,
                p.imbalance,
                p.hottest_link.as_deref().unwrap_or("-"),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::trace::capture;

    #[test]
    fn sweep_covers_every_layout_hypercube_first() {
        let s = topology_sweep(App::Lu, 4);
        assert_eq!(s.points.len(), TopologyKind::ALL.len());
        assert_eq!(s.points[0].kind, TopologyKind::Hypercube);
        assert!((s.points[0].slowdown - 1.0).abs() < 1e-12);
        for p in &s.points {
            assert!(p.finish_cycle > 0);
            assert!(p.total_flit_hops > 0, "{}: no traffic recorded", p.kind.name());
            assert!(p.peak_link_flits > 0);
            assert!(p.imbalance >= 1.0, "{}: peak below mean", p.kind.name());
            assert!(p.hottest_link.is_some());
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = topology_sweep(App::Equake, 2);
        let b = topology_sweep(App::Equake, 2);
        assert_eq!(a, b);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn hypercube_point_matches_uncontended_detector_quality() {
        // Link contention shifts latencies but the default capture and the
        // swept hypercube run see the same workload; the detector columns
        // must be finite and the phase count positive on both.
        let config = ExperimentConfig::test(App::Art, 2);
        let plain = capture(config);
        let (point, trace) = topology_point(config, TopologyKind::Hypercube);
        assert_eq!(trace.records.len(), plain.records.len());
        assert!(point.cov_bbv.is_finite() && point.cov_bbv_ddv.is_finite());
        assert!(point.phases >= 1.0);
    }

    #[test]
    fn sweep_json_schema_is_stable() {
        let s = topology_sweep(App::Fmm, 2);
        let text = s.to_json().to_string();
        let back = parse(&text).expect("self-parse");
        assert_eq!(back.get("app").and_then(Json::as_str), Some("FMM"));
        let pts = back.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(pts.len(), 5);
        for key in [
            "topology",
            "diameter",
            "n_links",
            "cov_bbv",
            "cov_bbv_ddv",
            "phases",
            "finish_cycle",
            "slowdown",
            "total_hops",
            "link_wait_cycles",
            "total_flit_hops",
            "peak_link_flits",
            "hottest_link",
            "imbalance",
        ] {
            assert!(pts[0].get(key).is_some(), "missing {key}");
        }
        let names: Vec<&str> =
            pts.iter().filter_map(|p| p.get("topology").and_then(Json::as_str)).collect();
        assert_eq!(names, ["hypercube", "mesh2d", "torus2d", "ring", "fattree"]);
    }
}
