//! Scale sweep: single-run throughput and detection quality past the
//! paper's 16 processors.
//!
//! The paper's evaluation stops at 16P; at 64–128P the per-interval
//! all-to-one DDV gather is the simulator's hot spot when it walks every
//! node's frequency matrix (O(n²) per interval across the run). This
//! module measures, at each point of [`SCALE_PROCS`], two serial runs that
//! differ only in the gather:
//!
//! * the **reference arm** — [`TraceCollector::set_reference_gather`]: the
//!   O(n²) walk over every node's matrix
//!   ([`dsm_phase::DdvState::end_interval_reference_into`]);
//! * the **aggregate arm** — the production collector: the O(n) aggregate
//!   gather `C = G − S_i` ([`dsm_phase::DdvState::end_interval_into`]).
//!
//! Both arms are bit-identical by construction (differences of u64 sums
//! equal sums of u64 differences); the sweep re-asserts this at every point
//! before reporting the speedup, so the scaling curve can never drift from
//! a correct run. Events/sec excludes machine construction, matching
//! `dsm-bench`'s simulation timings.

use std::time::Instant;

use dsm_phase::detector::{DetectorGeometry, IntervalRecord, TraceCollector};
use dsm_sim::stats::SystemStats;
use dsm_sim::system::System;
use dsm_workloads::{make_stream, App};

use crate::experiment::ExperimentConfig;
use crate::json::Json;

/// The node counts of the scaling curve: the paper's maximum and the two
/// beyond-paper points.
pub const SCALE_PROCS: [usize; 3] = [16, 64, 128];

/// One point of the scaling curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub app: App,
    pub n_procs: usize,
    /// Events executed by one run (identical in both arms).
    pub events: u64,
    /// Reference arm: serial core, O(n²) all-matrix gather.
    pub reference_events_per_sec: f64,
    /// Aggregate arm: serial core, O(n) aggregate gather.
    pub aggregate_events_per_sec: f64,
    /// `aggregate_events_per_sec / reference_events_per_sec`.
    pub speedup: f64,
    /// Collection rounds: one all-to-one round per gather.
    pub gather_rounds: u64,
    /// End-of-interval gathers served.
    pub queries: u64,
    /// Intervals captured across all processors.
    pub intervals: usize,
    /// Detector-quality signal at scale: CoV of per-interval system CPI.
    pub cov_cpi: f64,
    /// Aggregate-arm records and stats were byte-equal to the reference arm's.
    pub bit_identical: bool,
}

impl ScalePoint {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("app", self.app.name())
            .field("n_procs", self.n_procs)
            .field("events", self.events)
            .field("reference_events_per_sec", round3(self.reference_events_per_sec))
            .field("aggregate_events_per_sec", round3(self.aggregate_events_per_sec))
            .field("speedup", round3(self.speedup))
            .field("gather_rounds", self.gather_rounds)
            .field("queries", self.queries)
            .field("intervals", self.intervals)
            .field("cov_cpi", round3(self.cov_cpi))
            .field("bit_identical", self.bit_identical)
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Output of one timed arm.
struct ArmRun {
    secs: f64,
    events: u64,
    stats: SystemStats,
    records: Vec<Vec<IntervalRecord>>,
    gather_rounds: u64,
    queries: u64,
}

/// One serial run; `reference` selects the O(n²) gather.
fn timed_run(cfg: &ExperimentConfig, reference: bool) -> ArmRun {
    let sys_cfg = cfg.system_config();
    let stream = make_stream(cfg.app, cfg.n_procs, cfg.scale);
    let dist = dsm_sim::network::Network::new(sys_cfg.network, cfg.n_procs).distance_matrix();
    let mut collector = TraceCollector::new(cfg.n_procs, dist, DetectorGeometry::default());
    collector.set_reference_gather(reference);
    let mut system = System::new(sys_cfg, stream, collector);
    let t0 = Instant::now();
    system.run_to_interval(u64::MAX);
    let secs = t0.elapsed().as_secs_f64();
    let events = system.events_executed();
    let (stats, collector) = system.run_to_end();
    ArmRun {
        secs,
        events,
        stats,
        gather_rounds: collector.ddv().gather_rounds(),
        queries: collector.ddv().queries(),
        records: collector.records,
    }
}

/// Measure one point of the curve. `samples` timed runs per arm,
/// alternating between the arms; the reported rate uses the minimum time
/// (least-contended estimate, as in `dsm-bench`). Counters and records are
/// deterministic across samples.
pub fn scale_point(app: App, n_procs: usize, samples: usize) -> ScalePoint {
    // The finest point of the interval sensitivity sweep (4k-insn system
    // base): the collection-bound regime. With a fixed system-wide budget
    // the per-processor interval shrinks as n grows (62 insns/proc at
    // 64P), so per-interval DDV gathering dominates — the documented hot
    // spot past the paper's 16P, and exactly what the aggregate gather
    // attacks.
    let cfg = ExperimentConfig {
        interval_base: 4_000,
        ..ExperimentConfig::test(app, n_procs)
    };

    let mut reference = timed_run(&cfg, true);
    let mut aggregate = timed_run(&cfg, false);
    for _ in 1..samples.max(1) {
        let r = timed_run(&cfg, true);
        if r.secs < reference.secs {
            reference = r;
        }
        let a = timed_run(&cfg, false);
        if a.secs < aggregate.secs {
            aggregate = a;
        }
    }

    let bit_identical =
        aggregate.stats == reference.stats && aggregate.records == reference.records;
    assert!(
        bit_identical,
        "aggregate gather diverged from the reference gather at {}P",
        n_procs
    );
    assert_eq!(aggregate.events, reference.events);

    let cpis: Vec<f64> = dsm_simpoint::interval_cpis(&aggregate.records)
        .iter()
        .map(|c| c.cpi)
        .collect();
    let (_, cov_cpi) = dsm_simpoint::mean_and_cov(&cpis);

    let reference_eps = aggregate.events as f64 / reference.secs;
    let aggregate_eps = aggregate.events as f64 / aggregate.secs;
    ScalePoint {
        app,
        n_procs,
        events: aggregate.events,
        reference_events_per_sec: reference_eps,
        aggregate_events_per_sec: aggregate_eps,
        speedup: aggregate_eps / reference_eps,
        gather_rounds: aggregate.gather_rounds,
        queries: aggregate.queries,
        intervals: aggregate.records.iter().map(|r| r.len()).sum(),
        cov_cpi,
        bit_identical,
    }
}

/// The full scaling curve at [`SCALE_PROCS`].
pub fn scale_sweep(app: App, samples: usize) -> Vec<ScalePoint> {
    SCALE_PROCS
        .iter()
        .map(|&p| scale_point(app, p, samples))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_point_is_bit_identical_and_counts() {
        // Small point so the test stays fast; the bin runs the real curve.
        let p = scale_point(App::Lu, 16, 1);
        assert!(p.bit_identical);
        assert!(p.events > 0);
        assert!(p.intervals > 0);
        assert!(p.queries > 0);
        // One all-to-one round per gather.
        assert_eq!(p.gather_rounds, p.queries);
        assert!(p.cov_cpi >= 0.0);
        assert!(p.reference_events_per_sec > 0.0 && p.aggregate_events_per_sec > 0.0);
    }
}
