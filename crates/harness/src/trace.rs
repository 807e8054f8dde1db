//! Trace capture: run one simulation per experiment configuration and
//! record the per-interval feature snapshots all sweeps classify offline.
//!
//! Classification does not feed back into execution in the paper's
//! evaluation, so a single capture supports arbitrarily many threshold
//! sweeps (see DESIGN.md §2, "online/offline equivalence"). Captures are
//! cached in-memory keyed by configuration so figures and benches never
//! re-simulate; the parallel engine ([`crate::parallel`]) layers a
//! content-addressed on-disk store and a worker pool on top.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dsm_phase::detector::{DetectorGeometry, IntervalRecord, TraceCollector};
use dsm_sim::config::SystemConfig;
use dsm_sim::event::InstructionStream;
use dsm_sim::network::Network;
use dsm_sim::stats::SystemStats;
use dsm_sim::system::System;
use dsm_workloads::make_stream;

use crate::experiment::ExperimentConfig;

/// A captured run: per-processor interval records plus machine statistics.
#[derive(Debug, Clone)]
pub struct SystemTrace {
    pub config: ExperimentConfig,
    /// Interval records per processor, in interval order.
    pub records: Vec<Vec<IntervalRecord>>,
    pub stats: SystemStats,
    /// Total DDV query traffic (for the overhead report).
    pub ddv_vectors_exchanged: u64,
}

impl SystemTrace {
    /// The trace of a finished capture run: its statistics and collector.
    pub fn from_run(
        config: ExperimentConfig,
        (stats, collector): (SystemStats, TraceCollector),
    ) -> Self {
        Self {
            config,
            ddv_vectors_exchanged: collector.ddv().vectors_exchanged(),
            records: collector.records,
            stats,
        }
    }

    /// Total captured intervals across all processors.
    pub fn total_intervals(&self) -> usize {
        self.records.iter().map(|r| r.len()).sum()
    }

    /// Minimum per-processor interval count (sweeps need every processor to
    /// have contributed).
    pub fn min_intervals(&self) -> usize {
        self.records.iter().map(|r| r.len()).min().unwrap_or(0)
    }
}

/// The machine every capture runs: `stream` on `sys_cfg`, observed by the
/// trace collector `collector` builds ([`TraceCollector::new`], or
/// [`TraceCollector::with_reference_gather`] for the scale sweep's
/// reference arm). The DDV distance matrix follows the configured fabric
/// (identical to the historical hypercube matrix at the default layout).
pub fn capture_system<S: InstructionStream>(
    sys_cfg: SystemConfig,
    stream: S,
    geometry: DetectorGeometry,
    collector: fn(usize, Vec<f64>, DetectorGeometry) -> TraceCollector,
) -> System<S, TraceCollector> {
    let dist = Network::new(sys_cfg.network, sys_cfg.n_procs).distance_matrix();
    let collector = collector(sys_cfg.n_procs, dist, geometry);
    System::new(sys_cfg, stream, collector)
}

/// Run the simulation for `config` and capture its trace (uncached).
pub fn capture(config: ExperimentConfig) -> SystemTrace {
    capture_with(config, config.system_config(), DetectorGeometry::default())
}

/// Capture under a fault plan: the same machine and workload as
/// [`capture`], with `plan` driving the simulator's fault-injection layer.
/// [`dsm_sim::config::FaultPlan::none`] yields a run bit-identical to the
/// plain capture (the `fault_equivalence` differential suite asserts this).
pub fn capture_with_faults(
    config: ExperimentConfig,
    plan: dsm_sim::config::FaultPlan,
) -> SystemTrace {
    let mut sys_cfg = config.system_config();
    sys_cfg.fault = plan;
    capture_with(config, sys_cfg, DetectorGeometry::default())
}

/// Capture with an explicit machine configuration and detector geometry
/// (sensitivity studies: interval length, placement policy, accumulator and
/// footprint-table sizes).
pub fn capture_with(
    config: ExperimentConfig,
    sys_cfg: SystemConfig,
    geometry: DetectorGeometry,
) -> SystemTrace {
    assert_eq!(sys_cfg.n_procs, config.n_procs);
    let stream = make_stream(config.app, config.n_procs, config.scale);
    let system = capture_system(sys_cfg, stream, geometry, TraceCollector::new);
    SystemTrace::from_run(config, system.run())
}

/// Process-wide in-memory trace cache, keyed by configuration label.
static CACHE: Mutex<Option<HashMap<String, Arc<SystemTrace>>>> = Mutex::new(None);

pub(crate) fn memory_cache_get(label: &str) -> Option<Arc<SystemTrace>> {
    CACHE
        .lock()
        .unwrap()
        .as_ref()
        .and_then(|m| m.get(label).cloned())
}

pub(crate) fn memory_cache_insert(label: String, trace: Arc<SystemTrace>) {
    CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .insert(label, trace);
}

/// Drop every in-memory cached trace. Tests use this to force the engine
/// back to the disk store or to fresh simulation.
pub fn clear_memory_cache() {
    *CACHE.lock().unwrap() = None;
}

/// Capture with caching: the second request for the same configuration is
/// free. Used by figures and benches.
pub fn capture_cached(config: ExperimentConfig) -> Arc<SystemTrace> {
    let key = config.label();
    if let Some(t) = memory_cache_get(&key) {
        return t;
    }
    let trace = Arc::new(capture(config));
    memory_cache_insert(key, trace.clone());
    trace
}

/// Capture many configurations in parallel and populate the cache. Thin
/// wrapper over [`crate::parallel::capture_matrix`] for callers that do not
/// need the run report.
pub fn capture_all_cached(configs: &[ExperimentConfig]) {
    let _ = crate::parallel::capture_matrix("capture_all_cached", configs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_workloads::App;

    #[test]
    fn capture_produces_intervals_for_every_proc() {
        let t = capture(ExperimentConfig::test(App::Lu, 2));
        assert_eq!(t.records.len(), 2);
        assert!(t.min_intervals() >= 3, "got {}", t.min_intervals());
        // Records carry real features.
        let r = &t.records[0][0];
        assert!(r.insns > 0);
        assert!(r.cycles > 0);
        assert_eq!(r.fvec().len(), 2);
        assert!((r.normalized_bbv().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capture_is_deterministic() {
        let a = capture(ExperimentConfig::test(App::Equake, 2));
        let b = capture(ExperimentConfig::test(App::Equake, 2));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.records[0].len(), b.records[0].len());
        assert_eq!(a.records[0][0], b.records[0][0]);
    }

    #[test]
    fn cached_capture_returns_same_arc() {
        let cfg = ExperimentConfig::test(App::Art, 2);
        let a = capture_cached(cfg);
        let b = capture_cached(cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn parallel_capture_populates_cache() {
        let cfgs = vec![
            ExperimentConfig::test(App::Fmm, 2),
            ExperimentConfig::test(App::Fmm, 4),
        ];
        capture_all_cached(&cfgs);
        for c in cfgs {
            let t = capture_cached(c);
            assert!(t.total_intervals() > 0);
        }
    }
}
