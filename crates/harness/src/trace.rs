//! Trace capture: run one simulation per experiment configuration and
//! record the per-interval feature snapshots all sweeps classify offline.
//!
//! Classification does not feed back into execution in the paper's
//! evaluation, so a single capture supports arbitrarily many threshold
//! sweeps (see DESIGN.md §2, "online/offline equivalence"). Captures are
//! cached in memory keyed by configuration, so figures and benches
//! simulate each point once per process; [`capture_all_cached`] runs the
//! misses on the worker pool ([`crate::parallel`]).

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

/// Drop every in-memory cached trace, so the next request simulates
/// afresh.
pub fn clear_memory_cache() {
    *CACHE.lock().unwrap() = None;
}

/// Capture with caching: the second request for the same configuration is
/// free. Used by figures and benches.
pub fn capture_cached(config: ExperimentConfig) -> Arc<SystemTrace> {
    let key = config.label();
    if let Some(t) = CACHE.lock().unwrap().as_ref().and_then(|m| m.get(&key).cloned()) {
        return t;
    }
    let trace = Arc::new(capture(config));
    CACHE.lock().unwrap().get_or_insert_with(HashMap::new).insert(key, trace.clone());
    trace
}

/// [`capture_cached`] every configuration on the worker pool
/// ([`crate::parallel::par_map`]); the traces come back in input order.
pub fn capture_all_cached(configs: &[ExperimentConfig]) -> Vec<Arc<SystemTrace>> {
    crate::parallel::par_map(configs.to_vec(), capture_cached)
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

    /// Little-endian byte sink whose digest is FNV-1a.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Bytes {
        fn u64(&mut self, v: u64) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        /// A length, then each item widened to `u64`.
        fn u64s<T: Into<u64>>(&mut self, v: impl ExactSizeIterator<Item = T>) {
            self.u64(v.len() as u64);
            v.for_each(|x| self.u64(x.into()));
        }
    }

    #[test]
    fn captures_are_pinned() {
        // Every field of the 2-node Test capture of every workload: the
        // records, every run counter and the DDV traffic. The structs are
        // destructured in full, so a new field fails to compile until it
        // is hashed here.
        use dsm_sim::directory::DirectoryStats;
        use dsm_sim::memctrl::MemCtrlStats;
        use dsm_sim::network::NetworkStats;
        use dsm_sim::{FaultStats, ProcStats, ReconfigStats};
        let mut b = Bytes::default();
        for app in App::EXTENDED {
            let SystemTrace {
                config,
                records,
                stats,
                ddv_vectors_exchanged,
            } = capture(ExperimentConfig::test(app, 2));
            b.u64s(config.label().bytes());
            for r in records.iter().flatten() {
                b.u64s([r.proc as u64, r.index, r.insns, r.cycles].into_iter());
                b.u64s(r.bbv().iter().copied());
                b.u64s(r.fvec().iter().copied());
                b.u64s(r.cvec().iter().copied());
                b.u64(r.dds.to_bits());
                b.u64s(r.ws_words());
                b.u64(r.branches);
            }
            let SystemStats {
                procs,
                directory,
                network,
                memctrls,
                faults,
                reconfig,
                finish_cycle,
            } = stats;
            for p in procs {
                let ProcStats {
                    cycles,
                    insns,
                    sync_ops,
                    sync_wait_cycles,
                    mem_refs,
                    l1_misses,
                    l2_misses,
                    local_home_misses,
                    remote_home_misses,
                    mem_stall_cycles,
                    contention_cycles,
                    mispredicts,
                    branches,
                    intervals,
                } = p;
                b.u64s(
                    [
                        cycles,
                        insns,
                        sync_ops,
                        sync_wait_cycles,
                        mem_refs,
                        l1_misses,
                        l2_misses,
                        local_home_misses,
                        remote_home_misses,
                        mem_stall_cycles,
                        contention_cycles,
                        mispredicts,
                        branches,
                        intervals,
                    ]
                    .into_iter(),
                );
            }
            let DirectoryStats {
                reads,
                writes,
                owner_forwards,
                invalidations,
                upgrades,
                writebacks,
                nacks,
            } = directory;
            b.u64s(
                [
                    reads,
                    writes,
                    owner_forwards,
                    invalidations,
                    upgrades,
                    writebacks,
                    nacks,
                ]
                .into_iter(),
            );
            let NetworkStats {
                msgs,
                payload_msgs,
                total_hops,
                link_wait_cycles,
                total_flit_hops,
                link_flits,
            } = network;
            b.u64s(
                [
                    msgs,
                    payload_msgs,
                    total_hops,
                    link_wait_cycles,
                    total_flit_hops,
                ]
                .into_iter(),
            );
            b.u64s(link_flits.into_iter());
            for MemCtrlStats {
                requests,
                total_queue_delay,
            } in memctrls
            {
                b.u64s([requests, total_queue_delay].into_iter());
            }
            let FaultStats {
                messages,
                drops,
                retries,
                forced_deliveries,
                duplicates,
                spikes,
                spike_cycles,
                timeout_wait_cycles,
                slowdown_events,
                slowdown_cycles,
            } = faults;
            b.u64s(
                [
                    messages,
                    drops,
                    retries,
                    forced_deliveries,
                    duplicates,
                    spikes,
                    spike_cycles,
                    timeout_wait_cycles,
                    slowdown_events,
                    slowdown_cycles,
                ]
                .into_iter(),
            );
            let ReconfigStats {
                migrations,
                migration_stall_cycles,
                dvfs_epochs,
                dvfs_extra_cycles,
                dvfs_saved_cycles,
                core_switches,
            } = reconfig;
            b.u64s(
                [
                    migrations,
                    migration_stall_cycles,
                    dvfs_epochs,
                    dvfs_extra_cycles,
                    dvfs_saved_cycles,
                    core_switches,
                ]
                .into_iter(),
            );
            b.u64(finish_cycle);
            b.u64(ddv_vectors_exchanged);
        }
        let digest = (b.0.len(), crate::parallel::fnv1a64(&b.0));
        assert_eq!(digest, (100_440, 0x9618_9bc3_1fd9_dc47), "{digest:#x?}");
    }

    #[test]
    fn parallel_capture_populates_cache() {
        let cfgs = vec![
            ExperimentConfig::test(App::Fmm, 2),
            ExperimentConfig::test(App::Fmm, 4),
        ];
        let traces = capture_all_cached(&cfgs);
        for (c, t) in cfgs.into_iter().zip(traces) {
            assert!(Arc::ptr_eq(&t, &capture_cached(c)));
            assert!(t.total_intervals() > 0);
        }
    }
}
