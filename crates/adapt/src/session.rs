//! [`AdaptSession`]: the closed loop. A live simulated machine, an online
//! classifier, the §II tuning protocol, and an actuator — wired so that
//! locked configurations are *real reconfigurations applied mid-run*.
//!
//! Per global interval boundary:
//!
//! 1. the simulator runs to the boundary ([`System::run_to_interval`]);
//! 2. the just-completed proc-0 interval record is classified online
//!    ([`ClassifierBank::classify_raw`] — proc 0 stands in for the
//!    detector's distributed consensus, whose per-processor streams agree
//!    on phase structure by construction of the shared DDV);
//! 3. the classification feeds the [`Protocol`]; degraded intervals are
//!    skipped entirely (no trial spent, no machine change);
//! 4. the configuration the protocol wants next is applied through the
//!    [`Machine`](dsm_sim::reconfig::Machine) seam before the next interval
//!    runs.
//!
//! The trial score is the interval's **measured CPI on the real machine**.
//! One interval of lag is inherent (a phase is only known once its
//! interval completes); the §II protocol has the same property.
//!
//! With the [`NoopActuator`](crate::actuator::NoopActuator) the session is
//! a pure observer: its run is bit-identical to a plain capture (pinned by
//! the `adapt_equivalence` suite). A session snapshots into an
//! [`AdaptSnap`] (carried by `DSMCKPT9` next to the machine and collector
//! state) and resumes mid-tuning bit-exactly: the classifier bank is
//! rebuilt by replaying classification over the recorded interval prefix,
//! which is deterministic.

use serde::{Deserialize, Serialize};

use dsm_phase::detector::{AvailabilityModel, DetectorMode, Thresholds, TraceCollector};
use dsm_phase::signature::ClassifierBank;
use dsm_phase::IntervalRecord;
use dsm_sim::stats::SystemStats;
use dsm_sim::system::System;
use dsm_sim::InstructionStream;
use dsm_telemetry::MetricsRegistry;

use crate::actuator::Actuator;
use crate::protocol::{Decision, DecisionKind, PhaseSnap, Protocol, TuningPolicy};

/// Session knobs: the tuning policy, the classifier configuration, and the
/// (optional) availability model that injects degraded intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    pub policy: TuningPolicy,
    pub mode: DetectorMode,
    pub thresholds: Thresholds,
    /// When set, an interval is degraded iff any remote DDV row misses
    /// proc 0's gather for it (the same seeded hash the detector's
    /// availability studies use). `None` = fully reliable.
    pub availability: Option<AvailabilityModel>,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            policy: TuningPolicy::default(),
            mode: DetectorMode::BbvDdv,
            thresholds: Thresholds { bbv: 0.5, dds: 0.3 },
            availability: None,
        }
    }
}

/// One classified interval as the session saw it and fed to the
/// [`Protocol`]: replaying a session's stream through a fresh protocol with
/// `observe(index, phase, cpi, degraded)` reproduces its decision log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObservedInterval {
    pub index: u64,
    pub phase: u32,
    pub cpi: f64,
    pub degraded: bool,
}

/// Everything a mid-run session must carry across a checkpoint besides the
/// machine and collector state (which `DSMCKPT9` stores separately):
/// protocol states, the decision log, the observed stream, and the
/// actuator's private words. The classifier bank is *not* stored — it is
/// rebuilt deterministically by replaying classification over the first
/// `processed` recorded proc-0 intervals.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AdaptSnap {
    /// Global interval boundary the simulator has run to.
    pub target: u64,
    /// Proc-0 interval records consumed (classified + fed to the protocol).
    pub processed: u64,
    pub phases: Vec<PhaseSnap>,
    pub decisions: Vec<Decision>,
    pub stream: Vec<ObservedInterval>,
    pub retunes: u64,
    /// Opaque actuator state ([`Actuator::export`]).
    pub actuator: Vec<u64>,
}

/// Result of a completed session.
#[derive(Debug, Clone)]
pub struct AdaptOutcome {
    pub stats: SystemStats,
    /// Interval records per processor — identical to a plain capture's for
    /// the no-op arm.
    pub records: Vec<Vec<IntervalRecord>>,
    /// The classified stream the protocol consumed.
    pub stream: Vec<ObservedInterval>,
    pub decisions: Vec<Decision>,
    /// Phases that entered tuning.
    pub retunes: u64,
    /// Phases whose tuning completed.
    pub locked_phases: usize,
}

impl AdaptOutcome {
    /// Intervals spent in trial-and-error exploration.
    pub fn tuning_intervals(&self) -> usize {
        self.decisions.iter().filter(|d| matches!(d.kind, DecisionKind::Trial { .. })).count()
    }

    /// Intervals skipped because classification was degraded.
    pub fn degraded_intervals(&self) -> usize {
        self.stream.iter().filter(|o| o.degraded).count()
    }

    /// Mirror the session counters into a metrics registry under `adapt/`.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        reg.counter_add("adapt/intervals", self.stream.len() as u64);
        reg.counter_add("adapt/tuning_intervals", self.tuning_intervals() as u64);
        reg.counter_add("adapt/degraded_intervals", self.degraded_intervals() as u64);
        reg.counter_add("adapt/retunes", self.retunes);
        reg.counter_add("adapt/locked_phases", self.locked_phases as u64);
        reg.gauge_set("adapt/finish_cycle", self.stats.finish_cycle as f64);
        self.stats.reconfig.publish("adapt", reg);
    }
}

/// The live closed loop over a simulated machine.
pub struct AdaptSession<S: InstructionStream> {
    sys: System<S, TraceCollector>,
    bank: ClassifierBank,
    protocol: Protocol,
    actuator: Box<dyn Actuator>,
    cfg: AdaptConfig,
    stream: Vec<ObservedInterval>,
    /// Global interval boundary the simulator has been driven to.
    target: u64,
    /// Proc-0 records consumed.
    processed: u64,
    n_procs: usize,
    /// The normalized BBV of the record being classified.
    bbv: Vec<f64>,
}

impl<S: InstructionStream> AdaptSession<S> {
    /// Wrap a freshly built system (same construction as a plain capture).
    /// Calls [`Actuator::prepare`] immediately.
    pub fn new(mut sys: System<S, TraceCollector>, mut actuator: Box<dyn Actuator>, cfg: AdaptConfig) -> Self {
        let n_procs = sys.observer().records.len();
        let geometry = sys.observer().geometry();
        actuator.prepare(&mut sys);
        Self {
            sys,
            bank: ClassifierBank::new(n_procs, cfg.mode, cfg.thresholds, geometry.footprint_vectors),
            protocol: Protocol::new(cfg.policy),
            actuator,
            cfg,
            stream: Vec::new(),
            target: 0,
            processed: 0,
            n_procs,
            bbv: Vec::new(),
        }
    }

    /// Rebuild a session from a restored machine and an [`AdaptSnap`]. The
    /// system must already be restored (state + collector + fast-forwarded
    /// stream, as for any checkpoint resume); this replays classification
    /// over the recorded prefix to rebuild the bank, then installs the
    /// snapshotted protocol and actuator state. The `DSMCKPT9` decoder
    /// refuses a snapshot whose stream does not pair with the collector's
    /// proc-0 records, so the asserts here only catch a snapshot handed to
    /// a machine it was not taken from.
    pub fn resume(
        mut sys: System<S, TraceCollector>,
        mut actuator: Box<dyn Actuator>,
        cfg: AdaptConfig,
        snap: &AdaptSnap,
    ) -> Self {
        let n_procs = sys.observer().records.len();
        let geometry = sys.observer().geometry();
        actuator.prepare(&mut sys);
        actuator.import(&snap.actuator);
        let mut bank =
            ClassifierBank::new(n_procs, cfg.mode, cfg.thresholds, geometry.footprint_vectors);
        assert!(
            sys.observer().records[0].len() >= snap.processed as usize,
            "restored collector holds fewer proc-0 records than the session consumed"
        );
        let mut bbv = Vec::new();
        for (i, obs) in snap.stream.iter().enumerate() {
            let r = &sys.observer().records[0][i];
            debug_assert_eq!(r.index, obs.index);
            r.normalized_bbv_into(&mut bbv);
            let ci = bank.classify_raw(0, r.index, r.cpi(), &bbv, r.dds, obs.degraded);
            debug_assert_eq!(ci.phase_id, obs.phase, "replayed classification diverged");
        }
        Self {
            sys,
            bank,
            protocol: Protocol::import(cfg.policy, &snap.phases, snap.decisions.clone(), snap.retunes),
            actuator,
            cfg,
            stream: snap.stream.clone(),
            target: snap.target,
            processed: snap.processed,
            n_procs,
            bbv,
        }
    }

    /// The wrapped system (state/collector snapshots for checkpointing).
    pub fn system(&self) -> &System<S, TraceCollector> {
        &self.sys
    }

    /// Global interval boundary reached so far.
    pub fn boundary(&self) -> u64 {
        self.target
    }

    /// Session state for `DSMCKPT9`. Meaningful at an interval boundary
    /// (i.e. between [`AdaptSession::step_boundary`] calls), like
    /// [`System::state_snapshot`].
    pub fn adapt_snap(&self) -> AdaptSnap {
        AdaptSnap {
            target: self.target,
            processed: self.processed,
            phases: self.protocol.export_phases(),
            decisions: self.protocol.decisions().to_vec(),
            stream: self.stream.clone(),
            retunes: self.protocol.retunes(),
            actuator: self.actuator.export(),
        }
    }

    fn degraded(&self, interval: u64) -> bool {
        match &self.cfg.availability {
            None => false,
            Some(a) => (1..self.n_procs).any(|s| a.row_missed(0, s, interval)),
        }
    }

    /// Classify and feed every proc-0 record not yet consumed, applying the
    /// actuator after each protocol step.
    fn drain_records(&mut self) {
        while (self.processed as usize) < self.sys.observer().records[0].len() {
            let (obs, next_cfg) = {
                let r = &self.sys.observer().records[0][self.processed as usize];
                let degraded = self.degraded(r.index);
                r.normalized_bbv_into(&mut self.bbv);
                let ci = self.bank.classify_raw(0, r.index, r.cpi(), &self.bbv, r.dds, degraded);
                let obs = ObservedInterval {
                    index: r.index,
                    phase: ci.phase_id,
                    cpi: ci.cpi,
                    degraded,
                };
                (obs, self.protocol.observe(r.index, ci.phase_id, ci.cpi, degraded))
            };
            self.stream.push(obs);
            self.processed += 1;
            if let Some(c) = next_cfg {
                self.actuator.apply(&mut self.sys, c);
            }
        }
    }

    /// Advance one global interval boundary; returns false once the
    /// workload has finished (any trailing records are still consumed).
    pub fn step_boundary(&mut self) -> bool {
        self.target += 1;
        let reached = self.sys.run_to_interval(self.target);
        self.drain_records();
        // `run_to_interval` reports `true` vacuously once every processor
        // has finished (the boundary index is past the end of the run);
        // treat that as completion or the drive loop would never stop.
        reached && self.sys.min_interval_index() != u64::MAX
    }

    /// Drive to global boundary `boundary` (for checkpointing mid-run);
    /// returns false if the workload ended first.
    pub fn run_to_boundary(&mut self, boundary: u64) -> bool {
        while self.target < boundary {
            if !self.step_boundary() {
                return false;
            }
        }
        true
    }

    /// Drive to completion.
    pub fn run(mut self) -> AdaptOutcome {
        while self.step_boundary() {}
        let decisions = self.protocol.decisions().to_vec();
        let retunes = self.protocol.retunes();
        let locked_phases = self.protocol.locked_phases();
        let (stats, collector) = self.sys.run();
        AdaptOutcome {
            stats,
            records: collector.records,
            stream: self.stream,
            decisions,
            retunes,
            locked_phases,
        }
    }
}

/// Run a system under one *fixed* actuator configuration applied at every
/// interval boundary — no tuning, no classification. The oracle arm is the
/// minimum over configs of this; config 0 is the untuned machine.
pub fn run_locked<S: InstructionStream>(
    mut sys: System<S, TraceCollector>,
    actuator: &mut dyn Actuator,
    config: usize,
) -> (SystemStats, Vec<Vec<IntervalRecord>>) {
    actuator.prepare(&mut sys);
    let mut target = 0u64;
    loop {
        target += 1;
        if !sys.run_to_interval(target) || sys.min_interval_index() == u64::MAX {
            break;
        }
        actuator.apply(&mut sys, config);
    }
    let (stats, collector) = sys.run();
    (stats, collector.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::{DvfsActuator, MigrationActuator, NoopActuator};
    use dsm_phase::detector::DetectorGeometry;
    use dsm_sim::config::{DistributionPolicy, SystemConfig};
    use dsm_sim::network::Network;
    use dsm_workloads::{make_stream, App, Scale};

    fn test_system(app: App, n: usize) -> System<impl InstructionStream, TraceCollector> {
        test_system_dist(app, n, None)
    }

    fn test_system_dist(
        app: App,
        n: usize,
        dist: Option<DistributionPolicy>,
    ) -> System<impl InstructionStream, TraceCollector> {
        let mut cfg = SystemConfig::scaled(n, 16_000);
        if let Some(d) = dist {
            cfg.distribution = d;
        }
        let stream = make_stream(app, n, Scale::Test);
        let dmat = Network::new(cfg.network, n).distance_matrix();
        let collector = TraceCollector::new(n, dmat, DetectorGeometry::default());
        System::new(cfg, stream, collector)
    }

    #[test]
    fn noop_session_is_bit_identical_to_plain_run() {
        let (plain_stats, plain_coll) = test_system(App::Lu, 2).run();
        let out = AdaptSession::new(
            test_system(App::Lu, 2),
            Box::new(NoopActuator),
            AdaptConfig::default(),
        )
        .run();
        assert_eq!(out.stats, plain_stats);
        assert_eq!(out.records, plain_coll.records);
        assert!(out.stats.reconfig.is_inert());
        assert!(!out.stream.is_empty());
        assert!(out.retunes >= 1);
    }

    #[test]
    fn migration_session_actually_migrates() {
        let out = AdaptSession::new(
            test_system_dist(App::Lu, 4, Some(DistributionPolicy::FirstTouch)),
            Box::new(MigrationActuator),
            AdaptConfig::default(),
        )
        .run();
        // The protocol explores configs 1..3 during tuning, which move
        // pages on a first-touch placement with cross-node traffic.
        assert!(out.stats.reconfig.migrations > 0, "tuning trials must migrate pages");
        assert_eq!(
            out.stats.reconfig.migration_stall_cycles % dsm_sim::reconfig::PAGE_MIGRATE_STALL_CYCLES,
            0
        );
    }

    #[test]
    fn run_locked_config_zero_matches_untuned() {
        let (plain_stats, _) = test_system(App::Fmm, 2).run();
        let (locked_stats, _) =
            run_locked(test_system(App::Fmm, 2), &mut NoopActuator, 0);
        assert_eq!(plain_stats, locked_stats);
        // Dvfs config 0 is all-nominal: also identical.
        let (dvfs0, _) = run_locked(test_system(App::Fmm, 2), &mut DvfsActuator, 0);
        assert_eq!(plain_stats, dvfs0);
    }

    #[test]
    fn dvfs_session_counts_epochs_and_conserves_coherence() {
        let (stats, _) = run_locked(test_system(App::Equake, 4), &mut DvfsActuator, 2);
        assert!(stats.reconfig.dvfs_epochs > 0);
        assert!(stats.coherence_transactions_conserved());
    }

    #[test]
    fn snapshot_resume_mid_tuning_is_bit_exact() {
        // Straight-through run.
        let straight = AdaptSession::new(
            test_system_dist(App::Lu, 2, Some(DistributionPolicy::FirstTouch)),
            Box::new(MigrationActuator),
            AdaptConfig::default(),
        )
        .run();

        // Split run: stop mid-tuning (boundary 2 is inside the 4-trial
        // exploration of the first phase), snapshot, rebuild, continue.
        let mut first = AdaptSession::new(
            test_system_dist(App::Lu, 2, Some(DistributionPolicy::FirstTouch)),
            Box::new(MigrationActuator),
            AdaptConfig::default(),
        );
        assert!(first.run_to_boundary(2));
        let sys_state = first.system().state_snapshot();
        let coll_state = first.system().observer().export_state();
        let snap = first.adapt_snap();
        assert!(!snap.phases.is_empty());
        drop(first);

        let mut stream = make_stream(App::Lu, 2, Scale::Test);
        for (p, &n) in sys_state.fetched.iter().enumerate() {
            for _ in 0..n {
                let _ = stream.next(p);
            }
        }
        let mut cfg = SystemConfig::scaled(2, 16_000);
        cfg.distribution = DistributionPolicy::FirstTouch;
        let dmat = Network::new(cfg.network, 2).distance_matrix();
        let mut collector = TraceCollector::new(2, dmat, DetectorGeometry::default());
        collector.import_state(&coll_state);
        let mut sys = System::new(cfg, stream, collector);
        sys.restore_state(&sys_state);

        let resumed =
            AdaptSession::resume(sys, Box::new(MigrationActuator), AdaptConfig::default(), &snap)
                .run();
        assert_eq!(resumed.stats, straight.stats);
        assert_eq!(resumed.records, straight.records);
        assert_eq!(resumed.decisions, straight.decisions);
        assert_eq!(resumed.stream, straight.stream);
    }
}
