//! Differential guarantees of the adaptation subsystem (`dsm-adapt`):
//!
//! 1. **No-op transparency** — an [`AdaptSession`] with the no-op actuator
//!    is bit-identical to a plain capture: same machine statistics, same
//!    observer stream, zero reconfiguration counters. Classification and
//!    the tuning protocol run, but the machine never notices.
//! 2. **Protocol replay** — the live machine loop's decision log is exactly
//!    what a fresh `dsm_adapt::Protocol` decides when the session's
//!    classified stream is replayed through it, degraded intervals
//!    included: same trials, same locked configs, same re-tune count.
//! 3. **Conservation under faults** — with real actuators reconfiguring
//!    the machine mid-run under a lossy fault plan, every workload still
//!    completes and the coherence conservation invariant holds.
//! 4. **Mid-tuning resume** — a `DSMCKPT9` checkpoint taken inside the
//!    exploration of the first phase round-trips through bytes and resumes
//!    to a bit-exact final state.

use dsm_adapt::{
    AdaptConfig, AdaptSession, DvfsActuator, HeteroActuator, MigrationActuator, NoopActuator,
    Protocol,
};
use dsm_phase_detection::harness::trace::capture_with_faults;
use dsm_phase_detection::phase::detector::AvailabilityModel;
use dsm_phase_detection::phase::detector::DetectorGeometry as Geometry;
use dsm_phase_detection::prelude::*;
use dsm_phase_detection::sim::config::{DistributionPolicy, FaultPlan};
use dsm_phase_detection::sim::event::{ChunkedStream, InstructionStream};
use dsm_phase_detection::sim::network::Network;
use dsm_phase_detection::workloads::Workload;
use dsm_simpoint::{Checkpoint, CheckpointMeta};

type AppSystem = System<ChunkedStream<Box<dyn Workload>>, TraceCollector>;

/// Same machine construction as a plain capture (`harness::trace`).
fn build_system(config: ExperimentConfig, dist: Option<DistributionPolicy>) -> AppSystem {
    let mut sys_cfg = config.system_config();
    if let Some(d) = dist {
        sys_cfg.distribution = d;
    }
    build_system_cfg(config, sys_cfg)
}

fn build_system_cfg(config: ExperimentConfig, sys_cfg: SystemConfig) -> AppSystem {
    let stream = make_stream(config.app, config.n_procs, config.scale);
    let dmat = Network::new(sys_cfg.network, config.n_procs).distance_matrix();
    let collector = TraceCollector::new(config.n_procs, dmat, Geometry::default());
    System::new(sys_cfg, stream, collector)
}

#[test]
fn noop_actuator_is_bit_identical_to_plain_capture() {
    for app in App::EXTENDED {
        for n in [2usize, 4] {
            let cfg = ExperimentConfig::test(app, n);
            let plain = capture(cfg);
            let out = AdaptSession::new(
                build_system(cfg, None),
                Box::new(NoopActuator),
                AdaptConfig::default(),
            )
            .run();
            assert_eq!(
                out.stats,
                plain.stats,
                "{} x{n}: no-op adaptation perturbed machine statistics",
                app.name()
            );
            assert_eq!(
                out.records,
                plain.records,
                "{} x{n}: no-op adaptation perturbed the observer stream",
                app.name()
            );
            assert!(
                out.stats.reconfig.is_inert(),
                "{} x{n}: no-op arm ticked a reconfiguration counter",
                app.name()
            );
            // The protocol really ran on top: it saw intervals and locked.
            assert!(!out.stream.is_empty() && out.retunes >= 1);
        }
    }
}

/// The concrete session's classified stream, replayed through a fresh
/// [`Protocol`] with the call the session makes per interval
/// (`observe(index, phase, cpi, degraded)`), must reproduce the session's
/// decision log exactly, locked configs included, and its re-tune count:
/// on every workload and with degraded intervals in the stream.
#[test]
fn session_decisions_replay_through_a_fresh_protocol() {
    let availability = Some(AvailabilityModel { seed: 11, miss_ppm: 150_000, max_staleness: 0 });
    let mut locked = Vec::new();
    for (app, avail) in [(App::Lu, None), (App::Fmm, availability), (App::Equake, availability)] {
        let cfg = ExperimentConfig::test(app, 4);
        let adapt_cfg = AdaptConfig { availability: avail, ..AdaptConfig::default() };
        let out = AdaptSession::new(
            build_system(cfg, Some(DistributionPolicy::FirstTouch)),
            Box::new(MigrationActuator),
            adapt_cfg,
        )
        .run();

        let mut replay = Protocol::new(adapt_cfg.policy);
        for o in &out.stream {
            replay.observe(o.index, o.phase, o.cpi, o.degraded);
        }
        locked.push(out.locked_phases);
        assert_eq!(
            replay.decisions(),
            &out.decisions[..],
            "{}: protocol replay diverged from the session's decisions",
            app.name()
        );
        assert_eq!(replay.retunes(), out.retunes, "{}: re-tune count diverged", app.name());

        // Degraded intervals are spectators: no decision may sit on a
        // degraded interval's index.
        let degraded: Vec<u64> =
            out.stream.iter().filter(|o| o.degraded).map(|o| o.index).collect();
        if avail.is_some() {
            assert!(!degraded.is_empty(), "{}: availability model never fired", app.name());
        }
        for d in &out.decisions {
            assert!(
                !degraded.contains(&d.interval),
                "{}: decision spent on degraded interval {}",
                app.name(),
                d.interval
            );
        }
    }
    assert!(locked.iter().any(|&n| n > 0), "no workload locked a phase: {locked:?}");
}

/// Real reconfiguration under a lossy network: every actuator family keeps
/// the coherence conservation invariant and completes on every workload.
#[test]
fn adaptation_conserves_coherence_under_faults() {
    for app in App::EXTENDED {
        let cfg = ExperimentConfig::test(app, 8);
        let mut sys_cfg = cfg.system_config();
        sys_cfg.fault = FaultPlan::mixed(42, 0.01);
        sys_cfg.distribution = DistributionPolicy::FirstTouch;
        let core = sys_cfg.core;
        let actuators: Vec<Box<dyn dsm_adapt::Actuator>> = vec![
            Box::new(MigrationActuator),
            Box::new(DvfsActuator),
            Box::new(HeteroActuator::new(core)),
        ];
        for actuator in actuators {
            let name = actuator.name();
            let out = AdaptSession::new(
                build_system_cfg(cfg, sys_cfg.clone()),
                actuator,
                AdaptConfig::default(),
            )
            .run();
            assert!(
                out.stats.finish_cycle > 0,
                "{} 8P {name}: run did not finish under faults",
                app.name()
            );
            assert!(
                out.stats.coherence_transactions_conserved(),
                "{} 8P {name}: coherence transactions not conserved under faults",
                app.name()
            );
            assert!(out.stats.faults.drops > 0, "{} 8P: fault layer never fired", app.name());
        }
        // The faulty adapted run still differs from a fault-free capture in
        // fault counters only when the actuator was inert — sanity-pin that
        // the fault plan itself perturbs the run.
        let clean = capture_with_faults(cfg, FaultPlan::none());
        assert!(clean.stats.faults.is_clean());
    }
}

/// `DSMCKPT9` carries the tuning-protocol state: a checkpoint taken
/// mid-exploration round-trips through real bytes and resumes bit-exactly.
#[test]
fn dsmckpt6_mid_tuning_checkpoint_resumes_bit_exactly() {
    let app = App::Lu;
    let n = 2usize;
    let cfg = ExperimentConfig::test(app, n);

    // Straight-through reference run.
    let straight = AdaptSession::new(
        build_system(cfg, Some(DistributionPolicy::FirstTouch)),
        Box::new(MigrationActuator),
        AdaptConfig::default(),
    )
    .run();

    // Split run: stop at boundary 2 (inside the first phase's 4-config
    // exploration), checkpoint through the codec, rebuild, continue.
    let mut first = AdaptSession::new(
        build_system(cfg, Some(DistributionPolicy::FirstTouch)),
        Box::new(MigrationActuator),
        AdaptConfig::default(),
    );
    assert!(first.run_to_boundary(2));
    let snap = first.adapt_snap();
    assert!(!snap.phases.is_empty(), "boundary 2 must be mid-tuning");
    let mut sys_cfg = cfg.system_config();
    sys_cfg.distribution = DistributionPolicy::FirstTouch;
    let ck = Checkpoint {
        meta: CheckpointMeta {
            app,
            n_procs: n,
            scale: cfg.scale,
            interval_base: sys_cfg.interval_insns * n as u64,
            topology: sys_cfg.network.topology,
            link_contention: sys_cfg.network.link_contention,
            plan: sys_cfg.fault,
            geometry: Geometry::default(),
            interval_index: first.boundary(),
        },
        system: first.system().state_snapshot(),
        collector: first.system().observer().export_state(),
        adapt: Some(snap),
    };
    drop(first);

    // Through bytes: encode → decode is the identity, adapt section intact.
    let bytes = ck.encode();
    let decoded = Checkpoint::decode(&bytes).expect("mid-tuning checkpoint must decode");
    assert_eq!(decoded, ck);
    let adapt_snap = decoded.adapt.expect("adapt section must survive the codec");

    // Rebuild the machine exactly as `harness::simpoint` resume does:
    // fresh stream fast-forwarded by the fetched counts, collector and
    // system state restored from the checkpoint.
    let mut stream = make_stream(app, n, cfg.scale);
    for (p, &fetched) in decoded.system.fetched.iter().enumerate() {
        for _ in 0..fetched {
            let _ = stream.next(p);
        }
    }
    let dmat = Network::new(sys_cfg.network, n).distance_matrix();
    let mut collector = TraceCollector::new(n, dmat, Geometry::default());
    collector.import_state(&decoded.collector);
    let mut sys = System::new(sys_cfg, stream, collector);
    sys.restore_state(&decoded.system);

    let resumed = AdaptSession::resume(
        sys,
        Box::new(MigrationActuator),
        AdaptConfig::default(),
        &adapt_snap,
    )
    .run();

    assert_eq!(resumed.stats, straight.stats, "resumed statistics diverged");
    assert_eq!(resumed.records, straight.records, "resumed observer stream diverged");
    assert_eq!(resumed.decisions, straight.decisions, "resumed decision log diverged");
    assert_eq!(resumed.stream, straight.stream, "resumed classified stream diverged");
    assert_eq!(resumed.retunes, straight.retunes);
}
