//! Checkpoint round-trip differential matrix: for every workload, at small
//! and large processor counts, with and without an active fault plan, a run
//! resumed from a mid-run checkpoint must finish **bit-identically** to the
//! straight run it was captured from — same machine statistics and the same
//! interval records, down to the last counter.
//!
//! This is the contract the sampled-simulation pipeline stands on: if
//! restore were only approximately right, reconstruction error would mix
//! checkpointing bugs with sampling noise and the 5 % CPI gate would be
//! meaningless.

use dsm_harness::simpoint::{capture_with_checkpoints, capture_with_checkpoints_cfg, resume_to_end};
use dsm_harness::ExperimentConfig;
use dsm_sim::config::FaultPlan;
use dsm_sim::topology::TopologyKind;
use dsm_simpoint::Checkpoint;
use dsm_workloads::App;

/// Capture with checkpoints at the given boundaries, then resume from every
/// checkpoint and require an identical end state.
fn assert_roundtrip(config: ExperimentConfig, plan: FaultPlan, boundaries: &[u64]) {
    let (ckpts, golden) = capture_with_checkpoints(config, plan, boundaries);
    assert_eq!(ckpts.len(), boundaries.len(), "{}: missing checkpoints", config.label());
    for (b, bytes) in &ckpts {
        let ck = Checkpoint::decode(bytes).expect("checkpoint decodes");
        let resumed = resume_to_end(&ck).expect("checkpoint resumes");
        assert_eq!(
            resumed.stats,
            golden.stats,
            "{} (plan active: {}): stats diverged resuming from interval {b}",
            config.label(),
            plan.is_active(),
        );
        assert_eq!(
            resumed.records,
            golden.records,
            "{} (plan active: {}): records diverged resuming from interval {b}",
            config.label(),
            plan.is_active(),
        );
        assert_eq!(
            resumed.ddv_vectors_exchanged,
            golden.ddv_vectors_exchanged,
            "{} (plan active: {}): DDV traffic diverged resuming from interval {b}",
            config.label(),
            plan.is_active(),
        );
    }
}

#[test]
fn roundtrip_all_workloads_2p_under_faults() {
    for app in App::EXTENDED {
        assert_roundtrip(
            ExperimentConfig::test(app, 2),
            FaultPlan::mixed(0xC0FFEE, 0.02),
            &[1, 3],
        );
    }
}

#[test]
fn roundtrip_all_workloads_2p_fault_free() {
    for app in App::EXTENDED {
        assert_roundtrip(ExperimentConfig::test(app, 2), FaultPlan::none(), &[2]);
    }
}

#[test]
fn roundtrip_routed_fabric_nondefault_topologies() {
    // The routed-fabric column: the DSMCKPT9 metadata carries the topology and the
    // link-contention flag, and the per-directed-link busy/flit vectors are
    // indexed by that topology's link table — resume must rebuild the same
    // fabric and continue bit-identically, faults included.
    for (app, kind) in [
        (App::Lu, TopologyKind::Torus2D),
        (App::Equake, TopologyKind::Ring),
        (App::Art, TopologyKind::FatTree),
    ] {
        let config = ExperimentConfig::test(app, 2);
        let mut sys_cfg = config.system_config();
        sys_cfg.network.topology = kind;
        sys_cfg.network.link_contention = true;
        sys_cfg.fault = FaultPlan::mixed(0xFAB2, 0.02);
        let (ckpts, golden) = capture_with_checkpoints_cfg(config, sys_cfg, &[1, 3]);
        assert_eq!(ckpts.len(), 2, "{}/{}: missing checkpoints", config.label(), kind.name());
        for (b, bytes) in &ckpts {
            let ck = Checkpoint::decode(bytes).expect("checkpoint decodes");
            let resumed = resume_to_end(&ck).expect("checkpoint resumes");
            assert_eq!(
                resumed.stats,
                golden.stats,
                "{}/{}: stats diverged resuming from interval {b}",
                config.label(),
                kind.name(),
            );
            assert_eq!(
                resumed.records,
                golden.records,
                "{}/{}: records diverged resuming from interval {b}",
                config.label(),
                kind.name(),
            );
        }
    }
}

#[test]
fn roundtrip_all_workloads_16p_under_faults() {
    // At 16 processors the test-scale run completes only a single global
    // interval, so boundary 1 is the latest state every processor has
    // passed — exactly the stale-straggler case that bit-exact restore has
    // to handle.
    for app in App::EXTENDED {
        assert_roundtrip(
            ExperimentConfig::test(app, 16),
            FaultPlan::mixed(0xD5A1, 0.02),
            &[1],
        );
    }
}
