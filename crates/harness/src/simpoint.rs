//! Phase-guided sampled simulation: the harness glue around
//! [`dsm_simpoint`].
//!
//! The pipeline has four steps, mirroring the SimPoint methodology on top of
//! this repository's phase features:
//!
//! 1. **Profile** — capture the full run once ([`crate::trace`]) and build
//!    one BBV ⊕ DDV signature per *global* interval
//!    ([`dsm_simpoint::signatures`]).
//! 2. **Select** — cluster the signatures with deterministic k-means and
//!    pick one representative interval per cluster
//!    ([`dsm_simpoint::select`](mod@dsm_simpoint::select)).
//! 3. **Checkpoint** — re-run the workload once, snapshotting the complete
//!    machine + collector state (`DSMCKPT9` codec) at each representative's
//!    interval boundary; the continuation of this run doubles as a golden
//!    cross-check against the profiling pass.
//! 4. **Replay + reconstruct** — decode each checkpoint in a worker
//!    ([`crate::parallel::par_map`]), rebuild the machine, fast-forward a
//!    fresh instruction stream, restore, simulate exactly one interval, and
//!    combine the per-representative CPIs under cluster weights
//!    ([`dsm_simpoint::reconstruct_cpi`]).
//!
//! Everything is deterministic: fixed selection seed, deterministic
//! workloads, canonical checkpoint encoding — so the JSON artefacts under
//! `results/simpoint/` are byte-identical across reruns.
//!
//! One caveat documented here on purpose: a restored run reproduces the
//! simulator statistics and the interval trace bit-identically, but not
//! telemetry spans emitted *before* the checkpoint (telemetry is process
//! state, not machine state, and is excluded from snapshots by design).

use std::path::PathBuf;

use dsm_phase::detector::{DetectorGeometry, TraceCollector};
use dsm_sim::config::{FaultPlan, SystemConfig};
use dsm_sim::event::{ChunkedStream, Event, InstructionStream};
use dsm_sim::system::System;
use dsm_simpoint::{
    interval_cpis, mean_and_cov, reconstruct_cpi, relative_error, select, signatures,
    stratified_members, Checkpoint, CheckpointMeta, CkptError, Reconstructed, SampleUnit,
    Selection,
};
use dsm_workloads::{make_stream, Workload};

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::parallel::par_map;
use crate::report;
use crate::trace::{capture_cached, capture_system, capture_with_faults, SystemTrace};

/// Fixed seed for representative selection: sampling artefacts must be
/// byte-identical across reruns.
pub const SELECTION_SEED: u64 = 0x51_D0_17;

/// Maximum clusters the sweep will consider; bounded by `n_intervals / 5` so
/// the simulated-interval reduction stays at least 5x.
pub const MAX_K: usize = 64;

type AppSystem = System<ChunkedStream<Box<dyn Workload>>, TraceCollector>;

/// Run `config` under `plan`, snapshotting the machine at each boundary in
/// `boundaries` (sorted, deduplicated; boundary `b` = the state before
/// global interval `b` executes). Returns the encoded checkpoints as
/// `(boundary, bytes)` pairs plus the full-run trace of this same pass.
///
/// Panics if a requested boundary lies beyond the end of the run — callers
/// derive boundaries from a profiling pass of the identical configuration,
/// so an unreachable boundary is a determinism bug, not an input error.
pub fn capture_with_checkpoints(
    config: ExperimentConfig,
    plan: FaultPlan,
    boundaries: &[u64],
) -> (Vec<(u64, Vec<u8>)>, SystemTrace) {
    let mut sys_cfg = config.system_config();
    sys_cfg.fault = plan;
    capture_checkpoints_inner(config, sys_cfg, boundaries, false)
}

/// [`capture_with_checkpoints`] with an explicit machine configuration —
/// the routed-fabric round-trip tests checkpoint non-default topologies
/// with link contention on. The fault plan is `sys_cfg.fault`.
pub fn capture_with_checkpoints_cfg(
    config: ExperimentConfig,
    sys_cfg: SystemConfig,
    boundaries: &[u64],
) -> (Vec<(u64, Vec<u8>)>, SystemTrace) {
    capture_checkpoints_inner(config, sys_cfg, boundaries, false)
}

fn capture_checkpoints_inner(
    config: ExperimentConfig,
    sys_cfg: SystemConfig,
    boundaries: &[u64],
    strip_records: bool,
) -> (Vec<(u64, Vec<u8>)>, SystemTrace) {
    let mut sorted: Vec<u64> = boundaries.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let mut sys = fresh_system(config, sys_cfg.clone());
    let mut ckpts = Vec::with_capacity(sorted.len());
    for &b in &sorted {
        let reached = sys.run_to_interval(b);
        assert!(
            reached && sys.min_interval_index() != u64::MAX,
            "boundary {b} not reachable for {}",
            config.label()
        );
        let mut ck = snapshot(&sys, config, &sys_cfg, b);
        if strip_records {
            // The replay worker only measures interval `b`, but processors
            // ahead of the global boundary may have recorded it already —
            // keep that tail and drop the (write-only) history before it,
            // so a late checkpoint does not carry the whole trace so far.
            // The continuation is unaffected: the collector never reads
            // back its records.
            for proc_recs in &mut ck.collector.records {
                proc_recs.retain(|r| r.index >= b);
            }
        }
        ckpts.push((b, ck.encode()));
    }
    (ckpts, SystemTrace::from_run(config, sys.run()))
}

/// Run `config` under `plan`, snapshotting every `every` global interval
/// boundaries until the run ends. The open-ended sibling of
/// [`capture_with_checkpoints`] for the `faults --checkpoint-every` flag.
pub fn capture_checkpoint_every(
    config: ExperimentConfig,
    plan: FaultPlan,
    every: u64,
) -> (Vec<(u64, Vec<u8>)>, SystemTrace) {
    assert!(every > 0, "checkpoint period must be positive");
    let mut sys_cfg = config.system_config();
    sys_cfg.fault = plan;
    let mut sys = fresh_system(config, sys_cfg.clone());
    let mut ckpts = Vec::new();
    let mut b = every;
    loop {
        if !sys.run_to_interval(b) || sys.min_interval_index() == u64::MAX {
            break;
        }
        ckpts.push((b, snapshot(&sys, config, &sys_cfg, b).encode()));
        b += every;
    }
    (ckpts, SystemTrace::from_run(config, sys.run()))
}

/// Rebuild a live system from a decoded checkpoint: reconstruct the machine
/// configuration from the metadata, fast-forward a fresh instruction stream
/// by the recorded per-processor fetch counts, import the collector state,
/// and restore the machine state. The result continues bit-identically to
/// the run the checkpoint was taken from. Metadata that fails
/// [`ExperimentConfig::validate`] is refused as a `BadValue` naming the
/// field instead of panicking in `System::new`. So is a fetch count past the end of the processor's
/// stream, and machine state whose lengths do not fit the rebuilt system
/// ([`System::state_misfit`]).
pub fn resume_checkpoint(ck: &Checkpoint) -> Result<(ExperimentConfig, AppSystem), CkptError> {
    let config = ExperimentConfig {
        app: ck.meta.app,
        n_procs: ck.meta.n_procs,
        scale: ck.meta.scale,
        interval_base: ck.meta.interval_base,
    };
    config
        .validate()
        .map_err(|e| CkptError::BadValue { what: e.field() })?;
    let mut sys_cfg = config.system_config();
    sys_cfg.fault = ck.meta.plan;
    // The snapshot's link vectors are indexed by the captured topology's
    // directed-link ids; rebuild the identical fabric, not the default one.
    sys_cfg.network.topology = ck.meta.topology;
    sys_cfg.network.link_contention = ck.meta.link_contention;

    // Streams are pure functions of (app, n_procs, scale); replaying the
    // recorded fetch counts puts a fresh one exactly where the snapshotted
    // stream stopped (including the parked pending events). A processor
    // fetches nothing after its stream's end, so a count past it is refused
    // rather than replayed.
    let mut stream = make_stream(config.app, config.n_procs, config.scale);
    for (p, &n) in ck.system.fetched.iter().enumerate() {
        for i in 1..=n {
            if stream.next(p) == Event::End && i < n {
                return Err(CkptError::BadValue { what: "fetch count past the stream's end" });
            }
        }
    }

    let mut sys = capture_system(sys_cfg, stream, ck.meta.geometry, TraceCollector::new);
    if let Some(what) = sys.state_misfit(&ck.system) {
        return Err(CkptError::BadValue { what });
    }
    sys.observer_mut().import_state(&ck.collector);
    sys.restore_state(&ck.system);
    Ok((config, sys))
}

/// Resume a decoded checkpoint and run it to completion. Used by the
/// round-trip differential tests and the `faults --resume` flag.
pub fn resume_to_end(ck: &Checkpoint) -> Result<SystemTrace, CkptError> {
    let (config, sys) = resume_checkpoint(ck)?;
    Ok(SystemTrace::from_run(config, sys.run()))
}

/// One sampled-simulation run: selection, stratified per-cluster
/// measurements, reconstruction, and the error metrics against the full-run
/// golden.
#[derive(Debug, Clone)]
pub struct SimpointResult {
    pub config: ExperimentConfig,
    pub plan: FaultPlan,
    pub selection: Selection,
    /// Sampled member intervals per cluster (with within-cluster weights),
    /// aligned with `selection.simpoints`: the stratified allocation of the
    /// `n_intervals / 5` replay budget, sub-stratified on profiled CPI.
    pub samples: Vec<Vec<SampleUnit>>,
    /// Full-run mean CPI over complete global intervals.
    pub full_cpi: f64,
    /// Full-run CoV of per-interval CPI.
    pub full_cov: f64,
    /// Weighted reconstruction from the sampled clusters.
    pub sampled: Reconstructed,
    /// `|sampled.cpi - full_cpi| / full_cpi`.
    pub cpi_rel_error: f64,
    /// `|sampled.cov - full_cov|` (CoV is already dimensionless).
    pub cov_abs_error: f64,
    /// `n_intervals / n_replayed`: how many fewer intervals were simulated.
    pub reduction: f64,
    /// Total intervals actually replayed.
    pub n_replayed: usize,
    /// Encoded size of each replayed checkpoint, in boundary order.
    pub checkpoint_bytes: Vec<usize>,
    /// Estimated CPI per cluster (mean over its sampled members), aligned
    /// with `selection.simpoints`.
    pub measured_cpi: Vec<f64>,
}

/// The full pipeline for one configuration. Deterministic: same config and
/// plan always produce the identical result (and identical artefact bytes).
pub fn sampled_run(config: ExperimentConfig, plan: FaultPlan) -> SimpointResult {
    // 1. Profile.
    let profile = if plan.is_active() {
        std::sync::Arc::new(capture_with_faults(config, plan))
    } else {
        capture_cached(config)
    };
    let sigs = signatures(&profile.records);
    assert!(
        sigs.len() >= 2,
        "{}: need at least two complete global intervals, got {}",
        config.label(),
        sigs.len()
    );

    // 2. Select clusters, then spread the replay budget (a fifth of the
    // intervals, so the reduction stays >= 5x) across them. Profiled
    // per-interval CPI sub-stratifies within clusters — it shapes which
    // intervals get replayed, never the estimate itself.
    let cpis: Vec<f64> = interval_cpis(&profile.records).iter().map(|c| c.cpi).collect();
    let budget = (sigs.len() / 5).max(1);
    let max_k = budget.min(MAX_K);
    let selection = select(&sigs, max_k, SELECTION_SEED);
    let samples = stratified_members(&selection, budget, &cpis);
    let n_replayed: usize = samples.iter().map(|s| s.len()).sum();

    // 3. Checkpoint at every sampled boundary; the continuation is a free
    // differential check that the pass matches the profiling run. Replay
    // workers never look at pre-boundary interval records, so those are
    // stripped to keep hundreds of checkpoints memory-bounded.
    let boundaries: Vec<u64> = samples.iter().flatten().map(|u| u.interval as u64).collect();
    let mut ckpt_cfg = config.system_config();
    ckpt_cfg.fault = plan;
    let (ckpts, golden) = capture_checkpoints_inner(config, ckpt_cfg, &boundaries, true);
    assert_eq!(
        golden.stats, profile.stats,
        "{}: checkpoint pass diverged from profiling pass",
        config.label()
    );
    assert_eq!(ckpts.len(), n_replayed);

    // 4. Replay one interval per checkpoint, in parallel. Decoding here
    // (rather than passing live snapshots) exercises the codec on every run.
    let checkpoint_bytes: Vec<usize> = ckpts.iter().map(|(_, b)| b.len()).collect();
    let measured: Vec<(u64, f64)> = par_map(ckpts, |(b, bytes)| {
        let ck = Checkpoint::decode(&bytes).expect("checkpoint decodes");
        let (_, mut sys) = resume_checkpoint(&ck).expect("checkpoint resumes");
        sys.run_to_interval(b + 1);
        let mut insns = 0u64;
        let mut cycles = 0u64;
        for proc_recs in &sys.observer().records {
            let rec = proc_recs
                .iter()
                .find(|r| r.index == b)
                .expect("replayed interval was recorded");
            insns += rec.insns;
            cycles += rec.cycles;
        }
        (b, if insns == 0 { 0.0 } else { cycles as f64 / insns as f64 })
    });
    let cpi_at: std::collections::HashMap<u64, f64> = measured.into_iter().collect();

    // 5. Reconstruct from the flattened mixture: each sampled unit carries
    // weight (cluster weight) x (its within-cluster group share). The same
    // mixture yields both the mean CPI and the CoV — the sub-strata keep
    // within-cluster spread visible to the second moment.
    let mut flat_w = Vec::with_capacity(n_replayed);
    let mut flat_cpi = Vec::with_capacity(n_replayed);
    for (sp, units) in selection.simpoints.iter().zip(&samples) {
        for u in units {
            flat_w.push(sp.weight * u.weight);
            flat_cpi.push(cpi_at[&(u.interval as u64)]);
        }
    }
    let sampled = reconstruct_cpi(&flat_w, &flat_cpi);
    let measured_cpi: Vec<f64> = samples
        .iter()
        .map(|s| s.iter().map(|u| u.weight * cpi_at[&(u.interval as u64)]).sum::<f64>())
        .collect();

    let (full_cpi, full_cov) = mean_and_cov(&cpis);

    SimpointResult {
        config,
        plan,
        cpi_rel_error: relative_error(sampled.cpi, full_cpi),
        cov_abs_error: (sampled.cov - full_cov).abs(),
        reduction: sigs.len() as f64 / n_replayed as f64,
        n_replayed,
        selection,
        samples,
        full_cpi,
        full_cov,
        sampled,
        checkpoint_bytes,
        measured_cpi,
    }
}

/// `<label>-simpoints.json`: the selection (schema in EXPERIMENTS.md).
pub fn simpoints_json(r: &SimpointResult) -> Json {
    let points: Vec<Json> = r
        .selection
        .simpoints
        .iter()
        .zip(&r.samples)
        .map(|(s, members)| {
            Json::obj()
                .field("interval", s.interval as u64)
                .field("weight", s.weight)
                .field("cluster_size", s.cluster_size as u64)
                .field(
                    "samples",
                    Json::Arr(
                        members
                            .iter()
                            .map(|u| {
                                Json::obj()
                                    .field("interval", u.interval as u64)
                                    .field("weight", u.weight)
                            })
                            .collect(),
                    ),
                )
        })
        .collect();
    Json::obj()
        .field("schema", "dsm-simpoint/v1")
        .field("experiment", "simpoint_selection")
        .field("config", r.config.label())
        .field("app", r.config.app.name())
        .field("n_procs", r.config.n_procs as u64)
        .field("seed", SELECTION_SEED)
        .field("n_intervals", r.selection.n_intervals as u64)
        .field("k", r.selection.k as u64)
        .field("score", r.selection.score)
        .field("n_replayed", r.n_replayed as u64)
        .field("reduction", r.reduction)
        .field("simpoints", Json::Arr(points))
}

/// `<label>-reconstruction.json`: the estimate and its error (schema in
/// EXPERIMENTS.md).
pub fn reconstruction_json(r: &SimpointResult) -> Json {
    Json::obj()
        .field("schema", "dsm-simpoint/v1")
        .field("experiment", "simpoint_reconstruction")
        .field("config", r.config.label())
        .field("k", r.selection.k as u64)
        .field("n_intervals", r.selection.n_intervals as u64)
        .field("n_replayed", r.n_replayed as u64)
        .field("reduction", r.reduction)
        .field(
            "full",
            Json::obj().field("cpi", r.full_cpi).field("cov", r.full_cov),
        )
        .field(
            "reconstructed",
            Json::obj().field("cpi", r.sampled.cpi).field("cov", r.sampled.cov),
        )
        .field("cpi_rel_error", r.cpi_rel_error)
        .field("cov_abs_error", r.cov_abs_error)
        .field(
            "checkpoint_bytes",
            Json::Arr(r.checkpoint_bytes.iter().map(|&b| Json::from(b as u64)).collect()),
        )
        .field(
            "measured_cpi",
            Json::Arr(r.measured_cpi.iter().map(|&c| Json::from(c)).collect()),
        )
}

/// Write both artefacts under `results/simpoint/`; returns their paths.
pub fn write_artifacts(r: &SimpointResult) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(report::results_dir()?.join("simpoint"))?;
    let label = r.config.label();
    let a = report::write_json(&format!("simpoint/{label}-simpoints.json"), &simpoints_json(r))?;
    let b = report::write_json(
        &format!("simpoint/{label}-reconstruction.json"),
        &reconstruction_json(r),
    )?;
    Ok((a, b))
}

fn fresh_system(config: ExperimentConfig, sys_cfg: SystemConfig) -> AppSystem {
    let stream = make_stream(config.app, config.n_procs, config.scale);
    capture_system(sys_cfg, stream, DetectorGeometry::default(), TraceCollector::new)
}

fn snapshot(
    sys: &AppSystem,
    config: ExperimentConfig,
    sys_cfg: &SystemConfig,
    boundary: u64,
) -> Checkpoint {
    Checkpoint {
        meta: CheckpointMeta {
            app: config.app,
            n_procs: config.n_procs,
            scale: config.scale,
            interval_base: config.interval_base,
            topology: sys_cfg.network.topology,
            link_contention: sys_cfg.network.link_contention,
            plan: sys_cfg.fault,
            geometry: sys.observer().geometry(),
            interval_index: boundary,
        },
        system: sys.state_snapshot(),
        collector: sys.observer().export_state(),
        adapt: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_workloads::App;

    #[test]
    fn resumed_run_matches_straight_run() {
        let config = ExperimentConfig::test(App::Lu, 2);
        let (ckpts, golden) = capture_with_checkpoints(config, FaultPlan::none(), &[2]);
        assert_eq!(ckpts.len(), 1);
        let resumed = resume_to_end(&Checkpoint::decode(&ckpts[0].1).unwrap()).unwrap();
        assert_eq!(resumed.stats, golden.stats);
        assert_eq!(resumed.records, golden.records);
        assert_eq!(resumed.ddv_vectors_exchanged, golden.ddv_vectors_exchanged);
    }

    #[test]
    fn unrunnable_checkpoint_is_refused_not_run() {
        let config = ExperimentConfig::test(App::Lu, 2);
        let (ckpts, _) = capture_with_checkpoints(config, FaultPlan::none(), &[2]);
        let edited = |edit: fn(&mut Checkpoint)| {
            let mut ck = Checkpoint::decode(&ckpts[0].1).unwrap();
            edit(&mut ck);
            // Decode refuses a bad fault plan; resume refuses the rest.
            Checkpoint::decode(&ck.encode()).and_then(|ck| resume_to_end(&ck)).err()
        };
        // Both used to decode and then panic in `System::new`.
        assert_eq!(
            edited(|ck| ck.meta.plan.drop_ppm = 2_000_000),
            Some(CkptError::BadValue { what: "fault plan" })
        );
        assert_eq!(
            edited(|ck| ck.meta.interval_base = 0),
            Some(CkptError::BadValue { what: "interval_base" })
        );
    }

    #[test]
    fn checkpoint_every_boundaries_are_periodic() {
        let config = ExperimentConfig::test(App::Fmm, 2);
        let (ckpts, trace) = capture_checkpoint_every(config, FaultPlan::none(), 2);
        assert!(!ckpts.is_empty());
        for (i, (b, _)) in ckpts.iter().enumerate() {
            assert_eq!(*b, 2 * (i as u64 + 1));
        }
        // Each one resumes to the identical end state.
        let last = Checkpoint::decode(&ckpts.last().unwrap().1).unwrap();
        let resumed = resume_to_end(&last).unwrap();
        assert_eq!(resumed.stats, trace.stats);
    }

    #[test]
    fn sampled_run_reconstructs_lu() {
        let config = ExperimentConfig::test(App::Lu, 2);
        let r = sampled_run(config, FaultPlan::none());
        assert!(r.selection.k >= 1);
        assert!(r.reduction >= 1.0);
        assert!(r.full_cpi > 0.0);
        assert!(r.sampled.cpi > 0.0);
        assert!(r.cpi_rel_error.is_finite());
        assert_eq!(r.checkpoint_bytes.len(), r.n_replayed);
        assert!(r.reduction >= 5.0 || r.selection.n_intervals < 5);
        // Replayed intervals measure *exactly* what the full run saw —
        // restore is bit-identical, so any gap is a checkpointing bug, not
        // sampling noise. Cluster estimates are therefore exact weighted
        // means of golden per-interval CPIs over the sampled members.
        let golden = interval_cpis(&crate::trace::capture(config).records);
        for (members, &m) in r.samples.iter().zip(&r.measured_cpi) {
            let weight_sum: f64 = members.iter().map(|u| u.weight).sum();
            assert!((weight_sum - 1.0).abs() < 1e-12, "weights sum to {weight_sum}");
            let expect: f64 = members.iter().map(|u| u.weight * golden[u.interval].cpi).sum();
            assert!((m - expect).abs() < 1e-12, "cluster mean {m} != {expect}");
        }
    }

    #[test]
    fn sampled_run_is_deterministic_including_artifacts() {
        let config = ExperimentConfig::test(App::Art, 2);
        let a = sampled_run(config, FaultPlan::none());
        let b = sampled_run(config, FaultPlan::none());
        assert_eq!(simpoints_json(&a).to_string(), simpoints_json(&b).to_string());
        assert_eq!(reconstruction_json(&a).to_string(), reconstruction_json(&b).to_string());
    }

    #[test]
    fn sampled_run_under_faults() {
        let r = sampled_run(ExperimentConfig::test(App::Equake, 2), FaultPlan::mixed(7, 0.02));
        assert!(r.sampled.cpi > 0.0);
        assert!(r.cpi_rel_error.is_finite());
    }
}
