//! Per-tenant state: configuration, detector bank, bounded queues, and the
//! conservation-checked ingest accounting.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use dsm_diagnose::{DiagnoseConfig, DiagnosisSink};
use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::signature::{ClassifierBank, IntervalSignature};
use dsm_phase::ClassifiedInterval;
use dsm_telemetry::{CounterId, GaugeId, HistId, MetricsRegistry};

/// Opaque tenant handle. Ids are allocated monotonically by the server and
/// never reused, so a stale handle to an evicted tenant can only miss — it
/// can never alias a later tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Everything the server needs to know about a tenant's detector: the shape
/// of its machine and the classifier knobs. One tenant = one replayed
/// workload run (or synthetic stream) = one bank of per-processor footprint
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Processors in the tenant's machine; signatures carry a `proc` index
    /// that must stay below this.
    pub n_procs: usize,
    pub mode: DetectorMode,
    pub thresholds: Thresholds,
    /// Footprint-table capacity per processor (32 in the paper).
    pub footprint_vectors: usize,
    /// BBV accumulator entries; every ingested signature's `bbv` must have
    /// exactly this length.
    pub bbv_entries: usize,
}

impl TenantConfig {
    /// Paper-default geometry (32-entry BBV, 32-vector footprint table).
    pub fn new(n_procs: usize, mode: DetectorMode, thresholds: Thresholds) -> Self {
        Self {
            n_procs,
            mode,
            thresholds,
            footprint_vectors: dsm_phase::DEFAULT_FOOTPRINT_VECTORS,
            bbv_entries: dsm_phase::DEFAULT_BBV_ENTRIES,
        }
    }
}

/// Ingest/classify/deliver accounting for one tenant. The conservation
/// invariant — `accepted + rejected == offered`, and every accepted
/// signature is eventually `classified` or reported as `pending` at evict —
/// is what "no signature dropped silently" means; the property suite pins
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Signatures presented to `offer`.
    pub offered: u64,
    /// Signatures enqueued (`Ingest::Enqueued`).
    pub accepted: u64,
    /// Signatures refused with `Ingest::Busy` (queue full). The caller
    /// still owns them; nothing is dropped.
    pub rejected: u64,
    /// Signatures classified out of the ingest queue.
    pub classified: u64,
    /// Classified intervals handed to the caller via `drain_output`.
    pub delivered: u64,
    /// Highest ingest-queue depth ever observed.
    pub queue_high_water: u64,
    /// Highest output-buffer depth ever observed.
    pub output_high_water: u64,
    /// Batch steps that halted early because the output buffer was full
    /// (slow consumer): classification stalls rather than dropping output.
    pub output_stalls: u64,
}

impl TenantStats {
    /// Fold another tenant's counters into this aggregate (high-waters max,
    /// everything else sums).
    pub fn absorb(&mut self, other: &TenantStats) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.classified += other.classified;
        self.delivered += other.delivered;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.output_high_water = self.output_high_water.max(other.output_high_water);
        self.output_stalls += other.output_stalls;
    }
}

/// What `evict` hands back: final accounting plus explicit counts of work
/// that was in flight, so nothing disappears silently with the tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    pub id: TenantId,
    pub stats: TenantStats,
    /// Accepted signatures still queued (never classified).
    pub pending: u64,
    /// Classified intervals never drained by the caller.
    pub undelivered: u64,
    /// Footprint-table capacity released back to the server.
    pub footprint_vectors: usize,
}

/// Per-tenant metric ids, registered once at admit under
/// `serve/tenant/<id>/...` (only when the server is configured with
/// `per_tenant_metrics`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TenantProbes {
    pub offered: CounterId,
    pub classified: CounterId,
    pub busy: CounterId,
    pub queue_depth: GaugeId,
    pub latency: HistId,
    /// Intervals the diagnosis sink has observed
    /// (`serve/tenant/<id>/diagnose/observed`).
    pub diag_observed: CounterId,
    /// Window re-anchors after a non-consecutive interval index — zero on a
    /// correct producer (`serve/tenant/<id>/diagnose/realigns`).
    pub diag_realigns: GaugeId,
    /// Outliers in the most recent on-demand diagnosis
    /// (`serve/tenant/<id>/diagnose/outliers`).
    pub diag_outliers: GaugeId,
}

impl TenantProbes {
    pub(crate) fn register(reg: &mut MetricsRegistry, id: TenantId) -> Self {
        let name = |metric: &str| format!("serve/tenant/{}/{metric}", id.0);
        Self {
            offered: reg.counter(&name("offered")),
            classified: reg.counter(&name("classified")),
            busy: reg.counter(&name("busy")),
            queue_depth: reg.gauge(&name("queue_depth")),
            latency: reg.histogram(&name("latency_ticks")),
            diag_observed: reg.counter(&name("diagnose/observed")),
            diag_realigns: reg.gauge(&name("diagnose/realigns")),
            diag_outliers: reg.gauge(&name("diagnose/outliers")),
        }
    }
}

/// A live tenant: its bank, its bounded queues, and its accounting.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub id: TenantId,
    pub cfg: TenantConfig,
    pub bank: ClassifierBank,
    /// Ingest queue: `(arrival_tick, signature)`, FIFO, bounded by the
    /// server's `queue_capacity`.
    pub queue: VecDeque<(u64, IntervalSignature)>,
    /// Classified intervals awaiting `drain_output`, bounded by
    /// `output_capacity`.
    pub output: VecDeque<ClassifiedInterval>,
    pub stats: TenantStats,
    pub probes: Option<TenantProbes>,
    /// Cross-node similarity state, fed at classification time (never from
    /// the drain path, so a stalled consumer cannot skew the window). `None`
    /// when the server runs with `diagnose_window == 0`.
    pub diag: Option<DiagnosisSink>,
}

impl TenantState {
    pub(crate) fn new(
        id: TenantId,
        cfg: TenantConfig,
        probes: Option<TenantProbes>,
        diagnose_window: usize,
    ) -> Self {
        Self {
            id,
            cfg,
            bank: ClassifierBank::new(
                cfg.n_procs,
                cfg.mode,
                cfg.thresholds,
                cfg.footprint_vectors,
            ),
            queue: VecDeque::new(),
            output: VecDeque::new(),
            stats: TenantStats::default(),
            probes,
            diag: (diagnose_window > 0)
                .then(|| DiagnosisSink::new(cfg.n_procs, diagnose_window, DiagnoseConfig::default())),
        }
    }
}
