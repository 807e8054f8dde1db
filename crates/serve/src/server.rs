//! The streaming phase-classification server.
//!
//! ## Model
//!
//! The server is a synchronous sink with an explicit batch clock. Callers
//! [`offer`](PhaseServer::offer) interval signatures for a tenant and
//! observe [`Ingest::Enqueued`] or [`Ingest::Busy`] (bounded queue —
//! backpressure, never silent drops); [`run_batch`](PhaseServer::run_batch)
//! advances one logical tick and classifies up to `batch_size` queued
//! signatures per tenant; [`drain_output`](PhaseServer::drain_output)
//! hands classified intervals back. A tenant whose consumer is slow fills
//! its bounded output buffer and classification for it *stalls* (counted)
//! instead of dropping results.
//!
//! ## Determinism
//!
//! Everything is keyed to the logical tick, not wall time: ingest-to-
//! classify latency is `classify_tick - arrival_tick`. Batches visit shards
//! and slots in index order, and [`run_batch_parallel`](PhaseServer::run_batch_parallel)
//! runs whole shards on separate host threads — shards share no tenant
//! state, and results are merged in shard order, so the parallel batch is
//! bit-identical to the serial one at any thread count.
//!
//! ## Memory
//!
//! The server holds live state, not history. Each tenant's queue and output
//! buffer are bounded by [`ServeConfig`]; each shard records latency as an
//! exact histogram — one counter per latency in ticks — so its latency
//! record is O(largest latency), not O(classifications), and
//! [`latency_percentiles`](PhaseServer::latency_percentiles) reads the
//! nearest rank off the merged counts without copying or sorting samples.

use std::collections::HashMap;

use dsm_diagnose::{Diagnosis, NodeTelemetry, TelemetryError};
use dsm_phase::signature::IntervalSignature;
use dsm_phase::ClassifiedInterval;
use dsm_telemetry::{MetricsRegistry, Snapshot, SpanSink};

use crate::tenant::{TenantConfig, TenantId, TenantProbes, TenantState, TenantStats, TenantSummary};

/// Server sizing and policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Tenant shards. Tenants land on shard `id % shards`; batches may
    /// process shards on separate host threads.
    pub shards: usize,
    /// Per-tenant ingest-queue bound; offers beyond it observe
    /// [`Ingest::Busy`].
    pub queue_capacity: usize,
    /// Per-tenant output-buffer bound; classification stalls (never drops)
    /// when a slow consumer lets it fill.
    pub output_capacity: usize,
    /// Max signatures classified per tenant per batch.
    pub batch_size: usize,
    /// Admission bound on concurrently live tenants.
    pub max_tenants: usize,
    /// Register per-tenant counters/gauges/histograms under
    /// `serve/tenant/<id>/...`. Costs registry space per tenant; off for
    /// large fleets, on for debugging a few tenants.
    pub per_tenant_metrics: bool,
    /// Cross-node diagnosis window in intervals per node; `0` disables the
    /// per-tenant [`DiagnosisSink`](dsm_diagnose::DiagnosisSink). The sink
    /// observes intervals at classification time — upstream of the output
    /// buffer — so a slow consumer stalls delivery but never the diagnosis
    /// window.
    pub diagnose_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            queue_capacity: 64,
            output_capacity: 256,
            batch_size: 32,
            max_tenants: 4096,
            per_tenant_metrics: false,
            diagnose_window: 0,
        }
    }
}

impl ServeConfig {
    /// Check that a server with this configuration can make progress: it
    /// needs at least one shard, and room for at least one signature in
    /// each tenant's queue, output buffer and batch.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        for (field, value) in [
            ("shards", self.shards),
            ("queue_capacity", self.queue_capacity),
            ("output_capacity", self.output_capacity),
            ("batch_size", self.batch_size),
        ] {
            if value == 0 {
                return Err(ServeConfigError::Zero { field });
            }
        }
        Ok(())
    }
}

/// Why a [`ServeConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `field` is 0: no tenant could be placed, enqueue, deliver or
    /// classify anything.
    Zero { field: &'static str },
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::Zero { field } => {
                write!(f, "serve config {field} must be at least 1")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Outcome of an [`offer`](PhaseServer::offer): the signature was either
/// queued or refused. `Busy` means the caller still owns the signature and
/// may retry after a batch — backpressure is explicit, nothing is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Enqueued; `depth` is the queue depth after the push.
    Enqueued { depth: usize },
    /// Ingest queue full; retry after `run_batch`.
    Busy,
}

/// A structurally invalid request (unknown tenant, malformed signature).
/// Distinct from [`Ingest::Busy`], which is a valid request at a bad time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    UnknownTenant(TenantId),
    /// Signature's `proc` is outside the tenant's machine.
    BadProc { tenant: TenantId, proc: usize, n_procs: usize },
    /// Signature's BBV length does not match the tenant's configured
    /// accumulator size.
    BadBbvLen { tenant: TenantId, len: usize, expected: usize },
    /// A NaN or infinite value in the signature's `field` (`"bbv"` or
    /// `"dds"`). The footprint gate rejects NaN distances and DDS
    /// differences, so such a signature would never match: it would only
    /// allocate phases and evict real entries.
    NonFinite { tenant: TenantId, field: &'static str },
    /// A negative value in the signature's `field` (`"bbv"` or `"dds"`).
    /// Both are built from non-negative counts, so no detector produces
    /// one, and the footprint gate's DDS difference assumes none.
    Negative { tenant: TenantId, field: &'static str },
    /// The interval committed no instructions: it has no code signature
    /// to classify, and its CPI would read 0.
    ZeroInsns { tenant: TenantId },
    /// The diagnosis telemetry slice does not hold one entry per node of
    /// the tenant's machine.
    BadTelemetryLen { tenant: TenantId, len: usize, expected: usize },
    /// A NaN, infinite or negative share (`field`) in `node`'s diagnosis
    /// telemetry. Shares are ratios of non-negative counts, and attribution
    /// takes medians over them.
    BadTelemetryShare { tenant: TenantId, node: usize, field: &'static str },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            ServeError::BadProc { tenant, proc, n_procs } => {
                write!(f, "tenant {tenant}: proc {proc} outside machine of {n_procs}")
            }
            ServeError::BadBbvLen { tenant, len, expected } => {
                write!(f, "tenant {tenant}: bbv length {len}, expected {expected}")
            }
            ServeError::NonFinite { tenant, field } => {
                write!(f, "tenant {tenant}: non-finite value in {field}")
            }
            ServeError::Negative { tenant, field } => {
                write!(f, "tenant {tenant}: negative value in {field}")
            }
            ServeError::ZeroInsns { tenant } => {
                write!(f, "tenant {tenant}: interval of zero instructions")
            }
            ServeError::BadTelemetryLen { tenant, len, expected } => {
                write!(f, "tenant {tenant}: telemetry for {len} nodes, expected {expected}")
            }
            ServeError::BadTelemetryShare { tenant, node, field } => {
                write!(f, "tenant {tenant}: node {node} {field} is not a finite non-negative share")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The server is at `max_tenants` live tenants.
    AtCapacity { max_tenants: usize },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::AtCapacity { max_tenants } => {
                write!(f, "server at capacity ({max_tenants} tenants)")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Ingest-to-classify latencies as exact counts: `counts[t]` is the number
/// of classifications that waited `t` ticks. Recording is one increment;
/// memory is one counter per tick up to the largest latency seen, however
/// many classifications there were.
#[derive(Debug, Default)]
struct LatencyHistogram {
    counts: Vec<u64>,
}

impl LatencyHistogram {
    fn record(&mut self, ticks: u64) {
        let t = ticks as usize;
        if t >= self.counts.len() {
            self.counts.resize(t + 1, 0);
        }
        self.counts[t] += 1;
    }

    /// Nearest-rank `quantiles` over the union of `hists`: the latency at
    /// rank `ceil(q·n)`, clamped to `[1, n]`, of the `n` merged samples in
    /// ascending order — the number sorting every sample would give. Zeros
    /// when the union is empty.
    fn percentiles<'a>(
        hists: impl Iterator<Item = &'a LatencyHistogram>,
        quantiles: &[f64],
    ) -> Vec<u64> {
        let mut cum: Vec<u64> = Vec::new();
        for h in hists {
            if cum.len() < h.counts.len() {
                cum.resize(h.counts.len(), 0);
            }
            for (c, &k) in cum.iter_mut().zip(&h.counts) {
                *c += k;
            }
        }
        // Prefix sums: `cum[t]` becomes the samples that waited at most `t`.
        let mut total = 0;
        for c in &mut cum {
            total += *c;
            *c = total;
        }
        if total == 0 {
            return vec![0; quantiles.len()];
        }
        quantiles
            .iter()
            .map(|&q| {
                let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
                cum.partition_point(|&c| c < rank) as u64
            })
            .collect()
    }
}

/// One tenant shard: a slab of tenant slots (freelist-reused), its own
/// metrics registry and span track, and the shard's latency histogram.
#[derive(Debug)]
struct Shard {
    slots: Vec<Option<TenantState>>,
    free: Vec<usize>,
    reg: MetricsRegistry,
    spans: SpanSink,
    latencies: LatencyHistogram,
}

impl Shard {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            reg: MetricsRegistry::new(),
            spans: SpanSink::new(1, dsm_telemetry::DEFAULT_RING_CAPACITY),
            latencies: LatencyHistogram::default(),
        }
    }

    /// Classify up to `batch_size` queued signatures for every tenant in
    /// this shard, in slot order. Returns the number classified.
    fn run_batch(&mut self, tick: u64, batch_size: usize, output_capacity: usize) -> u64 {
        let mut classified = 0u64;
        for slot in self.slots.iter_mut().flatten() {
            let mut done = 0usize;
            while done < batch_size {
                if slot.output.len() >= output_capacity {
                    // Slow consumer: stall, keep the signature queued.
                    slot.stats.output_stalls += 1;
                    break;
                }
                let Some((arrival, sig)) = slot.queue.pop_front() else {
                    break;
                };
                let c = slot.bank.classify_signature(&sig);
                if let Some(d) = slot.diag.as_mut() {
                    d.observe(&c);
                    if let Some(p) = slot.probes {
                        self.reg.add(p.diag_observed, 1);
                        self.reg.set(p.diag_realigns, d.realigns() as f64);
                    }
                }
                slot.output.push_back(c);
                slot.stats.classified += 1;
                slot.stats.output_high_water =
                    slot.stats.output_high_water.max(slot.output.len() as u64);
                let latency = tick - arrival;
                self.latencies.record(latency);
                if let Some(p) = slot.probes {
                    self.reg.add(p.classified, 1);
                    self.reg.record(p.latency, latency);
                    self.reg.set(p.queue_depth, slot.queue.len() as f64);
                }
                done += 1;
            }
            classified += done as u64;
        }
        classified
    }
}

/// One tenant's cross-node diagnosis as served by
/// [`tenant_diagnosis`](PhaseServer::tenant_diagnosis): the engine's
/// [`Diagnosis`] over the retained window plus the sink's own accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantDiagnosis {
    pub tenant: TenantId,
    /// Server tick at which the diagnosis was taken.
    pub tick: u64,
    /// Configured window, in intervals per node.
    pub window: usize,
    /// Intervals observed by the sink so far (all nodes).
    pub observed: u64,
    /// Window re-anchors after non-consecutive interval indices — zero on a
    /// correct producer.
    pub realigns: u64,
    pub diagnosis: Diagnosis,
}

/// A point-in-time summary of the whole server (live + retired tenants).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    pub tick: u64,
    pub live_tenants: usize,
    pub retired_tenants: u64,
    /// Aggregate accounting across live and retired tenants.
    pub totals: TenantStats,
    /// Footprint-table capacity currently resident (live tenants only) —
    /// the leak-check signal for churn tests.
    pub resident_footprint_vectors: usize,
    /// Deepest ingest queue right now.
    pub max_queue_depth: usize,
    /// Latency percentiles over all classifications so far, in ticks:
    /// `(p50, p99, p999)`. Zeros when nothing was classified.
    pub latency_ticks: (u64, u64, u64),
}

/// The multi-tenant phase-classification server. See the module docs for
/// the execution model.
#[derive(Debug)]
pub struct PhaseServer {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    /// Tenant id → (shard, slot).
    dir: HashMap<u64, (usize, usize)>,
    next_id: u64,
    tick: u64,
    /// Accounting folded in from evicted tenants.
    retired: TenantStats,
    retired_tenants: u64,
}

impl PhaseServer {
    /// A server with no tenants. Panics with the
    /// [`ServeConfig::validate`] error if `cfg` cannot run.
    pub fn new(cfg: ServeConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Self {
            shards: (0..cfg.shards).map(|_| Shard::new()).collect(),
            cfg,
            dir: HashMap::new(),
            next_id: 0,
            tick: 0,
            retired: TenantStats::default(),
            retired_tenants: 0,
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The logical batch clock: number of `run_batch` calls so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    pub fn live_tenants(&self) -> usize {
        self.dir.len()
    }

    pub fn retired_tenants(&self) -> u64 {
        self.retired_tenants
    }

    /// Admit a tenant; its id is unique for the server's lifetime.
    pub fn admit(&mut self, cfg: TenantConfig) -> Result<TenantId, AdmitError> {
        if self.dir.len() >= self.cfg.max_tenants {
            return Err(AdmitError::AtCapacity { max_tenants: self.cfg.max_tenants });
        }
        let id = TenantId(self.next_id);
        self.next_id += 1;
        let shard_ix = (id.0 % self.cfg.shards as u64) as usize;
        let shard = &mut self.shards[shard_ix];
        let probes = self
            .cfg
            .per_tenant_metrics
            .then(|| TenantProbes::register(&mut shard.reg, id));
        let state = TenantState::new(id, cfg, probes, self.cfg.diagnose_window);
        let slot = match shard.free.pop() {
            Some(s) => {
                shard.slots[s] = Some(state);
                s
            }
            None => {
                shard.slots.push(Some(state));
                shard.slots.len() - 1
            }
        };
        shard.reg.counter_add("serve/admitted", 1);
        self.dir.insert(id.0, (shard_ix, slot));
        Ok(id)
    }

    fn tenant_mut(&mut self, id: TenantId) -> Result<(&mut Shard, usize), ServeError> {
        let &(shard, slot) = self.dir.get(&id.0).ok_or(ServeError::UnknownTenant(id))?;
        Ok((&mut self.shards[shard], slot))
    }

    /// Offer one signature for ingest. `Ok(Busy)` is backpressure (retry
    /// after a batch); `Err` is a malformed request and counts nothing.
    pub fn offer(&mut self, id: TenantId, sig: IntervalSignature) -> Result<Ingest, ServeError> {
        let queue_capacity = self.cfg.queue_capacity;
        let tick = self.tick;
        let (shard, slot) = self.tenant_mut(id)?;
        let t = shard.slots[slot].as_mut().expect("directory points at live slot");
        if sig.proc >= t.cfg.n_procs {
            return Err(ServeError::BadProc { tenant: id, proc: sig.proc, n_procs: t.cfg.n_procs });
        }
        if sig.bbv.len() != t.cfg.bbv_entries {
            return Err(ServeError::BadBbvLen {
                tenant: id,
                len: sig.bbv.len(),
                expected: t.cfg.bbv_entries,
            });
        }
        // One pass over the values: the first non-finite or negative one
        // decides the error.
        let bad = |field, x: f64| {
            if !x.is_finite() {
                Some(ServeError::NonFinite { tenant: id, field })
            } else if x < 0.0 {
                Some(ServeError::Negative { tenant: id, field })
            } else {
                None
            }
        };
        let value_error = sig.bbv.iter().find_map(|&x| bad("bbv", x));
        if let Some(e) = value_error.or_else(|| bad("dds", sig.dds)) {
            return Err(e);
        }
        if sig.insns == 0 {
            return Err(ServeError::ZeroInsns { tenant: id });
        }
        t.stats.offered += 1;
        if let Some(p) = t.probes {
            shard.reg.add(p.offered, 1);
        }
        if t.queue.len() >= queue_capacity {
            t.stats.rejected += 1;
            if let Some(p) = t.probes {
                shard.reg.add(p.busy, 1);
            }
            shard.reg.counter_add("serve/busy", 1);
            return Ok(Ingest::Busy);
        }
        t.queue.push_back((tick, sig));
        let depth = t.queue.len();
        t.stats.accepted += 1;
        t.stats.queue_high_water = t.stats.queue_high_water.max(depth as u64);
        if let Some(p) = t.probes {
            shard.reg.set(p.queue_depth, depth as f64);
        }
        Ok(Ingest::Enqueued { depth })
    }

    /// Advance one tick and classify up to `batch_size` signatures per
    /// tenant, serially. Returns the number classified.
    pub fn run_batch(&mut self) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        let (batch, out_cap) = (self.cfg.batch_size, self.cfg.output_capacity);
        let mut classified = 0u64;
        for shard in &mut self.shards {
            let n = shard.run_batch(tick, batch, out_cap);
            let name = shard.spans.intern("batch");
            shard.spans.record(0, name, tick, n);
            classified += n;
        }
        classified
    }

    /// [`run_batch`](Self::run_batch) with shards processed on up to
    /// `threads` host threads. Shards share no state and per-shard results
    /// are merged in shard order, so the outcome is bit-identical to the
    /// serial batch.
    pub fn run_batch_parallel(&mut self, threads: usize) -> u64 {
        if threads <= 1 || self.shards.len() <= 1 {
            return self.run_batch();
        }
        self.tick += 1;
        let tick = self.tick;
        let (batch, out_cap) = (self.cfg.batch_size, self.cfg.output_capacity);
        let threads = threads.min(self.shards.len());
        let chunk = self.shards.len().div_ceil(threads);
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .chunks_mut(chunk)
                .map(|shards| {
                    scope.spawn(move || {
                        shards
                            .iter_mut()
                            .map(|s| {
                                let n = s.run_batch(tick, batch, out_cap);
                                let name = s.spans.intern("batch");
                                s.spans.record(0, name, tick, n);
                                n
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard batch thread panicked"))
                .collect()
        });
        counts.iter().sum()
    }

    /// Pop up to `max` classified intervals for a tenant, in classification
    /// order.
    pub fn drain_output(
        &mut self,
        id: TenantId,
        max: usize,
    ) -> Result<Vec<ClassifiedInterval>, ServeError> {
        let (shard, slot) = self.tenant_mut(id)?;
        let t = shard.slots[slot].as_mut().expect("directory points at live slot");
        let n = max.min(t.output.len());
        let out: Vec<ClassifiedInterval> = t.output.drain(..n).collect();
        t.stats.delivered += out.len() as u64;
        Ok(out)
    }

    /// Run the cross-node diagnosis over a tenant's retained window.
    /// `Ok(None)` when the server runs with `diagnose_window == 0`;
    /// `telemetry`, when supplied, must hold one entry per node (proc) of
    /// the tenant, with finite non-negative shares — otherwise the call is
    /// refused ([`dsm_diagnose::check_telemetry`]) and changes nothing.
    /// Also refreshes the tenant's `serve/tenant/<id>/diagnose/outliers`
    /// gauge.
    pub fn tenant_diagnosis(
        &mut self,
        id: TenantId,
        telemetry: Option<&[NodeTelemetry]>,
    ) -> Result<Option<TenantDiagnosis>, ServeError> {
        let tick = self.tick;
        let (shard, slot) = self.tenant_mut(id)?;
        let t = shard.slots[slot].as_mut().expect("directory points at live slot");
        let Some(d) = t.diag.as_ref() else {
            return Ok(None);
        };
        let diagnosis = d.diagnose(telemetry).map_err(|e| match e {
            TelemetryError::Len { len, expected } => {
                ServeError::BadTelemetryLen { tenant: id, len, expected }
            }
            TelemetryError::Share { node, field } => {
                ServeError::BadTelemetryShare { tenant: id, node, field }
            }
        })?;
        if let Some(p) = t.probes {
            shard.reg.set(p.diag_outliers, diagnosis.outliers.len() as f64);
        }
        Ok(Some(TenantDiagnosis {
            tenant: id,
            tick,
            window: d.window(),
            observed: d.observed(),
            realigns: d.realigns(),
            diagnosis,
        }))
    }

    /// Current ingest-queue depth of a tenant.
    pub fn queue_depth(&self, id: TenantId) -> Option<usize> {
        let &(shard, slot) = self.dir.get(&id.0)?;
        Some(self.shards[shard].slots[slot].as_ref()?.queue.len())
    }

    /// A tenant's accounting so far.
    pub fn stats(&self, id: TenantId) -> Option<TenantStats> {
        let &(shard, slot) = self.dir.get(&id.0)?;
        Some(self.shards[shard].slots[slot].as_ref()?.stats)
    }

    /// Evict a tenant, releasing its slot and folding its accounting into
    /// the server totals. In-flight work is reported explicitly — `pending`
    /// signatures and `undelivered` classifications do not vanish silently.
    pub fn evict(&mut self, id: TenantId) -> Option<TenantSummary> {
        let (shard_ix, slot) = self.dir.remove(&id.0)?;
        let shard = &mut self.shards[shard_ix];
        let t = shard.slots[slot].take().expect("directory points at live slot");
        shard.free.push(slot);
        shard.reg.counter_add("serve/evicted", 1);
        self.retired.absorb(&t.stats);
        self.retired_tenants += 1;
        Some(TenantSummary {
            id: t.id,
            stats: t.stats,
            pending: t.queue.len() as u64,
            undelivered: t.output.len() as u64,
            footprint_vectors: t.bank.footprint_capacity(),
        })
    }

    /// Footprint-table capacity resident across live tenants (the churn
    /// tests' leak signal: evicting a tenant must release its share).
    pub fn resident_footprint_vectors(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.slots.iter().flatten())
            .map(|t| t.bank.footprint_capacity())
            .sum()
    }

    /// Ingest-to-classify latency percentiles in ticks over every
    /// classification so far. Quantiles use the nearest-rank method,
    /// `ceil(q·n)` clamped to `[1, n]`, over the merged samples. Each shard
    /// keeps exact counts per latency tick rather than the samples, so this
    /// walks the merged counts' cumulative sum instead of sorting: memory is
    /// O(largest latency in ticks), not O(classifications), and the result
    /// is the one a sort of every sample gives. Shard order is irrelevant to
    /// the counts, so this is deterministic at any thread count.
    pub fn latency_percentiles(&self, quantiles: &[f64]) -> Vec<u64> {
        LatencyHistogram::percentiles(self.shards.iter().map(|s| &s.latencies), quantiles)
    }

    /// Aggregate accounting across live and retired tenants.
    pub fn totals(&self) -> TenantStats {
        let mut totals = self.retired;
        for t in self.shards.iter().flat_map(|s| s.slots.iter().flatten()) {
            totals.absorb(&t.stats);
        }
        totals
    }

    /// Point-in-time server summary.
    pub fn report(&self) -> ServerReport {
        let p = self.latency_percentiles(&[0.50, 0.99, 0.999]);
        ServerReport {
            tick: self.tick,
            live_tenants: self.dir.len(),
            retired_tenants: self.retired_tenants,
            totals: self.totals(),
            resident_footprint_vectors: self.resident_footprint_vectors(),
            max_queue_depth: self
                .shards
                .iter()
                .flat_map(|s| s.slots.iter().flatten())
                .map(|t| t.queue.len())
                .max()
                .unwrap_or(0),
            latency_ticks: (p[0], p[1], p[2]),
        }
    }

    /// Merged telemetry: shard registries absorbed in shard order plus the
    /// server-level totals, and one span track per shard.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut reg = MetricsRegistry::new();
        for shard in &self.shards {
            reg.absorb(&shard.reg.samples());
        }
        let totals = self.totals();
        reg.counter_add("serve/offered", totals.offered);
        reg.counter_add("serve/accepted", totals.accepted);
        reg.counter_add("serve/rejected", totals.rejected);
        reg.counter_add("serve/classified", totals.classified);
        reg.counter_add("serve/delivered", totals.delivered);
        reg.counter_add("serve/output_stalls", totals.output_stalls);
        reg.gauge_set("serve/live_tenants", self.dir.len() as f64);
        reg.gauge_set("serve/resident_footprint_vectors", self.resident_footprint_vectors() as f64);
        let mut tracks = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let mut t = shard.spans.snapshot_tracks();
            for (j, track) in t.iter_mut().enumerate() {
                track.name = format!("shard{i}/{j}");
            }
            tracks.append(&mut t);
        }
        Snapshot { enabled: true, metrics: reg.samples(), tracks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_phase::detector::{DetectorMode, Thresholds};

    fn tcfg(n_procs: usize) -> TenantConfig {
        let mut c = TenantConfig::new(
            n_procs,
            DetectorMode::BbvDdv,
            Thresholds { bbv: 0.4, dds: 0.25 },
        );
        c.bbv_entries = 4;
        c
    }

    fn sig(proc: usize, index: u64, flavor: u64) -> IntervalSignature {
        let mut bbv = vec![0.0; 4];
        bbv[(flavor % 4) as usize] = 1.0;
        IntervalSignature {
            proc,
            index,
            insns: 1000,
            cycles: 2000 + flavor * 100,
            bbv,
            dds: 10.0 + flavor as f64,
            degraded: false,
        }
    }

    /// `ServeConfig::validate` on the default config with `edit` applied.
    fn validate_with(edit: fn(&mut ServeConfig)) -> Result<(), ServeConfigError> {
        let mut cfg = ServeConfig::default();
        edit(&mut cfg);
        cfg.validate()
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert_eq!(validate_with(|_| {}), Ok(()));
        let err = validate_with(|c| c.shards = 0);
        assert_eq!(err, Err(ServeConfigError::Zero { field: "shards" }));
    }

    #[test]
    fn zero_queue_capacity_is_a_typed_error() {
        let err = validate_with(|c| c.queue_capacity = 0);
        assert_eq!(err, Err(ServeConfigError::Zero { field: "queue_capacity" }));
    }

    #[test]
    fn zero_output_capacity_is_a_typed_error() {
        let err = validate_with(|c| c.output_capacity = 0);
        assert_eq!(err, Err(ServeConfigError::Zero { field: "output_capacity" }));
    }

    #[test]
    fn zero_batch_size_is_a_typed_error() {
        let err = validate_with(|c| c.batch_size = 0);
        assert_eq!(err, Err(ServeConfigError::Zero { field: "batch_size" }));
    }

    #[test]
    #[should_panic(expected = "serve config batch_size must be at least 1")]
    fn new_panics_with_the_validate_error() {
        PhaseServer::new(ServeConfig { batch_size: 0, ..ServeConfig::default() });
    }

    #[test]
    fn offer_classify_drain_round_trip() {
        let mut srv = PhaseServer::new(ServeConfig::default());
        let t = srv.admit(tcfg(1)).unwrap();
        for i in 0..5 {
            let r = srv.offer(t, sig(0, i, i % 2)).unwrap();
            assert_eq!(r, Ingest::Enqueued { depth: i as usize + 1 });
        }
        assert_eq!(srv.run_batch(), 5);
        let out = srv.drain_output(t, usize::MAX).unwrap();
        assert_eq!(out.len(), 5);
        // Two alternating signatures → two phases, each new exactly once.
        assert_eq!(out.iter().filter(|c| c.is_new_phase).count(), 2);
        assert_eq!(out[0].index, 0);
        assert_eq!(out[4].index, 4);
        let st = srv.stats(t).unwrap();
        assert_eq!(st.offered, 5);
        assert_eq!(st.accepted, 5);
        assert_eq!(st.rejected, 0);
        assert_eq!(st.classified, 5);
        assert_eq!(st.delivered, 5);
    }

    #[test]
    fn bounded_queue_reports_busy_and_conserves() {
        let cfg = ServeConfig { queue_capacity: 2, ..ServeConfig::default() };
        let mut srv = PhaseServer::new(cfg);
        let t = srv.admit(tcfg(1)).unwrap();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for i in 0..7 {
            match srv.offer(t, sig(0, i, 0)).unwrap() {
                Ingest::Enqueued { .. } => accepted += 1,
                Ingest::Busy => rejected += 1,
            }
        }
        assert_eq!((accepted, rejected), (2, 5));
        let st = srv.stats(t).unwrap();
        assert_eq!(st.offered, st.accepted + st.rejected);
        assert_eq!(st.queue_high_water, 2);
        // After a batch the queue drains and offers are accepted again.
        srv.run_batch();
        assert!(matches!(srv.offer(t, sig(0, 7, 0)).unwrap(), Ingest::Enqueued { depth: 1 }));
    }

    #[test]
    fn slow_consumer_stalls_instead_of_dropping() {
        let cfg = ServeConfig {
            output_capacity: 3,
            batch_size: 10,
            queue_capacity: 16,
            ..ServeConfig::default()
        };
        let mut srv = PhaseServer::new(cfg);
        let t = srv.admit(tcfg(1)).unwrap();
        for i in 0..8 {
            srv.offer(t, sig(0, i, 0)).unwrap();
        }
        // Output bound 3: only 3 classified, 5 remain queued, stall counted.
        assert_eq!(srv.run_batch(), 3);
        assert_eq!(srv.queue_depth(t), Some(5));
        let st = srv.stats(t).unwrap();
        assert_eq!(st.classified, 3);
        assert_eq!(st.output_stalls, 1);
        // Draining unblocks the next batch; nothing was lost.
        assert_eq!(srv.drain_output(t, usize::MAX).unwrap().len(), 3);
        assert_eq!(srv.run_batch(), 3);
        assert_eq!(srv.drain_output(t, usize::MAX).unwrap().len(), 3);
        assert_eq!(srv.run_batch(), 2);
        srv.drain_output(t, usize::MAX).unwrap();
        let st = srv.stats(t).unwrap();
        assert_eq!(st.classified, 8);
        assert_eq!(st.delivered, 8);
    }

    #[test]
    fn admit_evict_lifecycle_and_capacity_accounting() {
        let cfg = ServeConfig { max_tenants: 2, shards: 2, ..ServeConfig::default() };
        let mut srv = PhaseServer::new(cfg);
        let a = srv.admit(tcfg(2)).unwrap();
        let b = srv.admit(tcfg(4)).unwrap();
        assert_eq!(srv.admit(tcfg(1)), Err(AdmitError::AtCapacity { max_tenants: 2 }));
        let per_proc = dsm_phase::DEFAULT_FOOTPRINT_VECTORS;
        assert_eq!(srv.resident_footprint_vectors(), 6 * per_proc);
        srv.offer(a, sig(0, 0, 0)).unwrap();
        let summary = srv.evict(a).unwrap();
        assert_eq!(summary.pending, 1, "queued signature reported, not dropped");
        assert_eq!(summary.footprint_vectors, 2 * per_proc);
        assert_eq!(srv.resident_footprint_vectors(), 4 * per_proc);
        assert_eq!(srv.evict(a), None, "double evict misses");
        assert!(srv.offer(a, sig(0, 1, 0)).is_err(), "stale handle rejected");
        // Slot freed: a new tenant fits, with a fresh id.
        let c = srv.admit(tcfg(1)).unwrap();
        assert_ne!(c, a);
        assert_ne!(c, b);
        assert_eq!(srv.live_tenants(), 2);
        assert_eq!(srv.retired_tenants(), 1);
        assert_eq!(srv.totals().offered, 1, "retired accounting survives eviction");
    }

    #[test]
    fn malformed_signatures_rejected_without_accounting() {
        let mut srv = PhaseServer::new(ServeConfig::default());
        let t = srv.admit(tcfg(2)).unwrap();
        assert!(matches!(
            srv.offer(t, sig(5, 0, 0)),
            Err(ServeError::BadProc { proc: 5, n_procs: 2, .. })
        ));
        let mut bad = sig(0, 0, 0);
        bad.bbv = vec![1.0; 7];
        assert!(matches!(
            srv.offer(t, bad),
            Err(ServeError::BadBbvLen { len: 7, expected: 4, .. })
        ));
        assert_eq!(srv.stats(t).unwrap().offered, 0);
        assert!(matches!(
            srv.offer(TenantId(999), sig(0, 0, 0)),
            Err(ServeError::UnknownTenant(TenantId(999)))
        ));
    }

    #[test]
    fn parallel_batches_bit_identical_to_serial() {
        let mk = || {
            let cfg = ServeConfig { shards: 4, batch_size: 3, ..ServeConfig::default() };
            let mut srv = PhaseServer::new(cfg);
            let ids: Vec<TenantId> = (0..9).map(|_| srv.admit(tcfg(1)).unwrap()).collect();
            for (k, &t) in ids.iter().enumerate() {
                for i in 0..6 {
                    srv.offer(t, sig(0, i, (k as u64 + i) % 3)).unwrap();
                }
            }
            (srv, ids)
        };
        let (mut serial, ids) = mk();
        let (mut par, _) = mk();
        loop {
            let a = serial.run_batch();
            let b = par.run_batch_parallel(4);
            assert_eq!(a, b);
            if a == 0 {
                break;
            }
        }
        for &t in &ids {
            assert_eq!(
                serial.drain_output(t, usize::MAX).unwrap(),
                par.drain_output(t, usize::MAX).unwrap(),
                "tenant {t} diverged"
            );
        }
        assert_eq!(
            serial.latency_percentiles(&[0.5, 0.99, 0.999]),
            par.latency_percentiles(&[0.5, 0.99, 0.999])
        );
    }

    #[test]
    fn latency_is_tick_based_and_deterministic() {
        let mut srv = PhaseServer::new(ServeConfig::default());
        let t = srv.admit(tcfg(1)).unwrap();
        srv.offer(t, sig(0, 0, 0)).unwrap();
        srv.run_batch(); // classified at tick 1, arrived at tick 0 → latency 1
        srv.offer(t, sig(0, 1, 0)).unwrap();
        srv.run_batch(); // arrived tick 1, classified tick 2 → latency 1
        srv.run_batch();
        srv.offer(t, sig(0, 2, 0)).unwrap();
        srv.run_batch();
        assert_eq!(srv.latency_percentiles(&[1.0]), vec![1]);
        assert_eq!(srv.report().latency_ticks, (1, 1, 1));
    }

    #[test]
    fn percentiles_of_empty_latency_set_are_zero() {
        let srv = PhaseServer::new(ServeConfig::default());
        assert_eq!(srv.latency_percentiles(&[0.0, 0.5, 0.99, 1.0]), vec![0, 0, 0, 0]);
        assert_eq!(srv.latency_percentiles(&[]), Vec::<u64>::new());
        assert_eq!(srv.report().latency_ticks, (0, 0, 0));
    }

    #[test]
    fn percentiles_of_single_sample_all_return_it() {
        let mut srv = PhaseServer::new(ServeConfig::default());
        let t = srv.admit(tcfg(1)).unwrap();
        srv.offer(t, sig(0, 0, 0)).unwrap();
        srv.run_batch();
        // Nearest rank clamps to [1, len], so every quantile — including the
        // degenerate 0.0 — lands on the lone sample.
        assert_eq!(srv.latency_percentiles(&[0.0, 0.001, 0.5, 0.999, 1.0]), vec![1; 5]);
    }

    #[test]
    fn percentiles_of_all_equal_ticks_are_flat() {
        let mut srv = PhaseServer::new(ServeConfig::default());
        let t = srv.admit(tcfg(1)).unwrap();
        for i in 0..5 {
            srv.offer(t, sig(0, i, 0)).unwrap();
            srv.run_batch(); // each classified one tick after arrival
        }
        assert_eq!(srv.latency_percentiles(&[0.1, 0.5, 0.9, 1.0]), vec![1; 4]);
        assert_eq!(srv.report().latency_ticks, (1, 1, 1));
    }

    #[test]
    fn percentiles_use_nearest_rank_on_distinct_samples() {
        // batch_size 1 forces queued signals to wait: three offers at tick 0
        // classify at ticks 1, 2, 3 → latencies [1, 2, 3].
        let cfg = ServeConfig { batch_size: 1, ..ServeConfig::default() };
        let mut srv = PhaseServer::new(cfg);
        let t = srv.admit(tcfg(1)).unwrap();
        for i in 0..3 {
            srv.offer(t, sig(0, i, 0)).unwrap();
        }
        while srv.run_batch() > 0 {}
        // ceil(q·3) ranks: 1/3 → 1st, 0.5 → 2nd, 1.0 → 3rd.
        assert_eq!(srv.latency_percentiles(&[1.0 / 3.0, 0.5, 1.0]), vec![1, 2, 3]);
    }

    const QUANTILES: [f64; 7] = [0.0, 1e-9, 1.0 / 3.0, 0.5, 0.99, 0.999, 1.0];

    /// The reference rule: every sample sorted, nearest rank `ceil(q·n)`
    /// clamped to `[1, n]`, zeros when there are no samples.
    fn sorted_reference(samples: &[u64], quantiles: &[f64]) -> Vec<u64> {
        let mut all = samples.to_vec();
        if all.is_empty() {
            return vec![0; quantiles.len()];
        }
        all.sort_unstable();
        quantiles
            .iter()
            .map(|&q| {
                let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
                all[rank - 1]
            })
            .collect()
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let empty: [LatencyHistogram; 0] = [];
        assert_eq!(LatencyHistogram::percentiles(empty.iter(), &QUANTILES), vec![0; 7]);
        for case in 0..400 {
            let shards = 1 + (next() % 16) as usize;
            let samples = next() % ([0, 1, 7, 300, 3000][case % 5] + 1);
            let spread = 1 + next() % [1, 3, 64, 5000][case % 4];
            let mut hists: Vec<LatencyHistogram> =
                (0..shards).map(|_| LatencyHistogram::default()).collect();
            let mut all = Vec::new();
            for _ in 0..samples {
                // Half the cases skew toward short waits with a long tail.
                let t = if case % 2 == 0 {
                    next() % spread
                } else {
                    (next() % spread) * (next() % spread) / spread
                };
                hists[(next() % shards as u64) as usize].record(t);
                all.push(t);
            }
            assert_eq!(
                LatencyHistogram::percentiles(hists.iter(), &QUANTILES),
                sorted_reference(&all, &QUANTILES),
                "case {case}: {samples} samples over {shards} shards, spread {spread}"
            );
        }
    }

    #[test]
    fn served_percentiles_match_the_sorted_reference() {
        // batch_size 1 classifies one signature per tenant per tick, so
        // tenant k's `k + 1` offers at tick 0 wait 1, 2, …, k + 1 ticks.
        let cfg = ServeConfig { shards: 4, batch_size: 1, ..ServeConfig::default() };
        let mut srv = PhaseServer::new(cfg);
        let mut expected = Vec::new();
        for k in 0..11u64 {
            let t = srv.admit(tcfg(1)).unwrap();
            for i in 0..=k {
                srv.offer(t, sig(0, i, i % 3)).unwrap();
                expected.push(i + 1);
            }
        }
        assert_eq!(srv.latency_percentiles(&QUANTILES), sorted_reference(&[], &QUANTILES));
        while srv.run_batch() > 0 {}
        let want = sorted_reference(&expected, &QUANTILES);
        assert_eq!(srv.latency_percentiles(&QUANTILES), want);
        let p = sorted_reference(&expected, &[0.50, 0.99, 0.999]);
        assert_eq!(srv.report().latency_ticks, (p[0], p[1], p[2]));
    }

    #[test]
    fn per_tenant_metrics_scoped_by_id() {
        let cfg = ServeConfig { per_tenant_metrics: true, ..ServeConfig::default() };
        let mut srv = PhaseServer::new(cfg);
        let t = srv.admit(tcfg(1)).unwrap();
        srv.offer(t, sig(0, 0, 0)).unwrap();
        srv.run_batch();
        let snap = srv.telemetry_snapshot();
        let get = |name: &str| {
            snap.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        let offered = get(&format!("serve/tenant/{}/offered", t.0));
        assert_eq!(offered.value, dsm_telemetry::MetricValue::Counter(1));
        get(&format!("serve/tenant/{}/latency_ticks", t.0));
        assert_eq!(get("serve/classified").value, dsm_telemetry::MetricValue::Counter(1));
    }
}
