//! End-to-end phase detectors and the offline trace classifier.
//!
//! Two ways to use the machinery:
//!
//! * [`OnlineDetector`] — a [`SimObserver`] that classifies every sampling
//!   interval as it completes, exactly as the paper's hardware would
//!   (BBV accumulator + DDV query + footprint-table lookup per interval).
//! * [`TraceCollector`] + [`TraceClassifier`] — the collector records each
//!   interval's *feature snapshot* (normalized BBV, `F_i`, `C`, DDS,
//!   working-set signature, branch count, CPI) without classifying;
//!   the classifier then replays the footprint-table logic offline for any
//!   threshold. Because classification never feeds back into execution in
//!   the paper's evaluation, sweeping 200 thresholds offline over one
//!   captured trace is exactly equivalent to 200 simulated runs — an
//!   integration test asserts online/offline agreement.

use serde::{Deserialize, Serialize};

use dsm_sim::observer::{IntervalStats, SimObserver};

use crate::bbv::BbvAccumulator;
use crate::ddv::{DdsSample, DdvSnap, DdvState, DegradedCollector};
use crate::distance::manhattan_concat;
use crate::footprint::FootprintTable;
use crate::telem::{DetectorProbes, DetectorTelemetry, MetricsRegistry, Snapshot};
use crate::working_set::WsSignature;
use crate::{DEFAULT_BBV_ENTRIES, DEFAULT_FOOTPRINT_VECTORS};

/// Which signature the classifier gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorMode {
    /// Sherwood's uniprocessor baseline: BBV Manhattan distance only.
    Bbv,
    /// The paper's detector: BBV distance *and* DDS difference must both
    /// fall under their thresholds.
    BbvDdv,
}

/// Classification thresholds. `dds` is ignored in [`DetectorMode::Bbv`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// BBV Manhattan-distance threshold (normalized vectors; range [0, 2]).
    pub bbv: f64,
    /// Relative DDS-difference threshold (range [0, 1]).
    pub dds: f64,
}

impl Thresholds {
    pub fn bbv_only(bbv: f64) -> Self {
        Self { bbv, dds: 1.0 }
    }
}

/// Everything the hardware saw about one completed sampling interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalRecord {
    pub proc: usize,
    pub index: u64,
    /// Committed non-sync instructions.
    pub insns: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Normalized BBV accumulator.
    pub bbv: Vec<f64>,
    /// The requester's own per-home access counts (`F_i`).
    pub fvec: Vec<u64>,
    /// The contention vector (`C`).
    pub cvec: Vec<u64>,
    /// The data distribution scalar.
    pub dds: f64,
    /// Working-set signature words (Dhodapkar–Smith baseline).
    pub ws_sig: Vec<u64>,
    /// Committed dynamic branches (Balasubramonian baseline).
    pub branches: u64,
}

impl IntervalRecord {
    pub fn cpi(&self) -> f64 {
        if self.insns == 0 {
            0.0
        } else {
            self.cycles as f64 / self.insns as f64
        }
    }
}

/// Per-interval output of the online detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifiedInterval {
    pub proc: usize,
    pub index: u64,
    pub phase_id: u32,
    pub is_new_phase: bool,
    pub cpi: f64,
    /// The DDS was too stale to trust (row staleness exceeded the
    /// [`AvailabilityModel`] bound) and this interval was classified
    /// BBV-only. Always false on a reliable system.
    pub degraded: bool,
}

/// When and how remote DDV rows miss the end-of-interval collection
/// deadline, and how stale a substituted row may be before classification
/// stops trusting the DDS.
///
/// Misses are a pure seeded hash of `(requester, source, interval)` —
/// deterministic, order-independent, and reproducible across runs. The
/// deadline itself is time-budget-equivalent to
/// `Network::max_one_way + RetryPolicy::worst_case_recovery_cycles`: a row
/// either makes that budget (delivered, possibly after retries) or it
/// escalated/failed and is modelled as missing here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvailabilityModel {
    /// Seed for the per-(requester, source, interval) miss draws.
    pub seed: u64,
    /// Probability (parts per million) that a remote row misses the
    /// collection deadline.
    pub miss_ppm: u32,
    /// Staleness bound: a gather whose most-stale substituted row exceeds
    /// this many consecutive misses degrades classification to BBV-only.
    pub max_staleness: u64,
}

impl AvailabilityModel {
    /// A fully reliable system: every row always arrives.
    pub fn reliable() -> Self {
        Self { seed: 0, miss_ppm: 0, max_staleness: 0 }
    }

    /// Whether `source`'s row misses `requester`'s gather for `interval`.
    #[inline]
    pub fn row_missed(&self, requester: usize, source: usize, interval: u64) -> bool {
        if self.miss_ppm == 0 {
            return false;
        }
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
        let h = dsm_sim::util::splitmix64(
            self.seed
                ^ (requester as u64 + 1).wrapping_mul(PHI)
                ^ (source as u64 + 1).rotate_left(32)
                ^ interval.wrapping_mul(0xd134_2543_de82_ef95),
        );
        ((h % 1_000_000) as u32) < self.miss_ppm
    }
}

/// Size knobs shared by the observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorGeometry {
    /// BBV accumulator entries (32 in the paper).
    pub bbv_entries: usize,
    /// Footprint-table vectors (32 in the paper).
    pub footprint_vectors: usize,
    /// Working-set signature bits (collector only).
    pub ws_bits: usize,
}

impl Default for DetectorGeometry {
    fn default() -> Self {
        Self {
            bbv_entries: DEFAULT_BBV_ENTRIES,
            footprint_vectors: DEFAULT_FOOTPRINT_VECTORS,
            ws_bits: 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Trace collection (classification-free observer)
// ---------------------------------------------------------------------------

/// Records per-interval feature snapshots for offline classification.
pub struct TraceCollector {
    geometry: DetectorGeometry,
    bbv: Vec<BbvAccumulator>,
    ws: Vec<WsSignature>,
    branches: Vec<u64>,
    ddv: DdvState,
    /// Captured records, per processor, in interval order.
    pub records: Vec<Vec<IntervalRecord>>,
    /// Use the pre-optimization O(n²) all-to-one gather at interval ends
    /// (the scaling benchmark's reference arm). Must be chosen before the
    /// run — the fast and reference gathers keep different snapshot state
    /// and cannot be mixed on one instance.
    reference_gather: bool,
}

impl TraceCollector {
    /// `dist` is the n×n DDV distance matrix (see
    /// [`dsm_sim::network::Network::distance_matrix`]).
    pub fn new(n_procs: usize, dist: Vec<f64>, geometry: DetectorGeometry) -> Self {
        Self {
            bbv: (0..n_procs).map(|_| BbvAccumulator::new(geometry.bbv_entries)).collect(),
            ws: (0..n_procs).map(|_| WsSignature::new(geometry.ws_bits)).collect(),
            branches: vec![0; n_procs],
            ddv: DdvState::new(n_procs, dist),
            records: vec![Vec::new(); n_procs],
            geometry,
            reference_gather: false,
        }
    }

    /// Hypercube convenience constructor.
    pub fn for_hypercube(n_procs: usize, geometry: DetectorGeometry) -> Self {
        Self {
            bbv: (0..n_procs).map(|_| BbvAccumulator::new(geometry.bbv_entries)).collect(),
            ws: (0..n_procs).map(|_| WsSignature::new(geometry.ws_bits)).collect(),
            branches: vec![0; n_procs],
            ddv: DdvState::for_hypercube(n_procs),
            records: vec![Vec::new(); n_procs],
            geometry,
            reference_gather: false,
        }
    }

    pub fn geometry(&self) -> DetectorGeometry {
        self.geometry
    }

    pub fn ddv(&self) -> &DdvState {
        &self.ddv
    }

    /// Switch interval ends to the pre-optimization O(n²) all-to-one
    /// gather ([`DdvState::end_interval_reference_into`]). The scaling
    /// benchmark's reference arm; set before the run and never mid-run
    /// (the two gather styles keep different snapshot state).
    pub fn set_reference_gather(&mut self, on: bool) {
        self.reference_gather = on;
    }

    /// Total intervals captured across all processors.
    pub fn total_intervals(&self) -> usize {
        self.records.iter().map(|r| r.len()).sum()
    }

    /// Export the full dynamic state — mid-interval accumulators plus the
    /// captured records — for checkpointing.
    pub fn export_state(&self) -> CollectorState {
        CollectorState {
            bbv: self.bbv.iter().map(|b| b.raw().to_vec()).collect(),
            ws: self.ws.iter().map(|w| w.words().to_vec()).collect(),
            branches: self.branches.clone(),
            ddv: self.ddv.export_state(),
            records: self.records.clone(),
        }
    }

    /// Restore state captured by [`TraceCollector::export_state`] into a
    /// collector built with the same geometry and processor count.
    pub fn import_state(&mut self, st: &CollectorState) {
        assert_eq!(st.bbv.len(), self.bbv.len(), "collector snapshot is for a different machine");
        assert_eq!(st.ws.len(), self.ws.len(), "collector snapshot is for a different machine");
        for (b, raw) in self.bbv.iter_mut().zip(&st.bbv) {
            assert_eq!(raw.len(), b.len(), "collector snapshot has a different BBV geometry");
            *b = BbvAccumulator::from_raw(raw.clone());
        }
        for (w, words) in self.ws.iter_mut().zip(&st.ws) {
            assert_eq!(words.len() * 64, w.bits(), "collector snapshot has a different WS geometry");
            *w = WsSignature::from_words(words.clone());
        }
        self.branches.copy_from_slice(&st.branches);
        self.ddv.import_state(&st.ddv);
        self.records = st.records.clone();
    }
}

/// [`TraceCollector`]'s complete dynamic state: the mid-interval hardware
/// accumulators (raw BBV buckets, working-set words, branch counts, DDV
/// matrices) plus every interval record captured so far. Geometry and the
/// distance matrix are config-derived and not stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectorState {
    /// Raw BBV bucket values per processor.
    pub bbv: Vec<Vec<u64>>,
    /// Working-set signature words per processor.
    pub ws: Vec<Vec<u64>>,
    /// Committed branch count per processor (current interval).
    pub branches: Vec<u64>,
    pub ddv: DdvSnap,
    /// Captured records, per processor, in interval order.
    pub records: Vec<Vec<IntervalRecord>>,
}

impl SimObserver for TraceCollector {
    #[inline]
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32) {
        self.bbv[proc].record(bb, insns);
        self.ws[proc].insert(bb);
        self.branches[proc] += 1;
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, _addr: u64, _write: bool) {
        self.ddv.record_access(proc, home);
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        let sample = if self.reference_gather {
            let mut s = DdsSample::empty();
            self.ddv.end_interval_reference_into(proc, &mut s);
            s
        } else {
            self.ddv.end_interval(proc)
        };
        self.records[proc].push(IntervalRecord {
            proc,
            index: stats.index,
            insns: stats.insns,
            cycles: stats.cycles,
            bbv: self.bbv[proc].normalized(),
            fvec: sample.fvec,
            cvec: sample.cvec,
            dds: sample.dds,
            ws_sig: self.ws[proc].words().to_vec(),
            branches: self.branches[proc],
        });
        self.bbv[proc].reset();
        self.ws[proc].clear();
        self.branches[proc] = 0;
    }
}

// ---------------------------------------------------------------------------
// Offline classification
// ---------------------------------------------------------------------------

/// Replays the footprint-table classification over captured records.
pub struct TraceClassifier;

impl TraceClassifier {
    /// Classify one processor's interval sequence; returns the phase id per
    /// interval (same order as `records`).
    pub fn classify_proc(
        records: &[IntervalRecord],
        mode: DetectorMode,
        thresholds: Thresholds,
        footprint_vectors: usize,
    ) -> Vec<u32> {
        let dds_thr = match mode {
            DetectorMode::Bbv => None,
            DetectorMode::BbvDdv => Some(thresholds.dds),
        };
        Self::sweep_proc(records, None, &[(thresholds.bbv, dds_thr)], footprint_vectors)
            .swap_remove(0)
    }

    /// Lockstep multi-threshold replay: classify one processor's interval
    /// sequence at every `(bbv_threshold, dds_threshold)` point of `grid`
    /// (`None` gates on the BBV alone) and return the phase ids per point,
    /// in `grid` order. `dds` replaces each record's own DDS when given.
    ///
    /// One footprint table per grid point advances one interval at a time.
    /// Every entry is a copy of an earlier record's BBV, so the tables store
    /// record indices, and interval `i`'s distance to record `j` — which
    /// does not depend on the threshold — is computed once into a reusable
    /// row stamped with `i` and shared by every point: each record pair's
    /// distance is computed at most once per sweep, by the same
    /// [`manhattan_concat`] pass the online table runs, so the ids are
    /// bit-identical to replaying each point on its own. Memory is
    /// O(records + grid × capacity).
    pub fn sweep_proc(
        records: &[IntervalRecord],
        dds: Option<&[f64]>,
        grid: &[(f64, Option<f64>)],
        footprint_vectors: usize,
    ) -> Vec<Vec<u32>> {
        if let Some(dds) = dds {
            assert_eq!(records.len(), dds.len());
        }
        assert!(u32::try_from(records.len()).is_ok(), "record index must fit an entry");
        let mut tables: Vec<FootprintTable<u32>> =
            grid.iter().map(|_| FootprintTable::new(footprint_vectors)).collect();
        let mut ids: Vec<Vec<u32>> =
            grid.iter().map(|_| Vec::with_capacity(records.len())).collect();
        // `row[j] = (i + 1, d(i, j))` once interval `i` has needed record `j`.
        let mut row: Vec<(u32, f64)> = vec![(0, 0.0); records.len()];
        for (i, r) in records.iter().enumerate() {
            let stamp = i as u32 + 1;
            let d = dds.map_or(r.dds, |dds| dds[i]);
            for ((table, &(bbv_thr, dds_thr)), out) in tables.iter_mut().zip(grid).zip(&mut ids) {
                let m = table.classify_with(
                    |&j| {
                        let j = j as usize;
                        if row[j].0 != stamp {
                            row[j] = (stamp, manhattan_concat(&r.bbv, &[], &records[j].bbv));
                        }
                        row[j].1
                    },
                    d,
                    bbv_thr,
                    dds_thr,
                    |sig| *sig = i as u32,
                );
                out.push(m.phase_id);
            }
        }
        ids
    }

    /// Extension (not in the paper): classify on the *concatenation* of
    /// the normalized BBV and the distance-weighted, normalized frequency
    /// vector, under a single Manhattan threshold.
    ///
    /// The paper collapses `F·D·C` into the scalar DDS so the hardware
    /// compares one number; keeping the vector preserves *which* homes were
    /// hot, at the cost of `n` extra comparator lanes. `data_weight`
    /// scales the data half relative to the code half (0 recovers plain
    /// BBV behaviour; the combined vector then sums to `1 + data_weight`,
    /// so thresholds live in `[0, 2(1 + data_weight)]`).
    pub fn classify_proc_vector_ddv(
        records: &[IntervalRecord],
        dist_row: &[f64],
        bbv_threshold: f64,
        data_weight: f64,
        footprint_vectors: usize,
    ) -> Vec<u32> {
        let mut table = FootprintTable::new(footprint_vectors);
        // One scratch buffer for the data half, reused across intervals; the
        // BBV half is never copied — the table compares `bbv ++ tail` with a
        // fused pass per entry (`classify_split`), bit-identical to
        // classifying the materialized concatenation.
        let mut tail: Vec<f64> = Vec::new();
        records
            .iter()
            .map(|r| {
                // Distance-weighted access frequencies, normalized so the
                // data half carries `data_weight` total mass.
                tail.clear();
                let mut total = 0.0;
                for (&f, &d) in r.fvec.iter().zip(dist_row) {
                    let w = f as f64 * d;
                    total += w;
                    tail.push(w);
                }
                // Every term is >= 0, so total == 0 means the tail is already
                // all zeros (the unnormalizable case keeps a zero data half).
                if total > 0.0 {
                    for w in tail.iter_mut() {
                        *w = *w / total * data_weight;
                    }
                }
                table
                    .classify_split(&r.bbv, &tail, 0.0, bbv_threshold, None)
                    .phase_id
            })
            .collect()
    }

    /// Classify with an externally recomputed DDS per interval (ablations:
    /// `C ≡ 1`, `D ≡ 1`, DDS-only).
    pub fn classify_proc_with_dds(
        records: &[IntervalRecord],
        dds: &[f64],
        thresholds: Thresholds,
        footprint_vectors: usize,
    ) -> Vec<u32> {
        Self::sweep_proc(
            records,
            Some(dds),
            &[(thresholds.bbv, Some(thresholds.dds))],
            footprint_vectors,
        )
        .swap_remove(0)
    }
}

// ---------------------------------------------------------------------------
// Online detection (the hardware path)
// ---------------------------------------------------------------------------

/// Classifies intervals as they complete, like the paper's hardware.
///
/// Internally this is the gather half (BBV accumulators + DDV state) fused
/// with a [`crate::signature::ClassifierBank`] — the same kernel
/// `dsm-serve` runs per tenant, so in-simulator and served classification
/// are bit-identical by construction.
pub struct OnlineDetector {
    bbv: Vec<BbvAccumulator>,
    ddv: DdvState,
    bank: crate::signature::ClassifierBank,
    /// Deadline-degraded row gathering; `None` on a reliable system (the
    /// gather then takes the exact paper path with no staleness tracking).
    availability: Option<(AvailabilityModel, DegradedCollector)>,
    /// Classified intervals, per processor, in order.
    pub classified: Vec<Vec<ClassifiedInterval>>,
    /// Reusable per-interval buffers: the end-of-interval hot path
    /// (DDV query + BBV normalization + table lookup) allocates nothing
    /// in steady state.
    scratch_bbv: Vec<f64>,
    scratch_sample: DdsSample,
    /// Telemetry recorder (no-op stub unless the `telemetry` feature is on).
    telem: DetectorTelemetry,
    probes: DetectorProbes,
    /// Cumulative interval cycles per processor — the timestamp base for
    /// classification spans (one plain add per *interval*, not per event).
    cum_cycles: Vec<u64>,
}

impl OnlineDetector {
    pub fn new(
        n_procs: usize,
        dist: Vec<f64>,
        mode: DetectorMode,
        thresholds: Thresholds,
        geometry: DetectorGeometry,
    ) -> Self {
        let mut telem = DetectorTelemetry::new(n_procs);
        let probes = DetectorProbes::register(&mut telem, n_procs);
        Self {
            bbv: (0..n_procs).map(|_| BbvAccumulator::new(geometry.bbv_entries)).collect(),
            ddv: DdvState::new(n_procs, dist),
            bank: crate::signature::ClassifierBank::new(
                n_procs,
                mode,
                thresholds,
                geometry.footprint_vectors,
            ),
            availability: None,
            classified: vec![Vec::new(); n_procs],
            scratch_bbv: Vec::new(),
            scratch_sample: DdsSample::empty(),
            telem,
            probes,
            cum_cycles: vec![0; n_procs],
        }
    }

    /// A detector whose DDV row gathers are subject to `model`'s collection
    /// deadline. With `miss_ppm == 0` this behaves exactly like
    /// [`OnlineDetector::new`].
    pub fn with_availability(
        n_procs: usize,
        dist: Vec<f64>,
        mode: DetectorMode,
        thresholds: Thresholds,
        geometry: DetectorGeometry,
        model: AvailabilityModel,
    ) -> Self {
        let mut d = Self::new(n_procs, dist, mode, thresholds, geometry);
        if model.miss_ppm > 0 {
            d.availability = Some((model, DegradedCollector::new(n_procs)));
        }
        d
    }

    pub fn mode(&self) -> DetectorMode {
        self.bank.mode()
    }

    pub fn thresholds(&self) -> Thresholds {
        self.bank.thresholds()
    }

    /// The availability model in force, if any.
    pub fn availability(&self) -> Option<&AvailabilityModel> {
        self.availability.as_ref().map(|(m, _)| m)
    }

    /// Total DDV rows substituted from stale caches so far.
    pub fn rows_substituted(&self) -> u64 {
        self.availability.as_ref().map_or(0, |(_, c)| c.substitutions())
    }

    /// Forget processor `proc`'s staleness state (context switch: the
    /// incoming thread must not inherit the outgoing thread's stale rows).
    pub fn reset_staleness(&mut self, proc: usize) {
        if let Some((_, c)) = &mut self.availability {
            c.reset_requester(proc);
        }
    }

    /// The footprint table of one processor (inspection / persistence).
    pub fn table(&self, proc: usize) -> &FootprintTable {
        self.bank.table(proc)
    }

    /// Phase id of the most recent interval on `proc`, if any.
    pub fn current_phase(&self, proc: usize) -> Option<u32> {
        self.classified[proc].last().map(|c| c.phase_id)
    }

    /// Telemetry recorded so far (empty unless the `telemetry` feature is
    /// on): per-processor `classify` span tracks and outcome counters.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telem.snapshot()
    }

    /// Mirror the detector's outcome statistics into a metrics registry
    /// under the `detector/` namespace. Always available (independent of
    /// the `telemetry` feature): the counts are recomputed from
    /// [`OnlineDetector::classified`], so harness-level reporting can fold
    /// any detector run into a registry. This is the registry path for the
    /// PR 3 degradation events that were previously only per-interval
    /// booleans on [`ClassifiedInterval`].
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        let mut intervals = 0u64;
        let mut new_phases = 0u64;
        let mut degraded = 0u64;
        for c in self.classified.iter().flatten() {
            intervals += 1;
            new_phases += c.is_new_phase as u64;
            degraded += c.degraded as u64;
        }
        reg.counter_add("detector/intervals", intervals);
        reg.counter_add("detector/new_phases", new_phases);
        reg.counter_add("detector/degraded_intervals", degraded);
        reg.counter_add("detector/rows_substituted", self.rows_substituted());
        self.ddv.publish_metrics("detector/ddv", reg);
    }

    /// Access to mutable internals for context save/restore.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&mut Vec<BbvAccumulator>, &mut DdvState, &mut Vec<FootprintTable>) {
        (&mut self.bbv, &mut self.ddv, self.bank.tables_mut())
    }
}

impl SimObserver for OnlineDetector {
    #[inline]
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32) {
        self.bbv[proc].record(bb, insns);
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, _addr: u64, _write: bool) {
        self.ddv.record_access(proc, home);
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        let degraded = match &mut self.availability {
            None => {
                self.ddv.end_interval_into(proc, &mut self.scratch_sample);
                false
            }
            Some((model, coll)) => {
                let staleness = coll.end_interval_into(
                    &mut self.ddv,
                    proc,
                    &mut self.scratch_sample,
                    |q| !model.row_missed(proc, q, stats.index),
                );
                staleness > model.max_staleness
            }
        };
        self.bbv[proc].normalized_into(&mut self.scratch_bbv);
        let c = self.bank.classify_raw(
            proc,
            stats.index,
            stats.cpi(),
            &self.scratch_bbv,
            self.scratch_sample.dds,
            degraded,
        );
        // Classification span on the processor's cumulative interval clock
        // (covers the interval just classified), plus outcome counters.
        let start = self.cum_cycles[proc];
        self.cum_cycles[proc] += stats.cycles;
        self.telem.span(proc, self.probes.classify, start, stats.cycles);
        self.telem.add(self.probes.intervals, 1);
        if c.is_new_phase {
            self.telem.add(self.probes.new_phases, 1);
        }
        if degraded {
            self.telem.add(self.probes.degraded, 1);
        }
        self.classified[proc].push(c);
        self.bbv[proc].reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(index: u64, insns: u64, cycles: u64) -> IntervalStats {
        IntervalStats { index, insns, cycles }
    }

    /// Drive an observer with a synthetic two-code-signature stream.
    fn drive(obs: &mut impl SimObserver, proc: usize, code: u32, homes: &[usize], idx: u64) {
        for _ in 0..10 {
            obs.on_block_commit(proc, code, 50);
        }
        for &h in homes {
            obs.on_mem_commit(proc, h, 0x40 * h as u64, false);
        }
        obs.on_interval(proc, stats(idx, 500, 1000));
    }

    #[test]
    fn collector_records_features_and_resets() {
        let mut c = TraceCollector::for_hypercube(2, DetectorGeometry::default());
        drive(&mut c, 0, 7, &[0, 0, 1], 0);
        drive(&mut c, 0, 9, &[1, 1, 1], 1);
        assert_eq!(c.records[0].len(), 2);
        let r0 = &c.records[0][0];
        assert_eq!(r0.fvec, vec![2, 1]);
        assert_eq!(r0.insns, 500);
        assert!((r0.cpi() - 2.0).abs() < 1e-12);
        assert_eq!(r0.branches, 10);
        // Second interval's counters started fresh.
        let r1 = &c.records[0][1];
        assert_eq!(r1.fvec, vec![0, 3]);
        assert_eq!(r1.branches, 10);
        // BBVs of different code differ.
        assert_ne!(r0.bbv, r1.bbv);
    }

    #[test]
    fn collector_contention_window_spans_other_procs() {
        let mut c = TraceCollector::for_hypercube(2, DetectorGeometry::default());
        // P1 hammers home 0 before P0's interval closes.
        for _ in 0..5 {
            c.on_mem_commit(1, 0, 0, false);
        }
        drive(&mut c, 0, 7, &[0], 0);
        let r = &c.records[0][0];
        assert_eq!(r.fvec, vec![1, 0]);
        assert_eq!(r.cvec, vec![6, 0], "C includes P1's accesses");
        assert!(r.dds >= 6.0);
    }

    #[test]
    fn online_bbv_groups_same_code() {
        let mut d = OnlineDetector::new(
            1,
            vec![1.0],
            DetectorMode::Bbv,
            Thresholds::bbv_only(0.5),
            DetectorGeometry::default(),
        );
        drive(&mut d, 0, 7, &[0], 0);
        drive(&mut d, 0, 7, &[0], 1);
        drive(&mut d, 0, 99, &[0], 2);
        let ids: Vec<u32> = d.classified[0].iter().map(|c| c.phase_id).collect();
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert!(d.classified[0][0].is_new_phase);
        assert!(!d.classified[0][1].is_new_phase);
    }

    #[test]
    fn online_ddv_splits_same_code_different_homes() {
        // Same basic blocks, but interval 2 touches a distant, contended
        // home: BBV alone groups them; BBV+DDV must split.
        let dist = {
            let n = 4;
            let mut d = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    d[i * n + j] = if i == j { 1.0 } else { 1.0 + ((i ^ j) as u64).count_ones() as f64 };
                }
            }
            d
        };
        let run = |mode| {
            let mut det = OnlineDetector::new(
                4,
                dist.clone(),
                mode,
                Thresholds { bbv: 0.5, dds: 0.3 },
                DetectorGeometry::default(),
            );
            drive(&mut det, 0, 7, &[0, 0, 0, 0], 0); // local
            drive(&mut det, 0, 7, &[3, 3, 3, 3], 1); // remote (2 hops)
            det.classified[0].iter().map(|c| c.phase_id).collect::<Vec<_>>()
        };
        let bbv = run(DetectorMode::Bbv);
        assert_eq!(bbv[0], bbv[1], "BBV is blind to data distribution");
        let ddv = run(DetectorMode::BbvDdv);
        assert_ne!(ddv[0], ddv[1], "DDV must split local vs remote intervals");
    }

    #[test]
    fn offline_classifier_matches_online() {
        // Capture a trace and classify it offline; drive an online detector
        // with the identical event sequence; results must agree.
        let dist = vec![1.0, 2.0, 2.0, 1.0];
        let geometry = DetectorGeometry::default();
        let thresholds = Thresholds { bbv: 0.4, dds: 0.25 };

        let mut coll = TraceCollector::new(2, dist.clone(), geometry);
        let mut online = OnlineDetector::new(2, dist, DetectorMode::BbvDdv, thresholds, geometry);

        let script: Vec<(u32, Vec<usize>)> = vec![
            (7, vec![0, 0]),
            (7, vec![0, 0]),
            (9, vec![1, 1, 1]),
            (7, vec![1, 1, 1, 1, 1, 1]),
            (9, vec![1]),
            (7, vec![0, 0]),
        ];
        for (i, (code, homes)) in script.iter().enumerate() {
            drive(&mut coll, 0, *code, homes, i as u64);
            drive(&mut online, 0, *code, homes, i as u64);
        }

        let offline = TraceClassifier::classify_proc(
            &coll.records[0],
            DetectorMode::BbvDdv,
            thresholds,
            geometry.footprint_vectors,
        );
        let online_ids: Vec<u32> = online.classified[0].iter().map(|c| c.phase_id).collect();
        assert_eq!(offline, online_ids);
    }

    #[test]
    fn vector_ddv_splits_by_home_mix_and_zero_weight_recovers_bbv() {
        let mut coll = TraceCollector::for_hypercube(4, DetectorGeometry::default());
        // Same code, three intervals: home 0, home 0, home 3.
        drive(&mut coll, 0, 7, &[0, 0, 0], 0);
        drive(&mut coll, 0, 7, &[0, 0, 0], 1);
        drive(&mut coll, 0, 7, &[3, 3, 3], 2);
        let recs = &coll.records[0];
        let dist = dsm_phase_sim_dist(4, 0);

        // With data weight, the home-3 interval becomes its own phase.
        let ids = TraceClassifier::classify_proc_vector_ddv(recs, &dist, 0.5, 1.0, 32);
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2], "home mix must split same-code intervals");

        // With zero weight it degenerates to the BBV-only result.
        let v0 = TraceClassifier::classify_proc_vector_ddv(recs, &dist, 0.5, 0.0, 32);
        let bbv = TraceClassifier::classify_proc(
            recs,
            DetectorMode::Bbv,
            Thresholds::bbv_only(0.5),
            32,
        );
        assert_eq!(v0, bbv);
    }

    /// Hypercube distance row for tests.
    fn dsm_phase_sim_dist(n: usize, i: usize) -> Vec<f64> {
        (0..n)
            .map(|j| if i == j { 1.0 } else { 1.0 + ((i ^ j) as u64).count_ones() as f64 })
            .collect()
    }

    #[test]
    fn publish_metrics_counts_classification_outcomes() {
        let mut d = OnlineDetector::new(
            1,
            vec![1.0],
            DetectorMode::Bbv,
            Thresholds::bbv_only(0.5),
            DetectorGeometry::default(),
        );
        drive(&mut d, 0, 7, &[0], 0);
        drive(&mut d, 0, 7, &[0], 1);
        drive(&mut d, 0, 99, &[0], 2);
        let mut reg = MetricsRegistry::new();
        d.publish_metrics(&mut reg);
        assert_eq!(reg.counter_value("detector/intervals"), Some(3));
        assert_eq!(reg.counter_value("detector/new_phases"), Some(2));
        assert_eq!(reg.counter_value("detector/degraded_intervals"), Some(0));
        assert_eq!(reg.counter_value("detector/rows_substituted"), Some(0));
        assert_eq!(reg.counter_value("detector/ddv/queries"), Some(3));

        let snap = d.telemetry_snapshot();
        if cfg!(feature = "telemetry") {
            assert!(snap.enabled);
            assert_eq!(snap.tracks.len(), 1);
            assert_eq!(snap.tracks[0].spans.len(), 3, "one classify span per interval");
            // The registry's live counters agree with the recomputed ones.
            let live = snap
                .metrics
                .iter()
                .find(|m| m.name == "detector/new_phases")
                .expect("live counter");
            assert_eq!(live.value, dsm_telemetry::MetricValue::Counter(2));
        } else {
            assert!(!snap.enabled);
            assert!(snap.tracks.is_empty());
        }
    }

    #[test]
    fn classify_with_external_dds_supports_ablations() {
        let mut coll = TraceCollector::for_hypercube(2, DetectorGeometry::default());
        drive(&mut coll, 0, 7, &[0], 0);
        drive(&mut coll, 0, 7, &[1], 1);
        let recs = &coll.records[0];
        // With DDS forced equal, identical code collapses to one phase.
        let ids = TraceClassifier::classify_proc_with_dds(
            recs,
            &[5.0, 5.0],
            Thresholds { bbv: 0.5, dds: 0.1 },
            32,
        );
        assert_eq!(ids[0], ids[1]);
        // With DDS forced apart, the same intervals split.
        let ids = TraceClassifier::classify_proc_with_dds(
            recs,
            &[5.0, 500.0],
            Thresholds { bbv: 0.5, dds: 0.1 },
            32,
        );
        assert_ne!(ids[0], ids[1]);
    }
}
