//! The classifier extraction seam: interval signatures on the wire and the
//! classification kernel behind them.
//!
//! The paper's detector has two halves:
//!
//! 1. **gather** — accumulate the BBV, collect the DDV rows at the interval
//!    boundary, fold them into the DDS (and, under an
//!    [`AvailabilityModel`], decide whether the DDS is too stale to trust);
//! 2. **classify** — look the `(BBV, DDS)` signature up in the per-processor
//!    footprint table under the configured thresholds.
//!
//! The gather half is tied to the simulated machine (it *is* the hardware
//! the paper describes); the classify half is pure state-plus-arithmetic
//! and is exactly what a phase-detection *service* runs on behalf of many
//! tenants. Each half is written once, here:
//!
//! * `Gather` (crate-private) — the gather half, run by every observer:
//!   the online detector, the [`SignatureExtractor`] and the trace
//!   collector. Its style is fixed when it is built.
//! * [`IntervalSignature`] — everything the gather half produces for one
//!   completed interval: the normalized BBV, the DDS, the interval's
//!   instruction/cycle counts, and the staleness verdict. This is the unit
//!   of ingest for `dsm-serve`.
//! * [`ClassifierBank`] — the per-processor footprint tables plus the
//!   threshold gating, as a standalone kernel.
//!   [`OnlineDetector`](crate::detector::OnlineDetector) now *contains* a
//!   bank and calls the same `classify_raw` the server calls, so
//!   server-side classification is bit-identical to in-simulator
//!   classification by construction (and pinned by the
//!   `serve_differential` suite).
//! * [`SignatureExtractor`] — a [`SimObserver`] that runs only the gather
//!   half and emits [`IntervalSignature`]s instead of classifying. Feeding
//!   its output through a [`ClassifierBank`] reproduces the online
//!   detector's [`ClassifiedInterval`] sequence exactly, degraded flags
//!   included.

use serde::{Deserialize, Serialize};

use dsm_sim::observer::{IntervalStats, SimObserver};

use crate::bbv::BbvAccumulator;
use crate::ddv::{DdsSample, DdvState, DegradedCollector};
use crate::detector::{
    AvailabilityModel, ClassifiedInterval, DetectorGeometry, DetectorMode, IntervalRecord,
    Thresholds,
};
use crate::footprint::FootprintTable;

/// One completed sampling interval, as produced by the gather half of the
/// detector and ingested by the classification service. This is the wire
/// unit of `dsm-serve`: everything classification needs, nothing it does
/// not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSignature {
    /// Processor (within the tenant's machine) the interval ran on.
    pub proc: usize,
    /// 0-based interval index on that processor.
    pub index: u64,
    /// Committed non-sync instructions (the interval length).
    pub insns: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Normalized BBV accumulator (sums to 1 for a non-empty interval).
    pub bbv: Vec<f64>,
    /// The data distribution scalar from the DDV gather.
    pub dds: f64,
    /// The gather's staleness verdict: the DDS is untrustworthy and the
    /// interval must be classified BBV-only. Always false on a reliable
    /// system.
    pub degraded: bool,
}

impl IntervalSignature {
    /// Cycles per (non-sync) instruction: [`IntervalStats::cpi`] itself, so
    /// a signature round-trip preserves the CPI bit-for-bit.
    pub fn cpi(&self) -> f64 {
        IntervalStats { index: self.index, insns: self.insns, cycles: self.cycles }.cpi()
    }

    /// Build a signature from a captured [`IntervalRecord`], its BBV
    /// normalized from the record's counts (trace replay: stored traces are
    /// captured on a reliable system, so `degraded` is false).
    pub fn from_record(r: &IntervalRecord) -> Self {
        Self {
            proc: r.proc,
            index: r.index,
            insns: r.insns,
            cycles: r.cycles,
            bbv: r.normalized_bbv(),
            dds: r.dds,
            degraded: false,
        }
    }
}

/// The classification kernel: one footprint table per processor plus the
/// threshold gating of paper §III-B. Stateless apart from the tables — no
/// simulator types, no gather machinery — so it can serve as the per-tenant
/// detector state of a streaming server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierBank {
    mode: DetectorMode,
    thresholds: Thresholds,
    tables: Vec<FootprintTable>,
}

impl ClassifierBank {
    pub fn new(
        n_procs: usize,
        mode: DetectorMode,
        thresholds: Thresholds,
        footprint_vectors: usize,
    ) -> Self {
        Self {
            mode,
            thresholds,
            tables: (0..n_procs)
                .map(|_| FootprintTable::new(footprint_vectors))
                .collect(),
        }
    }

    pub fn n_procs(&self) -> usize {
        self.tables.len()
    }

    pub fn mode(&self) -> DetectorMode {
        self.mode
    }

    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The footprint table of one processor (inspection / persistence).
    pub fn table(&self, proc: usize) -> &FootprintTable {
        &self.tables[proc]
    }

    /// Total footprint-table capacity across all processors (the service's
    /// resident-state accounting; leak checks sum this over live tenants).
    pub fn footprint_capacity(&self) -> usize {
        self.tables.iter().map(|t| t.capacity()).sum()
    }

    /// Mutable access for context save/restore
    /// ([`crate::context::DetectorContext`]).
    pub(crate) fn tables_mut(&mut self) -> &mut Vec<FootprintTable> {
        &mut self.tables
    }

    /// Classify one interval from its parts. This is the exact tail of the
    /// online detector's `on_interval`: the DDS gate drops to BBV-only in
    /// BBV mode or past the staleness bound, then the footprint table
    /// decides.
    #[inline]
    pub fn classify_raw(
        &mut self,
        proc: usize,
        index: u64,
        cpi: f64,
        bbv: &[f64],
        dds: f64,
        degraded: bool,
    ) -> ClassifiedInterval {
        let dds_thr = match self.mode {
            DetectorMode::Bbv => None,
            // Past the staleness bound the DDS is untrustworthy:
            // classification falls back to the uniprocessor BBV gate.
            DetectorMode::BbvDdv if degraded => None,
            DetectorMode::BbvDdv => Some(self.thresholds.dds),
        };
        let m = self.tables[proc].classify(bbv, dds, self.thresholds.bbv, dds_thr);
        ClassifiedInterval {
            proc,
            index,
            phase_id: m.phase_id,
            is_new_phase: m.is_new,
            cpi,
            degraded,
        }
    }

    /// Classify one wire signature.
    #[inline]
    pub fn classify_signature(&mut self, sig: &IntervalSignature) -> ClassifiedInterval {
        self.classify_raw(sig.proc, sig.index, sig.cpi(), &sig.bbv, sig.dds, sig.degraded)
    }
}

/// How the DDV rows are collected at an interval end. Fixed when the
/// [`Gather`] is built: the styles keep different snapshot state in the
/// [`DdvState`], so one instance must never mix them.
pub(crate) enum GatherStyle {
    /// The O(n) aggregate gather.
    Aggregate,
    /// The O(n²) walk over every node's matrix (the scale sweep's reference).
    Reference,
    /// Every remote row is subject to the model's collection deadline.
    Deadline(AvailabilityModel, DegradedCollector),
}

impl GatherStyle {
    /// The deadline walk when rows can miss under `model`, else the aggregate.
    pub(crate) fn for_availability(n_procs: usize, model: AvailabilityModel) -> Self {
        if model.miss_ppm > 0 {
            Self::Deadline(model, DegradedCollector::new(n_procs))
        } else {
            Self::Aggregate
        }
    }
}

/// The gather half every observer runs: per-processor BBV accumulators
/// and the DDV state, folded at each interval end into a [`DdsSample`] and
/// a staleness verdict in a reusable buffer. Each observer reads the
/// interval's BBV, raw or normalized, before [`Self::end_interval`]
/// resets it.
pub(crate) struct Gather {
    pub(crate) bbv: Vec<BbvAccumulator>,
    pub(crate) ddv: DdvState,
    style: GatherStyle,
    /// The last completed interval's `F_i`, `C` and DDS.
    pub(crate) sample: DdsSample,
}

impl Gather {
    /// A gather over one accumulator per processor of `ddv`'s machine.
    pub(crate) fn new(bbv: Vec<BbvAccumulator>, ddv: DdvState, style: GatherStyle) -> Self {
        Self { bbv, ddv, style, sample: DdsSample::empty() }
    }

    #[inline]
    pub(crate) fn record_block(&mut self, proc: usize, bb: u32, insns: u32) {
        self.bbv[proc].record(bb, insns);
    }

    #[inline]
    pub(crate) fn record_mem(&mut self, proc: usize, home: usize) {
        self.ddv.record_access(proc, home);
    }

    /// End `proc`'s interval `index`: [`Self::gather_rows`], then reset its
    /// BBV and start the next interval. Returns true when the DDS is too
    /// stale to trust.
    pub(crate) fn end_interval(&mut self, proc: usize, index: u64) -> bool {
        let degraded = self.gather_rows(proc, index);
        self.bbv[proc].reset();
        degraded
    }

    /// Gather `proc`'s DDV rows for interval `index` into [`Self::sample`],
    /// leaving its BBV as it is. Returns true when the DDS is too stale to
    /// trust.
    pub(crate) fn gather_rows(&mut self, proc: usize, index: u64) -> bool {
        match &mut self.style {
            GatherStyle::Aggregate => {
                self.ddv.end_interval_into(proc, &mut self.sample);
                false
            }
            GatherStyle::Reference => {
                self.ddv.end_interval_reference_into(proc, &mut self.sample);
                false
            }
            GatherStyle::Deadline(model, coll) => {
                let staleness = coll.end_interval_into(&mut self.ddv, proc, &mut self.sample, |q| {
                    !model.row_missed(proc, q, index)
                });
                staleness > model.max_staleness
            }
        }
    }

    /// The model and row collector of a deadline gather.
    pub(crate) fn deadline(&self) -> Option<(&AvailabilityModel, &DegradedCollector)> {
        match &self.style {
            GatherStyle::Deadline(model, coll) => Some((model, coll)),
            _ => None,
        }
    }

    /// Forget `proc`'s staleness state (context switch).
    pub(crate) fn reset_staleness(&mut self, proc: usize) {
        if let GatherStyle::Deadline(_, coll) = &mut self.style {
            coll.reset_requester(proc);
        }
    }
}

/// The gather half as a standalone observer: it runs the same gather as
/// [`OnlineDetector`](crate::detector::OnlineDetector) but emits
/// [`IntervalSignature`]s instead of classifying, so the classification can
/// happen elsewhere (a [`ClassifierBank`] inside `dsm-serve`).
pub struct SignatureExtractor {
    gather: Gather,
    /// Extracted signatures, per processor, in interval order.
    pub signatures: Vec<Vec<IntervalSignature>>,
}

impl SignatureExtractor {
    pub fn new(n_procs: usize, dist: Vec<f64>, geometry: DetectorGeometry) -> Self {
        Self::with_availability(n_procs, dist, geometry, AvailabilityModel::reliable())
    }

    /// An extractor whose DDV row gathers are subject to `model`'s
    /// collection deadline, mirroring
    /// [`OnlineDetector::with_availability`](crate::detector::OnlineDetector::with_availability):
    /// the emitted `degraded` flags are identical to the flags the online
    /// detector would record on the same event stream.
    pub fn with_availability(
        n_procs: usize,
        dist: Vec<f64>,
        geometry: DetectorGeometry,
        model: AvailabilityModel,
    ) -> Self {
        let style = GatherStyle::for_availability(n_procs, model);
        let bbv = (0..n_procs).map(|_| BbvAccumulator::new(geometry.bbv_entries)).collect();
        Self {
            gather: Gather::new(bbv, DdvState::new(n_procs, dist), style),
            signatures: vec![Vec::new(); n_procs],
        }
    }
}

impl SimObserver for SignatureExtractor {
    #[inline]
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32) {
        self.gather.record_block(proc, bb, insns);
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, _addr: u64, _write: bool) {
        self.gather.record_mem(proc, home);
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        let bbv = self.gather.bbv[proc].normalized();
        let degraded = self.gather.end_interval(proc, stats.index);
        self.signatures[proc].push(IntervalSignature {
            proc,
            index: stats.index,
            insns: stats.insns,
            cycles: stats.cycles,
            bbv,
            dds: self.gather.sample.dds,
            degraded,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OnlineDetector;

    fn stats(index: u64, insns: u64, cycles: u64) -> IntervalStats {
        IntervalStats { index, insns, cycles }
    }

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
    fn extractor_plus_bank_matches_online_detector() {
        let dist = vec![1.0, 2.0, 2.0, 1.0];
        let geometry = DetectorGeometry::default();
        let thresholds = Thresholds { bbv: 0.4, dds: 0.25 };

        let mut online =
            OnlineDetector::new(2, dist.clone(), DetectorMode::BbvDdv, thresholds, geometry);
        let mut extractor = SignatureExtractor::new(2, dist, geometry);

        let script: &[(usize, u32, &[usize])] = &[
            (0, 7, &[0, 0]),
            (1, 9, &[1]),
            (0, 7, &[0, 0]),
            (0, 9, &[1, 1, 1]),
            (1, 9, &[1, 0]),
            (0, 7, &[1, 1, 1, 1, 1, 1]),
        ];
        let mut idx = [0u64; 2];
        for &(p, code, homes) in script {
            drive(&mut online, p, code, homes, idx[p]);
            drive(&mut extractor, p, code, homes, idx[p]);
            idx[p] += 1;
        }

        let mut bank =
            ClassifierBank::new(2, DetectorMode::BbvDdv, thresholds, geometry.footprint_vectors);
        for p in 0..2 {
            let served: Vec<ClassifiedInterval> = extractor.signatures[p]
                .iter()
                .map(|s| bank.classify_signature(s))
                .collect();
            assert_eq!(served, online.classified[p], "proc {p} diverged");
        }
    }

    #[test]
    fn extractor_degraded_flags_match_online_detector() {
        let dist = vec![1.0, 2.0, 2.0, 1.0];
        let geometry = DetectorGeometry::default();
        let thresholds = Thresholds { bbv: 0.4, dds: 0.25 };
        let model = AvailabilityModel { seed: 7, miss_ppm: 400_000, max_staleness: 0 };

        let mut online = OnlineDetector::with_availability(
            2,
            dist.clone(),
            DetectorMode::BbvDdv,
            thresholds,
            geometry,
            model,
        );
        let mut extractor = SignatureExtractor::with_availability(2, dist, geometry, model);

        for i in 0..32u64 {
            for p in 0..2 {
                drive(&mut online, p, 7 + (i % 3) as u32, &[(i % 2) as usize], i);
                drive(&mut extractor, p, 7 + (i % 3) as u32, &[(i % 2) as usize], i);
            }
        }
        let mut bank =
            ClassifierBank::new(2, DetectorMode::BbvDdv, thresholds, geometry.footprint_vectors);
        let mut saw_degraded = false;
        for p in 0..2 {
            let served: Vec<ClassifiedInterval> = extractor.signatures[p]
                .iter()
                .map(|s| bank.classify_signature(s))
                .collect();
            assert_eq!(served, online.classified[p], "proc {p} diverged");
            saw_degraded |= served.iter().any(|c| c.degraded);
        }
        assert!(saw_degraded, "40% miss rate at staleness bound 0 must degrade");
    }

    #[test]
    fn signature_from_record_preserves_cpi() {
        let r = IntervalRecord::new(1, 3, 500, 1250, [3, 3], [1, 0], [1, 1], 42.0, &[], 10);
        let s = IntervalSignature::from_record(&r);
        assert_eq!(s.cpi(), r.cpi());
        assert!(!s.degraded);
        assert_eq!(s.bbv, [0.5, 0.5]);
    }
}
