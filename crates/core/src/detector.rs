//! End-to-end phase detectors and the offline trace classifier.
//!
//! Two ways to use the machinery:
//!
//! * [`OnlineDetector`] — a [`SimObserver`] that classifies every sampling
//!   interval as it completes, exactly as the paper's hardware would
//!   (BBV accumulator + DDV query + footprint-table lookup per interval).
//! * [`TraceCollector`] + [`TraceClassifier`] — the collector records each
//!   interval's *feature snapshot* (BBV bucket counts, `F_i`, `C`, DDS,
//!   working-set signature, branch count, CPI) without classifying;
//!   the classifier then replays the footprint-table logic offline for any
//!   threshold. Because classification never feeds back into execution in
//!   the paper's evaluation, sweeping 200 thresholds offline over one
//!   captured trace is exactly equivalent to 200 simulated runs — an
//!   integration test asserts online/offline agreement.
//!
//! Both paths classify through the one gate,
//! [`FootprintTable::nearest`] + [`FootprintTable::commit`], whose
//! per-entry closure returns an entry's *gated* distance: its BBV distance
//! when the DDS gate admits it, `+inf` when not. Online, the closure checks
//! the DDS and then computes the distance. The offline sweep computes one
//! row per record instead, each live entry's DDS difference and distance
//! once, gated once per DDS column, and its closure is a lookup in that row
//! ([`TraceClassifier::sweep_proc`]). The related-work baselines and the
//! vector-DDV extension replay through that same sweep, each with its own
//! signature and distance.

use serde::{Deserialize, Serialize};

use dsm_sim::observer::{IntervalStats, SimObserver};

use crate::bbv::{push_normalized, BbvAccumulator};
use crate::ddv::{hypercube_distance, DdvSnap, DdvState};
use crate::distance::{manhattan_rows, relative_diff};
use crate::footprint::FootprintTable;
use crate::signature::{ClassifierBank, Gather, GatherStyle};
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

/// Everything the hardware saw about one completed sampling interval, as
/// the hardware counted it: the BBV and the per-home vectors are the
/// integer counters themselves, not derived values.
///
/// The counts are `u32`. [`TraceCollector`] converts each one with a
/// checked conversion that panics naming the field if a count exceeds
/// `u32::MAX`. No run comes close: a BBV bucket holds at most the
/// interval's instructions, and an `F_i` or `C` entry at most the run's
/// memory references. Across every app at the scaled 2/8/32-node and
/// paper 2/16-node points, the largest bucket is 524,221 and the largest
/// `F_i` or `C` entry 264,791.
///
/// Every counter lives in one heap block, so a record is one allocation:
/// the BBV buckets, then `F_i`, then `C`, then the working-set words as
/// `u32` halves (low half first). [`Self::new`] builds it and the slice
/// accessors read it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalRecord {
    pub proc: usize,
    pub index: u64,
    /// Committed non-sync instructions.
    pub insns: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// The data distribution scalar.
    pub dds: f64,
    /// Committed dynamic branches (Balasubramonian baseline).
    pub branches: u64,
    counts: Box<[u32]>,
    bbv_len: u32,
    fvec_len: u32,
    cvec_len: u32,
}

impl IntervalRecord {
    /// A record holding `bbv`, `fvec`, `cvec` and the working-set words
    /// `ws_sig` in its one counter block.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        proc: usize,
        index: u64,
        insns: u64,
        cycles: u64,
        bbv: impl IntoIterator<Item = u32, IntoIter: ExactSizeIterator>,
        fvec: impl IntoIterator<Item = u32, IntoIter: ExactSizeIterator>,
        cvec: impl IntoIterator<Item = u32, IntoIter: ExactSizeIterator>,
        dds: f64,
        ws_sig: &[u64],
        branches: u64,
    ) -> Self {
        let (bbv, fvec, cvec) = (bbv.into_iter(), fvec.into_iter(), cvec.into_iter());
        let lens = [bbv.len(), fvec.len(), cvec.len()];
        let mut counts = Vec::with_capacity(lens.iter().sum::<usize>() + 2 * ws_sig.len());
        counts.extend(bbv.chain(fvec).chain(cvec));
        counts.extend(ws_sig.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]));
        let [bbv_len, fvec_len, cvec_len] =
            lens.map(|len| u32::try_from(len).expect("record vector length fits u32"));
        Self {
            proc,
            index,
            insns,
            cycles,
            dds,
            branches,
            counts: counts.into_boxed_slice(),
            bbv_len,
            fvec_len,
            cvec_len,
        }
    }

    /// The BBV accumulator's bucket counts at the interval's end. Readers
    /// take the normalized vector from [`Self::normalized_bbv_into`].
    pub fn bbv(&self) -> &[u32] {
        &self.counts[..self.bbv_len as usize]
    }

    /// The requester's own per-home access counts (`F_i`).
    pub fn fvec(&self) -> &[u32] {
        let start = self.bbv_len as usize;
        &self.counts[start..start + self.fvec_len as usize]
    }

    /// The contention vector (`C`): per-home access counts of every node
    /// over the requester's window.
    pub fn cvec(&self) -> &[u32] {
        let start = (self.bbv_len + self.fvec_len) as usize;
        &self.counts[start..start + self.cvec_len as usize]
    }

    /// Working-set signature words (Dhodapkar–Smith baseline) as `u32`
    /// halves, low half first.
    pub fn ws_sig(&self) -> &[u32] {
        &self.counts[(self.bbv_len + self.fvec_len + self.cvec_len) as usize..]
    }

    /// The working-set signature words as the hardware keeps them.
    pub fn ws_words(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.ws_sig().chunks_exact(2).map(|h| u64::from(h[0]) | u64::from(h[1]) << 32)
    }

    /// Cycles per (non-sync) instruction: [`IntervalStats::cpi`] itself.
    pub fn cpi(&self) -> f64 {
        IntervalStats { index: self.index, insns: self.insns, cycles: self.cycles }.cpi()
    }

    /// Instructions the BBV accumulated: the sum of its buckets, which is
    /// the accumulator's own running total.
    pub fn bbv_total(&self) -> u64 {
        self.bbv().iter().map(|&b| u64::from(b)).sum()
    }

    /// The normalized BBV into `out` (cleared first): each bucket over
    /// [`Self::bbv_total`], or all zeros for an empty interval. Bit-identical
    /// to the accumulator's [`BbvAccumulator::normalized_into`] at the
    /// interval's end.
    pub fn normalized_bbv_into(&self, out: &mut Vec<f64>) {
        out.clear();
        push_normalized(self.bbv(), self.bbv_total(), out);
    }

    /// [`Self::normalized_bbv_into`] into a new vector.
    pub fn normalized_bbv(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.bbv().len());
        self.normalized_bbv_into(&mut out);
        out
    }

    /// Extension signature (not in the paper): the normalized BBV followed
    /// by the distance-weighted frequency vector `F_i · D`, normalized to
    /// carry `data_weight` total mass, for classification on one Manhattan
    /// threshold.
    ///
    /// The paper collapses `F·D·C` into the scalar DDS so the hardware
    /// compares one number; keeping the vector preserves *which* homes were
    /// hot, at the cost of `n` extra comparator lanes. `data_weight` scales
    /// the data half relative to the code half (0 recovers plain BBV
    /// behaviour; the vector then sums to `1 + data_weight`, so thresholds
    /// live in `[0, 2(1 + data_weight)]`).
    pub fn vector_ddv(&self, dist_row: &[f64], data_weight: f64) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.bbv().len() + self.fvec().len());
        self.normalized_bbv_into(&mut v);
        let mut total = 0.0;
        for (&f, &d) in self.fvec().iter().zip(dist_row) {
            let w = f as f64 * d;
            total += w;
            v.push(w);
        }
        // Every term is >= 0, so total == 0 means the data half is already
        // all zeros (the unnormalizable case keeps a zero data half).
        if total > 0.0 {
            for w in &mut v[self.bbv().len()..] {
                *w = *w / total * data_weight;
            }
        }
        v
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
    gather: Gather,
    ws: Vec<WsSignature>,
    branches: Vec<u64>,
    /// Captured records, per processor, in interval order.
    pub records: Vec<Vec<IntervalRecord>>,
}

impl TraceCollector {
    /// `dist` is the n×n DDV distance matrix (see
    /// [`dsm_sim::network::Network::distance_matrix`]).
    pub fn new(n_procs: usize, dist: Vec<f64>, geometry: DetectorGeometry) -> Self {
        Self::with_style(n_procs, dist, geometry, GatherStyle::Aggregate)
    }

    /// A collector whose interval ends run the O(n²) all-to-one walk
    /// ([`DdvState::end_interval_reference_into`]) instead of the O(n)
    /// aggregate gather: the scaling benchmark's reference arm. Its records
    /// are bit-identical to [`TraceCollector::new`]'s.
    pub fn with_reference_gather(
        n_procs: usize,
        dist: Vec<f64>,
        geometry: DetectorGeometry,
    ) -> Self {
        Self::with_style(n_procs, dist, geometry, GatherStyle::Reference)
    }

    /// Hypercube convenience constructor.
    pub fn for_hypercube(n_procs: usize, geometry: DetectorGeometry) -> Self {
        Self::new(n_procs, hypercube_distance(n_procs), geometry)
    }

    fn with_style(
        n_procs: usize,
        dist: Vec<f64>,
        geometry: DetectorGeometry,
        style: GatherStyle,
    ) -> Self {
        // Allocated in this order on purpose: the time to free a captured
        // trace is measurably sensitive to the heap layout it leaves behind.
        let bbv = (0..n_procs).map(|_| BbvAccumulator::new(geometry.bbv_entries)).collect();
        Self {
            ws: (0..n_procs).map(|_| WsSignature::new(geometry.ws_bits)).collect(),
            branches: vec![0; n_procs],
            gather: Gather::new(bbv, DdvState::new(n_procs, dist), style),
            records: vec![Vec::new(); n_procs],
            geometry,
        }
    }

    pub fn geometry(&self) -> DetectorGeometry {
        self.geometry
    }

    pub fn ddv(&self) -> &DdvState {
        &self.gather.ddv
    }

    /// Total intervals captured across all processors.
    pub fn total_intervals(&self) -> usize {
        self.records.iter().map(|r| r.len()).sum()
    }

    /// Export the full dynamic state — mid-interval accumulators plus the
    /// captured records — for checkpointing.
    pub fn export_state(&self) -> CollectorState {
        CollectorState {
            bbv: self.gather.bbv.iter().map(|b| b.raw().to_vec()).collect(),
            ws: self.ws.iter().map(|w| w.words().to_vec()).collect(),
            branches: self.branches.clone(),
            ddv: self.gather.ddv.export_state(),
            records: self.records.clone(),
        }
    }

    /// Restore state captured by [`TraceCollector::export_state`] into a
    /// collector built with the same geometry and processor count.
    pub fn import_state(&mut self, st: &CollectorState) {
        let same_machine = st.bbv.len() == self.ws.len() && st.ws.len() == self.ws.len();
        assert!(same_machine, "collector snapshot is for a different machine");
        for (b, raw) in self.gather.bbv.iter_mut().zip(&st.bbv) {
            assert_eq!(raw.len(), b.len(), "collector snapshot has a different BBV geometry");
            *b = BbvAccumulator::from_raw(raw.clone());
        }
        for (w, words) in self.ws.iter_mut().zip(&st.ws) {
            assert_eq!(words.len() * 64, w.bits(), "collector snapshot has a different WS geometry");
            *w = WsSignature::from_words(words.clone());
        }
        self.branches.copy_from_slice(&st.branches);
        self.gather.ddv.import_state(&st.ddv);
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
        self.gather.record_block(proc, bb, insns);
        self.ws[proc].insert(bb);
        self.branches[proc] += 1;
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, _addr: u64, _write: bool) {
        self.gather.record_mem(proc, home);
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        let g = &mut self.gather;
        g.gather_rows(proc, stats.index);
        // The buckets are read before the gather resets them.
        self.records[proc].push(IntervalRecord::new(
            proc,
            stats.index,
            stats.insns,
            stats.cycles,
            counts("BBV bucket", g.bbv[proc].raw()),
            counts("F_i", &g.sample.fvec),
            counts("C", &g.sample.cvec),
            g.sample.dds,
            self.ws[proc].words(),
            self.branches[proc],
        ));
        g.bbv[proc].reset();
        self.ws[proc].clear();
        self.branches[proc] = 0;
    }
}

/// Hardware counters as an [`IntervalRecord`] stores them. A count above
/// `u32::MAX` cannot come from a real run (see [`IntervalRecord`]), so it
/// panics naming `field` rather than wrapping.
fn counts<'a>(field: &'a str, raw: &'a [u64]) -> impl ExactSizeIterator<Item = u32> + 'a {
    let narrow = move |&c: &u64| {
        u32::try_from(c).unwrap_or_else(|_| panic!("{field} count {c} exceeds u32::MAX"))
    };
    raw.iter().map(narrow)
}

// ---------------------------------------------------------------------------
// Offline classification
// ---------------------------------------------------------------------------

/// Replays the footprint-table classification over captured records.
pub struct TraceClassifier;

/// The phase ids of a [`TraceClassifier::sweep_proc`] replay: one stream
/// per class of grid points whose tables made identical decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    /// Phase ids of each class, in record order.
    pub classes: Vec<Vec<u32>>,
    /// `class_of[k]` is the class of grid point `k`.
    pub class_of: Vec<usize>,
    /// Footprint entries the replay looked at, summed over every class's
    /// table ([`FootprintTable::comparisons`]).
    pub comparisons: u64,
}

/// One class of a sweep: the grid points `span` of the sorted point order,
/// all in DDS column `column`, whose tables are identical so far.
struct SweepClass {
    span: std::ops::Range<usize>,
    column: usize,
    table: FootprintTable<u32>,
    ids: Vec<u32>,
}

/// The *live set* of a sweep: the records some class's table stores. Each
/// sits in a slot, and the tables store slot numbers, so the per-record
/// [`Gate`] is indexed by slot and stays as small as the live set. A slot
/// counts the tables that store it, through every commit, eviction and
/// fork; a slot no table stores is free for a later record.
struct LiveSet<'a, S: ?Sized> {
    /// Each slot's record: its signature and DDS.
    sig: Vec<&'a S>,
    dds: Vec<f64>,
    /// Tables storing each slot; 0 for a free slot.
    refs: Vec<u32>,
    free: Vec<u32>,
    /// The current record's slot, once some table stores it.
    current: Option<u32>,
}

impl<'a, S: ?Sized> LiveSet<'a, S> {
    fn new() -> Self {
        Self { sig: Vec::new(), dds: Vec::new(), refs: Vec::new(), free: Vec::new(), current: None }
    }

    fn acquire(&mut self, slot: u32) {
        self.refs[slot as usize] += 1;
    }

    /// A table's `store`: the current record replaces the evicted slot.
    /// Every table that stores the current record shares its slot.
    fn replace(&mut self, evicted: Option<u32>) -> u32 {
        if let Some(slot) = evicted {
            self.refs[slot as usize] -= 1;
            if self.refs[slot as usize] == 0 {
                self.free.push(slot);
            }
        }
        let slot = *self.current.get_or_insert_with(|| {
            self.free.pop().unwrap_or_else(|| {
                self.refs.push(0);
                self.refs.len() as u32 - 1
            })
        });
        self.acquire(slot);
        slot
    }

    /// End of the current record: the slot some table stored it in, if
    /// any, now holds its signature and DDS.
    fn settle(&mut self, sig: &'a S, dds: f64) {
        if let Some(slot) = self.current.take() {
            let slot = slot as usize;
            if slot == self.sig.len() {
                self.sig.push(sig);
                self.dds.push(dds);
            } else {
                (self.sig[slot], self.dds[slot]) = (sig, dds);
            }
        }
    }
}

/// One record's gate against every live slot, computed once and shared by
/// every class: `gated[c][slot]` is the slot's distance when DDS column
/// `c` admits it, else `+inf`.
struct Gate<'a, S: ?Sized> {
    /// Each column's DDS threshold (`None`: no DDS gate).
    columns: Vec<Option<f64>>,
    /// A threshold admitting whatever some column admits: `rd < t` for
    /// some `t` iff `rd < max t` (a NaN `t` admits nothing).
    widest: Option<f64>,
    gated: Vec<Vec<f64>>,
    /// Per slot: the DDS difference, and the distance (`+inf` where no
    /// column admits the slot, so it is never computed).
    diff: Vec<f64>,
    dist: Vec<f64>,
    /// The slots whose distance is computed, their signatures, the
    /// distances.
    need: Vec<usize>,
    rows: Vec<&'a S>,
    out: Vec<f64>,
}

impl<'a, S: ?Sized> Gate<'a, S> {
    fn new(columns: Vec<Option<f64>>) -> Self {
        Self {
            widest: columns
                .iter()
                .try_fold(f64::NEG_INFINITY, |wide, &t| t.map(|t| wide.max(t))),
            gated: vec![Vec::new(); columns.len()],
            columns,
            diff: Vec::new(),
            dist: Vec::new(),
            need: Vec::new(),
            rows: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Gate the record `(sig, dds)` against every live slot, measuring
    /// the admitted ones with `distance`.
    fn fill(
        &mut self,
        live: &LiveSet<'a, S>,
        sig: &S,
        dds: f64,
        distance: &mut impl FnMut(&S, &[&'a S], &mut [f64]),
    ) {
        let slots = live.sig.len();
        self.diff.resize(slots, 0.0);
        self.need.resize(slots, 0);
        self.rows.clear();
        self.rows.extend_from_slice(&live.sig);
        // Branch-free compaction: every slot is written at `k`, and `k`
        // advances past the live ones the widest column admits.
        let mut k = 0;
        let slot_data = live.sig.iter().zip(&live.dds).zip(&live.refs);
        for (s, ((&row, &slot_dds), &refs)) in slot_data.enumerate() {
            let rd = relative_diff(dds, slot_dds);
            self.diff[s] = rd;
            self.need[k] = s;
            self.rows[k] = row;
            k += ((refs > 0) & self.widest.is_none_or(|t| rd < t)) as usize;
        }
        self.need.truncate(k);
        self.rows.truncate(k);
        self.out.resize(k, 0.0);
        distance(sig, &self.rows, &mut self.out);
        self.dist.clear();
        self.dist.resize(slots, f64::INFINITY);
        for (&s, &d) in self.need.iter().zip(&self.out) {
            self.dist[s] = d;
        }
        for (g, t) in self.gated.iter_mut().zip(&self.columns) {
            g.resize(slots, f64::INFINITY);
            match *t {
                // Every live distance was computed: nothing is gated.
                None => g.copy_from_slice(&self.dist),
                Some(t) => {
                    for ((g, &rd), &d) in g.iter_mut().zip(&self.diff).zip(&self.dist) {
                        *g = if rd < t { d } else { f64::INFINITY };
                    }
                }
            }
        }
    }
}

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
        let point = [(thresholds.bbv, dds_thr)];
        let rows = Self::bbv_rows(records);
        let stream = Self::bbv_stream(records, &rows, None);
        Self::sweep_proc(stream, manhattan_rows, &point, footprint_vectors).classes.swap_remove(0)
    }

    /// Every record's normalized BBV
    /// ([`IntervalRecord::normalized_bbv_into`]), one row after another: the
    /// rows [`Self::bbv_stream`] replays. Built per processor when a sweep
    /// starts, so the captured trace keeps only the counts.
    pub fn bbv_rows(records: &[IntervalRecord]) -> Vec<f64> {
        let width = records.first().map_or(0, |r| r.bbv().len());
        let mut rows = Vec::with_capacity(width * records.len());
        for r in records {
            assert_eq!(r.bbv().len(), width, "one BBV width per processor");
            push_normalized(r.bbv(), r.bbv_total(), &mut rows);
        }
        rows
    }

    /// The `(signature, DDS)` stream the BBV and BBV+DDV sweeps replay:
    /// record `i`'s row of `rows` (normally [`Self::bbv_rows`] of
    /// `records`) with the record's own DDS, or with `dds[i]` when given.
    pub fn bbv_stream<'a>(
        records: &'a [IntervalRecord],
        rows: &'a [f64],
        dds: Option<&'a [f64]>,
    ) -> impl ExactSizeIterator<Item = (&'a [f64], f64)> + 'a {
        let width = records.first().map_or(0, |r| r.bbv().len());
        assert_eq!(rows.len(), width * records.len(), "one row per record");
        if let Some(dds) = dds {
            assert_eq!(records.len(), dds.len());
        }
        let with_dds = move |(i, r): (usize, &'a IntervalRecord)| {
            (&rows[i * width..(i + 1) * width], dds.map_or(r.dds, |d| d[i]))
        };
        records.iter().enumerate().map(with_dds)
    }

    /// Multi-threshold replay: classify one processor's stream of
    /// `(signature, DDS)` records at every `(threshold, dds_threshold)`
    /// point of `grid` (`None` gates on the signature alone). Every
    /// detector replays through here and differs only in its signature and
    /// `distance`, which writes each stored row's distance from the query
    /// into `out`: BBV Manhattan distance
    /// ([`manhattan_rows`](crate::distance::manhattan_rows)) for BBV,
    /// BBV+DDV and the vector-DDV extension, the relative signature
    /// distance for working sets, the relative difference for branch
    /// counts.
    ///
    /// Grid points whose tables have made the same decisions so far hold
    /// the same table, so one table advances per *class*: a contiguous run
    /// of ascending thresholds within one DDS column. Per record, the
    /// class's [`FootprintTable::nearest`] gives `d*`, the distance of the
    /// entry every point would match if its threshold let it. Points with
    /// `threshold > d*` match that entry and the rest (a prefix of the run)
    /// allocate a new phase. When a class needs both decisions, the prefix
    /// forks off with a copy of the table and id history; classes never
    /// merge. A NaN threshold matches nothing, like `-inf`.
    ///
    /// Every entry is a copy of an earlier record's signature, so the sweep
    /// gates each record once rather than once per class. It keeps the
    /// *live set*: the records some class's table stores, each in a slot
    /// that counts its tables through every commit, eviction and fork. The
    /// tables store slot numbers. Per record, a `Gate` computes each live
    /// slot's relative DDS difference once, and its distance once when the
    /// widest DDS column admits it, in one `distance` call over all such
    /// slots. That row fills one gated array per DDS column, the distance
    /// or `+inf`, and each class's `nearest` closure looks its entries up
    /// there. The ids are bit-identical to replaying each point on its own
    /// through [`FootprintTable::classify_with`] with the same distance.
    /// Memory is O(records × classes) for the id streams, plus O(live set
    /// × DDS columns) for the gate.
    pub fn sweep_proc<'a, S: ?Sized + 'a>(
        stream: impl ExactSizeIterator<Item = (&'a S, f64)>,
        mut distance: impl FnMut(&S, &[&'a S], &mut [f64]),
        grid: &[(f64, Option<f64>)],
        footprint_vectors: usize,
    ) -> Sweep {
        let records = stream.len();
        assert!(u32::try_from(records).is_ok(), "a slot number must fit an entry");
        let column = |k: usize| grid[k].1.map(f64::to_bits);
        let threshold = |k: usize| {
            if grid[k].0.is_nan() {
                f64::NEG_INFINITY
            } else {
                grid[k].0
            }
        };
        // Grid points by DDS column, then by ascending threshold.
        let mut order: Vec<usize> = (0..grid.len()).collect();
        order.sort_by(|&a, &b| {
            column(a)
                .cmp(&column(b))
                .then(threshold(a).total_cmp(&threshold(b)))
        });
        let sorted: Vec<f64> = order.iter().map(|&k| threshold(k)).collect();

        let mut classes: Vec<SweepClass> = Vec::new();
        let mut columns: Vec<Option<f64>> = Vec::new();
        for run in order.chunk_by(|&a, &b| column(a) == column(b)) {
            let start = classes.last().map_or(0, |c| c.span.end);
            classes.push(SweepClass {
                span: start..start + run.len(),
                column: columns.len(),
                table: FootprintTable::reserved(footprint_vectors),
                ids: Vec::with_capacity(records),
            });
            columns.push(grid[run[0]].1);
        }
        let mut gate = Gate::new(columns);
        let mut live = LiveSet::new();
        let mut forks: Vec<SweepClass> = Vec::new();
        for (sig, d) in stream {
            gate.fill(&live, sig, d, &mut distance);
            for class in &mut classes {
                let g = &gate.gated[class.column];
                let hit = class.table.nearest(|e| g[e.sig as usize]);
                // Points with `threshold <= d*` (a prefix) allocate a new
                // phase and the rest match `d*`'s entry; the prefix forks
                // off when both are present.
                let span = class.span.clone();
                let split = hit.map_or(span.end, |(_, nearest)| {
                    // Most classes lie wholly on one side of `d*`.
                    let ts = &sorted[span.clone()];
                    span.start
                        + match (ts[0] > nearest, ts[ts.len() - 1] <= nearest) {
                            (true, _) => 0,
                            (_, true) => ts.len(),
                            _ => ts.partition_point(|&t| t <= nearest),
                        }
                });
                if span.start < split && split < span.end {
                    let mut ids = Vec::with_capacity(records);
                    ids.extend_from_slice(&class.ids);
                    let mut fork = SweepClass {
                        span: span.start..split,
                        column: class.column,
                        table: class.table.fork(),
                        ids,
                    };
                    for e in fork.table.entries() {
                        live.acquire(e.sig);
                    }
                    let m = fork.table.commit(None, d, |evicted| live.replace(evicted));
                    fork.ids.push(m.phase_id);
                    forks.push(fork);
                    class.span.start = split;
                }
                // What is left of the class matches iff it starts at the split.
                let hit = hit.filter(|_| class.span.start == split);
                let m = class.table.commit(hit, d, |evicted| live.replace(evicted));
                class.ids.push(m.phase_id);
            }
            classes.append(&mut forks);
            live.settle(sig, d);
        }

        let mut class_of = vec![0; grid.len()];
        for (c, class) in classes.iter().enumerate() {
            for &k in &order[class.span.clone()] {
                class_of[k] = c;
            }
        }
        Sweep {
            comparisons: classes.iter().map(|c| c.table.comparisons()).sum(),
            class_of,
            classes: classes.into_iter().map(|c| c.ids).collect(),
        }
    }

    /// Classify with an externally recomputed DDS per interval (ablations:
    /// `C ≡ 1`, `D ≡ 1`, DDS-only).
    pub fn classify_proc_with_dds(
        records: &[IntervalRecord],
        dds: &[f64],
        thresholds: Thresholds,
        footprint_vectors: usize,
    ) -> Vec<u32> {
        let point = [(thresholds.bbv, Some(thresholds.dds))];
        let rows = Self::bbv_rows(records);
        let stream = Self::bbv_stream(records, &rows, Some(dds));
        Self::sweep_proc(stream, manhattan_rows, &point, footprint_vectors).classes.swap_remove(0)
    }
}

// ---------------------------------------------------------------------------
// Online detection (the hardware path)
// ---------------------------------------------------------------------------

/// Classifies intervals as they complete, like the paper's hardware.
///
/// Internally this is the crate's shared gather half (see
/// [`crate::signature`]) composed with a [`ClassifierBank`] — the same
/// kernel `dsm-serve` runs per tenant, so in-simulator and served
/// classification are bit-identical by construction. Reusable buffers (the
/// gather's DDS sample, the detector's BBV row) keep the end-of-interval
/// path (DDV query + BBV normalization + table lookup) allocation-free in
/// steady state.
pub struct OnlineDetector {
    pub(crate) gather: Gather,
    pub(crate) bank: ClassifierBank,
    /// Classified intervals, per processor, in order.
    pub classified: Vec<Vec<ClassifiedInterval>>,
    /// Telemetry recorder (no-op stub unless the `telemetry` feature is on).
    telem: DetectorTelemetry,
    probes: DetectorProbes,
    /// Cumulative interval cycles per processor — the timestamp base for
    /// classification spans (one plain add per *interval*, not per event).
    cum_cycles: Vec<u64>,
    /// The interval being classified's normalized BBV, reused.
    bbv_row: Vec<f64>,
}

impl OnlineDetector {
    pub fn new(
        n_procs: usize,
        dist: Vec<f64>,
        mode: DetectorMode,
        thresholds: Thresholds,
        geometry: DetectorGeometry,
    ) -> Self {
        let model = AvailabilityModel::reliable();
        Self::with_availability(n_procs, dist, mode, thresholds, geometry, model)
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
        let mut telem = DetectorTelemetry::new(n_procs);
        let probes = DetectorProbes::register(&mut telem, n_procs);
        let style = GatherStyle::for_availability(n_procs, model);
        let bbv = (0..n_procs).map(|_| BbvAccumulator::new(geometry.bbv_entries)).collect();
        Self {
            gather: Gather::new(bbv, DdvState::new(n_procs, dist), style),
            bank: ClassifierBank::new(n_procs, mode, thresholds, geometry.footprint_vectors),
            classified: vec![Vec::new(); n_procs],
            telem,
            probes,
            cum_cycles: vec![0; n_procs],
            bbv_row: Vec::new(),
        }
    }

    pub fn mode(&self) -> DetectorMode {
        self.bank.mode()
    }

    pub fn thresholds(&self) -> Thresholds {
        self.bank.thresholds()
    }

    /// The availability model in force, if any.
    pub fn availability(&self) -> Option<&AvailabilityModel> {
        self.gather.deadline().map(|(m, _)| m)
    }

    /// Total DDV rows substituted from stale caches so far.
    pub fn rows_substituted(&self) -> u64 {
        self.gather.deadline().map_or(0, |(_, c)| c.substitutions())
    }

    /// Forget processor `proc`'s staleness state (context switch: the
    /// incoming thread must not inherit the outgoing thread's stale rows).
    pub fn reset_staleness(&mut self, proc: usize) {
        self.gather.reset_staleness(proc);
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
        self.gather.ddv.publish_metrics("detector/ddv", reg);
    }
}

impl SimObserver for OnlineDetector {
    #[inline]
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32) {
        self.gather.record_block(proc, bb, insns);
    }

    #[inline]
    fn on_mem_commit(&mut self, proc: usize, home: usize, _addr: u64, _write: bool) {
        self.gather.record_mem(proc, home);
    }

    fn on_interval(&mut self, proc: usize, stats: IntervalStats) {
        self.gather.bbv[proc].normalized_into(&mut self.bbv_row);
        let degraded = self.gather.end_interval(proc, stats.index);
        let c = self.bank.classify_raw(
            proc,
            stats.index,
            stats.cpi(),
            &self.bbv_row,
            self.gather.sample.dds,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::rowwise;

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
        assert_eq!(r0.fvec(), [2, 1]);
        assert_eq!(r0.insns, 500);
        assert!((r0.cpi() - 2.0).abs() < 1e-12);
        assert_eq!(r0.branches, 10);
        // Second interval's counters started fresh.
        let r1 = &c.records[0][1];
        assert_eq!(r1.fvec(), [0, 3]);
        assert_eq!(r1.branches, 10);
        // BBVs of different code differ.
        assert_ne!(r0.bbv(), r1.bbv());
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
        assert_eq!(r.fvec(), [1, 0]);
        assert_eq!(r.cvec(), [6, 0], "C includes P1's accesses");
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
        let vector_ddv = |data_weight| {
            let vs: Vec<Vec<f64>> = recs.iter().map(|r| r.vector_ddv(&dist, data_weight)).collect();
            let stream = vs.iter().map(|v| (v.as_slice(), 0.0));
            TraceClassifier::sweep_proc(stream, manhattan_rows, &[(0.5, None)], 32)
                .classes
                .swap_remove(0)
        };

        // With data weight, the home-3 interval becomes its own phase.
        let ids = vector_ddv(1.0);
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2], "home mix must split same-code intervals");

        // With zero weight it degenerates to the BBV-only result.
        let v0 = vector_ddv(0.0);
        let bbv = TraceClassifier::classify_proc(
            recs,
            DetectorMode::Bbv,
            Thresholds::bbv_only(0.5),
            32,
        );
        assert_eq!(v0, bbv);
    }

    /// Hypercube distance row for tests.
    /// Phase ids of a stream of branch counts through the shared sweep at
    /// one relative-difference threshold: the branch-count baseline.
    fn branch_count_ids(counts: &[u64], threshold: f64, capacity: usize) -> Vec<u32> {
        let counts: Vec<f64> = counts.iter().map(|&b| b as f64).collect();
        let stream = counts.iter().map(|b| (b, 0.0));
        let distance = rowwise(|a: &f64, b: &f64| relative_diff(*a, *b));
        TraceClassifier::sweep_proc(stream, distance, &[(threshold, None)], capacity)
            .classes
            .swap_remove(0)
    }

    #[test]
    fn branch_count_similar_counts_share_a_phase() {
        assert_eq!(branch_count_ids(&[10_000, 10_500], 0.1, 8), [0, 0]);
    }

    #[test]
    fn branch_count_distant_counts_split_phases() {
        assert_eq!(branch_count_ids(&[10_000, 20_000], 0.1, 8), [0, 1]);
    }

    #[test]
    fn branch_count_nearest_count_wins() {
        // 1_100 is within 0.9 of both, but much closer to 1_000.
        assert_eq!(branch_count_ids(&[1_000, 100_000, 1_100], 0.9, 8), [0, 1, 0]);
    }

    #[test]
    fn branch_count_cannot_distinguish_different_code_same_density() {
        // The baseline's fundamental weakness, stated as a test: some loop,
        // then entirely different code with the same branch density.
        assert_eq!(branch_count_ids(&[5_000, 5_001], 0.05, 8), [0, 0]);
    }

    #[test]
    fn branch_count_lru_eviction_when_full() {
        // 1_000_000 evicts 100, which then gets a fresh phase id.
        let ids = branch_count_ids(&[100, 10_000, 1_000_000, 100], 0.01, 2);
        assert_eq!(ids, [0, 1, 2, 3]);
    }

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

    #[test]
    fn records_keep_counts_that_normalize_to_the_served_bbv() {
        let mut coll = TraceCollector::for_hypercube(2, DetectorGeometry::default());
        let mut ext = crate::signature::SignatureExtractor::new(
            2,
            hypercube_distance(2),
            DetectorGeometry::default(),
        );
        for (i, code) in [7, 9, 7].into_iter().enumerate() {
            for obs in [&mut coll as &mut dyn SimObserver, &mut ext] {
                obs.on_block_commit(0, code, 30);
                obs.on_block_commit(0, code + 1, 20);
                obs.on_mem_commit(0, 1, 0x40, false);
                obs.on_interval(0, stats(i as u64, 50, 100));
            }
        }
        // An interval with no committed block normalizes to zeros.
        coll.on_interval(0, stats(3, 0, 100));
        ext.on_interval(0, stats(3, 0, 100));
        let recs = &coll.records[0];
        assert_eq!(recs[0].bbv_total(), 50);
        assert_eq!(recs[0].fvec(), [0, 1]);
        for (r, s) in recs.iter().zip(&ext.signatures[0]) {
            assert_eq!(r.normalized_bbv(), s.bbv, "interval {}", r.index);
        }
        let rows = TraceClassifier::bbv_rows(recs);
        assert_eq!(rows.len(), 4 * DEFAULT_BBV_ENTRIES);
        let streamed: Vec<&[f64]> =
            TraceClassifier::bbv_stream(recs, &rows, None).map(|(row, _)| row).collect();
        for (row, s) in streamed.into_iter().zip(&ext.signatures[0]) {
            assert_eq!(row, s.bbv.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "F_i count 4294967296 exceeds u32::MAX")]
    fn a_count_past_u32_names_its_field() {
        counts("F_i", &[3, u64::from(u32::MAX) + 1]).for_each(drop);
    }
}
