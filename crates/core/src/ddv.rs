//! The Data Distribution Vector (DDV) — the paper's contribution (§III-B).
//!
//! Each node keeps a frequency matrix `F`: on behalf of every processor `i`
//! in the system, it counts the loads/stores *this node* committed to blocks
//! with home `j` since `i` last started a new interval. When processor `i`
//! ends an interval it queries every node's `F_i` row (each node zeroes its
//! row as it answers), sums the rows into the contention vector `C`, and
//! computes the data distribution scalar
//!
//! ```text
//! DDS = Σ_j  F[i][j] · D[i][j] · C[j]
//! ```
//!
//! where `F[i][j]` are `i`'s own per-home access counts, `D` is the
//! pre-programmed distance matrix (1 on the diagonal), and `C[j]` is the
//! system-wide access frequency to home `j` during `i`'s interval.
//!
//! ### Implementation note: O(1) hardware-equivalent counters
//!
//! The paper's hardware increments *all* `F_kj, 1 ≤ k ≤ n` on every commit
//! (n counters ticking in parallel). In software that would cost O(n) per
//! memory event. We store instead one cumulative counter per home plus a
//! per-requester snapshot taken at query time: `F_i[j] = cum[j] - snap[i][j]`.
//! Since every `F_kj` in the paper's scheme counts exactly the accesses to
//! home `j` between `k`'s queries, the two representations are equal at
//! every query point — [`NaiveFrequencyMatrix`] implements the literal
//! hardware scheme and the property tests assert the equivalence.
//!
//! ### Implementation note: O(n) aggregate gather
//!
//! The per-node snapshot trick makes *recording* O(1), but the gather that
//! ends an interval still walked all n matrices draining n-entry rows —
//! O(n²) per interval, and the measured hot spot of a 64P+ capture. The
//! same algebra collapses it to O(n): keep one *global* cumulative vector
//! `G[j] = Σ_q cum_q[j]` (one extra add per commit) plus a per-requester
//! snapshot `S_i` of `G` taken at `i`'s gathers. Then
//!
//! ```text
//! C[j] = Σ_q (cum_q[j] - snap_q[i][j]) = G[j] - S_i[j]
//! ```
//!
//! because every `snap_q[i]` row is pinned at the same gather point, so
//! their sum *is* `G` at that point. Differences of u64 sums equal sums of
//! u64 differences exactly, so the fast gather is bit-identical to the
//! reference walk — [`DdvState::end_interval_reference_into`] keeps the
//! O(n²) walk alive to pin that equivalence, in tests and as the reference
//! arm of the harness's scale sweep. `F_i` itself only needs node `i`'s own
//! matrix (one row drain, O(n)).
//!
//! The [`DegradedCollector`] cannot use the aggregate: it must know *which*
//! node's row arrived, so it keeps the per-matrix walk. A given `DdvState`
//! instance must therefore stick to one gather style — mixing the fast
//! path with the reference/degraded walks on one instance desynchronizes
//! `S_i`. The observers never call these gathers themselves: they run the
//! crate's one shared gather (in [`crate::signature`]), whose style is an
//! enum chosen at construction with no way to change it afterwards.

use serde::{Deserialize, Serialize};

/// One node's frequency matrix (snapshot representation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequencyMatrix {
    n: usize,
    /// Cumulative committed accesses by this node, per home.
    cum: Vec<u64>,
    /// Per-requester snapshot of `cum` at its last query, row-major `[i][j]`.
    snap: Vec<u64>,
}

impl FrequencyMatrix {
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self { n, cum: vec![0; n], snap: vec![0; n * n] }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// This node committed a load/store to a block homed at `home`.
    #[inline]
    pub fn record(&mut self, home: usize) {
        self.cum[home] += 1;
    }

    /// Answer requester `i`'s query: return `F_i` (accesses per home since
    /// `i`'s last query) and zero the row, per the paper's protocol.
    pub fn query(&mut self, i: usize) -> Vec<u64> {
        let mut out = vec![0u64; self.n];
        self.drain_row_into(i, &mut out);
        out
    }

    /// Allocation-free form of [`Self::query`]: *add* `F_i` into `acc`
    /// (which must have length `n`) and zero the row. Adding rather than
    /// overwriting lets the caller accumulate the contention vector `C`
    /// across all nodes without a temporary per-node buffer.
    #[inline]
    pub fn drain_row_into(&mut self, i: usize, acc: &mut [u64]) {
        debug_assert_eq!(acc.len(), self.n);
        let row = &mut self.snap[i * self.n..(i + 1) * self.n];
        for ((a, &c), s) in acc.iter_mut().zip(self.cum.iter()).zip(row.iter_mut()) {
            *a += c - *s;
            *s = c;
        }
    }

    /// Read `F_i` without zeroing (diagnostics only; hardware can't do this).
    pub fn peek(&self, i: usize) -> Vec<u64> {
        self.snap[i * self.n..(i + 1) * self.n]
            .iter()
            .zip(&self.cum)
            .map(|(s, c)| c - s)
            .collect()
    }

    /// Reset everything (context switch).
    pub fn clear(&mut self) {
        self.cum.iter_mut().for_each(|c| *c = 0);
        self.snap.iter_mut().for_each(|s| *s = 0);
    }
}

/// One frequency matrix's dynamic state (checkpointing).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequencySnap {
    pub cum: Vec<u64>,
    pub snap: Vec<u64>,
}

/// [`DdvState`]'s dynamic state: per-node matrices plus gather counters.
/// The distance matrix is config-derived and not stored.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdvSnap {
    pub mats: Vec<FrequencySnap>,
    /// Global cumulative per-home commit counts (`G`).
    pub gcum: Vec<u64>,
    /// Per-requester snapshot of `G` at its last gather, row-major.
    pub gsnap: Vec<u64>,
    pub queries: u64,
    pub vectors_exchanged: u64,
    /// Critical-path collection rounds accumulated across gathers.
    pub gather_rounds: u64,
}

/// Literal implementation of the paper's hardware: n×n counters, all rows
/// incremented on every commit. Used to validate [`FrequencyMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveFrequencyMatrix {
    n: usize,
    /// `counts[i][j]`: accesses to home j on behalf of requester i.
    counts: Vec<u64>,
}

impl NaiveFrequencyMatrix {
    pub fn new(n: usize) -> Self {
        Self { n, counts: vec![0; n * n] }
    }

    pub fn record(&mut self, home: usize) {
        // "Every time processor p commits a load or a store ... it
        // increments all F_kj, 1 <= k <= n."
        for i in 0..self.n {
            self.counts[i * self.n + home] += 1;
        }
    }

    pub fn query(&mut self, i: usize) -> Vec<u64> {
        let row = &mut self.counts[i * self.n..(i + 1) * self.n];
        let out = row.to_vec();
        row.iter_mut().for_each(|c| *c = 0);
        out
    }
}

/// A sample produced at the end of one processor's interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdsSample {
    /// `F_i`: the requester's own per-home access counts this interval.
    pub fvec: Vec<u64>,
    /// `C`: system-wide per-home access counts over the same window.
    pub cvec: Vec<u64>,
    /// The data distribution scalar.
    pub dds: f64,
}

impl DdsSample {
    /// An empty sample, suitable as a reusable scratch target for
    /// [`DdvState::end_interval_into`].
    pub fn empty() -> Self {
        Self { fvec: Vec::new(), cvec: Vec::new(), dds: 0.0 }
    }
}

/// The n×n hypercube distance matrix `1 + hops`, row-major (1 on the
/// diagonal), for `n` a power of two.
pub fn hypercube_distance(n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two());
    let mut dist = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            dist[i * n + j] = if i == j { 1.0 } else { 1.0 + ((i ^ j) as u64).count_ones() as f64 };
        }
    }
    dist
}

/// System-wide DDV state: one frequency matrix per node plus the
/// pre-programmed distance matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdvState {
    n: usize,
    mats: Vec<FrequencyMatrix>,
    /// Global cumulative per-home commit counts: `gcum[j] = Σ_q cum_q[j]`.
    gcum: Vec<u64>,
    /// Per-requester snapshot of `gcum` at its last gather, row-major.
    gsnap: Vec<u64>,
    /// Distance matrix, row-major; `dist[i*n+j]`, 1.0 on the diagonal.
    dist: Vec<f64>,
    queries: u64,
    vectors_exchanged: u64,
    gather_rounds: u64,
}

impl DdvState {
    /// `dist` must be an n×n row-major matrix with `dist[i][i] == 1`.
    pub fn new(n: usize, dist: Vec<f64>) -> Self {
        assert_eq!(dist.len(), n * n, "distance matrix must be n x n");
        for i in 0..n {
            assert!(
                (dist[i * n + i] - 1.0).abs() < 1e-12,
                "D[i][i] must be 1 (paper definition)"
            );
        }
        Self {
            n,
            mats: (0..n).map(|_| FrequencyMatrix::new(n)).collect(),
            gcum: vec![0; n],
            gsnap: vec![0; n * n],
            dist,
            queries: 0,
            vectors_exchanged: 0,
            gather_rounds: 0,
        }
    }

    /// Convenience: build with the hypercube distance matrix `1 + hops`.
    pub fn for_hypercube(n: usize) -> Self {
        Self::new(n, hypercube_distance(n))
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Processor `p` committed an access to a block homed at `home`.
    #[inline]
    pub fn record_access(&mut self, p: usize, home: usize) {
        self.mats[p].record(home);
        self.gcum[home] += 1;
    }

    /// Processor `i` ends an interval: gather all `F_i` rows (zeroing them),
    /// build `C`, and compute the DDS.
    pub fn end_interval(&mut self, i: usize) -> DdsSample {
        let mut sample = DdsSample::empty();
        self.end_interval_into(i, &mut sample);
        sample
    }

    /// [`Self::end_interval`] into a caller-owned sample, reusing its `fvec`
    /// and `cvec` buffers. This is the per-interval hot path: the O(n)
    /// aggregate gather (see the module notes) — `C = G - S_i` plus one row
    /// drain for `F_i` — bit-identical to the O(n²) reference walk kept in
    /// [`Self::end_interval_reference_into`].
    pub fn end_interval_into(&mut self, i: usize, sample: &mut DdsSample) {
        sample.fvec.clear();
        sample.fvec.resize(self.n, 0);
        self.mats[i].drain_row_into(i, &mut sample.fvec);
        self.account_gather();
        sample.cvec.clear();
        sample.cvec.resize(self.n, 0);
        let srow = &mut self.gsnap[i * self.n..(i + 1) * self.n];
        for ((c, &g), s) in sample.cvec.iter_mut().zip(self.gcum.iter()).zip(srow.iter_mut()) {
            *c = g - *s;
            *s = g;
        }
        sample.dds = Self::dds_of(&sample.fvec, &self.dist[i * self.n..(i + 1) * self.n], &sample.cvec);
    }

    /// The pre-optimization reference gather: walk every node's matrix and
    /// drain its `F_i` row. O(n²) per interval. Kept to pin the
    /// bit-equivalence of the fast aggregate path (tests and the scale
    /// sweep's reference arm); do not mix both paths on one instance — each
    /// maintains snapshot state the other does not.
    pub fn end_interval_reference_into(&mut self, i: usize, sample: &mut DdsSample) {
        self.account_gather();
        sample.fvec.clear();
        sample.fvec.resize(self.n, 0);
        sample.cvec.clear();
        sample.cvec.resize(self.n, 0);
        for (q, mat) in self.mats.iter_mut().enumerate() {
            // `F_i` goes straight into fvec; every other node's row is summed
            // into cvec. `C = Σ_q row_q` is restored below by adding fvec —
            // u64 sums commute, so this equals the reference per-row gather.
            if q == i {
                mat.drain_row_into(i, &mut sample.fvec);
            } else {
                mat.drain_row_into(i, &mut sample.cvec);
            }
        }
        for (c, &f) in sample.cvec.iter_mut().zip(sample.fvec.iter()) {
            *c += f;
        }
        sample.dds = Self::dds_of(&sample.fvec, &self.dist[i * self.n..(i + 1) * self.n], &sample.cvec);
    }

    /// Account one all-to-one gather: `n - 1` remote rows in one round.
    fn account_gather(&mut self) {
        self.queries += 1;
        self.vectors_exchanged += (self.n - 1) as u64;
        self.gather_rounds += u64::from(self.n > 1);
    }

    /// The DDS formula over explicit vectors (exposed for ablations, which
    /// recompute DDS with `C ≡ 1` or `D ≡ 1`).
    /// The counts may be the live gather's `u64`s or a captured record's
    /// `u32`s; both widen exactly to `f64`.
    pub fn dds_of<F: Copy + Into<u64>, C: Copy + Into<u64>>(
        fvec: &[F],
        dist_row: &[f64],
        cvec: &[C],
    ) -> f64 {
        fvec.iter()
            .zip(dist_row)
            .zip(cvec)
            .map(|((&f, &d), &c)| f.into() as f64 * d * c.into() as f64)
            .sum()
    }

    /// Distance-matrix row for processor `i`.
    pub fn dist_row(&self, i: usize) -> &[f64] {
        &self.dist[i * self.n..(i + 1) * self.n]
    }

    /// Total end-of-interval queries served (for the §III-B overhead model).
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Total remote `F_i` vectors exchanged.
    pub fn vectors_exchanged(&self) -> u64 {
        self.vectors_exchanged
    }

    /// Critical-path collection rounds accumulated across all gathers: one
    /// per gather, since every remote row goes straight to the requester.
    pub fn gather_rounds(&self) -> u64 {
        self.gather_rounds
    }

    /// Mirror the gather counters into a metrics registry under `prefix`
    /// (e.g. `detector/ddv`) — the same numbers the §III-B overhead model
    /// consumes, now reportable alongside every other run metric.
    pub fn publish_metrics(&self, prefix: &str, reg: &mut dsm_telemetry::MetricsRegistry) {
        reg.counter_add(&format!("{prefix}/queries"), self.queries);
        reg.counter_add(&format!("{prefix}/vectors_exchanged"), self.vectors_exchanged);
        reg.counter_add(&format!("{prefix}/gather_rounds"), self.gather_rounds);
    }

    /// Reset all counters (context switch).
    pub fn clear(&mut self) {
        for m in &mut self.mats {
            m.clear();
        }
        self.gcum.iter_mut().for_each(|g| *g = 0);
        self.gsnap.iter_mut().for_each(|s| *s = 0);
    }

    /// Export the full dynamic state for checkpointing.
    pub fn export_state(&self) -> DdvSnap {
        DdvSnap {
            mats: self
                .mats
                .iter()
                .map(|m| FrequencySnap { cum: m.cum.clone(), snap: m.snap.clone() })
                .collect(),
            gcum: self.gcum.clone(),
            gsnap: self.gsnap.clone(),
            queries: self.queries,
            vectors_exchanged: self.vectors_exchanged,
            gather_rounds: self.gather_rounds,
        }
    }

    /// Restore state captured by [`DdvState::export_state`]. Panics when the
    /// snapshot was taken on a differently sized system.
    pub fn import_state(&mut self, st: &DdvSnap) {
        assert_eq!(st.mats.len(), self.n, "DDV snapshot is for a different machine");
        assert_eq!(st.gcum.len(), self.n, "DDV snapshot is for a different machine");
        assert_eq!(st.gsnap.len(), self.n * self.n, "DDV snapshot is for a different machine");
        for (m, s) in self.mats.iter_mut().zip(&st.mats) {
            assert_eq!(s.cum.len(), m.cum.len(), "DDV snapshot is for a different machine");
            assert_eq!(s.snap.len(), m.snap.len(), "DDV snapshot is for a different machine");
            m.cum.copy_from_slice(&s.cum);
            m.snap.copy_from_slice(&s.snap);
        }
        self.gcum.copy_from_slice(&st.gcum);
        self.gsnap.copy_from_slice(&st.gsnap);
        self.queries = st.queries;
        self.vectors_exchanged = st.vectors_exchanged;
        self.gather_rounds = st.gather_rounds;
    }
}

// ---------------------------------------------------------------------------
// Deadline-degraded row collection
// ---------------------------------------------------------------------------

/// Gathers `F_i` rows under a collection deadline, tolerating missing rows.
///
/// In a faulty system a remote node's `F_i` row may not reach the requester
/// before the end-of-interval deadline (derived from the network's
/// worst-case one-way latency plus the retry budget). The paper's gather is
/// all-or-nothing; this collector implements the graceful fallback: a
/// missing row is substituted by the *last row actually received* from that
/// node, weighted down by its staleness — each consecutive miss halves the
/// substituted counts (`row >> staleness`), so a long-silent node's stale
/// contribution decays toward zero instead of freezing the contention
/// vector `C` in the past.
///
/// The remote node keeps counting while silent (rows are only drained on a
/// successful gather), so when it reappears its next row covers the whole
/// silent window and `C` catches up; nothing is permanently lost.
///
/// Staleness is tracked per `(requester, source)` pair. The caller maps the
/// maximum staleness among substituted rows to a classification decision
/// (see `AvailabilityModel` in the detector: past a configurable bound the
/// DDS is too stale to trust and classification degrades to BBV-only).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedCollector {
    n: usize,
    /// Last successfully received row, flattened `[requester][source][home]`.
    last_rows: Vec<u64>,
    /// Consecutive missed gathers, flattened `[requester][source]`.
    staleness: Vec<u64>,
    /// Rows substituted from stale caches, total.
    substitutions: u64,
    scratch: Vec<u64>,
}

impl DegradedCollector {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            last_rows: vec![0; n * n * n],
            staleness: vec![0; n * n],
            substitutions: 0,
            scratch: vec![0; n],
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Total rows substituted from stale caches so far.
    pub fn substitutions(&self) -> u64 {
        self.substitutions
    }

    /// Consecutive misses of `source`'s row for `requester`'s gathers.
    pub fn staleness(&self, requester: usize, source: usize) -> u64 {
        self.staleness[requester * self.n + source]
    }

    /// Forget everything known on behalf of `requester` (context switch: an
    /// incoming thread must not inherit the outgoing thread's stale rows).
    pub fn reset_requester(&mut self, requester: usize) {
        let n = self.n;
        self.staleness[requester * n..(requester + 1) * n].fill(0);
        self.last_rows[requester * n * n..(requester + 1) * n * n].fill(0);
    }

    /// End requester `i`'s interval against `ddv`. `arrived(q)` reports
    /// whether node `q`'s row met the collection deadline (`q == i` is the
    /// local row and never queried). Returns the maximum staleness among
    /// substituted rows — 0 when every row arrived, in which case the sample
    /// is bit-identical to [`DdvState::end_interval_into`].
    pub fn end_interval_into(
        &mut self,
        ddv: &mut DdvState,
        i: usize,
        sample: &mut DdsSample,
        mut arrived: impl FnMut(usize) -> bool,
    ) -> u64 {
        let n = self.n;
        assert_eq!(n, ddv.n(), "collector and DDV state sized differently");
        ddv.queries += 1;
        ddv.gather_rounds += u64::from(n > 1);
        sample.fvec.clear();
        sample.fvec.resize(n, 0);
        sample.cvec.clear();
        sample.cvec.resize(n, 0);
        let mut max_staleness = 0u64;
        for q in 0..n {
            if q == i {
                ddv.mats[q].drain_row_into(i, &mut sample.fvec);
                continue;
            }
            let st = &mut self.staleness[i * n + q];
            if arrived(q) {
                ddv.vectors_exchanged += 1;
                *st = 0;
                // Drain into a scratch row so the received counts can be
                // cached before being folded into C.
                self.scratch.fill(0);
                ddv.mats[q].drain_row_into(i, &mut self.scratch);
                let cache = &mut self.last_rows[(i * n + q) * n..(i * n + q + 1) * n];
                cache.copy_from_slice(&self.scratch);
                for (c, &r) in sample.cvec.iter_mut().zip(self.scratch.iter()) {
                    *c += r;
                }
            } else {
                *st += 1;
                self.substitutions += 1;
                max_staleness = max_staleness.max(*st);
                let shift = (*st).min(63) as u32;
                let cache = &self.last_rows[(i * n + q) * n..(i * n + q + 1) * n];
                for (c, &r) in sample.cvec.iter_mut().zip(cache.iter()) {
                    *c += r >> shift;
                }
            }
        }
        for (c, &f) in sample.cvec.iter_mut().zip(sample.fvec.iter()) {
            *c += f;
        }
        sample.dds = DdvState::dds_of(&sample.fvec, ddv.dist_row(i), &sample.cvec);
        max_staleness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_returns_accesses_since_last_query() {
        let mut f = FrequencyMatrix::new(4);
        f.record(0);
        f.record(0);
        f.record(3);
        assert_eq!(f.query(1), vec![2, 0, 0, 1]);
        // Zeroed for requester 1, but requester 2 still sees everything.
        assert_eq!(f.query(1), vec![0, 0, 0, 0]);
        assert_eq!(f.query(2), vec![2, 0, 0, 1]);
        f.record(2);
        assert_eq!(f.query(1), vec![0, 0, 1, 0]);
    }

    #[test]
    fn peek_does_not_zero() {
        let mut f = FrequencyMatrix::new(2);
        f.record(1);
        assert_eq!(f.peek(0), vec![0, 1]);
        assert_eq!(f.query(0), vec![0, 1]);
        assert_eq!(f.peek(0), vec![0, 0]);
    }

    #[test]
    fn snapshot_matches_naive_hardware() {
        let mut fast = FrequencyMatrix::new(4);
        let mut naive = NaiveFrequencyMatrix::new(4);
        // Deterministic interleaving of records and queries.
        let mut x = 7u64;
        for step in 0..2000 {
            x = dsm_sim::util::splitmix64(x);
            if step % 13 == 0 {
                let i = (x % 4) as usize;
                assert_eq!(fast.query(i), naive.query(i), "at step {step}");
            } else {
                let home = (x % 4) as usize;
                fast.record(home);
                naive.record(home);
            }
        }
    }

    #[test]
    fn dds_formula_matches_paper() {
        // Two-node example like the paper's Fig. 3.
        let fvec = [10u64, 5];
        let dist = [1.0, 2.0];
        let cvec = [20u64, 30];
        // DDS = 10*1*20 + 5*2*30 = 200 + 300 = 500.
        assert_eq!(DdvState::dds_of(&fvec, &dist, &cvec), 500.0);
    }

    #[test]
    fn end_interval_gathers_all_nodes() {
        let mut d = DdvState::for_hypercube(2);
        // P0 makes 3 local accesses; P1 makes 2 accesses to home 0.
        d.record_access(0, 0);
        d.record_access(0, 0);
        d.record_access(0, 0);
        d.record_access(1, 0);
        d.record_access(1, 0);
        let s = d.end_interval(0);
        assert_eq!(s.fvec, vec![3, 0]);
        assert_eq!(s.cvec, vec![5, 0], "contention counts everyone's accesses");
        // DDS = 3 * 1.0 * 5 = 15.
        assert_eq!(s.dds, 15.0);
        // Rows were zeroed for requester 0 only.
        let s1 = d.end_interval(1);
        assert_eq!(s1.cvec, vec![5, 0], "requester 1's window still open");
    }

    #[test]
    fn remote_accesses_weighted_by_distance() {
        let mut d = DdvState::for_hypercube(4);
        // P0 accesses home 3 (2 hops away: dist = 3.0) five times.
        for _ in 0..5 {
            d.record_access(0, 3);
        }
        let s = d.end_interval(0);
        // DDS = 5 * 3.0 * 5 = 75.
        assert_eq!(s.dds, 75.0);
    }

    #[test]
    fn contention_from_other_nodes_raises_dds() {
        let run = |others: u64| {
            let mut d = DdvState::for_hypercube(4);
            for _ in 0..10 {
                d.record_access(0, 1);
            }
            for _ in 0..others {
                d.record_access(2, 1); // other node hammers home 1
            }
            d.end_interval(0).dds
        };
        assert!(run(100) > run(0), "hot home must raise requester DDS");
    }

    #[test]
    fn end_interval_into_reuses_buffers_and_matches_allocating_form() {
        let mut a = DdvState::for_hypercube(4);
        let mut b = DdvState::for_hypercube(4);
        let mut sample = DdsSample::empty();
        let mut x = 1u64;
        for step in 0..400 {
            x = dsm_sim::util::splitmix64(x);
            let p = (x % 4) as usize;
            let home = ((x >> 8) % 4) as usize;
            a.record_access(p, home);
            b.record_access(p, home);
            if step % 17 == 0 {
                let i = ((x >> 16) % 4) as usize;
                b.end_interval_into(i, &mut sample);
                assert_eq!(a.end_interval(i), sample, "at step {step}");
            }
        }
        assert_eq!(a.queries(), b.queries());
        assert_eq!(a.vectors_exchanged(), b.vectors_exchanged());
    }

    #[test]
    fn queries_counted_for_overhead_model() {
        let mut d = DdvState::for_hypercube(8);
        d.end_interval(0);
        d.end_interval(3);
        assert_eq!(d.queries(), 2);
        assert_eq!(d.vectors_exchanged(), 14);
        assert_eq!(d.gather_rounds(), 2, "one round per all-to-one gather");
    }

    #[test]
    fn uniprocessor_degenerates_to_self_product() {
        let mut d = DdvState::for_hypercube(1);
        for _ in 0..4 {
            d.record_access(0, 0);
        }
        let s = d.end_interval(0);
        assert_eq!(s.dds, 16.0); // 4 * 1 * 4
    }

    #[test]
    #[should_panic(expected = "D[i][i] must be 1")]
    fn bad_diagonal_rejected() {
        let _ = DdvState::new(2, vec![2.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn clear_resets_counts() {
        let mut d = DdvState::for_hypercube(2);
        d.record_access(0, 1);
        d.clear();
        let s = d.end_interval(0);
        assert_eq!(s.fvec, vec![0, 0]);
        assert_eq!(s.dds, 0.0);
    }

    #[test]
    fn degraded_collector_with_all_rows_matches_reference_gather() {
        let mut a = DdvState::for_hypercube(4);
        let mut b = DdvState::for_hypercube(4);
        let mut coll = DegradedCollector::new(4);
        let mut sample = DdsSample::empty();
        let mut x = 11u64;
        for step in 0..500 {
            x = dsm_sim::util::splitmix64(x);
            let p = (x % 4) as usize;
            let home = ((x >> 8) % 4) as usize;
            a.record_access(p, home);
            b.record_access(p, home);
            if step % 19 == 0 {
                let i = ((x >> 16) % 4) as usize;
                let st = coll.end_interval_into(&mut b, i, &mut sample, |_| true);
                assert_eq!(st, 0);
                assert_eq!(a.end_interval(i), sample, "at step {step}");
            }
        }
        assert_eq!(coll.substitutions(), 0);
        assert_eq!(a.queries(), b.queries());
        assert_eq!(a.vectors_exchanged(), b.vectors_exchanged());
    }

    #[test]
    fn missing_row_falls_back_to_stale_weighted_cache() {
        let mut d = DdvState::for_hypercube(2);
        let mut coll = DegradedCollector::new(2);
        let mut sample = DdsSample::empty();
        // Gather 1: node 1 answers with 8 accesses to home 0.
        for _ in 0..8 {
            d.record_access(1, 0);
        }
        coll.end_interval_into(&mut d, 0, &mut sample, |_| true);
        assert_eq!(sample.cvec, vec![8, 0]);
        // Gather 2: node 1 silent -> last row halved (8 >> 1 = 4).
        let st = coll.end_interval_into(&mut d, 0, &mut sample, |_| false);
        assert_eq!(st, 1);
        assert_eq!(sample.cvec, vec![4, 0]);
        // Gather 3: still silent -> quartered.
        let st = coll.end_interval_into(&mut d, 0, &mut sample, |_| false);
        assert_eq!(st, 2);
        assert_eq!(sample.cvec, vec![2, 0]);
        assert_eq!(coll.staleness(0, 1), 2);
        assert_eq!(coll.substitutions(), 2);
    }

    #[test]
    fn silent_node_counts_are_recovered_on_reappearance() {
        let mut d = DdvState::for_hypercube(2);
        let mut coll = DegradedCollector::new(2);
        let mut sample = DdsSample::empty();
        for _ in 0..4 {
            d.record_access(1, 1);
        }
        coll.end_interval_into(&mut d, 0, &mut sample, |_| false); // missed
        assert_eq!(sample.cvec, vec![0, 0], "no cache yet: nothing to substitute");
        for _ in 0..3 {
            d.record_access(1, 1);
        }
        // Node 1 answers: the row covers the whole silent window (4 + 3).
        let st = coll.end_interval_into(&mut d, 0, &mut sample, |_| true);
        assert_eq!(st, 0);
        assert_eq!(sample.cvec, vec![0, 7]);
        assert_eq!(coll.staleness(0, 1), 0, "staleness resets on arrival");
    }

    #[test]
    fn fast_aggregate_gather_matches_reference_walk() {
        // The O(n) aggregate gather must be bit-identical to the O(n²)
        // per-matrix walk at every query point, across sizes and
        // interleavings (including repeated queries by the same requester
        // with no traffic in between).
        for n in [1usize, 2, 3, 5, 8, 16] {
            let dist: Vec<f64> = (0..n * n)
                .map(|k| if k / n == k % n { 1.0 } else { 2.5 })
                .collect();
            let mut fast = DdvState::new(n, dist.clone());
            let mut refr = DdvState::new(n, dist);
            let mut fs = DdsSample::empty();
            let mut rs = DdsSample::empty();
            let mut x = 0xfeed_0000u64 + n as u64;
            for step in 0..800 {
                x = dsm_sim::util::splitmix64(x);
                if step % 7 == 0 {
                    let i = (x % n as u64) as usize;
                    fast.end_interval_into(i, &mut fs);
                    refr.end_interval_reference_into(i, &mut rs);
                    assert_eq!(fs, rs, "n = {n}, step = {step}");
                } else {
                    let p = (x % n as u64) as usize;
                    let home = ((x >> 17) % n as u64) as usize;
                    fast.record_access(p, home);
                    refr.record_access(p, home);
                }
            }
            assert_eq!(fast.queries(), refr.queries());
            assert_eq!(fast.vectors_exchanged(), refr.vectors_exchanged());
            assert_eq!(fast.gather_rounds(), refr.gather_rounds());
        }
    }

    #[test]
    fn aggregate_survives_export_import_roundtrip() {
        let mut d = DdvState::for_hypercube(4);
        let mut s = DdsSample::empty();
        let mut x = 3u64;
        for step in 0..200 {
            x = dsm_sim::util::splitmix64(x);
            d.record_access((x % 4) as usize, ((x >> 9) % 4) as usize);
            if step % 23 == 0 {
                d.end_interval_into(((x >> 20) % 4) as usize, &mut s);
            }
        }
        let snap = d.export_state();
        let mut restored = DdvState::for_hypercube(4);
        restored.import_state(&snap);
        assert_eq!(d, restored);
        // Identical traffic after restore produces identical samples.
        let mut s2 = DdsSample::empty();
        d.record_access(1, 2);
        restored.record_access(1, 2);
        d.end_interval_into(1, &mut s);
        restored.end_interval_into(1, &mut s2);
        assert_eq!(s, s2);
    }

    #[test]
    fn reset_requester_clears_staleness_and_cache() {
        let mut d = DdvState::for_hypercube(2);
        let mut coll = DegradedCollector::new(2);
        let mut sample = DdsSample::empty();
        for _ in 0..8 {
            d.record_access(1, 0);
        }
        coll.end_interval_into(&mut d, 0, &mut sample, |_| true);
        coll.end_interval_into(&mut d, 0, &mut sample, |_| false);
        assert_eq!(coll.staleness(0, 1), 1);
        coll.reset_requester(0);
        assert_eq!(coll.staleness(0, 1), 0);
        let st = coll.end_interval_into(&mut d, 0, &mut sample, |_| false);
        assert_eq!(st, 1);
        assert_eq!(sample.cvec, vec![0, 0], "cache was cleared with the reset");
    }
}
