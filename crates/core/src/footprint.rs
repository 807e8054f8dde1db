//! The footprint table: previously observed interval signatures, with LRU
//! replacement (the paper: "a 32-vector footprint table. We use a LRU
//! replacement algorithm").
//!
//! Classification (paper §III-B): entries whose BBV Manhattan distance *and*
//! DDS difference both fall under their thresholds are candidates; among
//! candidates, the smallest Manhattan distance wins. If none qualifies, a
//! new entry is allocated (evicting the LRU entry when full) and a fresh
//! phase id is assigned — so every eviction-and-refill counts as a new
//! phase, exactly as a hardware table would behave.
//!
//! The gate ([`FootprintTable::classify_with`]) is two steps.
//! [`FootprintTable::nearest`] finds the first entry at the strictly
//! smallest *gated* distance, which one per-entry closure supplies: the
//! entry's BBV distance when it passes the DDS gate, `+inf` when it does
//! not. [`FootprintTable::commit`] applies the decision: refresh that
//! entry when its distance is under the BBV threshold, else allocate.
//! Both gates reject NaN: an entry whose DDS difference is NaN fails the
//! DDS gate, and a NaN distance is never nearest, so a NaN signature
//! neither matches nor captures anything. The online gate checks the DDS
//! before it computes the distance.
//!
//! The gate is generic over how an entry stores its signature and over the
//! distance between two signatures. Online detectors and the serve path
//! store the BBV itself (`Box<[f64]>`, the default) under Manhattan
//! distance. The offline threshold sweep, which also replays the
//! related-work baselines (working-set signatures, branch counts) and the
//! vector-DDV extension under their own distances, stores a slot number
//! (`u32`)
//! naming one of the captured records some table still holds, and learns
//! from `commit` which slot an eviction frees. Per interval it computes
//! each live record's DDS difference and distance once, gates them once
//! per DDS column, and its per-entry closure is a lookup in that column's
//! row. It calls `nearest` once per class of thresholds whose tables are
//! identical, since the decision depends on the BBV threshold only through
//! `threshold > nearest distance`
//! ([`crate::detector::TraceClassifier::sweep_proc`]).

use serde::{Deserialize, Serialize};

use crate::distance::{manhattan, relative_diff};

/// One stored signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry<S = Box<[f64]>> {
    /// The caller's signature at allocation time: for the online table the
    /// normalized BBV (boxed slice: entry signatures never grow, and the
    /// fixed-size buffer is reused across LRU evictions), for offline
    /// sweeps the slot of the captured record that holds it.
    pub sig: S,
    /// DDS at allocation time (unused in BBV-only mode).
    pub dds: f64,
    /// Phase identifier assigned when this entry was allocated.
    pub phase_id: u32,
    /// LRU timestamp.
    last_used: u64,
}

impl Entry {
    /// Overwrite with `src`, reusing the signature buffer when lengths match.
    fn copy_from(&mut self, src: &Self) {
        if self.sig.len() == src.sig.len() {
            self.sig.copy_from_slice(&src.sig);
        } else {
            self.sig = src.sig.clone();
        }
        self.dds = src.dds;
        self.phase_id = src.phase_id;
        self.last_used = src.last_used;
    }
}

/// Result of classifying one interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Match {
    /// Phase the interval was assigned to.
    pub phase_id: u32,
    /// True when a new table entry (new phase) was allocated.
    pub is_new: bool,
    /// The caller's distance to the matched entry (Manhattan for BBVs; 0.0
    /// for a new phase).
    pub distance: f64,
}

/// The footprint table of one processor's detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FootprintTable<S = Box<[f64]>> {
    entries: Vec<Entry<S>>,
    capacity: usize,
    clock: u64,
    next_phase_id: u32,
    evictions: u64,
    comparisons: u64,
}

impl<S: Default> FootprintTable<S> {
    /// An empty table of `capacity` entries. Its entries grow as they are
    /// allocated: a table that sees a few phases stays a few entries long.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            entries: Vec::new(),
            capacity,
            clock: 0,
            next_phase_id: 0,
            evictions: 0,
            comparisons: 0,
        }
    }

    /// [`Self::new`] with room for all `capacity` entries reserved up
    /// front, for tables expected to fill.
    pub(crate) fn reserved(capacity: usize) -> Self {
        let mut table = Self::new(capacity);
        table.entries.reserve_exact(capacity);
        table
    }

    /// The classification gate, over any stored signature type:
    /// [`Self::nearest`], then `distance < bbv_threshold`, then
    /// [`Self::commit`].
    ///
    /// * `distance` — distance from the query to a stored signature
    ///   (Manhattan for BBVs), computed only for entries that pass the DDS
    ///   gate;
    /// * `dds` — the interval's DDS;
    /// * `bbv_threshold` — distance threshold;
    /// * `dds_threshold` — `Some(t)` in BBV+DDV mode (relative DDS
    ///   difference must be `< t`), `None` in BBV-only mode;
    /// * `store` — the new entry's signature, given the evicted entry's
    ///   (see [`Self::commit`]).
    #[inline]
    pub fn classify_with(
        &mut self,
        mut distance: impl FnMut(&S) -> f64,
        dds: f64,
        bbv_threshold: f64,
        dds_threshold: Option<f64>,
        store: impl FnOnce(Option<S>) -> S,
    ) -> Match {
        let hit = self
            .nearest(|e| {
                if dds_threshold.is_none_or(|t| relative_diff(dds, e.dds) < t) {
                    distance(&e.sig)
                } else {
                    f64::INFINITY
                }
            })
            .filter(|&(_, d)| d < bbv_threshold);
        self.commit(hit, dds, store)
    }

    /// The entry nearest the query: `(slot, distance)` of the first entry
    /// at the strictly smallest `gated` distance, or `None` when no entry
    /// qualifies. `gated` gives an entry's BBV distance when it passes the
    /// DDS gate and `+inf` when it fails; a NaN or `+inf` distance, which
    /// no `distance < threshold` test admits, never qualifies. Every entry
    /// looked at counts towards [`Self::comparisons`].
    #[inline]
    pub fn nearest(&mut self, mut gated: impl FnMut(&Entry<S>) -> f64) -> Option<(usize, f64)> {
        self.comparisons += self.entries.len() as u64;
        // Selects rather than branches: which entry is nearest is data
        // dependent, so a branch here mispredicts often.
        let (mut best, mut best_d) = (usize::MAX, f64::INFINITY);
        for (i, e) in self.entries.iter().enumerate() {
            let d = gated(e);
            let nearer = d < best_d;
            best = if nearer { i } else { best };
            best_d = if nearer { d } else { best_d };
        }
        (best != usize::MAX).then_some((best, best_d))
    }

    /// Apply one classification decision: `Some((slot, distance))` matches
    /// that entry and refreshes its LRU stamp; `None` allocates a new phase,
    /// evicting the LRU entry when full. `store` returns the new entry's
    /// signature, given the evicted entry's (`None` below capacity), so a
    /// caller can reuse its buffer or learn which signature left the table.
    #[inline]
    pub fn commit(
        &mut self,
        hit: Option<(usize, f64)>,
        dds: f64,
        store: impl FnOnce(Option<S>) -> S,
    ) -> Match {
        self.clock += 1;
        if let Some((i, d)) = hit {
            self.entries[i].last_used = self.clock;
            return Match { phase_id: self.entries[i].phase_id, is_new: false, distance: d };
        }

        // Allocate a new entry (LRU eviction when full).
        let phase_id = self.next_phase_id;
        self.next_phase_id += 1;
        let last_used = self.clock;
        if self.entries.len() < self.capacity {
            self.entries.push(Entry { sig: store(None), dds, phase_id, last_used });
        } else {
            self.evictions += 1;
            let slot = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            let e = &mut self.entries[slot];
            e.sig = store(Some(std::mem::take(&mut e.sig)));
            (e.dds, e.phase_id, e.last_used) = (dds, phase_id, last_used);
        }
        Match { phase_id, is_new: true, distance: 0.0 }
    }

    /// Number of phase ids ever allocated.
    pub fn phases_allocated(&self) -> u32 {
        self.next_phase_id
    }

    /// Number of LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of entries [`Self::nearest`] has looked at so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// A copy of this table whose [`Self::comparisons`] starts at zero, so
    /// a table and its forks together count each entry looked at once.
    pub(crate) fn fork(&self) -> Self
    where
        S: Clone,
    {
        Self {
            comparisons: 0,
            ..self.clone()
        }
    }

    /// Currently resident entries.
    pub fn entries(&self) -> &[Entry<S>] {
        &self.entries
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clear all entries and phase numbering (multiprogramming: "phase
    /// information associated with threads can be cleared at the expense of
    /// more tuning").
    pub fn clear(&mut self) {
        self.entries.clear();
        self.clock = 0;
        self.next_phase_id = 0;
        self.evictions = 0;
        self.comparisons = 0;
    }
}

impl FootprintTable {
    /// Classify an interval signature (see [`Self::classify_with`] for the
    /// parameters).
    ///
    /// A new entry's signature is allocated below capacity (bounded by
    /// table size, not by interval count); once the table is full, the
    /// evicted entry's buffer is reused when the signature length is
    /// unchanged — the steady-state case — so long runs allocate nothing.
    pub fn classify(
        &mut self,
        bbv: &[f64],
        dds: f64,
        bbv_threshold: f64,
        dds_threshold: Option<f64>,
    ) -> Match {
        self.classify_with(
            |sig| manhattan(bbv, sig),
            dds,
            bbv_threshold,
            dds_threshold,
            |evicted| match evicted {
                Some(mut sig) if sig.len() == bbv.len() => {
                    sig.copy_from_slice(bbv);
                    sig
                }
                _ => bbv.into(),
            },
        )
    }

    /// Overwrite this table with `other`, reusing resident entry buffers
    /// where possible, so repeated context save/restore cycles stop
    /// allocating once buffers reach their steady-state sizes.
    pub fn copy_from(&mut self, other: &Self) {
        self.capacity = other.capacity;
        self.clock = other.clock;
        self.next_phase_id = other.next_phase_id;
        self.evictions = other.evictions;
        self.comparisons = other.comparisons;
        let keep = self.entries.len().min(other.entries.len());
        self.entries.truncate(other.entries.len());
        for (dst, src) in self.entries.iter_mut().zip(&other.entries[..keep]) {
            dst.copy_from(src);
        }
        self.entries.extend(other.entries[keep..].iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[f64]) -> Vec<f64> {
        vals.to_vec()
    }

    #[test]
    fn first_interval_is_a_new_phase() {
        let mut t = FootprintTable::new(4);
        let m = t.classify(&v(&[1.0, 0.0]), 0.0, 0.5, None);
        assert!(m.is_new);
        assert_eq!(m.phase_id, 0);
    }

    #[test]
    fn similar_interval_matches_same_phase() {
        let mut t = FootprintTable::new(4);
        t.classify(&v(&[0.5, 0.5]), 0.0, 0.2, None);
        let m = t.classify(&v(&[0.55, 0.45]), 0.0, 0.2, None);
        assert!(!m.is_new);
        assert_eq!(m.phase_id, 0);
        assert!((m.distance - 0.1).abs() < 1e-12);
    }

    #[test]
    fn distant_interval_allocates_new_phase() {
        let mut t = FootprintTable::new(4);
        t.classify(&v(&[1.0, 0.0]), 0.0, 0.2, None);
        let m = t.classify(&v(&[0.0, 1.0]), 0.0, 0.2, None);
        assert!(m.is_new);
        assert_eq!(m.phase_id, 1);
        assert_eq!(t.phases_allocated(), 2);
    }

    #[test]
    fn smallest_manhattan_wins_among_candidates() {
        let mut t = FootprintTable::new(4);
        t.classify(&v(&[0.5, 0.5]), 0.0, 2.1, None); // phase 0
        t.classify(&v(&[0.9, 0.1]), 0.0, 0.2, None); // phase 1 (far from 0)
        // Query close to phase 1, but phase 0 is also under the huge threshold.
        let m = t.classify(&v(&[0.88, 0.12]), 0.0, 2.1, None);
        assert_eq!(m.phase_id, 1);
    }

    #[test]
    fn dds_gate_blocks_matches_in_ddv_mode() {
        let mut t = FootprintTable::new(4);
        t.classify(&v(&[0.5, 0.5]), 100.0, 0.2, Some(0.3));
        // Identical BBV, wildly different DDS: must be a new phase.
        let m = t.classify(&v(&[0.5, 0.5]), 1000.0, 0.2, Some(0.3));
        assert!(m.is_new, "same code, different data distribution => new phase");
        // Identical BBV, close DDS: matches phase 0.
        let m = t.classify(&v(&[0.5, 0.5]), 110.0, 0.2, Some(0.3));
        assert!(!m.is_new);
        assert_eq!(m.phase_id, 0);
    }

    #[test]
    fn bbv_only_mode_ignores_dds() {
        let mut t = FootprintTable::new(4);
        t.classify(&v(&[0.5, 0.5]), 100.0, 0.2, None);
        let m = t.classify(&v(&[0.5, 0.5]), 1e9, 0.2, None);
        assert!(!m.is_new);
    }

    #[test]
    fn lru_eviction_creates_fresh_phase_ids() {
        let mut t = FootprintTable::new(2);
        // Three mutually distant one-hot signatures with a tight threshold.
        let e0 = v(&[1.0, 0.0, 0.0]);
        let e1 = v(&[0.0, 1.0, 0.0]);
        let e2 = v(&[0.0, 0.0, 1.0]);
        t.classify(&e0, 0.0, 0.1, None); // phase 0
        t.classify(&e1, 0.0, 0.1, None); // phase 1
        t.classify(&e2, 0.0, 0.1, None); // phase 2, evicts e0 (LRU)
        assert_eq!(t.evictions(), 1);
        // e0 again: it was evicted, so this is phase 3, evicting e1.
        let m = t.classify(&e0, 0.0, 0.1, None);
        assert!(m.is_new);
        assert_eq!(m.phase_id, 3);
        // e2 is still resident.
        let m = t.classify(&e2, 0.0, 0.1, None);
        assert!(!m.is_new);
        assert_eq!(m.phase_id, 2);
    }

    #[test]
    fn matching_refreshes_lru() {
        let mut t = FootprintTable::new(2);
        let e0 = v(&[1.0, 0.0, 0.0]);
        let e1 = v(&[0.0, 1.0, 0.0]);
        let e2 = v(&[0.0, 0.0, 1.0]);
        t.classify(&e0, 0.0, 0.1, None);
        t.classify(&e1, 0.0, 0.1, None);
        t.classify(&e0, 0.0, 0.1, None); // refresh e0
        t.classify(&e2, 0.0, 0.1, None); // must evict e1, not e0
        let m = t.classify(&e0, 0.0, 0.1, None);
        assert!(!m.is_new, "e0 was refreshed and must survive");
    }

    #[test]
    fn zero_threshold_makes_every_interval_unique() {
        let mut t = FootprintTable::new(32);
        let x = v(&[0.5, 0.5]);
        for _ in 0..5 {
            let m = t.classify(&x, 0.0, 0.0, None);
            assert!(m.is_new, "threshold 0 matches nothing (distance >= 0)");
        }
        assert_eq!(t.phases_allocated(), 5);
    }

    #[test]
    fn huge_threshold_collapses_to_one_phase() {
        let mut t = FootprintTable::new(32);
        for i in 0..20 {
            let x = v(&[i as f64 / 20.0, 1.0 - i as f64 / 20.0]);
            t.classify(&x, 0.0, 2.1, None);
        }
        assert_eq!(t.phases_allocated(), 1);
    }

    #[test]
    fn nan_never_matches_in_either_gate() {
        let mut t = FootprintTable::new(4);
        t.classify(&v(&[f64::NAN, 1.0]), 1.0, 2.1, None); // phase 0
        t.classify(&v(&[0.5, 0.5]), 1.0, 2.1, None); // phase 1: NaN entry skipped
        let m = t.classify(&v(&[0.6, 0.4]), 1.0, 2.1, None);
        assert_eq!(
            (m.phase_id, m.is_new),
            (1, false),
            "NaN entry must not capture"
        );
        let m = t.classify(&v(&[f64::NAN, 0.5]), 1.0, 2.1, None);
        assert!(m.is_new, "NaN query must not match");
        // A NaN DDS fails the DDS gate against every entry, and vice versa.
        let m = t.classify(&v(&[0.5, 0.5]), f64::NAN, 2.1, Some(1.5));
        assert!(m.is_new);
        let m = t.classify(&v(&[0.5, 0.5]), 0.0, 2.1, Some(1.5));
        assert_eq!(
            (m.phase_id, m.is_new),
            (1, false),
            "NaN-DDS entry must not match"
        );
    }

    #[test]
    fn nearest_then_commit_is_classify() {
        let mut a = FootprintTable::new(2);
        let mut b: FootprintTable = FootprintTable::new(2);
        let cases = [
            ([1.0, 0.0], 0.5),
            ([0.9, 0.1], 0.5),
            ([0.0, 1.0], 0.1),
            ([0.8, 0.2], 0.1),
        ];
        for (x, thr) in cases {
            let want = a.classify(&x, 0.0, thr, None);
            let hit = b.nearest(|e| manhattan(&x, &e.sig));
            let got = b.commit(hit.filter(|&(_, d)| d < thr), 0.0, |_| Box::new(x));
            assert_eq!(got, want);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn commit_hands_store_the_evicted_signature() {
        let mut t: FootprintTable<u32> = FootprintTable::new(2);
        let mut seen = Vec::new();
        for sig in [7, 8, 9, 10] {
            t.commit(None, 0.0, |evicted| {
                seen.push(evicted);
                sig
            });
        }
        // Below capacity nothing is evicted; then the LRU entry each time.
        assert_eq!(seen, [None, None, Some(7), Some(8)]);
        let sigs: Vec<u32> = t.entries().iter().map(|e| e.sig).collect();
        assert_eq!(sigs, [9, 10]);
        // A match stores nothing.
        t.commit(Some((0, 0.0)), 0.0, |_| unreachable!("a hit allocates nothing"));
    }

    #[test]
    fn comparisons_count_every_entry_looked_at() {
        let mut t = FootprintTable::new(2);
        t.classify(&v(&[1.0, 0.0]), 0.0, 0.1, None); // 0 entries
        t.classify(&v(&[0.0, 1.0]), 0.0, 0.1, None); // 1
        t.classify(&v(&[0.5, 0.5]), 9.0, 0.1, Some(0.1)); // 2, both DDS-gated
        t.classify(&v(&[0.5, 0.5]), 9.0, 0.1, None); // 2 (full table)
        assert_eq!(t.comparisons(), 5);
        let mut f = t.fork();
        assert_eq!((f.comparisons(), f.entries()), (0, t.entries()));
        f.classify(&v(&[0.5, 0.5]), 9.0, 0.1, None);
        assert_eq!((f.comparisons(), t.comparisons()), (2, 5));
        t.clear();
        assert_eq!(t.comparisons(), 0);
    }

    #[test]
    fn clear_resets_numbering() {
        let mut t = FootprintTable::new(4);
        t.classify(&v(&[1.0]), 0.0, 0.1, None);
        t.clear();
        assert_eq!(t.phases_allocated(), 0);
        assert!(t.entries().is_empty());
        let m = t.classify(&v(&[1.0]), 0.0, 0.1, None);
        assert_eq!(m.phase_id, 0);
    }
}
