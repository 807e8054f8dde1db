//! Basic Block Vector accumulator (Sherwood et al., the paper's Fig. 1).
//!
//! A small array of hardware counters hashed by branch instruction address;
//! each committed branch adds the number of instructions executed since the
//! previous branch to its bucket. At the end of a sampling interval the
//! accumulator is normalized (so vectors from different interval lengths
//! are comparable) and compared against the footprint table.

use serde::{Deserialize, Serialize};

/// The hardware accumulator: `entries` saturating counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BbvAccumulator {
    buckets: Vec<u64>,
    total: u64,
}

/// Hash a branch address into a bucket index (splitmix finalizer — a stand-in
/// for the paper's unspecified hardware hash; any well-mixing function works).
#[inline]
fn bucket_of(bb: u32, n: usize) -> usize {
    (dsm_sim::util::splitmix64(bb as u64) % n as u64) as usize
}

/// Append the normalized vector of bucket counts `buckets` whose sum is
/// `total` to `out`: each `b / total`, or zeros when `total` is 0. Every
/// normalized BBV is computed here, the live accumulator's
/// ([`BbvAccumulator::normalized_into`]) and a captured record's
/// ([`IntervalRecord::normalized_bbv_into`](crate::detector::IntervalRecord::normalized_bbv_into))
/// alike, so the two agree bit for bit on the same counts.
pub fn push_normalized<T: Copy + Into<u64>>(buckets: &[T], total: u64, out: &mut Vec<f64>) {
    if total == 0 {
        out.resize(out.len() + buckets.len(), 0.0);
        return;
    }
    let t = total as f64;
    out.extend(buckets.iter().map(|&b| b.into() as f64 / t));
}

impl BbvAccumulator {
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0);
        Self { buckets: vec![0; entries], total: 0 }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Record a committed basic block: branch address `bb`, `insns`
    /// instructions since the last branch.
    #[inline]
    pub fn record(&mut self, bb: u32, insns: u32) {
        let idx = bucket_of(bb, self.buckets.len());
        self.buckets[idx] += insns as u64;
        self.total += insns as u64;
    }

    /// Total instructions accumulated this interval.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bucket values.
    pub fn raw(&self) -> &[u64] {
        &self.buckets
    }

    /// Normalized vector (sums to 1; all-zero when nothing was recorded).
    /// Manhattan distances between normalized vectors lie in [0, 2].
    pub fn normalized(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.normalized_into(&mut out);
        out
    }

    /// [`Self::normalized`] into a caller-owned buffer, so per-interval
    /// classification can reuse one allocation for the life of the detector.
    pub fn normalized_into(&self, out: &mut Vec<f64>) {
        out.clear();
        push_normalized(&self.buckets, self.total, out);
    }

    /// Overwrite this accumulator with `other`, reusing the bucket buffer
    /// when the widths match (context save/restore without reallocation).
    pub fn copy_from(&mut self, other: &Self) {
        if self.buckets.len() == other.buckets.len() {
            self.buckets.copy_from_slice(&other.buckets);
        } else {
            self.buckets.clone_from(&other.buckets);
        }
        self.total = other.total;
    }

    /// Rebuild an accumulator from raw bucket values (checkpoint restore).
    /// The running total is recomputed as the bucket sum, which is the
    /// invariant [`Self::record`] maintains.
    pub fn from_raw(buckets: Vec<u64>) -> Self {
        assert!(!buckets.is_empty());
        let total = buckets.iter().sum();
        Self { buckets, total }
    }

    /// Zero all counters (start of a new interval).
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_instruction_weight() {
        let mut a = BbvAccumulator::new(32);
        a.record(100, 10);
        a.record(100, 5);
        assert_eq!(a.total(), 15);
        let max = a.raw().iter().max().copied().unwrap();
        assert_eq!(max, 15, "same branch lands in the same bucket");
    }

    #[test]
    fn different_blocks_usually_hash_apart() {
        let mut a = BbvAccumulator::new(32);
        for bb in 0..16u32 {
            a.record(bb, 1);
        }
        let nonzero = a.raw().iter().filter(|&&b| b > 0).count();
        assert!(nonzero >= 8, "16 blocks over 32 buckets: got {nonzero} nonzero");
    }

    #[test]
    fn normalized_sums_to_one() {
        let mut a = BbvAccumulator::new(8);
        a.record(1, 3);
        a.record(2, 7);
        a.record(3, 10);
        let s: f64 = a.normalized().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_normalizes_to_zero_vector() {
        let a = BbvAccumulator::new(8);
        assert!(a.is_empty());
        assert!(a.normalized().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn normalized_into_matches_allocating_form() {
        let mut a = BbvAccumulator::new(8);
        let mut out = vec![9.0; 3]; // wrong size and stale contents
        a.normalized_into(&mut out);
        assert_eq!(out, vec![0.0; 8]);
        a.record(1, 3);
        a.record(2, 7);
        a.normalized_into(&mut out);
        assert_eq!(out, a.normalized());
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = BbvAccumulator::new(8);
        a.record(5, 100);
        a.reset();
        assert_eq!(a.total(), 0);
        assert!(a.raw().iter().all(|&b| b == 0));
    }

    #[test]
    fn normalization_is_scale_invariant() {
        let mut a = BbvAccumulator::new(32);
        let mut b = BbvAccumulator::new(32);
        for bb in [3u32, 9, 27] {
            a.record(bb, 10);
            b.record(bb, 1000); // same mix, 100x the interval length
        }
        let (na, nb) = (a.normalized(), b.normalized());
        for (x, y) in na.iter().zip(&nb) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
