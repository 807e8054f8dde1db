//! Instruction working-set signatures (Dhodapkar & Smith), a related-work
//! baseline (paper §V).
//!
//! A working-set signature is a lossy bit-vector (here `bits` bits) into
//! which every executed basic block is hashed; two intervals are in the same
//! phase when the *relative signature distance*
//! `|A Δ B| / |A ∪ B|` is below a threshold. Signatures capture *which*
//! code executed but not *how much*, so they yield longer, coarser phases
//! than BBVs — the comparison the harness's `baselines` experiment runs.
//! The detector is the footprint-table sweep
//! ([`crate::detector::TraceClassifier::sweep_proc`]) over the signature
//! words, with [`rel_distance`] as its distance.

use serde::{Deserialize, Serialize};

/// A fixed-size working-set signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WsSignature {
    words: Vec<u64>,
}

impl WsSignature {
    /// `bits` must be a multiple of 64 (1024 in Dhodapkar & Smith's design).
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0 && bits.is_multiple_of(64));
        Self { words: vec![0; bits / 64] }
    }

    pub fn bits(&self) -> usize {
        self.words.len() * 64
    }

    /// Hash a basic block into the signature.
    #[inline]
    pub fn insert(&mut self, bb: u32) {
        let h = dsm_sim::util::splitmix64(bb as u64 ^ 0xabcd_ef01);
        let bit = (h % (self.bits() as u64)) as usize;
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Raw signature words (recorded into interval traces).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    pub fn from_words(words: Vec<u64>) -> Self {
        assert!(!words.is_empty());
        Self { words }
    }
}

/// Relative signature distance between two signatures' words of equal
/// width: `|A Δ B| / |A ∪ B|` in [0, 1] (0 for two empty signatures). It
/// counts bits, so the signature's `u64` words and the `u32` halves an
/// [`IntervalRecord`](crate::detector::IntervalRecord) stores give the
/// same distance.
pub fn rel_distance<T: Copy + Into<u64>>(a: &[T], b: &[T]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut sym = 0u32;
    let mut uni = 0u32;
    for (&a, &b) in a.iter().zip(b) {
        let (a, b): (u64, u64) = (a.into(), b.into());
        sym += (a ^ b).count_ones();
        uni += (a | b).count_ones();
    }
    if uni == 0 {
        0.0
    } else {
        sym as f64 / uni as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::TraceClassifier;
    use crate::distance::rowwise;

    /// Phase ids of `sigs` through the shared sweep at one threshold.
    fn classify(sigs: &[&WsSignature], threshold: f64, capacity: usize) -> Vec<u32> {
        let stream = sigs.iter().map(|s| (s.words(), 0.0));
        let grid = [(threshold, None)];
        TraceClassifier::sweep_proc(stream, rowwise(rel_distance), &grid, capacity)
            .classes
            .swap_remove(0)
    }

    #[test]
    fn insert_sets_bits() {
        let mut s = WsSignature::new(128);
        assert!(s.is_empty());
        s.insert(42);
        assert_eq!(s.popcount(), 1);
        s.insert(42); // idempotent
        assert_eq!(s.popcount(), 1);
        s.insert(43);
        assert!(s.popcount() >= 1); // could collide, usually 2
    }

    #[test]
    fn distance_zero_for_identical_sets() {
        let mut a = WsSignature::new(128);
        let mut b = WsSignature::new(128);
        for bb in 0..10 {
            a.insert(bb);
            b.insert(bb);
        }
        assert_eq!(rel_distance(a.words(), b.words()), 0.0);
    }

    #[test]
    fn distance_one_for_disjoint_sets() {
        let mut a = WsSignature::new(1024);
        let mut b = WsSignature::new(1024);
        a.insert(1);
        b.insert(2);
        // Unless they collide in the 1024-bit space (they don't for 1,2).
        assert_eq!(rel_distance(a.words(), b.words()), 1.0);
    }

    #[test]
    fn distance_empty_signatures_is_zero() {
        let a = WsSignature::new(64);
        let b = WsSignature::new(64);
        assert_eq!(rel_distance(a.words(), b.words()), 0.0);
    }

    #[test]
    fn partial_overlap_is_intermediate() {
        let mut a = WsSignature::new(1024);
        let mut b = WsSignature::new(1024);
        for bb in 0..8 {
            a.insert(bb);
        }
        for bb in 4..12 {
            b.insert(bb);
        }
        let d = rel_distance(a.words(), b.words());
        assert!(d > 0.0 && d < 1.0, "got {d}");
    }

    #[test]
    fn detector_groups_similar_working_sets() {
        let mut s1 = WsSignature::new(1024);
        for bb in 0..20 {
            s1.insert(bb);
        }
        let mut s2 = WsSignature::new(1024);
        for bb in 0..20 {
            s2.insert(bb);
        }
        s2.insert(99); // one extra block
        let mut s3 = WsSignature::new(1024);
        for bb in 1000..1020 {
            s3.insert(bb);
        }
        // s1 and s2 share a phase, s3 allocates a second.
        assert_eq!(classify(&[&s1, &s2, &s3], 0.5, 8), [0, 0, 1]);
    }

    #[test]
    fn lru_eviction_reuses_slot_and_assigns_fresh_id() {
        let one_hot = |bb: u32| {
            let mut s = WsSignature::new(1024);
            s.insert(bb);
            s
        };
        let (a, b, c) = (one_hot(1), one_hot(2), one_hot(3));
        // c evicts a (LRU) and is resident after; a was evicted, so it is
        // a new phase.
        assert_eq!(classify(&[&a, &b, &c, &c, &a], 0.5, 2), [0, 1, 2, 2, 3]);
    }

    #[test]
    fn roundtrip_words() {
        let mut s = WsSignature::new(128);
        s.insert(7);
        s.insert(700);
        let r = WsSignature::from_words(s.words().to_vec());
        assert_eq!(s, r);
    }
}
