//! Multiprogramming support: save/restore of per-thread phase-detection
//! state across context switches.
//!
//! The paper (§III-B) notes: "In a multiprogrammed environment, the phase
//! identification information can be incorporated into the thread's state
//! on a context switch. Alternatively, phase information associated with
//! threads can be cleared at the expense of more tuning." Both options are
//! implemented here: [`DetectorContext::save`] / [`DetectorContext::restore`] round-trips the
//! footprint table, accumulator, and DDV counters through a serializable
//! snapshot, and [`DetectorContext::cleared`] produces the cheap-hardware
//! alternative.

use serde::{Deserialize, Serialize};

use crate::bbv::BbvAccumulator;
use crate::detector::OnlineDetector;
use crate::footprint::FootprintTable;

/// A serializable snapshot of one processor's detector state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorContext {
    pub accumulator: BbvAccumulator,
    pub footprint: FootprintTable,
}

impl DetectorContext {
    /// Capture processor `proc`'s state from a running detector.
    pub fn save(detector: &mut OnlineDetector, proc: usize) -> Self {
        Self {
            accumulator: detector.gather.bbv[proc].clone(),
            footprint: detector.bank.table(proc).clone(),
        }
    }

    /// Re-capture processor `proc`'s state into this existing snapshot,
    /// reusing its buffers: repeated save/restore cycles (one per context
    /// switch) allocate nothing once sizes reach steady state.
    pub fn save_into(&mut self, detector: &mut OnlineDetector, proc: usize) {
        self.accumulator.copy_from(&detector.gather.bbv[proc]);
        self.footprint.copy_from(detector.bank.table(proc));
    }

    /// Restore this snapshot into processor `proc` of a detector (the
    /// incoming thread's state replaces the outgoing one's). Buffers already
    /// resident in the detector are reused rather than reallocated. Any
    /// staleness state of a deadline-degraded gather is forgotten: cached
    /// stale rows belong to the outgoing thread's access pattern.
    pub fn restore(&self, detector: &mut OnlineDetector, proc: usize) {
        detector.gather.bbv[proc].copy_from(&self.accumulator);
        detector.bank.tables_mut()[proc].copy_from(&self.footprint);
        detector.reset_staleness(proc);
    }

    /// The "clear on switch" alternative: fresh state sized like `self`.
    pub fn cleared(&self) -> Self {
        let mut fp = self.footprint.clone();
        fp.clear();
        Self {
            accumulator: BbvAccumulator::new(self.accumulator.len()),
            footprint: fp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorGeometry, DetectorMode, Thresholds};
    use dsm_sim::observer::{IntervalStats, SimObserver};

    fn detector() -> OnlineDetector {
        OnlineDetector::new(
            1,
            vec![1.0],
            DetectorMode::Bbv,
            Thresholds::bbv_only(0.5),
            DetectorGeometry::default(),
        )
    }

    fn run_interval(d: &mut OnlineDetector, code: u32, idx: u64) -> u32 {
        for _ in 0..10 {
            d.on_block_commit(0, code, 50);
        }
        d.on_interval(0, IntervalStats { index: idx, insns: 500, cycles: 700 });
        d.current_phase(0).unwrap()
    }

    #[test]
    fn save_restore_preserves_phase_identity() {
        let mut d = detector();
        let p_a = run_interval(&mut d, 7, 0);
        let ctx = DetectorContext::save(&mut d, 0);

        // Another thread runs and pollutes the table with its own phases.
        for i in 0..40 {
            run_interval(&mut d, 1000 + i, 1 + i as u64);
        }

        // Restore thread A: its phase must be recognized, not re-allocated.
        ctx.restore(&mut d, 0);
        let p_a2 = run_interval(&mut d, 7, 100);
        assert_eq!(p_a, p_a2, "restored thread must keep its phase ids");
    }

    /// Run an interval built from a *pair* of basic blocks, giving a
    /// two-bucket BBV signature.
    fn run_pair_interval(d: &mut OnlineDetector, a: u32, b: u32, idx: u64) -> u32 {
        for _ in 0..5 {
            d.on_block_commit(0, a, 50);
            d.on_block_commit(0, b, 50);
        }
        d.on_interval(0, IntervalStats { index: idx, insns: 500, cycles: 700 });
        d.current_phase(0).unwrap()
    }

    /// Normalized BBV of a code pattern, for collision screening.
    fn signature(codes: &[u32]) -> Vec<f64> {
        let mut acc = crate::bbv::BbvAccumulator::new(32);
        for &c in codes {
            acc.record(c, 50);
        }
        acc.normalized()
    }

    #[test]
    fn without_restore_phase_ids_are_lost() {
        let mut d = detector();
        let p_a = run_interval(&mut d, 7, 0);

        // Pollute with enough mutually distant signatures to evict A from
        // the 32-entry table. Screen candidate block pairs against hash
        // collisions first so every pollution interval is a genuinely new
        // phase that does not refresh A's entry.
        let a_sig = signature(&[7; 10]);
        let mut chosen: Vec<(u32, u32)> = Vec::new();
        let mut sigs: Vec<Vec<f64>> = vec![a_sig];
        let mut cand = 1000u32;
        while chosen.len() < 40 {
            let pair = (cand, cand + 1);
            cand += 2;
            let s = signature(&[pair.0, pair.1, pair.0, pair.1]);
            if sigs.iter().all(|t| crate::distance::manhattan(&s, t) >= 0.6) {
                sigs.push(s);
                chosen.push(pair);
            }
        }
        for (i, (a, b)) in chosen.iter().enumerate() {
            run_pair_interval(&mut d, *a, *b, 1 + i as u64);
        }

        let p_a2 = run_interval(&mut d, 7, 100);
        assert_ne!(p_a, p_a2, "evicted phase must be re-learned (more tuning)");
    }

    #[test]
    fn save_into_reuses_snapshot_and_matches_save() {
        let mut d = detector();
        run_interval(&mut d, 7, 0);
        // A stale snapshot from earlier...
        let mut ctx = DetectorContext::save(&mut d, 0);
        run_interval(&mut d, 900, 1);
        run_interval(&mut d, 901, 2);
        // ...re-captured in place must equal a freshly allocated capture.
        ctx.save_into(&mut d, 0);
        assert_eq!(ctx, DetectorContext::save(&mut d, 0));

        // And restoring it round-trips the detector state exactly.
        let before = DetectorContext::save(&mut d, 0);
        for i in 0..40 {
            run_interval(&mut d, 2000 + i, 3 + i as u64);
        }
        ctx.restore(&mut d, 0);
        assert_eq!(before, DetectorContext::save(&mut d, 0));
    }

    #[test]
    fn cleared_context_is_empty() {
        let mut d = detector();
        run_interval(&mut d, 7, 0);
        let ctx = DetectorContext::save(&mut d, 0);
        let fresh = ctx.cleared();
        assert_eq!(fresh.footprint.phases_allocated(), 0);
        assert!(fresh.accumulator.is_empty());
        assert_eq!(fresh.accumulator.len(), ctx.accumulator.len());
    }
}
