//! Observation hooks through which phase detectors watch the machine.
//!
//! A [`SimObserver`] sees exactly what the paper's hardware sees: committed
//! basic blocks (for the BBV accumulator), committed loads/stores labelled
//! with their home node (for the DDV frequency matrix), and the
//! end-of-interval notification with the interval's CPI. Nothing
//! reconfiguration-tainted (cache hit/miss outcomes, queue depths) is
//! exposed, matching the paper's footnote 2.
//!
//! Observers are orthogonal to the telemetry layer ([`crate::telem`]):
//! the system records its own interval span (on node `p`'s interval track)
//! immediately *before* invoking [`SimObserver::on_interval`], so a
//! feature-on trace brackets exactly the work each observer callback saw.

use crate::addr::NodeId;
use serde::{Deserialize, Serialize};

/// Summary of one completed sampling interval on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalStats {
    /// 0-based index of the interval on this processor.
    pub index: u64,
    /// Committed non-synchronization instructions (the interval length).
    pub insns: u64,
    /// Cycles elapsed over the interval (including synchronization waits —
    /// they are real time the phase's CPI must account for).
    pub cycles: u64,
}

impl IntervalStats {
    /// Cycles per (non-sync) instruction over the interval.
    pub fn cpi(&self) -> f64 {
        if self.insns == 0 {
            0.0
        } else {
            self.cycles as f64 / self.insns as f64
        }
    }
}

/// Hardware-visible commit events, per processor.
pub trait SimObserver {
    /// A basic-block burst committed on `proc`: branch address `bb`,
    /// `insns` instructions since the previous branch.
    fn on_block_commit(&mut self, proc: usize, bb: u32, insns: u32);

    /// A load/store committed on `proc` to a block homed at `home`.
    /// `addr` is the referenced address (used by working-set baselines; the
    /// paper's DDV uses only `home`).
    fn on_mem_commit(&mut self, proc: usize, home: NodeId, addr: u64, write: bool);

    /// Processor `proc` finished a sampling interval.
    fn on_interval(&mut self, proc: usize, stats: IntervalStats);
}

/// An observer that ignores everything (pure-timing runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {
    #[inline]
    fn on_block_commit(&mut self, _: usize, _: u32, _: u32) {}
    #[inline]
    fn on_mem_commit(&mut self, _: usize, _: NodeId, _: u64, _: bool) {}
    #[inline]
    fn on_interval(&mut self, _: usize, _: IntervalStats) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_computation() {
        let s = IntervalStats { index: 0, insns: 1000, cycles: 1500 };
        assert!((s.cpi() - 1.5).abs() < 1e-12);
        let z = IntervalStats { index: 0, insns: 0, cycles: 99 };
        assert_eq!(z.cpi(), 0.0);
    }

    #[test]
    fn null_observer_is_inert() {
        let mut o = NullObserver;
        o.on_block_commit(0, 1, 2);
        o.on_mem_commit(0, 0, 0, true);
        o.on_interval(0, IntervalStats { index: 0, insns: 1, cycles: 1 });
    }
}
