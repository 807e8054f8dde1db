//! Per-node SDRAM memory controller with a deterministic service queue.
//!
//! Each block transfer occupies the controller for
//! [`crate::config::MemoryConfig::service_gap_cycles`] (the 32 B /
//! 2.6 GB/s bandwidth term from Table I). Requests arriving while the
//! controller is busy are delayed until it frees up — this queueing delay is
//! the *contention* that the paper's DDV contention vector is designed to
//! capture, so hot home nodes genuinely slow accesses down.

use serde::{Deserialize, Serialize};

use crate::config::MemoryConfig;

/// Timing outcome of one memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemService {
    /// Cycle at which the data is available at the controller pins.
    pub done_at: u64,
    /// Cycles the request spent queued behind earlier requests.
    pub queue_delay: u64,
}

/// One node's memory controller with `banks` independently scheduled SDRAM
/// banks ("SDRAM interleaved" in Table I); consecutive blocks interleave
/// across banks, so streams spread their bandwidth demand while conflicting
/// hot blocks still queue.
#[derive(Debug, Clone)]
pub struct MemCtrl {
    cfg: MemoryConfig,
    busy_until: Vec<u64>,
    requests: u64,
    total_queue_delay: u64,
}

/// Counters for reporting / the contention analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemCtrlStats {
    pub requests: u64,
    pub total_queue_delay: u64,
}

impl MemCtrl {
    pub fn new(cfg: MemoryConfig) -> Self {
        assert!(cfg.banks >= 1);
        Self {
            busy_until: vec![0; cfg.banks],
            cfg,
            requests: 0,
            total_queue_delay: 0,
        }
    }

    /// Issue a request for `block` (a block index; consecutive blocks
    /// interleave across banks) arriving at cycle `now`. The bank starts
    /// servicing at `max(now, bank_busy_until)`, data is ready one DRAM
    /// latency later, and the bank is occupied for the bandwidth-derived
    /// service gap.
    pub fn request_block(&mut self, block: u64, now: u64) -> MemService {
        // Bank counts are powers of two in every shipped config (Table I has
        // one interleaved controller per node); mask instead of dividing.
        let n = self.busy_until.len() as u64;
        let bank = if n.is_power_of_two() {
            (block & (n - 1)) as usize
        } else {
            (block % n) as usize
        };
        let busy = &mut self.busy_until[bank];
        let start = now.max(*busy);
        let queue_delay = start - now;
        *busy = start + self.cfg.service_gap_cycles;
        self.requests += 1;
        self.total_queue_delay += queue_delay;
        MemService {
            done_at: start + self.cfg.latency_cycles,
            queue_delay,
        }
    }

    /// Single-bank convenience used by tests and the bank-0 path.
    pub fn request(&mut self, now: u64) -> MemService {
        self.request_block(0, now)
    }

    /// When bank 0 will next be idle.
    pub fn busy_until(&self) -> u64 {
        self.busy_until[0]
    }

    pub fn stats(&self) -> MemCtrlStats {
        MemCtrlStats {
            requests: self.requests,
            total_queue_delay: self.total_queue_delay,
        }
    }

    /// Export bank horizons and counters for checkpointing.
    pub fn export_state(&self) -> crate::state::MemCtrlState {
        crate::state::MemCtrlState {
            busy_until: self.busy_until.clone(),
            requests: self.requests,
            total_queue_delay: self.total_queue_delay,
        }
    }

    /// Whether `st` holds one entry per bank of this controller.
    pub fn fits(&self, st: &crate::state::MemCtrlState) -> bool {
        st.busy_until.len() == self.busy_until.len()
    }

    /// Restore state captured by [`MemCtrl::export_state`] on a controller
    /// with the same bank count.
    pub fn import_state(&mut self, st: &crate::state::MemCtrlState) {
        assert!(self.fits(st), "bank count mismatch");
        self.busy_until.copy_from_slice(&st.busy_until);
        self.requests = st.requests;
        self.total_queue_delay = st.total_queue_delay;
    }

    /// Mean queueing delay per request so far (0 when idle).
    pub fn mean_queue_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_queue_delay as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemCtrl {
        ctrl_banked(1)
    }

    fn ctrl_banked(banks: usize) -> MemCtrl {
        MemCtrl::new(MemoryConfig { latency_cycles: 150, service_gap_cycles: 25, banks })
    }

    #[test]
    fn idle_request_pays_only_latency() {
        let mut c = ctrl();
        let s = c.request(1000);
        assert_eq!(s.queue_delay, 0);
        assert_eq!(s.done_at, 1150);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut c = ctrl();
        let a = c.request(0);
        let b = c.request(0);
        let d = c.request(0);
        assert_eq!(a.queue_delay, 0);
        assert_eq!(b.queue_delay, 25);
        assert_eq!(d.queue_delay, 50);
        assert_eq!(b.done_at, 25 + 150);
        assert_eq!(c.stats().requests, 3);
        assert_eq!(c.stats().total_queue_delay, 75);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut c = ctrl();
        c.request(0);
        let s = c.request(25);
        assert_eq!(s.queue_delay, 0);
        let s = c.request(100);
        assert_eq!(s.queue_delay, 0);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut c = ctrl();
        for _ in 0..4 {
            c.request(0);
        }
        assert_eq!(c.busy_until(), 100);
        // Long idle gap: next request sees an idle controller.
        let s = c.request(10_000);
        assert_eq!(s.queue_delay, 0);
    }

    #[test]
    fn mean_queue_delay_reflects_contention() {
        let mut c = ctrl();
        assert_eq!(c.mean_queue_delay(), 0.0);
        for _ in 0..10 {
            c.request(0);
        }
        assert!(c.mean_queue_delay() > 0.0);
    }

    #[test]
    fn banks_service_distinct_blocks_in_parallel() {
        let mut c = ctrl_banked(4);
        // Four consecutive blocks land on four banks: no queueing at all.
        for b in 0..4u64 {
            assert_eq!(c.request_block(b, 0).queue_delay, 0);
        }
        // The fifth wraps to bank 0 and queues.
        assert_eq!(c.request_block(4, 0).queue_delay, 25);
    }

    #[test]
    fn same_block_still_queues_with_banks() {
        let mut c = ctrl_banked(8);
        assert_eq!(c.request_block(9, 0).queue_delay, 0);
        assert_eq!(c.request_block(9, 0).queue_delay, 25);
    }

    #[test]
    fn one_bank_matches_legacy_behaviour() {
        let mut a = ctrl_banked(1);
        let mut b = ctrl();
        for (blk, now) in [(0u64, 0u64), (5, 3), (2, 60), (7, 61)] {
            assert_eq!(a.request_block(blk, now), b.request_block(blk, now));
        }
    }
}
