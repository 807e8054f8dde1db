//! System configuration mirroring Table I of the paper.
//!
//! All latencies are stored in **processor cycles** at the configured core
//! frequency (2 GHz in the paper), so the timing model never multiplies by
//! wall-clock units at runtime.

use crate::topology::TopologyKind;
use serde::{Deserialize, Serialize};

/// The most nodes a machine may have: the width of the directory's sharer
/// sets.
pub const MAX_PROCS: usize = 128;

/// Data-placement policy: which node is the *home* of a memory block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistributionPolicy {
    /// Consecutive 4 kB pages are assigned to nodes round-robin.
    PageInterleave,
    /// Consecutive 32 B blocks are assigned to nodes round-robin.
    BlockInterleave,
    /// The first processor to touch a page becomes its home (requires the
    /// stateful [`crate::addr::HomeMap`]).
    FirstTouch,
    /// Explicit placement: the workload encodes the home node in the upper
    /// address bits (used by the structural workload models, which know the
    /// owner of every data structure).
    Explicit,
}

/// A set-associative cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles (added to the load-to-use path on a hit in
    /// this level after a miss in the previous one).
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn n_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.assoc as u64)
    }
}

/// Main-memory (SDRAM) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Access latency in cycles (75 ns at 2 GHz = 150 cycles).
    pub latency_cycles: u64,
    /// Independently scheduled SDRAM banks per controller; consecutive
    /// blocks interleave across banks (Table I: "SDRAM interleaved").
    pub banks: usize,
    /// Minimum cycles between the start of consecutive block transfers at
    /// one controller, i.e. `block_bytes / bandwidth`. 32 B at 2.6 GB/s and
    /// 2 GHz is ~24.6 cycles; we round up to 25. This gap is what produces
    /// queueing (contention) delays at hot home nodes.
    pub service_gap_cycles: u64,
}

/// Interconnect configuration (topology + wormhole-routing latencies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Interconnect layout the fabric routes over. The default hypercube
    /// reproduces the paper's Table I network; the other layouts exist for
    /// the `topologies` sweep (detector quality vs network diameter).
    #[serde(default)]
    pub topology: TopologyKind,
    /// Per-hop pin-to-pin latency in cycles (16 ns at 2 GHz = 32 cycles).
    pub hop_cycles: u64,
    /// Router pipeline occupancy per hop in cycles (400 MHz pipelined router
    /// = 2.5 ns per stage = 5 cycles at 2 GHz).
    pub router_cycles: u64,
    /// Serialization cycles for a cache-block-sized payload (header +
    /// 32 B over the wormhole channel).
    pub payload_cycles: u64,
    /// Serialization cycles for a header-only control message
    /// (request/invalidation/ack).
    pub header_cycles: u64,
    /// Model per-link wormhole channel occupancy along the e-cube route
    /// (messages queue behind earlier messages on each directed link).
    /// Off by default: the paper's contention story concentrates at the
    /// home memory controllers, and the calibrated figures use that model;
    /// enabling it adds network-path queueing on top (see the
    /// `sensitivity` experiment).
    pub link_contention: bool,
}

impl NetworkConfig {
    /// One-way latency of a `hops`-hop message carrying `payload` or not.
    #[inline]
    pub fn one_way(&self, hops: u32, payload: bool) -> u64 {
        if hops == 0 {
            return 0;
        }
        let ser = if payload {
            self.payload_cycles
        } else {
            self.header_cycles
        };
        hops as u64 * (self.hop_cycles + self.router_cycles) + ser
    }
}

/// Retransmission policy for coherence messages lost to injected faults.
///
/// The requester arms a timer when it transmits; if the message (or its
/// reply) is lost, the timer fires after `timeout_cycles` and the request is
/// retransmitted with exponential backoff. After `max_retries` consecutive
/// losses the transfer escalates to a reliable (acknowledged, high-priority)
/// channel and is delivered unconditionally — this models the escalation
/// path real DSM fabrics use and guarantees the protocol never livelocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Cycles the requester waits before the first retransmission.
    pub timeout_cycles: u64,
    /// Backoff cap: the per-attempt timeout doubles up to this many cycles.
    pub max_backoff_cycles: u64,
    /// Dropped attempts tolerated before escalating to reliable delivery.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// Defaults sized to the Table I network: the timeout comfortably covers
    /// a worst-case hypercube round trip plus memory service.
    pub fn default_paper() -> Self {
        Self { timeout_cycles: 600, max_backoff_cycles: 10_000, max_retries: 8 }
    }

    /// Timeout armed for retransmission attempt `attempt` (1-based count of
    /// *failed* sends so far): exponential backoff, capped.
    #[inline]
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        (self.timeout_cycles << shift).min(self.max_backoff_cycles).max(self.timeout_cycles)
    }

    /// Upper bound on the extra cycles fault recovery can add to one
    /// message: every tolerated drop waits at most the backoff cap.
    pub fn worst_case_recovery_cycles(&self) -> u64 {
        self.max_retries as u64 * self.max_backoff_cycles.max(self.timeout_cycles)
    }
}

/// Deterministic fault-injection plan for the DSM fabric.
///
/// All probabilities are in parts-per-million so the plan stays `Eq`/`Hash`
/// and every decision reduces to integer comparisons against a seeded
/// [`crate::util::splitmix64`] stream — two runs with the same plan and the
/// same workload are bit-identical. [`FaultPlan::none`] disables the whole
/// subsystem: the simulator then never consults the fault RNG and its output
/// is bit-for-bit the fault-free build's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-message fault stream (and the per-epoch slowdown
    /// hash). Same seed + same workload = same faults.
    pub seed: u64,
    /// Per-message drop probability (message lost in the fabric), ppm.
    pub drop_ppm: u32,
    /// Per-message duplication probability (a second copy arrives and is
    /// NACKed by the home), ppm.
    pub duplicate_ppm: u32,
    /// Per-message latency-spike probability (transient link stall), ppm.
    pub spike_ppm: u32,
    /// Cycles one latency spike adds to the affected message.
    pub spike_cycles: u64,
    /// Per-(node, epoch) transient slowdown probability, ppm.
    pub slowdown_ppm: u32,
    /// Epoch length of the slowdown windows, in cycles.
    pub slowdown_window_cycles: u64,
    /// Extra exposed stall a slowed node pays on every L2 miss, as a
    /// fraction of the raw miss latency in 1/256 units (integer arithmetic
    /// like [`CoreConfig::stall_exposure_num`]).
    pub slowdown_extra_num: u64,
    /// Issue-throttle numerator: inside a slowdown window the node also
    /// pays `insns * num / 256` extra cycles per committed instruction —
    /// a clock-throttle model that slows compute-bound nodes too, where
    /// `slowdown_extra_num` alone only amplifies exposed miss stalls
    /// (0 = stall amplification only). Multiples of 256 keep the charge
    /// exact per instruction and therefore invariant to how the scheduler
    /// chunks commits.
    pub slowdown_issue_num: u64,
    /// Restrict slowdown epochs to one node (`None` = every node draws from
    /// the per-(node, epoch) hash as before). With `slowdown_ppm` at 1e6
    /// this turns the stochastic slowdown model into a targeted straggler —
    /// the ground truth the diagnostics layer is validated against.
    #[serde(default)]
    pub slowdown_node: Option<usize>,
    /// First cycle at which slowdown epochs may fire (0 = from the start).
    #[serde(default)]
    pub slowdown_from_cycle: u64,
    /// Cycle bound past which slowdown epochs stop firing (0 = unbounded).
    #[serde(default)]
    pub slowdown_until_cycle: u64,
    /// Retransmission policy for lost messages.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The empty plan: no faults, no RNG draws, bit-identical output to a
    /// build without the fault subsystem.
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_ppm: 0,
            duplicate_ppm: 0,
            spike_ppm: 0,
            spike_cycles: 0,
            slowdown_ppm: 0,
            slowdown_window_cycles: 0,
            slowdown_extra_num: 0,
            slowdown_issue_num: 0,
            slowdown_node: None,
            slowdown_from_cycle: 0,
            slowdown_until_cycle: 0,
            retry: RetryPolicy::default_paper(),
        }
    }

    /// A message-loss-only plan at `drop_rate` (fraction of messages lost).
    pub fn drops(seed: u64, drop_rate: f64) -> Self {
        Self { seed, drop_ppm: Self::ppm(drop_rate), ..Self::none() }
    }

    /// A mixed plan: drops, duplicates and spikes each at `rate`, plus
    /// occasional node slowdowns — the harness fault-sweep's default shape.
    pub fn mixed(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            drop_ppm: Self::ppm(rate),
            duplicate_ppm: Self::ppm(rate),
            spike_ppm: Self::ppm(rate),
            spike_cycles: 400,
            slowdown_ppm: Self::ppm(rate),
            slowdown_window_cycles: 50_000,
            slowdown_extra_num: 128, // +50 % exposed stall while slowed
            ..Self::none()
        }
    }

    /// A targeted straggler: exactly `node` runs slow (every epoch fires —
    /// `slowdown_ppm` is 1), paying a +75 % exposed-stall penalty *and* an
    /// issue throttle of +4 cycles per committed instruction, inside the
    /// cycle window `[from_cycle, until_cycle)` (`until_cycle` 0 =
    /// unbounded). No message faults. This is the deterministic ground
    /// truth for the diagnostics layer's blind-localization gate.
    pub fn straggler(seed: u64, node: usize, from_cycle: u64, until_cycle: u64) -> Self {
        Self {
            seed,
            slowdown_ppm: 1_000_000,
            slowdown_window_cycles: 50_000,
            slowdown_extra_num: 192,
            slowdown_issue_num: 1024, // +4 cycles per committed instruction
            slowdown_node: Some(node),
            slowdown_from_cycle: from_cycle,
            slowdown_until_cycle: until_cycle,
            ..Self::none()
        }
    }

    fn ppm(rate: f64) -> u32 {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        (rate * 1_000_000.0).round() as u32
    }

    /// Whether any fault class can fire. False for [`FaultPlan::none`]-like
    /// plans; the simulator then bypasses the fault layer entirely.
    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0
            || self.duplicate_ppm > 0
            || self.spike_ppm > 0
            || self.slowdown_ppm > 0
    }

    /// Validate internal consistency; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        for (name, ppm) in [
            ("drop_ppm", self.drop_ppm),
            ("duplicate_ppm", self.duplicate_ppm),
            ("spike_ppm", self.spike_ppm),
        ] {
            if ppm > 1_000_000 {
                return Err(format!("{name} {ppm} exceeds 1e6 (a probability)"));
            }
        }
        if self.drop_ppm as u64 + self.duplicate_ppm as u64 + self.spike_ppm as u64 > 1_000_000 {
            return Err("drop + duplicate + spike probabilities exceed 1".into());
        }
        if self.slowdown_ppm > 1_000_000 {
            return Err("slowdown_ppm exceeds 1e6 (a probability)".into());
        }
        if self.slowdown_ppm > 0 && self.slowdown_window_cycles == 0 {
            return Err("slowdown enabled but slowdown_window_cycles is 0".into());
        }
        if self.slowdown_until_cycle != 0 && self.slowdown_until_cycle <= self.slowdown_from_cycle {
            return Err("slowdown_until_cycle must exceed slowdown_from_cycle (or be 0)".into());
        }
        if self.is_active() && self.retry.timeout_cycles == 0 {
            return Err("retry timeout must be nonzero when faults are active".into());
        }
        Ok(())
    }
}

/// Processor core configuration (cycle-accounting model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Commit width (instructions per cycle through the int pipeline).
    pub commit_width: u32,
    /// Number of floating-point units (FP throughput per cycle).
    pub fpu_units: u32,
    /// Branch mispredict penalty in cycles.
    pub mispredict_penalty: u64,
    /// gshare predictor table entries (must be a power of two).
    pub gshare_entries: usize,
    /// Fraction of a memory stall actually exposed to the pipeline,
    /// in 1/256 units. An out-of-order core overlaps part of every miss with
    /// independent work; 154/256 ≈ 0.6 is a standard MLP discount. Stored as
    /// an integer so the whole timing model stays in integer arithmetic.
    pub stall_exposure_num: u64,
}

impl CoreConfig {
    pub const STALL_EXPOSURE_DEN: u64 = 256;

    /// Apply the MLP discount to a raw miss latency.
    #[inline]
    pub fn exposed_stall(&self, raw: u64) -> u64 {
        raw * self.stall_exposure_num / Self::STALL_EXPOSURE_DEN
    }
}

/// Full system configuration (Table I of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of processors/nodes (2..=32 in the paper; must be a power of
    /// two for the hypercube).
    pub n_procs: usize,
    /// Core frequency in MHz (2 000 in the paper). Used only for reporting
    /// and the §III-B bandwidth-overhead model.
    pub freq_mhz: u64,
    pub core: CoreConfig,
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    pub memory: MemoryConfig,
    pub network: NetworkConfig,
    pub distribution: DistributionPolicy,
    /// Directory lookup latency at the home node, in cycles.
    pub directory_cycles: u64,
    /// Fixed cost of a synchronization operation (barrier arrival, lock
    /// acquire/release), in cycles, on top of any waiting.
    pub sync_cycles: u64,
    /// Committed **non-synchronization** instructions per sampling interval
    /// on each processor. The paper uses 3 M divided by the number of
    /// processors; constructors apply that division.
    pub interval_insns: u64,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] by default:
    /// the fault layer is bypassed and output is bit-identical to a
    /// fault-free build).
    pub fault: FaultPlan,
}

impl SystemConfig {
    /// The architecture of Table I at paper scale: 3 M-instruction interval
    /// base divided by `n_procs`.
    pub fn paper(n_procs: usize) -> Self {
        Self::with_interval_base(n_procs, 3_000_000)
    }

    /// Table I architecture with an explicit system-wide interval base
    /// (per-processor interval = `base / n_procs`, the paper's scaling rule).
    pub fn with_interval_base(n_procs: usize, interval_base: u64) -> Self {
        assert!(n_procs.is_power_of_two(), "hypercube needs a power of two");
        assert!((1..=1024).contains(&n_procs));
        Self {
            n_procs,
            freq_mhz: 2000,
            core: CoreConfig {
                commit_width: 6,
                fpu_units: 4,
                mispredict_penalty: 14,
                gshare_entries: 2048,
                stall_exposure_num: 154, // ~0.6
            },
            l1: CacheConfig {
                size_bytes: 16 * 1024,
                assoc: 1,
                line_bytes: 32,
                latency_cycles: 1,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                assoc: 8,
                line_bytes: 32,
                latency_cycles: 12,
            },
            memory: MemoryConfig {
                latency_cycles: 150,   // 75 ns at 2 GHz
                service_gap_cycles: 25, // 32 B at 2.6 GB/s
                banks: 1,
            },
            network: NetworkConfig {
                topology: TopologyKind::Hypercube,
                hop_cycles: 32,   // 16 ns pin-to-pin
                router_cycles: 5, // 400 MHz pipelined router
                payload_cycles: 26,
                header_cycles: 4,
                link_contention: false,
            },
            distribution: DistributionPolicy::Explicit,
            directory_cycles: 6,
            sync_cycles: 40,
            interval_insns: (interval_base / n_procs as u64).max(1),
            fault: FaultPlan::none(),
        }
    }

    /// A scaled configuration for the reduced default inputs (see DESIGN.md
    /// §7): identical latencies and geometry except a smaller L2 so that the
    /// scaled working sets keep the paper's working-set-to-cache ratio.
    pub fn scaled(n_procs: usize, interval_base: u64) -> Self {
        let mut cfg = Self::with_interval_base(n_procs, interval_base);
        cfg.l2.size_bytes = 256 * 1024;
        cfg
    }

    /// Per-processor sampling-interval length in committed non-sync
    /// instructions.
    pub fn interval_len(&self) -> u64 {
        self.interval_insns
    }

    /// Validate internal consistency; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if !self.n_procs.is_power_of_two() {
            return Err(format!("n_procs {} is not a power of two", self.n_procs));
        }
        if self.n_procs > MAX_PROCS {
            return Err(format!("n_procs {} exceeds {MAX_PROCS}", self.n_procs));
        }
        for (name, c) in [("L1", &self.l1), ("L2", &self.l2)] {
            if !c.line_bytes.is_power_of_two() {
                return Err(format!("{name} line size must be a power of two"));
            }
            if c.assoc == 0 {
                return Err(format!("{name} associativity must be nonzero"));
            }
            let sets = c.n_sets();
            if sets == 0 || !sets.is_power_of_two() {
                return Err(format!("{name} set count {sets} must be a nonzero power of two"));
            }
            if let Some(e) = crate::cache::word_fit_error(c) {
                return Err(format!("{name} {e}"));
            }
        }
        if !self.core.gshare_entries.is_power_of_two() {
            return Err("gshare entries must be a power of two".into());
        }
        if self.core.commit_width == 0 || self.core.fpu_units == 0 {
            return Err("core widths must be nonzero".into());
        }
        if self.interval_insns == 0 {
            return Err("interval length must be nonzero".into());
        }
        self.fault.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_one() {
        let c = SystemConfig::paper(32);
        assert_eq!(c.freq_mhz, 2000);
        assert_eq!(c.core.commit_width, 6);
        assert_eq!(c.core.fpu_units, 4);
        assert_eq!(c.core.gshare_entries, 2048);
        assert_eq!(c.l1.size_bytes, 16 * 1024);
        assert_eq!(c.l1.assoc, 1);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.l2.line_bytes, 32);
        assert_eq!(c.l2.latency_cycles, 12);
        assert_eq!(c.memory.latency_cycles, 150); // 75 ns @ 2 GHz
        assert_eq!(c.network.hop_cycles, 32); // 16 ns @ 2 GHz
        assert!(c.validate().is_ok());
    }

    #[test]
    fn interval_scales_inversely_with_procs() {
        // Paper: "3M committed non-synchronization instructions, divided by
        // the number of processors in each configuration".
        assert_eq!(SystemConfig::paper(2).interval_len(), 1_500_000);
        assert_eq!(SystemConfig::paper(8).interval_len(), 375_000);
        assert_eq!(SystemConfig::paper(32).interval_len(), 93_750);
    }

    #[test]
    fn cache_geometry() {
        let c = SystemConfig::paper(8);
        assert_eq!(c.l1.n_sets(), 512); // 16 kB / 32 B direct-mapped
        assert_eq!(c.l2.n_sets(), 8192); // 2 MB / (32 B * 8)
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_procs_panics() {
        let _ = SystemConfig::paper(12);
    }

    #[test]
    fn validate_catches_bad_geometry() {
        let mut c = SystemConfig::paper(4);
        c.l1.line_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::paper(4);
        c.core.gshare_entries = 1000;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::paper(4);
        c.interval_insns = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_refuses_caches_whose_line_word_overflows() {
        // Ranks of up to 16 ways fit the line word; 32 ways do not.
        let mut c = SystemConfig::paper(4);
        c.l2.assoc = 16;
        assert!(c.validate().is_ok());
        c.l2.assoc = 32;
        let e = c.validate().unwrap_err();
        assert!(e.starts_with("L2 associativity 32 exceeds 16"), "{e}");
        // A 2-set cache of 4-byte lines leaves 61-bit tags.
        let mut c = SystemConfig::paper(4);
        c.l1 = CacheConfig { size_bytes: 8, assoc: 1, line_bytes: 4, latency_cycles: 1 };
        let e = c.validate().unwrap_err();
        assert!(e.starts_with("L1 61-bit tags"), "{e}");
    }

    #[test]
    fn validate_caps_machines_at_max_procs() {
        assert!(SystemConfig::paper(MAX_PROCS).validate().is_ok());
        assert!(SystemConfig::paper(2 * MAX_PROCS).validate().is_err());
    }

    #[test]
    fn network_one_way_latency() {
        let c = SystemConfig::paper(32);
        assert_eq!(c.network.one_way(0, true), 0);
        let one_hop = c.network.one_way(1, false);
        let two_hop = c.network.one_way(2, false);
        assert!(two_hop > one_hop);
        assert!(c.network.one_way(1, true) > one_hop);
    }

    #[test]
    fn fault_plan_none_is_inactive_and_valid() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(p.validate().is_ok());
        assert!(SystemConfig::paper(4).validate().is_ok());
        assert_eq!(SystemConfig::paper(4).fault, FaultPlan::none());
    }

    #[test]
    fn fault_plan_constructors_and_validation() {
        let p = FaultPlan::drops(7, 0.01);
        assert!(p.is_active());
        assert_eq!(p.drop_ppm, 10_000);
        assert_eq!(p.duplicate_ppm, 0);
        assert!(p.validate().is_ok());

        let m = FaultPlan::mixed(7, 0.001);
        assert!(m.is_active());
        assert!(m.validate().is_ok());
        assert_eq!(m.drop_ppm, 1_000);
        assert!(m.slowdown_window_cycles > 0);

        let mut bad = FaultPlan::drops(0, 0.5);
        bad.duplicate_ppm = 600_000; // 0.5 + 0.6 > 1
        assert!(bad.validate().is_err());

        let mut bad = FaultPlan::mixed(0, 0.01);
        bad.slowdown_window_cycles = 0;
        assert!(bad.validate().is_err());

        let mut bad = FaultPlan::drops(0, 0.01);
        bad.retry.timeout_cycles = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let r = RetryPolicy { timeout_cycles: 100, max_backoff_cycles: 450, max_retries: 8 };
        assert_eq!(r.backoff(1), 100);
        assert_eq!(r.backoff(2), 200);
        assert_eq!(r.backoff(3), 400);
        assert_eq!(r.backoff(4), 450); // capped
        assert_eq!(r.backoff(60), 450); // shift saturates, still capped
        assert_eq!(r.worst_case_recovery_cycles(), 8 * 450);
    }

    #[test]
    fn exposed_stall_discounts() {
        let core = SystemConfig::paper(2).core;
        assert!(core.exposed_stall(100) < 100);
        assert!(core.exposed_stall(100) > 40);
        assert_eq!(core.exposed_stall(0), 0);
    }
}
