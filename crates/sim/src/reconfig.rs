//! Mid-run machine reconfiguration: the seam the phase-guided adaptation
//! subsystem (`dsm-adapt`) actuates through.
//!
//! The paper's §II loop locks a hardware configuration per detected phase
//! and re-applies it whenever the phase recurs. Historically this repo
//! modelled that abstractly (a cost multiplier in `dsm-harness`); the
//! [`Machine`] trait makes it concrete. It exposes exactly the knobs a
//! reconfiguration module may turn **at a sampling-interval boundary**:
//!
//! * **page re-homing** — move a page's home node (directory + memory
//!   service point), changing the DDV home distribution and remote-miss
//!   traffic for every later access ([`Machine::migrate_page`]);
//! * **DVFS epochs** — a per-node exposed-stall scaling factor in 1/256
//!   units, the same arithmetic shape as the fault layer's slowdown
//!   epochs ([`Machine::set_dvfs_level`]);
//! * **heterogeneous cores** — swap a node's [`CoreConfig`] cycle-cost
//!   profile (big/little phase-to-core mapping,
//!   [`Machine::set_core_profile`]).
//!
//! Every knob is **inert by construction** at its default setting: no
//! overrides, DVFS at [`DVFS_NOMINAL`], the configured core profile.
//! A run that never calls a mutating method is bit-identical to a build
//! without this module — the `adapt_equivalence` differential suite pins
//! that, mirroring the `FaultPlan::none` guarantee.

use serde::{Deserialize, Serialize};

use crate::addr::NodeId;
use crate::config::CoreConfig;

/// Nominal DVFS numerator: stall × 256/256 — exact identity.
pub const DVFS_NOMINAL: u64 = 256;

/// Cycles every running processor stalls per migrated page (TLB shootdown
/// plus the page DMA's exposed tail; the bulk of the copy is overlapped).
/// Charged by [`Machine::migrate_page`] at the interval boundary.
pub const PAGE_MIGRATE_STALL_CYCLES: u64 = 48;

/// One hot page candidate reported by [`Machine::hot_pages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotPage {
    /// Page index (`addr >> PAGE_SHIFT`).
    pub page: u64,
    /// Current home node of the page.
    pub home: NodeId,
    /// Node that issued the most L2 misses to the page since tracking was
    /// last reset (ties broken toward the lower node id).
    pub dominant: NodeId,
    /// Misses from the dominant node in the tracked window.
    pub misses: u64,
    /// Total misses to the page in the tracked window.
    pub total_misses: u64,
}

/// Counters for every reconfiguration the machine has applied. All zero on
/// a run that never reconfigures (the no-op differential arm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigStats {
    /// Pages re-homed by [`Machine::migrate_page`].
    pub migrations: u64,
    /// Total stall cycles charged to processors for page moves.
    pub migration_stall_cycles: u64,
    /// DVFS level changes (per-node epoch starts).
    pub dvfs_epochs: u64,
    /// Extra stall cycles injected by DVFS levels above nominal.
    pub dvfs_extra_cycles: u64,
    /// Stall cycles removed by DVFS levels below nominal.
    pub dvfs_saved_cycles: u64,
    /// Core-profile swaps applied by [`Machine::set_core_profile`].
    pub core_switches: u64,
}

impl ReconfigStats {
    /// True when no reconfiguration ever touched the machine.
    pub fn is_inert(&self) -> bool {
        *self == Self::default()
    }

    /// Mirror the counters into a metrics registry under `prefix`
    /// (`adapt/migrations`, `adapt/epochs`, … for the default prefix).
    pub fn publish(&self, prefix: &str, reg: &mut dsm_telemetry::MetricsRegistry) {
        reg.counter_add(&format!("{prefix}/migrations"), self.migrations);
        reg.counter_add(
            &format!("{prefix}/migration_stall_cycles"),
            self.migration_stall_cycles,
        );
        reg.counter_add(&format!("{prefix}/epochs"), self.dvfs_epochs);
        reg.counter_add(&format!("{prefix}/dvfs_extra_cycles"), self.dvfs_extra_cycles);
        reg.counter_add(&format!("{prefix}/dvfs_saved_cycles"), self.dvfs_saved_cycles);
        reg.counter_add(&format!("{prefix}/core_switches"), self.core_switches);
    }
}

/// Snapshot of the reconfiguration layer (checkpointed as part of
/// [`crate::state::SystemState`] so DSMCKPT6 resumes mid-tuning
/// bit-exactly).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReconfigSnap {
    /// Per-node DVFS numerators (empty ⇒ all nominal).
    pub dvfs_num: Vec<u64>,
    pub stats: ReconfigStats,
}

/// The reconfigurable machine, as seen by an adaptation actuator.
///
/// Implemented by [`crate::system::System`] for every stream/observer
/// combination; object-safe so actuators can be written once against
/// `&mut dyn Machine`. Mutating methods are meant to be called at a
/// sampling-interval boundary (e.g. after
/// [`crate::system::System::run_to_interval`] returns): they may advance
/// processor clocks (migration stalls) and the caller must not hold a
/// partially executed event.
pub trait Machine {
    /// Number of processors/nodes.
    fn n_procs(&self) -> usize;

    /// Current cycle-cost profile of node `p`.
    fn core_profile(&self, p: usize) -> CoreConfig;

    /// Swap node `p`'s cycle-cost profile. The gshare geometry is fixed
    /// hardware — `profile.gshare_entries` must match the current one.
    /// Counts a `core_switches` epoch only when the profile changes.
    fn set_core_profile(&mut self, p: usize, profile: CoreConfig);

    /// Current DVFS numerator of node `p` ([`DVFS_NOMINAL`] = full speed).
    fn dvfs_level(&self, p: usize) -> u64;

    /// Set node `p`'s DVFS numerator: exposed memory stalls are scaled by
    /// `num/256` from the next miss on (above 256 = slower clock / more
    /// exposed stall, below = boosted). Counts an epoch when it changes.
    fn set_dvfs_level(&mut self, p: usize, num: u64);

    /// Start counting per-page L2 misses (the [`Machine::hot_pages`]
    /// signal). Off by default — tracking costs a hash update per miss.
    fn enable_touch_tracking(&mut self);

    /// The `k` most-missed pages in the current tracking window, hottest
    /// first (ties toward the lower page index). Empty when tracking is
    /// off or nothing missed.
    fn hot_pages(&self, k: usize) -> Vec<HotPage>;

    /// Reset the touch-tracking window (typically after a re-tune, so the
    /// next decision sees the current phase's traffic only).
    fn reset_touches(&mut self);

    /// Re-home `page` to `to`. Returns false (and charges nothing) when
    /// the page already lives there; otherwise installs the override,
    /// stalls every running processor by [`PAGE_MIGRATE_STALL_CYCLES`]
    /// (TLB shootdown), and counts the move.
    fn migrate_page(&mut self, page: u64, to: NodeId) -> bool;

    /// Whole-run memory-stall cycles charged to node `p` so far (the DVFS
    /// actuator's targeting signal).
    fn proc_mem_stall(&self, p: usize) -> u64;

    /// Reconfiguration counters so far.
    fn reconfig_stats(&self) -> ReconfigStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_inert() {
        assert!(ReconfigStats::default().is_inert());
        let s = ReconfigStats { migrations: 1, ..Default::default() };
        assert!(!s.is_inert());
    }

    #[test]
    fn publish_mirrors_counters() {
        let mut reg = dsm_telemetry::MetricsRegistry::new();
        let s = ReconfigStats {
            migrations: 3,
            migration_stall_cycles: 144,
            dvfs_epochs: 2,
            dvfs_extra_cycles: 10,
            dvfs_saved_cycles: 5,
            core_switches: 1,
        };
        s.publish("adapt", &mut reg);
        assert_eq!(reg.counter_value("adapt/migrations"), Some(3));
        assert_eq!(reg.counter_value("adapt/epochs"), Some(2));
        assert_eq!(reg.counter_value("adapt/core_switches"), Some(1));
    }
}
