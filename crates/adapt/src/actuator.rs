//! Actuators: what a tuning-protocol configuration number *means* on the
//! machine.
//!
//! Each actuator interprets the protocol's config space `0..n_configs` as a
//! family of real reconfigurations applied through the [`Machine`] seam at
//! interval boundaries.
//! Config 0 is always the machine's default setting, so the untuned arm and
//! the first trial of every phase run the stock machine — and the
//! [`NoopActuator`] (every config inert) leaves any run bit-identical to a
//! simulator without the adaptation layer.

use dsm_sim::config::CoreConfig;
use dsm_sim::reconfig::{Machine, DVFS_NOMINAL};

/// DVFS numerator for a boosted node (deeper effective MLP window: fewer
/// exposed stall cycles — 224/256 ≈ 0.875×).
pub const DVFS_BOOST_NUM: u64 = 224;
/// DVFS numerator for a slowed node (288/256 = 1.125× exposed stall).
pub const DVFS_SLOW_NUM: u64 = 288;

/// Hot-page candidates examined by the focused migration configs.
pub const MIGRATE_TOP_SMALL: usize = 8;
/// Hot-page candidates examined by the aggressive migration config.
pub const MIGRATE_TOP_LARGE: usize = 32;
/// Hot-page candidates examined by the placement-repair config. Bounds the
/// one-sweep stall cost (each changed page stalls every processor
/// [`dsm_sim::reconfig::PAGE_MIGRATE_STALL_CYCLES`] cycles).
pub const MIGRATE_REPAIR_POOL: usize = 512;

/// A machine reconfiguration family driven by the tuning protocol.
///
/// `apply` is called at every interval boundary with the configuration the
/// protocol wants in force; it must be **idempotent** — re-applying the
/// configuration already in force performs no machine change and charges no
/// cost (the [`Machine`] knobs guarantee this: re-homing a page to its
/// current home, setting an unchanged DVFS level, or swapping in the
/// profile already in force are all free no-ops).
pub trait Actuator {
    fn name(&self) -> &'static str;

    /// Size of the configuration space (the protocol trials `0..n`).
    fn n_configs(&self) -> usize {
        4
    }

    /// One-time setup before the run starts (e.g. enabling hot-page touch
    /// tracking). Idempotent: resume paths call it again on the restored
    /// machine.
    fn prepare(&mut self, _m: &mut dyn Machine) {}

    /// Put configuration `config` in force.
    fn apply(&mut self, m: &mut dyn Machine, config: usize);

    /// Opaque actuator-private state words for checkpointing (empty for the
    /// stateless built-ins; the hook keeps DSMCKPT9 forward-compatible with
    /// stateful actuators).
    fn export(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restore state captured by [`Actuator::export`].
    fn import(&mut self, _words: &[u64]) {}
}

/// Every configuration is a no-op. The differential arm: a tuned run with
/// this actuator must be bit-identical to a plain capture.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopActuator;

impl Actuator for NoopActuator {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn apply(&mut self, _m: &mut dyn Machine, _config: usize) {}
}

/// Phase-guided home-node page migration.
///
/// Configs: 0 = leave placement alone; 1 = re-home the top
/// [`MIGRATE_TOP_SMALL`] most-missed pages to their dominant toucher;
/// 2 = the same for the top [`MIGRATE_TOP_LARGE`]; 3 = placement repair:
/// re-home every page in the top [`MIGRATE_REPAIR_POOL`] whose dominant
/// toucher is a strict majority of its misses and differs from its current
/// home (the daemon shape: fix a pathological initial placement — e.g.
/// first-touch after serial initialization — in one sweep, leaving
/// genuinely shared pages alone).
///
/// The touch window resets after every non-zero application so each
/// decision sees only the traffic since the last one — migration under a
/// locked config keeps following the phase's current hot set.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationActuator;

impl Actuator for MigrationActuator {
    fn name(&self) -> &'static str {
        "migrate"
    }

    fn prepare(&mut self, m: &mut dyn Machine) {
        m.enable_touch_tracking();
    }

    fn apply(&mut self, m: &mut dyn Machine, config: usize) {
        match config {
            0 => return,
            1 | 2 => {
                let k = if config == 1 { MIGRATE_TOP_SMALL } else { MIGRATE_TOP_LARGE };
                for hp in m.hot_pages(k) {
                    m.migrate_page(hp.page, hp.dominant);
                }
            }
            3 => {
                for hp in m.hot_pages(MIGRATE_REPAIR_POOL) {
                    if hp.dominant != hp.home && 2 * hp.misses > hp.total_misses {
                        m.migrate_page(hp.page, hp.dominant);
                    }
                }
            }
            c => panic!("migration config {c} out of range"),
        }
        m.reset_touches();
    }
}

/// DVFS-style per-node slowdown/boost epochs.
///
/// Configs: 0 = every node at [`DVFS_NOMINAL`]; config `c` in 1..4 boosts
/// the `c·n/4` nodes with the most accumulated memory-stall cycles to
/// [`DVFS_BOOST_NUM`] and slows the `c·n/4` least-stalled to
/// [`DVFS_SLOW_NUM`] (spend the power budget where the stalls are). Node
/// ranking is deterministic: stall cycles descending, node id ascending on
/// ties.
#[derive(Debug, Clone, Copy, Default)]
pub struct DvfsActuator;

impl Actuator for DvfsActuator {
    fn name(&self) -> &'static str {
        "dvfs"
    }

    fn apply(&mut self, m: &mut dyn Machine, config: usize) {
        let n = m.n_procs();
        assert!(config < 4, "dvfs config {config} out of range");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&p| (std::cmp::Reverse(m.proc_mem_stall(p)), p));
        let k = config * n / 4;
        for (rank, &p) in order.iter().enumerate() {
            let num = if rank < k {
                DVFS_BOOST_NUM
            } else if rank >= n - k {
                DVFS_SLOW_NUM
            } else {
                DVFS_NOMINAL
            };
            m.set_dvfs_level(p, num);
        }
    }
}

/// The little sibling of `profile`: half-width commit, half the FPUs, a
/// shallower pipeline (smaller mispredict penalty) and a less aggressive
/// out-of-order window (lower MLP overlap, so *less* of each memory stall
/// is exposed — 110/256 vs the big core's 154/256). Memory-bound phases
/// lose little throughput and gain stall overlap on it; compute-bound
/// phases want the big core's width. The gshare table is physical and
/// keeps its geometry.
pub fn little_core(profile: CoreConfig) -> CoreConfig {
    CoreConfig {
        commit_width: 2,
        fpu_units: 2,
        mispredict_penalty: 8,
        gshare_entries: profile.gshare_entries,
        stall_exposure_num: 110,
    }
}

/// Heterogeneous phase-to-core mapping: swap nodes between a big and a
/// little cycle-cost profile.
///
/// Configs: 0 = every node on the big (configured) profile; 1 = every node
/// little; 2 = the `n/2` most memory-stalled nodes little, rest big;
/// 3 = the `n/4` most-stalled little. Ranking as in [`DvfsActuator`].
#[derive(Debug, Clone, Copy)]
pub struct HeteroActuator {
    big: CoreConfig,
    little: CoreConfig,
}

impl HeteroActuator {
    /// `big` is the machine's configured core profile
    /// (`SystemConfig::core`) — passed explicitly so a resumed session
    /// reconstructs the same pair regardless of the profiles currently in
    /// force on the restored machine.
    pub fn new(big: CoreConfig) -> Self {
        Self { big, little: little_core(big) }
    }
}

impl Actuator for HeteroActuator {
    fn name(&self) -> &'static str {
        "hetero"
    }

    fn apply(&mut self, m: &mut dyn Machine, config: usize) {
        let n = m.n_procs();
        let little_count = match config {
            0 => 0,
            1 => n,
            2 => n / 2,
            3 => n / 4,
            c => panic!("hetero config {c} out of range"),
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&p| (std::cmp::Reverse(m.proc_mem_stall(p)), p));
        for (rank, &p) in order.iter().enumerate() {
            let profile = if rank < little_count { self.little } else { self.big };
            m.set_core_profile(p, profile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::config::SystemConfig;

    #[test]
    fn little_core_keeps_gshare_geometry() {
        let big = SystemConfig::paper(2).core;
        let little = little_core(big);
        assert_eq!(little.gshare_entries, big.gshare_entries);
        assert!(little.commit_width < big.commit_width);
        assert!(little.stall_exposure_num < big.stall_exposure_num);
    }

    #[test]
    fn builtin_actuators_expose_four_configs() {
        let big = SystemConfig::paper(2).core;
        assert_eq!(NoopActuator.n_configs(), 4);
        assert_eq!(MigrationActuator.n_configs(), 4);
        assert_eq!(DvfsActuator.n_configs(), 4);
        assert_eq!(HeteroActuator::new(big).n_configs(), 4);
        assert!(NoopActuator.export().is_empty());
    }
}
