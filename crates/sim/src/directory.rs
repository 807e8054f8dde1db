//! Home-based directory coherence protocol (MESI-flavoured).
//!
//! Every 32 B block has a home node; the home's directory tracks whether the
//! block is uncached, shared by a set of nodes, or exclusively owned. The
//! directory returns the *actions* a request implies (fetch from memory,
//! forward from a dirty owner, invalidate sharers); the system loop turns
//! those actions into network and memory-controller latencies and into
//! invalidations of the private caches.
//!
//! Sharer sets hold up to [`MAX_PROCS`](crate::MAX_PROCS) nodes. A
//! block's map entry keeps the sharers among nodes 0–63 as a `u64`
//! bitmask, so [`DirState`] stays 16 bytes; the bits of nodes 64–127 live
//! in a side table that a machine of 64 nodes or fewer never touches. The
//! sets a request returns are `u128`.

use std::collections::hash_map::Entry;

use crate::util::FxHashMap;
use serde::{Deserialize, Serialize};

/// Directory state of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// Cached read-only by the nodes 0–63 in the mask, plus any nodes
    /// 64–127 the directory's side table lists for the block (so the mask
    /// may be 0 on a machine of more than 64 nodes).
    Shared(u64),
    /// Cached with write permission by one node (possibly dirty there).
    Exclusive(usize),
}

/// Where the data for a read comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Home memory supplies the block.
    Memory,
    /// A dirty remote owner forwards the block (home memory not accessed).
    Owner(usize),
}

/// Outcome of a read miss reaching the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    pub source: ReadSource,
}

/// Outcome of a write miss (or upgrade) reaching the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Nodes (excluding the requester) whose cached copies must be
    /// invalidated.
    pub invalidate_mask: u128,
    /// A dirty exclusive owner that forwards the block to the requester.
    pub owner_forward: Option<usize>,
    /// Whether home memory must supply the data (false on an upgrade from
    /// Shared when the requester already holds the block, and on owner
    /// forwarding).
    pub from_memory: bool,
}

/// Traffic/transition counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryStats {
    pub reads: u64,
    pub writes: u64,
    pub owner_forwards: u64,
    pub invalidations: u64,
    pub upgrades: u64,
    pub writebacks: u64,
    /// Duplicate request copies refused with a NACK (fault injection): the
    /// home recognized an already-committed transaction's sequence number
    /// and did not re-apply it, so `reads + writes` stays equal to the
    /// number of logical coherence transactions even under duplication.
    pub nacks: u64,
}

impl DirectoryStats {
    /// Mirror the transition counters into a metrics registry under
    /// `prefix` (e.g. `sim/directory`).
    pub fn publish(&self, prefix: &str, reg: &mut dsm_telemetry::MetricsRegistry) {
        reg.counter_add(&format!("{prefix}/reads"), self.reads);
        reg.counter_add(&format!("{prefix}/writes"), self.writes);
        reg.counter_add(&format!("{prefix}/owner_forwards"), self.owner_forwards);
        reg.counter_add(&format!("{prefix}/invalidations"), self.invalidations);
        reg.counter_add(&format!("{prefix}/upgrades"), self.upgrades);
        reg.counter_add(&format!("{prefix}/writebacks"), self.writebacks);
        reg.counter_add(&format!("{prefix}/nacks"), self.nacks);
    }
}

/// The (logically distributed) directory. Homes are a pure function of the
/// address, so a single map keyed by block index is behaviourally identical
/// to per-home maps; per-home latency is charged by the system loop.
///
/// The map holds one entry per block some node has fetched, until a dirty
/// writeback removes it. Clean evictions are silent, so the entry count is
/// the run's footprint, not the aggregate L2 capacity; the map starts empty
/// and grows on demand.
#[derive(Debug, Default)]
pub struct Directory {
    map: FxHashMap<u64, DirState>,
    /// Sharer bits of nodes 64–127 (bit `i` is node `64 + i`) for each
    /// `Shared` block that has any; empty on machines of 64 nodes or fewer.
    high: FxHashMap<u64, u64>,
    stats: DirectoryStats,
}

/// `node`'s bit in a sharer set.
fn bit(node: usize) -> u128 {
    1u128 << node
}

/// Remove `block`'s sharer bits above node 63 from `high`, as set bits.
fn take_high(high: &mut FxHashMap<u64, u64>, block: u64) -> u128 {
    if high.is_empty() {
        return 0;
    }
    (high.remove(&block).unwrap_or(0) as u128) << 64
}

/// Keep the bits of `set` above node 63 in `high`; returns the low word.
fn keep_high(high: &mut FxHashMap<u64, u64>, block: u64, set: u128) -> u64 {
    let hi = (set >> 64) as u64;
    if hi != 0 {
        high.insert(block, hi);
    }
    set as u64
}

impl Directory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle a read miss for `block` by `requester`.
    ///
    /// Both handlers go through the entry API so each request hashes the
    /// block exactly once — the directory lookup sits on the L2-miss path,
    /// where a second probe per request is measurable.
    pub fn read(&mut self, block: u64, requester: usize) -> ReadOutcome {
        self.stats.reads += 1;
        match self.map.entry(block) {
            Entry::Vacant(v) => {
                // First reader gets the block exclusively (MESI E-state).
                v.insert(DirState::Exclusive(requester));
                ReadOutcome { source: ReadSource::Memory }
            }
            Entry::Occupied(mut o) => match *o.get() {
                DirState::Shared(mask) => {
                    let set = mask as u128 | take_high(&mut self.high, block) | bit(requester);
                    o.insert(DirState::Shared(keep_high(&mut self.high, block, set)));
                    ReadOutcome { source: ReadSource::Memory }
                }
                DirState::Exclusive(owner) if owner == requester => {
                    // Stale entry after a silent clean eviction at the owner;
                    // refetch from memory, ownership unchanged.
                    ReadOutcome { source: ReadSource::Memory }
                }
                DirState::Exclusive(owner) => {
                    self.stats.owner_forwards += 1;
                    let set = bit(requester) | bit(owner);
                    o.insert(DirState::Shared(keep_high(&mut self.high, block, set)));
                    ReadOutcome { source: ReadSource::Owner(owner) }
                }
            },
        }
    }

    /// Handle a write miss (or upgrade) for `block` by `requester`.
    pub fn write(&mut self, block: u64, requester: usize) -> WriteOutcome {
        self.stats.writes += 1;
        let own = bit(requester);
        let (outcome, invalidations, upgrade) = match self.map.entry(block) {
            Entry::Vacant(v) => {
                v.insert(DirState::Exclusive(requester));
                (
                    WriteOutcome {
                        invalidate_mask: 0,
                        owner_forward: None,
                        from_memory: true,
                    },
                    0,
                    false,
                )
            }
            Entry::Occupied(mut o) => {
                let prev = *o.get();
                o.insert(DirState::Exclusive(requester));
                match prev {
                    DirState::Shared(mask) => {
                        let set = mask as u128 | take_high(&mut self.high, block);
                        let others = set & !own;
                        (
                            WriteOutcome {
                                invalidate_mask: others,
                                owner_forward: None,
                                // Upgrade: requester already holds the data.
                                from_memory: set & own == 0,
                            },
                            others.count_ones() as u64,
                            set & own != 0,
                        )
                    }
                    DirState::Exclusive(owner) if owner == requester => (
                        WriteOutcome {
                            // Stale after silent eviction; refetch.
                            invalidate_mask: 0,
                            owner_forward: None,
                            from_memory: true,
                        },
                        0,
                        false,
                    ),
                    DirState::Exclusive(owner) => (
                        WriteOutcome {
                            invalidate_mask: bit(owner),
                            owner_forward: Some(owner),
                            from_memory: false,
                        },
                        1,
                        false,
                    ),
                }
            }
        };
        self.stats.invalidations += invalidations;
        self.stats.upgrades += upgrade as u64;
        outcome
    }

    /// A dirty writeback (cache eviction) from `node` arrived at the home.
    pub fn writeback(&mut self, block: u64, node: usize) {
        self.stats.writebacks += 1;
        match self.map.get(&block).copied() {
            Some(DirState::Exclusive(owner)) if owner == node => {
                self.map.remove(&block);
            }
            Some(DirState::Shared(mask)) => {
                let rest = (mask as u128 | take_high(&mut self.high, block)) & !bit(node);
                if rest == 0 {
                    self.map.remove(&block);
                } else {
                    let low = keep_high(&mut self.high, block, rest);
                    self.map.insert(block, DirState::Shared(low));
                }
            }
            // Racy/stale writeback (already re-owned elsewhere): ignore, the
            // current owner's copy is authoritative.
            _ => {}
        }
    }

    /// The home received `n` duplicate copies of already-committed requests
    /// and refused each with a NACK. Protocol state is untouched — dedup is
    /// exactly what keeps duplicated messages from double-committing.
    pub fn nack(&mut self, n: u32) {
        self.stats.nacks += n as u64;
    }

    /// Current directory state of a block (None = uncached).
    pub fn state(&self, block: u64) -> Option<DirState> {
        self.map.get(&block).copied()
    }

    /// Every node a `Shared` block's sharer set names, nodes 64–127
    /// included (None = not shared).
    pub fn sharers(&self, block: u64) -> Option<u128> {
        match self.state(block)? {
            DirState::Shared(mask) => {
                let hi = self.high.get(&block).copied().unwrap_or(0);
                Some(mask as u128 | (hi as u128) << 64)
            }
            DirState::Exclusive(_) => None,
        }
    }

    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// Number of blocks with an entry: every block fetched and not since
    /// written back dirty. An entry may name nodes that have silently
    /// evicted their clean copy.
    pub fn tracked_blocks(&self) -> usize {
        self.map.len()
    }

    /// Export the directory contents (sorted by block index, so equal maps
    /// export to equal vectors) and stats for checkpointing.
    pub fn export_state(&self) -> crate::state::DirectoryState {
        let mut entries: Vec<(u64, DirState)> =
            self.map.iter().map(|(&b, &s)| (b, s)).collect();
        entries.sort_unstable_by_key(|&(b, _)| b);
        let mut high: Vec<(u64, u64)> = self.high.iter().map(|(&b, &h)| (b, h)).collect();
        high.sort_unstable_by_key(|&(b, _)| b);
        crate::state::DirectoryState { entries, high, stats: self.stats }
    }

    /// Restore state captured by [`Directory::export_state`], replacing the
    /// current contents.
    pub fn import_state(&mut self, st: &crate::state::DirectoryState) {
        self.map.clear();
        for &(b, s) in &st.entries {
            self.map.insert(b, s);
        }
        self.high = st.high.iter().copied().collect();
        self.stats = st.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_is_exclusive_from_memory() {
        let mut d = Directory::new();
        let o = d.read(100, 3);
        assert_eq!(o.source, ReadSource::Memory);
        assert_eq!(d.state(100), Some(DirState::Exclusive(3)));
    }

    #[test]
    fn second_reader_triggers_owner_forward() {
        let mut d = Directory::new();
        d.read(100, 3);
        let o = d.read(100, 5);
        assert_eq!(o.source, ReadSource::Owner(3));
        assert_eq!(d.state(100), Some(DirState::Shared((1 << 3) | (1 << 5))));
        // Third reader now comes from memory (block is shared/clean).
        let o = d.read(100, 7);
        assert_eq!(o.source, ReadSource::Memory);
        assert_eq!(
            d.state(100),
            Some(DirState::Shared((1 << 3) | (1 << 5) | (1 << 7)))
        );
    }

    #[test]
    fn write_to_shared_invalidates_others() {
        let mut d = Directory::new();
        d.read(8, 0);
        d.read(8, 1);
        d.read(8, 2);
        let o = d.write(8, 1);
        assert_eq!(o.invalidate_mask, (1 << 0) | (1 << 2));
        assert!(o.owner_forward.is_none());
        assert!(!o.from_memory, "upgrade: requester already has data");
        assert_eq!(d.state(8), Some(DirState::Exclusive(1)));
        assert_eq!(d.stats().upgrades, 1);
        assert_eq!(d.stats().invalidations, 2);
    }

    #[test]
    fn write_by_non_sharer_fetches_memory() {
        let mut d = Directory::new();
        d.read(8, 0);
        d.read(8, 1); // Shared{0,1}
        let o = d.write(8, 4);
        assert_eq!(o.invalidate_mask, 0b11);
        assert!(o.from_memory);
        assert_eq!(d.state(8), Some(DirState::Exclusive(4)));
    }

    #[test]
    fn write_steals_from_exclusive_owner() {
        let mut d = Directory::new();
        d.write(40, 2);
        let o = d.write(40, 6);
        assert_eq!(o.owner_forward, Some(2));
        assert_eq!(o.invalidate_mask, 1 << 2);
        assert!(!o.from_memory);
        assert_eq!(d.state(40), Some(DirState::Exclusive(6)));
    }

    #[test]
    fn writeback_clears_exclusive_entry() {
        let mut d = Directory::new();
        d.write(40, 2);
        d.writeback(40, 2);
        assert_eq!(d.state(40), None);
        assert_eq!(d.tracked_blocks(), 0);
    }

    #[test]
    fn stale_writeback_is_ignored() {
        let mut d = Directory::new();
        d.write(40, 2);
        d.write(40, 6); // 6 now owns
        d.writeback(40, 2); // stale
        assert_eq!(d.state(40), Some(DirState::Exclusive(6)));
    }

    #[test]
    fn reread_after_silent_eviction_keeps_ownership() {
        let mut d = Directory::new();
        d.read(64, 9);
        // Owner 9's cache silently evicted the clean block; directory is
        // stale. A re-read by 9 must come from memory without deadlock.
        let o = d.read(64, 9);
        assert_eq!(o.source, ReadSource::Memory);
        assert_eq!(d.state(64), Some(DirState::Exclusive(9)));
    }

    #[test]
    fn shared_writeback_removes_only_that_node() {
        let mut d = Directory::new();
        d.read(12, 0);
        d.read(12, 1);
        d.writeback(12, 0);
        assert_eq!(d.state(12), Some(DirState::Shared(1 << 1)));
        d.writeback(12, 1);
        assert_eq!(d.state(12), None);
    }

    #[test]
    fn nacks_count_without_touching_protocol_state() {
        let mut d = Directory::new();
        d.read(9, 1);
        let before = d.state(9);
        d.nack(3);
        assert_eq!(d.state(9), before);
        assert_eq!(d.stats().nacks, 3);
        assert_eq!(d.stats().reads, 1, "a NACK is not a transaction");
    }

    #[test]
    fn dir_state_stays_two_words() {
        // The map slot is (block, state); wider sharer sets live aside.
        assert_eq!(std::mem::size_of::<DirState>(), 16);
    }

    #[test]
    fn sharers_above_node_63_do_not_alias() {
        // A 128-node machine: nodes 64 and 127 share a block with node 0.
        let mut d = Directory::new();
        d.read(7, 0);
        assert_eq!(d.read(7, 64).source, ReadSource::Owner(0));
        d.read(7, 127);
        assert_eq!(d.state(7), Some(DirState::Shared(1)));
        assert_eq!(d.sharers(7), Some(1 | 1 << 64 | 1 << 127));
        let o = d.write(7, 1);
        assert_eq!(o.invalidate_mask, 1 | 1 << 64 | 1 << 127);
        assert_eq!(d.stats().invalidations, 3);
        assert_eq!(d.state(7), Some(DirState::Exclusive(1)));
        // Only high nodes share: the low mask is empty, the entry is not.
        d.read(9, 100);
        d.read(9, 65);
        d.writeback(9, 100);
        assert_eq!(d.sharers(9), Some(1 << 65));
        let st = d.export_state();
        assert_eq!(st.high, vec![(9, 1 << 1)]);
        let mut back = Directory::new();
        back.import_state(&st);
        assert_eq!(back.sharers(9), Some(1 << 65));
        d.writeback(9, 65);
        assert_eq!(d.state(9), None);
        assert!(d.export_state().high.is_empty());
    }

    #[test]
    fn read_write_read_sequence() {
        let mut d = Directory::new();
        d.read(1, 0); // E(0)
        d.write(1, 1); // forward from 0, E(1)
        let o = d.read(1, 0); // forward from 1
        assert_eq!(o.source, ReadSource::Owner(1));
        assert_eq!(d.state(1), Some(DirState::Shared(0b11)));
    }
}
