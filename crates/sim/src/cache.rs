//! Set-associative cache model with real tag arrays and true-LRU
//! replacement. Used for the private L1 and L2 of every node.
//!
//! Each line is one `u64` state word, and its recency is part of it:
//!
//! ```text
//!  63  60 59                                    2    1     0
//! +------+---------------------------------------+-----+-----+
//! | rank |                  tag                  |dirty|valid|
//! +------+---------------------------------------+-----+-----+
//! ```
//!
//! The `k` valid lines of a set hold the ranks `0..k`, 0 the most recently
//! used. A hit or a fill moves its line to rank 0 and ages every valid line
//! that was more recent by one; an invalidation closes the gap its line
//! leaves. Invalid lines are all-zero words, so a zeroed array is an empty
//! cache. The victim of a miss is the first invalid way, else the way of
//! rank `assoc - 1`: the least recently used line. An 8-way set with its
//! replacement state is therefore one 64-byte host line.

use crate::addr::Addr;
use crate::config::CacheConfig;
use crate::state::CacheState;

/// Result of a cache lookup-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    Hit,
    /// Miss; the evicted line's block address, if a dirty line was replaced.
    Miss { writeback: Option<Addr> },
}

const VALID: u64 = 0b01;
const DIRTY: u64 = 0b10;
const TAG_SHIFT: u32 = 2;
/// Width of the rank field at the top of the word.
const RANK_BITS: u32 = 4;
const RANK_SHIFT: u32 = 64 - RANK_BITS;
const RANK_ONE: u64 = 1 << RANK_SHIFT;
const RANK_MASK: u64 = !0 << RANK_SHIFT;

/// Width of the tag field: a cache whose tags (`addr >> set_shift`) can
/// be wider does not fit the word, and [`Cache::new`] refuses it.
pub const TAG_BITS: u32 = RANK_SHIFT - TAG_SHIFT;
/// The largest associativity whose ranks fit the rank field.
pub const MAX_ASSOC: u32 = 1 << RANK_BITS;

#[inline]
fn rank(word: u64) -> u64 {
    word >> RANK_SHIFT
}

#[inline]
fn tag_of(word: u64) -> u64 {
    (word & !RANK_MASK) >> TAG_SHIFT
}

/// Age by one every valid line of `set` whose rank is below `below`: the
/// lines more recent than the one a hit or fill moves to rank 0.
#[inline]
fn age(set: &mut [u64], below: u64) {
    for t in set.iter_mut() {
        if *t & VALID != 0 && rank(*t) < below {
            *t += RANK_ONE;
        }
    }
}

/// The address bits below the tag: `log2(line_bytes) + log2(sets)`.
fn set_shift(cfg: &CacheConfig) -> u32 {
    cfg.line_bytes.trailing_zeros() + cfg.n_sets().trailing_zeros()
}

/// Why `cfg` cannot be built into a [`Cache`], if it cannot: its rank or
/// its tag does not fit the state word. `SystemConfig::validate` reports
/// this for the machine's L1 and L2.
pub fn word_fit_error(cfg: &CacheConfig) -> Option<String> {
    if cfg.assoc > MAX_ASSOC {
        return Some(format!(
            "associativity {} exceeds {MAX_ASSOC}, the largest whose LRU rank fits the line word",
            cfg.assoc
        ));
    }
    let tag_bits = 64 - set_shift(cfg);
    (tag_bits > TAG_BITS).then(|| {
        format!("{tag_bits}-bit tags do not fit the line word's {TAG_BITS}-bit tag field")
    })
}

/// A single set-associative cache (one level, one node).
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>, // sets * assoc packed state words, set-major
    set_mask: u64,
    block_shift: u32,
    set_shift: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.n_sets();
        assert!(sets.is_power_of_two() && sets > 0, "bad cache geometry");
        assert!(cfg.line_bytes.is_power_of_two());
        if let Some(e) = word_fit_error(&cfg) {
            panic!("bad cache geometry: {e}");
        }
        let lines = (sets * cfg.assoc as u64) as usize;
        Self {
            tags: vec![0; lines],
            set_mask: sets - 1,
            block_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: set_shift(&cfg),
            hits: 0,
            misses: 0,
            cfg,
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// First line of `addr`'s set (`ways` lines per set) and its tag.
    #[inline]
    fn locate(&self, addr: Addr, ways: usize) -> (usize, u64) {
        let set = ((addr >> self.block_shift) & self.set_mask) as usize;
        (set * ways, addr >> self.set_shift)
    }

    /// Index of the way holding a valid line with `tag` within `set`, if
    /// any. The comparison masks the rank and DIRTY out, so one compare per
    /// way checks tag and validity together.
    #[inline]
    fn find(set: &[u64], tag: u64) -> Option<usize> {
        let want = (tag << TAG_SHIFT) | VALID;
        set.iter().position(|&t| t & !(RANK_MASK | DIRTY) == want)
    }

    /// `addr`'s set and the way holding its block, if present.
    #[inline]
    fn lookup(&mut self, addr: Addr) -> (&mut [u64], Option<usize>) {
        let ways = self.cfg.assoc as usize;
        let (base, tag) = self.locate(addr, ways);
        let set = &mut self.tags[base..base + ways];
        let way = Self::find(set, tag);
        (set, way)
    }

    /// Access `addr`; on a miss the line is filled (allocate-on-miss for
    /// both loads and stores, as in a writeback write-allocate cache).
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool) -> Lookup {
        // One body, specialized for the associativities the machine
        // configurations build (the direct-mapped L1 and the 8-way L2).
        match self.cfg.assoc {
            1 => self.access_in::<1>(addr, write),
            8 => self.access_in::<8>(addr, write),
            _ => self.access_in::<0>(addr, write),
        }
    }

    /// [`Self::access`] on `W`-way sets; `W == 0` reads the associativity
    /// from the configuration.
    #[inline(always)]
    fn access_in<const W: usize>(&mut self, addr: Addr, write: bool) -> Lookup {
        let ways = if W == 0 { self.cfg.assoc as usize } else { W };
        let (base, tag) = self.locate(addr, ways);
        let set = &mut self.tags[base..base + ways];
        let dirty = (write as u64) << 1;

        if let Some(way) = Self::find(set, tag) {
            let r = rank(set[way]);
            if r != 0 {
                age(set, r);
                set[way] &= !RANK_MASK;
            }
            set[way] |= dirty;
            self.hits += 1;
            return Lookup::Hit;
        }
        self.misses += 1;

        // Victim: the first invalid line, else the LRU (highest-rank) one.
        let victim = set.iter().position(|&t| t & VALID == 0).unwrap_or_else(|| {
            (0..ways).max_by_key(|&w| rank(set[w])).expect("associativity is nonzero")
        });
        let old = set[victim];
        let writeback = (old & (VALID | DIRTY) == VALID | DIRTY).then(|| {
            let set_index = (base / ways) as u64;
            (tag_of(old) << self.set_shift) | (set_index << self.block_shift)
        });
        // A valid victim holds the highest rank; an invalid one ages all.
        age(set, if old & VALID != 0 { rank(old) } else { ways as u64 });
        set[victim] = (tag << TAG_SHIFT) | dirty | VALID;
        Lookup::Miss { writeback }
    }

    /// Probe without filling or updating LRU; true if the block is present.
    pub fn probe(&self, addr: Addr) -> bool {
        let ways = self.cfg.assoc as usize;
        let (base, tag) = self.locate(addr, ways);
        Self::find(&self.tags[base..base + ways], tag).is_some()
    }

    /// Invalidate the block containing `addr` (coherence). Returns true if
    /// the block was present and dirty.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (set, way) = self.lookup(addr);
        let Some(way) = way else { return false };
        let old = set[way];
        // Close the gap: every line less recent than this one moves up.
        for t in set.iter_mut() {
            if *t & VALID != 0 && rank(*t) > rank(old) {
                *t -= RANK_ONE;
            }
        }
        set[way] = 0;
        old & DIRTY != 0
    }

    /// Downgrade a line to clean (coherence: exclusive → shared). Returns
    /// true if the block was present and dirty.
    pub fn downgrade(&mut self, addr: Addr) -> bool {
        let (set, way) = self.lookup(addr);
        let Some(way) = way else { return false };
        let was_dirty = set[way] & DIRTY != 0;
        set[way] &= !DIRTY;
        was_dirty
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidate everything (context switch in the multiprogramming demo).
    pub fn flush(&mut self) {
        self.tags.fill(0);
    }

    /// Export the dynamic state (line words and counters) for
    /// checkpointing. Geometry is config-derived and not included.
    pub fn export_state(&self) -> CacheState {
        CacheState { tags: self.tags.clone(), hits: self.hits, misses: self.misses }
    }

    /// Whether `st` holds one word per line of this cache, so
    /// [`Cache::import_state`] can take it.
    pub fn fits(&self, st: &CacheState) -> bool {
        st.tags.len() == self.tags.len()
    }

    /// Restore dynamic state captured by [`Cache::export_state`] on a cache
    /// with the same geometry.
    pub fn import_state(&mut self, st: &CacheState) {
        assert!(self.fits(st), "cache geometry mismatch");
        self.tags.copy_from_slice(&st.tags);
        self.hits = st.hits;
        self.misses = st.misses;
    }

    /// Check that `st`'s words are ones a cache of geometry `cfg` can hold:
    /// whole sets, each set's valid ranks exactly `0..k`, invalid lines
    /// all zero, and tags no wider than `cfg`'s addresses give. A state
    /// that fails would silently reorder the LRU stack or write back to an
    /// address no access made. The error names the broken rule.
    pub fn check_state(cfg: &CacheConfig, st: &CacheState) -> Result<(), &'static str> {
        let ways = cfg.assoc as usize;
        if ways == 0 || ways > MAX_ASSOC as usize || !st.tags.len().is_multiple_of(ways) {
            return Err("cache lines are not whole sets");
        }
        let tag_bits = 64 - set_shift(cfg);
        for set in st.tags.chunks_exact(ways) {
            let (mut seen, mut valid) = (0u32, 0u32);
            for &t in set {
                if t & VALID == 0 {
                    if t != 0 {
                        return Err("invalid cache line is not zero");
                    }
                    continue;
                }
                if tag_bits < TAG_BITS && tag_of(t) >> tag_bits != 0 {
                    return Err("cache tag wider than its field");
                }
                let r = rank(t);
                if r >= ways as u64 || seen & (1 << r) != 0 {
                    return Err("cache set ranks are not 0..k");
                }
                seen |= 1 << r;
                valid += 1;
            }
            if seen != (1u32 << valid) - 1 {
                return Err("cache set ranks are not 0..k");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32) -> Cache {
        // 4 sets x assoc x 32 B lines.
        Cache::new(CacheConfig {
            size_bytes: 4 * assoc as u64 * 32,
            assoc,
            line_bytes: 32,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(2);
        assert!(matches!(c.access(0x100, false), Lookup::Miss { .. }));
        assert_eq!(c.access(0x100, false), Lookup::Hit);
        assert_eq!(c.access(0x11f, false), Lookup::Hit); // same 32 B block
        assert!(matches!(c.access(0x120, false), Lookup::Miss { .. }));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = tiny(1);
        // Two addresses 4 sets * 32 B = 128 B apart map to the same set.
        assert!(matches!(c.access(0x000, false), Lookup::Miss { .. }));
        assert!(matches!(c.access(0x080, false), Lookup::Miss { .. }));
        assert!(matches!(c.access(0x000, false), Lookup::Miss { .. })); // evicted
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = tiny(2);
        c.access(0x000, false); // set 0
        c.access(0x080, false); // set 0, second way
        c.access(0x000, false); // touch first again
        c.access(0x100, false); // evicts 0x080 (LRU), not 0x000
        assert_eq!(c.access(0x000, false), Lookup::Hit);
        assert!(matches!(c.access(0x080, false), Lookup::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1);
        c.access(0x000, true); // dirty fill
        match c.access(0x080, false) {
            Lookup::Miss { writeback: Some(addr) } => assert_eq!(addr, 0x000),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny(1);
        c.access(0x000, false);
        assert!(matches!(
            c.access(0x080, false),
            Lookup::Miss { writeback: None }
        ));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny(2);
        c.access(0x200, true);
        assert!(c.probe(0x200));
        assert!(c.invalidate(0x200)); // dirty
        assert!(!c.probe(0x200));
        assert!(!c.invalidate(0x200)); // already gone
    }

    #[test]
    fn downgrade_cleans_but_keeps_block() {
        let mut c = tiny(2);
        c.access(0x200, true);
        assert!(c.downgrade(0x200));
        assert!(c.probe(0x200));
        // Now clean: evicting it produces no writeback.
        assert!(!c.downgrade(0x200));
    }

    #[test]
    fn writeback_address_reconstruction_is_exact() {
        let mut c = tiny(1);
        let victim = 0x0000_1234_5680u64; // block-aligned-ish high address
        let victim_block = victim >> 5 << 5;
        c.access(victim, true);
        // Conflicting address: same set (bits 5..7), different tag.
        let conflict = victim ^ (1 << 30);
        match c.access(conflict, false) {
            Lookup::Miss { writeback: Some(a) } => assert_eq!(a, victim_block),
            other => panic!("expected writeback, got {other:?}"),
        }
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny(2);
        c.access(0x000, false);
        c.access(0x100, true);
        c.flush();
        assert!(!c.probe(0x000));
        assert!(!c.probe(0x100));
    }

    #[test]
    fn paper_l1_geometry_works() {
        let cfg = crate::config::SystemConfig::paper(8);
        let mut l1 = Cache::new(cfg.l1);
        // Fill all 512 sets, then the 513th distinct block evicts set 0.
        for i in 0..512u64 {
            assert!(matches!(l1.access(i * 32, false), Lookup::Miss { .. }));
        }
        for i in 0..512u64 {
            assert_eq!(l1.access(i * 32, false), Lookup::Hit);
        }
        assert!(matches!(l1.access(512 * 32, false), Lookup::Miss { .. }));
        assert!(matches!(l1.access(0, false), Lookup::Miss { .. }));
    }
}
