//! Differential suite for the packed-rank cache: [`Cache`] keeps each
//! line's true-LRU rank in its state word, and must behave exactly like
//! the clock-LRU cache it replaced, kept here as [`ClockCache`].
//!
//! Both caches run the same random operation sequences (read and write
//! accesses, `invalidate`, `downgrade`, `probe`, `flush`) at
//! associativities 1, 2, 4, 8 and 16, on addresses that collide in a few
//! sets. After every operation the suite asserts the same result (every
//! `Lookup`, writeback address included), the same hit and miss counts,
//! and that the packed state still obeys the rank rule. Some sequences
//! carry the packed cache through `export_state`/`import_state` halfway.
//!
//! `LRU_CASES` sets the number of sequences per associativity (default
//! 64); CI runs a larger count in release mode.

use dsm_sim::cache::{Cache, Lookup};
use dsm_sim::config::CacheConfig;
use dsm_sim::util::splitmix64;

const VALID: u64 = 0b01;
const DIRTY: u64 = 0b10;
const TAG_SHIFT: u32 = 2;

/// The clock-LRU cache as it stood before ranks moved into the line word:
/// a last-use clock per line beside the state words, and the victim is the
/// first invalid way, else the valid line with the oldest clock.
struct ClockCache {
    assoc: usize,
    tags: Vec<u64>,
    lru: Vec<u64>,
    set_mask: u64,
    block_shift: u32,
    set_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ClockCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.n_sets();
        let block_shift = cfg.line_bytes.trailing_zeros();
        let lines = (sets * cfg.assoc as u64) as usize;
        Self {
            assoc: cfg.assoc as usize,
            tags: vec![0; lines],
            lru: vec![0; lines],
            set_mask: sets - 1,
            block_shift,
            set_shift: block_shift + sets.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_range(&self, addr: u64) -> (usize, u64) {
        let set = ((addr >> self.block_shift) & self.set_mask) as usize;
        (set * self.assoc, addr >> self.set_shift)
    }

    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let want = (tag << TAG_SHIFT) | VALID;
        self.tags[base..base + self.assoc].iter().position(|&t| t & !DIRTY == want)
    }

    fn access(&mut self, addr: u64, write: bool) -> Lookup {
        self.clock += 1;
        let (base, tag) = self.set_range(addr);
        if let Some(way) = self.find(base, tag) {
            self.tags[base + way] |= (write as u64) << 1;
            self.lru[base + way] = self.clock;
            self.hits += 1;
            return Lookup::Hit;
        }
        self.misses += 1;
        let assoc = self.assoc;
        let victim = self.tags[base..base + assoc]
            .iter()
            .zip(&self.lru[base..base + assoc])
            .enumerate()
            .min_by_key(|(_, (&t, &lru))| if t & VALID != 0 { lru } else { 0 })
            .map(|(i, _)| i)
            .unwrap();
        let set_index = (base / assoc) as u64;
        let old = self.tags[base + victim];
        let writeback = if old & VALID != 0 && old & DIRTY != 0 {
            Some(((old >> TAG_SHIFT) << self.set_shift) | (set_index << self.block_shift))
        } else {
            None
        };
        self.tags[base + victim] = (tag << TAG_SHIFT) | ((write as u64) << 1) | VALID;
        self.lru[base + victim] = self.clock;
        Lookup::Miss { writeback }
    }

    fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.set_range(addr);
        self.find(base, tag).is_some()
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (base, tag) = self.set_range(addr);
        let Some(way) = self.find(base, tag) else { return false };
        let was_dirty = self.tags[base + way] & DIRTY != 0;
        self.tags[base + way] = 0;
        was_dirty
    }

    fn downgrade(&mut self, addr: u64) -> bool {
        let (base, tag) = self.set_range(addr);
        let Some(way) = self.find(base, tag) else { return false };
        let was_dirty = self.tags[base + way] & DIRTY != 0;
        self.tags[base + way] &= !DIRTY;
        was_dirty
    }

    fn flush(&mut self) {
        self.tags.fill(0);
    }
}

/// Eight sets of 32-byte lines: the sequences touch only the first three,
/// with a few more distinct tags than ways, so sets fill, evict, and
/// refill after invalidations.
fn cfg(assoc: u32) -> CacheConfig {
    CacheConfig { size_bytes: 8 * assoc as u64 * 32, assoc, line_bytes: 32, latency_cycles: 1 }
}

fn cases() -> u64 {
    std::env::var("LRU_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

/// Run one random sequence of `len` operations on both caches and assert
/// they agree after each.
fn run_sequence(assoc: u32, seed: u64, len: usize) {
    let cfg = cfg(assoc);
    let mut packed = Cache::new(cfg);
    let mut clock = ClockCache::new(cfg);
    let mut state = seed;
    let mut rng = move || {
        state = splitmix64(state);
        state
    };
    let tags = assoc as u64 + 3;
    let checkpoint_at = if seed.is_multiple_of(2) { len / 2 } else { usize::MAX };
    for step in 0..len {
        let r = rng();
        // Tag in the high bits, one of three sets, any byte of the line.
        let addr = (r % tags) << 16 | ((r >> 8) % 3) << 5 | ((r >> 16) % 32);
        let ctx = || format!("assoc {assoc}, seed {seed:#x}, step {step}, addr {addr:#x}");
        match (r >> 24) % 100 {
            0..=59 => {
                let write = (r >> 32).is_multiple_of(2);
                assert_eq!(packed.access(addr, write), clock.access(addr, write), "{}", ctx());
            }
            60..=71 => assert_eq!(packed.invalidate(addr), clock.invalidate(addr), "{}", ctx()),
            72..=83 => assert_eq!(packed.downgrade(addr), clock.downgrade(addr), "{}", ctx()),
            84..=98 => assert_eq!(packed.probe(addr), clock.probe(addr), "{}", ctx()),
            _ => {
                packed.flush();
                clock.flush();
            }
        }
        assert_eq!((packed.hits(), packed.misses()), (clock.hits, clock.misses), "{}", ctx());
        let st = packed.export_state();
        assert_eq!(Cache::check_state(&cfg, &st), Ok(()), "{}", ctx());
        if step == checkpoint_at {
            packed = Cache::new(cfg);
            packed.import_state(&st);
        }
    }
}

#[test]
fn packed_ranks_match_clock_lru() {
    for assoc in [1, 2, 4, 8, 16] {
        for case in 0..cases() {
            run_sequence(assoc, splitmix64(assoc as u64) ^ case, 400);
        }
    }
}

/// Filling one set in order and re-touching its lines walks every rank:
/// the fill order is the eviction order until a hit reorders it.
#[test]
fn eviction_follows_recency_at_full_associativity() {
    let cfg = cfg(16);
    let mut packed = Cache::new(cfg);
    let mut clock = ClockCache::new(cfg);
    let addr = |t: u64| t << 16;
    for t in 0..16 {
        assert_eq!(packed.access(addr(t), true), clock.access(addr(t), true));
    }
    for t in (0..16).step_by(3) {
        assert_eq!(packed.access(addr(t), false), Lookup::Hit);
        clock.access(addr(t), false);
    }
    for t in 16..40 {
        assert_eq!(packed.access(addr(t), false), clock.access(addr(t), false), "tag {t}");
    }
}
