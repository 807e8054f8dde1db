//! Indexed min-scheduler for the global event loop.
//!
//! A tournament (winner) tree over one `u64` key per processor. The system
//! keeps each runnable processor's key equal to its current cycle and parks
//! finished/blocked processors at `u64::MAX`; the root then names the
//! processor the deterministic scheduler must run next. Ties resolve to the
//! *left* subtree at every internal node, which — with leaves stored in id
//! order — reproduces exactly the `(cycle, id)` order of the naive
//! `min_by_key` scan this structure replaces: smallest cycle first, lowest
//! id among equals.
//!
//! `set_key` costs O(log n) and `min` is O(1), versus the O(n) scan per
//! event of the old loop; at 32–64 nodes the win is modest per call but the
//! call sits on the hottest path in the repo.

/// Tournament tree of `u64` keys with deterministic left-wins tie-break.
#[derive(Debug, Clone)]
pub struct MinTree {
    n: usize,
    /// Leaf count, power of two (≥ `n`); unused leaves hold `u64::MAX`.
    size: usize,
    keys: Vec<u64>,
    /// Winner leaf index per tree node; `win[1]` is the overall winner.
    /// Leaves live at `win[size..2 * size]` and hold their own index.
    win: Vec<u32>,
}

impl MinTree {
    /// Build a tree of `n` participants, all starting at key 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "scheduler needs at least one processor");
        assert!(n <= u32::MAX as usize);
        let size = n.next_power_of_two();
        let mut keys = vec![u64::MAX; size];
        for k in keys[..n].iter_mut() {
            *k = 0;
        }
        let mut win = vec![0u32; 2 * size];
        for (i, w) in win[size..].iter_mut().enumerate() {
            *w = i as u32;
        }
        for k in (1..size).rev() {
            let (l, r) = (win[2 * k], win[2 * k + 1]);
            win[k] = if keys[l as usize] <= keys[r as usize] { l } else { r };
        }
        Self { n, size, keys, win }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current key of participant `i`.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        self.keys[i]
    }

    /// Participants whose key is not the parked `u64::MAX` sentinel — i.e.
    /// still runnable. O(n); telemetry/diagnostics only (0 at clean finish).
    pub fn runnable(&self) -> usize {
        self.keys[..self.n].iter().filter(|&&k| k != u64::MAX).count()
    }

    /// Update participant `i`'s key and replay its path to the root.
    ///
    /// The replay stops early once a node's winner is an *unchanged*
    /// participant equal to the stored winner: only `i`'s key moved, so
    /// every ancestor comparison then sees the same (key, leaf) pair and
    /// cannot change. Updates to a processor that was not the running
    /// minimum (lock grants, barrier releases, memory wakeups) usually
    /// terminate after one level.
    #[inline]
    pub fn set_key(&mut self, i: usize, key: u64) {
        debug_assert!(i < self.n);
        if self.keys[i] == key {
            return;
        }
        self.keys[i] = key;
        let leaf = i as u32;
        let mut k = (self.size + i) >> 1;
        while k >= 1 {
            let (l, r) = (self.win[2 * k], self.win[2 * k + 1]);
            let w = if self.keys[l as usize] <= self.keys[r as usize] { l } else { r };
            if self.win[k] == w && w != leaf {
                return;
            }
            self.win[k] = w;
            k >>= 1;
        }
    }

    /// The participant with the smallest `(key, id)`, or `None` when every
    /// key is `u64::MAX` (no runnable processor).
    #[inline]
    pub fn min(&self) -> Option<usize> {
        let w = self.win[1] as usize;
        if self.keys[w] == u64::MAX {
            None
        } else {
            Some(w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::splitmix64;

    /// Reference implementation: the naive scan the tree replaces.
    fn naive_min(keys: &[u64]) -> Option<usize> {
        keys.iter()
            .enumerate()
            .filter(|(_, &k)| k != u64::MAX)
            .min_by_key(|(i, &k)| (k, *i))
            .map(|(i, _)| i)
    }

    #[test]
    fn fresh_tree_picks_id_zero() {
        let t = MinTree::new(5);
        assert_eq!(t.min(), Some(0));
    }

    #[test]
    fn single_participant() {
        let mut t = MinTree::new(1);
        assert_eq!(t.min(), Some(0));
        t.set_key(0, u64::MAX);
        assert_eq!(t.min(), None);
        t.set_key(0, 7);
        assert_eq!(t.min(), Some(0));
    }

    #[test]
    fn ties_break_to_lowest_id() {
        let mut t = MinTree::new(6);
        for i in 0..6 {
            t.set_key(i, 100);
        }
        assert_eq!(t.min(), Some(0));
        t.set_key(0, 101);
        assert_eq!(t.min(), Some(1));
        t.set_key(3, 100); // no-op value change, still a tie at 100
        assert_eq!(t.min(), Some(1));
        t.set_key(1, u64::MAX);
        assert_eq!(t.min(), Some(2));
    }

    #[test]
    fn all_parked_yields_none() {
        let mut t = MinTree::new(3);
        for i in 0..3 {
            t.set_key(i, u64::MAX);
        }
        assert_eq!(t.min(), None);
    }

    #[test]
    fn non_power_of_two_sizes_ignore_padding_leaves() {
        for n in [1usize, 2, 3, 5, 7, 9, 31, 33] {
            let mut t = MinTree::new(n);
            for i in 0..n {
                t.set_key(i, (i as u64 + 3) * 10);
            }
            assert_eq!(t.min(), Some(0), "n = {n}");
            t.set_key(0, u64::MAX);
            let expect = if n == 1 { None } else { Some(1) };
            assert_eq!(t.min(), expect, "n = {n}");
        }
    }

    #[test]
    fn matches_naive_scan_on_random_update_sequences() {
        // Property test against the reference scan: thousands of random
        // key updates (including MAX-parking and ties) across varied sizes.
        let mut seed = 0x5eed_0001u64;
        let mut rng = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(seed)
        };
        for n in [1usize, 2, 3, 4, 6, 8, 13, 32, 64, 100] {
            let mut t = MinTree::new(n);
            let mut keys = vec![0u64; n];
            for step in 0..2000 {
                let i = (rng() % n as u64) as usize;
                // Small key range forces frequent ties; sometimes park.
                let key = match rng() % 8 {
                    0 => u64::MAX,
                    _ => rng() % 16,
                };
                t.set_key(i, key);
                keys[i] = key;
                assert_eq!(
                    t.min(),
                    naive_min(&keys),
                    "n = {n}, step = {step}, keys = {keys:?}"
                );
            }
        }
    }
}
