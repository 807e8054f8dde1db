//! Property tests for [`HomeMap`]: home resolution under every placement
//! policy stays a *partition* of the page space (each page has exactly one
//! home, in range), first-touch assignment is deterministic under replay,
//! migration overrides re-home whole pages without disturbing others, and
//! `export_state`/`import_state` round-trips bit-exactly (the `DSMCKPT9`
//! substrate for mid-tuning resume).

use proptest::prelude::*;

use dsm_sim::addr::{explicit_addr, HomeMap, PAGE_BYTES, PAGE_SHIFT};
use dsm_sim::config::DistributionPolicy;

const POLICIES: [DistributionPolicy; 4] = [
    DistributionPolicy::PageInterleave,
    DistributionPolicy::BlockInterleave,
    DistributionPolicy::FirstTouch,
    DistributionPolicy::Explicit,
];

/// An address within the first `pages` pages that is valid under *every*
/// policy (Explicit encodes the home in the high bits, so synthesize it).
fn addr_for(policy: DistributionPolicy, page: u64, offset: u64, n_nodes: usize) -> u64 {
    let raw = page * PAGE_BYTES + (offset % PAGE_BYTES);
    match policy {
        DistributionPolicy::Explicit => explicit_addr((page % n_nodes as u64) as usize, raw),
        _ => raw,
    }
}

/// The page index [`HomeMap`] keys its tables by for logical page `page`.
/// Under `Explicit` the home bits sit *above* `PAGE_SHIFT`, so the stored
/// key is `(home << 28) | page`, not the plain page number.
fn page_key(policy: DistributionPolicy, page: u64, n_nodes: usize) -> u64 {
    addr_for(policy, page, 0, n_nodes) >> PAGE_SHIFT
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replaying an identical touch sequence over a fresh map yields
    /// identical homes — first-touch state is a pure function of the
    /// access history (the property the first-touch capture arms rely on).
    #[test]
    fn first_touch_is_deterministic_under_replay(
        touches in prop::collection::vec((0u64..32, 0usize..8), 1..64),
    ) {
        let n = 8;
        let mut a = HomeMap::new(DistributionPolicy::FirstTouch, n);
        let mut b = HomeMap::new(DistributionPolicy::FirstTouch, n);
        let homes_a: Vec<usize> =
            touches.iter().map(|&(p, t)| a.home(p * PAGE_BYTES, t % n)).collect();
        let homes_b: Vec<usize> =
            touches.iter().map(|&(p, t)| b.home(p * PAGE_BYTES, t % n)).collect();
        prop_assert_eq!(&homes_a, &homes_b);
        // Sticky: re-touching by anyone else never moves a decided page.
        for &(p, t) in &touches {
            let first = a.home(p * PAGE_BYTES, 0);
            prop_assert_eq!(a.home(p * PAGE_BYTES, (t + 1) % n), first);
        }
        prop_assert_eq!(a.export_state(), b.export_state());
    }

    /// After arbitrary touches and migrations, homes still partition the
    /// page space: every offset of a migrated page resolves to the override
    /// target, every other page resolves exactly as an untouched map with
    /// the same first-touch history, and every home is in range.
    #[test]
    fn migration_preserves_page_home_partition(
        policy_sel in 0usize..4,
        n_nodes in 1usize..9,
        touches in prop::collection::vec((0u64..16, 0usize..8, 0u64..4096), 0..32),
        migrations in prop::collection::vec((0u64..16, 0usize..8), 1..8),
    ) {
        let policy = POLICIES[policy_sel];
        let mut map = HomeMap::new(policy, n_nodes);
        let mut base = HomeMap::new(policy, n_nodes);
        for &(p, t, off) in &touches {
            let a = addr_for(policy, p, off, n_nodes);
            map.home(a, t % n_nodes);
            base.home(a, t % n_nodes);
        }
        let mut moved: Vec<(u64, usize)> = Vec::new();
        for &(p, h) in &migrations {
            let key = page_key(policy, p, n_nodes);
            let home = h % n_nodes;
            map.set_page_home(key, home);
            moved.retain(|&(q, _)| q != key);
            moved.push((key, home));
        }
        prop_assert_eq!(map.override_count(), moved.len());
        for page in 0..16u64 {
            let key = page_key(policy, page, n_nodes);
            let want_override = moved.iter().find(|&&(p, _)| p == key).map(|&(_, h)| h);
            for off in [0u64, 31, PAGE_BYTES / 2, PAGE_BYTES - 1] {
                let a = addr_for(policy, page, off, n_nodes);
                let got = map.home(a, 0);
                prop_assert!(got < n_nodes);
                match want_override {
                    // Every block of a migrated page follows the override.
                    Some(h) => prop_assert_eq!(got, h),
                    // Unmigrated pages are exactly the base policy.
                    None => prop_assert_eq!(got, base.home(a, 0)),
                }
            }
            if let Some(h) = want_override {
                prop_assert_eq!(map.page_home(key), Some(h));
            }
        }
    }

    /// export → import into a fresh map reproduces resolution and counters
    /// exactly, and re-export is bit-identical (canonical sorted form) —
    /// the invariant `DSMCKPT9` mid-tuning resume rests on.
    #[test]
    fn export_import_roundtrip_is_exact(
        policy_sel in 0usize..4,
        n_nodes in 1usize..9,
        touches in prop::collection::vec((0u64..16, 0usize..8, 0u64..4096), 0..32),
        migrations in prop::collection::vec((0u64..16, 0usize..8), 0..6),
        track in any::<bool>(),
    ) {
        let policy = POLICIES[policy_sel];
        let mut map = HomeMap::new(policy, n_nodes);
        if track {
            map.enable_touch_tracking();
        }
        for &(p, t, off) in &touches {
            let a = addr_for(policy, p, off, n_nodes);
            let toucher = t % n_nodes;
            map.home(a, toucher);
            if track {
                map.note_miss(a, toucher);
            }
        }
        for &(p, h) in &migrations {
            map.set_page_home(p, h % n_nodes);
        }
        let st = map.export_state();
        let mut back = HomeMap::new(policy, n_nodes);
        back.import_state(&st);
        prop_assert_eq!(back.export_state(), st.clone());
        prop_assert_eq!(back.tracking(), map.tracking());
        for page in 0..16u64 {
            for off in [0u64, PAGE_BYTES - 1] {
                let a = addr_for(policy, page, off, n_nodes);
                prop_assert_eq!(back.home(a, 0), map.home(a, 0));
            }
            prop_assert_eq!(back.page_home(page), map.page_home(page));
        }
        // The hot-page ranking (migration's input signal) survives too.
        prop_assert_eq!(back.hot_pages(8), map.hot_pages(8));
        // Export is canonical: page tables come out sorted by page index.
        prop_assert!(st.first_touch.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(st.overrides.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(st.touches.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// `hot_pages` is a deterministic top-k: ordered hottest-first with ties
    /// toward the lower page index, `dominant` really is the argmax node,
    /// and `k` truncates without reordering.
    #[test]
    fn hot_pages_ranking_is_deterministic(
        misses in prop::collection::vec((0u64..8, 0usize..4), 1..64),
        k in 1usize..6,
    ) {
        let n = 4;
        let mut map = HomeMap::new(DistributionPolicy::PageInterleave, n);
        map.enable_touch_tracking();
        for &(p, t) in &misses {
            map.note_miss(p * PAGE_BYTES, t % n);
        }
        let all = map.hot_pages(usize::MAX);
        for w in all.windows(2) {
            prop_assert!(
                (w[0].total_misses, std::cmp::Reverse(w[0].page))
                    >= (w[1].total_misses, std::cmp::Reverse(w[1].page))
            );
        }
        for hp in &all {
            prop_assert!(hp.dominant < n);
            prop_assert!(hp.misses <= hp.total_misses);
            let expect: u64 =
                misses.iter().filter(|&&(p, _)| p == hp.page).count() as u64;
            prop_assert_eq!(hp.total_misses, expect);
        }
        prop_assert_eq!(&map.hot_pages(k)[..], &all[..k.min(all.len())]);
        map.reset_touches();
        prop_assert!(map.hot_pages(usize::MAX).is_empty());
    }
}

/// Page-shift sanity pin: the adaptation subsystem's page math assumes 4 KiB.
#[test]
fn page_shift_is_stable() {
    assert_eq!(PAGE_SHIFT, 12);
    assert_eq!(PAGE_BYTES, 4096);
}
