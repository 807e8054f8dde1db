//! Property tests over the workload generators: for every application and
//! any power-of-two processor count, streams terminate, barrier/lock
//! sequences are well-formed and identical across processors, every event
//! is sane, and generation is deterministic.

use proptest::prelude::*;

use dsm_sim::event::Event;
use dsm_workloads::mem::NodeAlloc;
use dsm_workloads::{App, Scale};

fn drain(w: &mut dyn dsm_workloads::Workload, proc: usize, cap: usize) -> Vec<Event> {
    let mut all = Vec::new();
    loop {
        let mut buf = Vec::new();
        w.fill(proc, &mut buf);
        if buf.is_empty() {
            break;
        }
        all.extend(buf);
        assert!(all.len() < cap, "stream for proc {proc} exceeds {cap} events");
    }
    all
}

fn app_strategy() -> impl Strategy<Value = App> {
    prop::sample::select(App::EXTENDED.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streams_are_wellformed_for_all_apps(
        app in app_strategy(),
        logp in 0u32..4,
    ) {
        let p = 1usize << logp;
        let mut w = app.build(p, Scale::Test);
        let mut barrier_seqs: Vec<Vec<u32>> = Vec::new();
        for proc in 0..p {
            let evs = drain(w.as_mut(), proc, 40_000_000);
            prop_assert!(!evs.is_empty(), "{} proc {proc} emitted nothing", app.name());

            let mut barriers = Vec::new();
            let mut held: Option<u32> = None;
            let mut insns = 0u64;
            for e in &evs {
                insns += e.nonsync_insns();
                match e {
                    Event::Block { insns, .. } => prop_assert!(*insns > 0),
                    Event::Fp { ops } => prop_assert!(*ops > 0),
                    Event::Mem { addr, .. } => {
                        let home = (*addr >> dsm_sim::addr::HOME_SHIFT) as usize;
                        prop_assert!(home < p, "home {home} out of range for p={p}");
                    }
                    Event::Barrier { id } => {
                        prop_assert!(held.is_none(), "barrier while holding a lock");
                        barriers.push(*id);
                    }
                    Event::Acquire { lock } => {
                        prop_assert!(held.is_none(), "nested lock");
                        held = Some(*lock);
                    }
                    Event::Release { lock } => {
                        prop_assert_eq!(held, Some(*lock), "release without acquire");
                        held = None;
                    }
                    Event::End => {}
                }
            }
            prop_assert!(held.is_none(), "lock held at end of stream");
            prop_assert!(insns > 0);
            barrier_seqs.push(barriers);
        }
        // All processors must arrive at the same barriers in the same order.
        for s in &barrier_seqs[1..] {
            prop_assert_eq!(s, &barrier_seqs[0]);
        }
    }

    #[test]
    fn generation_is_deterministic(app in app_strategy(), logp in 0u32..3) {
        let p = 1usize << logp;
        let a = drain(app.build(p, Scale::Test).as_mut(), p - 1, 40_000_000);
        let b = drain(app.build(p, Scale::Test).as_mut(), p - 1, 40_000_000);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn allocator_regions_never_overlap(
        sizes in prop::collection::vec((0usize..4, 1u64..5000), 1..50),
    ) {
        let mut alloc = NodeAlloc::new(4);
        let mut ranges: Vec<(usize, u64, u64)> = Vec::new();
        for (home, bytes) in sizes {
            let r = alloc.alloc(home, bytes);
            let start = r.addr(0);
            let end = start + r.bytes();
            for &(h, s, e) in &ranges {
                if h == home {
                    prop_assert!(end <= s || start >= e, "overlap on home {home}");
                }
            }
            ranges.push((home, start, end));
        }
    }
}

/// Every application builds at every scale and at every power-of-two node
/// count the machine takes, and each Test-scale stream runs to its end.
#[test]
fn every_app_builds_at_every_scale_and_node_count() {
    let node_counts = || (0..).map(|k| 1usize << k).take_while(|&p| p <= dsm_sim::MAX_PROCS);
    let mut buf = Vec::new();
    for app in App::EXTENDED {
        for scale in [Scale::Test, Scale::Scaled, Scale::Paper] {
            for p in node_counts() {
                let mut w = app.build(p, scale);
                if scale != Scale::Test {
                    continue;
                }
                for proc in 0..p {
                    let mut events = 0usize;
                    loop {
                        buf.clear();
                        w.fill(proc, &mut buf);
                        if buf.is_empty() {
                            break;
                        }
                        events += buf.len();
                        assert!(events < 10_000_000, "{app:?} {p}P proc {proc} does not end");
                    }
                    assert!(events > 0, "{app:?} {p}P proc {proc} emits nothing");
                }
            }
        }
    }
}
