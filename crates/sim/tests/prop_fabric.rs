//! Property tests for the route-aware fabric: every topology produces
//! valid routes of the closed-form length at arbitrary (supported) node
//! counts, per-link flit
//! accounting conserves the total flit-hop count under any message
//! schedule, and the fabric is deterministic — bit-identical stats across
//! replays and under [`NetworkStats::absorb`] merging of partial runs.

use proptest::prelude::*;

use dsm_sim::config::SystemConfig;
use dsm_sim::network::{Network, NetworkStats};
use dsm_sim::topology::TopologyKind;

mod closed_form;

/// Pick a node count the layout supports: hypercube and fat-tree need a
/// power of two; the grid/ring layouts accept any `n >= 1`.
fn node_count(kind: TopologyKind, exp: u32, raw: usize) -> usize {
    match kind {
        TopologyKind::Hypercube | TopologyKind::FatTree => 1 << (exp % 6),
        _ => 1 + raw % 64,
    }
}

fn kind_strategy() -> impl Strategy<Value = TopologyKind> {
    (0..TopologyKind::ALL.len()).prop_map(|k| TopologyKind::ALL[k])
}

/// One message in a synthetic schedule.
#[derive(Debug, Clone)]
struct Msg {
    a_sel: usize,
    b_sel: usize,
    payload: bool,
    /// Issue-time offset; schedules replay with a monotone clock.
    dt: u64,
    /// Replay this transmission as a fault-layer duplicate (no hop count).
    duplicate: bool,
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    (any::<usize>(), any::<usize>(), any::<bool>(), 0u64..200, any::<bool>()).prop_map(
        |(a_sel, b_sel, payload, dt, duplicate)| Msg { a_sel, b_sel, payload, dt, duplicate },
    )
}

fn fabric(kind: TopologyKind, n: usize, contention: bool) -> Network {
    let mut cfg = SystemConfig::paper(2).network;
    cfg.topology = kind;
    cfg.link_contention = contention;
    Network::new(cfg, n)
}

/// Replay a schedule and return the per-message latencies alongside the
/// final statistics.
fn replay(net: &mut Network, schedule: &[Msg]) -> (Vec<u64>, NetworkStats) {
    let n = net.n_nodes();
    let mut now = 0;
    let lat: Vec<u64> = schedule
        .iter()
        .map(|m| {
            now += m.dt;
            let (a, b) = (m.a_sel % n, m.b_sel % n);
            if m.duplicate {
                net.resend_at(a, b, m.payload, now)
            } else {
                net.send_at(a, b, m.payload, now)
            }
        })
        .collect();
    (lat, net.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every route is a contiguous chain of directed links from source to
    /// destination, its length is the layout's closed-form hop count, and
    /// the longest route over all pairs is its closed-form diameter.
    #[test]
    fn routes_are_valid_on_every_layout(
        kind in kind_strategy(),
        exp in any::<u32>(),
        raw in any::<usize>(),
        pairs in prop::collection::vec((any::<usize>(), any::<usize>()), 1..24),
    ) {
        let n = node_count(kind, exp, raw); // supported by construction
        let topo = kind.build(n);
        let longest =
            (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).map(|(a, b)| topo.hops(a, b)).max();
        prop_assert_eq!(Some(topo.diameter()), longest);
        for (a_sel, b_sel) in pairs {
            let (a, b) = (a_sel % n, b_sel % n);
            let route = topo.route(a, b);
            prop_assert_eq!(route.len() as u32, closed_form::hops(kind, n, a, b));
            let mut cur = a;
            for &link in route {
                let (from, to) = topo.link_endpoints(link as usize);
                prop_assert_eq!(from, cur, "route breaks at link {}", link);
                cur = to;
            }
            prop_assert_eq!(cur, b, "route does not arrive");
        }
    }

    /// Under any schedule — contended or not, duplicates included — the
    /// per-directed-link flit counters sum exactly to the total flit-hop
    /// count, and the counter vector matches the link table.
    #[test]
    fn flits_are_conserved(
        kind in kind_strategy(),
        exp in any::<u32>(),
        raw in any::<usize>(),
        contention in any::<bool>(),
        schedule in prop::collection::vec(msg_strategy(), 0..48),
    ) {
        let n = node_count(kind, exp, raw); // supported by construction
        let mut net = fabric(kind, n, contention);
        let (_, stats) = replay(&mut net, &schedule);
        prop_assert_eq!(stats.link_flits.len(), net.n_links());
        prop_assert_eq!(
            stats.link_flits.iter().sum::<u64>(),
            stats.total_flit_hops,
            "per-link flits must conserve the flit-hop total"
        );
    }

    /// Replaying the same schedule on a fresh fabric yields bit-identical
    /// latencies and statistics.
    #[test]
    fn replay_is_deterministic(
        kind in kind_strategy(),
        exp in any::<u32>(),
        raw in any::<usize>(),
        contention in any::<bool>(),
        schedule in prop::collection::vec(msg_strategy(), 0..48),
    ) {
        let n = node_count(kind, exp, raw); // supported by construction
        let (lat_a, stats_a) = replay(&mut fabric(kind, n, contention), &schedule);
        let (lat_b, stats_b) = replay(&mut fabric(kind, n, contention), &schedule);
        prop_assert_eq!(lat_a, lat_b);
        prop_assert_eq!(stats_a, stats_b);
    }

    /// Absorb-merging the stats of two partial runs is commutative and
    /// equals the elementwise sum — so partial runs aggregate to the same
    /// totals regardless of merge order.
    #[test]
    fn absorb_merges_partial_runs(
        kind in kind_strategy(),
        exp in any::<u32>(),
        raw in any::<usize>(),
        s1 in prop::collection::vec(msg_strategy(), 0..24),
        s2 in prop::collection::vec(msg_strategy(), 0..24),
    ) {
        let n = node_count(kind, exp, raw); // supported by construction
        let (_, a) = replay(&mut fabric(kind, n, true), &s1);
        let (_, b) = replay(&mut fabric(kind, n, true), &s2);

        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        prop_assert_eq!(&ab, &ba, "absorb must be commutative");

        prop_assert_eq!(ab.msgs, a.msgs + b.msgs);
        prop_assert_eq!(ab.total_hops, a.total_hops + b.total_hops);
        prop_assert_eq!(ab.total_flit_hops, a.total_flit_hops + b.total_flit_hops);
        for (i, &f) in ab.link_flits.iter().enumerate() {
            let fa = a.link_flits.get(i).copied().unwrap_or(0);
            let fb = b.link_flits.get(i).copied().unwrap_or(0);
            prop_assert_eq!(f, fa + fb, "link {} merges elementwise", i);
        }
        // Conservation survives the merge.
        prop_assert_eq!(ab.link_flits.iter().sum::<u64>(), ab.total_flit_hops);
        prop_assert!(ab.peak_link_flits() >= a.peak_link_flits().max(b.peak_link_flits()));
    }

    /// Stats vectors from *different* topologies still merge: the result is
    /// as long as the longer vector and conserves both totals (the sweep
    /// aggregates per-layout shards this way).
    #[test]
    fn absorb_resizes_across_layouts(
        k1 in kind_strategy(),
        k2 in kind_strategy(),
        schedule in prop::collection::vec(msg_strategy(), 1..24),
    ) {
        let n = 8; // supported by every layout
        let (_, a) = replay(&mut fabric(k1, n, true), &schedule);
        let (_, b) = replay(&mut fabric(k2, n, true), &schedule);
        let mut ab = a.clone();
        ab.absorb(&b);
        prop_assert_eq!(ab.link_flits.len(), a.link_flits.len().max(b.link_flits.len()));
        prop_assert_eq!(ab.link_flits.iter().sum::<u64>(), a.total_flit_hops + b.total_flit_hops);
    }
}
