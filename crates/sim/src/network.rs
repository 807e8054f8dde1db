//! Route-aware interconnect fabric with wormhole-routing latency model.
//!
//! Messages travel hop by hop over a runtime-selected [`Topology`]
//! (hypercube by default, reproducing the paper's Table I network). The
//! topology holds the only route table: every ordered node pair has one
//! deterministic route — an ordered list of *directed link* ids — and a
//! message pays one router-pipeline plus pin-to-pin delay per hop, plus a
//! serialization term for its payload.
//!
//! Each directed link carries two counters:
//!
//! * a **flit counter** (`link_flits`) — every message adds its
//!   serialization time in cycles (its flit count at one flit per cycle) to
//!   every link it crosses, so per-link demand and the global
//!   `total_flit_hops` conserve exactly (Σ link_flits == total_flit_hops);
//! * a **busy-until horizon** (`link_busy`) — with
//!   [`NetworkConfig::link_contention`] on, each directed link admits one
//!   wormhole at a time, so messages queue behind earlier traffic on real
//!   links. Off (the default, matching the paper's framing where contention
//!   concentrates at the home memory controllers — see [`crate::memctrl`]),
//!   latency is the deterministic analytic `one_way` of the route length.

use crate::config::NetworkConfig;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Topology + latency model + per-link accounting for an `n`-node system.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    topo: Topology,
    msgs: u64,
    payload_msgs: u64,
    total_hops: u64,
    /// Total cycles messages spent queued on busy links.
    link_wait_cycles: u64,
    /// Flit-cycles injected: Σ over messages of `ser * route_len`.
    total_flit_hops: u64,
    /// Per directed link occupancy horizon, used only when
    /// [`NetworkConfig::link_contention`] is on.
    link_busy: Vec<u64>,
    /// Per directed link flit counters (demand, contended or not).
    link_flits: Vec<u64>,
}

/// Aggregate traffic counters for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    pub msgs: u64,
    pub payload_msgs: u64,
    pub total_hops: u64,
    /// Cycles messages spent queued behind busy links (0 unless link
    /// contention is modelled).
    pub link_wait_cycles: u64,
    /// Flit-cycles injected onto links: each transmission adds its
    /// serialization time to every directed link on its route, so this
    /// always equals the sum of `link_flits`.
    pub total_flit_hops: u64,
    /// Per-directed-link flit counters, indexed by link id (see
    /// [`Network::link_label`] for the id -> endpoints mapping).
    pub link_flits: Vec<u64>,
}

impl NetworkStats {
    /// Merge another stats block into this one (elementwise; the link
    /// vector grows to the longer of the two). Merging is commutative
    /// and associative.
    pub fn absorb(&mut self, other: &NetworkStats) {
        self.msgs += other.msgs;
        self.payload_msgs += other.payload_msgs;
        self.total_hops += other.total_hops;
        self.link_wait_cycles += other.link_wait_cycles;
        self.total_flit_hops += other.total_flit_hops;
        if self.link_flits.len() < other.link_flits.len() {
            self.link_flits.resize(other.link_flits.len(), 0);
        }
        for (a, b) in self.link_flits.iter_mut().zip(&other.link_flits) {
            *a += b;
        }
    }

    /// Demand on the busiest directed link, in flit-cycles.
    pub fn peak_link_flits(&self) -> u64 {
        self.link_flits.iter().copied().max().unwrap_or(0)
    }

    /// Id of the busiest directed link (lowest id on ties), if any traffic
    /// flowed at all.
    pub fn hottest_link(&self) -> Option<usize> {
        let peak = self.peak_link_flits();
        if peak == 0 {
            return None;
        }
        self.link_flits.iter().position(|&f| f == peak)
    }

    /// Mirror the traffic counters into a metrics registry under `prefix`
    /// (e.g. `sim/network`). Per-link counters are published by
    /// [`Network::publish_links`], which knows the link labels.
    pub fn publish(&self, prefix: &str, reg: &mut dsm_telemetry::MetricsRegistry) {
        reg.counter_add(&format!("{prefix}/msgs"), self.msgs);
        reg.counter_add(&format!("{prefix}/payload_msgs"), self.payload_msgs);
        reg.counter_add(&format!("{prefix}/total_hops"), self.total_hops);
        reg.counter_add(&format!("{prefix}/link_wait_cycles"), self.link_wait_cycles);
        reg.counter_add(&format!("{prefix}/flit_hops"), self.total_flit_hops);
        reg.counter_add(&format!("{prefix}/peak_link_flits"), self.peak_link_flits());
    }
}

impl Network {
    /// Panics when the configured topology cannot be built over `n_nodes`.
    pub fn new(cfg: NetworkConfig, n_nodes: usize) -> Self {
        let topo = cfg.topology.build(n_nodes);
        let n_links = topo.n_links();
        Self {
            cfg,
            topo,
            msgs: 0,
            payload_msgs: 0,
            total_hops: 0,
            link_wait_cycles: 0,
            total_flit_hops: 0,
            link_busy: vec![0; n_links],
            link_flits: vec![0; n_links],
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.topo.n_nodes()
    }

    /// Longest route in the topology, in hops.
    pub fn diameter(&self) -> u32 {
        self.topo.diameter()
    }

    /// Number of directed links in the topology.
    pub fn n_links(&self) -> usize {
        self.link_flits.len()
    }

    /// Display label `from->to` of a directed link id (switch vertices are
    /// prefixed `s`, e.g. `0->s17` in a fat-tree).
    pub fn link_label(&self, link: usize) -> String {
        self.topo.link_label(link)
    }

    /// Route length between two nodes in hops (links crossed).
    #[inline]
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        self.topo.hops(a, b)
    }

    /// Timed transmission `a -> b` along the topology's route, recording
    /// message counters, per-link flit demand, and (when `count_hops`) the
    /// per-delivery hop count. Without link contention (or for a local
    /// message) latency is the analytic `one_way` of the route length; with
    /// it, each directed link admits one wormhole at a time and the head
    /// queues until the link frees.
    fn transmit(&mut self, a: usize, b: usize, payload: bool, now: u64, count_hops: bool) -> u64 {
        let ser = if payload { self.cfg.payload_cycles } else { self.cfg.header_cycles };
        let route = self.topo.route(a, b);
        let h = route.len() as u64;
        self.msgs += 1;
        self.payload_msgs += payload as u64;
        if count_hops {
            self.total_hops += h;
        }
        self.total_flit_hops += ser * h;
        for &l in route {
            self.link_flits[l as usize] += ser;
        }
        if !self.cfg.link_contention || a == b {
            return self.cfg.one_way(h as u32, payload);
        }
        let mut t = now;
        for &l in route {
            let l = l as usize;
            let start = t.max(self.link_busy[l]);
            self.link_wait_cycles += start - t;
            self.link_busy[l] = start + ser;
            t = start + self.cfg.hop_cycles + self.cfg.router_cycles;
        }
        (t + ser) - now
    }

    /// One-way latency of a message injected at absolute cycle `now`,
    /// following the deterministic route hop by hop (see [`Network::transmit`]'s
    /// contention model). Without [`NetworkConfig::link_contention`] this is
    /// the analytic [`Network::latency`] of the route, whatever `now` is.
    pub fn send_at(&mut self, a: usize, b: usize, payload: bool, now: u64) -> u64 {
        self.transmit(a, b, payload, now, true)
    }

    /// Retransmit a copy of an already-delivered message (a duplicate the
    /// receiver will NACK). The copy consumes real bandwidth — message
    /// count, payload count, flit demand, and link occupancy — but its hops
    /// are *not* added to `total_hops`: that counter records hop traversals
    /// once per delivered protocol message, and this copy re-walks a route
    /// whose hops the primary transmission already counted.
    pub fn resend_at(&mut self, a: usize, b: usize, payload: bool, now: u64) -> u64 {
        self.transmit(a, b, payload, now, false)
    }

    /// Pure latency query without traffic accounting.
    #[inline]
    pub fn latency(&self, a: usize, b: usize, payload: bool) -> u64 {
        self.cfg.one_way(self.hops(a, b), payload)
    }

    /// Worst-case uncontended one-way latency in this topology (a full
    /// diameter traversal). The fault layer's retry-budget bounds and the
    /// detector's row-collection deadline are both derived from this.
    #[inline]
    pub fn max_one_way(&self, payload: bool) -> u64 {
        self.cfg.one_way(self.diameter().max(1), payload)
    }

    /// Distance matrix for the paper's DDV: `D[i][j]`, defined as 1 when
    /// `i == j` and `1 + hops(i, j)` otherwise, flattened row-major.
    ///
    /// The paper says only "a measure of the distance from node i to node j
    /// (1 if i = j)" of "pre-programmed constants"; `1 + hops` is the natural
    /// such measure for any topology and keeps local accesses cheapest.
    pub fn distance_matrix(&self) -> Vec<f64> {
        let n = self.n_nodes();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = if i == j { 1.0 } else { 1.0 + self.hops(i, j) as f64 };
            }
        }
        d
    }

    pub fn stats(&self) -> NetworkStats {
        NetworkStats {
            msgs: self.msgs,
            payload_msgs: self.payload_msgs,
            total_hops: self.total_hops,
            link_wait_cycles: self.link_wait_cycles,
            total_flit_hops: self.total_flit_hops,
            link_flits: self.link_flits.clone(),
        }
    }

    /// Publish per-directed-link flit counters under
    /// `{prefix}/link/{from}->{to}/flits`. Only links that carried traffic
    /// are published, to keep the registry proportional to live demand.
    pub fn publish_links(&self, prefix: &str, reg: &mut dsm_telemetry::MetricsRegistry) {
        for (l, &flits) in self.link_flits.iter().enumerate() {
            if flits > 0 {
                reg.counter_add(&format!("{prefix}/link/{}/flits", self.topo.link_label(l)), flits);
            }
        }
    }

    /// Export traffic counters and link-occupancy horizons for
    /// checkpointing.
    pub fn export_state(&self) -> crate::state::NetworkState {
        crate::state::NetworkState {
            msgs: self.msgs,
            payload_msgs: self.payload_msgs,
            total_hops: self.total_hops,
            link_wait_cycles: self.link_wait_cycles,
            total_flit_hops: self.total_flit_hops,
            link_busy: self.link_busy.clone(),
            link_flits: self.link_flits.clone(),
        }
    }

    /// Whether `st` holds one entry per directed link of this network.
    pub fn fits(&self, st: &crate::state::NetworkState) -> bool {
        st.link_busy.len() == self.link_busy.len() && st.link_flits.len() == self.link_flits.len()
    }

    /// Restore state captured by [`Network::export_state`] on a network of
    /// the same topology.
    pub fn import_state(&mut self, st: &crate::state::NetworkState) {
        assert!(self.fits(st), "topology mismatch");
        self.msgs = st.msgs;
        self.payload_msgs = st.payload_msgs;
        self.total_hops = st.total_hops;
        self.link_wait_cycles = st.link_wait_cycles;
        self.total_flit_hops = st.total_flit_hops;
        self.link_busy.copy_from_slice(&st.link_busy);
        self.link_flits.copy_from_slice(&st.link_flits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::topology::TopologyKind;

    fn net(n: usize) -> Network {
        Network::new(SystemConfig::paper(n.max(2)).network, n)
    }

    fn net_of(kind: TopologyKind, n: usize, contention: bool) -> Network {
        let mut cfg = SystemConfig::paper(n.max(2)).network;
        cfg.topology = kind;
        cfg.link_contention = contention;
        Network::new(cfg, n)
    }

    #[test]
    fn hops_is_hamming_distance() {
        let n = net(32);
        assert_eq!(n.hops(0, 0), 0);
        assert_eq!(n.hops(0, 1), 1);
        assert_eq!(n.hops(0, 3), 2);
        assert_eq!(n.hops(0, 31), 5);
        assert_eq!(n.hops(5, 6), 2); // 101 ^ 110 = 011
    }

    #[test]
    fn hops_symmetric_and_triangle() {
        let n = net(16);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(n.hops(a, b), n.hops(b, a));
                for c in 0..16 {
                    assert!(n.hops(a, c) <= n.hops(a, b) + n.hops(b, c));
                }
            }
        }
    }

    #[test]
    fn max_hops_is_diameter() {
        let n = net(32);
        assert_eq!(n.diameter(), 5);
        let max = (0..32)
            .flat_map(|a| (0..32).map(move |b| (a, b)))
            .map(|(a, b)| n.hops(a, b))
            .max()
            .unwrap();
        assert_eq!(max, 5);
    }

    #[test]
    fn local_send_is_free() {
        let mut n = net(8);
        assert_eq!(n.send_at(3, 3, true, 0), 0);
        assert_eq!(n.stats().total_flit_hops, 0, "a local message crosses no links");
    }

    #[test]
    fn remote_latency_grows_with_distance() {
        let mut n = net(32);
        let one = n.send_at(0, 1, true, 0);
        let five = n.send_at(0, 31, true, 0);
        assert!(five > one);
        assert_eq!(n.stats().msgs, 2);
        assert_eq!(n.stats().total_hops, 6);
    }

    #[test]
    fn distance_matrix_shape_and_diagonal() {
        let n = net(8);
        let d = n.distance_matrix();
        assert_eq!(d.len(), 64);
        for i in 0..8 {
            assert_eq!(d[i * 8 + i], 1.0);
            for j in 0..8 {
                assert!(d[i * 8 + j] >= 1.0);
                assert_eq!(d[i * 8 + j], d[j * 8 + i]);
            }
        }
        // node 0 to node 7 (111) is 3 hops -> 4.0
        assert_eq!(d[7], 4.0);
    }

    #[test]
    fn send_at_without_contention_is_analytic_latency() {
        let mut n = net(16);
        for (src, dst, payload, now) in
            [(0usize, 5usize, true, 100u64), (3, 3, false, 7), (1, 14, false, 0)]
        {
            assert_eq!(n.send_at(src, dst, payload, now), n.latency(src, dst, payload));
        }
        assert_eq!(n.stats().msgs, 3);
        assert_eq!(n.stats().total_hops, (n.hops(0, 5) + n.hops(1, 14)) as u64);
    }

    #[test]
    fn link_contention_queues_messages_on_shared_links() {
        let mut cfg = SystemConfig::paper(8).network;
        cfg.link_contention = true;
        let mut n = Network::new(cfg, 8);
        // Two messages injected at the same instant from node 0 along the
        // same first link (0 -> 1): the second must wait for the first's
        // serialization.
        let first = n.send_at(0, 1, true, 1000);
        let second = n.send_at(0, 1, true, 1000);
        assert!(second > first, "queued message must take longer: {first} vs {second}");
        assert_eq!(second - first, cfg.payload_cycles);
        assert!(n.stats().link_wait_cycles > 0);
        // A message on a different link is unaffected.
        let other = n.send_at(0, 2, true, 1000);
        assert_eq!(other, first);
    }

    #[test]
    fn link_contention_latency_matches_uncontended_when_idle() {
        let mut cfg = SystemConfig::paper(8).network;
        cfg.link_contention = true;
        let mut n = Network::new(cfg, 8);
        // An idle network: hop-by-hop latency equals the analytic one_way.
        assert_eq!(n.send_at(0, 7, true, 0), cfg.one_way(3, true));
        // Much later, links have drained.
        assert_eq!(n.send_at(0, 7, true, 1_000_000), cfg.one_way(3, true));
    }

    #[test]
    fn ecube_routes_use_disjoint_links_for_disjoint_pairs() {
        let mut cfg = SystemConfig::paper(8).network;
        cfg.link_contention = true;
        let mut n = Network::new(cfg, 8);
        // 0->1 and 2->3 share no directed links.
        let a = n.send_at(0, 1, true, 0);
        let b = n.send_at(2, 3, true, 0);
        assert_eq!(a, b);
        assert_eq!(n.stats().link_wait_cycles, 0);
    }

    #[test]
    fn resend_at_charges_bandwidth_but_not_hops() {
        let mut n = net(8);
        let first = n.send_at(0, 5, true, 0);
        let again = n.resend_at(0, 5, true, 0);
        assert_eq!(first, again, "an idle resend takes the same route and time");
        let s = n.stats();
        assert_eq!(s.msgs, 2, "the duplicate copy is real traffic");
        assert_eq!(s.payload_msgs, 2);
        assert_eq!(s.total_hops, n.hops(0, 5) as u64, "hops counted once per delivered message");
        assert_eq!(
            s.total_flit_hops,
            2 * n.hops(0, 5) as u64 * SystemConfig::paper(8).network.payload_cycles,
            "both copies consume link bandwidth"
        );
    }

    #[test]
    fn resend_at_still_occupies_links_under_contention() {
        let mut cfg = SystemConfig::paper(8).network;
        cfg.link_contention = true;
        let mut n = Network::new(cfg, 8);
        let first = n.send_at(0, 1, true, 1000);
        // A duplicate copy injected at the same instant queues behind the
        // primary on the shared first link even though its hops are free.
        let dup = n.resend_at(0, 1, true, 1000);
        assert_eq!(dup - first, cfg.payload_cycles);
        assert_eq!(n.stats().total_hops, 1);
    }

    #[test]
    fn max_one_way_bounds_every_pair() {
        let mut n = net(16);
        let bound = n.max_one_way(true);
        for a in 0..16 {
            for b in 0..16 {
                assert!(n.send_at(a, b, true, 0) <= bound);
            }
        }
        assert_eq!(bound, n.latency(0, 15, true));
    }

    #[test]
    fn uniprocessor_network_degenerates() {
        let n = net(1);
        assert_eq!(n.diameter(), 0);
        assert_eq!(n.n_links(), 0);
        assert_eq!(n.distance_matrix(), vec![1.0]);
    }

    #[test]
    fn flit_counters_conserve_per_link() {
        for kind in TopologyKind::ALL {
            let mut n = net_of(kind, 16, false);
            for (a, b, p) in [(0usize, 5usize, true), (3, 12, false), (7, 7, true), (15, 1, true)] {
                n.send_at(a, b, p, 0);
            }
            let s = n.stats();
            assert_eq!(
                s.link_flits.iter().sum::<u64>(),
                s.total_flit_hops,
                "{}: flit conservation",
                kind.name()
            );
            assert!(s.peak_link_flits() > 0);
            assert!(s.hottest_link().is_some());
        }
    }

    #[test]
    fn every_topology_is_latency_consistent() {
        // send_at on an idle contended fabric == the analytic latency of
        // the same route, for every layout.
        for kind in TopologyKind::ALL {
            let n = net_of(kind, 16, true);
            for a in 0..16 {
                for b in 0..16 {
                    let expect = n.latency(a, b, true);
                    let mut idle = net_of(kind, 16, true);
                    assert_eq!(idle.send_at(a, b, true, 0), expect, "{}", kind.name());
                    assert!(n.latency(a, b, true) <= n.max_one_way(true));
                }
            }
        }
    }

    #[test]
    fn stats_absorb_merges_elementwise() {
        let mut x = net(8);
        let mut y = net(8);
        x.send_at(0, 5, true, 0);
        y.send_at(5, 0, false, 0);
        y.send_at(1, 2, true, 0);
        let mut merged = x.stats();
        merged.absorb(&y.stats());
        let mut both = net(8);
        both.send_at(0, 5, true, 0);
        both.send_at(5, 0, false, 0);
        both.send_at(1, 2, true, 0);
        assert_eq!(merged, both.stats());
    }

    #[test]
    fn export_import_round_trips_link_state() {
        let mut cfg = SystemConfig::paper(8).network;
        cfg.link_contention = true;
        let mut n = Network::new(cfg, 8);
        n.send_at(0, 7, true, 10);
        n.send_at(3, 4, false, 12);
        let st = n.export_state();
        let mut fresh = Network::new(cfg, 8);
        fresh.import_state(&st);
        assert_eq!(fresh.stats(), n.stats());
        assert_eq!(fresh.export_state(), st);
        // The restored fabric continues with identical contention behavior.
        assert_eq!(fresh.send_at(0, 7, true, 15), n.send_at(0, 7, true, 15));
    }
}
