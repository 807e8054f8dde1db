//! Interconnect layouts as data: one route table per machine.
//!
//! [`TopologyKind::build`] turns a layout and a node count into a
//! [`Topology`]: its vertex set (nodes plus any internal switches), its
//! sorted directed-link table, and one deterministic route — an ordered
//! list of *directed link* ids — for every ordered node pair. The fabric
//! ([`crate::network::Network`]) reads routes from this table and charges
//! latency, flits, and (optionally) wormhole channel occupancy along them.
//! Five layouts are selectable at runtime via
//! [`crate::config::NetworkConfig::topology`]:
//!
//! * **hypercube** (default) — nodes are cube vertices, e-cube
//!   (dimension-order, lowest bit first) routing; this reproduces the
//!   original analytical model's distances exactly;
//! * **mesh2d** — a near-square 2-D grid (columns chosen as the largest
//!   divisor of `n` not exceeding `sqrt(n)`), XY routing;
//! * **torus2d** — the same grid with wraparound links, per-axis
//!   shortest-direction routing (ties resolve to the increasing direction);
//! * **ring** — shortest-direction routing (ties resolve clockwise);
//! * **fattree** — a binary tree over the nodes with internal switch
//!   vertices; packets climb to the lowest common ancestor and descend.
//!
//! Each layout is a builder that supplies its vertex count, its edge list
//! and its next-hop rule; one loop walks the rule between every node pair
//! to fill the route table. [`TopologyKind::links`] and
//! [`TopologyKind::diameter`] answer the layout's shape questions without
//! that walk. Every route is a pure function of
//! `(layout, src, dst)` — no adaptivity, no randomness — so simulations stay
//! bit-reproducible, and link ids are indices into the sorted edge table,
//! so checkpoints restore in-flight link occupancy by index.

use serde::{Deserialize, Serialize};

/// Runtime-selectable topology layouts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    #[default]
    Hypercube,
    Mesh2D,
    Torus2D,
    Ring,
    FatTree,
}

impl TopologyKind {
    /// Every layout, in the order sweeps and artefacts report them.
    pub const ALL: [TopologyKind; 5] = [
        TopologyKind::Hypercube,
        TopologyKind::Mesh2D,
        TopologyKind::Torus2D,
        TopologyKind::Ring,
        TopologyKind::FatTree,
    ];

    /// Stable lower-case name (CLI flags, JSON artefacts, counter names).
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Hypercube => "hypercube",
            TopologyKind::Mesh2D => "mesh2d",
            TopologyKind::Torus2D => "torus2d",
            TopologyKind::Ring => "ring",
            TopologyKind::FatTree => "fattree",
        }
    }

    /// Inverse of [`TopologyKind::name`].
    pub fn from_name(s: &str) -> Option<TopologyKind> {
        TopologyKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether this layout can be built over `n` nodes. The hypercube and
    /// the binary fat-tree require a power of two; the grid and ring
    /// layouts accept any positive count.
    pub fn supports(self, n: usize) -> bool {
        n > 0
            && match self {
                TopologyKind::Hypercube | TopologyKind::FatTree => n.is_power_of_two(),
                _ => true,
            }
    }

    /// Build the link and route tables for `n` nodes.
    ///
    /// Panics when `!self.supports(n)` — node counts are validated with the
    /// rest of the machine configuration, not at message time.
    pub fn build(self, n: usize) -> Topology {
        Topology::from_layout(self, n, self.layout(n))
    }

    /// The sorted directed link table of [`build`](Self::build) (a link id
    /// indexes it), without routing any node pair. Same panic as `build`.
    pub fn links(self, n: usize) -> Vec<(usize, usize)> {
        sorted_links(self.layout(n).edges)
    }

    /// Longest route over all node pairs of an `n`-node layout, in links:
    /// the closed form of what routing every pair would find.
    pub fn diameter(self, n: usize) -> u32 {
        let (rows, cols) = grid_dims(n);
        let diameter = match self {
            TopologyKind::Hypercube => n.trailing_zeros() as usize,
            TopologyKind::Mesh2D => rows - 1 + cols - 1,
            TopologyKind::Torus2D => rows / 2 + cols / 2,
            TopologyKind::Ring => n / 2,
            TopologyKind::FatTree => 2 * n.trailing_zeros() as usize,
        };
        diameter as u32
    }

    fn layout(self, n: usize) -> Layout {
        assert!(self.supports(n), "{} cannot be built over {n} nodes", self.name());
        match self {
            TopologyKind::Hypercube => hypercube(n),
            TopologyKind::Mesh2D => mesh2d(n),
            TopologyKind::Torus2D => torus2d(n),
            TopologyKind::Ring => ring(n),
            TopologyKind::FatTree => fat_tree(n),
        }
    }
}

/// A layout before routing: its routing vertices (nodes first, then any
/// switches), its directed links in any order, and its next-hop rule —
/// `next_hop(cur, dst)` is the next vertex on the way to node `dst`.
struct Layout {
    n_vertices: usize,
    edges: Vec<(usize, usize)>,
    next_hop: Box<dyn Fn(usize, usize) -> usize>,
}

fn sorted_links(mut edges: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    edges.sort_unstable();
    edges.dedup();
    debug_assert!(edges.iter().all(|&(a, b)| a != b), "self-loop in link table");
    edges
}

/// Display label of the directed link `(from, to)` over `n_nodes` nodes,
/// e.g. `"3->7"`; internal switches are prefixed `s`, e.g. `"0->s4"`.
pub fn link_label(n_nodes: usize, (from, to): (usize, usize)) -> String {
    let name = |v: usize| if v < n_nodes { v.to_string() } else { format!("s{v}") };
    format!("{}->{}", name(from), name(to))
}

/// One interconnect layout over `n_nodes` endpoint nodes: its directed link
/// table and the route between every ordered pair of nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    n_nodes: usize,
    /// Routing vertices: nodes `0..n_nodes`, then any internal switches.
    n_vertices: usize,
    /// Directed links `(from, to)`, sorted; a link id indexes this table.
    edges: Vec<(usize, usize)>,
    /// Link ids of every route in traversal order, routes concatenated in
    /// `a * n_nodes + b` order. A route from a node to itself is empty.
    route_links: Vec<u32>,
    /// Route `i` is `route_links[route_starts[i]..route_starts[i + 1]]`.
    route_starts: Vec<u32>,
    /// Longest route, in links ([`TopologyKind::diameter`]).
    diameter: u32,
}

impl Topology {
    /// Sort and deduplicate the layout's links, then walk its `next_hop`
    /// from every node to every other to fill the route table. Every step
    /// must follow a link, and a route may not revisit a vertex (a rule
    /// that cycles panics here instead of growing the table without bound).
    fn from_layout(kind: TopologyKind, n_nodes: usize, layout: Layout) -> Self {
        let Layout { n_vertices, edges, next_hop } = layout;
        let edges = sorted_links(edges);
        let mut route_links = Vec::new();
        let mut route_starts = Vec::with_capacity(n_nodes * n_nodes + 1);
        route_starts.push(0);
        for a in 0..n_nodes {
            for b in 0..n_nodes {
                let start = route_links.len();
                let mut cur = a;
                while cur != b {
                    assert!(route_links.len() - start < n_vertices, "next_hop cycles on {a}->{b}");
                    let nxt = next_hop(cur, b);
                    let link = edges
                        .binary_search(&(cur, nxt))
                        .unwrap_or_else(|_| panic!("next_hop {cur}->{nxt} is not a link"));
                    route_links.push(link as u32);
                    cur = nxt;
                }
                route_starts.push(route_links.len() as u32);
            }
        }
        let diameter = kind.diameter(n_nodes);
        Self { kind, n_nodes, n_vertices, edges, route_links, route_starts, diameter }
    }

    /// The layout this table was built for.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Endpoint (processor/memory) nodes. Nodes are vertices `0..n_nodes`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// All routing vertices, including internal switches (`>= n_nodes`).
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.edges.len()
    }

    /// `(from, to)` vertices of a directed link.
    pub fn link_endpoints(&self, link: usize) -> (usize, usize) {
        self.edges[link]
    }

    /// The route from node `a` to node `b`: directed link ids in traversal
    /// order. Empty when `a == b`.
    #[inline]
    pub fn route(&self, a: usize, b: usize) -> &[u32] {
        debug_assert!(a < self.n_nodes && b < self.n_nodes);
        let i = a * self.n_nodes + b;
        &self.route_links[self.route_starts[i] as usize..self.route_starts[i + 1] as usize]
    }

    /// Route length between two nodes, in links.
    #[inline]
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        self.route(a, b).len() as u32
    }

    /// Longest route over all node pairs, in links.
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// Display label of a directed link ([`link_label`]).
    pub fn link_label(&self, link: usize) -> String {
        link_label(self.n_nodes, self.edges[link])
    }
}

/// Hypercube with e-cube (dimension-order) routing, lowest differing bit
/// first — the link-visit order of the original analytical model.
fn hypercube(n: usize) -> Layout {
    let dim = n.trailing_zeros();
    let edges = (0..n).flat_map(|v| (0..dim).map(move |d| (v, v ^ (1 << d)))).collect();
    Layout {
        n_vertices: n,
        edges,
        next_hop: Box::new(|cur, dst| cur ^ (1 << (cur ^ dst).trailing_zeros())),
    }
}

/// Near-square factorization: the largest divisor of `n` not exceeding
/// `sqrt(n)` becomes the column count (so `cols <= rows`). Prime counts
/// degenerate to a 1-wide line, which is still a valid mesh.
fn grid_dims(n: usize) -> (usize, usize) {
    let mut cols = (n as f64).sqrt().floor() as usize;
    cols = cols.clamp(1, n);
    while !n.is_multiple_of(cols) {
        cols -= 1;
    }
    (n / cols, cols)
}

/// 2-D mesh with XY (column-first) dimension-order routing.
fn mesh2d(n: usize) -> Layout {
    let (rows, cols) = grid_dims(n);
    let mut edges = Vec::new();
    for v in 0..n {
        if v % cols + 1 < cols {
            edges.extend([(v, v + 1), (v + 1, v)]);
        }
        if v / cols + 1 < rows {
            edges.extend([(v, v + cols), (v + cols, v)]);
        }
    }
    let next_hop = move |cur: usize, dst: usize| {
        let (cr, cc) = (cur / cols, cur % cols);
        let (dr, dc) = (dst / cols, dst % cols);
        if cc != dc {
            if dc > cc {
                cur + 1
            } else {
                cur - 1
            }
        } else if dr > cr {
            cur + cols
        } else {
            cur - cols
        }
    };
    Layout { n_vertices: n, edges, next_hop: Box::new(next_hop) }
}

/// The neighbour of `cur` one step toward `dst != cur` around a cycle of
/// length `len`, the shorter way (an exact-half tie goes the increasing
/// way).
fn wrap_next(cur: usize, dst: usize, len: usize) -> usize {
    let fwd = (dst + len - cur) % len;
    if fwd <= len - fwd {
        (cur + 1) % len
    } else {
        (cur + len - 1) % len
    }
}

/// 2-D torus: the mesh grid plus wraparound links, per-axis
/// shortest-direction dimension-order routing (columns first).
fn torus2d(n: usize) -> Layout {
    let (rows, cols) = grid_dims(n);
    let mut edges = Vec::new();
    for v in 0..n {
        let (r, c) = (v / cols, v % cols);
        if cols > 1 {
            let right = r * cols + (c + 1) % cols;
            edges.extend([(v, right), (right, v)]);
        }
        if rows > 1 {
            let down = ((r + 1) % rows) * cols + c;
            edges.extend([(v, down), (down, v)]);
        }
    }
    let next_hop = move |cur: usize, dst: usize| {
        let (cr, cc) = (cur / cols, cur % cols);
        let (dr, dc) = (dst / cols, dst % cols);
        if cc != dc {
            cr * cols + wrap_next(cc, dc, cols)
        } else {
            wrap_next(cr, dr, rows) * cols + cc
        }
    };
    Layout { n_vertices: n, edges, next_hop: Box::new(next_hop) }
}

/// Ring with shortest-direction routing; the exact-half tie resolves
/// clockwise (increasing ids).
fn ring(n: usize) -> Layout {
    let edges = if n > 1 {
        (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + n - 1) % n)]).collect()
    } else {
        Vec::new()
    };
    Layout { n_vertices: n, edges, next_hop: Box::new(move |cur, dst| wrap_next(cur, dst, n)) }
}

/// Binary fat-tree over `n` (power-of-two) leaf nodes. Internal switches
/// are extra vertices `n..2n-1`; leaf `i` is heap index `n + i`, switch
/// vertex `v` is heap index `v - n + 1` (the root is vertex `n`). Packets
/// climb to the lowest common ancestor and descend. Link bandwidth is
/// uniform, so root links are the contention hot spot by construction —
/// the layout with the worst peak demand in the topology sweep.
fn fat_tree(n: usize) -> Layout {
    let heap = move |v: usize| if v < n { n + v } else { v - n + 1 };
    let vertex = move |h: usize| if h >= n { h - n } else { n + h - 1 };
    let depth = |h: usize| usize::BITS - 1 - h.leading_zeros();
    let edges =
        (2..2 * n).flat_map(|h| [(vertex(h), vertex(h / 2)), (vertex(h / 2), vertex(h))]).collect();
    let next_hop = move |cur: usize, dst: usize| {
        let (hc, hd) = (heap(cur), heap(dst));
        let (dc, dd) = (depth(hc), depth(hd));
        if dd > dc && (hd >> (dd - dc)) == hc {
            // `cur` is an ancestor of the destination: descend toward it.
            vertex(hd >> (dd - dc - 1))
        } else {
            vertex(hc / 2)
        }
    };
    Layout { n_vertices: 2 * n - 1, edges, next_hop: Box::new(next_hop) }
}

#[cfg(test)]
#[path = "../tests/closed_form/mod.rs"]
mod closed_form;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every route is a contiguous chain of links from source to
    /// destination, its length is the closed-form hop count, the longest
    /// route is the closed-form diameter, and the unrouted link table is
    /// the routed one's.
    fn check_routes(t: &Topology) {
        let (kind, n) = (t.kind(), t.n_nodes());
        for a in 0..n {
            for b in 0..n {
                let route = t.route(a, b);
                let expect = closed_form::hops(kind, n, a, b);
                assert_eq!(route.len() as u32, expect, "{kind:?}/{n}: {a}->{b}");
                let mut cur = a;
                for &l in route {
                    let (from, to) = t.link_endpoints(l as usize);
                    assert_eq!(from, cur, "{a}->{b}: discontinuous route");
                    cur = to;
                }
                assert_eq!(cur, b, "{a}->{b}: route does not arrive");
            }
        }
        let longest =
            (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).map(|(a, b)| t.hops(a, b)).max();
        assert_eq!(Some(t.diameter()), longest, "{kind:?}/{n}");
        let table: Vec<_> = (0..t.n_links()).map(|l| t.link_endpoints(l)).collect();
        assert_eq!(kind.links(n), table, "{kind:?}/{n}");
    }

    #[test]
    fn all_layouts_route_validly_at_representative_sizes() {
        for kind in TopologyKind::ALL {
            for n in [1usize, 2, 4, 8, 16, 32, 128] {
                if kind.supports(n) {
                    check_routes(&kind.build(n));
                }
            }
        }
        // Non-power-of-two sizes for the layouts that allow them.
        for kind in [TopologyKind::Mesh2D, TopologyKind::Torus2D, TopologyKind::Ring] {
            for n in [3usize, 5, 6, 7, 12, 15] {
                check_routes(&kind.build(n));
            }
        }
    }

    #[test]
    fn hypercube_matches_hamming_distance() {
        let t = TopologyKind::Hypercube.build(16);
        for a in 0..16usize {
            for b in 0..16usize {
                assert_eq!(t.hops(a, b), ((a ^ b) as u64).count_ones());
            }
        }
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.n_links(), 16 * 4);
    }

    fn hop_pairs(t: &Topology, a: usize, b: usize) -> Vec<(usize, usize)> {
        t.route(a, b).iter().map(|&l| t.link_endpoints(l as usize)).collect()
    }

    #[test]
    fn hypercube_routes_fix_lowest_bit_first() {
        // The e-cube visit order of the analytical model: 0 -> 7 goes
        // 0 -> 1 -> 3 -> 7.
        let t = TopologyKind::Hypercube.build(8);
        assert_eq!(hop_pairs(&t, 0, 7), vec![(0, 1), (1, 3), (3, 7)]);
    }

    #[test]
    fn mesh_factorization_is_near_square() {
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(12), (4, 3));
        assert_eq!(grid_dims(7), (7, 1));
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn torus_wraps_and_mesh_does_not() {
        let mesh = TopologyKind::Mesh2D.build(16);
        let torus = TopologyKind::Torus2D.build(16);
        // Corner to corner: mesh pays the full Manhattan distance, the
        // torus wraps both axes.
        assert_eq!(mesh.hops(0, 15), 6);
        assert_eq!(torus.hops(0, 15), 2);
        assert!(torus.diameter() < mesh.diameter());
    }

    #[test]
    fn ring_tie_breaks_clockwise() {
        let t = TopologyKind::Ring.build(6);
        // Distance 3 both ways: the route must go 0 -> 1 -> 2 -> 3.
        assert_eq!(hop_pairs(&t, 0, 3), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn fat_tree_climbs_to_the_lca() {
        let t = TopologyKind::FatTree.build(8);
        assert_eq!(t.n_vertices(), 15);
        assert_eq!(t.n_links(), 2 * (2 * 8 - 2));
        // Siblings share a parent switch: two hops.
        assert_eq!(t.hops(0, 1), 2);
        // Opposite halves route through the root: the full diameter.
        assert_eq!(t.hops(0, 7), 6);
        assert_eq!(t.diameter(), 6);
        // Every intermediate vertex of a cross-tree route is a switch.
        let route = t.route(0, 7);
        for &l in &route[..route.len() - 1] {
            let (_, to) = t.link_endpoints(l as usize);
            assert!(to >= t.n_nodes(), "intermediate vertex {to} is not a switch");
            assert!(t.link_label(l as usize).contains("s"));
        }
    }

    #[test]
    fn uniprocessor_layouts_degenerate() {
        for kind in TopologyKind::ALL {
            let t = kind.build(1);
            assert_eq!(t.hops(0, 0), 0);
            assert_eq!(t.diameter(), 0);
            assert!(t.n_links() == 0);
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TopologyKind::from_name("3d-chiplet"), None);
    }
}
