//! Closed-form hop counts of the five interconnect layouts.
//!
//! The simulator derives every route by walking each layout's next-hop rule
//! (`dsm_sim::topology`). These formulas are the independent reference its
//! route table is checked against, by the topology unit tests and by
//! `prop_fabric`; the longest routed path is in turn the reference for the
//! simulator's own closed-form `TopologyKind::diameter`.

use super::TopologyKind;

/// Near-square grid `(rows, cols)`: the largest divisor of `n` whose square
/// does not exceed `n` is the column count.
fn grid(n: usize) -> (usize, usize) {
    let cols = (1..=n).filter(|&c| c * c <= n && n.is_multiple_of(c)).max().expect("n >= 1");
    (n / cols, cols)
}

/// Shorter-way distance around a cycle of length `len`.
fn cycle_dist(a: usize, b: usize, len: usize) -> usize {
    let fwd = (b + len - a) % len;
    fwd.min(len - fwd)
}

/// Links crossed between nodes `a` and `b` of an `n`-node layout.
pub fn hops(kind: TopologyKind, n: usize, a: usize, b: usize) -> u32 {
    let (rows, cols) = grid(n);
    let hops = match kind {
        TopologyKind::Hypercube => (a ^ b).count_ones() as usize,
        TopologyKind::Mesh2D => (a / cols).abs_diff(b / cols) + (a % cols).abs_diff(b % cols),
        TopologyKind::Torus2D => {
            cycle_dist(a / cols, b / cols, rows) + cycle_dist(a % cols, b % cols, cols)
        }
        TopologyKind::Ring => cycle_dist(a, b, n),
        // Leaves `a` and `b` meet at the ancestor as many levels up as
        // `a ^ b` has significant bits; the route climbs there and back.
        TopologyKind::FatTree => 2 * (usize::BITS - (a ^ b).leading_zeros()) as usize,
    };
    hops as u32
}
