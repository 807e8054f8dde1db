//! Deterministic agglomerative clustering over the pairwise distance
//! matrix, outlier scoring, and divergent-range flagging.
//!
//! The framing follows the similarity-analysis approach to SPMD performance
//! debugging: cluster the nodes by behavioural similarity, call the largest
//! cluster "how the program behaves", and treat everything outside it as an
//! anomaly to be explained. Average-linkage merging with lexicographic
//! tie-breaks (smallest minimum node id first) makes the dendrogram — and
//! therefore the diagnosis — a pure function of the distance matrix.

use dsm_phase::stream::PhaseStream;

use crate::kernel::{canonical_phases, cpi_residuals, median, range_slice};
use crate::DiagnoseConfig;

/// Average-linkage distance between two clusters.
fn linkage(dist: &[Vec<f64>], a: &[usize], b: &[usize]) -> f64 {
    let mut sum = 0.0;
    for &i in a {
        for &j in b {
            sum += dist[i][j];
        }
    }
    sum / (a.len() * b.len()) as f64
}

/// Agglomerative average-linkage clustering: start from singletons, merge
/// the closest pair while its linkage stays within `threshold`. Clusters
/// are kept (and returned) sorted by minimum node id, members ascending —
/// merge order is deterministic by construction.
pub fn cluster(dist: &[Vec<f64>], threshold: f64) -> Vec<Vec<usize>> {
    let n = dist.len();
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    while clusters.len() > 1 {
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let d = linkage(dist, &clusters[i], &clusters[j]);
                // Strict < keeps the lexicographically first minimal pair
                // (clusters are ordered by min node id).
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, i, j));
                }
            }
        }
        let Some((d, i, j)) = best else { break };
        if d > threshold {
            break;
        }
        let absorbed = clusters.remove(j);
        clusters[i].extend(absorbed);
        clusters[i].sort_unstable();
        clusters.sort_by_key(|c| c[0]);
    }
    clusters
}

/// Index (into `clusters`) of the majority cluster: the largest, ties going
/// to the one containing the smallest node id.
pub fn majority_index(clusters: &[Vec<usize>]) -> usize {
    let mut best = 0;
    for (i, c) in clusters.iter().enumerate().skip(1) {
        if c.len() > clusters[best].len() {
            best = i;
        }
    }
    best
}

/// Per-node outlier score: mean distance to every *other* node. A fleet of
/// one scores zero.
pub fn outlier_scores(dist: &[Vec<f64>]) -> Vec<f64> {
    let n = dist.len();
    (0..n)
        .map(|i| {
            if n <= 1 {
                0.0
            } else {
                dist[i].iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &d)| d).sum::<f64>()
                    / (n - 1) as f64
            }
        })
        .collect()
}

/// The inclusive true-interval-index range `[first, last]` over which
/// `node`'s stream diverges from the majority's consensus, or `None` if no
/// aligned interval diverges.
///
/// Divergence at an aligned position means disagreeing with the majority's
/// canonical phase mode, or a relative deviation of the *phase-normalized
/// CPI residual* (each interval's CPI over the median CPI of its phase on
/// its own node, matching the distance kernel) from
/// the majority median beyond `cpi_flag_rel`. The flagged range is the longest divergent
/// run, tolerating interior clean gaps of up to `gap_tolerance` intervals
/// (a slowdown epoch is a contiguous stretch of wall time, but barrier
/// alignment can briefly re-synchronize the CPI mid-epoch).
pub fn flagged_range(
    cfg: &DiagnoseConfig,
    streams: &[PhaseStream],
    node: usize,
    majority: &[usize],
) -> Option<(u64, u64)> {
    let peers: Vec<usize> = majority.iter().copied().filter(|&m| m != node).collect();
    if peers.is_empty() {
        return None;
    }
    // Common true-index range across the node and all peers.
    let mut lo = streams[node].first_index();
    let mut hi = streams[node].next_index();
    for &p in &peers {
        lo = lo.max(streams[p].first_index());
        hi = hi.min(streams[p].next_index());
    }
    if lo >= hi {
        return None;
    }
    let own = range_slice(&streams[node], lo, hi);
    let own_canon = canonical_phases(own);
    let own_res = cpi_residuals(own, &own_canon);
    let peer_slices: Vec<_> = peers.iter().map(|&p| range_slice(&streams[p], lo, hi)).collect();
    let peer_canons: Vec<Vec<u32>> = peer_slices.iter().map(|s| canonical_phases(s)).collect();
    let peer_res: Vec<Vec<f64>> = peer_slices
        .iter()
        .zip(&peer_canons)
        .map(|(s, c)| cpi_residuals(s, c))
        .collect();

    let n = (hi - lo) as usize;
    // The peers' canonical ids and residuals at one position, refilled per t.
    let mut ids: Vec<u32> = Vec::with_capacity(peers.len());
    let mut res: Vec<f64> = Vec::with_capacity(peers.len());
    let divergent: Vec<bool> = (0..n)
        .map(|t| {
            // Majority phase mode at t (tie → smallest canonical id).
            ids.clear();
            ids.extend(peer_canons.iter().map(|c| c[t]));
            ids.sort_unstable();
            let mut mode = ids[0];
            let mut mode_count = 0usize;
            let mut k = 0usize;
            while k < ids.len() {
                let run = ids[k..].iter().take_while(|&&x| x == ids[k]).count();
                if run > mode_count {
                    mode_count = run;
                    mode = ids[k];
                }
                k += run;
            }
            if own_canon[t] != mode {
                return true;
            }
            res.clear();
            res.extend(peer_res.iter().map(|r| r[t]));
            let med = median(&mut res);
            (own_res[t] - med).abs() > cfg.cpi_flag_rel * med.max(1e-9)
        })
        .collect();

    // Longest divergent run, tolerating clean gaps up to `gap_tolerance`
    // between divergent intervals (never at the ends). Earliest run wins
    // ties.
    let mut best: Option<(usize, usize)> = None; // (start, end) inclusive
    let mut t = 0usize;
    while t < n {
        if !divergent[t] {
            t += 1;
            continue;
        }
        let start = t;
        let mut end = t;
        // Extend to the next divergent index while at most `gap_tolerance`
        // clean intervals separate it from the current run end.
        while let Some(u) =
            (end + 1..(end + cfg.gap_tolerance + 2).min(n)).find(|&u| divergent[u])
        {
            end = u;
        }
        if best.is_none_or(|(s, e)| end - start > e - s) {
            best = Some((start, end));
        }
        t = end + 1;
    }
    best.map(|(s, e)| (lo + s as u64, lo + e as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_phase::ClassifiedInterval;

    fn ci(proc: usize, index: u64, phase_id: u32, cpi: f64) -> ClassifiedInterval {
        ClassifiedInterval { proc, index, phase_id, is_new_phase: false, cpi, degraded: false }
    }

    // One recurring phase throughout: the phase-conditioned CPI residual
    // then contrasts each interval against the node's whole-stream median.
    fn stream(node: usize, cpis: &[f64]) -> PhaseStream {
        PhaseStream::from_intervals(
            node,
            cpis.iter().enumerate().map(|(i, &c)| ci(node, i as u64, 0, c)).collect(),
        )
    }

    #[test]
    fn clustering_separates_an_outlier_and_is_deterministic() {
        // Nodes 0..3 close, node 4 far from everyone.
        let mut dist = vec![vec![0.0; 5]; 5];
        for (i, row) in dist.iter_mut().enumerate() {
            for (j, d) in row.iter_mut().enumerate() {
                if i != j {
                    *d = if i == 4 || j == 4 { 0.8 } else { 0.02 };
                }
            }
        }
        let c = cluster(&dist, 0.2);
        assert_eq!(c, vec![vec![0, 1, 2, 3], vec![4]]);
        assert_eq!(majority_index(&c), 0);
        let scores = outlier_scores(&dist);
        assert!(scores[4] > scores[0]);
        assert_eq!(cluster(&dist, 0.2), c, "re-run must agree");
    }

    #[test]
    fn tie_breaks_favor_smallest_node_ids() {
        // Two equidistant pairs: (0,1) and (2,3) at the same linkage.
        let mut dist = vec![vec![0.5; 4]; 4];
        for (i, row) in dist.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        dist[0][1] = 0.1;
        dist[1][0] = 0.1;
        dist[2][3] = 0.1;
        dist[3][2] = 0.1;
        let c = cluster(&dist, 0.1);
        assert_eq!(c, vec![vec![0, 1], vec![2, 3]]);
        // Equal sizes: majority is the cluster with the smallest node id.
        assert_eq!(majority_index(&c), 0);
    }

    #[test]
    fn flagged_range_finds_the_slow_epoch() {
        let cfg = DiagnoseConfig::default();
        // Nodes 0..2 steady at CPI 1.0; node 3 doubles over intervals 4..=7.
        let base = vec![1.0; 12];
        let mut slow = base.clone();
        for c in slow.iter_mut().take(8).skip(4) {
            *c = 2.2;
        }
        let streams = vec![stream(0, &base), stream(1, &base), stream(2, &base), stream(3, &slow)];
        let r = flagged_range(&cfg, &streams, 3, &[0, 1, 2]);
        assert_eq!(r, Some((4, 7)));
        assert_eq!(flagged_range(&cfg, &streams, 0, &[1, 2]), None, "clean node unflagged");
    }

    #[test]
    fn flagged_range_tolerates_interior_gaps() {
        let cfg = DiagnoseConfig::default();
        let base = vec![1.0; 12];
        let mut slow = base.clone();
        // Divergent at 2..=3 and 6..=8 with a 2-interval clean gap — within
        // the default tolerance, so one run; intervals 4..5 clean. The
        // divergent set stays a minority so the node's own median (its
        // normalization scale) remains the clean baseline.
        for i in [2, 3, 6, 7, 8] {
            slow[i] = 2.5;
        }
        let streams = vec![stream(0, &base), stream(1, &base), stream(2, &slow)];
        assert_eq!(flagged_range(&cfg, &streams, 2, &[0, 1]), Some((2, 8)));
    }
}
