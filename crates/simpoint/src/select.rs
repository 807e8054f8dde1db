//! Representative-interval selection (SimPoint-style).
//!
//! Each *global* sampling interval (one where every processor has completed
//! its interval of that index) gets a signature vector: the per-processor
//! mean of the normalized BBVs concatenated with the normalized system-wide
//! per-home access frequencies and communication counts — code behaviour
//! first, then the two data-distribution signals (`fvec`, `cvec`) the
//! paper's DDS metric is built from.
//! Signatures are clustered with deterministic k-means (k-means++ seeding
//! from a `splitmix64` stream, Manhattan distance, as in SimPoint); the best
//! `k` is picked by a BIC-style score, and each cluster contributes its
//! member closest to the centroid as the representative interval, weighted
//! by cluster size.
//!
//! Everything here is deterministic: same records + same seed → the same
//! selection, bit for bit.

use dsm_phase::detector::IntervalRecord;
use dsm_phase::distance::manhattan;
use dsm_sim::util::splitmix64;

/// One selected representative interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Simpoint {
    /// Global interval index this representative stands for.
    pub interval: usize,
    /// Fraction of all intervals its cluster covers (weights sum to 1).
    pub weight: f64,
    /// Number of intervals in its cluster.
    pub cluster_size: usize,
}

/// The outcome of clustering: chosen `k`, representatives, and per-interval
/// cluster assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    pub k: usize,
    /// Representatives sorted by interval index.
    pub simpoints: Vec<Simpoint>,
    /// Cluster id per global interval, aligned with the signature slice.
    pub assignments: Vec<usize>,
    /// BIC-style score of the chosen `k` (higher is better).
    pub score: f64,
    /// Total intervals clustered.
    pub n_intervals: usize,
}

impl Selection {
    /// Simulated-interval reduction factor: total intervals over selected.
    pub fn reduction(&self) -> f64 {
        if self.simpoints.is_empty() {
            1.0
        } else {
            self.n_intervals as f64 / self.simpoints.len() as f64
        }
    }
}

/// Build per-global-interval signatures from a profiling trace's records
/// (per processor, in interval order). Only intervals completed by *every*
/// processor are used, so the signature list length is the min record count.
///
/// Three distribution blocks, each normalized to unit mass so no block
/// dominates on raw volume: the per-processor mean of the normalized BBVs
/// (code behaviour), the system-wide per-home access frequencies (`fvec`,
/// data distribution), and the system-wide cross-processor communication
/// counts (`cvec`, the sharing/contention component of the paper's DDS
/// metric). Two *intensity* dimensions follow — memory references per
/// instruction and communication events per instruction, each scaled to
/// `[0, 1]` by its maximum over the trace. Unit-mass normalization
/// deliberately erases volume, but volume per instruction is exactly what
/// separates e.g. cold-start intervals (every access misses and travels)
/// from steady-state intervals running the same code — and those are the
/// CPI outliers a sampled run must put in their own cluster.
pub fn signatures(records: &[Vec<IntervalRecord>]) -> Vec<Vec<f64>> {
    let n_procs = records.len();
    assert!(n_procs > 0, "need at least one processor");
    let n_intervals = records.iter().map(|r| r.len()).min().unwrap_or(0);
    let bbv_dim = records
        .iter()
        .find_map(|r| r.first())
        .map_or(0, |r| r.bbv().len());
    let mut bbv = Vec::with_capacity(bbv_dim);
    let mut sigs: Vec<Vec<f64>> = (0..n_intervals)
        .map(|i| {
            let mut sig = vec![0.0; bbv_dim + 2 * n_procs + 2];
            let mut insns = 0u64;
            for recs in records {
                let r = &recs[i];
                insns += r.insns;
                r.normalized_bbv_into(&mut bbv);
                for (s, &v) in sig.iter_mut().zip(bbv.iter()) {
                    *s += v / n_procs as f64;
                }
                for (s, &f) in sig[bbv_dim..bbv_dim + n_procs].iter_mut().zip(r.fvec()) {
                    *s += f64::from(f);
                }
                for (s, &c) in
                    sig[bbv_dim + n_procs..bbv_dim + 2 * n_procs].iter_mut().zip(r.cvec())
                {
                    *s += f64::from(c);
                }
            }
            let f_mass: f64 = sig[bbv_dim..bbv_dim + n_procs].iter().sum();
            let c_mass: f64 = sig[bbv_dim + n_procs..bbv_dim + 2 * n_procs].iter().sum();
            for block in [bbv_dim..bbv_dim + n_procs, bbv_dim + n_procs..bbv_dim + 2 * n_procs] {
                let total: f64 = sig[block.clone()].iter().sum();
                if total > 0.0 {
                    for v in &mut sig[block] {
                        *v /= total;
                    }
                }
            }
            if insns > 0 {
                sig[bbv_dim + 2 * n_procs] = f_mass / insns as f64;
                sig[bbv_dim + 2 * n_procs + 1] = c_mass / insns as f64;
            }
            sig
        })
        .collect();
    // Scale each intensity dimension by its trace-wide maximum.
    for d in [bbv_dim + 2 * n_procs, bbv_dim + 2 * n_procs + 1] {
        let max = sigs.iter().map(|s| s[d]).fold(0.0f64, f64::max);
        if max > 0.0 {
            for s in &mut sigs {
                s[d] /= max;
            }
        }
    }
    sigs
}

/// A tiny deterministic RNG: counter-indexed splitmix64 draws.
struct Rng {
    seed: u64,
    ctr: u64,
}

impl Rng {
    fn next(&mut self) -> u64 {
        self.ctr += 1;
        splitmix64(self.seed ^ self.ctr.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
    /// Uniform f64 in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// k-means++ seeding: first centroid uniform, each next one drawn with
/// probability proportional to its distance to the nearest chosen centroid.
fn seed_centroids(sigs: &[Vec<f64>], k: usize, rng: &mut Rng) -> Vec<Vec<f64>> {
    let n = sigs.len();
    let mut centroids = Vec::with_capacity(k);
    centroids.push(sigs[(rng.next() % n as u64) as usize].clone());
    let mut dist: Vec<f64> = sigs.iter().map(|s| manhattan(s, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dist.iter().sum();
        let idx = if total <= 0.0 {
            // All points coincide with a centroid; any choice is equivalent.
            (rng.next() % n as u64) as usize
        } else {
            let mut target = rng.unit() * total;
            let mut chosen = n - 1;
            for (i, &d) in dist.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let c = sigs[idx].clone();
        for (d, s) in dist.iter_mut().zip(sigs) {
            *d = d.min(manhattan(s, &c));
        }
        centroids.push(c);
    }
    centroids
}

/// One full k-means run; returns (assignments, distortion).
fn kmeans(sigs: &[Vec<f64>], k: usize, rng: &mut Rng) -> (Vec<usize>, f64) {
    let n = sigs.len();
    let dim = sigs[0].len();
    let mut centroids = seed_centroids(sigs, k, rng);
    let mut assign = vec![0usize; n];
    for _round in 0..100 {
        let mut changed = false;
        for (i, s) in sigs.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let d = manhattan(s, cent);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        // Recompute centroids; an emptied cluster is reseeded to the point
        // farthest from its current assignment's centroid (deterministic:
        // ties break to the smaller interval index).
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (s, &a) in sigs.iter().zip(&assign) {
            counts[a] += 1;
            for (acc, &v) in sums[a].iter_mut().zip(s) {
                *acc += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                let far = (0..n)
                    .max_by(|&i, &j| {
                        let di = manhattan(&sigs[i], &centroids[assign[i]]);
                        let dj = manhattan(&sigs[j], &centroids[assign[j]]);
                        di.partial_cmp(&dj).unwrap().then(j.cmp(&i))
                    })
                    .unwrap();
                centroids[c] = sigs[far].clone();
                changed = true;
            } else {
                for (dst, &s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *dst = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let distortion = sigs
        .iter()
        .zip(&assign)
        .map(|(s, &a)| manhattan(s, &centroids[a]))
        .sum();
    (assign, distortion)
}

/// BIC-style model score: data likelihood proxy minus a complexity penalty.
/// Higher is better; ties during the sweep resolve to the smaller `k`.
fn score(n: usize, k: usize, distortion: f64) -> f64 {
    let n_f = n as f64;
    -n_f * ((distortion + 1e-9) / n_f).ln() - 0.5 * k as f64 * n_f.ln()
}

/// Cluster `sigs` for every `k` in `1..=max_k` and keep the clustering at
/// the score knee: the smallest `k` whose score reaches 90% of the sweep's
/// score range (the SimPoint selection rule — a plain argmax over-splits,
/// because halving the distortion always beats the complexity penalty).
/// Representatives are each cluster's member closest to its centroid (ties
/// to the smaller interval index).
pub fn select(sigs: &[Vec<f64>], max_k: usize, seed: u64) -> Selection {
    assert!(!sigs.is_empty(), "cannot select from an empty signature list");
    let n = sigs.len();
    let max_k = max_k.clamp(1, n);
    let runs: Vec<(Vec<usize>, f64)> = (1..=max_k)
        .map(|k| {
            let mut rng = Rng { seed: seed ^ (k as u64) << 32, ctr: 0 };
            let (assign, distortion) = kmeans(sigs, k, &mut rng);
            (assign, score(n, k, distortion))
        })
        .collect();
    let hi = runs.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
    let lo = runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let threshold = lo + 0.9 * (hi - lo);
    let pick = runs.iter().position(|r| r.1 >= threshold).unwrap();
    let (assignments, sc) = runs.into_iter().nth(pick).unwrap();
    let k = pick + 1;
    // Per-cluster centroid (means over members), then nearest member.
    let dim = sigs[0].len();
    let mut sums = vec![vec![0.0; dim]; k];
    let mut counts = vec![0usize; k];
    for (s, &a) in sigs.iter().zip(&assignments) {
        counts[a] += 1;
        for (acc, &v) in sums[a].iter_mut().zip(s) {
            *acc += v;
        }
    }
    let mut simpoints = Vec::new();
    for c in 0..k {
        if counts[c] == 0 {
            continue;
        }
        let centroid: Vec<f64> = sums[c].iter().map(|&s| s / counts[c] as f64).collect();
        let rep = (0..n)
            .filter(|&i| assignments[i] == c)
            .min_by(|&i, &j| {
                manhattan(&sigs[i], &centroid)
                    .partial_cmp(&manhattan(&sigs[j], &centroid))
                    .unwrap()
                    .then(i.cmp(&j))
            })
            .unwrap();
        simpoints.push(Simpoint {
            interval: rep,
            weight: counts[c] as f64 / n as f64,
            cluster_size: counts[c],
        });
    }
    simpoints.sort_by_key(|s| s.interval);
    Selection { k, simpoints, assignments, score: sc, n_intervals: n }
}

/// One interval chosen for replay, with its weight *within its cluster*
/// (each cluster's weights sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleUnit {
    pub interval: usize,
    pub weight: f64,
}

/// Stratified sampling on top of a [`Selection`]: spread a total replay
/// `budget` across clusters by Neyman allocation — proportional to
/// `cluster_size x std-dev of aux over the cluster` — where `aux` is a
/// per-interval auxiliary statistic from the profiling pass (the harness
/// passes profiled per-interval CPI). Every cluster gets at least one
/// member; homogeneous clusters (zero spread) need no more than that, so
/// the budget concentrates where the signature could not separate
/// behaviour. Within a cluster, members are sorted by `aux` and split into
/// as many contiguous groups as the cluster's allocation by exact 1-D
/// optimal stratification (Fisher's dynamic program minimising within-group
/// aux variance); each group contributes its median member, weighted by the
/// group's exact share of the cluster.
///
/// The auxiliary statistic only shapes the strata; estimates are computed
/// exclusively from the replayed measurements of the chosen intervals. This
/// is what protects the reconstruction against heavy-tailed behaviour the
/// signature cannot see: a cold-start interval whose CPI is 20x the steady
/// state inflates its cluster's spread, the cluster is sampled densely, and
/// the outlier ends up alone in its group — always replayed, with its true
/// 1/len weight.
///
/// Returns one list per entry of `sel.simpoints` (same order); lists are
/// disjoint across clusters, each list's weights sum to 1, and the total
/// sample count never exceeds `max(budget, k)`. Entirely deterministic.
pub fn stratified_members(sel: &Selection, budget: usize, aux: &[f64]) -> Vec<Vec<SampleUnit>> {
    let k = sel.simpoints.len();
    assert!(k > 0, "selection has no clusters");
    let n = sel.n_intervals;
    assert_eq!(aux.len(), n, "need one auxiliary value per interval");
    let budget = budget.clamp(k, n.max(k));

    // Cluster membership, aux-sorted (ties resolve to the smaller interval).
    let member_lists: Vec<Vec<usize>> = sel
        .simpoints
        .iter()
        .map(|sp| {
            let c = sel.assignments[sp.interval];
            let mut members: Vec<usize> = (0..n).filter(|&i| sel.assignments[i] == c).collect();
            members.sort_by(|&a, &b| {
                aux[a].partial_cmp(&aux[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            members
        })
        .collect();

    // Neyman scores N_c * sigma_c; fall back to plain proportional (N_c)
    // when aux carries no spread anywhere.
    let scores: Vec<f64> = member_lists
        .iter()
        .map(|members| {
            let len = members.len() as f64;
            let mean = members.iter().map(|&i| aux[i]).sum::<f64>() / len;
            let var = members.iter().map(|&i| (aux[i] - mean).powi(2)).sum::<f64>() / len;
            len * var.sqrt()
        })
        .collect();
    let total: f64 = scores.iter().sum();
    let scores: Vec<f64> = if total > 0.0 {
        scores
    } else {
        member_lists.iter().map(|m| m.len() as f64).collect()
    };
    let total: f64 = scores.iter().sum();

    let mut alloc: Vec<usize> = member_lists
        .iter()
        .zip(&scores)
        .map(|(m, s)| ((budget as f64 * s / total) as usize).clamp(1, m.len()))
        .collect();
    while alloc.iter().sum::<usize>() > budget {
        // Trim the largest allocation (ties resolve to the smaller cluster
        // position) until the budget holds.
        let i = (0..k).max_by(|&a, &b| alloc[a].cmp(&alloc[b]).then(b.cmp(&a))).unwrap();
        if alloc[i] <= 1 {
            break;
        }
        alloc[i] -= 1;
    }
    // Spend any flooring slack where the marginal benefit (score per sample
    // already allocated) is greatest.
    while alloc.iter().sum::<usize>() < budget {
        let grow = (0..k)
            .filter(|&i| alloc[i] < member_lists[i].len())
            .max_by(|&a, &b| {
                let ma = scores[a] / alloc[a] as f64;
                let mb = scores[b] / alloc[b] as f64;
                ma.partial_cmp(&mb).unwrap_or(std::cmp::Ordering::Equal).then(b.cmp(&a))
            });
        match grow {
            Some(i) => alloc[i] += 1,
            None => break,
        }
    }

    member_lists
        .iter()
        .zip(&alloc)
        .map(|(members, &m)| {
            let len = members.len();
            let vals: Vec<f64> = members.iter().map(|&i| aux[i]).collect();
            let breaks = optimal_breaks(&vals, m);
            breaks
                .windows(2)
                .map(|w| {
                    let (lo, hi) = (w[0], w[1]);
                    SampleUnit {
                        interval: members[(lo + hi) / 2],
                        weight: (hi - lo) as f64 / len as f64,
                    }
                })
                .collect()
        })
        .collect()
}

/// Exact 1-D optimal stratification: split the sorted values into `m`
/// contiguous groups minimising the total within-group sum of squared
/// deviations (Fisher's dynamic program). Returns the `m + 1` group
/// boundaries, starting at 0 and ending at `vals.len()`. Ties resolve to
/// the earliest break, so the result is deterministic.
fn optimal_breaks(vals: &[f64], m: usize) -> Vec<usize> {
    let len = vals.len();
    debug_assert!(m >= 1 && m <= len);
    // Prefix sums make any group's SSE O(1).
    let mut sum = vec![0.0; len + 1];
    let mut sq = vec![0.0; len + 1];
    for (i, &v) in vals.iter().enumerate() {
        sum[i + 1] = sum[i] + v;
        sq[i + 1] = sq[i] + v * v;
    }
    let sse = |lo: usize, hi: usize| -> f64 {
        let n = (hi - lo) as f64;
        let s = sum[hi] - sum[lo];
        ((sq[hi] - sq[lo]) - s * s / n).max(0.0)
    };
    // cost[j] = best total SSE partitioning vals[..j] into the current
    // number of groups; from[g][j] = where that last group starts.
    let mut cost: Vec<f64> = (0..=len).map(|j| if j == 0 { 0.0 } else { sse(0, j) }).collect();
    let mut from = vec![vec![0usize; len + 1]; m];
    for (g, from_g) in from.iter_mut().enumerate().skip(1) {
        let mut next = vec![f64::INFINITY; len + 1];
        for j in (g + 1)..=len {
            for (i, &cost_i) in cost.iter().enumerate().take(j).skip(g) {
                let c = cost_i + sse(i, j);
                if c < next[j] {
                    next[j] = c;
                    from_g[j] = i;
                }
            }
        }
        cost = next;
    }
    let mut breaks = vec![len];
    let mut j = len;
    for g in (1..m).rev() {
        j = from[g][j];
        breaks.push(j);
    }
    breaks.push(0);
    breaks.reverse();
    breaks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(proc: usize, index: u64, bbv: Vec<u32>, fvec: Vec<u32>) -> IntervalRecord {
        IntervalRecord::new(proc, index, 100, 200, bbv, fvec, [], 0.0, &[], 1)
    }

    #[test]
    fn signatures_concatenate_code_and_data_blocks() {
        let records = vec![
            vec![rec(0, 0, vec![5, 0], vec![3, 1])],
            vec![rec(1, 0, vec![0, 5], vec![1, 3])],
        ];
        let sigs = signatures(&records);
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].len(), 8);
        assert_eq!(&sigs[0][..2], &[0.5, 0.5]);
        // fvec sums: home0 = 4, home1 = 4 → normalized 0.5 each.
        assert_eq!(&sigs[0][2..4], &[0.5, 0.5]);
        // cvec is empty in these records → the block stays zero.
        assert_eq!(&sigs[0][4..6], &[0.0, 0.0]);
        // Intensity dims: fvec mass is nonzero (scaled to the trace max of
        // itself → 1.0); cvec mass is zero.
        assert_eq!(&sigs[0][6..], &[1.0, 0.0]);
    }

    #[test]
    fn signatures_intensity_dims_separate_volume_outliers() {
        // Same code/data *distribution* every interval, but interval 0 has
        // 10x the per-instruction traffic (cold start): only the intensity
        // dimension can tell them apart.
        let records = vec![(0..6)
            .map(|i| {
                let vol = if i == 0 { 100 } else { 10 };
                rec(0, i, vec![1], vec![vol, vol])
            })
            .collect::<Vec<_>>()];
        let sigs = signatures(&records);
        let d = sigs[0].len() - 2;
        assert_eq!(sigs[0][d], 1.0);
        assert!((sigs[1][d] - 0.1).abs() < 1e-12);
        // And clustering on them isolates the outlier.
        let sel = select(&sigs, 3, 5);
        assert!(sel.k >= 2);
        let outlier_cluster = sel.assignments[0];
        assert_eq!(sel.assignments.iter().filter(|&&a| a == outlier_cluster).count(), 1);
    }

    #[test]
    fn signatures_use_min_interval_count() {
        let records = vec![
            vec![
                rec(0, 0, vec![1], vec![1]),
                rec(0, 1, vec![1], vec![1]),
            ],
            vec![rec(1, 0, vec![1], vec![1])],
        ];
        assert_eq!(signatures(&records).len(), 1);
    }

    fn two_cluster_sigs() -> Vec<Vec<f64>> {
        // 12 intervals: 8 near (1, 0), 4 near (0, 1), with a smooth tiny
        // within-cluster spread (no separable sub-clusters).
        let mut sigs = Vec::new();
        for i in 0..12 {
            let jitter = 0.001 * i as f64;
            if i % 3 == 2 {
                sigs.push(vec![jitter, 1.0]);
            } else {
                sigs.push(vec![1.0, jitter]);
            }
        }
        sigs
    }

    #[test]
    fn select_finds_two_well_separated_clusters() {
        let sigs = two_cluster_sigs();
        let sel = select(&sigs, 4, 42);
        assert_eq!(sel.k, 2, "two clear clusters must select k = 2");
        assert_eq!(sel.simpoints.len(), 2);
        let w: f64 = sel.simpoints.iter().map(|s| s.weight).sum();
        assert!((w - 1.0).abs() < 1e-12, "weights must sum to 1");
        // The big cluster has 8 of 12 members.
        let big = sel.simpoints.iter().map(|s| s.cluster_size).max().unwrap();
        assert_eq!(big, 8);
        // Members with the same shape are assigned together.
        assert_eq!(sel.assignments[2], sel.assignments[5]);
        assert_ne!(sel.assignments[0], sel.assignments[2]);
    }

    #[test]
    fn select_is_deterministic() {
        let sigs = two_cluster_sigs();
        let a = select(&sigs, 4, 7);
        let b = select(&sigs, 4, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn identical_intervals_collapse_to_one_cluster() {
        let sigs = vec![vec![0.5, 0.5]; 10];
        let sel = select(&sigs, 5, 1);
        assert_eq!(sel.k, 1);
        assert_eq!(sel.simpoints.len(), 1);
        assert_eq!(sel.simpoints[0].cluster_size, 10);
        assert!((sel.reduction() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn max_k_is_clamped_to_population() {
        let sigs = vec![vec![0.0], vec![1.0]];
        let sel = select(&sigs, 8, 3);
        assert!(sel.k <= 2);
    }

    #[test]
    fn stratified_members_respect_budget_and_cover_clusters() {
        let sigs = two_cluster_sigs();
        let sel = select(&sigs, 4, 42);
        assert_eq!(sel.k, 2);
        let aux: Vec<f64> = (0..sigs.len()).map(|i| i as f64).collect();
        let samples = stratified_members(&sel, 6, &aux);
        assert_eq!(samples.len(), 2);
        let total: usize = samples.iter().map(|s| s.len()).sum();
        assert!(total <= 6, "budget exceeded: {total}");
        // Proportional allocation: the 8-member cluster gets more samples.
        let (big, small) = if sel.simpoints[0].cluster_size == 8 { (0, 1) } else { (1, 0) };
        assert!(samples[big].len() >= samples[small].len());
        // Every sampled interval belongs to its cluster, per-cluster weights
        // sum to 1, and the lists are disjoint.
        let mut seen = std::collections::HashSet::new();
        for (sp, s) in sel.simpoints.iter().zip(&samples) {
            assert!(!s.is_empty());
            let w: f64 = s.iter().map(|u| u.weight).sum();
            assert!((w - 1.0).abs() < 1e-12, "cluster weights sum to {w}");
            for u in s {
                assert_eq!(sel.assignments[u.interval], sel.assignments[sp.interval]);
                assert!(seen.insert(u.interval), "interval {} sampled twice", u.interval);
            }
        }
    }

    #[test]
    fn stratified_members_isolate_aux_outliers() {
        // One cluster of 10 identical signatures; aux marks member 7 as a
        // 100x outlier. With enough allocation, the outlier lands alone in
        // the top aux group and must be sampled with its exact 1/10 weight.
        let sigs = vec![vec![1.0, 0.0]; 10];
        let mut aux = vec![1.0; 10];
        aux[7] = 100.0;
        let sel = select(&sigs, 3, 9);
        assert_eq!(sel.k, 1);
        let samples = stratified_members(&sel, 10, &aux);
        let units = &samples[0];
        let outlier = units.iter().find(|u| u.interval == 7).expect("outlier sampled");
        assert!((outlier.weight - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stratified_members_are_deterministic_and_floor_at_one() {
        let sigs = two_cluster_sigs();
        let sel = select(&sigs, 4, 7);
        let aux = vec![1.0; sigs.len()];
        let a = stratified_members(&sel, 2, &aux);
        assert_eq!(a, stratified_members(&sel, 2, &aux));
        // Budget below k still yields one member per cluster, carrying the
        // whole cluster's weight.
        for s in &a {
            assert_eq!(s.len(), 1);
            assert!((s[0].weight - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn manhattan_basics() {
        assert_eq!(manhattan(&[0.0, 0.0], &[1.0, 1.0]), 2.0);
        assert_eq!(manhattan(&[0.5], &[0.5]), 0.0);
    }
}
