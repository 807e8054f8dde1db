//! The phase-sequence distance kernel.
//!
//! In an SPMD run every node should traverse the same phase sequence at
//! roughly the same time, so cross-node *disagreement* between classified
//! streams is the diagnostic signal. Phase ids are assigned per node in
//! first-appearance order by the footprint table, so two nodes' raw ids are
//! not comparable; [`canonical_phases`] renumbers each stream by first
//! appearance, after which "same phase structure" means "same canonical
//! sequence".
//!
//! The pairwise distance combines three bounded terms, each in `[0, 1]`:
//!
//! * **phase** — time-aligned canonical-id disagreement, degraded intervals
//!   down-weighted (their classification fell back to BBV-only and is less
//!   trustworthy);
//! * **cpi** — symmetric relative divergence of *phase-normalized* CPI:
//!   each side's per-interval CPI is divided by the median CPI of the
//!   same canonical phase on the same node (within the aligned slice)
//!   before comparison. This leans on the paper's core premise — a phase
//!   id names homogeneous behaviour, so on a healthy node every instance
//!   of a phase runs at about the same CPI and the residual is ≈1
//!   everywhere. A slowed node keeps its phase ids (intervals are
//!   instruction-counted, so the BBV/DDV signature is unchanged) but its
//!   in-epoch instances run slower than its out-of-epoch instances of the
//!   *same* phase — the residual rises exactly where the fault is.
//!   Normalizing per phase rather than per stream matters on real
//!   captures: nodes legitimately run different phase schedules at very
//!   different absolute CPI (boundary processors, asymmetric work
//!   partitions), and raw or stream-level comparison flags that
//!   structural spread instead of the temporal anomaly. The flip side is
//!   deliberate: a slowdown covering *every* instance of a phase
//!   normalizes itself away — with no fast instance to contrast against,
//!   phase-conditioned evidence does not exist;
//! * **lag** — an edit-style alignment term: the best shift `s*` within
//!   `±max_lag` that minimizes canonical disagreement, scored as half the
//!   normalized shift magnitude plus half the residual disagreement. A node
//!   running the right phases *late* is penalized in proportion to how late.

use std::cell::OnceCell;

use dsm_phase::stream::{PhaseStream, StreamEntry};

use crate::DiagnoseConfig;

/// Renumber a stream's phase ids in first-appearance order, making
/// sequences comparable across nodes.
pub fn canonical_phases(intervals: &[StreamEntry]) -> Vec<u32> {
    let mut map: Vec<u32> = Vec::new();
    intervals
        .iter()
        .map(|c| match map.iter().position(|&p| p == c.phase_id) {
            Some(i) => i as u32,
            None => {
                map.push(c.phase_id);
                (map.len() - 1) as u32
            }
        })
        .collect()
}

/// One pairwise distance, with its terms exposed for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairDistance {
    /// Weighted combination of the three terms, in `[0, 1]`.
    pub total: f64,
    /// Time-aligned phase disagreement.
    pub phase: f64,
    /// Symmetric relative CPI divergence.
    pub cpi: f64,
    /// Lag term (shift magnitude + residual disagreement).
    pub lag: f64,
    /// The best alignment shift found (positive: `b` runs behind `a`).
    pub shift: i64,
}

impl PairDistance {
    fn zero() -> Self {
        Self { total: 0.0, phase: 0.0, cpi: 0.0, lag: 0.0, shift: 0 }
    }

    fn max(cfg: &DiagnoseConfig) -> Self {
        let mut d = Self { total: 0.0, phase: 1.0, cpi: 1.0, lag: 1.0, shift: 0 };
        d.total = cfg.combine(1.0, 1.0, 1.0);
        d
    }
}

impl DiagnoseConfig {
    /// Fold the three term scores into the total under the configured
    /// weights.
    pub(crate) fn combine(&self, phase: f64, cpi: f64, lag: f64) -> f64 {
        let w = self.phase_weight + self.cpi_weight + self.lag_weight;
        if w == 0.0 {
            return 0.0;
        }
        (self.phase_weight * phase + self.cpi_weight * cpi + self.lag_weight * lag) / w
    }
}

#[inline]
fn interval_weight(cfg: &DiagnoseConfig, c: &StreamEntry) -> f64 {
    if c.degraded {
        cfg.degraded_weight
    } else {
        1.0
    }
}

/// Median of `values` (0 when empty), sorting them in place.
/// Deterministic: ties and even lengths resolve by value, not input order.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Per-interval phase-normalized CPI residuals: each interval's CPI divided
/// by the median CPI of its canonical phase within this slice. On a healthy
/// node the residual is ≈1 everywhere (a phase id names homogeneous
/// behaviour); a slowdown epoch pushes in-epoch instances above their
/// phase's median.
pub(crate) fn cpi_residuals(intervals: &[StreamEntry], canon: &[u32]) -> Vec<f64> {
    let n_phases = canon.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut by_phase: Vec<Vec<f64>> = vec![Vec::new(); n_phases];
    for (c, &p) in intervals.iter().zip(canon) {
        by_phase[p as usize].push(c.cpi);
    }
    // A phase seen once has no self-contrast: its lone CPI is its own
    // scale, so its residual is exactly 1 — singleton phases are quiet
    // rather than noisy. (Falling back to a stream-wide scale instead
    // re-imports exactly the structural level spread this normalization
    // exists to remove.)
    let scales: Vec<f64> = by_phase.into_iter().map(|mut v| median(&mut v).max(1e-9)).collect();
    intervals.iter().zip(canon).map(|(c, &p)| c.cpi / scales[p as usize]).collect()
}

/// Unweighted canonical disagreement of `a` shifted onto `b` by `shift`
/// (compare `a[i]` with `b[i + shift]` over the overlap). Returns 1.0 when
/// the shift leaves no overlap.
fn shifted_mismatch(ca: &[u32], cb: &[u32], shift: i64) -> f64 {
    let (a_start, b_start) = if shift >= 0 { (0usize, shift as usize) } else { ((-shift) as usize, 0usize) };
    let n = (ca.len().saturating_sub(a_start)).min(cb.len().saturating_sub(b_start));
    if n == 0 {
        return 1.0;
    }
    let mismatches = (0..n).filter(|&i| ca[a_start + i] != cb[b_start + i]).count();
    mismatches as f64 / n as f64
}

/// Distance between two interval slices assumed aligned at position 0
/// (callers align by true interval index first — see [`pair_distance`]).
pub fn slice_distance(
    cfg: &DiagnoseConfig,
    a: &[StreamEntry],
    b: &[StreamEntry],
) -> PairDistance {
    if a.is_empty() && b.is_empty() {
        return PairDistance::zero();
    }
    if a.is_empty() || b.is_empty() {
        return PairDistance::max(cfg);
    }
    slice_distance_with(cfg, &Shape::of(a), &Shape::of(b))
}

/// A slice's canonical phase ids and CPI residuals: what the distance
/// reads of each side beyond the intervals themselves.
struct Shape<'a> {
    intervals: &'a [StreamEntry],
    canon: Vec<u32>,
    residuals: Vec<f64>,
}

impl<'a> Shape<'a> {
    fn of(intervals: &'a [StreamEntry]) -> Self {
        let canon = canonical_phases(intervals);
        let residuals = cpi_residuals(intervals, &canon);
        Self { intervals, canon, residuals }
    }
}

/// [`slice_distance`] of two non-empty slices, from their shapes.
fn slice_distance_with(cfg: &DiagnoseConfig, a: &Shape, b: &Shape) -> PairDistance {
    let (ca, cb) = (&a.canon, &b.canon);
    let (ra, rb) = (&a.residuals, &b.residuals);
    let (a, b) = (a.intervals, b.intervals);
    let n = a.len().min(b.len());

    // Time-aligned phase + CPI terms, degraded intervals down-weighted.
    // CPI is compared as phase-normalized residuals on each side.
    let mut wsum = 0.0;
    let mut phase_acc = 0.0;
    let mut cpi_acc = 0.0;
    for i in 0..n {
        let w = interval_weight(cfg, &a[i]) * interval_weight(cfg, &b[i]);
        wsum += w;
        if ca[i] != cb[i] {
            phase_acc += w;
        }
        let (x, y) = (ra[i], rb[i]);
        let denom = x + y;
        if denom > 0.0 {
            let raw = (x - y).abs() / denom;
            // Deadband: only divergence beyond the configured floor counts,
            // rescaled so the term stays in [0, 1].
            let db = cfg.cpi_deadband.clamp(0.0, 0.999);
            cpi_acc += w * ((raw - db).max(0.0) / (1.0 - db));
        }
    }
    let (phase, cpi) = if wsum > 0.0 { (phase_acc / wsum, cpi_acc / wsum) } else { (0.0, 0.0) };

    // Lag term: best shift in ±max_lag by (residual, |shift|, shift) —
    // the lexicographic tie-break keeps the choice deterministic.
    let (mut best_shift, mut best_res) = (0i64, shifted_mismatch(ca, cb, 0));
    for mag in 1..=cfg.max_lag as i64 {
        for s in [mag, -mag] {
            let res = shifted_mismatch(ca, cb, s);
            if res < best_res {
                best_res = res;
                best_shift = s;
            }
        }
    }
    let lag = if cfg.max_lag == 0 {
        best_res
    } else {
        0.5 * best_shift.unsigned_abs() as f64 / cfg.max_lag as f64 + 0.5 * best_res
    };

    PairDistance { total: cfg.combine(phase, cpi, lag), phase, cpi, lag, shift: best_shift }
}

/// The slice of `s` covering true interval indices `[lo, hi)` (clamped to
/// what the stream retains).
pub(crate) fn range_slice(s: &PhaseStream, lo: u64, hi: u64) -> &[StreamEntry] {
    let lo = lo.max(s.first_index()).min(s.next_index());
    let hi = hi.max(lo).min(s.next_index());
    &s.intervals()[(lo - s.first_index()) as usize..(hi - s.first_index()) as usize]
}

/// Distance between two streams, aligned on their common true-index range
/// (windowed streams compare only what both retain).
pub fn pair_distance(cfg: &DiagnoseConfig, a: &PhaseStream, b: &PhaseStream) -> PairDistance {
    let lo = a.first_index().max(b.first_index());
    let hi = a.next_index().min(b.next_index());
    if lo >= hi {
        return if a.is_empty() && b.is_empty() {
            PairDistance::zero()
        } else {
            PairDistance::max(cfg)
        };
    }
    slice_distance(cfg, range_slice(a, lo, hi), range_slice(b, lo, hi))
}

/// Full symmetric distance matrix over the fleet (diagonal zero). A pair
/// whose aligned range is both streams' whole retained window reuses each
/// stream's shape, computed at most once; any other pair (round-robin
/// delivery leaves nodes an interval apart) takes [`pair_distance`].
pub fn distance_matrix(cfg: &DiagnoseConfig, streams: &[PhaseStream]) -> Vec<Vec<f64>> {
    let n = streams.len();
    let shapes: Vec<OnceCell<Shape>> = streams.iter().map(|_| OnceCell::new()).collect();
    let shape = |k: usize| shapes[k].get_or_init(|| Shape::of(streams[k].intervals()));
    let window = |s: &PhaseStream| (s.first_index(), s.next_index());
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (&streams[i], &streams[j]);
            let d = if window(a) == window(b) && !a.is_empty() {
                slice_distance_with(cfg, shape(i), shape(j))
            } else {
                pair_distance(cfg, a, b)
            };
            m[i][j] = d.total;
            m[j][i] = d.total;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_phase::ClassifiedInterval;

    fn ci(proc: usize, index: u64, phase_id: u32, cpi: f64, degraded: bool) -> ClassifiedInterval {
        ClassifiedInterval { proc, index, phase_id, is_new_phase: false, cpi, degraded }
    }

    fn stream(node: usize, phases: &[u32], cpi: f64) -> PhaseStream {
        PhaseStream::from_intervals(
            node,
            phases
                .iter()
                .enumerate()
                .map(|(i, &p)| ci(node, i as u64, p, cpi, false))
                .collect(),
        )
    }

    #[test]
    fn canonicalization_makes_label_choice_irrelevant() {
        // Same structure, different raw label alphabets.
        let a = stream(0, &[3, 3, 9, 3, 7], 1.0);
        let b = stream(1, &[0, 0, 5, 0, 2], 1.0);
        let d = pair_distance(&DiagnoseConfig::default(), &a, &b);
        assert_eq!(d.total, 0.0, "{d:?}");
    }

    #[test]
    fn identical_streams_are_distance_zero_and_divergent_ones_are_not() {
        let cfg = DiagnoseConfig::default();
        let a = stream(0, &[0, 0, 1, 1, 2, 2], 1.0);
        let same = stream(1, &[5, 5, 6, 6, 7, 7], 1.0);
        let other = stream(2, &[0, 1, 0, 1, 0, 1], 1.0);
        assert_eq!(pair_distance(&cfg, &a, &same).total, 0.0);
        assert!(pair_distance(&cfg, &a, &other).total > 0.1);
    }

    #[test]
    fn cpi_divergence_alone_is_visible() {
        // Same phases, one node triples its CPI over a minority epoch: the
        // slowdown signature.
        let cfg = DiagnoseConfig::default();
        let phases = [0u32, 0, 1, 1, 0, 0];
        let a = stream(0, &phases, 1.0);
        let slow = PhaseStream::from_intervals(
            1,
            phases
                .iter()
                .enumerate()
                .map(|(i, &p)| ci(1, i as u64, p, if i >= 4 { 3.0 } else { 1.0 }, false))
                .collect(),
        );
        let d = pair_distance(&cfg, &a, &slow);
        assert_eq!(d.phase, 0.0);
        assert!(d.cpi > 0.1, "{d:?}");
    }

    #[test]
    fn uniform_cpi_level_differences_are_structure_not_anomaly() {
        // A node running the same phases at a flat 2x CPI normalizes to the
        // same shape: level differences across nodes are legitimate (work
        // partitions differ), only excursions count.
        let cfg = DiagnoseConfig::default();
        let a = stream(0, &[0, 0, 1, 1], 1.0);
        let flat_slow = stream(1, &[0, 0, 1, 1], 2.0);
        let d = pair_distance(&cfg, &a, &flat_slow);
        assert_eq!(d.total, 0.0, "{d:?}");
    }

    #[test]
    fn lag_is_scored_by_best_shift() {
        let cfg = DiagnoseConfig::default();
        let a = stream(0, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 1.0);
        // b runs the same distinct sequence two intervals late.
        let b = stream(1, &[0, 0, 0, 1, 2, 3, 4, 5, 6, 7], 1.0);
        let d = pair_distance(&cfg, &a, &b);
        assert_eq!(d.shift, 2, "{d:?}");
        let further = stream(2, &[0, 0, 0, 0, 0, 1, 2, 3, 4, 5], 1.0);
        let d4 = pair_distance(&cfg, &a, &further);
        assert_eq!(d4.shift, 4);
        assert!(d4.lag > d.lag, "wider lag must score higher");
    }

    #[test]
    fn degraded_intervals_are_down_weighted() {
        let cfg = DiagnoseConfig::default();
        let mk = |degraded: bool| {
            PhaseStream::from_intervals(
                0,
                (0..8u64)
                    .map(|i| ci(0, i, if i == 3 { 9 } else { 0 }, 1.0, degraded && i == 3))
                    .collect(),
            )
        };
        let clean_ref = stream(1, &[0, 0, 0, 0, 0, 0, 0, 0], 1.0);
        let d_clean = pair_distance(&cfg, &mk(false), &clean_ref).total;
        let d_degr = pair_distance(&cfg, &mk(true), &clean_ref).total;
        assert!(d_degr < d_clean, "degraded disagreement must count less: {d_degr} vs {d_clean}");
        assert!(d_degr > 0.0);
    }

    #[test]
    fn windowed_streams_compare_on_the_common_range() {
        let cfg = DiagnoseConfig::default();
        let mut a = stream(0, &[0, 1, 2, 3, 4, 5], 1.0);
        let b = stream(1, &[0, 1, 2, 3, 4, 5], 1.0);
        a.evict_to(3); // a retains [3, 6), b retains [0, 6)
        assert_eq!(pair_distance(&cfg, &a, &b).total, 0.0);
        // Disjoint ranges: maximal distance (nothing comparable).
        let mut c = stream(2, &[0, 1, 2, 3, 4, 5], 1.0);
        c.evict_to(6);
        assert_eq!(pair_distance(&cfg, &a, &c).total, cfg.combine(1.0, 1.0, 1.0));
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let cfg = DiagnoseConfig::default();
        let streams = vec![
            stream(0, &[0, 1, 2], 1.0),
            stream(1, &[0, 1, 1], 1.2),
            stream(2, &[2, 2, 2], 0.8),
        ];
        let m = distance_matrix(&cfg, &streams);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, m[j][i]);
            }
        }
        assert!(m[0][1] > 0.0);
    }

    #[test]
    fn matrix_matches_pairwise_distances_on_any_windows() {
        // Equal whole windows take the shared shapes; a node an interval
        // ahead, a trimmed node and an empty one take the per-pair path.
        let cfg = DiagnoseConfig::default();
        let slow = PhaseStream::from_intervals(
            3,
            [4, 4, 7, 4, 7, 7]
                .iter()
                .enumerate()
                .map(|(i, &p)| ci(3, i as u64, p, 1.0 + i as f64, i == 2))
                .collect(),
        );
        let mut trimmed = stream(5, &[0, 1, 0, 1, 0, 1], 1.0);
        trimmed.evict_to(2);
        let streams = vec![
            stream(0, &[0, 0, 1, 1, 2, 2], 1.0),
            stream(1, &[3, 3, 1, 1, 3, 3], 2.0),
            stream(2, &[0, 0, 1, 1, 2, 2, 0], 1.0),
            slow,
            stream(4, &[], 1.0),
            trimmed,
        ];
        let m = distance_matrix(&cfg, &streams);
        for (i, a) in streams.iter().enumerate() {
            for (j, b) in streams.iter().enumerate().skip(i + 1) {
                let d = pair_distance(&cfg, a, b).total;
                assert_eq!(m[i][j].to_bits(), d.to_bits(), "pair ({i}, {j})");
            }
        }
    }
}
