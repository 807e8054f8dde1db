//! Threshold sweeps: turn one captured trace into a CoV curve per detector.
//!
//! Per the paper's methodology (§III-A): "We examine two hundred threshold
//! values. We compute identifier CoV curves for each processor, and then
//! average them together to obtain the overall system-wide CoV curve."
//! For BBV+DDV the sweep is a 2-D grid over (BBV, DDS) thresholds and the
//! reported curve is the set of all grid points (its lower envelope is
//! taken at plot time).
//!
//! Every curve replays each processor once for the whole grid
//! ([`TraceClassifier::sweep_proc`]): one table per *class* of grid points
//! rather than per point, and one gate per record shared by every class
//! (each live entry's DDS difference and distance computed once, gated
//! once per DDS column). The detectors differ only in the signature each
//! record contributes and its distance: the BBV (BBV, BBV+DDV, DDS
//! ablations), the BBV ‖ weighted `F·D` vector (vector-DDV), the
//! working-set signature words, or the branch count.
//! A class is a run of ascending thresholds within one DDS column
//! whose tables have made identical decisions; it splits in two when a
//! record's nearest distance falls inside its threshold range, and classes
//! never merge. Each class's id stream gets its CoV once, shared by all of
//! its points. Both gates reject NaN, which the class argument needs: a
//! NaN distance never matches, so the decision depends on the threshold
//! only through `threshold > nearest distance`. The sweeps fan out over
//! processors with [`crate::parallel::par_map`], and every point is
//! averaged in processor order, so curves are byte-identical to a serial
//! run.

use dsm_analysis::cov::PhaseGroups;
use dsm_analysis::curve::{CovCurve, CurvePoint};
use dsm_phase::ddv::DdvState;
use dsm_phase::detector::{IntervalRecord, Sweep, TraceClassifier};
use dsm_phase::distance::{manhattan_rows, relative_diff, rowwise};
use dsm_phase::working_set::rel_distance;
use dsm_phase::DEFAULT_FOOTPRINT_VECTORS;

use crate::parallel::par_map;
use crate::trace::SystemTrace;

/// Number of BBV thresholds in the 1-D baseline sweep (paper: 200).
pub const BBV_SWEEP_POINTS: usize = 200;
/// BBV × DDS grid dimensions for the BBV+DDV sweep (also 200 points).
pub const DDV_GRID_BBV: usize = 20;
pub const DDV_GRID_DDS: usize = 10;

/// Log-spaced thresholds in `[lo, hi]`.
pub fn log_spaced(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo);
    let (l0, l1) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// `(identifier CoV, phase count)` of one processor's phase ids.
fn proc_stats(groups: &mut PhaseGroups, ids: &[u32], cpis: &[f64]) -> (f64, f64) {
    let (cov, phases) = groups.cov_and_count(ids.iter().copied().zip(cpis.iter().copied()));
    (cov, phases as f64)
}

/// One sweep point from the `(CoV, phase count)` of every non-empty
/// processor, in processor order: their means.
fn curve_point(stats: &[(f64, f64)], bbv_threshold: f64, dds_threshold: Option<f64>) -> CurvePoint {
    let n = stats.len().max(1) as f64;
    CurvePoint {
        phases: stats.iter().map(|s| s.1).sum::<f64>() / n,
        cov: stats.iter().map(|s| s.0).sum::<f64>() / n,
        bbv_threshold,
        dds_threshold,
    }
}

fn cpis(records: &[IntervalRecord]) -> Vec<f64> {
    records.iter().map(IntervalRecord::cpi).collect()
}

/// A curve over `grid`: `sweep(proc, records, grid)` replays each
/// non-empty processor through [`TraceClassifier::sweep_proc`], fanned out
/// over processors. Each class's CoV and phase count is computed once and
/// shared by every grid point in the class.
fn sweep_curve(
    trace: &SystemTrace,
    grid: &[(f64, Option<f64>)],
    sweep: impl Fn(usize, &[IntervalRecord], &[(f64, Option<f64>)]) -> Sweep + Sync,
) -> CovCurve {
    let procs: Vec<usize> = (0..trace.records.len())
        .filter(|&p| !trace.records[p].is_empty())
        .collect();
    let per_proc: Vec<Vec<(f64, f64)>> = par_map(procs, |proc| {
        let recs = &trace.records[proc];
        let cpis = cpis(recs);
        let mut groups = PhaseGroups::default();
        let sweep = sweep(proc, recs, grid);
        let class_stats: Vec<(f64, f64)> = sweep
            .classes
            .iter()
            .map(|ids| proc_stats(&mut groups, ids, &cpis))
            .collect();
        sweep.class_of.iter().map(|&c| class_stats[c]).collect()
    });
    let mut stats = Vec::with_capacity(per_proc.len());
    let points = grid
        .iter()
        .enumerate()
        .map(|(k, &(bbv_thr, dds_thr))| {
            stats.clear();
            stats.extend(per_proc.iter().map(|s| s[k]));
            curve_point(&stats, bbv_thr, dds_thr)
        })
        .collect();
    CovCurve::new(points)
}

/// A BBV or BBV+DDV curve over `grid`, with `dds[proc]` replacing the
/// records' own DDS when given. Each processor's normalized BBV rows are
/// built when its replay starts and dropped when it ends.
fn bbv_sweep_curve(
    trace: &SystemTrace,
    dds: Option<&[Vec<f64>]>,
    grid: &[(f64, Option<f64>)],
    capacity: usize,
) -> CovCurve {
    sweep_curve(trace, grid, |proc, recs, grid| {
        let rows = TraceClassifier::bbv_rows(recs);
        let stream = TraceClassifier::bbv_stream(recs, &rows, dds.map(|d| d[proc].as_slice()));
        TraceClassifier::sweep_proc(stream, manhattan_rows, grid, capacity)
    })
}

/// Baseline BBV sweep (Figure 2).
pub fn bbv_curve(trace: &SystemTrace) -> CovCurve {
    bbv_curve_with(trace, BBV_SWEEP_POINTS)
}

/// Baseline BBV sweep with an explicit point count.
pub fn bbv_curve_with(trace: &SystemTrace, n_points: usize) -> CovCurve {
    bbv_curve_cap(trace, n_points, DEFAULT_FOOTPRINT_VECTORS)
}

/// Baseline BBV sweep with explicit point count and footprint capacity.
pub fn bbv_curve_cap(trace: &SystemTrace, n_points: usize, capacity: usize) -> CovCurve {
    bbv_sweep_curve(trace, None, &line_grid(n_points, 1e-3, 2.0), capacity)
}

/// A grid of `n_points` log-spaced thresholds in `[lo, hi]` with no DDS
/// gate.
pub fn line_grid(n_points: usize, lo: f64, hi: f64) -> Vec<(f64, Option<f64>)> {
    log_spaced(n_points, lo, hi)
        .into_iter()
        .map(|thr| (thr, None))
        .collect()
}

/// BBV+DDV grid sweep (Figure 4).
pub fn bbv_ddv_curve(trace: &SystemTrace) -> CovCurve {
    bbv_ddv_curve_with(trace, DDV_GRID_BBV, DDV_GRID_DDS)
}

/// BBV+DDV sweep with explicit grid dimensions.
pub fn bbv_ddv_curve_with(trace: &SystemTrace, n_bbv: usize, n_dds: usize) -> CovCurve {
    bbv_ddv_curve_cap(trace, n_bbv, n_dds, DEFAULT_FOOTPRINT_VECTORS)
}

/// BBV+DDV sweep with explicit grid dimensions and footprint capacity.
pub fn bbv_ddv_curve_cap(
    trace: &SystemTrace,
    n_bbv: usize,
    n_dds: usize,
    capacity: usize,
) -> CovCurve {
    bbv_sweep_curve(trace, None, &threshold_grid(n_bbv, n_dds), capacity)
}

/// The BBV × DDS threshold grid, flattened in row-major (BBV-outer) order.
pub fn threshold_grid(n_bbv: usize, n_dds: usize) -> Vec<(f64, Option<f64>)> {
    let dds = log_spaced(n_dds, 5e-3, 1.0);
    log_spaced(n_bbv, 1e-3, 2.0)
        .into_iter()
        .flat_map(|b| dds.iter().map(move |&d| (b, Some(d))))
        .collect()
}

/// Which DDS ablation to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdsAblation {
    /// Full DDS (F·D·C) — the paper's design.
    Full,
    /// No contention term (C ≡ 1): DDS = Σ F·D.
    NoContention,
    /// No distance term (D ≡ 1): DDS = Σ F·C.
    NoDistance,
    /// Frequency only: DDS = Σ F.
    FrequencyOnly,
}

/// Recompute a record's DDS under an ablated formula. `ones_d` and
/// `ones_c` are all-ones distance and contention rows at least as long as
/// the record's frequency vector, built once per trace.
pub fn ablated_dds(
    rec: &IntervalRecord,
    dist_row: &[f64],
    ones_d: &[f64],
    ones_c: &[u32],
    which: DdsAblation,
) -> f64 {
    match which {
        DdsAblation::Full => DdvState::dds_of(rec.fvec(), dist_row, rec.cvec()),
        DdsAblation::NoContention => DdvState::dds_of(rec.fvec(), dist_row, ones_c),
        DdsAblation::NoDistance => DdvState::dds_of(rec.fvec(), ones_d, rec.cvec()),
        DdsAblation::FrequencyOnly => DdvState::dds_of(rec.fvec(), ones_d, ones_c),
    }
}

/// BBV+DDV sweep with an ablated DDS formula (experiments A1/A2 in
/// DESIGN.md).
pub fn ablation_curve(trace: &SystemTrace, which: DdsAblation) -> CovCurve {
    let n = trace.config.n_procs;
    let ddv = DdvState::for_hypercube(n);
    let (ones_d, ones_c) = (vec![1.0; n], vec![1; n]);
    let ablated: Vec<Vec<f64>> = trace
        .records
        .iter()
        .enumerate()
        .map(|(proc, recs)| {
            recs.iter()
                .map(|r| ablated_dds(r, ddv.dist_row(proc), &ones_d, &ones_c, which))
                .collect()
        })
        .collect();
    bbv_sweep_curve(
        trace,
        Some(&ablated),
        &threshold_grid(DDV_GRID_BBV, DDV_GRID_DDS),
        DEFAULT_FOOTPRINT_VECTORS,
    )
}

/// Vector-DDV extension sweep (X8 in DESIGN.md): classification on each
/// record's BBV ‖ distance-weighted frequency vector
/// ([`IntervalRecord::vector_ddv`]), swept over the combined Manhattan
/// threshold at a fixed data weight.
pub fn vector_ddv_curve(trace: &SystemTrace, data_weight: f64) -> CovCurve {
    let ddv = DdvState::for_hypercube(trace.config.n_procs);
    let grid = line_grid(BBV_SWEEP_POINTS, 1e-3, 2.0 * (1.0 + data_weight));
    sweep_curve(trace, &grid, |proc, recs, grid| {
        let vectors: Vec<Vec<f64>> = recs
            .iter()
            .map(|r| r.vector_ddv(ddv.dist_row(proc), data_weight))
            .collect();
        let stream = vectors.iter().map(|v| (v.as_slice(), 0.0));
        TraceClassifier::sweep_proc(stream, manhattan_rows, grid, DEFAULT_FOOTPRINT_VECTORS)
    })
}

/// Working-set-signature baseline sweep (Dhodapkar & Smith, experiment
/// A4): relative signature distance over each record's signature words.
pub fn working_set_curve(trace: &SystemTrace) -> CovCurve {
    let grid = line_grid(BBV_SWEEP_POINTS, 1e-3, 1.0);
    sweep_curve(trace, &grid, |_, recs, grid| {
        let stream = recs.iter().map(|r| (r.ws_sig(), 0.0));
        let distance = rowwise(rel_distance);
        TraceClassifier::sweep_proc(stream, distance, grid, DEFAULT_FOOTPRINT_VECTORS)
    })
}

/// Branch-count baseline sweep (Balasubramonian et al., experiment A4):
/// relative difference between records' committed branch counts.
pub fn branch_count_curve(trace: &SystemTrace) -> CovCurve {
    let grid = line_grid(BBV_SWEEP_POINTS, 1e-4, 1.0);
    sweep_curve(trace, &grid, |_, recs, grid| {
        let counts: Vec<f64> = recs.iter().map(|r| r.branches as f64).collect();
        let stream = counts.iter().map(|b| (b, 0.0));
        let distance = rowwise(|a: &f64, b: &f64| relative_diff(*a, *b));
        TraceClassifier::sweep_proc(stream, distance, grid, DEFAULT_FOOTPRINT_VECTORS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::trace::capture;
    use dsm_phase::footprint::FootprintTable;
    use dsm_workloads::App;

    #[test]
    fn log_spacing_properties() {
        let v = log_spaced(10, 1e-3, 2.0);
        assert_eq!(v.len(), 10);
        assert!((v[0] - 1e-3).abs() < 1e-12);
        assert!((v[9] - 2.0).abs() < 1e-9);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn bbv_sweep_spans_single_to_many_phases() {
        let t = capture(ExperimentConfig::test(App::Lu, 2));
        let c = bbv_curve_with(&t, 40);
        assert_eq!(c.points.len(), 40);
        let min_p = c.points.iter().map(|p| p.phases).fold(f64::MAX, f64::min);
        let max_p = c.max_phases();
        assert!(min_p <= 1.5, "loosest threshold ~1 phase, got {min_p}");
        assert!(max_p >= 4.0, "tightest threshold many phases, got {max_p}");
    }

    #[test]
    fn single_phase_end_has_same_cov_for_both_detectors() {
        // Paper: "When distance thresholds are high enough that the entire
        // program falls into a single phase, both detectors naturally
        // achieve the same CoV result."
        let t = capture(ExperimentConfig::test(App::Equake, 2));
        let bbv = bbv_curve_with(&t, 30);
        let ddv = bbv_ddv_curve_with(&t, 8, 4);
        let one = |c: &dsm_analysis::curve::CovCurve| {
            c.points
                .iter()
                .filter(|p| p.phases <= 1.01)
                .map(|p| p.cov)
                .next()
        };
        let (a, b) = (one(&bbv), one(&ddv));
        if let (Some(a), Some(b)) = (a, b) {
            assert!(
                (a - b).abs() < 1e-9,
                "single-phase CoV must agree: {a} vs {b}"
            );
        }
    }

    /// Footprint entries looked at over every processor of `trace`: by the
    /// class replay, and by replaying each grid point on its own.
    fn comparisons(trace: &SystemTrace, grid: &[(f64, Option<f64>)]) -> (u64, u64) {
        let (mut swept, mut per_point) = (0, 0);
        for recs in &trace.records {
            let cap = DEFAULT_FOOTPRINT_VECTORS;
            let rows = TraceClassifier::bbv_rows(recs);
            let stream = TraceClassifier::bbv_stream(recs, &rows, None);
            swept += TraceClassifier::sweep_proc(stream, manhattan_rows, grid, cap).comparisons;
            for &(bbv_thr, dds_thr) in grid {
                let mut table: FootprintTable = FootprintTable::new(cap);
                for r in recs {
                    table.classify(&r.normalized_bbv(), r.dds, bbv_thr, dds_thr);
                }
                per_point += table.comparisons();
            }
        }
        (swept, per_point)
    }

    #[test]
    fn class_replay_comparisons_are_below_per_point_replay() {
        // The sweep's exact counts are gated in the bench crate's counter
        // tests; replaying each point on its own looks at 274_099 (BBV)
        // and 387_046 (BBV+DDV) entries on FMM 8P.
        let t = capture(ExperimentConfig::test(App::Fmm, 8));
        let grids = [
            ("BBV", line_grid(BBV_SWEEP_POINTS, 1e-3, 2.0)),
            ("BBV+DDV", threshold_grid(DDV_GRID_BBV, DDV_GRID_DDS)),
        ];
        for (name, grid) in grids {
            let (swept, per_point) = comparisons(&t, &grid);
            assert!(
                swept < per_point,
                "{name}: {swept} not below per-point {per_point}"
            );
        }
    }

    #[test]
    fn ablated_dds_formulas() {
        use dsm_phase::detector::IntervalRecord;
        let rec = IntervalRecord::new(0, 0, 100, 100, [1], [2, 3], [10, 20], 0.0, &[0], 1);
        let dist = [1.0, 3.0];
        let ablated = |which| ablated_dds(&rec, &dist, &[1.0; 2], &[1; 2], which);
        assert_eq!(ablated(DdsAblation::Full), 2.0 * 10.0 + 3.0 * 3.0 * 20.0);
        assert_eq!(ablated(DdsAblation::NoContention), 2.0 + 9.0);
        assert_eq!(ablated(DdsAblation::NoDistance), 20.0 + 60.0);
        assert_eq!(ablated(DdsAblation::FrequencyOnly), 5.0);
    }

    #[test]
    fn baseline_sweeps_produce_points() {
        let t = capture(ExperimentConfig::test(App::Art, 2));
        let ws = working_set_curve(&t);
        let bc = branch_count_curve(&t);
        assert!(!ws.is_empty());
        assert!(!bc.is_empty());
    }
}
