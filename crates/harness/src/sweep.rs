//! Threshold sweeps: turn one captured trace into a CoV curve per detector.
//!
//! Per the paper's methodology (§III-A): "We examine two hundred threshold
//! values. We compute identifier CoV curves for each processor, and then
//! average them together to obtain the overall system-wide CoV curve."
//! For BBV+DDV the sweep is a 2-D grid over (BBV, DDS) thresholds and the
//! reported curve is the set of all grid points (its lower envelope is
//! taken at plot time).
//!
//! The footprint-table sweeps (BBV, BBV+DDV, DDS ablations) replay each
//! processor once for the whole grid
//! ([`TraceClassifier::sweep_proc`]): one table per *class* of grid points
//! rather than per point, and one gate per record shared by every class
//! (each live entry's DDS difference and distance computed once, gated
//! once per DDS column).
//! A class is a run of ascending BBV thresholds within one DDS column
//! whose tables have made identical decisions; it splits in two when a
//! record's nearest distance falls inside its threshold range, and classes
//! never merge. Each class's id stream gets its CoV once, shared by all of
//! its points. Both gates reject NaN, which the class argument needs: a
//! NaN distance never matches, so the decision depends on the BBV threshold
//! only through `threshold > nearest distance`. The footprint sweeps fan
//! out over processors with [`crate::parallel::par_map`]; the other
//! baselines fan out over thresholds. Either way every point is averaged
//! in processor order, so curves are byte-identical to a serial run.

use dsm_analysis::cov::PhaseGroups;
use dsm_analysis::curve::{CovCurve, CurvePoint};
use dsm_phase::branch_count::BranchCountDetector;
use dsm_phase::ddv::DdvState;
use dsm_phase::detector::{IntervalRecord, TraceClassifier};
use dsm_phase::working_set::{WorkingSetDetector, WsSignature};
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

/// Classify every processor's records at one threshold (`classify` gets
/// the processor index and its records) and aggregate into one sweep point.
fn point_for<F>(trace: &SystemTrace, classify: F, bbv_thr: f64, dds_thr: Option<f64>) -> CurvePoint
where
    F: Fn(usize, &[IntervalRecord]) -> Vec<u32>,
{
    let mut groups = PhaseGroups::default();
    let stats: Vec<(f64, f64)> = trace
        .records
        .iter()
        .enumerate()
        .filter(|(_, recs)| !recs.is_empty())
        .map(|(proc, recs)| proc_stats(&mut groups, &classify(proc, recs), &cpis(recs)))
        .collect();
    curve_point(&stats, bbv_thr, dds_thr)
}

/// A footprint-table curve over `grid`: one class replay per non-empty
/// processor, fanned out over processors, with `dds[proc]` replacing the
/// records' own DDS when given. Each class's CoV and phase count is
/// computed once and shared by every grid point in the class.
fn sweep_curve(
    trace: &SystemTrace,
    dds: Option<&[Vec<f64>]>,
    grid: &[(f64, Option<f64>)],
    capacity: usize,
) -> CovCurve {
    let procs: Vec<usize> = (0..trace.records.len())
        .filter(|&p| !trace.records[p].is_empty())
        .collect();
    let per_proc: Vec<Vec<(f64, f64)>> = par_map(procs, |proc| {
        let recs = &trace.records[proc];
        let cpis = cpis(recs);
        let mut groups = PhaseGroups::default();
        let sweep =
            TraceClassifier::sweep_proc(recs, dds.map(|d| d[proc].as_slice()), grid, capacity);
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
    sweep_curve(trace, None, &bbv_grid(n_points), capacity)
}

/// The BBV-only threshold grid.
fn bbv_grid(n_points: usize) -> Vec<(f64, Option<f64>)> {
    log_spaced(n_points, 1e-3, 2.0)
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
    sweep_curve(trace, None, &threshold_grid(n_bbv, n_dds), capacity)
}

/// The BBV × DDS threshold grid, flattened in row-major (BBV-outer) order.
fn threshold_grid(n_bbv: usize, n_dds: usize) -> Vec<(f64, Option<f64>)> {
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
    ones_c: &[u64],
    which: DdsAblation,
) -> f64 {
    match which {
        DdsAblation::Full => DdvState::dds_of(&rec.fvec, dist_row, &rec.cvec),
        DdsAblation::NoContention => DdvState::dds_of(&rec.fvec, dist_row, ones_c),
        DdsAblation::NoDistance => DdvState::dds_of(&rec.fvec, ones_d, &rec.cvec),
        DdsAblation::FrequencyOnly => DdvState::dds_of(&rec.fvec, ones_d, ones_c),
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
    sweep_curve(
        trace,
        Some(&ablated),
        &threshold_grid(DDV_GRID_BBV, DDV_GRID_DDS),
        DEFAULT_FOOTPRINT_VECTORS,
    )
}

/// Vector-DDV extension sweep (X8 in DESIGN.md): classification on the
/// concatenated BBV ‖ distance-weighted frequency vector, swept over the
/// combined Manhattan threshold at a fixed data weight.
pub fn vector_ddv_curve(trace: &SystemTrace, data_weight: f64) -> CovCurve {
    let n = trace.config.n_procs;
    let ddv = DdvState::for_hypercube(n);
    let points = par_map(
        log_spaced(BBV_SWEEP_POINTS, 1e-3, 2.0 * (1.0 + data_weight)),
        |thr| {
            point_for(
                trace,
                |proc, recs| {
                    TraceClassifier::classify_proc_vector_ddv(
                        recs,
                        ddv.dist_row(proc),
                        thr,
                        data_weight,
                        DEFAULT_FOOTPRINT_VECTORS,
                    )
                },
                thr,
                None,
            )
        },
    );
    CovCurve::new(points)
}

/// Working-set-signature baseline sweep (Dhodapkar & Smith, experiment A4).
pub fn working_set_curve(trace: &SystemTrace) -> CovCurve {
    let points = par_map(log_spaced(BBV_SWEEP_POINTS, 1e-3, 1.0), |thr| {
        point_for(
            trace,
            |_, recs| {
                let mut det = WorkingSetDetector::new(DEFAULT_FOOTPRINT_VECTORS);
                recs.iter()
                    .map(|r| det.classify(&WsSignature::from_words(r.ws_sig.clone()), thr))
                    .collect()
            },
            thr,
            None,
        )
    });
    CovCurve::new(points)
}

/// Branch-count baseline sweep (Balasubramonian et al., experiment A4).
pub fn branch_count_curve(trace: &SystemTrace) -> CovCurve {
    let points = par_map(log_spaced(BBV_SWEEP_POINTS, 1e-4, 1.0), |thr| {
        point_for(
            trace,
            |_, recs| {
                let mut det = BranchCountDetector::new(DEFAULT_FOOTPRINT_VECTORS);
                recs.iter().map(|r| det.classify(r.branches, thr)).collect()
            },
            thr,
            None,
        )
    });
    CovCurve::new(points)
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
            swept += TraceClassifier::sweep_proc(recs, None, grid, cap).comparisons;
            for &(bbv_thr, dds_thr) in grid {
                let mut table: FootprintTable = FootprintTable::new(cap);
                for r in recs {
                    table.classify(&r.bbv, r.dds, bbv_thr, dds_thr);
                }
                per_point += table.comparisons();
            }
        }
        (swept, per_point)
    }

    #[test]
    fn class_replay_comparisons_are_pinned_and_below_per_point_replay() {
        // Recorded when the sweep began replaying classes; replaying each
        // point on its own looks at 274_099 (BBV) and 387_046 (BBV+DDV).
        let t = capture(ExperimentConfig::test(App::Fmm, 8));
        let grids = [
            ("BBV", bbv_grid(BBV_SWEEP_POINTS), 9_606),
            (
                "BBV+DDV",
                threshold_grid(DDV_GRID_BBV, DDV_GRID_DDS),
                52_739,
            ),
        ];
        for (name, grid, want) in grids {
            let (swept, per_point) = comparisons(&t, &grid);
            assert_eq!(
                swept, want,
                "{name}: sweep comparisons (per-point replay: {per_point})"
            );
            assert!(
                swept < per_point,
                "{name}: {swept} not below per-point {per_point}"
            );
        }
    }

    #[test]
    fn ablated_dds_formulas() {
        use dsm_phase::detector::IntervalRecord;
        let rec = IntervalRecord {
            proc: 0,
            index: 0,
            insns: 100,
            cycles: 100,
            bbv: vec![1.0],
            fvec: vec![2, 3],
            cvec: vec![10, 20],
            dds: 0.0,
            ws_sig: vec![0],
            branches: 1,
        };
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
