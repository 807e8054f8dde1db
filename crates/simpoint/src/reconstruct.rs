//! Whole-run CPI reconstruction from sampled representative intervals.
//!
//! Following the SimPoint methodology, the whole-run statistic is estimated
//! as the cluster-weight-weighted combination of the per-representative
//! measurements: `CPI ≈ Σ_c w_c · CPI_c`, and the CoV of per-interval CPI is
//! recovered from the weighted second moment. Both estimators are exact when
//! every member of a cluster behaves like its representative.

use dsm_phase::detector::IntervalRecord;
use serde::{Deserialize, Serialize};

/// Aggregate CPI of one global interval (all processors combined).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalCpi {
    pub interval: usize,
    /// `Σ_p cycles / Σ_p insns` over the interval.
    pub cpi: f64,
    pub insns: u64,
    pub cycles: u64,
}

/// Per-global-interval CPIs from per-processor records; only intervals
/// completed by every processor count (same convention as
/// [`crate::select::signatures`]).
pub fn interval_cpis(records: &[Vec<IntervalRecord>]) -> Vec<IntervalCpi> {
    let n_intervals = records.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n_intervals)
        .map(|i| {
            let insns: u64 = records.iter().map(|r| r[i].insns).sum();
            let cycles: u64 = records.iter().map(|r| r[i].cycles).sum();
            IntervalCpi {
                interval: i,
                cpi: if insns == 0 { 0.0 } else { cycles as f64 / insns as f64 },
                insns,
                cycles,
            }
        })
        .collect()
}

/// Mean and coefficient of variation of a value series (population CoV;
/// zero for an empty or zero-mean series).
pub fn mean_and_cov(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return (0.0, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt() / mean)
}

/// A reconstructed whole-run estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reconstructed {
    /// Weighted mean CPI.
    pub cpi: f64,
    /// CoV of per-interval CPI implied by the weighted mixture.
    pub cov: f64,
}

/// Combine per-representative CPIs under cluster weights. `weights` and
/// `cpis` are aligned; weights must sum to ~1.
pub fn reconstruct_cpi(weights: &[f64], cpis: &[f64]) -> Reconstructed {
    assert_eq!(weights.len(), cpis.len());
    if weights.is_empty() {
        return Reconstructed { cpi: 0.0, cov: 0.0 };
    }
    let mean: f64 = weights.iter().zip(cpis).map(|(&w, &c)| w * c).sum();
    if mean == 0.0 {
        return Reconstructed { cpi: 0.0, cov: 0.0 };
    }
    let second: f64 = weights.iter().zip(cpis).map(|(&w, &c)| w * c * c).sum();
    // Clamp: the mixture variance can go slightly negative in floating point
    // when all representatives coincide.
    let var = (second - mean * mean).max(0.0);
    Reconstructed { cpi: mean, cov: var.sqrt() / mean }
}

/// Relative error `|est - actual| / actual` (absolute error when the actual
/// value is zero).
pub fn relative_error(est: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        est.abs()
    } else {
        (est - actual).abs() / actual.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(proc: usize, index: u64, insns: u64, cycles: u64) -> IntervalRecord {
        IntervalRecord::new(proc, index, insns, cycles, [], [], [], 0.0, &[], 0)
    }

    #[test]
    fn interval_cpi_pools_processors() {
        let records = vec![
            vec![rec(0, 0, 100, 150), rec(0, 1, 100, 250)],
            vec![rec(1, 0, 100, 250), rec(1, 1, 100, 150)],
        ];
        let cpis = interval_cpis(&records);
        assert_eq!(cpis.len(), 2);
        assert!((cpis[0].cpi - 2.0).abs() < 1e-12);
        assert!((cpis[1].cpi - 2.0).abs() < 1e-12);
        assert_eq!(cpis[0].insns, 200);
    }

    #[test]
    fn exact_reconstruction_when_clusters_are_pure() {
        // 3 intervals at CPI 1.0 (weight 0.75), 1 at CPI 3.0 (weight 0.25).
        let full = [1.0, 1.0, 3.0, 1.0];
        let (mean, cov) = mean_and_cov(&full);
        let rec = reconstruct_cpi(&[0.75, 0.25], &[1.0, 3.0]);
        assert!((rec.cpi - mean).abs() < 1e-12);
        assert!((rec.cov - cov).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_cluster() {
        let rec = reconstruct_cpi(&[1.0], &[2.5]);
        assert!((rec.cpi - 2.5).abs() < 1e-12);
        assert_eq!(rec.cov, 0.0);
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(1.05, 1.0) - 0.05).abs() < 1e-12);
        assert_eq!(relative_error(0.5, 0.0), 0.5);
    }

    #[test]
    fn mean_and_cov_empty_and_uniform() {
        assert_eq!(mean_and_cov(&[]), (0.0, 0.0));
        let (m, c) = mean_and_cov(&[2.0, 2.0, 2.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert_eq!(c, 0.0);
    }
}
