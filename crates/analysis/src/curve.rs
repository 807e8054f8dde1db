//! The CoV curve (the paper's third contribution): identifier CoV plotted
//! against the number of phases as the detector threshold sweeps.
//!
//! Each swept threshold (or threshold pair, for BBV+DDV) yields one point
//! `(phases, CoV)`. Because a 2-D threshold grid produces many points at
//! the same phase count, the curve used for plotting and comparison is the
//! *lower envelope*: the best (smallest) CoV achievable at each phase
//! count. Queries in both directions — "CoV at a fixed number of phases"
//! and "phases needed for a target CoV" — support the paper's headline
//! claims (e.g., FMM at 32P: 29 % CoV needs 25 phases with BBV but 11 with
//! BBV+DDV).

use serde::{Deserialize, Serialize};

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Mean number of distinct phases across processors.
    pub phases: f64,
    /// System-wide identifier CoV (per-processor CoVs averaged, §III-A).
    pub cov: f64,
    /// BBV Manhattan threshold that produced this point.
    pub bbv_threshold: f64,
    /// DDS relative-difference threshold (None for BBV-only sweeps).
    pub dds_threshold: Option<f64>,
}

/// A full threshold sweep for one (application, system size, detector).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CovCurve {
    pub points: Vec<CurvePoint>,
}

impl CovCurve {
    pub fn new(points: Vec<CurvePoint>) -> Self {
        Self { points }
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Lower envelope over integer phase counts `1..=max_phases`: for each
    /// phase count (points rounded to nearest integer), the minimum CoV.
    /// Phase counts with no sweep point are omitted.
    pub fn lower_envelope(&self, max_phases: usize) -> Vec<(usize, f64)> {
        let mut best: Vec<Option<f64>> = vec![None; max_phases + 1];
        for p in &self.points {
            let k = p.phases.round() as usize;
            if k >= 1 && k <= max_phases {
                let slot = &mut best[k];
                if slot.is_none_or(|c| p.cov < c) {
                    *slot = Some(p.cov);
                }
            }
        }
        (1..=max_phases)
            .filter_map(|k| best[k].map(|c| (k, c)))
            .collect()
    }

    /// Best CoV achievable with at most `phases` phases.
    pub fn cov_at_phases(&self, phases: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.phases <= phases + 0.5)
            .map(|p| p.cov)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Fewest phases achieving CoV at or below `target`.
    pub fn phases_at_cov(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.cov <= target)
            .map(|p| p.phases)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Maximum phase count over the sweep.
    pub fn max_phases(&self) -> f64 {
        self.points.iter().map(|p| p.phases).fold(0.0, f64::max)
    }

    /// True when `self`'s envelope is at or below `other`'s at every phase
    /// count both cover, with `tolerance` slack (for curve-dominance shape
    /// assertions).
    pub fn dominates(&self, other: &CovCurve, max_phases: usize, tolerance: f64) -> bool {
        let a = self.lower_envelope(max_phases);
        let b = other.lower_envelope(max_phases);
        let bmap: std::collections::BTreeMap<usize, f64> = b.into_iter().collect();
        let mut compared = 0;
        for (k, cov) in a {
            if let Some(&oc) = bmap.get(&k) {
                compared += 1;
                if cov > oc + tolerance {
                    return false;
                }
            }
        }
        compared > 0
    }

    /// Mean CoV over the envelope in `[lo, hi]` phases — a scalar summary
    /// used for cross-configuration comparisons.
    pub fn mean_envelope_cov(&self, lo: usize, hi: usize) -> Option<f64> {
        let env = self.lower_envelope(hi);
        let vals: Vec<f64> = env
            .into_iter()
            .filter(|(k, _)| *k >= lo)
            .map(|(_, c)| c)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(phases: f64, cov: f64) -> CurvePoint {
        CurvePoint { phases, cov, bbv_threshold: 0.1, dds_threshold: None }
    }

    #[test]
    fn envelope_takes_minimum_per_phase_count() {
        let c = CovCurve::new(vec![pt(3.0, 0.5), pt(3.2, 0.3), pt(5.0, 0.2)]);
        let env = c.lower_envelope(10);
        assert_eq!(env, vec![(3, 0.3), (5, 0.2)]);
    }

    #[test]
    fn envelope_respects_max_phases() {
        let c = CovCurve::new(vec![pt(3.0, 0.5), pt(50.0, 0.01)]);
        let env = c.lower_envelope(25);
        assert_eq!(env, vec![(3, 0.5)]);
    }

    #[test]
    fn cov_at_phases_allows_fewer() {
        let c = CovCurve::new(vec![pt(2.0, 0.6), pt(7.0, 0.2), pt(20.0, 0.05)]);
        assert_eq!(c.cov_at_phases(7.0), Some(0.2));
        assert_eq!(c.cov_at_phases(100.0), Some(0.05));
        assert_eq!(c.cov_at_phases(1.0), None);
    }

    #[test]
    fn phases_at_cov_finds_cheapest() {
        let c = CovCurve::new(vec![pt(2.0, 0.6), pt(7.0, 0.2), pt(20.0, 0.05)]);
        assert_eq!(c.phases_at_cov(0.29), Some(7.0));
        assert_eq!(c.phases_at_cov(0.7), Some(2.0));
        assert_eq!(c.phases_at_cov(0.01), None);
    }

    #[test]
    fn dominance() {
        let better = CovCurve::new(vec![pt(3.0, 0.2), pt(5.0, 0.1)]);
        let worse = CovCurve::new(vec![pt(3.0, 0.5), pt(5.0, 0.4)]);
        assert!(better.dominates(&worse, 25, 0.0));
        assert!(!worse.dominates(&better, 25, 0.0));
        // Tolerance lets near-ties pass.
        assert!(worse.dominates(&better, 25, 1.0));
    }

    #[test]
    fn dominance_requires_overlap() {
        let a = CovCurve::new(vec![pt(3.0, 0.2)]);
        let b = CovCurve::new(vec![pt(9.0, 0.2)]);
        assert!(!a.dominates(&b, 25, 0.0), "no common phase counts");
    }

    #[test]
    fn mean_envelope_cov_summary() {
        let c = CovCurve::new(vec![pt(1.0, 0.9), pt(2.0, 0.4), pt(3.0, 0.2)]);
        let m = c.mean_envelope_cov(2, 3).unwrap();
        assert!((m - 0.3).abs() < 1e-12);
        assert!(c.mean_envelope_cov(10, 20).is_none());
    }

    #[test]
    fn empty_curve() {
        let c = CovCurve::default();
        assert!(c.is_empty());
        assert!(c.lower_envelope(25).is_empty());
        assert_eq!(c.cov_at_phases(5.0), None);
        assert_eq!(c.max_phases(), 0.0);
    }
}
