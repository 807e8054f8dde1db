//! CoV of CPI and identifier CoV (paper §II).
//!
//! "For a given program phase, its CoV of CPI is the ratio of the standard
//! deviation to the mean of all the per-interval CPI values in that phase.
//! The identifier CoV is then defined as the average of all per-phase
//! CoVs, weighted by how many intervals belong to each phase."

use crate::stats;

/// Reusable scratch for grouping a classified interval stream by phase.
///
/// [`Self::cov_and_count`] computes the identifier CoV and the phase count
/// in one grouping pass: a stable counting sort over the phase ids into one
/// CPI buffer, which visits phases in ascending id and keeps each phase's
/// CPIs in stream order — the per-phase slices and their order are exactly
/// those of grouping into an ordered map, so the result is bit-identical.
/// Sweeps reuse one instance across their points so steady-state grouping
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PhaseGroups {
    /// Per-group cursor, then group end offsets into `cpis`.
    ends: Vec<usize>,
    /// Sorted distinct ids, when the ids are too sparse to index directly.
    ranks: Vec<u32>,
    /// CPIs grouped by phase.
    cpis: Vec<f64>,
    /// `(per-phase CoV, interval count)` per phase, ascending id.
    weighted: Vec<(f64, f64)>,
}

impl PhaseGroups {
    /// Identifier CoV (per-phase CoV of CPI, weighted by interval count)
    /// and number of distinct phases of a `(phase, CPI)` stream.
    pub fn cov_and_count<I>(&mut self, pairs: I) -> (f64, usize)
    where
        I: IntoIterator<Item = (u32, f64)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let (mut n, mut max) = (0usize, 0u32);
        for (id, _) in pairs.clone() {
            n += 1;
            max = max.max(id);
        }
        if n == 0 {
            return (0.0, 0);
        }
        // Phase ids from a footprint table are dense (every id is below the
        // interval count) and index the counters directly; sparse ids are
        // ranked among the distinct ids first.
        let dense = (max as usize) < n;
        self.ranks.clear();
        if !dense {
            self.ranks.extend(pairs.clone().map(|(id, _)| id));
            self.ranks.sort_unstable();
            self.ranks.dedup();
        }
        let ranks = &self.ranks;
        let key = |id: u32| {
            if dense {
                id as usize
            } else {
                ranks.binary_search(&id).expect("ranked id")
            }
        };
        let groups = if dense { max as usize + 1 } else { ranks.len() };
        self.ends.clear();
        self.ends.resize(groups, 0);
        for (id, _) in pairs.clone() {
            self.ends[key(id)] += 1;
        }
        let mut start = 0;
        for slot in self.ends.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        self.cpis.clear();
        self.cpis.resize(n, 0.0);
        for (id, cpi) in pairs {
            let slot = &mut self.ends[key(id)];
            self.cpis[*slot] = cpi;
            *slot += 1;
        }
        self.weighted.clear();
        let mut start = 0;
        for &end in &self.ends {
            if end > start {
                let cpis = &self.cpis[start..end];
                self.weighted.push((stats::cov(cpis), cpis.len() as f64));
            }
            start = end;
        }
        (stats::weighted_mean(&self.weighted), self.weighted.len())
    }
}

/// The identifier CoV over a classified interval stream: per-phase CoV of
/// CPI, weighted by interval count.
pub fn identifier_cov(pairs: &[(u32, f64)]) -> f64 {
    PhaseGroups::default().cov_and_count(pairs.iter().copied()).0
}

/// Number of distinct phases in a classified stream.
pub fn phase_count(pairs: &[(u32, f64)]) -> usize {
    PhaseGroups::default().cov_and_count(pairs.iter().copied()).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_homogeneous_phases_give_zero() {
        // Two phases, constant CPI within each.
        let pairs = [(0, 1.0), (0, 1.0), (1, 3.0), (1, 3.0)];
        assert_eq!(identifier_cov(&pairs), 0.0);
    }

    #[test]
    fn every_interval_its_own_phase_is_trivially_zero() {
        // The paper's degenerate extreme.
        let pairs: Vec<(u32, f64)> = (0..10).map(|i| (i, i as f64 + 1.0)).collect();
        assert_eq!(identifier_cov(&pairs), 0.0);
        assert_eq!(phase_count(&pairs), 10);
    }

    #[test]
    fn one_phase_for_everything_has_large_cov() {
        let pairs: Vec<(u32, f64)> = vec![(0, 1.0), (0, 1.0), (0, 10.0), (0, 10.0)];
        let c = identifier_cov(&pairs);
        assert!(c > 0.5, "heterogeneous single phase must score badly, got {c}");
    }

    #[test]
    fn weighting_by_interval_count() {
        // Phase 0: 8 intervals with CoV 0; phase 1: 2 intervals with known CoV.
        let mut pairs = vec![(0u32, 2.0); 8];
        pairs.push((1, 1.0));
        pairs.push((1, 3.0));
        let phase1_cov = crate::stats::cov(&[1.0, 3.0]);
        let expected = (8.0 * 0.0 + 2.0 * phase1_cov) / 10.0;
        assert!((identifier_cov(&pairs) - expected).abs() < 1e-12);
    }

    #[test]
    fn splitting_a_heterogeneous_phase_reduces_cov() {
        // The core trade-off the CoV curve captures.
        let merged = [(0, 1.0), (0, 1.0), (0, 4.0), (0, 4.0)];
        let split = [(0, 1.0), (0, 1.0), (1, 4.0), (1, 4.0)];
        assert!(identifier_cov(&split) < identifier_cov(&merged));
    }

    #[test]
    fn empty_stream() {
        assert_eq!(identifier_cov(&[]), 0.0);
        assert_eq!(phase_count(&[]), 0);
    }
}
