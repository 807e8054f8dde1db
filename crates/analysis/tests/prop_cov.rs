//! Property tests for the CoV machinery: bounds, relabeling invariance,
//! and the degenerate extremes the paper calls out.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dsm_analysis::cov::{identifier_cov, phase_count, PhaseGroups};
use dsm_analysis::curve::{CovCurve, CurvePoint};
use dsm_analysis::stats;

/// Reference grouping: an ordered map from phase id to its CPIs in stream
/// order. Returns (identifier CoV, phase count).
fn oracle(pairs: &[(u32, f64)]) -> (f64, usize) {
    let mut groups: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &(p, cpi) in pairs {
        groups.entry(p).or_default().push(cpi);
    }
    let weighted: Vec<(f64, f64)> = groups
        .values()
        .map(|cpis| (stats::cov(cpis), cpis.len() as f64))
        .collect();
    (stats::weighted_mean(&weighted), groups.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn single_pass_grouping_is_bit_identical_to_ordered_map(
        dense in prop::collection::vec((0u32..12, 0.01f64..100.0), 0..200),
        sparse in prop::collection::vec(
            (prop::sample::select(vec![0u32, 3, 17, 1000, 65_537, u32::MAX]), 0.01f64..100.0),
            0..60,
        ),
    ) {
        // One scratch reused across streams, as the sweeps reuse it.
        let mut groups = PhaseGroups::default();
        for pairs in [&dense, &sparse] {
            let (cov, count) = groups.cov_and_count(pairs.iter().copied());
            let (want_cov, want_count) = oracle(pairs);
            prop_assert_eq!(cov.to_bits(), want_cov.to_bits());
            prop_assert_eq!(count, want_count);
            prop_assert_eq!(identifier_cov(pairs).to_bits(), want_cov.to_bits());
            prop_assert_eq!(phase_count(pairs), want_count);
        }
    }

    #[test]
    fn identifier_cov_is_nonnegative_and_bounded(
        pairs in prop::collection::vec((0u32..6, 0.01f64..100.0), 1..200),
    ) {
        let cov = identifier_cov(&pairs);
        prop_assert!(cov >= 0.0);
        // Weighted mean of per-phase CoVs is bounded by the max per-phase CoV,
        // which for positive samples is bounded by sqrt(n).
        let max_cov = pairs.len() as f64;
        prop_assert!(cov <= max_cov);
    }

    #[test]
    fn relabeling_phases_does_not_change_cov(
        pairs in prop::collection::vec((0u32..5, 0.01f64..10.0), 1..100),
        offset in 1u32..1000,
    ) {
        let relabeled: Vec<(u32, f64)> =
            pairs.iter().map(|(p, c)| (p * 7 + offset, *c)).collect();
        let a = identifier_cov(&pairs);
        let b = identifier_cov(&relabeled);
        prop_assert!((a - b).abs() < 1e-12);
        prop_assert_eq!(phase_count(&pairs), phase_count(&relabeled));
    }

    #[test]
    fn all_singletons_give_zero_cov(cpis in prop::collection::vec(0.01f64..100.0, 1..100)) {
        // "in the extreme case, every sampling interval would constitute a
        // distinct phase ... with CoV trivially zero".
        let pairs: Vec<(u32, f64)> =
            cpis.iter().enumerate().map(|(i, &c)| (i as u32, c)).collect();
        prop_assert_eq!(identifier_cov(&pairs), 0.0);
    }

    #[test]
    fn constant_cpi_gives_zero_cov_regardless_of_phases(
        phases in prop::collection::vec(0u32..8, 1..100),
        cpi in 0.1f64..10.0,
    ) {
        let pairs: Vec<(u32, f64)> = phases.iter().map(|&p| (p, cpi)).collect();
        prop_assert!(identifier_cov(&pairs) < 1e-12);
    }

    #[test]
    fn cov_scale_invariance(
        xs in prop::collection::vec(0.1f64..100.0, 2..50),
        k in 0.1f64..100.0,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        prop_assert!((stats::cov(&xs) - stats::cov(&scaled)).abs() < 1e-9);
    }

    #[test]
    fn envelope_is_pointwise_minimal(
        pts in prop::collection::vec((1.0f64..30.0, 0.0f64..2.0), 1..100),
    ) {
        let curve = CovCurve::new(
            pts.iter()
                .map(|&(phases, cov)| CurvePoint {
                    phases,
                    cov,
                    bbv_threshold: 0.1,
                    dds_threshold: None,
                })
                .collect(),
        );
        for (k, env_cov) in curve.lower_envelope(25) {
            // No raw point at this phase count may lie below the envelope.
            for &(phases, cov) in &pts {
                if phases.round() as usize == k {
                    prop_assert!(cov >= env_cov - 1e-12);
                }
            }
        }
    }

    #[test]
    fn phases_at_cov_and_cov_at_phases_are_consistent(
        pts in prop::collection::vec((1.0f64..30.0, 0.0f64..2.0), 1..50),
    ) {
        let curve = CovCurve::new(
            pts.iter()
                .map(|&(phases, cov)| CurvePoint {
                    phases,
                    cov,
                    bbv_threshold: 0.1,
                    dds_threshold: None,
                })
                .collect(),
        );
        if let Some(cov) = curve.cov_at_phases(15.0) {
            let phases = curve.phases_at_cov(cov).unwrap();
            prop_assert!(phases <= 15.5, "found at {phases} phases for cov {cov}");
        }
    }
}
