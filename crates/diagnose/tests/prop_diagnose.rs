//! Property battery for the diagnosis engine: clustering determinism,
//! node-label permutation invariance, and outlier-score monotonicity under
//! a widening lag.

use proptest::prelude::*;

use dsm_diagnose::{diagnose, DiagnoseConfig, NodeTelemetry};
use dsm_phase::stream::PhaseStream;
use dsm_phase::ClassifiedInterval;

fn ci(proc: usize, index: u64, phase_id: u32, cpi: f64, degraded: bool) -> ClassifiedInterval {
    ClassifiedInterval { proc, index, phase_id, is_new_phase: false, cpi, degraded }
}

/// Build a fleet from per-node `(phase_id, cpi, degraded)` rows; the node id
/// is the position in `rows`.
fn fleet(rows: &[Vec<(u32, f64, bool)>]) -> Vec<PhaseStream> {
    rows.iter()
        .enumerate()
        .map(|(p, row)| {
            PhaseStream::from_intervals(
                p,
                row.iter()
                    .enumerate()
                    .map(|(i, &(ph, cpi, deg))| ci(p, i as u64, ph, cpi, deg))
                    .collect(),
            )
        })
        .collect()
}

/// A stream running the distinct-id sequence `0..len`, delayed by `lag`
/// intervals (the first phase lingers, then the sequence plays out
/// truncated to `len`).
fn lagged_stream(node: usize, len: usize, lag: usize) -> PhaseStream {
    PhaseStream::from_intervals(
        node,
        (0..len)
            .map(|i| ci(node, i as u64, i.saturating_sub(lag) as u32, 1.0, false))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same inputs produce the same diagnosis, every time — the engine
    /// has no hidden state or iteration-order dependence.
    #[test]
    fn diagnosis_is_deterministic(
        rows in prop::collection::vec(
            prop::collection::vec((0u32..4, 0.5f64..2.0, any::<bool>()), 4..24),
            2..7,
        ),
        mem in prop::collection::vec(0.0f64..1.0, 7),
    ) {
        let streams = fleet(&rows);
        let telemetry: Vec<NodeTelemetry> = (0..streams.len())
            .map(|p| NodeTelemetry { mem_stall_share: mem[p], ..NodeTelemetry::default() })
            .collect();
        let cfg = DiagnoseConfig::default();
        let first = diagnose(&cfg, &streams, Some(&telemetry)).unwrap();
        let second = diagnose(&cfg, &streams, Some(&telemetry)).unwrap();
        prop_assert_eq!(first, second);
    }

    /// Rotating the node labels rotates the diagnosis: clusters and scores
    /// map through the permutation, and (when the majority cluster is a
    /// unique maximum, so its tie-break cannot move) so does the outlier
    /// set. The engine must not care which node got which id.
    #[test]
    fn diagnosis_is_node_label_permutation_invariant(
        rows in prop::collection::vec(
            prop::collection::vec((0u32..4, 0.5f64..2.0, any::<bool>()), 4..24),
            2..7,
        ),
        rot_seed in 0usize..1000,
    ) {
        let n = rows.len();
        let rot = rot_seed % n;
        let perm = |i: usize| (i + rot) % n;
        let mut permuted_rows: Vec<Vec<(u32, f64, bool)>> = vec![Vec::new(); n];
        for (i, row) in rows.iter().enumerate() {
            permuted_rows[perm(i)] = row.clone();
        }

        let cfg = DiagnoseConfig::default();
        let base = diagnose(&cfg, &fleet(&rows), None).unwrap();
        let rotated = diagnose(&cfg, &fleet(&permuted_rows), None).unwrap();

        let mut mapped_clusters: Vec<Vec<usize>> = base
            .clusters
            .iter()
            .map(|c| {
                let mut m: Vec<usize> = c.iter().map(|&i| perm(i)).collect();
                m.sort_unstable();
                m
            })
            .collect();
        mapped_clusters.sort_by_key(|c| c[0]);
        prop_assert_eq!(&rotated.clusters, &mapped_clusters);
        for i in 0..n {
            prop_assert!(
                (rotated.scores[perm(i)] - base.scores[i]).abs() < 1e-12,
                "score of node {i} must survive relabeling"
            );
        }

        let max_size = base.clusters.iter().map(Vec::len).max().unwrap();
        let unique_max = base.clusters.iter().filter(|c| c.len() == max_size).count() == 1;
        if unique_max {
            let mut mapped_outliers: Vec<usize> =
                base.outliers.iter().map(|o| perm(o.node)).collect();
            mapped_outliers.sort_unstable();
            let mut rotated_outliers: Vec<usize> =
                rotated.outliers.iter().map(|o| o.node).collect();
            rotated_outliers.sort_unstable();
            prop_assert_eq!(rotated_outliers, mapped_outliers);
        }
    }

    /// A node running the right phase sequence ever later scores ever
    /// worse: widening the lag never *lowers* its outlier score.
    #[test]
    fn outlier_score_is_monotone_in_lag(
        max_lag in 1usize..10,
        extra in 2usize..30,
    ) {
        let len = max_lag + extra;
        let cfg = DiagnoseConfig { max_lag, ..DiagnoseConfig::default() };
        let mut prev = -1.0f64;
        for lag in 0..=max_lag {
            let mut streams: Vec<PhaseStream> =
                (0..3).map(|p| lagged_stream(p, len, 0)).collect();
            streams.push(lagged_stream(3, len, lag));
            let d = diagnose(&cfg, &streams, None).unwrap();
            prop_assert!(
                d.scores[3] + 1e-12 >= prev,
                "lag {lag}: score {} dropped below {prev}",
                d.scores[3]
            );
            prev = d.scores[3];
        }
    }
}
