//! `dsm-diagnose` — cross-node phase-similarity diagnostics.
//!
//! In an SPMD run on a DSM machine, every node executes the same program,
//! so the per-node classified-interval streams produced by the phase
//! detector should agree: same phase structure, same timing, similar CPI.
//! This crate turns cross-node *disagreement* into a diagnosis:
//!
//! 1. [`kernel`] — a pairwise distance over [`PhaseStream`]s combining
//!    time-aligned phase-id disagreement, relative CPI divergence, and an
//!    edit-style lag term, with degraded intervals down-weighted;
//! 2. [`cluster`](mod@cluster) — deterministic average-linkage clustering of the fleet,
//!    a majority ("how the program behaves") cluster, a per-node outlier
//!    score, and a flagged divergent interval range per outlier;
//! 3. [`attribute`](mod@attribute) — root-cause hints joining each outlier against
//!    per-node telemetry counters (remote-miss share, retries, stalls,
//!    reconfig events) ranked by relative excess over the majority median;
//! 4. [`sink`] — the online consumer: a windowed [`sink::DiagnosisSink`]
//!    fed at classification time, answering the same diagnosis the offline
//!    pass would give over the retained window.
//!
//! The engine is *blind* by design: it consumes only classified intervals
//! and production telemetry counters, never a fault plan or placement
//! policy. The localization suite exploits that — it injects a straggler
//! through the fault layer and checks the engine finds the right node and
//! epoch without being told.

pub mod attribute;
pub mod cluster;
pub mod kernel;
pub mod sink;

use serde::{Deserialize, Serialize};

use dsm_phase::stream::PhaseStream;

pub use attribute::{attribute, check_telemetry, Hint, HintKind, NodeTelemetry, TelemetryError};
pub use cluster::{cluster, flagged_range, majority_index, outlier_scores};
pub use kernel::{canonical_phases, distance_matrix, pair_distance, slice_distance, PairDistance};
pub use sink::DiagnosisSink;

/// Tunables for the distance kernel, clustering, flagging, and attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnoseConfig {
    /// Weight of the time-aligned phase-disagreement term.
    pub phase_weight: f64,
    /// Weight of the relative-CPI-divergence term.
    pub cpi_weight: f64,
    /// Weight of the lag (best-shift alignment) term.
    pub lag_weight: f64,
    /// Per-interval relative CPI-residual divergence below this level
    /// contributes nothing to the CPI term. Real captures carry diffuse
    /// low-level residual jitter (warmup instances, data-dependent phase
    /// behaviour) on perfectly healthy nodes; a straggler's excursions sit
    /// far above it. The deadband subtracts before accumulating, so only
    /// the excess counts.
    pub cpi_deadband: f64,
    /// Maximum alignment shift searched, in intervals. Zero disables the
    /// shift search (the lag term degenerates to aligned disagreement).
    pub max_lag: usize,
    /// Weight of a degraded interval relative to a clean one in the phase
    /// and CPI terms, in `[0, 1]`.
    pub degraded_weight: f64,
    /// Average-linkage distance beyond which clusters stop merging.
    pub cluster_threshold: f64,
    /// Relative CPI deviation from the majority median beyond which an
    /// aligned interval counts as divergent when flagging a range.
    pub cpi_flag_rel: f64,
    /// Clean intervals tolerated *inside* a flagged divergent run before it
    /// splits in two.
    pub gap_tolerance: usize,
    /// Relative excess over the majority-median baseline an attribution
    /// rule must clear to emit a hint.
    pub attr_rel: f64,
}

impl Default for DiagnoseConfig {
    fn default() -> Self {
        Self {
            phase_weight: 1.0,
            cpi_weight: 1.0,
            lag_weight: 0.5,
            cpi_deadband: 0.0,
            max_lag: 8,
            degraded_weight: 0.25,
            // A pure-CPI straggler caps out at cpi_weight / Σweights = 0.4
            // of the total, diluted further by the clean share of the run,
            // so the split point sits well below the per-term scale.
            cluster_threshold: 0.05,
            cpi_flag_rel: 0.25,
            gap_tolerance: 2,
            attr_rel: 0.25,
        }
    }
}

/// One node flagged as behaving unlike the majority.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outlier {
    pub node: usize,
    /// Mean distance to every other node, in `[0, 1]`.
    pub score: f64,
    /// Inclusive true-interval-index range over which the node diverges
    /// from the majority consensus, when one exists.
    pub flagged: Option<(u64, u64)>,
    /// Ranked root-cause hypotheses (empty when no telemetry was supplied).
    pub hints: Vec<Hint>,
}

/// The full result of one diagnostic pass over a fleet of streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    pub n_nodes: usize,
    /// Intervals in the common aligned range across all nodes (zero when
    /// the windows share no range).
    pub aligned_intervals: u64,
    /// Behavioural clusters, each sorted ascending, ordered by smallest
    /// member.
    pub clusters: Vec<Vec<usize>>,
    /// Index into `clusters` of the majority cluster (0, naming no cluster,
    /// for an empty fleet).
    pub majority: usize,
    /// Per-node outlier score (mean distance to all other nodes).
    pub scores: Vec<f64>,
    /// Every node outside the majority cluster, strongest outlier first
    /// (ties broken by node id).
    pub outliers: Vec<Outlier>,
}

impl Diagnosis {
    /// The members of the majority cluster (none for an empty fleet).
    pub fn majority_nodes(&self) -> &[usize] {
        self.clusters.get(self.majority).map_or(&[], Vec::as_slice)
    }

    /// Whether the fleet clustered into a single behavioural group.
    pub fn is_uniform(&self) -> bool {
        self.outliers.is_empty()
    }
}

/// Run the full diagnostic pass: distance matrix → clustering → majority →
/// outlier ranking → divergent-range flagging → (optionally) root-cause
/// attribution. `telemetry`, when given, is indexed by node like
/// `streams`; a slice that fails [`check_telemetry`] is refused before any
/// work is done.
pub fn diagnose(
    cfg: &DiagnoseConfig,
    streams: &[PhaseStream],
    telemetry: Option<&[NodeTelemetry]>,
) -> Result<Diagnosis, TelemetryError> {
    let n = streams.len();
    if let Some(t) = telemetry {
        check_telemetry(t, n)?;
    }
    let dist = distance_matrix(cfg, streams);
    let clusters = cluster(&dist, cfg.cluster_threshold);
    let majority = majority_index(&clusters);
    let scores = outlier_scores(&dist);

    let aligned_intervals = if n == 0 {
        0
    } else {
        let lo = streams.iter().map(|s| s.first_index()).max().unwrap();
        let hi = streams.iter().map(|s| s.next_index()).min().unwrap();
        hi.saturating_sub(lo)
    };

    let majority_nodes = clusters.get(majority).cloned().unwrap_or_default();
    let mut outlier_nodes: Vec<usize> = (0..n).filter(|p| !majority_nodes.contains(p)).collect();
    outlier_nodes.sort_by(|&a, &b| {
        scores[b].partial_cmp(&scores[a]).expect("finite").then(a.cmp(&b))
    });
    let outliers = outlier_nodes
        .into_iter()
        .map(|node| Outlier {
            node,
            score: scores[node],
            flagged: flagged_range(cfg, streams, node, &majority_nodes),
            hints: telemetry
                .map(|t| attribute(cfg, node, t, &majority_nodes))
                .unwrap_or_default(),
        })
        .collect();

    Ok(Diagnosis { n_nodes: n, aligned_intervals, clusters, majority, scores, outliers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_phase::ClassifiedInterval;
    use std::ops::Range;

    fn ci(proc: usize, index: u64, phase_id: u32, cpi: f64) -> ClassifiedInterval {
        ClassifiedInterval { proc, index, phase_id, is_new_phase: false, cpi, degraded: false }
    }

    /// Node `p`'s stream over true interval indices `window`, with CPI 3.0
    /// inside `slow` and 1.0 elsewhere. Two phases alternate in 4-interval
    /// blocks: every phase recurs outside any one block, so a slowed block
    /// contrasts against clean instances of the same phase.
    fn stream(p: usize, window: Range<u64>, slow: Range<u64>) -> PhaseStream {
        let cpi = |i: u64| if slow.contains(&i) { 3.0 } else { 1.0 };
        let intervals = window.map(|i| ci(p, i, ((i / 4) % 2) as u32, cpi(i))).collect();
        PhaseStream::from_intervals(p, intervals)
    }

    fn fleet(n: usize, len: u64, slow: Option<(usize, Range<u64>)>) -> Vec<PhaseStream> {
        (0..n)
            .map(|p| match &slow {
                Some((node, epoch)) if *node == p => stream(p, 0..len, epoch.clone()),
                _ => stream(p, 0..len, 0..0),
            })
            .collect()
    }

    #[test]
    fn uniform_fleet_is_one_cluster_with_no_outliers() {
        let d = diagnose(&DiagnoseConfig::default(), &fleet(8, 24, None), None).unwrap();
        assert_eq!(d.clusters, vec![(0..8).collect::<Vec<_>>()]);
        assert!(d.is_uniform());
        assert_eq!(d.aligned_intervals, 24);
    }

    #[test]
    fn straggler_is_the_top_outlier_with_a_flagged_epoch() {
        let streams = fleet(8, 24, Some((5, 8..16)));
        let d = diagnose(&DiagnoseConfig::default(), &streams, None).unwrap();
        assert!(!d.is_uniform());
        assert_eq!(d.outliers[0].node, 5);
        assert!(d.majority_nodes().len() >= 7);
        let (lo, hi) = d.outliers[0].flagged.expect("divergent epoch flagged");
        assert!(lo >= 8 && hi <= 15, "flagged ({lo},{hi}) inside injected 8..16");
        assert!(d.scores[5] > d.scores[0]);
    }

    #[test]
    fn telemetry_turns_outliers_into_attributed_hints() {
        let streams = fleet(4, 16, Some((2, 4..12)));
        let mut telemetry = vec![
            NodeTelemetry {
                remote_miss_share: 0.5,
                barrier_stall_share: 0.2,
                mem_stall_share: 0.3,
                ..NodeTelemetry::default()
            };
            4
        ];
        telemetry[2].mem_stall_share = 0.6;
        telemetry[2].barrier_stall_share = 0.02;
        let d = diagnose(&DiagnoseConfig::default(), &streams, Some(&telemetry)).unwrap();
        assert_eq!(d.outliers[0].node, 2);
        assert_eq!(d.outliers[0].hints[0].kind, HintKind::SlowdownEpoch);
    }

    #[test]
    fn malformed_telemetry_is_a_typed_error() {
        // Node 2 is an outlier, so attribution would index every majority
        // peer's entry and take medians over their shares.
        let streams = fleet(4, 16, Some((2, 4..12)));
        let cfg = DiagnoseConfig::default();
        let short = [NodeTelemetry::default()];
        assert_eq!(
            diagnose(&cfg, &streams, Some(&short)),
            Err(TelemetryError::Len { len: 1, expected: 4 })
        );
        let ok = NodeTelemetry::default();
        for (field, bad) in [
            ("remote_miss_share", NodeTelemetry { remote_miss_share: -0.5, ..ok }),
            ("barrier_stall_share", NodeTelemetry { barrier_stall_share: f64::INFINITY, ..ok }),
            ("mem_stall_share", NodeTelemetry { mem_stall_share: f64::NAN, ..ok }),
        ] {
            let mut telemetry = [ok; 4];
            telemetry[0] = bad;
            let want = Err(TelemetryError::Share { node: 0, field });
            assert_eq!(diagnose(&cfg, &streams, Some(&telemetry)), want);
            let mut sink = DiagnosisSink::new(4, 16, cfg.clone());
            streams.iter().flat_map(PhaseStream::iter).for_each(|c| sink.observe(&c));
            assert_eq!(sink.diagnose(Some(&telemetry)), want);
        }
    }

    #[test]
    fn empty_fleet_diagnoses_to_nothing() {
        let d = diagnose(&DiagnoseConfig::default(), &[], Some(&[])).unwrap();
        assert_eq!(d.n_nodes, 0);
        assert_eq!(d.aligned_intervals, 0);
        assert!(d.clusters.is_empty() && d.scores.is_empty());
        assert!(d.is_uniform());
        assert!(d.majority_nodes().is_empty());
    }

    #[test]
    fn single_node_fleet_is_its_own_uniform_majority() {
        let (streams, telemetry) = (fleet(1, 8, Some((0, 0..4))), [NodeTelemetry::default()]);
        let d = diagnose(&DiagnoseConfig::default(), &streams, Some(&telemetry)).unwrap();
        assert_eq!(d.clusters, vec![vec![0]]);
        assert_eq!(d.majority_nodes(), &[0]);
        assert_eq!(d.scores, vec![0.0]);
        assert_eq!(d.aligned_intervals, 8);
        assert!(d.is_uniform());
    }

    #[test]
    fn one_interval_per_node_is_uniform() {
        // A lone interval canonicalizes to phase 0 with a CPI residual of 1
        // on every node, so neither a slow node nor a different phase label
        // gives the kernel anything to contrast: the fleet is one cluster.
        let mut streams = fleet(4, 1, Some((2, 0..1)));
        streams[3] = PhaseStream::from_intervals(3, vec![ci(3, 0, 7, 1.0)]);
        let d = diagnose(&DiagnoseConfig::default(), &streams, None).unwrap();
        assert_eq!(d.clusters, vec![vec![0, 1, 2, 3]]);
        assert_eq!(d.scores, vec![0.0; 4]);
        assert_eq!(d.aligned_intervals, 1);
        assert!(d.is_uniform());
    }

    #[test]
    fn ragged_windows_compare_on_their_common_range() {
        let cfg = DiagnoseConfig::default();
        // Different first and next indices, overlapping on 8..16.
        let overlapping = [
            stream(0, 0..24, 0..0),
            stream(1, 4..24, 0..0),
            stream(2, 0..20, 0..0),
            stream(3, 8..16, 0..0),
        ];
        let d = diagnose(&cfg, &overlapping, None).unwrap();
        assert_eq!(d.aligned_intervals, 8);
        assert_eq!(d.clusters, vec![vec![0, 1, 2, 3]]);
        assert!(d.is_uniform());

        // Node 2's window shares no index with the others: it sits at the
        // maximum distance, is the only outlier, and has no range to flag.
        let disjoint = [stream(0, 0..8, 0..0), stream(1, 0..8, 0..0), stream(2, 16..24, 0..0)];
        let telemetry = [NodeTelemetry::default(); 3];
        let d = diagnose(&cfg, &disjoint, Some(&telemetry)).unwrap();
        assert_eq!(d.aligned_intervals, 0);
        assert_eq!(d.clusters, vec![vec![0, 1], vec![2]]);
        assert_eq!(d.majority_nodes(), &[0, 1]);
        assert_eq!(d.outliers.len(), 1);
        assert_eq!((d.outliers[0].node, d.outliers[0].flagged), (2, None));
        assert_eq!(d.outliers[0].hints[0].kind, HintKind::Unknown);
        assert_eq!(d.scores, vec![0.5, 0.5, 1.0]);
    }
}
