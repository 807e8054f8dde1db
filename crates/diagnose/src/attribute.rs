//! Root-cause attribution: join an outlier node against per-node telemetry
//! counters and rank the plausible explanations.
//!
//! The engine itself never sees a fault plan or a placement policy — only
//! the counters a production registry would hold anyway. Every rule
//! compares the outlier's counter against the *median of the majority
//! cluster* (the behavioural baseline the clustering just established) and
//! scores the relative excess; rules that clear [`DiagnoseConfig::attr_rel`]
//! are emitted in score order with the supporting counter deltas attached,
//! and a node no rule can explain gets an explicit [`HintKind::Unknown`]
//! rather than a silent omission.

use serde::{Deserialize, Serialize};

use crate::kernel::median;
use crate::DiagnoseConfig;

/// The ranked root-cause vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HintKind {
    /// The node itself ran slow (elevated memory-stall share with no
    /// remote-access skew): a transient slowdown epoch — DVFS dip, lagging
    /// NIC, co-scheduled daemon, or an injected straggler window.
    SlowdownEpoch,
    /// The node's remote-miss share is far above its peers': its working
    /// set lives on other nodes' homes.
    RemoteMissHotspot,
    /// Elevated degraded intervals / protocol retries: the node sits behind
    /// a faulty fabric path and its DDV gathers keep missing the deadline.
    FaultRetryStorm,
    /// The node's remote-miss share is far *below* peers running far more
    /// remote traffic — the classic serial-init + first-touch pathology
    /// where one node homes everyone's data.
    PlacementSkew,
    /// No rule cleared the threshold.
    Unknown,
}

impl HintKind {
    pub fn name(self) -> &'static str {
        match self {
            HintKind::SlowdownEpoch => "slowdown-epoch",
            HintKind::RemoteMissHotspot => "remote-miss-hotspot",
            HintKind::FaultRetryStorm => "fault-retry-storm",
            HintKind::PlacementSkew => "placement-skew",
            HintKind::Unknown => "unknown",
        }
    }
}

/// Per-node counters the attribution rules consume — all derivable from
/// the metrics registry / `SystemStats` of the run being diagnosed (shares
/// are ratios so machines of different length compare cleanly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeTelemetry {
    /// Remote-home share of L2 misses (`remote_home_misses / l2_misses`).
    pub remote_miss_share: f64,
    /// Share of cycles spent blocked at barriers/locks
    /// (`sync_wait_cycles / cycles`).
    pub barrier_stall_share: f64,
    /// Share of cycles exposed as memory stall (`mem_stall_cycles /
    /// cycles`).
    pub mem_stall_share: f64,
    /// Intervals whose DDS was classified degraded on this node.
    pub degraded_intervals: u64,
    /// Protocol retries attributed to this node's traffic.
    pub retries: u64,
    /// NACKs attributed to this node's traffic.
    pub nacks: u64,
    /// Reconfiguration events (DVFS transitions + page migrations) the
    /// adaptation layer applied while this node ran.
    pub reconfig_events: u64,
}

/// Why a telemetry slice cannot be joined against a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryError {
    /// The slice holds `len` entries for a fleet of `expected` nodes.
    Len { len: usize, expected: usize },
    /// `node`'s share `field` is NaN, infinite or negative. Shares are
    /// ratios of non-negative counts, and attribution takes medians of them.
    Share { node: usize, field: &'static str },
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::Len { len, expected } => {
                write!(f, "telemetry for {len} nodes, expected {expected}")
            }
            TelemetryError::Share { node, field } => {
                write!(f, "node {node} {field} is not a finite non-negative share")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Check that `telemetry` holds one entry per node of an `n_nodes` fleet,
/// each with finite non-negative shares.
pub fn check_telemetry(telemetry: &[NodeTelemetry], n_nodes: usize) -> Result<(), TelemetryError> {
    if telemetry.len() != n_nodes {
        return Err(TelemetryError::Len { len: telemetry.len(), expected: n_nodes });
    }
    for (node, t) in telemetry.iter().enumerate() {
        let shares = [
            ("remote_miss_share", t.remote_miss_share),
            ("barrier_stall_share", t.barrier_stall_share),
            ("mem_stall_share", t.mem_stall_share),
        ];
        if let Some(&(field, _)) = shares.iter().find(|(_, x)| !(x.is_finite() && *x >= 0.0)) {
            return Err(TelemetryError::Share { node, field });
        }
    }
    Ok(())
}

/// One ranked root-cause hypothesis with its supporting counter deltas
/// (`(counter name, outlier value − majority median)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hint {
    pub kind: HintKind,
    /// Relative excess over the majority baseline; higher = stronger.
    pub score: f64,
    pub evidence: Vec<(String, f64)>,
}

/// Rank the plausible root causes for outlier `node` against the majority
/// cluster's telemetry baseline. Always returns at least one hint
/// ([`HintKind::Unknown`] when nothing clears the threshold). `telemetry`
/// must pass [`check_telemetry`] for the fleet `node` and `majority` index.
pub fn attribute(
    cfg: &DiagnoseConfig,
    node: usize,
    telemetry: &[NodeTelemetry],
    majority: &[usize],
) -> Vec<Hint> {
    let own = telemetry[node];
    let peers: Vec<&NodeTelemetry> =
        majority.iter().filter(|&&m| m != node).map(|&m| &telemetry[m]).collect();
    if peers.is_empty() {
        return vec![Hint { kind: HintKind::Unknown, score: 0.0, evidence: Vec::new() }];
    }
    let med = |f: fn(&NodeTelemetry) -> f64| {
        median(&mut peers.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    let med_remote = med(|t| t.remote_miss_share);
    let med_barrier = med(|t| t.barrier_stall_share);
    let med_mem = med(|t| t.mem_stall_share);
    let med_degraded = med(|t| t.degraded_intervals as f64);
    let med_retries = med(|t| t.retries as f64);

    let mut hints: Vec<Hint> = Vec::new();

    // Fault/retry storm: this node's intervals keep degrading (its DDV rows
    // miss the collection deadline) or its traffic keeps retrying.
    let deg_excess = (own.degraded_intervals as f64 - med_degraded) / med_degraded.max(1.0);
    let retry_excess = (own.retries as f64 - med_retries) / med_retries.max(1.0);
    let storm = deg_excess.max(retry_excess);
    if storm > cfg.attr_rel {
        hints.push(Hint {
            kind: HintKind::FaultRetryStorm,
            score: storm,
            evidence: vec![
                ("degraded_intervals".into(), own.degraded_intervals as f64 - med_degraded),
                ("retries".into(), own.retries as f64 - med_retries),
                ("nacks".into(), own.nacks as f64),
            ],
        });
    }

    // Remote-miss hotspot: markedly more remote traffic than the peers.
    let remote_excess = (own.remote_miss_share - med_remote) / med_remote.max(0.05);
    if remote_excess > cfg.attr_rel {
        hints.push(Hint {
            kind: HintKind::RemoteMissHotspot,
            score: remote_excess,
            evidence: vec![
                ("remote_miss_share".into(), own.remote_miss_share - med_remote),
                ("mem_stall_share".into(), own.mem_stall_share - med_mem),
            ],
        });
    }

    // Placement skew: markedly *less* remote traffic than peers who are
    // paying heavily for remote homes — the data lives here.
    let placement = (med_remote - own.remote_miss_share) / med_remote.max(0.05);
    if placement > cfg.attr_rel && med_remote > 0.05 {
        hints.push(Hint {
            kind: HintKind::PlacementSkew,
            score: placement,
            evidence: vec![
                ("remote_miss_share".into(), own.remote_miss_share - med_remote),
                ("peer_remote_miss_share".into(), med_remote),
                ("reconfig_events".into(), own.reconfig_events as f64),
            ],
        });
    }

    // Slowdown epoch: the node's own memory stalls are elevated without a
    // remote-access explanation; peers waiting longer at barriers than the
    // laggard corroborates (they idle while it catches up).
    let mem_excess = (own.mem_stall_share - med_mem) / med_mem.max(0.05);
    if mem_excess > cfg.attr_rel && remote_excess <= cfg.attr_rel {
        hints.push(Hint {
            kind: HintKind::SlowdownEpoch,
            score: mem_excess,
            evidence: vec![
                ("mem_stall_share".into(), own.mem_stall_share - med_mem),
                ("peer_barrier_stall_share".into(), med_barrier - own.barrier_stall_share),
            ],
        });
    }

    if hints.is_empty() {
        return vec![Hint { kind: HintKind::Unknown, score: 0.0, evidence: Vec::new() }];
    }
    // Strongest first; equal scores rank by kind order for determinism.
    hints.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).expect("finite").then(a.kind.cmp(&b.kind))
    });
    hints
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> NodeTelemetry {
        NodeTelemetry {
            remote_miss_share: 0.6,
            barrier_stall_share: 0.1,
            mem_stall_share: 0.3,
            degraded_intervals: 0,
            retries: 0,
            nacks: 0,
            reconfig_events: 0,
        }
    }

    #[test]
    fn slow_node_attributes_to_slowdown_epoch() {
        let mut t = vec![base(); 4];
        t[2].mem_stall_share = 0.55; // self slow
        t[2].barrier_stall_share = 0.02; // everyone else waits for it
        let hints = attribute(&DiagnoseConfig::default(), 2, &t, &[0, 1, 3]);
        assert_eq!(hints[0].kind, HintKind::SlowdownEpoch);
        assert!(hints[0].score > 0.5);
        assert!(hints[0].evidence.iter().any(|(n, v)| n == "mem_stall_share" && *v > 0.2));
    }

    #[test]
    fn remote_heavy_node_attributes_to_hotspot() {
        let mut t = vec![base(); 4];
        t[1].remote_miss_share = 0.95;
        t[1].mem_stall_share = 0.5;
        let hints = attribute(&DiagnoseConfig::default(), 1, &t, &[0, 2, 3]);
        assert_eq!(hints[0].kind, HintKind::RemoteMissHotspot);
    }

    #[test]
    fn data_home_node_attributes_to_placement_skew() {
        let mut t = vec![base(); 4];
        for p in t.iter_mut().skip(1) {
            p.remote_miss_share = 0.9; // peers all miss remotely…
        }
        t[0].remote_miss_share = 0.05; // …into node 0's memory
        let hints = attribute(&DiagnoseConfig::default(), 0, &t, &[1, 2, 3]);
        assert_eq!(hints[0].kind, HintKind::PlacementSkew);
    }

    #[test]
    fn degraded_storm_attributes_to_fault_retry_storm() {
        let mut t = vec![base(); 4];
        t[3].degraded_intervals = 40;
        t[3].retries = 12;
        let hints = attribute(&DiagnoseConfig::default(), 3, &t, &[0, 1, 2]);
        assert_eq!(hints[0].kind, HintKind::FaultRetryStorm);
    }

    #[test]
    fn unremarkable_outlier_is_unknown() {
        let t = vec![base(); 4];
        let hints = attribute(&DiagnoseConfig::default(), 1, &t, &[0, 2, 3]);
        assert_eq!(hints, vec![Hint { kind: HintKind::Unknown, score: 0.0, evidence: vec![] }]);
    }
}
