//! The §II tuning protocol as a reusable state machine.
//!
//! "A reconfiguration module tunes the system based on this prediction, by
//! trying different hardware configurations at different intervals that
//! belong to the same phase. Once tuning is complete, the best configuration
//! is selected, and subsequently applied whenever that phase is predicted."
//!
//! [`Protocol`] is the per-phase trial/lock machine behind that sentence —
//! the only one in the workspace — decoupled from *how* configurations are
//! scored. Its callers are drivers that own the cost side: the concrete
//! [`crate::session::AdaptSession`] scores with CPI measured on the real
//! simulated machine, and the harness's abstract `adaptive` pipelines
//! charge each interval a synthetic cost multiplier for the configuration
//! [`Protocol::current`] reports and feed that cost back as the score. The
//! transition structure is **positional** — which config a phase trials
//! next and when it locks depend only on the order of non-degraded
//! arrivals of that phase, never on the scores — so every driver emits the
//! same decision sequence on the same classified stream (scores pick
//! *which* config locks, not *when*). The `adapt_equivalence` differential
//! suite pins this.
//!
//! Degraded intervals (DDS too stale, classification fell back to BBV-only)
//! are **never spent as tuning trials**: a trial measured on an interval the
//! detector itself distrusts would poison the locked choice. A degraded
//! arrival leaves every phase state untouched and emits no decision.

use serde::{Deserialize, Serialize};

use dsm_sim::util::FxHashMap;

/// Tuning-protocol knobs: how many configurations to explore per phase and
/// for how many intervals each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuningPolicy {
    pub n_configs: usize,
    pub trials_per_config: usize,
}

impl Default for TuningPolicy {
    fn default() -> Self {
        Self { n_configs: 4, trials_per_config: 1 }
    }
}

/// What the protocol decided at one interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecisionKind {
    /// The phase is still exploring: this interval was spent trialling
    /// `config`. Positional — config numbers always run 0..n_configs in
    /// order, independent of scores.
    Trial { config: usize },
    /// Tuning for the phase completed and `config` was locked. The locked
    /// number depends on the measured scores; differential comparisons
    /// against a differently-scored run compare [`Decision::key`] instead.
    Lock { config: usize },
}

/// One entry of the decision log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Global interval index the classified interval belonged to.
    pub interval: u64,
    /// Detector phase id the decision belongs to.
    pub phase: u32,
    pub kind: DecisionKind,
}

impl Decision {
    /// Score-independent projection: two runs of the protocol over the same
    /// `(phase, degraded)` stream produce identical key sequences no matter
    /// how trials are scored (the locked config number is the only
    /// score-dependent part of a decision).
    pub fn key(&self) -> (u64, u32, u8, usize) {
        match self.kind {
            DecisionKind::Trial { config } => (self.interval, self.phase, 0, config),
            DecisionKind::Lock { .. } => (self.interval, self.phase, 1, 0),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum PhaseState {
    Tuning { config: usize, trials_left: usize, best: (usize, f64), acc: f64, acc_n: usize },
    Locked(usize),
}

/// Serializable mirror of one phase's protocol state (DSMCKPT6 carries a
/// sorted vector of these so a resume continues mid-tuning bit-exactly).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PhaseStateSnap {
    Tuning {
        config: u64,
        trials_left: u64,
        best_config: u64,
        /// `f64::INFINITY` until the first config completes its trials.
        best_score: f64,
        acc: f64,
        acc_n: u64,
    },
    Locked { config: u64 },
}

/// One phase's snapshot entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSnap {
    pub phase: u32,
    pub state: PhaseStateSnap,
}

/// The per-phase trial/lock state machine plus its decision log.
#[derive(Debug, Clone)]
pub struct Protocol {
    policy: TuningPolicy,
    states: FxHashMap<u32, PhaseState>,
    decisions: Vec<Decision>,
    /// Phases that entered tuning (each pays the full exploration cost).
    retunes: u64,
}

impl Protocol {
    pub fn new(policy: TuningPolicy) -> Self {
        assert!(policy.n_configs >= 1 && policy.trials_per_config >= 1);
        Self { policy, states: FxHashMap::default(), decisions: Vec::new(), retunes: 0 }
    }

    pub fn policy(&self) -> TuningPolicy {
        self.policy
    }

    /// Decision log so far, in boundary order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Phases that entered the tuning protocol.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// The configuration `phase` runs now: `Trial { config }` while it is
    /// exploring, `Lock { config }` once tuned, `None` if the protocol has
    /// never observed it (degraded arrivals create no state).
    pub fn current(&self, phase: u32) -> Option<DecisionKind> {
        self.states.get(&phase).map(|s| match *s {
            PhaseState::Tuning { config, .. } => DecisionKind::Trial { config },
            PhaseState::Locked(config) => DecisionKind::Lock { config },
        })
    }

    /// Phases whose tuning has completed.
    pub fn locked_phases(&self) -> usize {
        self.states.values().filter(|s| matches!(s, PhaseState::Locked(_))).count()
    }

    /// Observe one classified interval: `score` is the measured cost of the
    /// configuration that phase is currently running (lower is better; the
    /// concrete loop passes the interval's CPI). Returns the configuration
    /// the machine should run while `phase` continues — the next trial
    /// config, or the locked one — or `None` for a degraded interval, which
    /// is skipped entirely: no state created, no trial consumed, no
    /// accumulator update, no decision (the machine keeps whatever
    /// configuration it is in).
    pub fn observe(&mut self, interval: u64, phase: u32, score: f64, degraded: bool) -> Option<usize> {
        if degraded {
            return None;
        }
        let policy = self.policy;
        let mut entered = false;
        let state = self.states.entry(phase).or_insert_with(|| {
            entered = true;
            PhaseState::Tuning {
                config: 0,
                trials_left: policy.trials_per_config,
                best: (0, f64::INFINITY),
                acc: 0.0,
                acc_n: 0,
            }
        });
        if entered {
            self.retunes += 1;
        }
        match state {
            PhaseState::Tuning { config, trials_left, best, acc, acc_n } => {
                self.decisions.push(Decision {
                    interval,
                    phase,
                    kind: DecisionKind::Trial { config: *config },
                });
                *acc += score;
                *acc_n += 1;
                *trials_left -= 1;
                if *trials_left == 0 {
                    let mean = *acc / *acc_n as f64;
                    if mean < best.1 {
                        *best = (*config, mean);
                    }
                    if *config + 1 < policy.n_configs {
                        *config += 1;
                        *trials_left = policy.trials_per_config;
                        *acc = 0.0;
                        *acc_n = 0;
                        Some(*config)
                    } else {
                        let locked = best.0;
                        *state = PhaseState::Locked(locked);
                        self.decisions.push(Decision {
                            interval,
                            phase,
                            kind: DecisionKind::Lock { config: locked },
                        });
                        Some(locked)
                    }
                } else {
                    Some(*config)
                }
            }
            PhaseState::Locked(c) => Some(*c),
        }
    }

    /// Export the per-phase states, sorted by phase id (deterministic
    /// encoding). The decision log is exported by the session, which owns
    /// the stream context.
    pub fn export_phases(&self) -> Vec<PhaseSnap> {
        let mut out: Vec<PhaseSnap> = self
            .states
            .iter()
            .map(|(&phase, st)| PhaseSnap {
                phase,
                state: match *st {
                    PhaseState::Tuning { config, trials_left, best, acc, acc_n } => {
                        PhaseStateSnap::Tuning {
                            config: config as u64,
                            trials_left: trials_left as u64,
                            best_config: best.0 as u64,
                            best_score: best.1,
                            acc,
                            acc_n: acc_n as u64,
                        }
                    }
                    PhaseState::Locked(c) => PhaseStateSnap::Locked { config: c as u64 },
                },
            })
            .collect();
        out.sort_unstable_by_key(|p| p.phase);
        out
    }

    /// Restore a protocol captured by [`Protocol::export_phases`] (plus the
    /// decision log and re-tune counter the session snapshot carries).
    pub fn import(policy: TuningPolicy, phases: &[PhaseSnap], decisions: Vec<Decision>, retunes: u64) -> Self {
        let mut p = Self::new(policy);
        for snap in phases {
            let st = match snap.state {
                PhaseStateSnap::Tuning { config, trials_left, best_config, best_score, acc, acc_n } => {
                    PhaseState::Tuning {
                        config: config as usize,
                        trials_left: trials_left as usize,
                        best: (best_config as usize, best_score),
                        acc,
                        acc_n: acc_n as usize,
                    }
                }
                PhaseStateSnap::Locked { config } => PhaseState::Locked(config as usize),
            };
            p.states.insert(snap.phase, st);
        }
        p.decisions = decisions;
        p.retunes = retunes;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_phase_trials_then_locks() {
        let mut p = Protocol::new(TuningPolicy::default());
        // Scores make config 2 the best.
        let scores = [3.0, 2.0, 1.0, 4.0];
        for (i, &s) in scores.iter().enumerate() {
            let cfg = p.observe(i as u64, 0, s, false);
            assert!(cfg.is_some());
        }
        // 4 trials + 1 lock.
        assert_eq!(p.decisions().len(), 5);
        assert_eq!(p.decisions()[4].kind, DecisionKind::Lock { config: 2 });
        assert_eq!(p.locked_phases(), 1);
        assert_eq!(p.retunes(), 1);
        // Subsequent intervals run the locked config, no new decisions.
        assert_eq!(p.observe(9, 0, 7.0, false), Some(2));
        assert_eq!(p.decisions().len(), 5);
    }

    #[test]
    fn current_reports_the_config_in_force() {
        let mut p = Protocol::new(TuningPolicy { n_configs: 2, trials_per_config: 1 });
        assert_eq!(p.current(5), None);
        p.observe(0, 5, 1.0, true);
        assert_eq!(p.current(5), None, "a degraded arrival creates no state");
        p.observe(1, 5, 2.0, false);
        assert_eq!(p.current(5), Some(DecisionKind::Trial { config: 1 }));
        p.observe(2, 5, 1.0, false);
        assert_eq!(p.current(5), Some(DecisionKind::Lock { config: 1 }));
    }

    #[test]
    fn degraded_intervals_are_skipped_entirely() {
        let mut p = Protocol::new(TuningPolicy::default());
        assert_eq!(p.observe(0, 0, 1.0, true), None);
        // The degraded interval created no state at all.
        assert_eq!(p.retunes(), 0);
        assert!(p.decisions().is_empty());
        // Mid-tuning degradation neither consumes a trial nor pollutes the
        // accumulator: the decision sequence is what it would have been
        // without the degraded interval.
        for i in 0..2 {
            p.observe(1 + i, 0, 1.0, false);
        }
        assert_eq!(p.observe(3, 0, 1000.0, true), None);
        for i in 0..2 {
            p.observe(4 + i, 0, 1.0, false);
        }
        let trials: Vec<usize> = p
            .decisions()
            .iter()
            .filter_map(|d| match d.kind {
                DecisionKind::Trial { config } => Some(config),
                _ => None,
            })
            .collect();
        assert_eq!(trials, vec![0, 1, 2, 3]);
        assert_eq!(p.locked_phases(), 1);
    }

    #[test]
    fn transition_structure_is_score_independent() {
        let stream = [(0u32, false), (1, false), (0, true), (0, false), (1, false), (0, false), (0, false), (1, false), (1, false)];
        let run = |scores: &dyn Fn(u64) -> f64| {
            let mut p = Protocol::new(TuningPolicy::default());
            for (i, &(phase, degraded)) in stream.iter().enumerate() {
                p.observe(i as u64, phase, scores(i as u64), degraded);
            }
            p.decisions().iter().map(Decision::key).collect::<Vec<_>>()
        };
        let a = run(&|i| i as f64);
        let b = run(&|i| 1000.0 - i as f64);
        assert_eq!(a, b, "decision keys must not depend on scores");
    }

    #[test]
    fn snapshot_roundtrip_mid_tuning() {
        let mut p = Protocol::new(TuningPolicy { n_configs: 3, trials_per_config: 2 });
        for i in 0..3 {
            p.observe(i, 7, 2.0 + i as f64, false);
        }
        let phases = p.export_phases();
        let back = Protocol::import(p.policy(), &phases, p.decisions().to_vec(), p.retunes());
        // Continuing both must agree exactly.
        let mut a = p.clone();
        let mut b = back;
        for i in 3..10 {
            assert_eq!(a.observe(i, 7, 1.5, false), b.observe(i, 7, 1.5, false));
        }
        assert_eq!(a.decisions(), b.decisions());
    }
}
