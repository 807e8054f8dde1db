//! The §II phase-adaptive tuning loop: "a reconfiguration module tunes the
//! system based on this prediction, by trying different hardware
//! configurations at different intervals that belong to the same phase.
//! Once tuning is complete, the best configuration is selected, and
//! subsequently applied whenever that phase is predicted."
//!
//! This module closes the loop the paper motivates but does not simulate:
//! it takes a *classified* interval stream (phase id + base cycles per
//! interval) and a space of hardware configurations with phase-dependent
//! performance, runs the trial-and-error tuning protocol, and reports the
//! cost against an oracle and an untuned baseline. Two effects emerge,
//! both quantified by the paper's metrics:
//!
//! * **more phases → more tuning intervals** (each new phase pays
//!   `n_configs × trials_per_config` exploratory intervals);
//! * **heterogeneous phases → bad locked configurations** (a phase whose
//!   intervals differ wildly — high CoV — locks a config measured on
//!   unrepresentative intervals and mispredicts the rest).
//!
//! The trial/lock state machine is `dsm_adapt::Protocol`, the same one the
//! live machine loop runs. The pipelines here are cost-surface drivers:
//! they charge each interval [`config_multiplier`] for the configuration in
//! force and hand that cost back to the protocol as the trial score.

use dsm_adapt::{Decision, DecisionKind, Protocol};
pub use dsm_adapt::TuningPolicy;
use dsm_sim::util::splitmix64;
use serde::{Deserialize, Serialize};

/// The hidden performance surface: multiplier applied to an interval's base
/// cycles when configuration `c` runs during phase-ground `g`.
///
/// `g` is a *behavioural* key (we use the interval's CPI bucket), not the
/// detector's phase id — the detector only controls *when to re-tune* and
/// *which intervals share a locked config*; whether that config actually
/// fits is decided by the interval's real behaviour.
pub fn config_multiplier(behaviour: u64, config: usize) -> f64 {
    // Deterministic surface: each behaviour bucket has one best config
    // (multiplier 0.85) and the rest spread up to 1.30.
    let r = splitmix64(behaviour.wrapping_mul(0x9e37) ^ config as u64) % 1000;
    let best = (splitmix64(behaviour) % 4) as usize == config % 4;
    if best {
        0.85
    } else {
        1.0 + 0.3 * (r as f64 / 1000.0)
    }
}

/// Behaviour bucket of an interval (CPI quantized to half-integers).
pub fn behaviour_of(cpi: f64) -> u64 {
    (cpi * 2.0).round().max(0.0) as u64
}

/// Outcome of running the tuning protocol over one classified stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningOutcome {
    pub total_intervals: usize,
    /// Intervals spent in trial-and-error exploration.
    pub tuning_intervals: usize,
    /// Total cycles with phase-guided tuning.
    pub tuned_cycles: f64,
    /// Total cycles if every interval ran its true best configuration.
    pub oracle_cycles: f64,
    /// Total cycles under the default configuration (no tuning).
    pub untuned_cycles: f64,
}

impl TuningOutcome {
    fn new(total_intervals: usize) -> Self {
        Self {
            total_intervals,
            tuning_intervals: 0,
            tuned_cycles: 0.0,
            oracle_cycles: 0.0,
            untuned_cycles: 0.0,
        }
    }

    /// Charge one interval of `cpi × insns` base cycles that ran under
    /// `config`, plus its oracle and untuned costs. Returns `config`'s
    /// multiplier, which scaled by `cpi` is the cost the protocol scores.
    fn charge(&mut self, policy: TuningPolicy, cpi: f64, insns: u64, config: usize) -> f64 {
        let base = cpi * insns as f64;
        let behaviour = behaviour_of(cpi);
        // Oracle: best config for this interval's true behaviour.
        let oracle = (0..policy.n_configs)
            .map(|c| config_multiplier(behaviour, c))
            .fold(f64::INFINITY, f64::min);
        self.oracle_cycles += base * oracle;
        self.untuned_cycles += base * config_multiplier(behaviour, 0);
        let m = config_multiplier(behaviour, config);
        self.tuned_cycles += base * m;
        m
    }

    /// Fraction of intervals spent tuning (the CoV-curve x-axis variant).
    pub fn tuning_fraction(&self) -> f64 {
        if self.total_intervals == 0 {
            0.0
        } else {
            self.tuning_intervals as f64 / self.total_intervals as f64
        }
    }

    /// Tuned cost normalized to the oracle (1.0 = perfect).
    pub fn vs_oracle(&self) -> f64 {
        if self.oracle_cycles == 0.0 {
            1.0
        } else {
            self.tuned_cycles / self.oracle_cycles
        }
    }

    /// Speedup over never tuning (>1.0 means tuning helped).
    pub fn speedup_vs_untuned(&self) -> f64 {
        if self.tuned_cycles == 0.0 {
            1.0
        } else {
            self.untuned_cycles / self.tuned_cycles
        }
    }
}

/// The configuration `phase` runs now; a phase the protocol has never
/// observed runs the default configuration 0.
fn config_in_force(protocol: &Protocol, phase: u32) -> usize {
    match protocol.current(phase) {
        Some(DecisionKind::Trial { config } | DecisionKind::Lock { config }) => config,
        None => 0,
    }
}

/// One classified interval as the abstract pipeline consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningInterval {
    /// Global interval index (decision-log coordinate).
    pub index: u64,
    pub phase: u32,
    pub cpi: f64,
    pub insns: u64,
    /// Classification fell back past the DDS staleness bound. Degraded
    /// intervals still execute (their cycles are charged under whatever
    /// configuration is in force) but are **never spent as tuning
    /// trials**: a measurement the detector itself distrusts must not
    /// inform the locked choice.
    pub degraded: bool,
}

/// Run the §II tuning protocol over a classified interval stream and
/// return the outcome plus the decision log. This is the canonical entry
/// point; [`run_tuning`] is the degradation-free wrapper.
///
/// The decision log is `dsm_adapt::Protocol`'s, so it is directly
/// comparable (via [`Decision::key`]) with the one a concrete
/// `dsm_adapt::AdaptSession` emits on the same classified stream — the
/// transition structure is positional, so the two pipelines agree even
/// though they score trials differently.
pub fn run_tuning_stream(
    stream: &[TuningInterval],
    policy: TuningPolicy,
) -> (TuningOutcome, Vec<Decision>) {
    let mut protocol = Protocol::new(policy);
    let mut out = TuningOutcome::new(stream.len());
    for &TuningInterval { index, phase, cpi, insns, degraded } in stream {
        // A degraded interval runs (and is charged) under the configuration
        // in force, but the protocol skips it.
        let m = out.charge(policy, cpi, insns, config_in_force(&protocol, phase));
        protocol.observe(index, phase, m * cpi, degraded);
    }
    let decisions = protocol.decisions().to_vec();
    out.tuning_intervals =
        decisions.iter().filter(|d| matches!(d.kind, DecisionKind::Trial { .. })).count();
    (out, decisions)
}

/// Run the §II tuning protocol over a fully-reliable classified interval
/// stream (`(phase_id, cpi, insns)` per interval in order).
pub fn run_tuning(stream: &[(u32, f64, u64)], policy: TuningPolicy) -> TuningOutcome {
    let stream: Vec<TuningInterval> = stream
        .iter()
        .enumerate()
        .map(|(i, &(phase, cpi, insns))| TuningInterval {
            index: i as u64,
            phase,
            cpi,
            insns,
            degraded: false,
        })
        .collect();
    run_tuning_stream(&stream, policy).0
}

/// Run the full §II pipeline: detector output feeds a *phase predictor*,
/// and each interval runs the configuration locked for the **predicted**
/// phase (the paper: "a reconfiguration module tunes the system based on
/// this prediction"). A mispredicted phase executes under the wrong
/// phase's configuration — so predictor accuracy now costs real cycles,
/// closing the loop the paper's conclusions call for.
pub fn run_tuning_predicted(
    stream: &[(u32, f64, u64)],
    policy: TuningPolicy,
    predictor: &mut dyn dsm_phase::predictor::PhasePredictor,
) -> TuningOutcome {
    let mut protocol = Protocol::new(policy);
    let mut out = TuningOutcome::new(stream.len());
    for (index, &(phase, cpi, insns)) in stream.iter().enumerate() {
        // The hardware applies the configuration of the *predicted* phase
        // (the default config when nothing is known about it yet).
        let predicted = predictor.predict().unwrap_or(phase);
        let run_config = config_in_force(&protocol, predicted);
        if !matches!(protocol.current(phase), Some(DecisionKind::Lock { .. })) {
            out.tuning_intervals += 1;
        }
        let m = out.charge(policy, cpi, insns, run_config);
        // Tuning progress is tracked against the *actual* phase, and only a
        // measurement taken under the phase's own trial config informs its
        // selection: any other interval is a spectator.
        let spectator = run_config != config_in_force(&protocol, phase);
        protocol.observe(index as u64, phase, m * cpi, spectator);
        predictor.observe(phase);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_phase::predictor::{LastPhasePredictor, Markov2Predictor, PhasePredictor, RlePredictor};

    fn constant_stream(phase: u32, cpi: f64, n: usize) -> Vec<(u32, f64, u64)> {
        vec![(phase, cpi, 1000); n]
    }

    #[test]
    fn homogeneous_phase_converges_to_oracle() {
        let stream = constant_stream(0, 1.0, 200);
        let out = run_tuning(&stream, TuningPolicy::default());
        // After 4 tuning intervals, every interval runs the best config.
        assert_eq!(out.tuning_intervals, 4);
        assert!(
            out.vs_oracle() < 1.02,
            "homogeneous phase must almost reach oracle, got {}",
            out.vs_oracle()
        );
    }

    #[test]
    fn more_phases_mean_more_tuning() {
        let few: Vec<_> = (0..200).map(|i| ((i / 100) as u32, 1.0, 1000u64)).collect();
        let many: Vec<_> = (0..200).map(|i| ((i % 50) as u32, 1.0, 1000u64)).collect();
        let pol = TuningPolicy::default();
        let a = run_tuning(&few, pol);
        let b = run_tuning(&many, pol);
        assert!(b.tuning_intervals > a.tuning_intervals);
        assert!(b.tuning_fraction() > a.tuning_fraction());
    }

    #[test]
    fn heterogeneous_phase_locks_a_worse_config() {
        // One detector phase containing two very different behaviours (the
        // high-CoV failure mode) vs two clean phases.
        let mixed: Vec<(u32, f64, u64)> = (0..400)
            .map(|i| (0u32, if i % 2 == 0 { 0.5 } else { 4.0 }, 1000u64))
            .collect();
        let split: Vec<(u32, f64, u64)> = (0..400)
            .map(|i| {
                if i % 2 == 0 {
                    (0u32, 0.5, 1000u64)
                } else {
                    (1u32, 4.0, 1000u64)
                }
            })
            .collect();
        let pol = TuningPolicy::default();
        let a = run_tuning(&mixed, pol);
        let b = run_tuning(&split, pol);
        assert!(
            b.vs_oracle() <= a.vs_oracle(),
            "splitting heterogeneous behaviour must not hurt: {} vs {}",
            b.vs_oracle(),
            a.vs_oracle()
        );
    }

    #[test]
    fn tuning_beats_never_tuning_on_long_runs() {
        let stream = constant_stream(0, 2.0, 500);
        let out = run_tuning(&stream, TuningPolicy::default());
        // Unless config 0 happens to be best for this behaviour, tuning
        // wins; in either case it must not lose by more than the trial cost.
        assert!(out.speedup_vs_untuned() > 0.95);
    }

    #[test]
    fn empty_stream() {
        let out = run_tuning(&[], TuningPolicy::default());
        assert_eq!(out.total_intervals, 0);
        assert_eq!(out.tuning_fraction(), 0.0);
        assert_eq!(out.vs_oracle(), 1.0);
    }

    #[test]
    fn predicted_tuning_matches_reactive_on_constant_stream() {
        // With one phase, prediction is trivially right and the two
        // pipelines coincide (after warm-up effects smaller than a trial).
        let stream = constant_stream(0, 1.5, 300);
        let pol = TuningPolicy::default();
        let reactive = run_tuning(&stream, pol);
        let mut pred = LastPhasePredictor::new();
        let predicted = run_tuning_predicted(&stream, pol, &mut pred);
        let rel = (predicted.tuned_cycles - reactive.tuned_cycles).abs() / reactive.tuned_cycles;
        assert!(
            rel < 0.02,
            "constant stream: pipelines must agree, rel {rel}"
        );
    }

    #[test]
    fn better_predictor_costs_fewer_cycles_on_periodic_phases() {
        // Periodic phases with different behaviours: the RLE predictor
        // anticipates transitions (right config on the first interval of
        // each run); last-phase is always one interval late.
        let mut stream = Vec::new();
        for _ in 0..60 {
            stream.extend(constant_stream(0, 0.5, 5));
            stream.extend(constant_stream(1, 4.0, 3));
        }
        let pol = TuningPolicy::default();
        let mut last = LastPhasePredictor::new();
        let with_last = run_tuning_predicted(&stream, pol, &mut last);
        let mut rle = RlePredictor::new(64);
        let with_rle = run_tuning_predicted(&stream, pol, &mut rle);
        assert!(
            with_rle.tuned_cycles <= with_last.tuned_cycles,
            "RLE prediction must not cost more: {} vs {}",
            with_rle.tuned_cycles,
            with_last.tuned_cycles
        );
    }

    #[test]
    fn predicted_tuning_never_beats_oracle() {
        let mut stream = Vec::new();
        for i in 0..200u32 {
            stream.push((i % 5, 0.5 + (i % 7) as f64, 1000u64));
        }
        let mut pred = RlePredictor::new(16);
        let out = run_tuning_predicted(&stream, TuningPolicy::default(), &mut pred);
        assert!(out.tuned_cycles >= out.oracle_cycles - 1e-6);
        assert_eq!(out.total_intervals, 200);
    }

    #[test]
    fn behaviour_bins_are_half_integer_cpi() {
        // behaviour_of quantizes CPI to half-integers: bucket = round(2·cpi).
        assert_eq!(behaviour_of(0.0), 0);
        assert_eq!(behaviour_of(0.24), 0);
        assert_eq!(behaviour_of(0.25), 1); // round-half-away-from-zero
        assert_eq!(behaviour_of(0.5), 1);
        assert_eq!(behaviour_of(0.74), 1);
        assert_eq!(behaviour_of(0.75), 2);
        assert_eq!(behaviour_of(1.0), 2);
        assert_eq!(behaviour_of(4.0), 8);
        // Negative CPI cannot occur, but the bucket clamps instead of
        // wrapping through the u64 cast.
        assert_eq!(behaviour_of(-3.0), 0);
    }

    #[test]
    fn vs_oracle_with_zero_cycle_oracle_is_neutral() {
        let out = TuningOutcome {
            total_intervals: 0,
            tuning_intervals: 0,
            tuned_cycles: 123.0,
            oracle_cycles: 0.0,
            untuned_cycles: 0.0,
        };
        assert_eq!(out.vs_oracle(), 1.0);
        assert_eq!(out.speedup_vs_untuned(), 0.0);
    }

    #[test]
    fn tuning_interval_count_scales_with_policy() {
        // One phase pays exactly n_configs × trials_per_config exploratory
        // intervals before locking.
        let stream = constant_stream(0, 1.0, 100);
        let pol = TuningPolicy {
            n_configs: 3,
            trials_per_config: 2,
        };
        let out = run_tuning(&stream, pol);
        assert_eq!(out.tuning_intervals, 6);
        assert_eq!(out.total_intervals, 100);
    }

    #[test]
    fn unseen_predicted_phase_runs_default_config() {
        // A predictor naming a phase the protocol has never observed makes
        // the interval run config 0, whatever the actual phase is tuning.
        struct Phantom;
        impl PhasePredictor for Phantom {
            fn predict(&self) -> Option<u32> {
                Some(99)
            }
            fn observe(&mut self, _: u32) {}
            fn stats(&self) -> (u64, u64) {
                (0, 0)
            }
        }
        let stream = constant_stream(0, 1.0, 50);
        let out = run_tuning_predicted(&stream, TuningPolicy::default(), &mut Phantom);
        assert_eq!(out.tuned_cycles, out.untuned_cycles, "every interval ran config 0");
        // Phase 0 spends its config-0 trial, then never again runs its own
        // trial config, so it never locks.
        assert_eq!(out.tuning_intervals, 50);
    }

    #[test]
    fn predicted_tuning_on_empty_stream_is_neutral() {
        let mut pred = LastPhasePredictor::new();
        let out = run_tuning_predicted(&[], TuningPolicy::default(), &mut pred);
        assert_eq!(out.total_intervals, 0);
        assert_eq!(out.tuning_intervals, 0);
        assert_eq!(out.vs_oracle(), 1.0);
    }

    #[test]
    fn degraded_intervals_are_never_spent_as_trials() {
        // Regression: a degraded interval arriving mid-tuning used to be
        // consumed as a trial measurement. It must be charged (it ran) but
        // leave the tuning state untouched: same trial/lock structure as
        // the stream with the degraded interval removed.
        let pol = TuningPolicy::default();
        let mk = |degraded_at: Option<usize>| -> Vec<TuningInterval> {
            (0..20)
                .map(|i| TuningInterval {
                    index: i as u64,
                    phase: 0,
                    cpi: 1.0,
                    insns: 1000,
                    degraded: Some(i) == degraded_at,
                })
                .collect()
        };
        let (clean_out, clean_dec) = run_tuning_stream(&mk(None), pol);
        let (deg_out, deg_dec) = run_tuning_stream(&mk(Some(2)), pol);
        assert_eq!(clean_out.tuning_intervals, 4);
        assert_eq!(deg_out.tuning_intervals, 4, "degraded interval consumed a trial");
        // Trial configs in order are identical; only the interval indices
        // shift by the skip.
        let configs = |d: &[Decision]| {
            d.iter()
                .map(|d| match d.kind {
                    DecisionKind::Trial { config } => (0u8, config),
                    DecisionKind::Lock { config } => (1, config),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(configs(&clean_dec), configs(&deg_dec));
        // All 20 intervals were charged in both runs.
        assert_eq!(deg_out.total_intervals, clean_out.total_intervals);
        assert!(deg_out.tuned_cycles > 0.0);
        // A degraded interval before any tuning state exists runs the
        // default config and creates no phase entry.
        let lead: Vec<TuningInterval> = std::iter::once(TuningInterval {
            index: 0,
            phase: 9,
            cpi: 1.0,
            insns: 1000,
            degraded: true,
        })
        .collect();
        let (out, dec) = run_tuning_stream(&lead, pol);
        assert_eq!(out.tuning_intervals, 0);
        assert!(dec.is_empty());
        let untuned_only = out.untuned_cycles;
        assert_eq!(out.tuned_cycles, untuned_only, "unseen phase must run the default config");
    }

    #[test]
    fn decision_log_matches_protocol_shape() {
        // One phase, default policy: 4 trials then a lock at the same
        // interval as the last trial — the exact shape dsm_adapt::Protocol
        // emits, so the differential suite can compare keys 1:1.
        let stream: Vec<TuningInterval> = (0..6)
            .map(|i| TuningInterval { index: i as u64, phase: 0, cpi: 1.0, insns: 100, degraded: false })
            .collect();
        let (_, dec) = run_tuning_stream(&stream, TuningPolicy::default());
        assert_eq!(dec.len(), 5);
        assert_eq!(dec[3].key().0, dec[4].key().0, "lock shares the last trial's interval");
        assert!(matches!(dec[4].kind, DecisionKind::Lock { .. }));
    }

    /// A seeded classified stream and policy: up to 8 phases in runs, up to
    /// 300 intervals, 1-5 configs, 1-3 trials, up to 40% degraded.
    fn seeded_stream(seed: u64) -> (Vec<TuningInterval>, TuningPolicy) {
        let mut s = seed;
        let mut next = move || {
            s = splitmix64(s);
            s
        };
        let n_phases = 1 + next() % 8;
        let len = next() % 301;
        let policy = TuningPolicy {
            n_configs: 1 + (next() % 5) as usize,
            trials_per_config: 1 + (next() % 3) as usize,
        };
        let degraded_ppm = next() % 400_001;
        let mut phase = 0u64;
        let stream = (0..len)
            .map(|index| {
                if next() % 10 < 3 {
                    phase = next() % n_phases;
                }
                TuningInterval {
                    index,
                    phase: phase as u32,
                    cpi: 0.5 + 0.75 * phase as f64 + (next() % 1000) as f64 / 1000.0,
                    insns: 1000 + next() % 9000,
                    degraded: next() % 1_000_000 < degraded_ppm,
                }
            })
            .collect();
        (stream, policy)
    }

    /// FNV-1a over every bit of the outcome and every decision.
    fn outcome_digest(out: &TuningOutcome, decisions: &[Decision]) -> u64 {
        let mut words = vec![
            out.total_intervals as u64,
            out.tuning_intervals as u64,
            out.tuned_cycles.to_bits(),
            out.oracle_cycles.to_bits(),
            out.untuned_cycles.to_bits(),
        ];
        for d in decisions {
            let (kind, config) = match d.kind {
                DecisionKind::Trial { config } => (0, config),
                DecisionKind::Lock { config } => (1, config),
            };
            words.extend([d.interval, d.phase as u64, kind, config as u64]);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        crate::parallel::fnv1a64(&bytes)
    }

    #[test]
    fn tuning_outcomes_are_pinned() {
        // Bit patterns of every outcome and decision over 64 seeded
        // streams, for the stream pipeline and for the predicted pipeline
        // under each in-tree predictor.
        let streams: Vec<_> = (0..64u64).map(seeded_stream).collect();
        let mut degraded = 0;
        let mut locks = 0;
        let mut stream_digests = Vec::new();
        for (stream, policy) in &streams {
            let (out, dec) = run_tuning_stream(stream, *policy);
            degraded += stream.iter().filter(|t| t.degraded).count();
            locks += dec.iter().filter(|d| matches!(d.kind, DecisionKind::Lock { .. })).count();
            stream_digests.push(outcome_digest(&out, &dec));
        }
        assert!(degraded > 0 && locks > 0, "pin must cover degraded intervals and locks");
        let combine = |d: &[u64]| {
            crate::parallel::fnv1a64(&d.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
        };
        let predicted = |make: &dyn Fn() -> Box<dyn PhasePredictor>| {
            let digests: Vec<u64> = streams
                .iter()
                .map(|(stream, policy)| {
                    let plain: Vec<(u32, f64, u64)> =
                        stream.iter().map(|t| (t.phase, t.cpi, t.insns)).collect();
                    let out = run_tuning_predicted(&plain, *policy, make().as_mut());
                    outcome_digest(&out, &[])
                })
                .collect();
            combine(&digests)
        };
        assert_eq!(combine(&stream_digests), 0xa0eef2a9af3a19cb, "run_tuning_stream");
        assert_eq!(predicted(&|| Box::new(LastPhasePredictor::new())), 0x0491f44577fc851c, "last-phase");
        assert_eq!(predicted(&|| Box::new(RlePredictor::new(64))), 0xa109d31d8a6f96c8, "rle(64)");
        assert_eq!(predicted(&|| Box::new(Markov2Predictor::new())), 0x4fc4e79c9c00c262, "markov2");
    }

    #[test]
    fn multiplier_surface_is_deterministic_and_bounded() {
        for b in 0..20u64 {
            let mut best = f64::INFINITY;
            for c in 0..4 {
                let m = config_multiplier(b, c);
                assert!((0.8..=1.3).contains(&m));
                assert_eq!(m, config_multiplier(b, c));
                best = best.min(m);
            }
            assert_eq!(best, 0.85, "every behaviour has a best config");
        }
    }
}
