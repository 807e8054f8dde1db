//! Phase predictors — the paper's stated future-work direction
//! ("combining the insights derived from our study with appropriate phase
//! prediction mechanisms").
//!
//! Two classic designs are provided:
//!
//! * [`LastPhasePredictor`] — predicts the next interval repeats the current
//!   phase (surprisingly strong because phases are runs).
//! * [`RlePredictor`] — Sherwood et al.'s run-length-encoding Markov
//!   predictor: indexed by (current phase, current run length), learns what
//!   phase follows a run of a given length.

use serde::{Deserialize, Serialize};

use dsm_sim::util::FxHashMap;

/// A phase predictor consumes the classified phase stream one interval at a
/// time and predicts the next interval's phase.
pub trait PhasePredictor {
    /// Predict the phase of the *next* interval given history so far.
    fn predict(&self) -> Option<u32>;
    /// Observe the phase of the interval that actually occurred.
    fn observe(&mut self, phase: u32);
    /// Accuracy bookkeeping: predictions made and correct.
    fn stats(&self) -> (u64, u64);
}

/// Measure a predictor's accuracy over a classified phase stream.
pub fn accuracy_over(predictor: &mut dyn PhasePredictor, phases: &[u32]) -> f64 {
    for &p in phases {
        predictor.observe(p);
    }
    let (made, correct) = predictor.stats();
    if made == 0 {
        0.0
    } else {
        correct as f64 / made as f64
    }
}

/// Predicts the last observed phase continues.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LastPhasePredictor {
    last: Option<u32>,
    made: u64,
    correct: u64,
}

impl LastPhasePredictor {
    pub fn new() -> Self {
        Self::default()
    }
}

impl PhasePredictor for LastPhasePredictor {
    fn predict(&self) -> Option<u32> {
        self.last
    }

    fn observe(&mut self, phase: u32) {
        if let Some(pred) = self.last {
            self.made += 1;
            if pred == phase {
                self.correct += 1;
            }
        }
        self.last = Some(phase);
    }

    fn stats(&self) -> (u64, u64) {
        (self.made, self.correct)
    }
}

/// Run-length-encoding Markov predictor (Sherwood et al., "Phase Tracking
/// and Prediction"): a table keyed by (phase id, run length) records the
/// phase that followed last time. Falls back to last-phase when the key has
/// not been seen.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlePredictor {
    #[serde(skip)]
    table: FxHashMap<(u32, u32), u32>,
    current: Option<u32>,
    run_len: u32,
    max_run_key: u32,
    made: u64,
    correct: u64,
}

impl RlePredictor {
    /// `max_run_key` caps the run length used in the table key (hardware
    /// would use a few bits; 64 is generous).
    pub fn new(max_run_key: u32) -> Self {
        assert!(max_run_key > 0);
        Self {
            table: FxHashMap::default(),
            current: None,
            run_len: 0,
            max_run_key,
            made: 0,
            correct: 0,
        }
    }

    fn key(&self) -> Option<(u32, u32)> {
        self.current.map(|p| (p, self.run_len.min(self.max_run_key)))
    }
}

impl PhasePredictor for RlePredictor {
    fn predict(&self) -> Option<u32> {
        let key = self.key()?;
        Some(*self.table.get(&key).unwrap_or(&key.0))
    }

    fn observe(&mut self, phase: u32) {
        if let Some(pred) = self.predict() {
            self.made += 1;
            if pred == phase {
                self.correct += 1;
            }
        }
        if let Some(key) = self.key() {
            // Learn what followed this (phase, run-length) state.
            self.table.insert(key, phase);
        }
        match self.current {
            Some(p) if p == phase => self.run_len += 1,
            _ => {
                self.current = Some(phase);
                self.run_len = 1;
            }
        }
    }

    fn stats(&self) -> (u64, u64) {
        (self.made, self.correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_phase_is_perfect_on_constant_stream() {
        let mut p = LastPhasePredictor::new();
        let acc = accuracy_over(&mut p, &[1; 100]);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn last_phase_misses_every_transition() {
        let mut p = LastPhasePredictor::new();
        // Alternating stream: last-phase is always wrong.
        let stream: Vec<u32> = (0..100).map(|i| i % 2).collect();
        let acc = accuracy_over(&mut p, &stream);
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn rle_learns_periodic_pattern() {
        // Pattern: 5 of phase A, 3 of phase B, repeated. After one period
        // the RLE predictor knows that a run of 5 As is followed by B and a
        // run of 3 Bs by A; last-phase keeps missing transitions.
        let mut stream = Vec::new();
        for _ in 0..20 {
            stream.extend_from_slice(&[0, 0, 0, 0, 0, 1, 1, 1]);
        }
        let mut rle = RlePredictor::new(64);
        let rle_acc = accuracy_over(&mut rle, &stream);
        let mut last = LastPhasePredictor::new();
        let last_acc = accuracy_over(&mut last, &stream);
        assert!(
            rle_acc > last_acc,
            "RLE {rle_acc} must beat last-phase {last_acc} on periodic input"
        );
        assert!(rle_acc > 0.95, "RLE should be near-perfect, got {rle_acc}");
    }

    #[test]
    fn rle_falls_back_to_last_phase_when_untrained() {
        let mut p = RlePredictor::new(8);
        p.observe(3);
        assert_eq!(p.predict(), Some(3));
    }

    #[test]
    fn empty_stream_has_zero_accuracy() {
        let mut p = LastPhasePredictor::new();
        assert_eq!(accuracy_over(&mut p, &[]), 0.0);
        let mut r = RlePredictor::new(8);
        assert_eq!(accuracy_over(&mut r, &[]), 0.0);
    }

    #[test]
    fn run_length_caps_at_max_key() {
        let mut p = RlePredictor::new(2);
        for _ in 0..10 {
            p.observe(1);
        }
        // Does not panic and still predicts the run continues.
        assert_eq!(p.predict(), Some(1));
    }
}
