//! gshare branch predictor (2 048-entry in Table I).
//!
//! Classic gshare: the prediction table of 2-bit saturating counters is
//! indexed by `PC XOR global-history`. The simulator calls
//! [`Gshare::predict_and_update`] once per committed basic block (each block
//! ends in one branch) and charges the mispredict penalty when the
//! prediction was wrong.

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter(u8);

impl Counter {
    const WEAKLY_NOT_TAKEN: Counter = Counter(1);

    #[inline]
    fn taken(self) -> bool {
        self.0 >= 2
    }

    #[inline]
    fn update(&mut self, taken: bool) {
        if taken {
            if self.0 < 3 {
                self.0 += 1;
            }
        } else if self.0 > 0 {
            self.0 -= 1;
        }
    }
}

/// gshare predictor state for one processor.
pub struct Gshare {
    table: Vec<Counter>,
    mask: u64,
    history: u64,
    history_bits: u32,
    predictions: u64,
    mispredictions: u64,
}

impl Gshare {
    /// `entries` must be a power of two (2 048 in the paper).
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two() && entries > 0);
        let history_bits = entries.trailing_zeros();
        Self {
            table: vec![Counter::WEAKLY_NOT_TAKEN; entries],
            mask: entries as u64 - 1,
            history: 0,
            history_bits,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predict the branch at `pc`, observe the real `taken` outcome, update
    /// the counters and history, and return whether the prediction was
    /// correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = ((pc ^ self.history) & self.mask) as usize;
        let predicted = self.table[idx].taken();
        self.table[idx].update(taken);
        self.history = ((self.history << 1) | taken as u64) & ((1 << self.history_bits) - 1);
        self.predictions += 1;
        let correct = predicted == taken;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate in \[0, 1\]; 0 when no branches have been seen.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Export the predictor state for checkpointing (the counter table as
    /// raw bytes plus history and counters; mask/history width are derived
    /// from the table size).
    pub fn export_state(&self) -> crate::state::GshareState {
        crate::state::GshareState {
            table: self.table.iter().map(|c| c.0).collect(),
            history: self.history,
            predictions: self.predictions,
            mispredictions: self.mispredictions,
        }
    }

    /// Whether `st` holds one counter per entry of this predictor's table.
    pub fn fits(&self, st: &crate::state::GshareState) -> bool {
        st.table.len() == self.table.len()
    }

    /// Restore state captured by [`Gshare::export_state`] on a predictor
    /// with the same table size.
    pub fn import_state(&mut self, st: &crate::state::GshareState) {
        assert!(self.fits(st), "gshare size mismatch");
        for (c, &b) in self.table.iter_mut().zip(&st.table) {
            debug_assert!(b <= 3, "2-bit counter out of range");
            *c = Counter(b);
        }
        self.history = st.history;
        self.predictions = st.predictions;
        self.mispredictions = st.mispredictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken_branch() {
        let mut g = Gshare::new(2048);
        // After warm-up, a monomorphic branch should predict correctly.
        for _ in 0..16 {
            g.predict_and_update(0x400, true);
        }
        let before = g.mispredictions();
        for _ in 0..100 {
            assert!(g.predict_and_update(0x400, true));
        }
        assert_eq!(g.mispredictions(), before);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut g = Gshare::new(2048);
        // T,N,T,N... is perfectly predictable with one bit of history.
        let mut taken = true;
        for _ in 0..64 {
            g.predict_and_update(0x88, taken);
            taken = !taken;
        }
        let before = g.mispredictions();
        for _ in 0..100 {
            g.predict_and_update(0x88, taken);
            taken = !taken;
        }
        assert_eq!(g.mispredictions(), before, "pattern should be learned");
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter(0);
        c.update(false);
        assert_eq!(c, Counter(0));
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c, Counter(3));
        assert!(c.taken());
    }

    #[test]
    fn rate_accounts_all_predictions() {
        let mut g = Gshare::new(64);
        for i in 0..50 {
            g.predict_and_update(i * 8, i % 3 == 0);
        }
        assert_eq!(g.predictions(), 50);
        let r = g.mispredict_rate();
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    fn fresh_predictor_rate_is_zero() {
        assert_eq!(Gshare::new(16).mispredict_rate(), 0.0);
    }
}
