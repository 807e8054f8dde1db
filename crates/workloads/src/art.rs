//! Structural model of SPEC-OMP Art (ART2 neural-network image scanner).
//!
//! Scanfield positions are distributed round-robin across processors. Each
//! position runs the ART2 match cycle: F1 layer feature computation over a
//! local image window, an F2 match pass that reads *every* F2 neuron's
//! weight vector (weights are distributed across nodes neuron-by-neuron —
//! all-to-all read traffic), a lock-guarded global winner search, and — in
//! the learning epochs — a weight update that *writes to the winner's home
//! node*. Training object A activates winners in the low half of the F2
//! layer, object B in the high half, and the final recognition scan does no
//! updates at all: the write hot-spot moves across the machine over time
//! while the match-loop code stays identical, which is exactly the signal
//! the DDV captures and the BBV cannot.

use dsm_sim::event::{ChunkGen, Event};
use dsm_sim::util::splitmix64;

use crate::app::Workload;
use crate::emit;
use crate::inputs::ArtInput;
use crate::mem::{NodeAlloc, Region};

const BB_F1: u32 = 0x3000;
const BB_F2_MATCH: u32 = 0x3010;
const BB_F2_INNER: u32 = 0x3011;
const BB_WINNER: u32 = 0x3020;
const BB_UPDATE: u32 = 0x3030;
const BB_SCAN: u32 = 0x3040;

/// Cache lines per F2 neuron weight vector.
const WEIGHT_LINES: u64 = 16;
/// Scanfield positions per epoch (between barriers).
const EPOCH_POSITIONS: usize = 40;
/// Global lock id for the winner search.
const WINNER_LOCK: u32 = 0x30;

/// Workload stages over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Training on object A (winners in low F2 half, updates).
    TrainA,
    /// Training on object B (winners in high F2 half, updates).
    TrainB,
    /// Recognition scan (no updates).
    Scan,
}

pub struct Art {
    p: usize,
    input: ArtInput,
    /// One weight region per F2 neuron, homed at `neuron % p`.
    weights: Vec<Region>,
    /// Per-proc local image window.
    image: Vec<Region>,
    /// Shared winner scoreboard, homed at node 0.
    scoreboard: Region,
    epochs: usize,
    /// Per proc: the epoch in progress and the next scanfield position to
    /// consider in it.
    cursor: Vec<(usize, usize)>,
}

impl Art {
    pub fn new(p: usize, input: ArtInput) -> Self {
        assert!(p.is_power_of_two());
        assert!(input.f2_neurons >= 2);
        let mut alloc = NodeAlloc::new(p);
        let weights = (0..input.f2_neurons)
            .map(|f| alloc.alloc(f % p, WEIGHT_LINES * 32))
            .collect();
        let image = (0..p).map(|q| alloc.alloc(q, input.f1_lines * 32)).collect();
        let scoreboard = alloc.alloc(0, 32);
        let epochs = input.positions.div_ceil(EPOCH_POSITIONS);
        Self { p, input, weights, image, scoreboard, epochs, cursor: vec![(0, 0); p] }
    }

    /// The run stage a scanfield position belongs to: first third trains
    /// object A, second third object B, final third scans.
    pub fn stage_of(&self, position: usize) -> Stage {
        let third = self.input.positions / 3;
        if position < third {
            Stage::TrainA
        } else if position < 2 * third {
            Stage::TrainB
        } else {
            Stage::Scan
        }
    }

    /// Deterministic winner neuron for a position, biased into the stage's
    /// half of the F2 layer.
    pub fn winner_of(&self, position: usize) -> usize {
        let n2 = self.input.f2_neurons;
        let r = splitmix64(0xa27 ^ (position as u64)) as usize;
        match self.stage_of(position) {
            Stage::TrainA => r % (n2 / 2),
            Stage::TrainB => n2 / 2 + r % (n2 - n2 / 2),
            Stage::Scan => r % n2,
        }
    }

    /// Match-cycle repetitions (ART reset cycles) for a position.
    fn passes(&self, position: usize) -> usize {
        1 + (splitmix64(0xbeef ^ (position as u64)) % 4) as usize
    }

    /// Whether a training presentation ends in resonance (weight update);
    /// roughly half do, the rest reset. Deterministic per position.
    pub fn resonates(&self, position: usize) -> bool {
        splitmix64(0x77aa ^ (position as u64)).is_multiple_of(2)
    }

    fn emit_position(&self, buf: &mut Vec<Event>, proc: usize, position: usize) {
        let stage = self.stage_of(position);
        // F1 layer: local image window features.
        emit::read_region(buf, &self.image[proc]);
        emit::fp(buf, 4 * self.input.f1_lines as u32);
        emit::loop_burst(buf, BB_F1, 6 * self.input.f1_lines as u32);

        for _pass in 0..self.passes(position) {
            // F2 match: read every neuron's weights (distributed).
            for w in &self.weights {
                emit::read_region(buf, w);
                emit::fp(buf, 8 * WEIGHT_LINES as u32);
                emit::straight(buf, BB_F2_INNER, 12);
            }
            emit::loop_burst(buf, BB_F2_MATCH, 8 * self.input.f2_neurons as u32);

            // Winner search: global lock + scoreboard at node 0.
            buf.push(Event::Acquire { lock: WINNER_LOCK });
            emit::update_region(buf, &self.scoreboard);
            emit::straight(buf, BB_WINNER, 16);
            buf.push(Event::Release { lock: WINNER_LOCK });
        }

        match stage {
            Stage::TrainA | Stage::TrainB if self.resonates(position) => {
                // Resonance: update the active prefix of the winner's
                // weight vector at its home node (only the committed F1
                // features change, not the whole vector).
                let w = &self.weights[self.winner_of(position)];
                let lines = WEIGHT_LINES / 4;
                for i in 0..lines {
                    buf.push(Event::Mem { addr: w.line(i), write: false });
                    buf.push(Event::Mem { addr: w.line(i), write: true });
                }
                emit::fp(buf, 10 * lines as u32);
                emit::loop_burst(buf, BB_UPDATE, 4 * lines as u32);
            }
            Stage::TrainA | Stage::TrainB => {
                // Mismatch reset: no weight update this presentation.
                emit::loop_burst(buf, BB_SCAN, 24);
            }
            Stage::Scan => {
                // Recognition bookkeeping only.
                emit::loop_burst(buf, BB_SCAN, 40);
            }
        }
    }

    pub fn epochs(&self) -> usize {
        self.epochs
    }
}

impl ChunkGen for Art {
    fn n_procs(&self) -> usize {
        self.p
    }

    /// One owned position per call, then the epoch's barrier, so a
    /// chunk never holds more than one position's events.
    fn fill(&mut self, proc: usize, buf: &mut Vec<Event>) {
        let (epoch, next) = self.cursor[proc];
        if epoch >= self.epochs {
            return;
        }
        let hi = ((epoch + 1) * EPOCH_POSITIONS).min(self.input.positions);
        if let Some(position) = (next..hi).find(|s| s % self.p == proc) {
            self.emit_position(buf, proc, position);
            self.cursor[proc].1 = position + 1;
        } else {
            buf.push(Event::Barrier { id: epoch as u32 });
            self.cursor[proc] = (epoch + 1, hi);
        }
    }
}

impl Workload for Art {
    fn name(&self) -> &'static str {
        "Art"
    }
    fn input_desc(&self) -> String {
        crate::inputs::AppInput::Art(self.input).describe()
    }
    fn footprint(&self) -> Vec<Region> {
        let mut f = self.weights.clone();
        f.extend_from_slice(&self.image);
        f.push(self.scoreboard);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;
    use dsm_sim::addr::HOME_SHIFT;

    fn drain(w: &mut Art, proc: usize) -> Vec<Event> {
        let mut all = Vec::new();
        loop {
            let mut buf = Vec::new();
            w.fill(proc, &mut buf);
            if buf.is_empty() {
                break;
            }
            all.extend(buf);
        }
        all
    }

    #[test]
    fn stages_cover_run_in_order() {
        let a = Art::new(2, ArtInput::at(Scale::Test));
        let n = ArtInput::at(Scale::Test).positions;
        assert_eq!(a.stage_of(0), Stage::TrainA);
        assert_eq!(a.stage_of(n / 2), Stage::TrainB);
        assert_eq!(a.stage_of(n - 1), Stage::Scan);
    }

    #[test]
    fn winners_are_biased_by_stage() {
        let a = Art::new(4, ArtInput::at(Scale::Scaled));
        let n2 = ArtInput::at(Scale::Scaled).f2_neurons;
        let third = ArtInput::at(Scale::Scaled).positions / 3;
        for s in 0..third {
            assert!(a.winner_of(s) < n2 / 2, "TrainA winners in low half");
        }
        for s in third..2 * third {
            assert!(a.winner_of(s) >= n2 / 2, "TrainB winners in high half");
        }
    }

    #[test]
    fn match_reads_every_weight_home() {
        let a = Art::new(4, ArtInput::at(Scale::Test));
        let mut buf = Vec::new();
        a.emit_position(&mut buf, 1, 0);
        let homes: std::collections::HashSet<usize> = buf
            .iter()
            .filter_map(|e| match e {
                Event::Mem { addr, write: false } => Some((*addr >> HOME_SHIFT) as usize),
                _ => None,
            })
            .collect();
        assert_eq!(homes.len(), 4, "weights are spread over all 4 nodes");
    }

    #[test]
    fn scan_stage_emits_no_weight_writes() {
        let a = Art::new(2, ArtInput::at(Scale::Test));
        let n = ArtInput::at(Scale::Test).positions;
        let mut buf = Vec::new();
        a.emit_position(&mut buf, 0, n - 2); // scan stage
        // The only writes should be the scoreboard (winner search).
        let scoreboard_home0_writes = buf
            .iter()
            .filter(|e| matches!(e, Event::Mem { write: true, .. }))
            .count();
        assert!(scoreboard_home0_writes <= a.passes(n - 2));
    }

    #[test]
    fn locks_are_balanced() {
        let mut a = Art::new(2, ArtInput::at(Scale::Test));
        for p in 0..2 {
            let evs = drain(&mut a, p);
            let acq = evs.iter().filter(|e| matches!(e, Event::Acquire { .. })).count();
            let rel = evs.iter().filter(|e| matches!(e, Event::Release { .. })).count();
            assert_eq!(acq, rel);
            assert!(acq > 0);
        }
    }

    #[test]
    fn round_robin_position_assignment_is_disjoint_and_total() {
        let input = ArtInput::at(Scale::Test);
        let mut a = Art::new(4, input);
        // Count per-proc update bursts == owned training positions.
        let mut total_f1 = 0usize;
        for p in 0..4 {
            let evs = drain(&mut a, p);
            total_f1 += evs
                .iter()
                .filter(|e| matches!(e, Event::Block { bb: BB_F1, taken: false, .. }))
                .count();
        }
        assert_eq!(total_f1, input.positions, "every position processed exactly once");
    }

    #[test]
    fn weight_updates_match_resonant_training_positions_exactly() {
        let input = ArtInput::at(Scale::Test);
        let mut a = Art::new(4, input);
        let expected = (0..input.positions)
            .filter(|&s| {
                !matches!(Art::new(4, input).stage_of(s), Stage::Scan)
                    && Art::new(4, input).resonates(s)
            })
            .count();
        let mut updates = 0usize;
        for p in 0..4 {
            updates += drain(&mut a, p)
                .iter()
                .filter(|e| matches!(e, Event::Block { bb: BB_UPDATE, taken: false, .. }))
                .count();
        }
        assert_eq!(updates, expected);
    }

    #[test]
    fn barrier_sequences_agree() {
        let mut a = Art::new(4, ArtInput::at(Scale::Test));
        let seq = |evs: &[Event]| {
            evs.iter()
                .filter_map(|e| match e {
                    Event::Barrier { id } => Some(*id),
                    _ => None,
                })
                .collect::<Vec<u32>>()
        };
        let s0 = seq(&drain(&mut a, 0));
        for p in 1..4 {
            assert_eq!(seq(&drain(&mut a, p)), s0);
        }
        assert_eq!(s0.len(), a.epochs());
    }
}
