//! Structural model of SPLASH-2 blocked dense LU factorization.
//!
//! The matrix is partitioned into B×B blocks owned by processors in a 2-D
//! scatter decomposition (as in SPLASH-2's contiguous LU); each block is a
//! contiguous region homed at its owner. Factorization step `k` has three
//! sub-phases separated by barriers:
//!
//! 1. **Diagonal** — the owner of block (k,k) factorizes it;
//! 2. **Perimeter** — owners of row/column-k blocks apply the diagonal
//!    block (one remote read of the diagonal block each);
//! 3. **Interior** — owners of blocks (i,j), i,j > k update them with the
//!    perimeter blocks (i,k) and (k,j) — two likely-remote block reads per
//!    update, with the *set of remote homes rotating as k advances* and the
//!    active window shrinking.
//!
//! The interior phase executes identical code for the whole run (one BBV
//! signature) while its data distribution, traffic volume, and contention
//! drift with `k` — precisely the behaviour the paper's DDV exists to
//! expose.

use dsm_sim::event::{ChunkGen, Event};

use crate::app::Workload;
use crate::emit;
use crate::inputs::LuInput;
use crate::mem::{NodeAlloc, Region};

// Basic-block addresses (distinct code regions of the LU kernels).
const BB_DIAG_OUTER: u32 = 0x1000;
const BB_DIAG_INNER: u32 = 0x1001;
const BB_BDIV: u32 = 0x1010;
const BB_BMOD_ROW: u32 = 0x1020;
const BB_INTERIOR_OUTER: u32 = 0x1030;
const BB_INTERIOR_INNER: u32 = 0x1031;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Diag,
    Perim,
    Interior,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct ProcState {
    k: usize,
    phase: Phase,
    /// Interior phase: the next block of the trailing submatrix to visit,
    /// row-major. Each `fill` emits one owned block update, so a stream
    /// buffers one block's events instead of the whole phase's (2 MiB per
    /// processor at 2 scaled nodes, a transient that stops fitting in a
    /// fragmented heap and raises a long run's peak memory).
    next: usize,
}

/// Blocked LU workload.
pub struct Lu {
    p: usize,
    nb: usize,
    b: usize,
    pr: usize,
    pc: usize,
    input: LuInput,
    blocks: Vec<Region>, // nb * nb, row-major
    state: Vec<ProcState>,
}

impl Lu {
    pub fn new(p: usize, input: LuInput) -> Self {
        assert!(p.is_power_of_two());
        assert_eq!(input.n % input.block, 0);
        let nb = input.n / input.block;
        assert!(nb >= 2, "need at least a 2x2 block grid");
        // 2-D scatter grid: pr x pc with pr <= pc, both powers of two.
        let logp = p.trailing_zeros();
        let pr = 1usize << (logp / 2);
        let pc = p / pr;

        let mut alloc = NodeAlloc::new(p);
        let block_bytes = (input.block * input.block * 8) as u64;
        let mut blocks = Vec::with_capacity(nb * nb);
        for i in 0..nb {
            for j in 0..nb {
                let owner = (i % pr) * pc + (j % pc);
                blocks.push(alloc.alloc(owner, block_bytes));
            }
        }
        Self {
            p,
            nb,
            b: input.block,
            pr,
            pc,
            input,
            blocks,
            state: vec![ProcState { k: 0, phase: Phase::Diag, next: 0 }; p],
        }
    }

    /// Owner of block (i, j) under the 2-D scatter decomposition.
    #[inline]
    pub fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.pr) * self.pc + (j % self.pc)
    }

    #[inline]
    fn block(&self, i: usize, j: usize) -> Region {
        self.blocks[i * self.nb + j]
    }

    /// Blocks per matrix side.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Barrier id for (step k, sub-phase index).
    fn barrier_id(k: usize, phase: u32) -> u32 {
        (k as u32) * 3 + phase
    }

    /// Diagonal factorization: dense LU of one B×B block in place.
    fn emit_lu0(&self, buf: &mut Vec<Event>, k: usize) {
        let b = self.b as u32;
        let diag = self.block(k, k);
        emit::straight(buf, BB_DIAG_OUTER, 6 * b);
        emit::update_region(buf, &diag);
        emit::fp(buf, b * b * b / 3);
        emit::loop_burst(buf, BB_DIAG_INNER, 4 * b * b);
    }

    /// Column-perimeter division: block(i,k) /= L(k,k).
    fn emit_bdiv(&self, buf: &mut Vec<Event>, i: usize, k: usize) {
        let b = self.b as u32;
        let diag = self.block(k, k);
        let own = self.block(i, k);
        emit::read_region(buf, &diag);
        emit::update_region(buf, &own);
        emit::fp(buf, b * b * b / 2);
        emit::loop_burst(buf, BB_BDIV, 2 * b * b);
    }

    /// Row-perimeter modification: block(k,j) = U-solve with the diagonal.
    fn emit_bmod_row(&self, buf: &mut Vec<Event>, k: usize, j: usize) {
        let b = self.b as u32;
        let diag = self.block(k, k);
        let own = self.block(k, j);
        emit::read_region(buf, &diag);
        emit::update_region(buf, &own);
        emit::fp(buf, b * b * b / 2);
        emit::loop_burst(buf, BB_BMOD_ROW, 2 * b * b);
    }

    /// Interior update: block(i,j) -= block(i,k) * block(k,j) (dgemm).
    fn emit_bmodd(&self, buf: &mut Vec<Event>, i: usize, j: usize, k: usize) {
        let b = self.b as u32;
        let left = self.block(i, k);
        let up = self.block(k, j);
        let own = self.block(i, j);
        emit::straight(buf, BB_INTERIOR_OUTER, 3 * b);
        emit::read_region(buf, &left);
        emit::read_region(buf, &up);
        emit::update_region(buf, &own);
        emit::fp(buf, 2 * b * b * b);
        emit::loop_burst(buf, BB_INTERIOR_INNER, 3 * b * b);
    }
}

impl ChunkGen for Lu {
    fn n_procs(&self) -> usize {
        self.p
    }

    fn fill(&mut self, proc: usize, buf: &mut Vec<Event>) {
        let ProcState { k, phase, next } = self.state[proc];
        if phase == Phase::Done {
            return;
        }
        let nb = self.nb;
        match phase {
            Phase::Diag => {
                if self.owner(k, k) == proc {
                    self.emit_lu0(buf, k);
                }
                buf.push(Event::Barrier { id: Self::barrier_id(k, 0) });
                self.state[proc].phase = Phase::Perim;
            }
            Phase::Perim => {
                for j in k + 1..nb {
                    if self.owner(k, j) == proc {
                        self.emit_bmod_row(buf, k, j);
                    }
                }
                for i in k + 1..nb {
                    if self.owner(i, k) == proc {
                        self.emit_bdiv(buf, i, k);
                    }
                }
                buf.push(Event::Barrier { id: Self::barrier_id(k, 1) });
                self.state[proc].phase = Phase::Interior;
            }
            Phase::Interior => {
                let m = nb - k - 1;
                for c in next..m * m {
                    let (i, j) = (k + 1 + c / m, k + 1 + c % m);
                    if self.owner(i, j) == proc {
                        self.emit_bmodd(buf, i, j, k);
                        self.state[proc].next = c + 1;
                        return;
                    }
                }
                buf.push(Event::Barrier { id: Self::barrier_id(k, 2) });
                if k + 1 < nb {
                    self.state[proc] = ProcState { k: k + 1, phase: Phase::Diag, next: 0 };
                } else {
                    self.state[proc].phase = Phase::Done;
                }
            }
            Phase::Done => unreachable!(),
        }
    }
}

impl Workload for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }
    fn input_desc(&self) -> String {
        crate::inputs::AppInput::Lu(self.input).describe()
    }
    fn footprint(&self) -> Vec<Region> {
        self.blocks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;
    use dsm_sim::event::Event;

    fn drain(lu: &mut Lu, proc: usize) -> Vec<Event> {
        let mut all = Vec::new();
        loop {
            let mut buf = Vec::new();
            lu.fill(proc, &mut buf);
            if buf.is_empty() {
                break;
            }
            all.extend(buf);
        }
        all
    }

    #[test]
    fn ownership_is_a_2d_scatter_over_all_procs() {
        let lu = Lu::new(8, LuInput::at(Scale::Test));
        let mut owners = std::collections::HashSet::new();
        for i in 0..lu.nb() {
            for j in 0..lu.nb() {
                let o = lu.owner(i, j);
                assert!(o < 8);
                owners.insert(o);
            }
        }
        assert_eq!(owners.len(), 8, "every proc owns some block");
    }

    #[test]
    fn every_proc_emits_identical_barrier_sequence() {
        let mut lu = Lu::new(4, LuInput::at(Scale::Test));
        let barrier_seq = |evs: &[Event]| {
            evs.iter()
                .filter_map(|e| match e {
                    Event::Barrier { id } => Some(*id),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let s0 = barrier_seq(&drain(&mut lu, 0));
        for p in 1..4 {
            assert_eq!(barrier_seq(&drain(&mut lu, p)), s0);
        }
        // 3 barriers per step, nb steps, strictly increasing ids.
        assert_eq!(s0.len(), 3 * lu.nb());
        assert!(s0.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn each_fill_holds_at_most_one_interior_block_update() {
        let mut lu = Lu::new(2, LuInput::at(Scale::Test));
        let (mut fills, mut updates) = (0, 0);
        loop {
            let mut buf = Vec::new();
            lu.fill(0, &mut buf);
            if buf.is_empty() {
                break;
            }
            let n = buf
                .iter()
                .filter(|e| matches!(e, Event::Block { bb: BB_INTERIOR_OUTER, .. }))
                .count();
            assert!(n <= 1, "fill {fills} holds {n} interior block updates");
            (fills, updates) = (fills + 1, updates + n);
        }
        assert!(updates > 1, "the trailing submatrices hold several blocks");
    }

    #[test]
    fn work_shrinks_as_factorization_proceeds() {
        let mut lu = Lu::new(2, LuInput::at(Scale::Test));
        // Count interior-phase instructions per step for proc 0.
        let nb = lu.nb();
        let mut per_step = Vec::new();
        for _ in 0..nb {
            let mut diag = Vec::new();
            lu.fill(0, &mut diag);
            let mut perim = Vec::new();
            lu.fill(0, &mut perim);
            // The interior phase comes one block update per fill, up to
            // its barrier.
            let mut interior = Vec::new();
            while !matches!(interior.last(), Some(Event::Barrier { .. })) {
                lu.fill(0, &mut interior);
            }
            let insns: u64 = interior.iter().map(|e| e.nonsync_insns()).sum();
            per_step.push(insns);
        }
        assert!(per_step[0] > per_step[nb - 2], "interior work must shrink");
        assert_eq!(per_step[nb - 1], 0, "last step has no interior");
    }

    #[test]
    fn interior_reads_perimeter_blocks_from_their_owners() {
        let lu = Lu::new(4, LuInput::at(Scale::Test));
        // Find an interior block whose k-column or k-row source block has a
        // different owner; its update must read a region homed there.
        let nb = lu.nb();
        let k = 0usize;
        let mut found = false;
        'outer: for i in k + 1..nb {
            for j in k + 1..nb {
                let me = lu.owner(i, j);
                let remote_home = if lu.owner(i, k) != me {
                    lu.owner(i, k)
                } else if lu.owner(k, j) != me {
                    lu.owner(k, j)
                } else {
                    continue;
                };
                let mut buf = Vec::new();
                lu.emit_bmodd(&mut buf, i, j, k);
                let homes: std::collections::HashSet<usize> = buf
                    .iter()
                    .filter_map(|e| match e {
                        Event::Mem { addr, .. } => {
                            Some((*addr >> dsm_sim::addr::HOME_SHIFT) as usize)
                        }
                        _ => None,
                    })
                    .collect();
                assert!(homes.contains(&remote_home));
                assert!(homes.contains(&me), "own block is homed locally");
                found = true;
                break 'outer;
            }
        }
        assert!(found, "test precondition: some interior block qualifies");
    }

    #[test]
    fn total_flops_match_lu_complexity() {
        // Sum of FP ops across all procs ~ 2/3 n^3 for dense LU.
        let input = LuInput::at(Scale::Test);
        let mut lu = Lu::new(2, input);
        let mut fp_total: u64 = 0;
        for p in 0..2 {
            for e in drain(&mut lu, p) {
                if let Event::Fp { ops } = e {
                    fp_total += ops as u64;
                }
            }
        }
        let n = input.n as u64;
        let expected = 2 * n * n * n / 3;
        let ratio = fp_total as f64 / expected as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "flops {fp_total} vs expected {expected} (ratio {ratio})"
        );
    }

    #[test]
    fn operation_counts_match_blocked_lu_exactly() {
        // Across all processors: nb diagonal factorizations, sum(nb-1-k)
        // bdiv and bmod-row ops per step, and sum(nb-1-k)^2 interior
        // updates. Count the not-taken loop exits of each kernel's bb.
        let input = LuInput::at(Scale::Test);
        let nb = input.n / input.block;
        let mut lu = Lu::new(4, input);
        let mut diag = 0usize;
        let mut bdiv = 0usize;
        let mut bmod = 0usize;
        let mut interior = 0usize;
        for p in 0..4 {
            for e in drain(&mut lu, p) {
                if let Event::Block { bb, taken: false, .. } = e {
                    match bb {
                        BB_DIAG_INNER => diag += 1,
                        BB_BDIV => bdiv += 1,
                        BB_BMOD_ROW => bmod += 1,
                        BB_INTERIOR_INNER => interior += 1,
                        _ => {}
                    }
                }
            }
        }
        let perim: usize = (0..nb).map(|k| nb - 1 - k).sum();
        let inner: usize = (0..nb).map(|k| (nb - 1 - k) * (nb - 1 - k)).sum();
        assert_eq!(diag, nb);
        assert_eq!(bdiv, perim);
        assert_eq!(bmod, perim);
        assert_eq!(interior, inner);
    }

    #[test]
    fn stream_terminates_and_is_deterministic() {
        let evs1: Vec<Event> = {
            let mut lu = Lu::new(2, LuInput::at(Scale::Test));
            drain(&mut lu, 1)
        };
        let evs2: Vec<Event> = {
            let mut lu = Lu::new(2, LuInput::at(Scale::Test));
            drain(&mut lu, 1)
        };
        assert_eq!(evs1, evs2);
        assert!(!evs1.is_empty());
        // After exhaustion, fill stays empty.
        let mut lu = Lu::new(2, LuInput::at(Scale::Test));
        let _ = drain(&mut lu, 0);
        let mut buf = Vec::new();
        lu.fill(0, &mut buf);
        assert!(buf.is_empty());
    }
}
