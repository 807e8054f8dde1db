//! Structural model of SPLASH-2 FMM (adaptive fast multipole N-body).
//!
//! Particles live in leaf cells distributed blockwise across processors
//! (spatial locality). Each timestep runs five barrier-separated phases
//! whose code signatures differ (tree build, upward pass, multipole
//! interactions, direct neighbour forces, particle update). Two properties
//! drive the DSM phase behaviour:
//!
//! * the **interaction phase** reads multipole expansions from a window of
//!   partner processors that *rotates every timestep* (particles move, so
//!   interaction lists change) — same code, drifting remote-home mix;
//! * **cell occupancy fluctuates** deterministically per (cell, timestep),
//!   so the per-interval instruction and traffic mix breathes even within
//!   one phase.

use dsm_sim::event::{ChunkGen, Event};
use dsm_sim::util::splitmix64;

use crate::app::Workload;
use crate::emit;
use crate::inputs::FmmInput;
use crate::mem::{NodeAlloc, Region};

const BB_TREE_SCAN: u32 = 0x2000;
const BB_TREE_INSERT: u32 = 0x2001;
const BB_UPWARD: u32 = 0x2010;
const BB_M2L: u32 = 0x2020;
const BB_M2L_INNER: u32 = 0x2021;
const BB_DIRECT: u32 = 0x2030;
const BB_DIRECT_INNER: u32 = 0x2031;
const BB_UPDATE: u32 = 0x2040;

/// Bytes per particle (position, velocity, force, mass).
const PARTICLE_BYTES: u64 = 64;
/// Cache lines per multipole expansion.
const MULTIPOLE_LINES: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    TreeBuild,
    Upward,
    Interact,
    Direct,
    Update,
}

const PHASES: [Phase; 5] =
    [Phase::TreeBuild, Phase::Upward, Phase::Interact, Phase::Direct, Phase::Update];

#[derive(Debug, Clone, Copy)]
struct ProcState {
    t: usize,
    phase_idx: usize,
    done: bool,
}

/// FMM workload.
pub struct Fmm {
    p: usize,
    input: FmmInput,
    cells: usize,
    /// Particle storage per leaf cell, homed at the cell's owner.
    particles: Vec<Region>,
    /// Multipole expansion per leaf cell, homed at the cell's owner.
    multipoles: Vec<Region>,
    /// Shared internal tree nodes, homed round-robin.
    tree: Vec<Region>,
    state: Vec<ProcState>,
}

impl Fmm {
    pub fn new(p: usize, input: FmmInput) -> Self {
        assert!(p.is_power_of_two());
        let cells = (input.particles / input.cell_cap).max(p);
        let mut alloc = NodeAlloc::new(p);
        let mut particles = Vec::with_capacity(cells);
        let mut multipoles = Vec::with_capacity(cells);
        for c in 0..cells {
            let owner = c * p / cells;
            particles.push(alloc.alloc(owner, input.cell_cap as u64 * PARTICLE_BYTES));
            multipoles.push(alloc.alloc(owner, MULTIPOLE_LINES * 32));
        }
        let tree_nodes = (cells / 4).max(1);
        let tree = (0..tree_nodes)
            .map(|n| alloc.alloc(n % p, 2 * 32))
            .collect();
        Self {
            p,
            input,
            cells,
            particles,
            multipoles,
            tree,
            state: vec![ProcState { t: 0, phase_idx: 0, done: false }; p],
        }
    }

    /// Owner of a leaf cell: a blocked distribution whose blocks differ by
    /// at most one cell when `p` does not divide the cell count.
    #[inline]
    pub fn cell_owner(&self, c: usize) -> usize {
        c * self.p / self.cells
    }

    /// Cells owned by `proc`: those [`Self::cell_owner`] gives it.
    fn own_cells(&self, proc: usize) -> std::ops::Range<usize> {
        let first = |q: usize| (q * self.cells).div_ceil(self.p);
        first(proc)..first(proc + 1)
    }

    /// Effective occupancy of cell `c` at timestep `t` (particles drift
    /// between cells over time; deterministic pseudo-random walk around
    /// half-full to full).
    fn occupancy(&self, c: usize, t: usize) -> u64 {
        let cap = self.input.cell_cap as u64;
        let r = splitmix64((c as u64) << 32 | t as u64) % (cap / 8).max(1);
        cap * 7 / 8 + r
    }

    /// Partner processors whose multipoles this proc reads at timestep `t`.
    ///
    /// As particles drift, interaction lists shift from near cells to far
    /// ones and back: the partner set sweeps outward in hypercube distance
    /// over the run (XOR masks of growing popcount), every two timesteps.
    /// The M2L *code* is identical throughout — only the distance and homes
    /// of the data change, which is precisely the paper's DDV signal.
    pub fn partners(&self, proc: usize, t: usize) -> Vec<usize> {
        if self.p == 1 {
            return vec![];
        }
        let dim = self.p.trailing_zeros() as usize;
        let k = 1 + (t / 2) % dim; // current interaction radius in hops
        let mask = (1usize << k) - 1;
        let near = proc ^ (1 << (k - 1));
        let far = proc ^ mask;
        let mut ps = vec![near];
        if far != near {
            ps.push(far);
        }
        ps
    }

    fn barrier_id(&self, t: usize, phase_idx: usize) -> u32 {
        (t * PHASES.len() + phase_idx) as u32
    }

    fn emit_tree_build(&self, buf: &mut Vec<Event>, proc: usize, t: usize) {
        for c in self.own_cells(proc) {
            let occ = self.occupancy(c, t);
            // Scan own particles, insert into cells and shared tree nodes.
            emit::read_lines(buf, &self.particles[c], 0, (occ * PARTICLE_BYTES / 32).max(1));
            emit::loop_burst(buf, BB_TREE_SCAN, (occ * 6) as u32);
            let node = &self.tree[(c / 4) % self.tree.len()];
            emit::update_region(buf, node);
            emit::straight(buf, BB_TREE_INSERT, 20);
        }
    }

    fn emit_upward(&self, buf: &mut Vec<Event>, proc: usize, t: usize) {
        for c in self.own_cells(proc) {
            let occ = self.occupancy(c, t);
            emit::read_lines(buf, &self.particles[c], 0, (occ * PARTICLE_BYTES / 32).max(1));
            emit::write_region(buf, &self.multipoles[c]);
            emit::fp(buf, (occ * 20) as u32); // P2M
            emit::loop_burst(buf, BB_UPWARD, (occ * 4) as u32);
        }
    }

    fn emit_interact(&self, buf: &mut Vec<Event>, proc: usize, t: usize) {
        let partners = self.partners(proc, t);
        for c in self.own_cells(proc) {
            // M2L against a sample of each partner's cells.
            for &q in &partners {
                let q_cells = self.own_cells(q);
                let span = q_cells.end - q_cells.start;
                // Interaction lists are large in FMM (O(189) cells per
                // cell in 3-D); model them as the partner's whole leaf set.
                for s in 0..span.min(8) {
                    let pick = q_cells.start
                        + (splitmix64((c as u64) << 40 | (q as u64) << 20 | t as u64) as usize
                            + s)
                            % span;
                    emit::read_region(buf, &self.multipoles[pick]);
                    emit::fp(buf, 900); // M2L kernel
                    emit::loop_burst(buf, BB_M2L_INNER, 120);
                }
            }
            emit::update_region(buf, &self.multipoles[c]); // accumulate locals
            emit::straight(buf, BB_M2L, 30);
        }
    }

    fn emit_direct(&self, buf: &mut Vec<Event>, proc: usize, t: usize) {
        // Every leaf cell interacts with its two ring-adjacent cells plus
        // itself, so the total direct work is independent of the processor
        // count; adjacency crosses a partition boundary only for edge
        // cells, so the *remote* share of this fixed work grows with p.
        for c in self.own_cells(proc) {
            let occ = self.occupancy(c, t);
            for nc in [(c + self.cells - 1) % self.cells, (c + 1) % self.cells] {
                let occ_n = self.occupancy(nc, t);
                emit::read_lines(
                    buf,
                    &self.particles[nc],
                    0,
                    (occ_n * PARTICLE_BYTES / 32).max(1),
                );
                emit::fp(buf, (occ * occ_n * 2) as u32); // pairwise forces
                emit::loop_burst(buf, BB_DIRECT_INNER, (occ * 6) as u32);
            }
            // Self-interactions and force accumulation.
            emit::update_region(buf, &self.particles[c]);
            emit::fp(buf, (occ * occ) as u32);
            emit::loop_burst(buf, BB_DIRECT, (occ * 4) as u32);
        }
    }

    fn emit_update(&self, buf: &mut Vec<Event>, proc: usize, t: usize) {
        for c in self.own_cells(proc) {
            let occ = self.occupancy(c, t);
            emit::update_region(buf, &self.particles[c]);
            emit::fp(buf, (occ * 6) as u32);
            emit::loop_burst(buf, BB_UPDATE, (occ * 3) as u32);
        }
    }

    /// Total leaf cells.
    pub fn cells(&self) -> usize {
        self.cells
    }
}

impl ChunkGen for Fmm {
    fn n_procs(&self) -> usize {
        self.p
    }

    fn fill(&mut self, proc: usize, buf: &mut Vec<Event>) {
        let st = self.state[proc];
        if st.done {
            return;
        }
        match PHASES[st.phase_idx] {
            Phase::TreeBuild => self.emit_tree_build(buf, proc, st.t),
            Phase::Upward => self.emit_upward(buf, proc, st.t),
            Phase::Interact => self.emit_interact(buf, proc, st.t),
            Phase::Direct => self.emit_direct(buf, proc, st.t),
            Phase::Update => self.emit_update(buf, proc, st.t),
        }
        buf.push(Event::Barrier { id: self.barrier_id(st.t, st.phase_idx) });
        let st = &mut self.state[proc];
        st.phase_idx += 1;
        if st.phase_idx == PHASES.len() {
            st.phase_idx = 0;
            st.t += 1;
            if st.t == self.input.timesteps {
                st.done = true;
            }
        }
    }
}

impl Workload for Fmm {
    fn name(&self) -> &'static str {
        "FMM"
    }
    fn input_desc(&self) -> String {
        crate::inputs::AppInput::Fmm(self.input).describe()
    }
    fn footprint(&self) -> Vec<Region> {
        let mut f = self.particles.clone();
        f.extend_from_slice(&self.multipoles);
        f.extend_from_slice(&self.tree);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;
    use dsm_sim::addr::HOME_SHIFT;

    fn drain(w: &mut Fmm, proc: usize) -> Vec<Event> {
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
    fn cells_cover_all_procs() {
        let f = Fmm::new(8, FmmInput::at(Scale::Test));
        assert!(f.cells() >= 8);
        let owners: std::collections::HashSet<usize> =
            (0..f.cells()).map(|c| f.cell_owner(c)).collect();
        assert_eq!(owners.len(), 8);
    }

    #[test]
    fn uneven_cell_counts_split_into_blocks_one_cell_apart() {
        // 192 cells over 128 procs: every proc owns one or two cells, and
        // `own_cells` and `cell_owner` agree on each.
        let f = Fmm::new(128, FmmInput::at(Scale::Scaled));
        assert_eq!(f.cells(), 192);
        let mut next = 0;
        for proc in 0..128 {
            let own = f.own_cells(proc);
            assert_eq!(own.start, next);
            assert!((1..=2).contains(&own.len()), "proc {proc} owns {own:?}");
            assert!(own.clone().all(|c| f.cell_owner(c) == proc));
            next = own.end;
        }
        assert_eq!(next, f.cells());
    }

    #[test]
    fn partners_rotate_over_time() {
        let f = Fmm::new(8, FmmInput::at(Scale::Test));
        let p0 = f.partners(3, 0);
        let p2 = f.partners(3, 2);
        let p4 = f.partners(3, 4);
        assert_ne!(p0, p2, "interaction radius must grow with timestep");
        assert_ne!(p2, p4);
        for ps in [&p0, &p2, &p4] {
            assert!(ps.iter().all(|&q| q != 3 && q < 8));
        }
        // The far partner at radius k is exactly k hops away.
        let hops = |a: usize, b: usize| ((a ^ b) as u64).count_ones();
        assert_eq!(hops(3, *p0.last().unwrap()), 1);
        assert_eq!(hops(3, *p2.last().unwrap()), 2);
        assert_eq!(hops(3, *p4.last().unwrap()), 3);
    }

    #[test]
    fn uniprocessor_has_no_partners() {
        let f = Fmm::new(1, FmmInput::at(Scale::Test));
        assert!(f.partners(0, 0).is_empty());
    }

    #[test]
    fn barrier_sequences_agree_across_procs() {
        let mut f = Fmm::new(4, FmmInput::at(Scale::Test));
        let seq = |evs: &[Event]| {
            evs.iter()
                .filter_map(|e| match e {
                    Event::Barrier { id } => Some(*id),
                    _ => None,
                })
                .collect::<Vec<u32>>()
        };
        let s0 = seq(&drain(&mut f, 0));
        for p in 1..4 {
            assert_eq!(seq(&drain(&mut f, p)), s0);
        }
        assert_eq!(s0.len(), 5 * FmmInput::at(Scale::Test).timesteps);
    }

    #[test]
    fn interact_phase_touches_rotating_remote_homes() {
        let f = Fmm::new(8, FmmInput::at(Scale::Test));
        let homes_at = |t: usize| {
            let mut buf = Vec::new();
            f.emit_interact(&mut buf, 0, t);
            buf.iter()
                .filter_map(|e| match e {
                    Event::Mem { addr, write: false } => {
                        Some((*addr >> HOME_SHIFT) as usize)
                    }
                    _ => None,
                })
                .filter(|&h| h != 0)
                .collect::<std::collections::BTreeSet<usize>>()
        };
        let h0 = homes_at(0);
        let h3 = homes_at(3);
        assert!(!h0.is_empty());
        assert_ne!(h0, h3, "remote home set must drift with t");
    }

    #[test]
    fn occupancy_is_bounded_and_varies() {
        let f = Fmm::new(2, FmmInput::at(Scale::Test));
        let cap = FmmInput::at(Scale::Test).cell_cap as u64;
        let mut distinct = std::collections::HashSet::new();
        for c in 0..f.cells() {
            for t in 0..3 {
                let o = f.occupancy(c, t);
                assert!(o >= cap / 2 && o < cap + cap / 2);
                distinct.insert(o);
            }
        }
        assert!(distinct.len() > 3, "occupancy must actually vary");
    }

    #[test]
    fn m2l_kernel_count_matches_interaction_lists() {
        // Per timestep, every cell runs one M2L per (partner, sampled cell)
        // pair; count the not-taken M2L-inner exits across all procs.
        let input = FmmInput::at(Scale::Test);
        let p = 4usize;
        let mut f = Fmm::new(p, input);
        let mut m2l = 0usize;
        for proc in 0..p {
            m2l += drain(&mut f, proc)
                .iter()
                .filter(|e| matches!(e, Event::Block { bb: BB_M2L_INNER, taken: false, .. }))
                .count();
        }
        let f2 = Fmm::new(p, input);
        let mut expected = 0usize;
        for t in 0..input.timesteps {
            for proc in 0..p {
                let partners = f2.partners(proc, t).len();
                let own = f2.cells() / p; // even split at these parameters
                let span = f2.cells() / p;
                expected += own * partners * span.min(8);
            }
        }
        assert_eq!(m2l, expected);
    }

    #[test]
    fn stream_terminates_deterministically() {
        let a = drain(&mut Fmm::new(2, FmmInput::at(Scale::Test)), 0);
        let b = drain(&mut Fmm::new(2, FmmInput::at(Scale::Test)), 0);
        assert_eq!(a, b);
        assert!(a.len() > 100);
    }
}
