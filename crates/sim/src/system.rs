//! Global simulation loop: min-cycle scheduling over all processors,
//! the full memory-access path (L1 → L2 → directory → network → memory
//! controller), barriers, and locks.
//!
//! Scheduling is deterministic: the runnable processor with the smallest
//! absolute cycle runs next, ties broken by lowest id. All inter-processor
//! timing effects — coherence invalidations, dirty forwarding, memory
//! controller queueing, barrier skew, lock hand-off — emerge from this loop.

use std::collections::VecDeque;

use crate::addr::{block_of, HomeMap};
use crate::config::SystemConfig;
use crate::directory::{Directory, ReadSource};
use crate::event::{Event, InstructionStream};
use crate::fault::FaultState;
use crate::memctrl::MemCtrl;
use crate::network::Network;
use crate::observer::{IntervalStats, SimObserver};
use crate::reconfig::{HotPage, Machine, ReconfigSnap, ReconfigStats, DVFS_NOMINAL};
use crate::processor::Processor;
use crate::sched::MinTree;
use crate::state::{BarrierSnap, LockSnap, SystemState};
use crate::stats::SystemStats;
use crate::telem::{SimProbes, SimTelemetry, Snapshot};
use crate::util::FxHashMap;

#[derive(Debug, Default)]
struct LockState {
    owner: Option<usize>,
    waiters: VecDeque<usize>,
}

#[derive(Debug)]
struct BarrierState {
    current_id: Option<u32>,
    /// Arrival bitmap, 64 processors per word — works at any node count
    /// (a single u64 capped the machine at 64).
    arrived: Vec<u64>,
    arrived_count: usize,
    arrival_cycle: Vec<u64>,
}

impl BarrierState {
    fn new(n: usize) -> Self {
        Self {
            current_id: None,
            arrived: vec![0; n.div_ceil(64)],
            arrived_count: 0,
            arrival_cycle: vec![0; n],
        }
    }

    #[inline]
    fn has_arrived(&self, p: usize) -> bool {
        self.arrived[p / 64] & (1u64 << (p % 64)) != 0
    }

    #[inline]
    fn mark_arrived(&mut self, p: usize) {
        self.arrived[p / 64] |= 1u64 << (p % 64);
        self.arrived_count += 1;
    }

    fn reset_arrivals(&mut self) {
        self.arrived.iter_mut().for_each(|w| *w = 0);
        self.arrived_count = 0;
    }
}

/// The simulated DSM multiprocessor.
pub struct System<S: InstructionStream, O: SimObserver> {
    cfg: SystemConfig,
    procs: Vec<Processor>,
    dir: Directory,
    net: Network,
    /// Deterministic fault injection on every coherence message (a
    /// transparent pass-through under [`crate::config::FaultPlan::none`]).
    fault: FaultState,
    memctrls: Vec<MemCtrl>,
    homes: HomeMap,
    locks: FxHashMap<u32, LockState>,
    barrier: BarrierState,
    stream: S,
    observer: O,
    events_executed: u64,
    /// Indexed scheduler: one key per processor, equal to its cycle while
    /// runnable and `u64::MAX` while finished or blocked.
    sched: MinTree,
    /// One fetched-but-not-yet-executed event per processor. The batched
    /// run loop parks an event here when it must execute at the processor's
    /// canonical position in the global `(cycle, id)` order rather than
    /// inside a compute batch.
    pending: Vec<Option<Event>>,
    /// Events fetched from the stream per processor (parked ones included).
    /// Checkpoint restore replays exactly this many `stream.next(p)` calls
    /// on a fresh stream to reposition it — streams are deterministic, so
    /// the count is the entire stream state.
    fetched: Vec<u64>,
    /// Telemetry recorder: the real facade under the `telemetry` feature,
    /// a zero-sized no-op stub otherwise (see [`crate::telem`]).
    telem: SimTelemetry,
    /// Pre-interned probe ids for the hot-path instrumentation.
    probes: SimProbes,
    /// Per-node DVFS numerators ([`crate::reconfig::DVFS_NOMINAL`] = full
    /// speed; scaling by 256/256 is exact identity, so an untouched vector
    /// leaves the timing model bit-identical).
    dvfs_num: Vec<u64>,
    /// Counters for every mid-run reconfiguration (all zero unless the
    /// adaptation subsystem actuated something).
    reconfig_stats: ReconfigStats,
}

impl<S: InstructionStream, O: SimObserver> System<S, O> {
    pub fn new(cfg: SystemConfig, stream: S, observer: O) -> Self {
        cfg.validate().expect("invalid system configuration");
        assert_eq!(
            stream.n_procs(),
            cfg.n_procs,
            "stream and config disagree on processor count"
        );
        let n = cfg.n_procs;
        let mut telem = SimTelemetry::new(SimProbes::tracks_for(n));
        let probes = SimProbes::register(&mut telem, n);
        Self {
            procs: (0..n).map(|i| Processor::new(i, &cfg)).collect(),
            dir: Directory::with_capacity(cfg.directory_capacity_hint()),
            net: Network::new(cfg.network, n),
            fault: FaultState::new(cfg.fault),
            memctrls: (0..n).map(|_| MemCtrl::new(cfg.memory)).collect(),
            homes: HomeMap::new(cfg.distribution, n),
            locks: FxHashMap::with_capacity_and_hasher(
                cfg.lock_capacity_hint(),
                Default::default(),
            ),
            barrier: BarrierState::new(n),
            stream,
            observer,
            events_executed: 0,
            sched: MinTree::new(n),
            pending: vec![None; n],
            fetched: vec![0; n],
            telem,
            probes,
            dvfs_num: vec![crate::reconfig::DVFS_NOMINAL; n],
            reconfig_stats: ReconfigStats::default(),
            cfg,
        }
    }

    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    pub fn observer(&self) -> &O {
        &self.observer
    }

    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// The DDV distance matrix for this system's topology.
    pub fn distance_matrix(&self) -> Vec<f64> {
        self.net.distance_matrix()
    }

    /// Run to completion of all processor streams; returns final statistics.
    ///
    /// Uses the batched event loop: runs of pure compute events
    /// (`Block`/`Fp`) that stay inside one sampling interval execute without
    /// re-entering the global scheduler. This is observationally identical
    /// to repeated [`System::step`] — compute events touch only
    /// processor-private state, and every event that can interact across
    /// processors (memory, synchronization, `End`, and any event completing
    /// a sampling interval) still executes at its canonical position in the
    /// global `(cycle, id)` order.
    pub fn run(mut self) -> (SystemStats, O) {
        while self.step_batched() {}
        let stats = self.finish_stats();
        (stats, self.observer)
    }

    /// Run to completion strictly one event at a time in global
    /// `(cycle, id)` order — the reference the batched [`System::run`] is
    /// tested against. Slower; behaviourally identical.
    pub fn run_unbatched(mut self) -> (SystemStats, O) {
        while self.step() {}
        let stats = self.finish_stats();
        (stats, self.observer)
    }

    /// Like [`System::run`], additionally returning the telemetry snapshot
    /// (coherence/interval span tracks, stall histograms, and the final
    /// stats mirrored as registry metrics). With the `telemetry` feature
    /// off the snapshot is [`Snapshot::empty`]; the simulation itself is
    /// bit-identical either way.
    pub fn run_telemetry(mut self) -> (SystemStats, O, Snapshot) {
        while self.step_batched() {}
        let stats = self.finish_stats();
        let snapshot = self.telem.snapshot();
        (stats, self.observer, snapshot)
    }

    /// Telemetry recorded so far (mid-run diagnostics; empty when the
    /// `telemetry` feature is off).
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telem.snapshot()
    }

    /// Execute one event on the earliest runnable processor (smallest
    /// `(cycle, id)`). Returns false when every processor has finished.
    pub fn step(&mut self) -> bool {
        let Some(p) = self.sched.min() else {
            return self.handle_no_runnable();
        };
        let ev = match self.pending[p].take() {
            Some(ev) => ev,
            None => {
                self.fetched[p] += 1;
                self.stream.next(p)
            }
        };
        self.events_executed += 1;
        self.dispatch(p, ev);
        self.refresh_key(p);
        true
    }

    /// One scheduler turn of the batched loop: give the earliest runnable
    /// processor its pending event, or drain a run of its compute events.
    fn step_batched(&mut self) -> bool {
        let Some(p) = self.sched.min() else {
            return self.handle_no_runnable();
        };
        if let Some(ev) = self.pending[p].take() {
            self.events_executed += 1;
            self.dispatch(p, ev);
            self.refresh_key(p);
            return true;
        }
        // Drain compute events that neither touch shared state nor complete
        // the current sampling interval. Cycle accounting for the whole
        // batch is settled once at the end: nothing inside the batch reads
        // the intermediate cycle, the commit-carry arithmetic is
        // associative, and mispredict penalties are plain cycle additions
        // that commute with the carry division — so one division per batch
        // is exact. The first event that cannot be batched is parked in the
        // pending slot (or, when the batch is empty, executed right away —
        // `p` is still the scheduler minimum).
        let mut batched = 0u64;
        let mut block_insns = 0u64;
        let mut fp_ops = 0u64;
        let Self { procs, stream, observer, fetched, fault, .. } = self;
        let pr = &mut procs[p];
        let tail = loop {
            let ev = stream.next(p);
            match ev {
                Event::Block { bb, insns, taken }
                    if !pr.interval_would_complete(insns as u64) =>
                {
                    batched += 1;
                    block_insns += insns as u64;
                    pr.resolve_branch(bb, taken);
                    observer.on_block_commit(p, bb, insns);
                    pr.advance_interval_partial(insns as u64);
                }
                Event::Fp { ops } if !pr.interval_would_complete(ops as u64) => {
                    batched += 1;
                    fp_ops += ops as u64;
                    pr.advance_interval_partial(ops as u64);
                }
                other => break other,
            }
        };
        if block_insns > 0 {
            pr.commit_insns(block_insns);
        }
        if fp_ops > 0 {
            pr.commit_fp(fp_ops);
        }
        // Issue throttle for the batched commits (the terminating tail is
        // charged on its own dispatch). `slowdown_issue_num` is exact per
        // instruction for multiples of 256, so batch chunking cannot change
        // the total charge.
        if block_insns + fp_ops > 0 {
            let extra = fault.issue_extra(p, pr.cycle, block_insns + fp_ops);
            if extra > 0 {
                pr.cycle += extra;
            }
        }
        // The batch plus its terminating tail all came off the stream.
        fetched[p] += batched + 1;
        self.events_executed += batched;
        if batched > 0 {
            self.pending[p] = Some(tail);
        } else {
            self.events_executed += 1;
            self.dispatch(p, tail);
        }
        self.refresh_key(p);
        true
    }

    /// Execute one already-fetched event on processor `p`.
    fn dispatch(&mut self, p: usize, ev: Event) {
        match ev {
            Event::Block { bb, insns, taken } => {
                self.procs[p].commit_insns(insns as u64);
                self.procs[p].resolve_branch(bb, taken);
                self.observer.on_block_commit(p, bb, insns);
                self.advance_interval(p, insns as u64);
            }
            Event::Mem { addr, write } => {
                let home = self.mem_access(p, addr, write);
                self.observer.on_mem_commit(p, home, addr, write);
                self.procs[p].commit_insns(1);
                self.advance_interval(p, 1);
            }
            Event::Fp { ops } => {
                self.procs[p].commit_fp(ops as u64);
                self.advance_interval(p, ops as u64);
            }
            Event::Barrier { id } => self.handle_barrier(p, id),
            Event::Acquire { lock } => self.handle_acquire(p, lock),
            Event::Release { lock } => self.handle_release(p, lock),
            Event::End => {
                self.procs[p].finished = true;
                self.procs[p].sync_stats();
            }
        }
    }

    /// Re-derive processor `p`'s scheduler key from its state.
    #[inline]
    fn refresh_key(&mut self, p: usize) {
        let pr = &self.procs[p];
        let key = if pr.finished || pr.blocked { u64::MAX } else { pr.cycle };
        self.sched.set_key(p, key);
    }

    /// No runnable processor: either everything finished (normal
    /// termination) or the workload deadlocked. Off the hot path.
    #[cold]
    fn handle_no_runnable(&self) -> bool {
        if self.procs.iter().all(|pr| pr.finished) {
            return false;
        }
        let blocked: Vec<usize> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, pr)| pr.blocked)
            .map(|(i, _)| i)
            .collect();
        panic!(
            "deadlock: no runnable processor; blocked = {blocked:?} \
             (malformed workload: unmatched barrier or lock)"
        );
    }

    #[inline]
    fn advance_interval(&mut self, p: usize, insns: u64) {
        // Issue throttle (targeted slowdown plans): charge before the
        // interval-completion check so the extra cycles attribute to the
        // interval these instructions belong to.
        let extra = self.fault.issue_extra(p, self.procs[p].cycle, insns);
        if extra > 0 {
            self.procs[p].cycle += extra;
        }
        if let Some((index, insns, cycles)) = self.procs[p].advance_interval(insns) {
            // Interval span: `[start, end)` on node p's interval track.
            let end = self.procs[p].cycle;
            self.telem
                .span(self.cfg.n_procs + p, self.probes.interval, end - cycles, cycles);
            self.observer
                .on_interval(p, IntervalStats { index, insns, cycles });
        }
    }

    /// Full memory-access path; returns the home node of the access (every
    /// committed access reports its home to the observer, hit or miss —
    /// the paper's F matrix counts *committed accesses*, not misses).
    fn mem_access(&mut self, p: usize, addr: u64, write: bool) -> usize {
        let block = block_of(addr);
        let home = self.homes.home(block, p);
        // The L1-hit and L2-hit paths — the bulk of all memory events —
        // touch only processor-private state, borrowed once here.
        let pr = &mut self.procs[p];
        pr.stats.mem_refs += 1;

        if matches!(pr.l1.access(addr, write), crate::cache::Lookup::Hit) {
            return home; // 1-cycle pipelined hit: no stall.
        }
        pr.stats.l1_misses += 1;

        match pr.l2.access(addr, write) {
            crate::cache::Lookup::Hit => {
                let lat = self.cfg.l2.latency_cycles;
                pr.charge_mem_stall(lat);
            }
            crate::cache::Lookup::Miss { writeback } => {
                pr.stats.l2_misses += 1;
                if home == p {
                    pr.stats.local_home_misses += 1;
                } else {
                    pr.stats.remote_home_misses += 1;
                }
                if self.homes.tracking() {
                    self.homes.note_miss(block, p);
                }
                if let Some(victim) = writeback {
                    self.handle_writeback(p, victim);
                }
                let raw = self.cfg.l2.latency_cycles + self.coherence_stall(p, block, home, write);
                let raw = raw + self.fault.slowdown_extra(p, self.procs[p].cycle, raw);
                let raw = self.dvfs_scale(p, raw);
                let start = self.procs[p].cycle;
                let exposed = self.procs[p].charge_mem_stall(raw);
                // Coherence-transaction span: the exposed stall is exactly
                // how far this node's clock advanced, so spans on one
                // track tile the timeline without overlap.
                let name = if write { self.probes.dir_write } else { self.probes.dir_read };
                self.telem.span(p, name, start, exposed);
                self.telem.record(self.probes.stall_hist, raw);
            }
        }
        home
    }

    /// Scale a raw miss stall by node `p`'s DVFS numerator (`num/256`).
    /// At [`DVFS_NOMINAL`] this returns `raw` untouched without counting
    /// anything — the inert default costs one predictable branch.
    #[inline]
    fn dvfs_scale(&mut self, p: usize, raw: u64) -> u64 {
        let num = self.dvfs_num[p];
        if num == DVFS_NOMINAL {
            return raw;
        }
        let scaled = raw * num / DVFS_NOMINAL;
        if scaled >= raw {
            self.reconfig_stats.dvfs_extra_cycles += scaled - raw;
        } else {
            self.reconfig_stats.dvfs_saved_cycles += raw - scaled;
        }
        scaled
    }

    /// Deliver one protocol message through the fault layer; returns its
    /// end-to-end latency (retries, spikes and duplicates resolved). With
    /// faults inactive this is exactly [`Network::send_at`].
    #[inline]
    fn deliver_msg(&mut self, src: usize, dst: usize, payload: bool, now: u64) -> u64 {
        self.fault.deliver(&mut self.net, src, dst, payload, now).latency
    }

    /// Deliver a *request* to a home node. On top of [`Self::deliver_msg`],
    /// duplicate copies reaching the home are recognized by their
    /// transaction sequence number and refused with a NACK header back to
    /// the requester (traffic only — protocol state is applied exactly once
    /// by the caller).
    #[inline]
    fn deliver_request(&mut self, src: usize, home: usize, now: u64) -> u64 {
        let d = self.fault.deliver(&mut self.net, src, home, false, now);
        if d.duplicates > 0 {
            self.dir.nack(d.duplicates);
            for _ in 0..d.duplicates {
                self.net.send_at(home, src, false, now + d.latency + self.cfg.directory_cycles);
            }
        }
        d.latency
    }

    /// Resolve an L2 miss through the home directory; returns the raw
    /// (undiscounted) stall beyond the L2 lookup.
    fn coherence_stall(&mut self, p: usize, block: u64, home: usize, write: bool) -> u64 {
        let now = self.procs[p].cycle;
        let req_lat = self.deliver_request(p, home, now);
        let arrive = now + req_lat + self.cfg.directory_cycles;

        let (data_lat, inval_lat) = if write {
            let o = self.dir.write(block, p);
            // Invalidations fan out from the home in parallel; the write
            // completes when the slowest acknowledgment returns.
            let mut inval_lat = 0u64;
            let mut mask = o.invalidate_mask;
            while mask != 0 {
                let q = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.procs[q].l1.invalidate(block);
                self.procs[q].l2.invalidate(block);
                let out = self.deliver_msg(home, q, false, arrive);
                let back = self.deliver_msg(q, home, false, arrive + out);
                inval_lat = inval_lat.max(out + back);
            }
            let data_lat = if let Some(owner) = o.owner_forward {
                // Dirty owner forwards directly to the requester.
                let fwd = self.deliver_msg(home, owner, false, arrive);
                fwd + self.deliver_msg(owner, p, true, arrive + fwd)
            } else if o.from_memory {
                let svc = self.memctrls[home].request_block(block >> 5, arrive);
                self.procs[p].stats.contention_cycles += svc.queue_delay;
                let mem = svc.done_at - arrive;
                let reply = if home != p {
                    self.deliver_msg(home, p, true, svc.done_at)
                } else {
                    0
                };
                mem + reply
            } else {
                0 // upgrade: data already present, only acks matter
            };
            (data_lat, inval_lat)
        } else {
            let o = self.dir.read(block, p);
            let data_lat = match o.source {
                ReadSource::Memory => {
                    let svc = self.memctrls[home].request_block(block >> 5, arrive);
                    self.procs[p].stats.contention_cycles += svc.queue_delay;
                    let mem = svc.done_at - arrive;
                    let reply = if home != p {
                        self.deliver_msg(home, p, true, svc.done_at)
                    } else {
                        0
                    };
                    mem + reply
                }
                ReadSource::Owner(owner) => {
                    // Owner downgrades to shared, forwards data, and the
                    // dirty block is written back to home memory (occupying
                    // the controller, off the critical path).
                    let was_dirty = self.procs[owner].l2.downgrade(block)
                        | self.procs[owner].l1.downgrade(block);
                    let fwd = self.deliver_msg(home, owner, false, arrive);
                    if was_dirty {
                        let svc = self.memctrls[home].request_block(block >> 5, arrive + fwd);
                        let _ = svc; // bandwidth consumed; not on critical path
                        self.deliver_msg(owner, home, true, arrive + fwd);
                    }
                    fwd + self.deliver_msg(owner, p, true, arrive + fwd)
                }
            };
            (data_lat, 0)
        };

        req_lat + self.cfg.directory_cycles + data_lat.max(inval_lat)
    }

    /// A dirty L2 victim is written back to its home (buffered: consumes
    /// home bandwidth and updates the directory, but does not stall `p`).
    fn handle_writeback(&mut self, p: usize, victim: u64) {
        let block = block_of(victim);
        let home = self.homes.home(block, p);
        let now = self.procs[p].cycle;
        if home != p {
            self.deliver_msg(p, home, true, now);
        }
        self.memctrls[home].request_block(block >> 5, now);
        self.dir.writeback(block, p);
        // The L1 may still hold the line; keep inclusion by dropping it.
        self.procs[p].l1.invalidate(block);
    }

    fn handle_barrier(&mut self, p: usize, id: u32) {
        let sync = self.cfg.sync_cycles;
        {
            let proc = &mut self.procs[p];
            proc.stats.sync_ops += 1;
            proc.cycle += sync;
        }
        match self.barrier.current_id {
            None => self.barrier.current_id = Some(id),
            Some(cur) => assert_eq!(
                cur, id,
                "barrier mismatch: processor {p} arrived at {id}, expected {cur}"
            ),
        }
        assert!(
            !self.barrier.has_arrived(p),
            "processor {p} arrived twice at barrier {id}"
        );
        self.barrier.mark_arrived(p);
        self.barrier.arrival_cycle[p] = self.procs[p].cycle;
        self.procs[p].blocked = true;
        self.procs[p].blocked_since = self.procs[p].cycle;

        if self.barrier.arrived_count == self.cfg.n_procs {
            // Release: slowest arrival plus a reduce + broadcast spanning
            // the network diameter (== the hypercube dimension for the
            // default layout).
            let slowest = *self.barrier.arrival_cycle.iter().max().unwrap();
            let fan = 2 * self.net.diameter() as u64
                * (self.cfg.network.hop_cycles + self.cfg.network.router_cycles);
            let release = slowest + fan;
            for q in 0..self.cfg.n_procs {
                let pr = &mut self.procs[q];
                pr.stats.sync_wait_cycles += release - pr.blocked_since;
                pr.cycle = release;
                pr.blocked = false;
                self.refresh_key(q);
            }
            self.barrier.current_id = None;
            self.barrier.reset_arrivals();
        }
    }

    fn handle_acquire(&mut self, p: usize, lock: u32) {
        let sync = self.cfg.sync_cycles;
        {
            let proc = &mut self.procs[p];
            proc.stats.sync_ops += 1;
            proc.cycle += sync;
        }
        let st = self.locks.entry(lock).or_default();
        if st.owner.is_none() {
            st.owner = Some(p);
        } else {
            assert_ne!(st.owner, Some(p), "processor {p} re-acquired lock {lock}");
            st.waiters.push_back(p);
            self.procs[p].blocked = true;
            self.procs[p].blocked_since = self.procs[p].cycle;
        }
    }

    fn handle_release(&mut self, p: usize, lock: u32) {
        let sync = self.cfg.sync_cycles;
        {
            let proc = &mut self.procs[p];
            proc.stats.sync_ops += 1;
            proc.cycle += sync;
        }
        let st = self
            .locks
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("release of never-acquired lock {lock}"));
        assert_eq!(
            st.owner,
            Some(p),
            "processor {p} released lock {lock} it does not own"
        );
        if let Some(q) = st.waiters.pop_front() {
            st.owner = Some(q);
            let now = self.procs[p].cycle;
            let transfer = self.deliver_msg(p, q, false, now);
            let release_at = self.procs[p].cycle + transfer;
            let pr = &mut self.procs[q];
            let resume = release_at.max(pr.blocked_since);
            pr.stats.sync_wait_cycles += resume - pr.blocked_since;
            pr.cycle = resume;
            pr.blocked = false;
            self.refresh_key(q);
        } else {
            st.owner = None;
        }
    }

    fn finish_stats(&mut self) -> SystemStats {
        for pr in &mut self.procs {
            pr.sync_stats();
        }
        let stats = SystemStats {
            procs: self.procs.iter().map(|p| p.stats).collect(),
            directory: self.dir.stats(),
            network: self.net.stats(),
            memctrls: self.memctrls.iter().map(|m| m.stats()).collect(),
            faults: self.fault.stats(),
            reconfig: self.reconfig_stats,
            finish_cycle: self.procs.iter().map(|p| p.cycle).max().unwrap_or(0),
        };
        // Cold path: mirror the run's headline statistics into the
        // telemetry registry. `registry_mut` is `None` on the stub, so a
        // disabled build compiles this whole block away.
        if let Some(reg) = self.telem.registry_mut() {
            reg.counter_add("sim/events_executed", self.events_executed);
            reg.counter_add("sim/sched/runnable_at_finish", self.sched.runnable() as u64);
            stats.publish(reg);
            self.net.publish_links("sim/network", reg);
        }
        stats
    }

    /// Events executed so far (diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Minimum sampling-interval index over unfinished processors —
    /// the *global* interval boundary the run has fully passed. `u64::MAX`
    /// once every processor has finished.
    pub fn min_interval_index(&self) -> u64 {
        self.procs
            .iter()
            .filter(|pr| !pr.finished)
            .map(|pr| pr.interval_index())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Run (batched) until every unfinished processor has completed at
    /// least `target` sampling intervals, i.e. until the global interval
    /// boundary `target` is reached. Returns true when the boundary was
    /// reached, false when the workload finished first. A `target` of 0
    /// returns immediately — the pre-run state *is* boundary 0.
    pub fn run_to_interval(&mut self, target: u64) -> bool {
        loop {
            if self.min_interval_index() >= target {
                return true;
            }
            if !self.step_batched() {
                return false;
            }
        }
    }

    /// Like [`System::run`] for a system that has already been stepped
    /// (e.g. via [`System::run_to_interval`] or after
    /// [`System::restore_state`]): drive to completion and return the final
    /// stats plus the observer.
    pub fn run_to_end(mut self) -> (SystemStats, O) {
        while self.step_batched() {}
        let stats = self.finish_stats();
        (stats, self.observer)
    }

    /// Capture the complete dynamic state of the machine. Combined with a
    /// fresh stream fast-forwarded by [`SystemState::fetched`] and a
    /// restored observer, [`System::restore_state`] resumes bit-identically.
    pub fn state_snapshot(&self) -> SystemState {
        let mut locks: Vec<LockSnap> = self
            .locks
            .iter()
            .map(|(&id, st)| LockSnap {
                id,
                owner: st.owner,
                waiters: st.waiters.iter().copied().collect(),
            })
            .collect();
        locks.sort_unstable_by_key(|l| l.id);
        SystemState {
            procs: self.procs.iter().map(|pr| pr.export_state()).collect(),
            directory: self.dir.export_state(),
            network: self.net.export_state(),
            memctrls: self.memctrls.iter().map(|m| m.export_state()).collect(),
            home: self.homes.export_state(),
            reconfig: ReconfigSnap {
                dvfs_num: self.dvfs_num.clone(),
                stats: self.reconfig_stats,
            },
            locks,
            barrier: BarrierSnap {
                current_id: self.barrier.current_id,
                arrived: self.barrier.arrived.clone(),
                arrival_cycle: self.barrier.arrival_cycle.clone(),
            },
            fault: self.fault.export_state(),
            pending: self.pending.clone(),
            events_executed: self.events_executed,
            fetched: self.fetched.clone(),
        }
    }

    /// Restore state captured by [`System::state_snapshot`]. The system
    /// must have been built from the same configuration, with a stream
    /// already fast-forwarded by `st.fetched[p]` calls to `next(p)` per
    /// processor and an observer restored to its snapshot-time state.
    /// Telemetry spans recorded before the snapshot are not replayed; the
    /// simulation itself (stats, observer stream) continues bit-identically.
    pub fn restore_state(&mut self, st: &SystemState) {
        assert_eq!(st.procs.len(), self.cfg.n_procs, "snapshot is for a different machine");
        for (pr, ps) in self.procs.iter_mut().zip(&st.procs) {
            pr.import_state(ps);
        }
        self.dir.import_state(&st.directory);
        self.net.import_state(&st.network);
        for (m, ms) in self.memctrls.iter_mut().zip(&st.memctrls) {
            m.import_state(ms);
        }
        self.homes.import_state(&st.home);
        if st.reconfig.dvfs_num.is_empty() {
            self.dvfs_num.iter_mut().for_each(|n| *n = DVFS_NOMINAL);
        } else {
            self.dvfs_num.copy_from_slice(&st.reconfig.dvfs_num);
        }
        self.reconfig_stats = st.reconfig.stats;
        self.locks.clear();
        for l in &st.locks {
            self.locks.insert(
                l.id,
                LockState { owner: l.owner, waiters: l.waiters.iter().copied().collect() },
            );
        }
        self.barrier.current_id = st.barrier.current_id;
        self.barrier.arrived.copy_from_slice(&st.barrier.arrived);
        self.barrier.arrived_count =
            st.barrier.arrived.iter().map(|w| w.count_ones() as usize).sum();
        self.barrier.arrival_cycle.copy_from_slice(&st.barrier.arrival_cycle);
        self.fault.import_state(&st.fault);
        self.pending.copy_from_slice(&st.pending);
        self.events_executed = st.events_executed;
        self.fetched.copy_from_slice(&st.fetched);
        // Rebuild the scheduler from the restored processor states.
        for p in 0..self.cfg.n_procs {
            self.refresh_key(p);
        }
    }
}

/// The reconfigurable-machine view of the system — what a phase-guided
/// adaptation actuator may touch at a sampling-interval boundary. Every
/// mutating method is inert at its default setting, so a run that never
/// reconfigures stays bit-identical to one without the adaptation layer.
impl<S: InstructionStream, O: SimObserver> Machine for System<S, O> {
    fn n_procs(&self) -> usize {
        self.cfg.n_procs
    }

    fn core_profile(&self, p: usize) -> crate::config::CoreConfig {
        self.procs[p].core_profile()
    }

    fn set_core_profile(&mut self, p: usize, profile: crate::config::CoreConfig) {
        if self.procs[p].core_profile() != profile {
            self.procs[p].set_core_profile(profile);
            self.reconfig_stats.core_switches += 1;
        }
    }

    fn dvfs_level(&self, p: usize) -> u64 {
        self.dvfs_num[p]
    }

    fn set_dvfs_level(&mut self, p: usize, num: u64) {
        assert!(
            (64..=1024).contains(&num),
            "DVFS numerator {num} outside the 0.25x–4x envelope"
        );
        if self.dvfs_num[p] != num {
            self.dvfs_num[p] = num;
            self.reconfig_stats.dvfs_epochs += 1;
        }
    }

    fn enable_touch_tracking(&mut self) {
        self.homes.enable_touch_tracking();
    }

    fn hot_pages(&self, k: usize) -> Vec<HotPage> {
        self.homes.hot_pages(k)
    }

    fn reset_touches(&mut self) {
        self.homes.reset_touches();
    }

    fn migrate_page(&mut self, page: u64, to: usize) -> bool {
        assert!(to < self.cfg.n_procs, "migration target out of range");
        if self.homes.page_home(page) == Some(to) {
            return false;
        }
        self.homes.set_page_home(page, to);
        self.reconfig_stats.migrations += 1;
        // TLB shootdown: every running processor stalls while the page
        // moves. Blocked processors resynchronize at their release point
        // and finished ones are past their last event; both are skipped.
        let stall = crate::reconfig::PAGE_MIGRATE_STALL_CYCLES;
        for p in 0..self.cfg.n_procs {
            if !self.procs[p].finished && !self.procs[p].blocked {
                self.procs[p].cycle += stall;
                self.reconfig_stats.migration_stall_cycles += stall;
                self.refresh_key(p);
            }
        }
        true
    }

    fn proc_mem_stall(&self, p: usize) -> u64 {
        self.procs[p].stats.mem_stall_cycles
    }

    fn reconfig_stats(&self) -> ReconfigStats {
        self.reconfig_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::explicit_addr;
    use crate::observer::NullObserver;

    /// A scripted stream: fixed event vectors per processor.
    struct Script {
        events: Vec<Vec<Event>>,
        pos: Vec<usize>,
    }

    impl Script {
        fn new(events: Vec<Vec<Event>>) -> Self {
            let n = events.len();
            Self { events, pos: vec![0; n] }
        }
    }

    impl InstructionStream for Script {
        fn n_procs(&self) -> usize {
            self.events.len()
        }
        fn next(&mut self, proc: usize) -> Event {
            let i = self.pos[proc];
            if i < self.events[proc].len() {
                self.pos[proc] += 1;
                self.events[proc][i]
            } else {
                Event::End
            }
        }
    }

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::with_interval_base(n, 1_000_000)
    }

    #[test]
    fn empty_streams_finish_immediately() {
        let sys = System::new(cfg(2), Script::new(vec![vec![], vec![]]), NullObserver);
        let (stats, _) = sys.run();
        assert_eq!(stats.finish_cycle, 0);
        assert_eq!(stats.total_insns(), 0);
    }

    #[test]
    fn single_proc_compute_only() {
        let ev = vec![
            Event::Block { bb: 1, insns: 60, taken: true },
            Event::Fp { ops: 40 },
        ];
        let sys = System::new(cfg(1), Script::new(vec![ev]), NullObserver);
        let (stats, _) = sys.run();
        assert_eq!(stats.total_insns(), 100);
        // 60/6 + 40/4 = 20 cycles, plus possible mispredict penalty.
        assert!(stats.finish_cycle >= 20 && stats.finish_cycle <= 20 + 14);
    }

    #[test]
    fn local_miss_then_hit() {
        let a = explicit_addr(0, 0x100);
        let ev = vec![
            Event::Mem { addr: a, write: false },
            Event::Mem { addr: a, write: false },
        ];
        let sys = System::new(cfg(1), Script::new(vec![ev]), NullObserver);
        let (stats, _) = sys.run();
        let p = &stats.procs[0];
        assert_eq!(p.mem_refs, 2);
        assert_eq!(p.l1_misses, 1);
        assert_eq!(p.l2_misses, 1);
        assert_eq!(p.local_home_misses, 1);
        assert!(p.mem_stall_cycles > 0);
    }

    #[test]
    fn remote_miss_costs_more_than_local() {
        let run = |home: usize| {
            let a = explicit_addr(home, 0x100);
            let ev0 = vec![Event::Mem { addr: a, write: false }];
            let sys = System::new(
                cfg(2),
                Script::new(vec![ev0, vec![]]),
                NullObserver,
            );
            let (stats, _) = sys.run();
            stats.procs[0].mem_stall_cycles
        };
        let local = run(0);
        let remote = run(1);
        assert!(remote > local, "remote {remote} should exceed local {local}");
    }

    #[test]
    fn coherence_write_invalidates_reader() {
        // P0 reads a block homed at 0; P1 then writes it; P0 reads again and
        // must miss (its copy was invalidated).
        let a = explicit_addr(0, 0x40);
        let ev0 = vec![
            Event::Mem { addr: a, write: false },
            Event::Barrier { id: 0 },
            Event::Barrier { id: 1 },
            Event::Mem { addr: a, write: false },
        ];
        let ev1 = vec![
            Event::Barrier { id: 0 },
            Event::Mem { addr: a, write: true },
            Event::Barrier { id: 1 },
        ];
        let sys = System::new(cfg(2), Script::new(vec![ev0, ev1]), NullObserver);
        let (stats, _) = sys.run();
        assert_eq!(stats.procs[0].l1_misses, 2, "second read must re-miss");
        assert_eq!(stats.directory.invalidations, 1);
        assert_eq!(stats.directory.owner_forwards, 1, "P1's write pulled the block from P0's E state");
    }

    #[test]
    fn barrier_aligns_cycles() {
        let ev0 = vec![
            Event::Block { bb: 1, insns: 6000, taken: true },
            Event::Barrier { id: 7 },
        ];
        let ev1 = vec![Event::Barrier { id: 7 }];
        let sys = System::new(cfg(2), Script::new(vec![ev0, ev1]), NullObserver);
        let (stats, _) = sys.run();
        assert_eq!(stats.procs[0].cycles, stats.procs[1].cycles);
        assert!(stats.procs[1].sync_wait_cycles >= 900, "fast proc waits");
    }

    #[test]
    #[should_panic(expected = "barrier mismatch")]
    fn mismatched_barrier_ids_panic() {
        let sys = System::new(
            cfg(2),
            Script::new(vec![vec![Event::Barrier { id: 1 }], vec![Event::Barrier { id: 2 }]]),
            NullObserver,
        );
        let _ = sys.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn missing_barrier_partner_deadlocks() {
        let sys = System::new(
            cfg(2),
            Script::new(vec![vec![Event::Barrier { id: 0 }], vec![]]),
            NullObserver,
        );
        let _ = sys.run();
    }

    #[test]
    fn lock_serializes_critical_sections() {
        let cs = |n: u32| {
            vec![
                Event::Acquire { lock: 9 },
                Event::Block { bb: n, insns: 600, taken: true },
                Event::Release { lock: 9 },
            ]
        };
        let sys = System::new(cfg(2), Script::new(vec![cs(1), cs(2)]), NullObserver);
        let (stats, _) = sys.run();
        // One of the two must have waited for the other's critical section.
        let waited: u64 = stats.procs.iter().map(|p| p.sync_wait_cycles).sum();
        assert!(waited >= 100, "someone must wait, got {waited}");
    }

    #[test]
    #[should_panic(expected = "does not own")]
    fn release_without_ownership_panics() {
        let sys = System::new(
            cfg(2),
            Script::new(vec![
                vec![Event::Acquire { lock: 1 }],
                vec![Event::Release { lock: 1 }],
            ]),
            NullObserver,
        );
        let _ = sys.run();
    }

    #[test]
    fn intervals_fire_with_observer() {
        struct Counter {
            intervals: usize,
            blocks: usize,
            mems: usize,
        }
        impl SimObserver for Counter {
            fn on_block_commit(&mut self, _: usize, _: u32, _: u32) {
                self.blocks += 1;
            }
            fn on_mem_commit(&mut self, _: usize, _: usize, _: u64, _: bool) {
                self.mems += 1;
            }
            fn on_interval(&mut self, _: usize, s: IntervalStats) {
                assert!(s.insns >= 100);
                self.intervals += 1;
            }
        }
        // interval base 100 over 1 proc = 100 insns/interval.
        let mut evs = vec![];
        for i in 0..50 {
            evs.push(Event::Block { bb: i % 4, insns: 10, taken: true });
            evs.push(Event::Mem { addr: explicit_addr(0, (i as u64) * 32), write: false });
        }
        let sys = System::new(
            SystemConfig::with_interval_base(1, 100),
            Script::new(vec![evs]),
            Counter { intervals: 0, blocks: 0, mems: 0 },
        );
        let (_, obs) = sys.run();
        assert_eq!(obs.blocks, 50);
        assert_eq!(obs.mems, 50);
        // 50*10 + 50 = 550 insns -> 5 intervals of >=100.
        assert_eq!(obs.intervals, 5);
    }

    #[test]
    fn contention_accumulates_on_hot_home() {
        // 4 procs all stream distinct blocks homed at node 0.
        let mk = |p: usize| {
            (0..200u64)
                .map(|i| Event::Mem {
                    addr: explicit_addr(0, (p as u64 * 10_000 + i) * 32),
                    write: false,
                })
                .collect::<Vec<_>>()
        };
        let sys = System::new(
            cfg(4),
            Script::new((0..4).map(mk).collect()),
            NullObserver,
        );
        let (stats, _) = sys.run();
        let contention: u64 = stats.procs.iter().map(|p| p.contention_cycles).sum();
        assert!(contention > 0, "hot home must produce queueing delay");
        assert_eq!(stats.memctrls[0].requests, 800);
    }

    #[test]
    fn lock_waiters_are_served_fifo() {
        // P0 takes the lock and computes; P1 then P2 queue up (P1 arrives
        // earlier because P2 computes longer first). Hand-off must be FIFO.
        let ev0 = vec![
            Event::Acquire { lock: 3 },
            Event::Block { bb: 1, insns: 60_000, taken: true },
            Event::Release { lock: 3 },
        ];
        let ev1 = vec![
            Event::Block { bb: 2, insns: 600, taken: true },
            Event::Acquire { lock: 3 },
            Event::Block { bb: 2, insns: 60_000, taken: true },
            Event::Release { lock: 3 },
        ];
        let ev2 = vec![
            Event::Block { bb: 3, insns: 6_000, taken: true },
            Event::Acquire { lock: 3 },
            Event::Release { lock: 3 },
        ];
        let sys = System::new(cfg(4), Script::new(vec![ev0, ev1, ev2, vec![]]), NullObserver);
        let (stats, _) = sys.run();
        // P1 (first waiter) resumes before P2: P2's wait includes P1's
        // whole critical section.
        assert!(
            stats.procs[2].sync_wait_cycles > stats.procs[1].sync_wait_cycles,
            "second waiter must wait longer: {} vs {}",
            stats.procs[2].sync_wait_cycles,
            stats.procs[1].sync_wait_cycles
        );
    }

    #[test]
    fn interval_spanning_a_barrier_includes_the_wait() {
        struct Grab(Vec<(u64, u64)>);
        impl SimObserver for Grab {
            fn on_block_commit(&mut self, _: usize, _: u32, _: u32) {}
            fn on_mem_commit(&mut self, _: usize, _: usize, _: u64, _: bool) {}
            fn on_interval(&mut self, proc: usize, s: IntervalStats) {
                if proc == 0 {
                    self.0.push((s.insns, s.cycles));
                }
            }
        }
        // interval = 100 insns; P0 commits 60, waits at a barrier for the
        // slow P1, then commits 60 more -> its first interval spans the
        // barrier and must include the wait cycles.
        let ev0 = vec![
            Event::Block { bb: 1, insns: 60, taken: true },
            Event::Barrier { id: 0 },
            Event::Block { bb: 1, insns: 60, taken: true },
        ];
        let ev1 = vec![
            Event::Block { bb: 2, insns: 60_000, taken: true },
            Event::Barrier { id: 0 },
            Event::Block { bb: 2, insns: 60, taken: true },
        ];
        let sys = System::new(
            SystemConfig::with_interval_base(2, 200),
            Script::new(vec![ev0, ev1]),
            Grab(Vec::new()),
        );
        let (_, grab) = sys.run();
        assert_eq!(grab.0.len(), 1);
        let (insns, cycles) = grab.0[0];
        assert_eq!(insns, 120);
        assert!(cycles > 10_000 / 6, "wait cycles must be charged, got {cycles}");
    }

    #[test]
    fn events_after_end_are_never_requested() {
        // Script returns End forever once exhausted; the system must not
        // keep polling a finished processor.
        struct CountingScript {
            inner: Script,
            polls_after_end: std::cell::Cell<u32>,
            ended: Vec<bool>,
        }
        impl InstructionStream for CountingScript {
            fn n_procs(&self) -> usize {
                self.inner.n_procs()
            }
            fn next(&mut self, proc: usize) -> Event {
                if self.ended[proc] {
                    self.polls_after_end.set(self.polls_after_end.get() + 1);
                }
                let e = self.inner.next(proc);
                if e == Event::End {
                    self.ended[proc] = true;
                }
                e
            }
        }
        let script = CountingScript {
            inner: Script::new(vec![
                vec![Event::Block { bb: 1, insns: 10, taken: true }],
                vec![Event::Block { bb: 2, insns: 10_000, taken: true }],
            ]),
            polls_after_end: std::cell::Cell::new(0),
            ended: vec![false; 2],
        };
        let sys = System::new(cfg(2), script, NullObserver);
        let (stats, _) = sys.run();
        assert_eq!(stats.total_insns(), 10_010);
    }

    #[test]
    fn batched_run_matches_unbatched_reference() {
        // Randomized mixed workloads (compute runs, memory, locks,
        // barriers) with short sampling intervals: the batched run() and
        // the one-event-at-a-time reference must produce identical final
        // stats and identical per-processor observer streams.
        #[derive(Clone, PartialEq, Debug, Default)]
        struct Log {
            blocks: Vec<(u32, u32)>,
            mems: Vec<(usize, u64, bool)>,
            intervals: Vec<(u64, u64, u64)>,
        }
        struct Recorder(Vec<Log>);
        impl SimObserver for Recorder {
            fn on_block_commit(&mut self, p: usize, bb: u32, insns: u32) {
                self.0[p].blocks.push((bb, insns));
            }
            fn on_mem_commit(&mut self, p: usize, home: usize, addr: u64, write: bool) {
                self.0[p].mems.push((home, addr, write));
            }
            fn on_interval(&mut self, p: usize, s: IntervalStats) {
                self.0[p].intervals.push((s.index, s.insns, s.cycles));
            }
        }

        let n = 4usize;
        let mk_events = |seed: u64| -> Vec<Vec<Event>> {
            (0..n)
                .map(|p| {
                    let mut x = seed ^ ((p as u64 + 1) << 32);
                    let mut rnd = move || {
                        x = crate::util::splitmix64(x);
                        x
                    };
                    let mut evs = Vec::new();
                    for round in 0..6u32 {
                        for _ in 0..(rnd() % 40 + 10) {
                            match rnd() % 8 {
                                0 => evs.push(Event::Mem {
                                    addr: explicit_addr(
                                        (rnd() % n as u64) as usize,
                                        (rnd() % 4096) * 32,
                                    ),
                                    write: rnd() % 3 == 0,
                                }),
                                1 => evs.push(Event::Fp { ops: (rnd() % 12 + 1) as u32 }),
                                _ => evs.push(Event::Block {
                                    bb: (rnd() % 19) as u32,
                                    insns: (rnd() % 30 + 4) as u32,
                                    taken: rnd() % 2 == 0,
                                }),
                            }
                        }
                        let lock = (rnd() % 3) as u32;
                        evs.push(Event::Acquire { lock });
                        evs.push(Event::Block {
                            bb: 99,
                            insns: (rnd() % 50 + 1) as u32,
                            taken: true,
                        });
                        evs.push(Event::Release { lock });
                        evs.push(Event::Barrier { id: round });
                    }
                    evs
                })
                .collect()
        };

        for seed in [1u64, 42, 0xdead_beef] {
            let cfg = SystemConfig::with_interval_base(n, 400); // interval = 100
            let recorder = || Recorder(vec![Log::default(); n]);
            let (stats_b, obs_b) =
                System::new(cfg.clone(), Script::new(mk_events(seed)), recorder()).run();
            let (stats_s, obs_s) =
                System::new(cfg, Script::new(mk_events(seed)), recorder()).run_unbatched();
            assert_eq!(stats_b, stats_s, "stats differ for seed {seed}");
            assert_eq!(obs_b.0, obs_s.0, "observer streams differ for seed {seed}");
            assert!(
                obs_b.0.iter().all(|l| !l.intervals.is_empty()),
                "test must exercise interval completion (seed {seed})"
            );
        }
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        #[derive(Clone, PartialEq, Debug, Default)]
        struct Log {
            blocks: Vec<(u32, u32)>,
            mems: Vec<(usize, u64, bool)>,
            intervals: Vec<(u64, u64, u64)>,
        }
        struct Rec(Vec<Log>);
        impl SimObserver for Rec {
            fn on_block_commit(&mut self, p: usize, bb: u32, insns: u32) {
                self.0[p].blocks.push((bb, insns));
            }
            fn on_mem_commit(&mut self, p: usize, home: usize, addr: u64, write: bool) {
                self.0[p].mems.push((home, addr, write));
            }
            fn on_interval(&mut self, p: usize, s: IntervalStats) {
                self.0[p].intervals.push((s.index, s.insns, s.cycles));
            }
        }

        let n = 4usize;
        let mk_events = |seed: u64| -> Vec<Vec<Event>> {
            (0..n)
                .map(|p| {
                    let mut x = seed ^ ((p as u64 + 1) << 32);
                    let mut rnd = move || {
                        x = crate::util::splitmix64(x);
                        x
                    };
                    let mut evs = Vec::new();
                    for round in 0..8u32 {
                        for _ in 0..(rnd() % 60 + 20) {
                            match rnd() % 6 {
                                0 => evs.push(Event::Mem {
                                    addr: explicit_addr(
                                        (rnd() % n as u64) as usize,
                                        (rnd() % 2048) * 32,
                                    ),
                                    write: rnd() % 3 == 0,
                                }),
                                1 => evs.push(Event::Fp { ops: (rnd() % 9 + 1) as u32 }),
                                _ => evs.push(Event::Block {
                                    bb: (rnd() % 23) as u32,
                                    insns: (rnd() % 25 + 4) as u32,
                                    taken: rnd() % 2 == 0,
                                }),
                            }
                        }
                        let lock = (rnd() % 2) as u32;
                        evs.push(Event::Acquire { lock });
                        evs.push(Event::Block { bb: 77, insns: (rnd() % 40 + 1) as u32, taken: true });
                        evs.push(Event::Release { lock });
                        evs.push(Event::Barrier { id: round });
                    }
                    evs
                })
                .collect()
        };

        for plan in [
            crate::config::FaultPlan::none(),
            crate::config::FaultPlan::mixed(11, 0.05),
        ] {
            for seed in [3u64, 0xfeed] {
                let mut cfg = SystemConfig::with_interval_base(n, 400); // interval = 100
                cfg.fault = plan;
                let recorder = || Rec(vec![Log::default(); n]);

                // Golden: run straight through.
                let (stats_a, obs_a) =
                    System::new(cfg.clone(), Script::new(mk_events(seed)), recorder()).run();

                // Checkpointed: run to a global interval boundary, snapshot.
                let mut sys =
                    System::new(cfg.clone(), Script::new(mk_events(seed)), recorder());
                assert!(sys.run_to_interval(2), "workload must reach boundary 2");
                assert!(sys.min_interval_index() >= 2);
                let snap = sys.state_snapshot();
                let obs_at_snap = sys.observer().0.clone();

                // The snapshotted machine itself must continue unperturbed.
                let (stats_c, obs_c) = sys.run_to_end();
                assert_eq!(stats_a, stats_c, "snapshot must not perturb (seed {seed})");
                assert_eq!(obs_a.0, obs_c.0);

                // A fresh machine + fast-forwarded stream + restored
                // observer must finish bit-identically.
                let mut stream = Script::new(mk_events(seed));
                for p in 0..n {
                    for _ in 0..snap.fetched[p] {
                        let _ = stream.next(p);
                    }
                }
                let mut restored = System::new(cfg, stream, Rec(obs_at_snap));
                restored.restore_state(&snap);
                let (stats_b, obs_b) = restored.run_to_end();
                assert_eq!(stats_a, stats_b, "restored run diverged (seed {seed})");
                assert_eq!(obs_a.0, obs_b.0, "observer streams diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn state_snapshot_roundtrips_through_equality() {
        // snapshot -> restore into a twin -> snapshot again must be equal,
        // including mid-flight pending events and lock/barrier state.
        let a = explicit_addr(0, 0x40);
        let evs = |_p: usize| {
            vec![
                Event::Block { bb: 1, insns: 30, taken: true },
                Event::Mem { addr: a, write: true },
                Event::Block { bb: 2, insns: 30, taken: false },
            ]
        };
        let mut sys = System::new(
            SystemConfig::with_interval_base(2, 100),
            Script::new(vec![evs(0), evs(1)]),
            NullObserver,
        );
        for _ in 0..3 {
            sys.step_batched();
        }
        let snap = sys.state_snapshot();
        let mut stream = Script::new(vec![evs(0), evs(1)]);
        for p in 0..2 {
            for _ in 0..snap.fetched[p] {
                let _ = stream.next(p);
            }
        }
        let mut twin = System::new(
            SystemConfig::with_interval_base(2, 100),
            stream,
            NullObserver,
        );
        twin.restore_state(&snap);
        assert_eq!(twin.state_snapshot(), snap);
        assert_eq!(twin.events_executed(), sys.events_executed());
    }

    /// Shared workload for the telemetry tests: enough misses and interval
    /// completions on both processors to populate every track.
    fn telemetry_workload() -> System<Script, NullObserver> {
        let mk = |p: usize| {
            (0..300u64)
                .flat_map(|i| {
                    [
                        Event::Block { bb: (i % 5) as u32, insns: 20, taken: i % 2 == 0 },
                        Event::Mem {
                            addr: explicit_addr((i % 2) as usize, (p as u64 * 8192 + i) * 32),
                            write: i % 4 == 0,
                        },
                    ]
                })
                .collect::<Vec<_>>()
        };
        System::new(
            SystemConfig::with_interval_base(2, 2000),
            Script::new(vec![mk(0), mk(1)]),
            NullObserver,
        )
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn telemetry_disabled_snapshot_is_empty() {
        let (stats, _, snap) = telemetry_workload().run_telemetry();
        assert!(stats.total_insns() > 0);
        assert!(!snap.enabled);
        assert!(snap.metrics.is_empty());
        assert!(snap.tracks.is_empty());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_spans_tile_each_track_and_metrics_mirror_stats() {
        let (stats, _, snap) = telemetry_workload().run_telemetry();
        assert!(snap.enabled);
        // 2 processors -> 2 coherence tracks + 2 interval tracks.
        assert_eq!(snap.tracks.len(), 4);
        assert_eq!(snap.tracks[0].name, "node0 coherence");
        assert_eq!(snap.tracks[3].name, "node1 intervals");
        for t in &snap.tracks {
            assert!(!t.spans.is_empty(), "track {} must have spans", t.name);
            // Spans on one track advance with the node's clock: each starts
            // at or after the previous one's end.
            for w in t.spans.windows(2) {
                assert!(
                    w[1].ts >= w[0].ts + w[0].dur,
                    "overlap on {}: {:?} then {:?}",
                    t.name,
                    w[0],
                    w[1]
                );
            }
        }
        // One coherence span per L2 miss (ring capacity not hit here).
        let misses: u64 = stats.procs.iter().map(|p| p.l2_misses).sum();
        let coherence_spans: u64 =
            snap.tracks[..2].iter().map(|t| t.spans.len() as u64).sum();
        assert_eq!(coherence_spans, misses);
        // One interval span per completed interval.
        let intervals: u64 = stats.procs.iter().map(|p| p.intervals).sum();
        let interval_spans: u64 =
            snap.tracks[2..].iter().map(|t| t.spans.len() as u64).sum();
        assert_eq!(interval_spans, intervals);
        // The registry mirrors the final stats.
        let get = |name: &str| {
            snap.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .clone()
        };
        assert_eq!(
            get("sim/procs/l2_misses").value,
            dsm_telemetry::MetricValue::Counter(misses)
        );
        match get("sim/coherence/stall_cycles").value {
            dsm_telemetry::MetricValue::Histogram { count, .. } => assert_eq!(count, misses),
            v => panic!("expected histogram, got {v:?}"),
        }
        match get("sim/finish_cycle").value {
            dsm_telemetry::MetricValue::Gauge(g) => assert_eq!(g, stats.finish_cycle as f64),
            v => panic!("expected gauge, got {v:?}"),
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_feature_does_not_change_simulation() {
        // The recorder is write-only: stats with the feature on must equal
        // the golden run the default build produces.
        let (a, _) = telemetry_workload().run();
        let (b, _, _) = telemetry_workload().run_telemetry();
        assert_eq!(a, b);
    }

    #[test]
    fn run_is_deterministic() {
        let mk = || {
            let evs: Vec<Vec<Event>> = (0..4)
                .map(|p: usize| {
                    (0..100u64)
                        .flat_map(|i| {
                            [
                                Event::Block { bb: (i % 7) as u32, insns: 12, taken: i % 3 != 0 },
                                Event::Mem {
                                    addr: explicit_addr((i % 4) as usize, (p as u64 * 64 + i) * 32),
                                    write: i % 5 == 0,
                                },
                            ]
                        })
                        .collect()
                })
                .collect();
            let sys = System::new(cfg(4), Script::new(evs), NullObserver);
            sys.run().0
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
    }
}
