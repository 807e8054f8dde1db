//! Versioned, deterministic binary checkpoint codec (`DSMCKPT6`).
//!
//! A checkpoint is the pair (simulator state, detector-collector state) at a
//! global interval boundary, plus the metadata needed to rebuild the machine
//! and fast-forward a fresh instruction stream to the same position. The
//! encoding is fully deterministic (little-endian integers, `f64` as raw
//! bits, all maps pre-sorted by key in the snapshot layer), so encoding the
//! same state twice yields byte-identical buffers — which the harness relies
//! on for byte-identical artefact reruns.
//!
//! Decoding is total: corrupt or truncated input of any shape produces a
//! typed [`CkptError`], never a panic or an attempted huge allocation. The
//! byte primitives and the structures this format shares with the harness
//! trace store (`DSMTRC4`) live in [`crate::wire`]; this module is the
//! `DSMCKPT6` layout over them.

use dsm_adapt::{
    AdaptSnap, Decision, DecisionKind, ObservedInterval, PhaseSnap, PhaseStateSnap,
};
use dsm_phase::ddv::{DdvSnap, FrequencySnap};
use dsm_phase::detector::{CollectorState, DetectorGeometry};
use dsm_sim::config::{CoreConfig, FaultPlan, RetryPolicy};
use dsm_sim::reconfig::ReconfigSnap;
use dsm_sim::directory::DirState;
use dsm_sim::event::Event;
use dsm_sim::state::{
    BarrierSnap, CacheState, DirectoryState, FaultSnap, GshareState, HomeMapState, LockSnap,
    MemCtrlState, NetworkState, ProcessorState, SystemState,
};
use dsm_sim::topology::TopologyKind;
use dsm_workloads::{App, Scale};

use crate::wire::{
    get_app, get_directory_stats, get_fault_stats, get_proc_stats, get_reconfig_stats,
    get_record, get_scale, put_app, put_directory_stats, put_fault_stats, put_proc_stats,
    put_reconfig_stats, put_record, put_scale, D, R, RECORD_MIN_BYTES, W,
};

/// Magic prefix: format name plus version digit. Version 2 added the
/// route-aware fabric: the topology + link-contention flag in the metadata
/// and the per-link flit counters in the network section. Version 3 scales
/// past 64 nodes: the barrier arrival bitmap became multi-word, the DDV
/// snapshot carries the O(n) aggregate-gather state (`G`, `S`, round
/// counter), and the metadata recorded the shard count of the since-removed
/// sharded core. Version 4 carries the adaptation subsystem:
/// per-processor core profiles, home-map migration overrides and touch
/// counters, the DVFS/reconfiguration snapshot, and an optional
/// [`AdaptSnap`] so a checkpoint taken mid-tuning resumes the §II protocol
/// bit-exactly. Version 5 carries the targeted-straggler fault-plan fields
/// (`slowdown_node`, `slowdown_from_cycle`, `slowdown_until_cycle`) the
/// diagnostics layer's ground-truth plans use. Version 6 drops the shard
/// count from the metadata: there is only the serial core.
pub const MAGIC: &[u8; 8] = b"DSMCKPT6";

/// The version-independent format prefix shared by every `DSMCKPT` version.
const MAGIC_FAMILY: &[u8; 7] = b"DSMCKPT";

/// Decode failure. Every variant is reachable from corrupt input; none of
/// them panic or allocate unboundedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// A `DSMCKPT` checkpoint of a different version (e.g. a pre-fabric
    /// `DSMCKPT1` file, or a `DSMCKPT5` file that still carries a shard
    /// count); re-capture the checkpoint with this build.
    UnsupportedVersion { version: u8 },
    /// The buffer ended before the structure it claims to hold.
    Truncated,
    /// Well-formed structure followed by unconsumed bytes.
    TrailingBytes,
    /// An enum tag out of range.
    BadTag { what: &'static str, tag: u64 },
    /// A value that parses but cannot describe a real machine
    /// (e.g. mismatched per-processor vector lengths).
    BadValue { what: &'static str },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a DSMCKPT6 checkpoint (bad magic)"),
            CkptError::UnsupportedVersion { version } => {
                write!(f, "unsupported DSMCKPT version {:?}", *version as char)
            }
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
            CkptError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CkptError::BadValue { what } => write!(f, "inconsistent checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Everything needed to rebuild the machine a [`SystemState`] belongs to:
/// the experiment coordinates (app, processor count, input scale, interval
/// base), the fault plan, and the detector geometry. `interval_index` is the
/// global interval boundary the snapshot sits at.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMeta {
    pub app: App,
    pub n_procs: usize,
    pub scale: Scale,
    pub interval_base: u64,
    /// Interconnect layout the snapshot's link vectors are indexed by;
    /// restoring on a different topology is a config error, not a decode
    /// error, so it is carried explicitly.
    pub topology: TopologyKind,
    /// Whether the captured run modelled per-link wormhole contention.
    pub link_contention: bool,
    pub plan: FaultPlan,
    pub geometry: DetectorGeometry,
    pub interval_index: u64,
}

/// A complete checkpoint: metadata, simulator state, collector state, and
/// — when the capturing run was an adaptation session — the tuning-protocol
/// state needed to resume mid-tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub meta: CheckpointMeta,
    pub system: SystemState,
    pub collector: CollectorState,
    /// `Some` iff the checkpoint was taken inside an
    /// [`AdaptSession`](dsm_adapt::AdaptSession); plain captures carry
    /// `None`.
    pub adapt: Option<AdaptSnap>,
}

fn put_event(w: &mut W, e: &Event) {
    match *e {
        Event::End => w.u8(0),
        Event::Block { bb, insns, taken } => {
            w.u8(1);
            w.u64(bb as u64);
            w.u64(insns as u64);
            w.boolean(taken);
        }
        Event::Mem { addr, write } => {
            w.u8(2);
            w.u64(addr);
            w.boolean(write);
        }
        Event::Fp { ops } => {
            w.u8(3);
            w.u64(ops as u64);
        }
        Event::Barrier { id } => {
            w.u8(4);
            w.u64(id as u64);
        }
        Event::Acquire { lock } => {
            w.u8(5);
            w.u64(lock as u64);
        }
        Event::Release { lock } => {
            w.u8(6);
            w.u64(lock as u64);
        }
    }
}

fn get_event(r: &mut R) -> D<Event> {
    Ok(match r.u8()? {
        0 => Event::End,
        1 => Event::Block {
            bb: r.u32_checked("event bb")?,
            insns: r.u32_checked("event insns")?,
            taken: r.boolean("event taken")?,
        },
        2 => Event::Mem { addr: r.u64()?, write: r.boolean("event write")? },
        3 => Event::Fp { ops: r.u32_checked("event ops")? },
        4 => Event::Barrier { id: r.u32_checked("event id")? },
        5 => Event::Acquire { lock: r.u32_checked("event lock")? },
        6 => Event::Release { lock: r.u32_checked("event lock")? },
        t => return Err(CkptError::BadTag { what: "event", tag: t as u64 }),
    })
}

// ---------------------------------------------------------------------------
// Structure encoders / decoders
// ---------------------------------------------------------------------------

fn put_cache(w: &mut W, c: &CacheState) {
    w.vec_u64(&c.tags);
    w.vec_u64(&c.lru);
    w.u64(c.clock);
    w.u64(c.hits);
    w.u64(c.misses);
}

fn get_cache(r: &mut R) -> D<CacheState> {
    Ok(CacheState {
        tags: r.vec_u64()?,
        lru: r.vec_u64()?,
        clock: r.u64()?,
        hits: r.u64()?,
        misses: r.u64()?,
    })
}

fn put_proc(w: &mut W, p: &ProcessorState) {
    w.u64(p.cycle);
    w.u64(p.commit_carry);
    w.u64(p.fp_carry);
    w.u64(p.interval_progress);
    w.u64(p.interval_start_cycle);
    w.u64(p.interval_index);
    w.boolean(p.finished);
    w.boolean(p.blocked);
    w.u64(p.blocked_since);
    put_proc_stats(w, &p.stats);
    put_cache(w, &p.l1);
    put_cache(w, &p.l2);
    w.vec_u8(&p.gshare.table);
    w.u64(p.gshare.history);
    w.u64(p.gshare.predictions);
    w.u64(p.gshare.mispredictions);
    // Version 4: the core profile in force (heterogeneous actuator).
    w.u64(p.core.commit_width as u64);
    w.u64(p.core.fpu_units as u64);
    w.u64(p.core.mispredict_penalty);
    w.u64(p.core.gshare_entries as u64);
    w.u64(p.core.stall_exposure_num);
}

fn get_proc(r: &mut R) -> D<ProcessorState> {
    let cycle = r.u64()?;
    let commit_carry = r.u64()?;
    let fp_carry = r.u64()?;
    let interval_progress = r.u64()?;
    let interval_start_cycle = r.u64()?;
    let interval_index = r.u64()?;
    let finished = r.boolean("proc finished")?;
    let blocked = r.boolean("proc blocked")?;
    let blocked_since = r.u64()?;
    let stats = get_proc_stats(r)?;
    let l1 = get_cache(r)?;
    let l2 = get_cache(r)?;
    let table = r.vec_u8()?;
    if table.iter().any(|&c| c > 3) {
        return Err(CkptError::BadValue { what: "gshare counter > 3" });
    }
    Ok(ProcessorState {
        cycle,
        commit_carry,
        fp_carry,
        interval_progress,
        interval_start_cycle,
        interval_index,
        finished,
        blocked,
        blocked_since,
        stats,
        l1,
        l2,
        gshare: GshareState {
            table,
            history: r.u64()?,
            predictions: r.u64()?,
            mispredictions: r.u64()?,
        },
        core: CoreConfig {
            commit_width: r.u32_checked("core commit_width")?,
            fpu_units: r.u32_checked("core fpu_units")?,
            mispredict_penalty: r.u64()?,
            gshare_entries: r.usize_checked("core gshare_entries")?,
            stall_exposure_num: r.u64()?,
        },
    })
}

fn put_system(w: &mut W, s: &SystemState) {
    w.u64(s.procs.len() as u64);
    for p in &s.procs {
        put_proc(w, p);
    }
    w.u64(s.directory.entries.len() as u64);
    for &(block, state) in &s.directory.entries {
        w.u64(block);
        match state {
            DirState::Shared(mask) => {
                w.u8(0);
                w.u64(mask);
            }
            DirState::Exclusive(owner) => {
                w.u8(1);
                w.u64(owner as u64);
            }
        }
    }
    put_directory_stats(w, &s.directory.stats);
    w.u64(s.network.msgs);
    w.u64(s.network.payload_msgs);
    w.u64(s.network.total_hops);
    w.u64(s.network.link_wait_cycles);
    w.u64(s.network.total_flit_hops);
    w.vec_u64(&s.network.link_busy);
    w.vec_u64(&s.network.link_flits);
    w.u64(s.memctrls.len() as u64);
    for m in &s.memctrls {
        w.vec_u64(&m.busy_until);
        w.u64(m.requests);
        w.u64(m.total_queue_delay);
    }
    w.u64(s.home.first_touch.len() as u64);
    for &(page, node) in &s.home.first_touch {
        w.u64(page);
        w.u64(node as u64);
    }
    // Version 4: migration overrides and the hot-page touch window.
    w.u64(s.home.overrides.len() as u64);
    for &(page, node) in &s.home.overrides {
        w.u64(page);
        w.u64(node as u64);
    }
    w.u64(s.home.touches.len() as u64);
    for (page, counts) in &s.home.touches {
        w.u64(*page);
        w.vec_u64(counts);
    }
    w.boolean(s.home.track);
    w.u64(s.locks.len() as u64);
    for l in &s.locks {
        w.u64(l.id as u64);
        w.opt_u64(l.owner.map(|o| o as u64));
        w.vec_u64(&l.waiters.iter().map(|&x| x as u64).collect::<Vec<_>>());
    }
    w.opt_u64(s.barrier.current_id.map(|i| i as u64));
    w.vec_u64(&s.barrier.arrived);
    w.vec_u64(&s.barrier.arrival_cycle);
    w.u64(s.fault.draws);
    put_fault_stats(w, &s.fault.stats);
    w.u64(s.pending.len() as u64);
    for p in &s.pending {
        match p {
            None => w.u8(0),
            Some(e) => {
                w.u8(1);
                put_event(w, e);
            }
        }
    }
    w.u64(s.events_executed);
    w.vec_u64(&s.fetched);
    // Version 4: DVFS levels and reconfiguration counters.
    w.vec_u64(&s.reconfig.dvfs_num);
    put_reconfig_stats(w, &s.reconfig.stats);
}

fn get_system(r: &mut R) -> D<SystemState> {
    // ProcessorState is hundreds of bytes; 64 is a safe per-item floor for
    // the pre-allocation guard.
    let n = r.len(64)?;
    let procs = (0..n).map(|_| get_proc(r)).collect::<D<Vec<_>>>()?;
    let n_dir = r.len(17)?;
    let mut entries = Vec::with_capacity(n_dir);
    for _ in 0..n_dir {
        let block = r.u64()?;
        let state = match r.u8()? {
            0 => DirState::Shared(r.u64()?),
            1 => DirState::Exclusive(r.usize_checked("directory owner")?),
            t => return Err(CkptError::BadTag { what: "directory state", tag: t as u64 }),
        };
        entries.push((block, state));
    }
    let stats = get_directory_stats(r)?;
    let network = NetworkState {
        msgs: r.u64()?,
        payload_msgs: r.u64()?,
        total_hops: r.u64()?,
        link_wait_cycles: r.u64()?,
        total_flit_hops: r.u64()?,
        link_busy: r.vec_u64()?,
        link_flits: r.vec_u64()?,
    };
    if network.link_flits.len() != network.link_busy.len() {
        return Err(CkptError::BadValue { what: "network link vector lengths" });
    }
    let n_mc = r.len(24)?;
    let memctrls = (0..n_mc)
        .map(|_| {
            Ok(MemCtrlState {
                busy_until: r.vec_u64()?,
                requests: r.u64()?,
                total_queue_delay: r.u64()?,
            })
        })
        .collect::<D<Vec<_>>>()?;
    let n_ft = r.len(16)?;
    let mut first_touch = Vec::with_capacity(n_ft);
    for _ in 0..n_ft {
        let page = r.u64()?;
        let node = r.usize_checked("first-touch node")?;
        first_touch.push((page, node));
    }
    let n_ov = r.len(16)?;
    let mut overrides = Vec::with_capacity(n_ov);
    for _ in 0..n_ov {
        let page = r.u64()?;
        let node = r.usize_checked("override node")?;
        overrides.push((page, node));
    }
    let n_touch = r.len(16)?;
    let mut touches = Vec::with_capacity(n_touch);
    for _ in 0..n_touch {
        let page = r.u64()?;
        let counts = r.vec_u64()?;
        touches.push((page, counts));
    }
    let track = r.boolean("touch tracking")?;
    let n_locks = r.len(17)?;
    let locks = (0..n_locks)
        .map(|_| {
            let id = r.u32_checked("lock id")?;
            let owner = match r.opt_u64("lock owner")? {
                None => None,
                Some(o) => {
                    Some(usize::try_from(o).map_err(|_| CkptError::BadValue { what: "lock owner" })?)
                }
            };
            let waiters = r
                .vec_u64()?
                .into_iter()
                .map(|x| usize::try_from(x).map_err(|_| CkptError::BadValue { what: "lock waiter" }))
                .collect::<D<Vec<_>>>()?;
            Ok(LockSnap { id, owner, waiters })
        })
        .collect::<D<Vec<_>>>()?;
    let barrier = BarrierSnap {
        current_id: match r.opt_u64("barrier id")? {
            None => None,
            Some(i) => {
                Some(u32::try_from(i).map_err(|_| CkptError::BadValue { what: "barrier id" })?)
            }
        },
        arrived: r.vec_u64()?,
        arrival_cycle: r.vec_u64()?,
    };
    let fault = FaultSnap { draws: r.u64()?, stats: get_fault_stats(r)? };
    let n_pend = r.len(1)?;
    let pending = (0..n_pend)
        .map(|_| {
            Ok(match r.u8()? {
                0 => None,
                1 => Some(get_event(r)?),
                t => return Err(CkptError::BadTag { what: "pending slot", tag: t as u64 }),
            })
        })
        .collect::<D<Vec<_>>>()?;
    let events_executed = r.u64()?;
    let fetched = r.vec_u64()?;
    let dvfs_num = r.vec_u64()?;
    let reconfig = ReconfigSnap { dvfs_num, stats: get_reconfig_stats(r)? };
    let st = SystemState {
        procs,
        directory: DirectoryState { entries, stats },
        network,
        memctrls,
        home: HomeMapState { first_touch, overrides, touches, track },
        reconfig,
        locks,
        barrier,
        fault,
        pending,
        events_executed,
        fetched,
    };
    let n = st.procs.len();
    if n == 0
        || st.pending.len() != n
        || st.fetched.len() != n
        || st.barrier.arrival_cycle.len() != n
        || st.barrier.arrived.len() != n.div_ceil(64)
        || st.memctrls.len() != n
    {
        return Err(CkptError::BadValue { what: "per-processor vector lengths" });
    }
    if !(st.reconfig.dvfs_num.is_empty() || st.reconfig.dvfs_num.len() == n)
        || st.home.touches.iter().any(|(_, c)| c.len() != n)
    {
        return Err(CkptError::BadValue { what: "reconfiguration vector lengths" });
    }
    Ok(st)
}

fn put_collector(w: &mut W, c: &CollectorState) {
    w.u64(c.bbv.len() as u64);
    for b in &c.bbv {
        w.vec_u64(b);
    }
    w.u64(c.ws.len() as u64);
    for s in &c.ws {
        w.vec_u64(s);
    }
    w.vec_u64(&c.branches);
    w.u64(c.ddv.mats.len() as u64);
    for m in &c.ddv.mats {
        w.vec_u64(&m.cum);
        w.vec_u64(&m.snap);
    }
    w.vec_u64(&c.ddv.gcum);
    w.vec_u64(&c.ddv.gsnap);
    w.u64(c.ddv.queries);
    w.u64(c.ddv.vectors_exchanged);
    w.u64(c.ddv.gather_rounds);
    w.u64(c.records.len() as u64);
    for recs in &c.records {
        w.u64(recs.len() as u64);
        for rec in recs {
            put_record(w, rec);
        }
    }
}

fn get_collector(r: &mut R, n_procs: usize) -> D<CollectorState> {
    let n_bbv = r.len(8)?;
    let bbv = (0..n_bbv).map(|_| r.vec_u64()).collect::<D<Vec<_>>>()?;
    let n_ws = r.len(8)?;
    let ws = (0..n_ws).map(|_| r.vec_u64()).collect::<D<Vec<_>>>()?;
    let branches = r.vec_u64()?;
    let n_mats = r.len(16)?;
    let mats = (0..n_mats)
        .map(|_| Ok(FrequencySnap { cum: r.vec_u64()?, snap: r.vec_u64()? }))
        .collect::<D<Vec<_>>>()?;
    let ddv = DdvSnap {
        mats,
        gcum: r.vec_u64()?,
        gsnap: r.vec_u64()?,
        queries: r.u64()?,
        vectors_exchanged: r.u64()?,
        gather_rounds: r.u64()?,
    };
    let n_rec = r.len(8)?;
    let records = (0..n_rec)
        .map(|_| {
            let n = r.len(RECORD_MIN_BYTES)?;
            (0..n).map(|_| get_record(r)).collect::<D<Vec<_>>>()
        })
        .collect::<D<Vec<_>>>()?;
    let c = CollectorState { bbv, ws, branches, ddv, records };
    if c.bbv.len() != n_procs
        || c.ws.len() != n_procs
        || c.branches.len() != n_procs
        || c.ddv.mats.len() != n_procs
        || c.records.len() != n_procs
        || c.ddv.gcum.len() != n_procs
        || c.ddv.gsnap.len() != n_procs * n_procs
        || c.ddv.mats.iter().any(|m| m.cum.len() != n_procs || m.snap.len() != n_procs * n_procs)
    {
        return Err(CkptError::BadValue { what: "collector sized for a different machine" });
    }
    Ok(c)
}

/// Whether a collector built for `g` can import `c`: every stored BBV row
/// has `g.bbv_entries` buckets and every working-set row `g.ws_bits / 64`
/// words, and each size is one the detector can be built with.
fn geometry_fits(g: &DetectorGeometry, c: &CollectorState) -> bool {
    g.bbv_entries > 0
        && g.footprint_vectors > 0
        && g.ws_bits > 0
        && g.ws_bits.is_multiple_of(64)
        && c.bbv.iter().all(|row| row.len() == g.bbv_entries)
        && c.ws.iter().all(|row| row.len() == g.ws_bits / 64)
}

fn put_adapt(w: &mut W, a: &AdaptSnap) {
    w.u64(a.target);
    w.u64(a.processed);
    w.u64(a.phases.len() as u64);
    for p in &a.phases {
        w.u64(p.phase as u64);
        match p.state {
            PhaseStateSnap::Tuning { config, trials_left, best_config, best_score, acc, acc_n } => {
                w.u8(0);
                w.u64(config);
                w.u64(trials_left);
                w.u64(best_config);
                w.f64(best_score);
                w.f64(acc);
                w.u64(acc_n);
            }
            PhaseStateSnap::Locked { config } => {
                w.u8(1);
                w.u64(config);
            }
        }
    }
    w.u64(a.decisions.len() as u64);
    for d in &a.decisions {
        w.u64(d.interval);
        w.u64(d.phase as u64);
        match d.kind {
            DecisionKind::Trial { config } => {
                w.u8(0);
                w.u64(config as u64);
            }
            DecisionKind::Lock { config } => {
                w.u8(1);
                w.u64(config as u64);
            }
        }
    }
    w.u64(a.stream.len() as u64);
    for o in &a.stream {
        w.u64(o.index);
        w.u64(o.phase as u64);
        w.f64(o.cpi);
        w.boolean(o.degraded);
    }
    w.u64(a.retunes);
    w.vec_u64(&a.actuator);
}

fn get_adapt(r: &mut R) -> D<AdaptSnap> {
    let target = r.u64()?;
    let processed = r.u64()?;
    let n_phases = r.len(17)?;
    let phases = (0..n_phases)
        .map(|_| {
            let phase = r.u32_checked("adapt phase id")?;
            let state = match r.u8()? {
                0 => PhaseStateSnap::Tuning {
                    config: r.u64()?,
                    trials_left: r.u64()?,
                    best_config: r.u64()?,
                    best_score: r.f64()?,
                    acc: r.f64()?,
                    acc_n: r.u64()?,
                },
                1 => PhaseStateSnap::Locked { config: r.u64()? },
                t => return Err(CkptError::BadTag { what: "adapt phase state", tag: t as u64 }),
            };
            Ok(PhaseSnap { phase, state })
        })
        .collect::<D<Vec<_>>>()?;
    let n_dec = r.len(25)?;
    let decisions = (0..n_dec)
        .map(|_| {
            let interval = r.u64()?;
            let phase = r.u32_checked("decision phase id")?;
            let kind = match r.u8()? {
                0 => DecisionKind::Trial { config: r.usize_checked("trial config")? },
                1 => DecisionKind::Lock { config: r.usize_checked("locked config")? },
                t => return Err(CkptError::BadTag { what: "decision kind", tag: t as u64 }),
            };
            Ok(Decision { interval, phase, kind })
        })
        .collect::<D<Vec<_>>>()?;
    let n_stream = r.len(25)?;
    let stream = (0..n_stream)
        .map(|_| {
            Ok(ObservedInterval {
                index: r.u64()?,
                phase: r.u32_checked("observed phase id")?,
                cpi: r.f64()?,
                degraded: r.boolean("observed degraded")?,
            })
        })
        .collect::<D<Vec<_>>>()?;
    let a = AdaptSnap {
        target,
        processed,
        phases,
        decisions,
        stream,
        retunes: r.u64()?,
        actuator: r.vec_u64()?,
    };
    // `processed` counts proc-0 records consumed, which legitimately runs
    // ahead of the global minimum boundary `target` — only the stream-length
    // pairing is an invariant.
    if a.processed as usize != a.stream.len() {
        return Err(CkptError::BadValue { what: "adapt stream length" });
    }
    Ok(a)
}

impl Checkpoint {
    /// Serialize to the `DSMCKPT6` byte format. Deterministic: the same
    /// checkpoint always encodes to the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::with_magic(MAGIC);
        let m = &self.meta;
        put_app(&mut w, m.app);
        w.u64(m.n_procs as u64);
        put_scale(&mut w, m.scale);
        w.u64(m.interval_base);
        let topo_idx =
            TopologyKind::ALL.iter().position(|k| *k == m.topology).expect("known topology") as u8;
        w.u8(topo_idx);
        w.boolean(m.link_contention);
        let p = &m.plan;
        w.u64(p.seed);
        w.u64(p.drop_ppm as u64);
        w.u64(p.duplicate_ppm as u64);
        w.u64(p.spike_ppm as u64);
        w.u64(p.spike_cycles);
        w.u64(p.slowdown_ppm as u64);
        w.u64(p.slowdown_window_cycles);
        w.u64(p.slowdown_extra_num);
        w.u64(p.slowdown_issue_num);
        w.opt_u64(p.slowdown_node.map(|n| n as u64));
        w.u64(p.slowdown_from_cycle);
        w.u64(p.slowdown_until_cycle);
        w.u64(p.retry.timeout_cycles);
        w.u64(p.retry.max_backoff_cycles);
        w.u64(p.retry.max_retries as u64);
        w.u64(m.geometry.bbv_entries as u64);
        w.u64(m.geometry.footprint_vectors as u64);
        w.u64(m.geometry.ws_bits as u64);
        w.u64(m.interval_index);
        put_system(&mut w, &self.system);
        put_collector(&mut w, &self.collector);
        match &self.adapt {
            None => w.u8(0),
            Some(a) => {
                w.u8(1);
                put_adapt(&mut w, a);
            }
        }
        w.into_bytes()
    }

    /// Decode a `DSMCKPT6` buffer. Total: any input yields `Ok` or a typed
    /// [`CkptError`]; never panics, never over-allocates on hostile lengths.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC_FAMILY.len()] != MAGIC_FAMILY {
            return Err(CkptError::BadMagic);
        }
        let version = bytes[MAGIC_FAMILY.len()];
        if version != MAGIC[MAGIC_FAMILY.len()] {
            return Err(CkptError::UnsupportedVersion { version });
        }
        let mut r = R::new(&bytes[MAGIC.len()..]);
        let app = get_app(&mut r)?;
        let n_procs = r.usize_checked("n_procs")?;
        if n_procs == 0 || n_procs > 4096 {
            return Err(CkptError::BadValue { what: "n_procs" });
        }
        let scale = get_scale(&mut r)?;
        let interval_base = r.u64()?;
        let topo_tag = r.u8()?;
        let topology = *TopologyKind::ALL
            .get(topo_tag as usize)
            .ok_or(CkptError::BadTag { what: "topology", tag: topo_tag as u64 })?;
        let link_contention = r.boolean("link_contention")?;
        let plan = FaultPlan {
            seed: r.u64()?,
            drop_ppm: r.u32_checked("drop_ppm")?,
            duplicate_ppm: r.u32_checked("duplicate_ppm")?,
            spike_ppm: r.u32_checked("spike_ppm")?,
            spike_cycles: r.u64()?,
            slowdown_ppm: r.u32_checked("slowdown_ppm")?,
            slowdown_window_cycles: r.u64()?,
            slowdown_extra_num: r.u64()?,
            slowdown_issue_num: r.u64()?,
            slowdown_node: r.opt_u64("slowdown_node")?.map(|n| n as usize),
            slowdown_from_cycle: r.u64()?,
            slowdown_until_cycle: r.u64()?,
            retry: RetryPolicy {
                timeout_cycles: r.u64()?,
                max_backoff_cycles: r.u64()?,
                max_retries: r.u32_checked("max_retries")?,
            },
        };
        let geometry = DetectorGeometry {
            bbv_entries: r.usize_checked("bbv_entries")?,
            footprint_vectors: r.usize_checked("footprint_vectors")?,
            ws_bits: r.usize_checked("ws_bits")?,
        };
        let interval_index = r.u64()?;
        let system = get_system(&mut r)?;
        if system.procs.len() != n_procs {
            return Err(CkptError::BadValue { what: "system sized for a different machine" });
        }
        let collector = get_collector(&mut r, n_procs)?;
        if !geometry_fits(&geometry, &collector) {
            return Err(CkptError::BadValue { what: "geometry does not fit the collector" });
        }
        let adapt = match r.u8()? {
            0 => None,
            1 => Some(get_adapt(&mut r)?),
            t => return Err(CkptError::BadTag { what: "adapt presence", tag: t as u64 }),
        };
        r.finish()?;
        Ok(Checkpoint {
            meta: CheckpointMeta {
                app,
                n_procs,
                scale,
                interval_base,
                topology,
                link_contention,
                plan,
                geometry,
                interval_index,
            },
            system,
            collector,
            adapt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_phase::detector::IntervalRecord;
    use dsm_sim::directory::DirectoryStats;
    use dsm_sim::reconfig::ReconfigStats;
    use dsm_sim::{FaultStats, ProcStats};

    fn sample_checkpoint() -> Checkpoint {
        let cache = |k: u64| CacheState {
            tags: vec![k, k + 1, 0],
            lru: vec![3, 2, 1],
            clock: 9 + k,
            hits: 5,
            misses: 2,
        };
        let proc = |p: u64| ProcessorState {
            cycle: 1000 + p,
            commit_carry: 3,
            fp_carry: 1,
            interval_progress: 42,
            interval_start_cycle: 900,
            interval_index: 7,
            finished: false,
            blocked: p == 1,
            blocked_since: 950,
            stats: ProcStats { cycles: 1000 + p, insns: 800, ..Default::default() },
            l1: cache(p),
            l2: cache(p + 10),
            gshare: GshareState {
                table: vec![0, 1, 2, 3],
                history: 0b1011,
                predictions: 60,
                mispredictions: 4,
            },
            core: CoreConfig {
                commit_width: 2 + p as u32,
                fpu_units: 2,
                mispredict_penalty: 8,
                gshare_entries: 4,
                stall_exposure_num: 110,
            },
        };
        Checkpoint {
            meta: CheckpointMeta {
                app: App::Fmm,
                n_procs: 2,
                scale: Scale::Test,
                interval_base: 16_000,
                topology: TopologyKind::Torus2D,
                link_contention: true,
                plan: FaultPlan::mixed(7, 0.01),
                // Fits the collector below: 3 BBV buckets, one WS word.
                geometry: DetectorGeometry { bbv_entries: 3, footprint_vectors: 32, ws_bits: 64 },
                interval_index: 7,
            },
            system: SystemState {
                procs: vec![proc(0), proc(1)],
                directory: DirectoryState {
                    entries: vec![(4, DirState::Shared(0b11)), (9, DirState::Exclusive(1))],
                    stats: DirectoryStats { reads: 12, writes: 3, ..Default::default() },
                },
                network: NetworkState {
                    msgs: 40,
                    payload_msgs: 13,
                    total_hops: 55,
                    link_wait_cycles: 6,
                    total_flit_hops: 130,
                    link_busy: vec![100, 90],
                    link_flits: vec![52, 78],
                },
                memctrls: vec![
                    MemCtrlState { busy_until: vec![50, 60], requests: 7, total_queue_delay: 11 },
                    MemCtrlState { busy_until: vec![0, 0], requests: 0, total_queue_delay: 0 },
                ],
                home: HomeMapState {
                    first_touch: vec![(1, 0), (5, 1)],
                    overrides: vec![(5, 0)],
                    touches: vec![(1, vec![3, 9]), (5, vec![8, 0])],
                    track: true,
                },
                reconfig: ReconfigSnap {
                    dvfs_num: vec![224, 288],
                    stats: ReconfigStats {
                        migrations: 1,
                        migration_stall_cycles: 48,
                        dvfs_epochs: 2,
                        dvfs_extra_cycles: 0,
                        dvfs_saved_cycles: 0,
                        core_switches: 1,
                    },
                },
                locks: vec![LockSnap { id: 0, owner: Some(1), waiters: vec![0] }],
                barrier: BarrierSnap {
                    current_id: Some(3),
                    arrived: vec![0b10],
                    arrival_cycle: vec![0, 998],
                },
                fault: FaultSnap {
                    draws: 77,
                    stats: FaultStats { messages: 40, drops: 2, ..Default::default() },
                },
                pending: vec![Some(Event::Mem { addr: 0x40, write: true }), None],
                events_executed: 512,
                fetched: vec![260, 255],
            },
            collector: CollectorState {
                bbv: vec![vec![1, 0, 7], vec![0, 0, 2]],
                ws: vec![vec![0b101], vec![0]],
                branches: vec![11, 3],
                ddv: DdvSnap {
                    mats: vec![
                        FrequencySnap { cum: vec![4, 1], snap: vec![0, 0, 4, 1] },
                        FrequencySnap { cum: vec![2, 2], snap: vec![1, 1, 0, 0] },
                    ],
                    gcum: vec![6, 3],
                    gsnap: vec![1, 1, 4, 1],
                    queries: 14,
                    vectors_exchanged: 14,
                    gather_rounds: 14,
                },
                records: vec![
                    vec![IntervalRecord {
                        proc: 0,
                        index: 0,
                        insns: 100,
                        cycles: 210,
                        bbv: vec![0.25, 0.75, 0.0],
                        fvec: vec![3, 1],
                        cvec: vec![5, 1],
                        dds: 17.5,
                        ws_sig: vec![0b11],
                        branches: 9,
                    }],
                    vec![],
                ],
            },
            adapt: None,
        }
    }

    fn sample_adapt() -> AdaptSnap {
        AdaptSnap {
            target: 4,
            processed: 3,
            phases: vec![
                PhaseSnap {
                    phase: 0,
                    state: PhaseStateSnap::Tuning {
                        config: 2,
                        trials_left: 1,
                        best_config: 1,
                        best_score: 1.75,
                        acc: 0.5,
                        acc_n: 0,
                    },
                },
                PhaseSnap { phase: 3, state: PhaseStateSnap::Locked { config: 1 } },
            ],
            decisions: vec![
                Decision { interval: 0, phase: 0, kind: DecisionKind::Trial { config: 0 } },
                Decision { interval: 2, phase: 3, kind: DecisionKind::Lock { config: 1 } },
            ],
            stream: vec![
                ObservedInterval { index: 0, phase: 0, cpi: 1.5, degraded: false },
                ObservedInterval { index: 1, phase: 0, cpi: 1.25, degraded: true },
                ObservedInterval { index: 2, phase: 3, cpi: 2.0, degraded: false },
            ],
            retunes: 2,
            actuator: vec![7, 9],
        }
    }

    /// FNV-1a 64, as the harness trace store keys entries.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // Any change to these digests is a DSMCKPT6 layout change: bump the
        // version digit instead of editing the pin.
        // The pins were recorded with the default geometry in the header,
        // which the sample's 3-bucket collector does not fit (the decoder
        // rejects that pairing); the layout under test is the same.
        let pinned = || {
            let mut ck = sample_checkpoint();
            ck.meta.geometry = DetectorGeometry::default();
            ck
        };
        let plain = pinned().encode();
        assert_eq!((plain.len(), fnv1a64(&plain)), (2267, 0x88ffe2da4b7c8c36));
        let mut ck = pinned();
        ck.adapt = Some(sample_adapt());
        let with_adapt = ck.encode();
        assert_eq!((with_adapt.len(), fnv1a64(&with_adapt)), (2538, 0xf6521e10f7e38f64));
    }

    #[test]
    fn roundtrip_is_identity_and_deterministic() {
        let ck = sample_checkpoint();
        let bytes = ck.encode();
        assert_eq!(bytes, ck.encode(), "encoding must be deterministic");
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.encode(), bytes, "re-encoding must reproduce the bytes");
    }

    #[test]
    fn roundtrip_carries_targeted_straggler_plan() {
        // Version 5's reason to exist: the targeted-slowdown fields survive
        // the round trip, `Some` and `None` alike (the `None` arm rides in
        // every other test via `FaultPlan::mixed`).
        let mut ck = sample_checkpoint();
        ck.meta.plan = FaultPlan::straggler(99, 1, 10_000, 90_000);
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.meta.plan.slowdown_node, Some(1));
        assert_eq!(back.meta.plan.slowdown_from_cycle, 10_000);
        assert_eq!(back.meta.plan.slowdown_until_cycle, 90_000);
        assert_eq!(back, ck);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn roundtrip_with_adapt_section() {
        let mut ck = sample_checkpoint();
        ck.adapt = Some(sample_adapt());
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.encode(), bytes);
        // Every truncation of the adapt tail still errors cleanly.
        let plain_len = { sample_checkpoint().encode().len() };
        for cut in plain_len..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn inconsistent_adapt_stream_rejected() {
        let mut ck = sample_checkpoint();
        let mut a = sample_adapt();
        a.stream.pop(); // processed no longer matches the stream length
        ck.adapt = Some(a);
        assert_eq!(
            Checkpoint::decode(&ck.encode()),
            Err(CkptError::BadValue { what: "adapt stream length" })
        );
    }

    #[test]
    fn mismatched_dvfs_vector_rejected() {
        let mut ck = sample_checkpoint();
        ck.system.reconfig.dvfs_num = vec![256]; // machine has 2 procs
        assert_eq!(
            Checkpoint::decode(&ck.encode()),
            Err(CkptError::BadValue { what: "reconfiguration vector lengths" })
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Checkpoint::decode(b""), Err(CkptError::BadMagic));
        assert_eq!(Checkpoint::decode(b"DSMTRC2\n"), Err(CkptError::BadMagic));
        assert_eq!(Checkpoint::decode(b"DSMTRC3\n"), Err(CkptError::BadMagic));
    }

    #[test]
    fn old_and_future_versions_report_unsupported_version() {
        // A pre-fabric DSMCKPT1 body is not decodable by this build: the
        // version digit alone must produce the typed error, never a panic,
        // regardless of what follows it.
        for (payload, version) in [
            (&b"DSMCKPT1"[..], b'1'),
            (b"DSMCKPT1\x00\x01\x02\x03", b'1'),
            (b"DSMCKPT2\x00\x01\x02\x03", b'2'),
            (b"DSMCKPT3\x00\x01\x02\x03", b'3'),
            (b"DSMCKPT4\x00\x01\x02\x03", b'4'),
            (b"DSMCKPT5\x00\x01\x02\x03", b'5'),
            (b"DSMCKPT9garbage", b'9'),
        ] {
            assert_eq!(
                Checkpoint::decode(payload),
                Err(CkptError::UnsupportedVersion { version }),
                "payload {payload:?}"
            );
        }
        let mut bytes = sample_checkpoint().encode();
        bytes[7] = b'1';
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CkptError::UnsupportedVersion { version: b'1' })
        );
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = sample_checkpoint().encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_checkpoint().encode();
        bytes.push(0);
        assert_eq!(Checkpoint::decode(&bytes), Err(CkptError::TrailingBytes));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        let mut bytes = sample_checkpoint().encode();
        // Overwrite the first post-meta length field region with a huge
        // value; the guard must reject it before reserving memory.
        let off = bytes.len() - 9;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn corrupted_tag_reports_bad_tag() {
        let ck = sample_checkpoint();
        let bytes = ck.encode();
        let mut bad = bytes.clone();
        bad[8] = 200; // app tag
        assert_eq!(Checkpoint::decode(&bad), Err(CkptError::BadTag { what: "app", tag: 200 }));
    }
}
