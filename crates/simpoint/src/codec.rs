//! Versioned, deterministic binary checkpoint codec (`DSMCKPT9`).
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
//! byte layer and the layouts this format shares with the harness trace
//! store (`DSMTRC5`) live in [`crate::wire`]. This module adds the
//! checkpoint-only layouts, each one [`Wire`] field list or hand-written
//! tag encoding, and the invariants [`Checkpoint::decode`] checks once the
//! layout has parsed.

use dsm_adapt::{
    AdaptSnap, Decision, DecisionKind, ObservedInterval, PhaseSnap, PhaseStateSnap,
};
use dsm_phase::ddv::{DdvSnap, FrequencySnap};
use dsm_phase::detector::{CollectorState, DetectorGeometry};
use dsm_sim::cache::Cache;
use dsm_sim::config::{CoreConfig, FaultPlan, RetryPolicy, MAX_PROCS};
use dsm_sim::directory::DirState;
use dsm_sim::event::Event;
use dsm_sim::reconfig::ReconfigSnap;
use dsm_sim::state::{
    BarrierSnap, CacheState, DirectoryState, FaultSnap, GshareState, HomeMapState, LockSnap,
    MemCtrlState, NetworkState, ProcessorState, SystemState,
};
use dsm_sim::topology::TopologyKind;
use dsm_workloads::{App, Scale};

use crate::wire::{bad_tag, check_records, RecordShape, Wire, D, R, W};

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
/// count from the metadata: there is only the serial core. Version 7
/// carries the directory's sharer bits of nodes 64–127 (machines of up to
/// [`MAX_PROCS`] nodes). Version 8 stores each captured record's BBV as
/// the accumulator's bucket counts and its `F_i` and `C` as counts, all
/// range-checked `u32`s, instead of a normalized `f64` BBV and `u64`
/// counts. Version 9 drops each cache's last-use clocks: a line's LRU rank
/// lives in its state word, and the decoder refuses a set whose ranks
/// break the rank rule ([`Cache::check_state`]).
pub const MAGIC: &[u8; 8] = b"DSMCKPT9";

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
            CkptError::BadMagic => write!(f, "not a DSMCKPT9 checkpoint (bad magic)"),
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

impl Wire for Event {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut W) {
        match *self {
            Event::End => w.u8(0),
            Event::Block { bb, insns, taken } => (1u8, bb, insns, taken).put(w),
            Event::Mem { addr, write } => (2u8, addr, write).put(w),
            Event::Fp { ops } => (3u8, ops).put(w),
            Event::Barrier { id } => (4u8, id).put(w),
            Event::Acquire { lock } => (5u8, lock).put(w),
            Event::Release { lock } => (6u8, lock).put(w),
        }
    }
    fn get(r: &mut R) -> D<Self> {
        Ok(match r.u8()? {
            0 => Event::End,
            1 => Event::Block { bb: Wire::get(r)?, insns: Wire::get(r)?, taken: Wire::get(r)? },
            2 => Event::Mem { addr: Wire::get(r)?, write: Wire::get(r)? },
            3 => Event::Fp { ops: Wire::get(r)? },
            4 => Event::Barrier { id: Wire::get(r)? },
            5 => Event::Acquire { lock: Wire::get(r)? },
            6 => Event::Release { lock: Wire::get(r)? },
            t => return Err(bad_tag("event", t)),
        })
    }
}

impl Wire for DirState {
    const MIN_BYTES: usize = 1 + u64::MIN_BYTES;
    fn put(&self, w: &mut W) {
        match *self {
            DirState::Shared(mask) => (0u8, mask).put(w),
            DirState::Exclusive(owner) => (1u8, owner).put(w),
        }
    }
    fn get(r: &mut R) -> D<Self> {
        Ok(match r.u8()? {
            0 => DirState::Shared(Wire::get(r)?),
            1 => DirState::Exclusive(Wire::get(r)?),
            t => return Err(bad_tag("directory state", t)),
        })
    }
}

impl Wire for PhaseStateSnap {
    const MIN_BYTES: usize = 1 + u64::MIN_BYTES;
    fn put(&self, w: &mut W) {
        match *self {
            PhaseStateSnap::Tuning { config, trials_left, best_config, best_score, acc, acc_n } => {
                (0u8, config, trials_left, best_config, best_score, acc, acc_n).put(w)
            }
            PhaseStateSnap::Locked { config } => (1u8, config).put(w),
        }
    }
    fn get(r: &mut R) -> D<Self> {
        Ok(match r.u8()? {
            0 => PhaseStateSnap::Tuning {
                config: Wire::get(r)?,
                trials_left: Wire::get(r)?,
                best_config: Wire::get(r)?,
                best_score: Wire::get(r)?,
                acc: Wire::get(r)?,
                acc_n: Wire::get(r)?,
            },
            1 => PhaseStateSnap::Locked { config: Wire::get(r)? },
            t => return Err(bad_tag("adapt phase state", t)),
        })
    }
}

impl Wire for DecisionKind {
    const MIN_BYTES: usize = 1 + usize::MIN_BYTES;
    fn put(&self, w: &mut W) {
        match *self {
            DecisionKind::Trial { config } => (0u8, config).put(w),
            DecisionKind::Lock { config } => (1u8, config).put(w),
        }
    }
    fn get(r: &mut R) -> D<Self> {
        Ok(match r.u8()? {
            0 => DecisionKind::Trial { config: Wire::get(r)? },
            1 => DecisionKind::Lock { config: Wire::get(r)? },
            t => return Err(bad_tag("decision kind", t)),
        })
    }
}

impl Wire for TopologyKind {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut W) {
        w.index(&TopologyKind::ALL, self);
    }
    fn get(r: &mut R) -> D<Self> {
        r.index(&TopologyKind::ALL, "topology")
    }
}

// Each layout below is its field list in wire order.
crate::wire_struct! {
    Checkpoint { meta, system, collector, adapt }
    CheckpointMeta {
        app, n_procs, scale, interval_base, topology, link_contention, plan, geometry,
        interval_index,
    }
    FaultPlan {
        seed, drop_ppm, duplicate_ppm, spike_ppm, spike_cycles, slowdown_ppm,
        slowdown_window_cycles, slowdown_extra_num, slowdown_issue_num, slowdown_node,
        slowdown_from_cycle, slowdown_until_cycle, retry,
    }
    RetryPolicy { timeout_cycles, max_backoff_cycles, max_retries }
    DetectorGeometry { bbv_entries, footprint_vectors, ws_bits }
    SystemState {
        procs, directory, network, memctrls, home, locks, barrier, fault, pending, events_executed,
        fetched, reconfig,
    }
    ProcessorState {
        cycle, commit_carry, fp_carry, interval_progress, interval_start_cycle, interval_index,
        finished, blocked, blocked_since, stats, l1, l2, gshare, core,
    }
    CacheState { tags, hits, misses }
    GshareState { table, history, predictions, mispredictions }
    CoreConfig { commit_width, fpu_units, mispredict_penalty, gshare_entries, stall_exposure_num }
    DirectoryState { entries, high, stats }
    NetworkState {
        msgs, payload_msgs, total_hops, link_wait_cycles, total_flit_hops, link_busy, link_flits,
    }
    MemCtrlState { busy_until, requests, total_queue_delay }
    HomeMapState { first_touch, overrides, touches, track }
    LockSnap { id, owner, waiters }
    BarrierSnap { current_id, arrived, arrival_cycle }
    FaultSnap { draws, stats }
    ReconfigSnap { dvfs_num, stats }
    CollectorState { bbv, ws, branches, ddv, records }
    DdvSnap { mats, gcum, gsnap, queries, vectors_exchanged, gather_rounds }
    FrequencySnap { cum, snap }
    AdaptSnap { target, processed, phases, decisions, stream, retunes, actuator }
    PhaseSnap { phase, state }
    Decision { interval, phase, kind }
    ObservedInterval { index, phase, cpi, degraded }
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

impl Checkpoint {
    /// Serialize to the `DSMCKPT9` byte format. Deterministic: the same
    /// checkpoint always encodes to the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::with_magic(MAGIC);
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decode a `DSMCKPT9` buffer. Total: any input yields `Ok` or a typed
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
        let ck = Checkpoint::get(&mut r)?;
        ck.check()?;
        r.finish()?;
        Ok(ck)
    }

    /// The invariants a resumable checkpoint holds beyond its layout, each
    /// a `BadValue` naming what failed, checked in a fixed order.
    fn check(&self) -> D<()> {
        let bad = |what| Err(CkptError::BadValue { what });
        let n_procs = self.meta.n_procs;
        if n_procs == 0 || n_procs > MAX_PROCS {
            return bad("n_procs");
        }
        if self.meta.plan.validate().is_err() {
            return bad("fault plan");
        }
        let st = &self.system;
        if st.procs.iter().any(|p| p.gshare.table.iter().any(|&c| c > 3)) {
            return bad("gshare counter > 3");
        }
        if st.network.link_flits.len() != st.network.link_busy.len() {
            return bad("network link vector lengths");
        }
        let n = st.procs.len();
        if n == 0
            || st.pending.len() != n
            || st.fetched.len() != n
            || st.barrier.arrival_cycle.len() != n
            || st.barrier.arrived.len() != n.div_ceil(64)
            || st.memctrls.len() != n
        {
            return bad("per-processor vector lengths");
        }
        if !(st.reconfig.dvfs_num.is_empty() || st.reconfig.dvfs_num.len() == n)
            || st.home.touches.iter().any(|(_, c)| c.len() != n)
        {
            return bad("reconfiguration vector lengths");
        }
        if n != n_procs {
            return bad("system sized for a different machine");
        }
        // Cache geometry depends on the input scale alone.
        let machine = self.meta.scale.system_config(1, 1);
        for p in &st.procs {
            Cache::check_state(&machine.l1, &p.l1)
                .and_then(|()| Cache::check_state(&machine.l2, &p.l2))
                .or_else(bad)?;
        }
        let c = &self.collector;
        if c.bbv.len() != n
            || c.ws.len() != n
            || c.branches.len() != n
            || c.ddv.mats.len() != n
            || c.records.len() != n
            || c.ddv.gcum.len() != n
            || c.ddv.gsnap.len() != n * n
            || c.ddv.mats.iter().any(|m| m.cum.len() != n || m.snap.len() != n * n)
        {
            return bad("collector sized for a different machine");
        }
        let g = &self.meta.geometry;
        if !geometry_fits(g, c) {
            return bad("geometry does not fit the collector");
        }
        let shape = RecordShape { n_procs: n, bbv_entries: g.bbv_entries, ws_words: g.ws_bits / 64 };
        check_records(&c.records, shape)?;
        // `processed` counts proc-0 records consumed, which legitimately runs
        // ahead of the global minimum boundary `target` — but never past the
        // records the collector holds, and the stream pairs one entry with
        // each consumed record, index for index: resume replays them.
        if let Some(a) = &self.adapt {
            if a.processed as usize != a.stream.len() {
                return bad("adapt stream length");
            }
            if a.stream.len() > c.records[0].len() {
                return bad("adapt processed beyond the collector");
            }
            if a.stream.iter().zip(&c.records[0]).any(|(o, r)| o.index != r.index) {
                return bad("adapt stream index");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_phase::detector::IntervalRecord;
    use dsm_sim::directory::DirectoryStats;
    use dsm_sim::reconfig::ReconfigStats;
    use dsm_sim::{FaultStats, ProcStats};

    /// The state word of a valid clean line (see `dsm_sim::cache`).
    fn line(tag: u64, rank: u64) -> u64 {
        rank << 60 | tag << 2 | 1
    }

    fn sample_checkpoint() -> Checkpoint {
        // A direct-mapped L1 of three sets and one 8-way L2 set holding
        // three lines, most recent first: tag 7, then k, then 3.
        let cache = |l2: bool, k: u64| CacheState {
            tags: if l2 {
                vec![line(k, 1), 0, line(7, 0), 0, 0, line(3, 2), 0, 0]
            } else {
                vec![line(k, 0), line(k + 1, 0), 0]
            },
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
            l1: cache(false, p),
            l2: cache(true, p + 10),
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
                    high: vec![(4, 1 << 63)],
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
                    vec![IntervalRecord::new(
                        0,
                        0,
                        100,
                        210,
                        [1, 3, 0],
                        [3, 1],
                        [5, 1],
                        17.5,
                        &[0b11],
                        9,
                    )],
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
        // Any change to these digests is a DSMCKPT9 layout change: bump the
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
        assert_eq!((plain.len(), fnv1a64(&plain)), (2211, 0xa09e5bb52e270fde));
        let mut ck = pinned();
        ck.adapt = Some(sample_adapt());
        let with_adapt = ck.encode();
        assert_eq!((with_adapt.len(), fnv1a64(&with_adapt)), (2482, 0xd65489d6b619712c));
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

    /// The sample checkpoint carrying [`sample_adapt`], with proc 0's
    /// collector extended to the three records the snapshot consumed.
    fn sample_with_adapt() -> Checkpoint {
        let mut ck = sample_checkpoint();
        let recs = &mut ck.collector.records[0];
        for index in 1..3 {
            let mut next = recs[0].clone();
            next.index = index;
            recs.push(next);
        }
        ck.adapt = Some(sample_adapt());
        ck
    }

    #[test]
    fn roundtrip_with_adapt_section() {
        let ck = sample_with_adapt();
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
    fn adapt_snapshot_past_the_collector_rejected() {
        // Three consumed intervals, but proc 0 recorded only one.
        let mut ck = sample_checkpoint();
        ck.adapt = Some(sample_adapt());
        assert_eq!(
            Checkpoint::decode(&ck.encode()),
            Err(CkptError::BadValue { what: "adapt processed beyond the collector" })
        );
    }

    #[test]
    fn adapt_stream_off_its_records_rejected() {
        let mut ck = sample_with_adapt();
        ck.adapt.as_mut().unwrap().stream[1].index = 5;
        assert_eq!(
            Checkpoint::decode(&ck.encode()),
            Err(CkptError::BadValue { what: "adapt stream index" })
        );
    }

    #[test]
    fn fault_plan_that_cannot_run_is_refused() {
        let mut ck = sample_checkpoint();
        ck.meta.plan.drop_ppm = 2_000_000;
        assert_eq!(
            Checkpoint::decode(&ck.encode()),
            Err(CkptError::BadValue { what: "fault plan" })
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
            (b"DSMCKPT6\x00\x01\x02\x03", b'6'),
            (b"DSMCKPT7\x00\x01\x02\x03", b'7'),
            (b"DSMCKPT8\x00\x01\x02\x03", b'8'),
            (b"DSMCKPTAgarbage", b'A'),
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
