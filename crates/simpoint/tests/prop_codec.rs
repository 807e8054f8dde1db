//! Property tests for the `DSMCKPT6` checkpoint codec: decoding is *total*
//! (any input — random bytes, corrupted checkpoints, truncations — yields a
//! typed error or a valid checkpoint, never a panic), and the encoding is
//! canonical (whatever decodes re-encodes to the identical bytes).

use proptest::prelude::*;

use dsm_adapt::{AdaptSnap, Decision, DecisionKind, ObservedInterval, PhaseSnap, PhaseStateSnap};
use dsm_phase::ddv::{DdvSnap, FrequencySnap};
use dsm_phase::detector::{CollectorState, DetectorGeometry, IntervalRecord};
use dsm_sim::config::{CoreConfig, FaultPlan};
use dsm_sim::reconfig::{ReconfigSnap, ReconfigStats};
use dsm_sim::directory::{DirState, DirectoryStats};
use dsm_sim::event::Event;
use dsm_sim::state::{
    BarrierSnap, CacheState, DirectoryState, FaultSnap, GshareState, HomeMapState, LockSnap,
    MemCtrlState, NetworkState, ProcessorState, SystemState,
};
use dsm_sim::topology::TopologyKind;
use dsm_sim::util::splitmix64;
use dsm_sim::ProcStats;
use dsm_simpoint::{Checkpoint, CheckpointMeta, MAGIC};
use dsm_workloads::{App, Scale};

/// Deterministic value stream for synthesizing checkpoint contents.
struct Gen(u64);

impl Gen {
    fn u(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn vec(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.u() % 10_000).collect()
    }
}

/// Build a structurally valid checkpoint whose every field is derived from
/// `seed`; `n_procs` and `n_recs` vary the shape.
fn synth(seed: u64, n_procs: usize, n_recs: usize) -> Checkpoint {
    let mut g = Gen(seed);
    let cache = |g: &mut Gen| CacheState {
        tags: g.vec(4),
        lru: g.vec(4),
        clock: g.u(),
        hits: g.u(),
        misses: g.u(),
    };
    let procs: Vec<ProcessorState> = (0..n_procs)
        .map(|_| ProcessorState {
            cycle: g.u(),
            commit_carry: g.u() % 6,
            fp_carry: g.u() % 4,
            interval_progress: g.u() % 1000,
            interval_start_cycle: g.u(),
            interval_index: g.u() % 64,
            finished: g.u().is_multiple_of(4),
            blocked: g.u().is_multiple_of(3),
            blocked_since: g.u(),
            stats: ProcStats {
                cycles: g.u(),
                insns: g.u(),
                l1_misses: g.u(),
                ..Default::default()
            },
            l1: cache(&mut g),
            l2: cache(&mut g),
            gshare: GshareState {
                table: (0..8).map(|_| (g.u() % 4) as u8).collect(),
                history: g.u(),
                predictions: g.u(),
                mispredictions: g.u(),
            },
            core: CoreConfig {
                commit_width: 1 + (g.u() % 8) as u32,
                fpu_units: 1 + (g.u() % 4) as u32,
                mispredict_penalty: 1 + g.u() % 20,
                gshare_entries: 4,
                stall_exposure_num: 50 + g.u() % 100,
            },
        })
        .collect();
    let events = [
        Event::Block { bb: 3, insns: 17, taken: true },
        Event::Mem { addr: 0x1234, write: false },
        Event::Fp { ops: 4 },
        Event::Barrier { id: 2 },
        Event::Acquire { lock: 1 },
        Event::Release { lock: 1 },
        Event::End,
    ];
    let pending: Vec<Option<Event>> = (0..n_procs)
        .map(|_| {
            let r = g.u() as usize;
            if r.is_multiple_of(3) {
                None
            } else {
                Some(events[r % events.len()])
            }
        })
        .collect();
    let records: Vec<Vec<IntervalRecord>> = (0..n_procs)
        .map(|p| {
            (0..n_recs)
                .map(|i| IntervalRecord {
                    proc: p,
                    index: i as u64,
                    insns: g.u() % 100_000,
                    cycles: g.u() % 1_000_000,
                    bbv: (0..4).map(|_| (g.u() % 1000) as f64 / 1000.0).collect(),
                    fvec: g.vec(n_procs),
                    cvec: g.vec(n_procs),
                    dds: (g.u() % 100_000) as f64 / 7.0,
                    ws_sig: g.vec(2),
                    branches: g.u() % 5000,
                })
                .collect()
        })
        .collect();
    Checkpoint {
        meta: CheckpointMeta {
            app: App::EXTENDED[(g.u() % 5) as usize],
            n_procs,
            scale: [Scale::Test, Scale::Scaled, Scale::Paper][(g.u() % 3) as usize],
            interval_base: 16_000,
            topology: TopologyKind::ALL[(g.u() % 5) as usize],
            link_contention: g.u().is_multiple_of(2),
            plan: if g.u().is_multiple_of(2) { FaultPlan::none() } else { FaultPlan::mixed(g.u(), 0.01) },
            geometry: DetectorGeometry::default(),
            interval_index: g.u() % 64,
        },
        system: SystemState {
            procs,
            directory: DirectoryState {
                entries: (0..(g.u() % 8))
                    .map(|b| {
                        let st = if g.u().is_multiple_of(2) {
                            DirState::Shared(g.u() % (1 << n_procs))
                        } else {
                            DirState::Exclusive((g.u() % n_procs as u64) as usize)
                        };
                        (b, st)
                    })
                    .collect(),
                stats: DirectoryStats { reads: g.u(), writes: g.u(), ..Default::default() },
            },
            network: NetworkState {
                msgs: g.u(),
                payload_msgs: g.u(),
                total_hops: g.u(),
                link_wait_cycles: g.u(),
                total_flit_hops: g.u(),
                link_busy: g.vec(n_procs * 2),
                link_flits: g.vec(n_procs * 2),
            },
            memctrls: (0..n_procs)
                .map(|_| MemCtrlState {
                    busy_until: g.vec(4),
                    requests: g.u(),
                    total_queue_delay: g.u(),
                })
                .collect(),
            home: HomeMapState {
                first_touch: (0..(g.u() % 5))
                    .map(|p| (p, (g.u() % n_procs as u64) as usize))
                    .collect(),
                overrides: (0..(g.u() % 4))
                    .map(|p| (p + 100, (g.u() % n_procs as u64) as usize))
                    .collect(),
                touches: (0..(g.u() % 3)).map(|p| (p + 200, g.vec(n_procs))).collect(),
                track: g.u().is_multiple_of(2),
            },
            locks: (0..(g.u() % 3))
                .map(|id| LockSnap {
                    id: id as u32,
                    owner: if g.u().is_multiple_of(2) {
                        None
                    } else {
                        Some((g.u() % n_procs as u64) as usize)
                    },
                    waiters: (0..(g.u() % n_procs as u64))
                        .map(|w| w as usize)
                        .collect(),
                })
                .collect(),
            barrier: BarrierSnap {
                current_id: if g.u().is_multiple_of(2) { None } else { Some((g.u() % 8) as u32) },
                arrived: {
                    let mut words = vec![0u64; n_procs.div_ceil(64)];
                    for w in &mut words {
                        *w = g.u();
                    }
                    let tail = n_procs % 64;
                    if tail != 0 {
                        *words.last_mut().unwrap() %= 1 << tail;
                    }
                    words
                },
                arrival_cycle: g.vec(n_procs),
            },
            fault: FaultSnap {
                draws: g.u(),
                stats: dsm_sim::FaultStats { messages: g.u(), drops: g.u(), ..Default::default() },
            },
            pending,
            events_executed: g.u(),
            fetched: g.vec(n_procs),
            reconfig: ReconfigSnap {
                dvfs_num: if g.u().is_multiple_of(2) { Vec::new() } else { g.vec(n_procs) },
                stats: ReconfigStats {
                    migrations: g.u(),
                    migration_stall_cycles: g.u(),
                    dvfs_epochs: g.u(),
                    dvfs_extra_cycles: g.u(),
                    dvfs_saved_cycles: g.u(),
                    core_switches: g.u(),
                },
            },
        },
        collector: CollectorState {
            bbv: (0..n_procs).map(|_| g.vec(4)).collect(),
            ws: (0..n_procs).map(|_| g.vec(2)).collect(),
            branches: g.vec(n_procs),
            ddv: DdvSnap {
                mats: (0..n_procs)
                    .map(|_| FrequencySnap {
                        cum: g.vec(n_procs),
                        snap: g.vec(n_procs * n_procs),
                    })
                    .collect(),
                gcum: g.vec(n_procs),
                gsnap: g.vec(n_procs * n_procs),
                queries: g.u(),
                vectors_exchanged: g.u(),
                gather_rounds: g.u(),
            },
            records,
        },
        adapt: if g.u().is_multiple_of(2) { None } else { Some(synth_adapt(&mut g, n_procs)) },
    }
}

/// Build a structurally valid mid-tuning adaptation snapshot (the decode
/// invariant requires `processed == stream.len()` and `processed <= target`).
fn synth_adapt(g: &mut Gen, n_procs: usize) -> AdaptSnap {
    let processed = g.u() % 6;
    let stream: Vec<ObservedInterval> = (0..processed)
        .map(|i| ObservedInterval {
            index: i,
            phase: (g.u() % 4) as u32,
            cpi: (g.u() % 10_000) as f64 / 100.0,
            degraded: g.u().is_multiple_of(5),
        })
        .collect();
    let phases: Vec<PhaseSnap> = (0..(g.u() % 3))
        .map(|p| PhaseSnap {
            phase: p as u32,
            state: if g.u().is_multiple_of(2) {
                PhaseStateSnap::Locked { config: g.u() % 4 }
            } else {
                PhaseStateSnap::Tuning {
                    config: g.u() % 4,
                    trials_left: g.u() % 3,
                    best_config: g.u() % 4,
                    best_score: (g.u() % 1000) as f64 / 10.0,
                    acc: (g.u() % 1000) as f64 / 10.0,
                    acc_n: g.u() % 8,
                }
            },
        })
        .collect();
    let decisions: Vec<Decision> = (0..(g.u() % 4))
        .map(|i| Decision {
            interval: i,
            phase: (g.u() % 4) as u32,
            kind: if g.u().is_multiple_of(2) {
                DecisionKind::Trial { config: (g.u() % 4) as usize }
            } else {
                DecisionKind::Lock { config: (g.u() % 4) as usize }
            },
        })
        .collect();
    AdaptSnap {
        target: processed + g.u() % 4,
        processed,
        phases,
        decisions,
        stream,
        retunes: g.u() % 8,
        actuator: g.vec(n_procs),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte soup never panics the decoder.
    #[test]
    fn decode_total_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Checkpoint::decode(&bytes);
    }

    /// Random bytes behind a valid magic never panic the decoder either
    /// (this exercises the structural readers, not just the magic check).
    #[test]
    fn decode_total_behind_valid_magic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&bytes);
        let _ = Checkpoint::decode(&buf);
    }

    /// encode → decode is the identity, and encoding is deterministic.
    #[test]
    fn roundtrip_identity(seed in any::<u64>(), n_procs in 1usize..5, n_recs in 0usize..4) {
        let ck = synth(seed, n_procs, n_recs);
        let bytes = ck.encode();
        prop_assert_eq!(&bytes, &ck.encode());
        let back = Checkpoint::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &ck);
    }

    /// Single-byte corruption anywhere is either rejected with a typed error
    /// or decodes to a checkpoint that canonically re-encodes to the same
    /// corrupted bytes — never a panic, never a non-canonical decode.
    #[test]
    fn corruption_is_total_and_canonical(
        seed in any::<u64>(),
        n_procs in 1usize..4,
        pos_sel in any::<u64>(),
        delta in 1u8..255,
    ) {
        let ck = synth(seed, n_procs, 2);
        let mut bytes = ck.encode();
        let pos = (pos_sel % bytes.len() as u64) as usize;
        bytes[pos] ^= delta;
        if let Ok(decoded) = Checkpoint::decode(&bytes) {
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    /// Every strict prefix of a valid checkpoint fails to decode.
    #[test]
    fn truncation_always_errors(seed in any::<u64>(), cut_sel in any::<u64>()) {
        let ck = synth(seed, 2, 1);
        let bytes = ck.encode();
        let cut = (cut_sel % bytes.len() as u64) as usize;
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
    }
}
