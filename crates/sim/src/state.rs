//! Snapshot-able simulator state: plain-data mirrors of every stateful
//! component, produced by [`crate::system::System::state_snapshot`] and
//! consumed by [`crate::system::System::restore_state`] (and serialized by
//! the `dsm-simpoint` checkpoint codec).
//!
//! A snapshot deliberately excludes anything derivable from the
//! [`crate::config::SystemConfig`] (cache geometry, interval length,
//! distance matrices, scheduler shape) and the instruction stream itself:
//! streams are deterministic functions of `(app, n_procs, scale)`, so a
//! restore re-creates a fresh stream and fast-forwards it by the recorded
//! per-processor fetch counts ([`SystemState::fetched`]) instead of
//! serializing workload internals. Everything else — down to the fault
//! layer's RNG draw counter — is captured, so restore-then-run is
//! bit-identical to running straight through.

use crate::config::CoreConfig;
use crate::directory::{DirState, DirectoryStats};
use crate::event::Event;
use crate::fault::FaultStats;
use crate::reconfig::ReconfigSnap;
use crate::stats::ProcStats;

/// One cache's dynamic state (line words plus counters). Geometry is
/// config-derived and not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheState {
    /// Per-line state words (tag, flags and LRU rank), set-major; see
    /// `crate::cache` for the layout and [`crate::cache::Cache::check_state`]
    /// for the rules a set obeys.
    pub tags: Vec<u64>,
    pub hits: u64,
    pub misses: u64,
}

/// gshare predictor state: counter table plus history and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GshareState {
    /// 2-bit saturating counters, one byte each.
    pub table: Vec<u8>,
    pub history: u64,
    pub predictions: u64,
    pub mispredictions: u64,
}

/// One processor's full dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorState {
    pub cycle: u64,
    pub commit_carry: u64,
    pub fp_carry: u64,
    pub interval_progress: u64,
    pub interval_start_cycle: u64,
    pub interval_index: u64,
    pub finished: bool,
    pub blocked: bool,
    pub blocked_since: u64,
    pub stats: ProcStats,
    pub l1: CacheState,
    pub l2: CacheState,
    pub gshare: GshareState,
    /// The cycle-cost profile in force — dynamic since heterogeneous
    /// phase-to-core mapping can swap it mid-run.
    pub core: CoreConfig,
}

/// Directory contents, sorted by block index for deterministic encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryState {
    pub entries: Vec<(u64, DirState)>,
    /// Sharer bits of nodes 64–127 per `Shared` block that has any,
    /// sorted by block.
    pub high: Vec<(u64, u64)>,
    pub stats: DirectoryStats,
}

/// Network traffic counters plus per-link occupancy horizons and flit
/// demand (both vectors are indexed by directed-link id of the configured
/// topology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkState {
    pub msgs: u64,
    pub payload_msgs: u64,
    pub total_hops: u64,
    pub link_wait_cycles: u64,
    pub total_flit_hops: u64,
    pub link_busy: Vec<u64>,
    pub link_flits: Vec<u64>,
}

/// One memory controller's bank horizons and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemCtrlState {
    pub busy_until: Vec<u64>,
    pub requests: u64,
    pub total_queue_delay: u64,
}

/// Home-map page tables, each sorted by page index. The first-touch table
/// is empty for the stateless placement policies; overrides and touch
/// counters are empty unless phase-guided adaptation migrated pages or
/// enabled hot-page tracking.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HomeMapState {
    pub first_touch: Vec<(u64, usize)>,
    /// Migration overrides (page → home), consulted before the base policy.
    pub overrides: Vec<(u64, usize)>,
    /// Per-page per-node miss counts of the current tracking window.
    pub touches: Vec<(u64, Vec<u64>)>,
    /// Whether touch tracking is on.
    pub track: bool,
}

/// One lock's owner and FIFO waiter queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSnap {
    pub id: u32,
    pub owner: Option<usize>,
    pub waiters: Vec<usize>,
}

/// The (single) barrier's in-flight arrival state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierSnap {
    pub current_id: Option<u32>,
    /// Arrival bitmap, 64 processors per word (`⌈n/64⌉` words) — a single
    /// u64 would cap the machine at 64 nodes.
    pub arrived: Vec<u64>,
    pub arrival_cycle: Vec<u64>,
}

/// Fault layer: the RNG draw counter (the entire stream position) plus the
/// per-class counters. The plan itself lives in the config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSnap {
    pub draws: u64,
    pub stats: FaultStats,
}

/// Complete dynamic state of a [`crate::system::System`] at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemState {
    pub procs: Vec<ProcessorState>,
    pub directory: DirectoryState,
    pub network: NetworkState,
    pub memctrls: Vec<MemCtrlState>,
    pub home: HomeMapState,
    /// The reconfiguration layer (DVFS levels + counters); default on a
    /// machine adaptation never touched.
    pub reconfig: ReconfigSnap,
    /// Locks sorted by id for deterministic encoding.
    pub locks: Vec<LockSnap>,
    pub barrier: BarrierSnap,
    pub fault: FaultSnap,
    /// Fetched-but-unexecuted event per processor (the batched scheduler's
    /// parking slot).
    pub pending: Vec<Option<Event>>,
    pub events_executed: u64,
    /// Events fetched from the instruction stream per processor, including
    /// any parked in `pending`. Restore replays exactly this many
    /// `stream.next(p)` calls on a fresh stream before handing it to the
    /// system.
    pub fetched: Vec<u64>,
}

impl SystemState {
    /// Number of processors this snapshot describes.
    pub fn n_procs(&self) -> usize {
        self.procs.len()
    }

    /// Minimum interval index over unfinished processors (`u64::MAX` when
    /// every processor has finished) — the global interval boundary this
    /// snapshot sits at.
    pub fn min_interval_index(&self) -> u64 {
        self.procs
            .iter()
            .filter(|p| !p.finished)
            .map(|p| p.interval_index)
            .min()
            .unwrap_or(u64::MAX)
    }
}
