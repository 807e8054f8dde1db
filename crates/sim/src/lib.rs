//! # dsm-sim — distributed shared-memory multiprocessor simulator
//!
//! This crate is the hardware substrate for the phase-detection study of
//! İpek et al., *Dynamic Program Phase Detection in Distributed Shared-Memory
//! Multiprocessors* (IPDPS NSF-NGS workshop, 2006). It models the system of
//! the paper's Table I:
//!
//! * per-node superscalar cores (6-wide commit, 6 ALU / 4 FPU, 2 GHz) with a
//!   2 048-entry gshare branch predictor, using a deterministic
//!   cycle-accounting timing model ([`processor`]);
//! * private L1 (16 kB direct-mapped, 32 B lines, 1 cycle) and L2 (2 MB
//!   8-way, 12 cycles) caches with real tag arrays ([`cache`]);
//! * a home-based directory coherence protocol (shared / exclusive states,
//!   invalidations, dirty forwarding) ([`directory`]);
//! * a hypercube wormhole network (pipelined 400 MHz routers, 16 ns
//!   pin-to-pin) ([`network`]);
//! * per-node SDRAM memory controllers (75 ns, 2.6 GB/s) whose deterministic
//!   service queues produce real contention delays ([`memctrl`]).
//!
//! Programs are fed in as per-processor streams of committed-instruction
//! [`event::Event`]s (basic blocks, memory references, FP bursts,
//! synchronization), produced by the `dsm-workloads` crate. The global
//! min-cycle scheduling loop lives in [`system`]; phase detectors observe
//! committed state through [`observer::SimObserver`].
//!
//! Everything is deterministic: no wall-clock, no unseeded randomness, and a
//! fixed lowest-processor-id tie-break in the scheduler.

pub mod addr;
pub mod branch;
pub mod cache;
pub mod config;
pub mod directory;
pub mod event;
pub mod fault;
pub mod memctrl;
pub mod network;
pub mod observer;
pub mod processor;
pub mod reconfig;
pub mod sched;
pub mod state;
pub mod stats;
pub mod system;
pub mod telem;
pub mod topology;
pub mod util;

pub use addr::{Addr, HomeMap, NodeId, BLOCK_BYTES, BLOCK_SHIFT, PAGE_BYTES, PAGE_SHIFT};
pub use config::{
    CacheConfig, DistributionPolicy, FaultPlan, MemoryConfig, NetworkConfig, RetryPolicy,
    SystemConfig,
};
pub use fault::{FaultState, FaultStats};
pub use event::{Event, InstructionStream};
pub use observer::{IntervalStats, NullObserver, SimObserver};
pub use reconfig::{HotPage, Machine, ReconfigStats, DVFS_NOMINAL, PAGE_MIGRATE_STALL_CYCLES};
pub use state::SystemState;
pub use stats::{ProcStats, SystemStats};
pub use system::System;
pub use telem::{SimProbes, SimTelemetry};
pub use topology::{AnyTopology, Topology, TopologyKind};
