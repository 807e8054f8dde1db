//! # dsm-serve — phase detection as a service
//!
//! The paper's detector runs *online*, classifying interval signatures as
//! the program executes. This crate productionizes that: the classify half
//! of the detector (extracted into
//! [`dsm_phase::signature::ClassifierBank`]) behind a streaming,
//! multi-tenant sink. One tenant = one replayed workload run (or synthetic
//! stream); per-tenant footprint-table state lives in sharded slot tables;
//! ingest is bounded with explicit backpressure; classification is batched
//! across tenants and can run shard-parallel, bit-identically to the
//! serial schedule.
//!
//! * [`server`] — [`PhaseServer`]: admit/offer/run_batch/drain/evict, with
//!   conservation-checked accounting and tick-based deterministic latency.
//! * [`tenant`] — per-tenant configuration, state, and accounting. With
//!   [`ServeConfig::diagnose_window`] set, each tenant also carries a
//!   [`dsm_diagnose::DiagnosisSink`] fed at classification time —
//!   upstream of the output buffer, so a stalled consumer never skews the
//!   diagnosis window — surfaced via
//!   [`PhaseServer::tenant_diagnosis`](server::PhaseServer::tenant_diagnosis).
//! * [`synth`] — deterministic phase-structured synthetic signature
//!   streams for load beyond what the trace corpus holds.
//!
//! Correctness is pinned two ways: the crate-level tests here, and the
//! repo-level `serve_differential` suite proving a single tenant replayed
//! through the server classifies bit-identically to the in-simulator
//! [`OnlineDetector`](dsm_phase::OnlineDetector) on all five workloads —
//! degraded flags included — because both run the *same* kernel.

pub mod server;
pub mod synth;
pub mod tenant;

pub use server::{
    AdmitError, Ingest, PhaseServer, ServeConfig, ServeConfigError, ServeError, ServerReport,
    TenantDiagnosis,
};
pub use synth::SynthStream;
pub use tenant::{TenantConfig, TenantId, TenantStats, TenantSummary};
