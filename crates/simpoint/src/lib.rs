//! # dsm-simpoint — phase-guided sampled simulation
//!
//! Whole-application DSM simulation at paper scale costs minutes per run;
//! the phase structure this repository detects is exactly what makes
//! sampling work. This crate implements the SimPoint-style pipeline on top
//! of the simulator's checkpointable state:
//!
//! * [`codec`] — the versioned `DSMCKPT9` binary checkpoint format: a
//!   [`dsm_sim::SystemState`] plus the detector-collector state
//!   ([`dsm_phase::detector::CollectorState`]) at a global interval
//!   boundary, with the metadata needed to rebuild the machine and
//!   fast-forward a fresh instruction stream to the same position. Decoding
//!   is total — corrupt input yields a typed error, never a panic.
//! * [`wire`] — the byte layer under the checkpoint format: the [`Wire`](wire::Wire)
//!   trait, its total little-endian primitives and containers, and the
//!   [`wire_struct!`] macro that derives a struct's encoder, decoder and
//!   length floor from one field list.
//! * [`select`](mod@select) — per-interval BBV ⊕ data-distribution signatures from a
//!   profiling pass, clustered by deterministic k-means (k-means++ seeding,
//!   Manhattan distance) with a BIC-style `k` sweep; each cluster's
//!   centroid-nearest member becomes a representative interval with its
//!   cluster weight.
//! * [`reconstruct`] — whole-run CPI and CoV-of-CPI as the weight-weighted
//!   combination of per-representative measurements, plus the error and
//!   reduction metrics the harness reports.
//!
//! The harness (`dsm-harness`) glues the three together: it captures the
//!  profiling trace, writes checkpoints at selected boundaries, replays the
//! representatives in parallel, and reports reconstruction error against the
//! full-run golden.

pub mod codec;
pub mod reconstruct;
pub mod select;
pub mod wire;

pub use codec::{Checkpoint, CheckpointMeta, CkptError, MAGIC};
pub use reconstruct::{
    interval_cpis, mean_and_cov, reconstruct_cpi, relative_error, IntervalCpi, Reconstructed,
};
pub use select::{select, signatures, stratified_members, SampleUnit, Selection, Simpoint};
