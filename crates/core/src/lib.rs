//! # dsm-phase — hardware phase detection for DSM multiprocessors
//!
//! This crate implements the paper's contribution and its baselines:
//!
//! * [`bbv`] — Sherwood et al.'s Basic Block Vector accumulator (the
//!   uniprocessor baseline of the paper's Fig. 1): a small array of counters
//!   hashed by branch address, each incremented by the number of
//!   instructions since the last branch.
//! * [`footprint`] — the footprint table: previously seen (BBV, DDS)
//!   signatures with LRU replacement; intervals are classified against it
//!   by Manhattan distance (and, for BBV+DDV, a DDS difference) under
//!   pre-set thresholds.
//! * [`ddv`] — **the paper's contribution**: the per-node Data Distribution
//!   Vector. An n×n frequency matrix counts committed loads/stores by home
//!   node on behalf of every requester; at interval end the requester
//!   gathers all rows, sums them into the contention vector `C`, and folds
//!   frequency × distance × contention into the scalar DDS. The gather is
//!   O(n) per interval (`C = G − S_i` from one global cumulative vector),
//!   bit-identical to the O(n²) walk kept as the reference.
//! * [`detector`] — the end-to-end detectors (`BBV` and `BBV+DDV`) as
//!   simulator observers, plus the offline trace classifier used for
//!   threshold sweeps (equivalent by construction; see DESIGN.md).
//! * [`predictor`] — phase predictors (last-phase and run-length Markov),
//!   the paper's stated future-work direction.
//! * [`working_set`], [`branch_count`] — the related-work baselines of
//!   Dhodapkar & Smith (working-set signatures) and Balasubramonian et al.
//!   (conditional branch counts).
//! * [`context`] — save/restore of detector state across context switches
//!   (the paper's multiprogramming note in §III-B).
//! * [`stream`] — [`PhaseStream`]: one node's classified intervals in
//!   contiguous index order, the shared unit the offline harness pass and
//!   the serve-side diagnosis sink both consume (`dsm-diagnose`).

pub mod bbv;
pub mod branch_count;
pub mod context;
pub mod ddv;
pub mod detector;
pub mod distance;
pub mod footprint;
pub mod predictor;
pub mod signature;
pub mod stream;
pub mod telem;
pub mod working_set;

pub use bbv::BbvAccumulator;
pub use ddv::{DdvSnap, DdvState, DegradedCollector, FrequencyMatrix, FrequencySnap};
pub use detector::{
    AvailabilityModel, ClassifiedInterval, CollectorState, DetectorMode, IntervalRecord,
    OnlineDetector, Thresholds, TraceClassifier, TraceCollector,
};
pub use footprint::{FootprintTable, Match};
pub use signature::{ClassifierBank, IntervalSignature, SignatureExtractor};
pub use stream::{PhaseStream, StreamError};
pub use predictor::{LastPhasePredictor, Markov2Predictor, PhasePredictor, RlePredictor};

/// Default accumulator size (32 in the paper: "a 32-entry accumulator and a
/// 32-vector footprint table").
pub const DEFAULT_BBV_ENTRIES: usize = 32;
/// Default footprint-table capacity.
pub const DEFAULT_FOOTPRINT_VECTORS: usize = 32;
