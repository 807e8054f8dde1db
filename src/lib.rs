//! # dsm-phase-detection
//!
//! A full reproduction of İpek, Martínez, de Supinski, McKee & Schulz,
//! *Dynamic Program Phase Detection in Distributed Shared-Memory
//! Multiprocessors* (IPDPS NSF-NGS workshop, 2006), as a Rust workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] (`dsm-sim`) | DSM multiprocessor simulator: cycle-accounting cores, L1/L2 tag arrays, gshare, directory coherence, hypercube network, memory controllers |
//! | [`workloads`] (`dsm-workloads`) | Structural models of SPLASH-2 LU/FMM and SPEC-OMP Art/Equake, plus synthetic phased workloads |
//! | [`phase`] (`dsm-phase`) | **The paper's contribution**: BBV accumulator + footprint table, the DDV (frequency matrix, contention vector, DDS), online/offline detectors, predictors, related-work baselines |
//! | [`analysis`] (`dsm-analysis`) | CoV of CPI, identifier CoV, CoV curves, tables, ASCII plots |
//! | [`harness`] (`dsm-harness`) | Experiment orchestration: Figures 2 & 4, Tables I & II, the §III-B overhead model, DDS ablations, the §II adaptation sweep |
//!
//! ## Quick start
//!
//! ```
//! use dsm_phase_detection::prelude::*;
//!
//! // Capture one simulated run of LU on a 4-node DSM machine...
//! let config = ExperimentConfig::test(App::Lu, 4);
//! let trace = capture(config);
//! assert!(trace.total_intervals() > 0);
//!
//! // ...and sweep detector thresholds into CoV curves.
//! let bbv = bbv_curve(&trace);
//! let ddv = bbv_ddv_curve(&trace);
//! assert!(!bbv.is_empty() && !ddv.is_empty());
//! ```
//!
//! See `examples/` for end-to-end programs and DESIGN.md / EXPERIMENTS.md
//! for the experiment inventory and measured results.

pub use dsm_analysis as analysis;
pub use dsm_harness as harness;
pub use dsm_phase as phase;
pub use dsm_sim as sim;
pub use dsm_telemetry as telemetry;
pub use dsm_workloads as workloads;

/// Most-used items in one import.
pub mod prelude {
    pub use dsm_analysis::cov::identifier_cov;
    pub use dsm_analysis::curve::CovCurve;
    pub use dsm_harness::experiment::ExperimentConfig;
    pub use dsm_harness::sweep::{bbv_curve, bbv_ddv_curve};
    pub use dsm_harness::trace::{capture, capture_cached, SystemTrace};
    pub use dsm_phase::detector::{
        DetectorGeometry, DetectorMode, OnlineDetector, Thresholds, TraceClassifier,
        TraceCollector,
    };
    pub use dsm_phase::{BbvAccumulator, DdvState, FootprintTable};
    pub use dsm_sim::config::SystemConfig;
    pub use dsm_sim::system::System;
    pub use dsm_workloads::{make_stream, App, Scale};
}
