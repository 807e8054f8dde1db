//! # dsm-harness — experiment orchestration
//!
//! Ties the simulator, workloads, detectors, and analysis together to
//! regenerate every table and figure of the paper:
//!
//! * [`experiment`] — experiment configuration (app × node count × scale);
//! * [`cli`] — the binaries' one command-line parser (exit status 2 on bad input);
//! * [`trace`] — one-simulation-per-configuration capture of per-interval
//!   feature records, with an in-memory cache shared across sweeps;
//! * [`sweep`] — threshold sweeps producing CoV curves for BBV, BBV+DDV,
//!   the related-work baselines, and the DDS ablations;
//! * [`figures`] — Figure 2 (baseline BBV at 2/8/32P) and Figure 4
//!   (BBV vs BBV+DDV at 8/32P), as ASCII charts and CSV;
//! * [`tables`] — Tables I and II;
//! * [`overhead`] — the §III-B communication-overhead model (~160 kB/s,
//!   <0.15 % of memory-controller bandwidth);
//! * [`adapt`] — the §II trial-and-error reconfiguration loop:
//!   `dsm_adapt::AdaptSession` runs against the live simulator so locked
//!   configurations are real reconfigurations (page migration, DVFS
//!   epochs, big/little cores);
//! * [`faults`] — the fault-injection robustness sweep: CoV-of-CPI
//!   degradation vs a fault-free golden run, with conservation checks;
//! * [`diagnose`] — cross-node phase-similarity diagnostics: straggler
//!   detection and root-cause attribution from classified-interval
//!   streams, offline over the capture corpus;
//! * [`topology`] — the interconnect-layout sweep: detector quality and
//!   per-directed-link demand across hypercube, mesh, torus, ring, and
//!   fat-tree fabrics;
//! * [`parallel`] — the parallel experiment engine: a `--jobs` worker pool,
//!   a content-addressed on-disk trace store, and structured run reports,
//!   all with byte-identical serial/parallel output;
//! * [`json`] — the deterministic JSON value type the engine's artefacts
//!   are written with;
//! * [`report`] — results-directory output helpers;
//! * [`simpoint`] — phase-guided sampled simulation: checkpoint capture,
//!   representative replay, and whole-run CPI reconstruction;
//! * [`telemetry`] — instrumented captures and the Chrome-trace / JSONL /
//!   summary exporters behind every binary's `--telemetry-out` flag.

pub mod adapt;
pub mod cli;
pub mod diagnose;
pub mod experiment;
pub mod faults;
pub mod figures;
pub mod json;
pub mod overhead;
pub mod parallel;
pub mod report;
pub mod scale;
pub mod sensitivity;
pub mod serve;
pub mod simpoint;
pub mod sweep;
pub mod tables;
pub mod telemetry;
pub mod topology;
pub mod trace;

pub use experiment::ExperimentConfig;
pub use faults::{fault_sweep, FaultPoint, FaultSweep};
pub use parallel::{capture_matrix, par_map, RunReport, TraceStore};
pub use serve::{run_scenario, DisturbPlan, ServeOutcome, ServeScenario};
pub use simpoint::{sampled_run, SimpointResult};
pub use sweep::{bbv_curve, bbv_ddv_curve};
pub use topology::{topology_sweep, TopologyPoint, TopologySweep};
pub use trace::{capture, capture_with_faults, SystemTrace};
