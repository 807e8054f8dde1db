//! # dsm-adapt — phase-guided machine adaptation
//!
//! The paper's §II motivation for phase detection is *reconfiguration*: "a
//! reconfiguration module tunes the system … by trying different hardware
//! configurations at different intervals that belong to the same phase.
//! Once tuning is complete, the best configuration is selected, and
//! subsequently applied whenever that phase is predicted." This crate holds
//! the one implementation of that protocol and makes the locked
//! configuration a **real machine reconfiguration applied mid-run**. The
//! harness's `adaptive` module drives the same [`Protocol`] over a
//! synthetic cost surface (one multiplier per configuration) instead of a
//! simulated machine.
//!
//! Three layers:
//!
//! * [`protocol`] — the per-phase trial/lock state machine, the only one
//!   in the workspace; the abstract and concrete pipelines are drivers
//!   that score its trials. Its transition structure is positional
//!   (score-independent), which is what makes the decision-sequence
//!   differential between the two drivers meaningful.
//! * [`actuator`] — what a configuration number *means* on the machine:
//!   phase-guided home-node page migration, DVFS-style stall-scaling
//!   epochs, or heterogeneous big/little core profiles, all through the
//!   object-safe [`Machine`](dsm_sim::reconfig::Machine) seam.
//! * [`session`] — the closed loop: simulate an interval, classify it
//!   online, feed the protocol, reconfigure before the next interval. A
//!   [`NoopActuator`] session is bit-identical to a plain capture;
//!   [`AdaptSnap`] rides in `DSMCKPT6` so a checkpoint taken mid-tuning
//!   resumes bit-exactly.
//!
//! Degraded intervals — where the availability model says a remote DDV row
//! missed the gather — are never spent as tuning trials and never change
//! the machine: the detector already distrusts their classification.

pub mod actuator;
pub mod protocol;
pub mod session;

pub use actuator::{
    little_core, Actuator, DvfsActuator, HeteroActuator, MigrationActuator, NoopActuator,
    DVFS_BOOST_NUM, DVFS_SLOW_NUM, MIGRATE_REPAIR_POOL, MIGRATE_TOP_LARGE, MIGRATE_TOP_SMALL,
};
pub use protocol::{
    Decision, DecisionKind, PhaseSnap, PhaseStateSnap, Protocol, TuningPolicy,
};
pub use session::{
    run_locked, AdaptConfig, AdaptOutcome, AdaptSession, AdaptSnap, ObservedInterval,
};
