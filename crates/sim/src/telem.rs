//! Telemetry selection shim for the simulator.
//!
//! The `telemetry` cargo feature decides which facade the simulator's
//! probes compile against: the real recorder ([`dsm_telemetry::Telemetry`])
//! or the zero-sized no-op stub. Both expose the same API and the same id
//! types, so the instrumentation in [`crate::system`] is written once with
//! no `cfg` at any call site; a disabled build optimizes every probe away.
//! The exact counter gates (`crates/bench/tests/counters.rs`) pass with the
//! feature on and off, and the repository benchmark (`perfbench/`) times
//! the disabled build.
//!
//! ## Track layout
//!
//! For an `n`-processor system the simulator allocates `2n` span tracks:
//!
//! * track `p` (`0 <= p < n`) — *coherence*: one span per directory
//!   transaction resolved on node `p` (L2 miss → request → directory →
//!   data/acks), named `dir_read`/`dir_write`, `ts` = the cycle the
//!   transaction issued, `dur` = the exposed (MLP-discounted) stall the
//!   node actually paid. Because the node's clock advances by exactly that
//!   stall, spans on one coherence track never overlap.
//! * track `n + p` — *intervals*: one span per completed sampling
//!   interval on node `p`, covering `[interval_start, interval_end)`.

#[cfg(feature = "telemetry")]
pub use dsm_telemetry::Telemetry as SimTelemetry;
#[cfg(not(feature = "telemetry"))]
pub use dsm_telemetry::stub::Telemetry as SimTelemetry;

pub use dsm_telemetry::{MetricsRegistry, Snapshot};

use dsm_telemetry::{HistId, NameId};

/// Pre-interned probe ids the simulator's hot path updates through.
/// Registered once in [`crate::system::System::new`]; plain `Copy` ids in
/// both the real and the stubbed build.
#[derive(Debug, Clone, Copy)]
pub struct SimProbes {
    /// Span name for directory read transactions.
    pub dir_read: NameId,
    /// Span name for directory write/upgrade transactions.
    pub dir_write: NameId,
    /// Span name for completed sampling intervals.
    pub interval: NameId,
    /// Histogram of raw (undiscounted) coherence stall cycles per L2 miss.
    pub stall_hist: HistId,
}

impl SimProbes {
    /// Register every probe and label the `2n` tracks (see module docs).
    pub fn register(telem: &mut SimTelemetry, n_procs: usize) -> Self {
        for p in 0..n_procs {
            telem.set_track_name(p, &format!("node{p} coherence"));
            telem.set_track_name(n_procs + p, &format!("node{p} intervals"));
        }
        Self {
            dir_read: telem.intern("dir_read"),
            dir_write: telem.intern("dir_write"),
            interval: telem.intern("interval"),
            stall_hist: telem.histogram("sim/coherence/stall_cycles"),
        }
    }

    /// Span tracks a system with `n_procs` processors needs.
    pub fn tracks_for(n_procs: usize) -> usize {
        2 * n_procs
    }
}
