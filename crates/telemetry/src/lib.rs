//! # dsm-telemetry — zero-overhead observability
//!
//! A unified telemetry layer for the simulator, the detectors, and the
//! experiment harness, replacing the per-subsystem ad-hoc reporting paths
//! (hand-rolled `SystemStats` fields, `RunReport` cache counters, detector
//! degradation events, allocation tracking) with one registry and one span
//! stream. Three pieces:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of typed counters, gauges, and
//!   fixed-bucket log2 histograms. Metrics are allocated once at
//!   registration time and updated through plain integer ids
//!   ([`CounterId`]/[`GaugeId`]/[`HistId`]); the update path is a bounds
//!   check and a `u64` add — no allocation, no hashing, no locking.
//! * [`span`] — per-track span recording into fixed-capacity ring buffers
//!   with *keep-first* semantics: once a track's buffer is full further
//!   spans are counted in an explicit drop counter instead of blocking or
//!   reallocating, so instrumentation can never perturb simulated timing.
//! * [`chrome`] — a deterministic Chrome `trace_event` JSON exporter;
//!   the artifact loads directly in `chrome://tracing` or Perfetto.
//!
//! ## Disabled form
//!
//! Instrumented crates gate their telemetry behind their own `telemetry`
//! cargo feature and import either the real [`Telemetry`] or
//! [`stub::Telemetry`] — a zero-sized type whose methods are empty
//! `#[inline(always)]` bodies, so a disabled build compiles every probe
//! down to nothing (the repository benchmark, `perfbench/`, times that
//! build; the exact counter gates hold in both). Both types expose the
//! identical API and both hand out the same id types, so instrumentation
//! sites are written once with no `cfg` at the call site.
//!
//! This crate itself always compiles the real implementation (its unit
//! tests run in every build); *selection* happens in the consuming crates.

pub mod chrome;
pub mod metrics;
pub mod span;
pub mod stub;

pub use metrics::{
    CounterId, GaugeId, HistId, Log2Histogram, MetricSample, MetricValue, MetricsRegistry,
};
pub use span::{NameId, Snapshot, SpanEvent, SpanSink, TrackSnapshot, DEFAULT_RING_CAPACITY};

/// The real telemetry facade: a metrics registry plus a span sink.
///
/// One instance is owned by each instrumented component (the simulator's
/// `System`, the online detector); components expose a [`Snapshot`] that
/// the harness merges and exports. See [`stub::Telemetry`] for the
/// feature-off mirror.
#[derive(Debug, Clone)]
pub struct Telemetry {
    reg: MetricsRegistry,
    spans: SpanSink,
}

impl Telemetry {
    /// A facade with `n_tracks` span tracks of [`DEFAULT_RING_CAPACITY`].
    pub fn new(n_tracks: usize) -> Self {
        Self::with_capacity(n_tracks, DEFAULT_RING_CAPACITY)
    }

    /// A facade with `n_tracks` span tracks of `capacity` spans each.
    pub fn with_capacity(n_tracks: usize, capacity: usize) -> Self {
        Self {
            reg: MetricsRegistry::new(),
            spans: SpanSink::new(n_tracks, capacity),
        }
    }

    /// Whether this facade records anything (`false` only on the stub).
    pub const fn enabled(&self) -> bool {
        true
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.reg.counter(name)
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.reg.gauge(name)
    }

    /// Register (or look up) a log2 histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistId {
        self.reg.histogram(name)
    }

    /// Intern a span name (static strings only: span names are a fixed
    /// vocabulary decided at instrumentation time, not formatted per event).
    pub fn intern(&mut self, name: &'static str) -> NameId {
        self.spans.intern(name)
    }

    /// Give span track `track` a human-readable name for the exporters.
    pub fn set_track_name(&mut self, track: usize, name: &str) {
        self.spans.set_track_name(track, name);
    }

    /// Hot path: add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.reg.add(id, n);
    }

    /// Hot path: set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.reg.set(id, v);
    }

    /// Hot path: record a histogram observation.
    #[inline]
    pub fn record(&mut self, id: HistId, v: u64) {
        self.reg.record(id, v);
    }

    /// Hot path: record a completed span on `track` starting at `ts` and
    /// lasting `dur` (both in cycles). Never blocks: a full ring counts the
    /// span as dropped instead.
    #[inline]
    pub fn span(&mut self, track: usize, name: NameId, ts: u64, dur: u64) {
        self.spans.record(track, name, ts, dur);
    }

    /// Cold-path access to the registry for bulk publication of existing
    /// stats structs. Returns `None` only on the stub, so publish bridges
    /// are written `if let Some(reg) = telem.registry_mut() { ... }` and
    /// vanish entirely in a disabled build.
    #[inline]
    pub fn registry_mut(&mut self) -> Option<&mut MetricsRegistry> {
        Some(&mut self.reg)
    }

    /// An owned snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            enabled: true,
            metrics: self.reg.samples(),
            tracks: self.spans.snapshot_tracks(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trip() {
        let mut t = Telemetry::with_capacity(2, 8);
        assert!(t.enabled());
        let c = t.counter("x/count");
        let g = t.gauge("x/level");
        let h = t.histogram("x/lat");
        let n = t.intern("work");
        t.set_track_name(0, "node0");
        t.add(c, 3);
        t.add(c, 4);
        t.set(g, 2.5);
        t.record(h, 100);
        t.span(0, n, 10, 5);
        let snap = t.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.tracks.len(), 2);
        assert_eq!(snap.tracks[0].name, "node0");
        assert_eq!(snap.tracks[0].spans.len(), 1);
        assert_eq!(snap.tracks[0].spans[0].name, "work");
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["x/count", "x/lat", "x/level"], "samples sorted by name");
        assert_eq!(snap.metrics[0].value, MetricValue::Counter(7));
    }

    #[test]
    fn stub_mirrors_api_and_records_nothing() {
        let mut t = stub::Telemetry::new(4);
        assert!(!t.enabled());
        let c = t.counter("x");
        let n = t.intern("w");
        let h = t.histogram("h");
        let g = t.gauge("g");
        t.set_track_name(0, "ignored");
        t.add(c, 1);
        t.set(g, 1.0);
        t.record(h, 1);
        t.span(0, n, 0, 1);
        assert!(t.registry_mut().is_none());
        let snap = t.snapshot();
        assert!(!snap.enabled);
        assert!(snap.metrics.is_empty());
        assert!(snap.tracks.is_empty());
    }

    #[test]
    fn stub_is_zero_sized() {
        assert_eq!(std::mem::size_of::<stub::Telemetry>(), 0);
    }
}
