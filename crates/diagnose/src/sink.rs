//! The online consumer: a windowed sink over a live classified-interval
//! stream.
//!
//! [`DiagnosisSink`] is what `dsm-serve` attaches to a tenant: it observes
//! each [`ClassifiedInterval`] *at classification time* (not at drain time
//! — a stalled output buffer must never skew the diagnosis window), keeps
//! the most recent `window` intervals per node index-aligned via
//! [`PhaseStream`], and answers [`DiagnosisSink::diagnose`] on demand by
//! running the exact offline engine over the retained window. With a window
//! at least as long as the stream, the online verdict is *identical* to the
//! offline pass by construction — the differential suite pins this.

use dsm_phase::stream::PhaseStream;
use dsm_phase::ClassifiedInterval;

use crate::{diagnose, Diagnosis, DiagnoseConfig, NodeTelemetry};

/// Windowed per-node similarity state over a live stream.
#[derive(Debug, Clone)]
pub struct DiagnosisSink {
    cfg: DiagnoseConfig,
    window: usize,
    streams: Vec<PhaseStream>,
    observed: u64,
    realigns: u64,
}

impl DiagnosisSink {
    /// A sink for `n_nodes` nodes retaining the last `window` intervals per
    /// node. `window` must be nonzero (a zero window diagnoses nothing).
    pub fn new(n_nodes: usize, window: usize, cfg: DiagnoseConfig) -> Self {
        assert!(window > 0, "diagnosis window must be nonzero");
        Self {
            cfg,
            window,
            streams: (0..n_nodes).map(PhaseStream::new).collect(),
            observed: 0,
            realigns: 0,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.streams.len()
    }

    pub fn window(&self) -> usize {
        self.window
    }

    /// Intervals observed so far (across all nodes).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Times an observation arrived with a non-consecutive interval index
    /// and the node's window had to be re-anchored. Zero on a correct
    /// producer — the serve regression suite asserts exactly that through
    /// output-buffer stalls.
    pub fn realigns(&self) -> u64 {
        self.realigns
    }

    /// The retained window of one node.
    pub fn stream(&self, node: usize) -> &PhaseStream {
        &self.streams[node]
    }

    /// Observe one classified interval. Intervals must arrive in index
    /// order per node (the serve batch path guarantees this); an
    /// out-of-order arrival is counted in [`realigns`](Self::realigns) and
    /// the node's window restarts at the new index rather than silently
    /// mixing misaligned history.
    pub fn observe(&mut self, c: &ClassifiedInterval) {
        let s = &mut self.streams[c.proc];
        if s.push(*c).is_err() {
            self.realigns += 1;
            *s = PhaseStream::new(c.proc);
            s.push(*c).expect("fresh stream accepts any first index");
        }
        s.truncate_front(self.window);
        self.observed += 1;
    }

    /// Run the engine over the retained windows. `telemetry`, when
    /// available, must be indexed by node like the streams.
    pub fn diagnose(&self, telemetry: Option<&[NodeTelemetry]>) -> Diagnosis {
        diagnose(&self.cfg, &self.streams, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(proc: usize, index: u64, phase_id: u32, cpi: f64) -> ClassifiedInterval {
        ClassifiedInterval { proc, index, phase_id, is_new_phase: false, cpi, degraded: false }
    }

    #[test]
    fn windowed_online_matches_offline_when_window_covers_stream() {
        let cfg = DiagnoseConfig::default();
        let mut sink = DiagnosisSink::new(3, 64, cfg.clone());
        let mut offline: Vec<Vec<ClassifiedInterval>> = vec![Vec::new(); 3];
        for i in 0..20u64 {
            for (p, node) in offline.iter_mut().enumerate() {
                // Node 2 runs 60% slower over a mid-stream epoch.
                let cpi = if p == 2 && (8..14).contains(&i) { 1.6 } else { 1.0 };
                let c = ci(p, i, (i / 4) as u32, cpi);
                sink.observe(&c);
                node.push(c);
            }
        }
        let streams: Vec<PhaseStream> = offline
            .into_iter()
            .enumerate()
            .map(|(p, v)| PhaseStream::from_intervals(p, v))
            .collect();
        let online = sink.diagnose(None);
        let off = diagnose(&cfg, &streams, None);
        assert_eq!(online, off);
        assert_eq!(sink.realigns(), 0);
        assert_eq!(sink.observed(), 60);
    }

    #[test]
    fn window_bounds_memory_and_stays_index_aligned() {
        let mut sink = DiagnosisSink::new(2, 8, DiagnoseConfig::default());
        for i in 0..50u64 {
            sink.observe(&ci(0, i, 0, 1.0));
            sink.observe(&ci(1, i, 0, 1.0));
        }
        assert_eq!(sink.stream(0).len(), 8);
        assert_eq!(sink.stream(0).first_index(), 42);
        assert_eq!(sink.stream(0).next_index(), 50);
    }

    #[test]
    fn out_of_order_observation_realigns_instead_of_corrupting() {
        let mut sink = DiagnosisSink::new(1, 8, DiagnoseConfig::default());
        sink.observe(&ci(0, 0, 0, 1.0));
        sink.observe(&ci(0, 1, 0, 1.0));
        sink.observe(&ci(0, 5, 0, 1.0)); // gap
        assert_eq!(sink.realigns(), 1);
        assert_eq!(sink.stream(0).first_index(), 5);
        sink.observe(&ci(0, 6, 0, 1.0));
        assert_eq!(sink.realigns(), 1);
        assert_eq!(sink.stream(0).len(), 2);
    }
}
