//! Digest pins for the three gather styles — the production O(n) aggregate
//! gather, the O(n²) reference walk and the deadline-degraded walk — as
//! seen through every observer that runs them.
//!
//! `serve_differential` and `online_offline` compare two users of the same
//! gather with each other, so a change to the gather itself would move
//! both sides together and pass. These digests were recorded against the
//! pre-refactor observers (each with its own copy of the gather) and pin
//! the streams themselves: the online detector's classified intervals and
//! the signature extractor's signatures under a lossy availability model,
//! and a reference-gather trace collector's records, on LU and Art at 8P.

use dsm_phase_detection::prelude::*;
use dsm_phase_detection::sim::network::Network;

use dsm_harness::parallel::fnv1a64;
use dsm_phase::detector::{AvailabilityModel, ClassifiedInterval};
use dsm_phase::signature::SignatureExtractor;
use dsm_phase::IntervalSignature;

const N: usize = 8;
const THR: Thresholds = Thresholds { bbv: 0.4, dds: 0.25 };
/// Lossy enough that rows go missing every few gathers and some gathers
/// cross the staleness bound.
const LOSSY: AvailabilityModel = AvailabilityModel { seed: 11, miss_ppm: 300_000, max_staleness: 1 };

/// Little-endian byte sink whose digest is FNV-1a.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| self.f64(x));
    }
    /// Counts widened to `u64`, so `u32` and `u64` counts hash alike.
    fn u64s<T: Copy + Into<u64>>(&mut self, v: &[T]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| self.u64(x.into()));
    }
    fn digest(&self) -> (usize, u64) {
        (self.0.len(), fnv1a64(&self.0))
    }
}

fn machine(app: App) -> (SystemConfig, Vec<f64>) {
    // A fine sampling interval, so every processor runs many gathers.
    let config = ExperimentConfig { interval_base: 4_000, ..ExperimentConfig::test(app, N) };
    let sys_cfg = config.system_config();
    let dist = Network::new(sys_cfg.network, N).distance_matrix();
    (sys_cfg, dist)
}

fn classified_digest(app: App) -> (usize, u64) {
    let (sys_cfg, dist) = machine(app);
    let det = OnlineDetector::with_availability(
        N,
        dist,
        DetectorMode::BbvDdv,
        THR,
        DetectorGeometry::default(),
        LOSSY,
    );
    let (_, det) = System::new(sys_cfg, make_stream(app, N, Scale::Test), det).run();
    // The model must actually bite: rows substituted, some gathers degraded.
    assert!(det.rows_substituted() > 0);
    assert!(det.classified.iter().flatten().any(|c| c.degraded));
    let mut b = Bytes::default();
    for c in det.classified.iter().flatten() {
        let ClassifiedInterval { proc, index, phase_id, is_new_phase, cpi, degraded } = *c;
        b.u64(proc as u64);
        b.u64(index);
        b.u64(phase_id as u64);
        b.u64(is_new_phase as u64);
        b.f64(cpi);
        b.u64(degraded as u64);
    }
    b.u64(det.rows_substituted());
    b.digest()
}

fn signature_digest(app: App) -> (usize, u64) {
    let (sys_cfg, dist) = machine(app);
    let ext = SignatureExtractor::with_availability(N, dist, DetectorGeometry::default(), LOSSY);
    let (_, ext) = System::new(sys_cfg, make_stream(app, N, Scale::Test), ext).run();
    let mut b = Bytes::default();
    for s in ext.signatures.iter().flatten() {
        let IntervalSignature { proc, index, insns, cycles, bbv, dds, degraded } = s;
        b.u64(*proc as u64);
        b.u64(*index);
        b.u64(*insns);
        b.u64(*cycles);
        b.f64s(bbv);
        b.f64(*dds);
        b.u64(*degraded as u64);
    }
    b.digest()
}

fn reference_records_digest(app: App) -> (usize, u64) {
    let (sys_cfg, dist) = machine(app);
    let coll = TraceCollector::with_reference_gather(N, dist, DetectorGeometry::default());
    let (_, coll) = System::new(sys_cfg, make_stream(app, N, Scale::Test), coll).run();
    let mut b = Bytes::default();
    for r in coll.records.iter().flatten() {
        b.u64(r.proc as u64);
        b.u64(r.index);
        b.u64(r.insns);
        b.u64(r.cycles);
        // The BBV hashes normalized, as the digest was first recorded.
        b.f64s(&r.normalized_bbv());
        b.u64s(r.fvec());
        b.u64s(r.cvec());
        b.f64(r.dds);
        b.u64s(&r.ws_words().collect::<Vec<u64>>());
        b.u64(r.branches);
    }
    let ddv = coll.ddv();
    b.u64(ddv.queries());
    b.u64(ddv.vectors_exchanged());
    b.u64(ddv.gather_rounds());
    b.digest()
}

#[test]
fn lossy_online_classification_is_pinned() {
    assert_eq!(classified_digest(App::Lu), (2888, 17131933983749374779));
    assert_eq!(classified_digest(App::Art), (11816, 18151456142003417013));
}

#[test]
fn lossy_extracted_signatures_are_pinned() {
    assert_eq!(signature_digest(App::Lu), (18720, 16459277378002715584));
    assert_eq!(signature_digest(App::Art), (76752, 14369837723139553125));
}

#[test]
fn reference_gather_records_are_pinned() {
    assert_eq!(reference_records_digest(App::Lu), (35544, 11918223766611393027));
    assert_eq!(reference_records_digest(App::Art), (145656, 5284150739427583822));
}
