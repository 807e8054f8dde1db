//! Simulator-throughput and pipeline measurements behind `BENCH_SIM.json`.
//!
//! Everything here is plain `Instant` timing over the public simulator and
//! harness APIs, so the `bench_sim` binary can emit a machine-readable
//! baseline without depending on the Criterion harness. Event counts are
//! deterministic (they depend only on the workload generators); wall-clock
//! rates are minimum-over-samples of many-run averages, the statistic least
//! sensitive to host scheduling noise.

use std::time::Instant;

use dsm_harness::json::Json;
use dsm_harness::simpoint::capture_with_checkpoints;
use dsm_harness::sweep::{bbv_curve, bbv_ddv_curve};
use dsm_harness::trace::capture;
use dsm_harness::experiment::ExperimentConfig;
use dsm_sim::config::FaultPlan;
use dsm_simpoint::Checkpoint;
use dsm_phase::detector::{DetectorGeometry, DetectorMode, OnlineDetector, Thresholds};
use dsm_sim::event::{Event, InstructionStream};
use dsm_sim::observer::{IntervalStats, SimObserver};
use dsm_sim::system::System;
use dsm_workloads::{make_stream, App, Scale};

use crate::bench_matrix;

/// Stable key for one bench-matrix point, e.g. `lu-2p`.
pub fn point_key(app: App, n_procs: usize) -> String {
    format!("{}-{}p", app.name().to_ascii_lowercase(), n_procs)
}

/// Deterministic number of events the simulator executes for one
/// test-scale configuration (counted by draining a fresh stream; equals
/// [`System::events_executed`] after a run, including each processor's
/// terminating `End`).
pub fn count_events(app: App, n_procs: usize) -> u64 {
    let mut stream = make_stream(app, n_procs, Scale::Test);
    let mut events = 0u64;
    for p in 0..n_procs {
        loop {
            events += 1;
            if stream.next(p) == Event::End {
                break;
            }
        }
    }
    events
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Wall-clock seconds of one test-scale simulation event loop (stream and
/// system construction excluded from the timed region).
///
/// A test-scale run lasts well under a millisecond, so single-run timings
/// are dominated by host scheduling noise. Each sample therefore times
/// [`RUNS_PER_SAMPLE`] back-to-back runs and divides; the reported figure
/// is the *minimum* over samples — the least-contended estimate, which is
/// the stable statistic for microbenchmarks on a shared host (medians
/// wander with steal time).
pub fn time_simulation(app: App, n_procs: usize, samples: usize) -> f64 {
    const RUNS_PER_SAMPLE: u32 = 32;
    let cfg = ExperimentConfig::test(app, n_procs);
    let times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let mut timed = std::time::Duration::ZERO;
            for _ in 0..RUNS_PER_SAMPLE {
                let stream = make_stream(app, n_procs, Scale::Test);
                let sys = System::new(cfg.system_config(), stream, NullObserver2);
                let t0 = Instant::now();
                let _ = sys.run();
                timed += t0.elapsed();
            }
            timed.as_secs_f64() / RUNS_PER_SAMPLE as f64
        })
        .collect();
    times.into_iter().fold(f64::INFINITY, f64::min)
}

/// Local no-op observer (avoids pulling the sim's `NullObserver` into the
/// public signature; behaviourally identical).
struct NullObserver2;

impl SimObserver for NullObserver2 {
    #[inline]
    fn on_block_commit(&mut self, _: usize, _: u32, _: u32) {}
    #[inline]
    fn on_mem_commit(&mut self, _: usize, _: usize, _: u64, _: bool) {}
    #[inline]
    fn on_interval(&mut self, _: usize, _: IntervalStats) {}
}

/// Wall-clock seconds of the end-to-end pipeline for one app: simulate +
/// capture interval features, then run the fig2-style BBV and BBV+DDV
/// threshold sweeps over the captured trace. Minimum over samples, for the
/// same reason as [`time_simulation`].
pub fn time_pipeline(app: App, n_procs: usize, samples: usize) -> f64 {
    let times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let trace = capture(ExperimentConfig::test(app, n_procs));
            let _ = bbv_curve(&trace);
            let _ = bbv_ddv_curve(&trace);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.into_iter().fold(f64::INFINITY, f64::min)
}

/// Steady-state heap allocations per classified interval of the online
/// detector (median over many fixed-size windows, so one-off `Vec` growth
/// does not pollute the figure). Returns 0 unless the calling binary
/// registered [`crate::alloc_track::CountingAlloc`].
pub fn steady_state_allocs_per_interval() -> f64 {
    const N_PROCS: usize = 4;
    const WARMUP: u64 = 256;
    const WINDOWS: usize = 64;
    const PER_WINDOW: u64 = 16;

    let mut det = OnlineDetector::new(
        N_PROCS,
        hypercube_dist(N_PROCS),
        DetectorMode::BbvDdv,
        Thresholds { bbv: 0.5, dds: 0.3 },
        DetectorGeometry::default(),
    );
    let mut index = 0u64;
    let mut drive = |det: &mut OnlineDetector, n: u64| {
        for _ in 0..n {
            // Two alternating signatures so classification exercises both
            // the match and the table-scan path in steady state.
            let code = 7 + (index % 2) as u32 * 1000;
            for p in 0..N_PROCS {
                for b in 0..8 {
                    det.on_block_commit(p, code + b, 50);
                }
                det.on_mem_commit(p, (index % N_PROCS as u64) as usize, 0x40, false);
            }
            for p in 0..N_PROCS {
                det.on_interval(p, IntervalStats { index, insns: 400, cycles: 900 });
            }
            index += 1;
        }
    };
    drive(&mut det, WARMUP);
    let mut per_window = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let (_, allocs) = crate::alloc_track::allocs_during(|| drive(&mut det, PER_WINDOW));
        per_window.push(allocs as f64);
    }
    median(per_window) / (PER_WINDOW as f64 * N_PROCS as f64)
}

/// Checkpoint round-trip throughput: encode (snapshot serialization) and
/// decode+restore (rebuild a live system) times for one mid-run `DSMCKPT6`
/// checkpoint of test-scale LU at 4 processors, plus its size in bytes.
#[derive(Debug, Clone, Copy)]
pub struct CkptRoundtrip {
    /// Milliseconds to serialize the captured checkpoint.
    pub encode_ms: f64,
    /// Milliseconds to decode the bytes and resurrect a runnable system.
    pub decode_restore_ms: f64,
    /// Encoded checkpoint size in bytes (deterministic).
    pub bytes: u64,
}

/// Measure [`CkptRoundtrip`] (minimum over `samples`, like the other
/// wall-clock figures here). The capture itself is untimed setup.
pub fn measure_checkpoint_roundtrip(samples: usize) -> CkptRoundtrip {
    const BOUNDARY: u64 = 2;
    let config = ExperimentConfig::test(App::Lu, 4);
    let (ckpts, _) = capture_with_checkpoints(config, FaultPlan::none(), &[BOUNDARY]);
    let bytes = &ckpts[0].1;
    let ck = Checkpoint::decode(bytes).expect("fresh checkpoint decodes");

    let mut encode_s = f64::INFINITY;
    let mut decode_restore_s = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        let encoded = ck.encode();
        encode_s = encode_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(encoded.len(), bytes.len());

        let t0 = Instant::now();
        let decoded = Checkpoint::decode(bytes).expect("checkpoint decodes");
        let sys = dsm_harness::simpoint::resume_checkpoint(&decoded);
        decode_restore_s = decode_restore_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(sys.min_interval_index(), BOUNDARY);
    }
    CkptRoundtrip {
        encode_ms: encode_s * 1e3,
        decode_restore_ms: decode_restore_s * 1e3,
        bytes: bytes.len() as u64,
    }
}

/// Diagnosis-engine throughput: wall-clock of one full blind diagnostic
/// pass (distance matrix → clustering → flagging → attribution) over the
/// classified streams of a 16-processor straggler capture.
#[derive(Debug, Clone, Copy)]
pub struct DiagnoseBench {
    /// Milliseconds for one `dsm_diagnose::diagnose` pass.
    pub engine_ms: f64,
    /// Fleet size the pass diagnosed.
    pub n_streams: u64,
    /// Total classified intervals across the fleet (deterministic).
    pub intervals: u64,
}

/// Measure [`DiagnoseBench`] (minimum over `samples`). The capture and
/// classification are untimed setup — the figure isolates the engine, which
/// is the part the serve path runs per diagnosis probe.
pub fn measure_diagnose(samples: usize) -> DiagnoseBench {
    use dsm_harness::diagnose::{
        capture_diag, classified_streams, node_telemetry, report_config, straggler_plan,
    };
    let config = ExperimentConfig::test(App::Lu, 16);
    let golden = capture_diag(config, None);
    let (plan, _, _) = straggler_plan(App::Lu, &golden);
    let faulty = capture_diag(config, Some(plan));
    let streams = classified_streams(&faulty);
    let telemetry = node_telemetry(&faulty, &streams);
    let cfg = report_config();

    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        let d = dsm_diagnose::diagnose(&cfg, &streams, Some(&telemetry));
        best = best.min(t0.elapsed().as_secs_f64());
        assert!(!d.is_uniform(), "the straggler capture must diagnose as non-uniform");
    }
    DiagnoseBench {
        engine_ms: best * 1e3,
        n_streams: streams.len() as u64,
        intervals: streams.iter().map(|s| s.len() as u64).sum(),
    }
}

fn hypercube_dist(n: usize) -> Vec<f64> {
    let mut dist = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            dist[i * n + j] = if i == j {
                1.0
            } else {
                1.0 + ((i ^ j) as u64).count_ones() as f64
            };
        }
    }
    dist
}

/// One full measurement pass over the bench matrix.
pub struct Measurement {
    /// Deterministic event counts per matrix point.
    pub events: Vec<(String, u64)>,
    /// Simulator throughput in events per wall-clock second (least-noise
    /// estimate; see [`time_simulation`]).
    pub events_per_sec: Vec<(String, f64)>,
    /// End-to-end pipeline time per app, in milliseconds.
    pub pipeline_ms: Vec<(String, f64)>,
    /// Steady-state detector allocation churn (see
    /// [`steady_state_allocs_per_interval`]).
    pub allocs_per_interval: f64,
    /// Checkpoint snapshot/restore throughput (see
    /// [`measure_checkpoint_roundtrip`]).
    pub checkpoint_roundtrip: CkptRoundtrip,
    /// Diagnosis-engine pass time (see [`measure_diagnose`]).
    pub diagnose: DiagnoseBench,
}

/// Run the whole measurement suite (several seconds at test scale).
pub fn measure(samples: usize) -> Measurement {
    let mut events = Vec::new();
    let mut events_per_sec = Vec::new();
    for (app, n) in bench_matrix() {
        let key = point_key(app, n);
        let ev = count_events(app, n);
        let secs = time_simulation(app, n, samples);
        events.push((key.clone(), ev));
        events_per_sec.push((key, ev as f64 / secs));
    }
    let mut pipeline_ms = Vec::new();
    for app in App::ALL {
        pipeline_ms.push((
            app.name().to_ascii_lowercase(),
            time_pipeline(app, 4, samples.min(3)) * 1e3,
        ));
    }
    Measurement {
        events,
        events_per_sec,
        pipeline_ms,
        allocs_per_interval: steady_state_allocs_per_interval(),
        checkpoint_roundtrip: measure_checkpoint_roundtrip(samples),
        diagnose: measure_diagnose(samples),
    }
}

impl Measurement {
    /// Serialize one measurement section of `BENCH_SIM.json`.
    pub fn to_json(&self, label: &str) -> Json {
        let kv = |pairs: &[(String, f64)]| {
            pairs
                .iter()
                .fold(Json::obj(), |o, (k, v)| o.field(k, round3(*v)))
        };
        Json::obj()
            .field("label", label)
            .field(
                "events",
                self.events
                    .iter()
                    .fold(Json::obj(), |o, (k, v)| o.field(k, *v)),
            )
            .field("events_per_sec", kv(&self.events_per_sec))
            .field("pipeline_ms", kv(&self.pipeline_ms))
            .field("allocs_per_interval", self.allocs_per_interval)
            .field(
                "checkpoint_roundtrip",
                Json::obj()
                    .field("encode_ms", round3(self.checkpoint_roundtrip.encode_ms))
                    .field(
                        "decode_restore_ms",
                        round3(self.checkpoint_roundtrip.decode_restore_ms),
                    )
                    .field("bytes", self.checkpoint_roundtrip.bytes),
            )
            .field(
                "diagnose",
                Json::obj()
                    .field("engine_ms", round3(self.diagnose.engine_ms))
                    .field("n_streams", self.diagnose.n_streams)
                    .field("intervals", self.diagnose.intervals),
            )
    }
}

/// Round to 3 significant decimals of the integer part being kept exact —
/// wall-clock rates don't carry more precision run to run.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_counts_are_deterministic_and_positive() {
        let a = count_events(App::Lu, 2);
        let b = count_events(App::Lu, 2);
        assert_eq!(a, b);
        assert!(a > 1000, "test-scale LU should be thousands of events, got {a}");
    }

    #[test]
    fn point_keys_are_stable() {
        assert_eq!(point_key(App::Lu, 2), "lu-2p");
        assert_eq!(point_key(App::Equake, 8), "equake-8p");
    }

    #[test]
    fn measurement_json_has_all_sections() {
        // Tiny sample count: this exercises the full measurement path.
        let m = Measurement {
            events: vec![("lu-2p".into(), 10)],
            events_per_sec: vec![("lu-2p".into(), 1e6)],
            pipeline_ms: vec![("lu".into(), 12.0)],
            allocs_per_interval: 0.0,
            checkpoint_roundtrip: CkptRoundtrip {
                encode_ms: 0.1,
                decode_restore_ms: 0.2,
                bytes: 1024,
            },
            diagnose: DiagnoseBench { engine_ms: 0.5, n_streams: 16, intervals: 300 },
        };
        let j = m.to_json("x");
        for key in ["label", "events", "events_per_sec", "pipeline_ms", "allocs_per_interval"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let ck = j.get("checkpoint_roundtrip").expect("checkpoint group");
        for key in ["encode_ms", "decode_restore_ms", "bytes"] {
            assert!(ck.get(key).is_some(), "missing checkpoint_roundtrip.{key}");
        }
        let dg = j.get("diagnose").expect("diagnose group");
        for key in ["engine_ms", "n_streams", "intervals"] {
            assert!(dg.get(key).is_some(), "missing diagnose.{key}");
        }
    }

    #[test]
    fn checkpoint_roundtrip_measures_real_bytes() {
        let m = measure_checkpoint_roundtrip(1);
        assert!(m.bytes > 0);
        assert!(m.encode_ms >= 0.0 && m.decode_restore_ms >= 0.0);
        // Deterministic codec: the size never wobbles between measurements.
        assert_eq!(m.bytes, measure_checkpoint_roundtrip(1).bytes);
    }
}
