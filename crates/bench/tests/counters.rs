//! Exact gates on the deterministic counters: events, allocations per
//! interval, footprint comparisons per classification, the allocations and
//! heap high-water of one capture, the heap high-water of one serve smoke
//! fleet, and the serve smoke fleets' outcomes.
//!
//! Every value below is a pure function of the code. A change that moves
//! one either re-records it here, saying why, or is a regression. The
//! constants are re-recorded by editing this file; a failure prints each
//! point with its recorded and new value.
//!
//! Allocations and heap bytes are counted per thread, and every test here
//! runs its measured code on its own thread. Each test also holds
//! [`SERIAL`] while it runs, so the gates run one at a time.

use std::sync::{Mutex, MutexGuard};

use dsm_bench::alloc_track::{allocs_during, heap_high_water_during, CountingAlloc};
use dsm_bench::bench_matrix;
use dsm_bench::simbench::{count_events, point_key, steady_state_allocs_per_interval};
use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::serve::{run_scenario, ServeScenario};
use dsm_harness::sweep::{line_grid, threshold_grid, BBV_SWEEP_POINTS, DDV_GRID_BBV, DDV_GRID_DDS};
use dsm_harness::trace::{capture_system, SystemTrace};
use dsm_phase::detector::{DetectorGeometry, TraceClassifier, TraceCollector};
use dsm_phase::distance::manhattan_rows;
use dsm_phase::DEFAULT_FOOTPRINT_VECTORS;
use dsm_workloads::make_stream;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the guarded data is `()`, so the
    // other tests can still run.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(point, events, BBV comparisons, BBV+DDV comparisons)` for every
/// [`bench_matrix`] point at test scale. Comparisons are footprint entries
/// looked at by [`TraceClassifier::sweep_proc`], summed over every
/// processor, for the Figure 2 BBV grid (200 points) and the Figure 4
/// BBV × DDS grid (20 × 10).
const MATRIX: [(&str, u64, u64, u64); 8] = [
    ("lu-2p", 6_534, 64, 497),
    ("lu-8p", 6_612, 94, 580),
    ("fmm-2p", 28_048, 7_114, 28_253),
    ("fmm-8p", 26_352, 9_606, 52_739),
    ("art-2p", 16_239, 210, 1_586),
    ("art-8p", 16_251, 664, 3_978),
    ("equake-2p", 28_080, 475, 3_584),
    ("equake-8p", 30_726, 1_602, 12_105),
];

/// `(point, bytes, bytes with telemetry)`: the heap high-water of one
/// test-scale capture, `capture_system(..).run()` on this thread, above the
/// heap held before it (the instruction stream is built first and counted
/// as held). The telemetry build's span rings and metrics registry are heap
/// too, so it has its own column.
const HEAP: [(&str, u64, u64); 8] = [
    ("lu-2p", 225_660, 621_728),
    ("lu-8p", 673_900, 2_250_468),
    ("fmm-2p", 230_588, 632_988),
    ("fmm-8p", 725_340, 2_312_966),
    ("art-2p", 159_520, 561_920),
    ("art-8p", 631_568, 2_219_816),
    ("equake-2p", 455_216, 851_284),
    ("equake-8p", 905_248, 2_481_816),
];

/// `(point, allocations, allocations with telemetry, intervals)`: the heap
/// allocations (`alloc` and `realloc` calls) one test-scale capture,
/// `capture_system(..).run()`, makes, and the intervals it captures. The
/// instruction stream is built first and not counted.
const ALLOCS: [(&str, u64, u64, usize); 8] = [
    ("lu-2p", 82, 265, 16),
    ("lu-8p", 177, 574, 30),
    ("fmm-2p", 161, 344, 84),
    ("fmm-8p", 396, 776, 195),
    ("art-2p", 82, 265, 17),
    ("art-8p", 221, 618, 65),
    ("equake-2p", 98, 281, 27),
    ("equake-8p", 271, 668, 105),
];

/// `(tenants, bytes, bytes with telemetry)`: the heap high-water of one
/// single-threaded smoke fleet, [`run_scenario`] on this thread, above the
/// heap held before it. The fleet's scripts, server, per-node streams and
/// latency record are all built and dropped inside the run. The serve path
/// has no feature-gated probes, so both columns agree.
const SERVE_HEAP: [(usize, u64, u64); 3] = [
    (64, 1_821_716, 1_821_716),
    (256, 2_536_190, 2_536_190),
    (1024, 5_392_986, 5_392_986),
];

/// The `ServeOutcome` counters of one smoke fleet.
#[derive(Debug, PartialEq)]
struct Fleet {
    offered: u64,
    accepted: u64,
    classified: u64,
    busy_events: u64,
    output_stalls: u64,
    queue_high_water: u64,
    peak_resident_footprint: usize,
    latency_ticks: (u64, u64, u64),
}

/// An uncontended smoke fleet: every signature is accepted
/// and classified, nothing backpressures, and each tenant's footprint
/// tables stay resident.
fn uncontended(classified: u64, peak_resident_footprint: usize) -> Fleet {
    Fleet {
        offered: classified,
        accepted: classified,
        classified,
        busy_events: 0,
        output_stalls: 0,
        queue_high_water: 4,
        peak_resident_footprint,
        latency_ticks: (1, 1, 1),
    }
}

/// Mismatches collected over a whole gate, reported together.
#[derive(Default)]
struct Report(Vec<String>);

impl Report {
    fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: String, recorded: T, now: T) {
        if recorded != now {
            self.0
                .push(format!("{what}: recorded {recorded:?}, now {now:?}"));
        }
    }

    fn assert_clean(self, gate: &str) {
        assert!(
            self.0.is_empty(),
            "{gate} moved; re-record the constant if the change means it:\n  {}",
            self.0.join("\n  ")
        );
    }
}

#[test]
fn online_detector_allocates_nothing_per_interval() {
    let _serial = serial();
    // The counter is live, so a zero below is a measurement, not a stub.
    let (v, allocs) = allocs_during(|| std::hint::black_box(vec![0u8; 64]));
    assert_eq!(v.len(), 64);
    assert!(allocs > 0, "the counting allocator is not registered");
    assert_eq!(steady_state_allocs_per_interval(), 0.0);
}

#[test]
fn events_and_footprint_comparisons_are_exact() {
    let _serial = serial();
    let grids = [
        ("BBV", line_grid(BBV_SWEEP_POINTS, 1e-3, 2.0)),
        ("BBV+DDV", threshold_grid(DDV_GRID_BBV, DDV_GRID_DDS)),
    ];
    let matrix = bench_matrix();
    assert_eq!(
        matrix.len(),
        MATRIX.len(),
        "one recorded row per matrix point"
    );
    let mut report = Report::default();
    for ((app, n), &(key, events, bbv, bbv_ddv)) in matrix.into_iter().zip(&MATRIX) {
        assert_eq!(point_key(app, n), key, "matrix order");
        let cfg = ExperimentConfig::test(app, n);
        let stream = make_stream(cfg.app, cfg.n_procs, cfg.scale);
        let mut sys = capture_system(
            cfg.system_config(),
            stream,
            DetectorGeometry::default(),
            TraceCollector::new,
        );
        sys.run_to_interval(u64::MAX);
        report.check(format!("{key} count_events"), events, count_events(app, n));
        report.check(
            format!("{key} events_executed"),
            events,
            sys.events_executed(),
        );
        let trace = SystemTrace::from_run(cfg, sys.run());

        for ((name, grid), recorded) in grids.iter().zip([bbv, bbv_ddv]) {
            let now: u64 = trace
                .records
                .iter()
                .map(|recs| {
                    let rows = TraceClassifier::bbv_rows(recs);
                    let stream = TraceClassifier::bbv_stream(recs, &rows, None);
                    TraceClassifier::sweep_proc(
                        stream,
                        manhattan_rows,
                        grid,
                        DEFAULT_FOOTPRINT_VECTORS,
                    )
                    .comparisons
                })
                .sum();
            // One classification is one grid point deciding one interval.
            let decisions = (grid.len() * trace.total_intervals()) as f64;
            report.check(
                format!(
                    "{key} {name} comparisons ({:.4} -> {:.4} per classification)",
                    recorded as f64 / decisions,
                    now as f64 / decisions
                ),
                recorded,
                now,
            );
        }
    }
    report.assert_clean("an event or comparison count");
}

#[test]
fn capture_heap_high_water_is_exact() {
    let _serial = serial();
    let matrix = bench_matrix();
    assert_eq!(matrix.len(), HEAP.len(), "one recorded row per matrix point");
    let telemetry = dsm_sim::telem::SimTelemetry::new(0).enabled();
    let mut report = Report::default();
    for ((app, n), &(key, off, on)) in matrix.into_iter().zip(&HEAP) {
        assert_eq!(point_key(app, n), key, "matrix order");
        let cfg = ExperimentConfig::test(app, n);
        let stream = make_stream(cfg.app, cfg.n_procs, cfg.scale);
        let (_, bytes) = heap_high_water_during(|| {
            capture_system(
                cfg.system_config(),
                stream,
                DetectorGeometry::default(),
                TraceCollector::new,
            )
            .run()
        });
        let recorded = if telemetry { on } else { off };
        report.check(format!("{key} heap high-water bytes"), recorded, bytes);
    }
    report.assert_clean("a capture's heap high-water");
}

#[test]
fn capture_allocations_are_exact() {
    let _serial = serial();
    let matrix = bench_matrix();
    assert_eq!(matrix.len(), ALLOCS.len(), "one recorded row per matrix point");
    let telemetry = dsm_sim::telem::SimTelemetry::new(0).enabled();
    let mut report = Report::default();
    for ((app, n), &(key, off, on, intervals)) in matrix.into_iter().zip(&ALLOCS) {
        assert_eq!(point_key(app, n), key, "matrix order");
        let cfg = ExperimentConfig::test(app, n);
        let stream = make_stream(cfg.app, cfg.n_procs, cfg.scale);
        let ((_, collector), allocs) = allocs_during(|| {
            capture_system(
                cfg.system_config(),
                stream,
                DetectorGeometry::default(),
                TraceCollector::new,
            )
            .run()
        });
        let recorded = if telemetry { on } else { off };
        report.check(format!("{key} allocations"), recorded, allocs);
        report.check(format!("{key} intervals"), intervals, collector.total_intervals());
    }
    report.assert_clean("a capture's allocation count");
}

#[test]
fn serve_smoke_fleets_are_exact() {
    let _serial = serial();
    let fleets = [
        (64, uncontended(1_536, 2_048)),
        (256, uncontended(6_144, 8_192)),
        (1024, uncontended(24_576, 32_768)),
    ];
    let mut report = Report::default();
    for (tenants, recorded) in fleets {
        let (o, _) = run_scenario(&ServeScenario::smoke(tenants, 42));
        let now = Fleet {
            offered: o.offered,
            accepted: o.accepted,
            classified: o.classified,
            busy_events: o.busy_events,
            output_stalls: o.output_stalls,
            queue_high_water: o.queue_high_water,
            peak_resident_footprint: o.peak_resident_footprint,
            latency_ticks: o.latency_ticks,
        };
        report.check(format!("{tenants}-tenant smoke fleet"), recorded, now);
    }
    report.assert_clean("a serve smoke fleet's outcome");
}

#[test]
fn serve_heap_high_water_is_exact() {
    let _serial = serial();
    let telemetry = dsm_sim::telem::SimTelemetry::new(0).enabled();
    let mut report = Report::default();
    for &(tenants, off, on) in &SERVE_HEAP {
        // One batch thread keeps every allocation on this, the counted,
        // thread; `smoke` otherwise takes the worker-pool size.
        let sc = ServeScenario { threads: 1, ..ServeScenario::smoke(tenants, 42) };
        let (_, bytes) = heap_high_water_during(|| run_scenario(&sc));
        let recorded = if telemetry { on } else { off };
        report.check(
            format!("{tenants}-tenant smoke fleet heap high-water bytes"),
            recorded,
            bytes,
        );
    }
    report.assert_clean("a serve smoke fleet's heap high-water");
}
