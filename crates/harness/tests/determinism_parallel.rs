//! Serial vs parallel determinism: the experiment engine must produce
//! byte-identical artefacts for any `--jobs` value, and reloading a trace
//! from the disk store must be indistinguishable from re-simulating.
//!
//! These tests mutate the process-wide jobs knob and store directory, so
//! they serialize on a local mutex.

use std::sync::{Mutex, MutexGuard};

use dsm_analysis::curve::CovCurve;
use dsm_harness::figures::{figure2_with_report, figure4_with_report};
use dsm_harness::sweep::{ablation_curve, bbv_curve_with, bbv_ddv_curve_with, DdsAblation};
use dsm_harness::trace::{capture, clear_memory_cache};
use dsm_harness::{parallel, ExperimentConfig};
use dsm_workloads::{App, Scale};

static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Serialize tests that touch the engine's process-wide state, and restore
/// the defaults afterwards.
struct EngineGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl EngineGuard {
    fn take() -> Self {
        let g = ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        parallel::set_trace_store_dir(None);
        clear_memory_cache();
        Self(g)
    }
}

impl Drop for EngineGuard {
    fn drop(&mut self) {
        parallel::set_trace_store_dir(None);
        parallel::set_jobs(0);
        clear_memory_cache();
    }
}

#[test]
fn figures_are_byte_identical_serial_vs_four_jobs() {
    let _guard = EngineGuard::take();

    parallel::set_jobs(1);
    let (fig2_serial, rep2_serial) = figure2_with_report(Scale::Test);
    clear_memory_cache();
    let (fig4_serial, rep4_serial) = figure4_with_report(Scale::Test);
    clear_memory_cache();

    parallel::set_jobs(4);
    let (fig2_par, rep2_par) = figure2_with_report(Scale::Test);
    clear_memory_cache();
    let (fig4_par, rep4_par) = figure4_with_report(Scale::Test);

    // Full figure artefacts (every sweep point of every curve) match byte
    // for byte, as do the CSV tables and the run reports modulo timing.
    assert_eq!(
        fig2_serial.to_json().to_string(),
        fig2_par.to_json().to_string()
    );
    assert_eq!(
        fig4_serial.to_json().to_string(),
        fig4_par.to_json().to_string()
    );
    assert_eq!(fig2_serial.csv(), fig2_par.csv());
    assert_eq!(fig4_serial.csv(), fig4_par.csv());
    // `jobs` is part of the report header; the per-experiment rows (label,
    // key, source, intervals) must agree.
    assert_eq!(rep2_serial.stable_json(), {
        let mut r = rep2_par.clone();
        r.jobs = 1;
        r.stable_json()
    });
    assert_eq!(rep4_serial.stable_json(), {
        let mut r = rep4_par.clone();
        r.jobs = 1;
        r.stable_json()
    });
}

#[test]
fn sweeps_are_identical_for_any_job_count() {
    let _guard = EngineGuard::take();
    let trace = capture(ExperimentConfig::test(App::Fmm, 4));
    let curves = || {
        [
            bbv_curve_with(&trace, 50),
            bbv_ddv_curve_with(&trace, 10, 5),
            ablation_curve(&trace, DdsAblation::NoContention),
        ]
    };
    let bits = |c: &CovCurve| -> Vec<(u64, u64)> {
        c.points
            .iter()
            .map(|p| (p.phases.to_bits(), p.cov.to_bits()))
            .collect()
    };
    parallel::set_jobs(1);
    let serial = curves();
    for jobs in [2, 4] {
        parallel::set_jobs(jobs);
        for (s, p) in serial.iter().zip(curves()) {
            assert_eq!(s.points, p.points, "{jobs} jobs");
            assert_eq!(bits(s), bits(&p), "{jobs} jobs");
        }
    }
}

#[test]
fn disk_store_roundtrip_matches_fresh_simulation() {
    let _guard = EngineGuard::take();
    let dir = std::env::temp_dir().join(format!("dsm-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    parallel::set_trace_store_dir(Some(dir.clone()));
    parallel::set_jobs(4);

    let configs = vec![
        ExperimentConfig::test(App::Lu, 2),
        ExperimentConfig::test(App::Art, 2),
        ExperimentConfig::test(App::Equake, 4),
    ];

    // Cold: everything simulates and lands in the store.
    let (cold_traces, cold_report) = parallel::capture_matrix("roundtrip", &configs);
    assert_eq!(cold_report.misses(), configs.len());
    assert_eq!(cold_report.disk_hits(), 0);

    // Warm with an empty memory cache: everything loads from disk and the
    // decoded traces (and the curves computed from them) are identical.
    clear_memory_cache();
    let (warm_traces, warm_report) = parallel::capture_matrix("roundtrip", &configs);
    assert_eq!(warm_report.disk_hits(), configs.len());
    assert_eq!(warm_report.misses(), 0);
    for (cold, warm) in cold_traces.iter().zip(&warm_traces) {
        assert_eq!(cold.config, warm.config);
        assert_eq!(cold.records, warm.records);
        assert_eq!(cold.stats, warm.stats);
        assert_eq!(cold.ddv_vectors_exchanged, warm.ddv_vectors_exchanged);
        assert_eq!(
            bbv_curve_with(cold, 20).points,
            bbv_curve_with(warm, 20).points
        );
    }

    // Fully warm: the memory cache answers without touching the store.
    let (_, hot_report) = parallel::capture_matrix("roundtrip", &configs);
    assert_eq!(hot_report.mem_hits(), configs.len());

    let _ = std::fs::remove_dir_all(&dir);
}
