//! Serial vs parallel determinism: the experiment engine must produce
//! byte-identical artefacts for any `--jobs` value.
//!
//! These tests mutate the process-wide jobs knob and trace cache, so they
//! serialize on a local mutex.

use std::sync::{Mutex, MutexGuard};

use dsm_analysis::curve::CovCurve;
use dsm_harness::figures::{figure2, figure4};
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
        clear_memory_cache();
        Self(g)
    }
}

impl Drop for EngineGuard {
    fn drop(&mut self) {
        parallel::set_jobs(0);
        clear_memory_cache();
    }
}

#[test]
fn figures_are_byte_identical_serial_vs_four_jobs() {
    let _guard = EngineGuard::take();

    parallel::set_jobs(1);
    let fig2_serial = figure2(Scale::Test);
    clear_memory_cache();
    let fig4_serial = figure4(Scale::Test);
    clear_memory_cache();

    parallel::set_jobs(4);
    let fig2_par = figure2(Scale::Test);
    clear_memory_cache();
    let fig4_par = figure4(Scale::Test);

    // Full figure artefacts (every sweep point of every curve) match byte
    // for byte, as do the CSV tables.
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
