//! The deterministic counters behind the gates in `tests/counters.rs`:
//! events per bench-matrix point and the online detector's steady-state
//! allocations per interval. Both depend only on the code, never on the
//! host, so the gates assert them exactly.

use dsm_phase::ddv::hypercube_distance;
use dsm_phase::detector::{DetectorGeometry, DetectorMode, OnlineDetector, Thresholds};
use dsm_sim::event::{Event, InstructionStream};
use dsm_sim::observer::{IntervalStats, SimObserver};
use dsm_workloads::{make_stream, App, Scale};

/// Stable key for one bench-matrix point, e.g. `lu-2p`.
pub fn point_key(app: App, n_procs: usize) -> String {
    format!("{}-{}p", app.name().to_ascii_lowercase(), n_procs)
}

/// Deterministic number of events the simulator executes for one
/// test-scale configuration (counted by draining a fresh stream; equals
/// [`dsm_sim::system::System::events_executed`] after a run, including each processor's
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
        hypercube_distance(N_PROCS),
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
}
