//! # dsm-bench — deterministic counter gates
//!
//! The counters the regression gates in `tests/counters.rs` assert
//! exactly: events per bench-matrix point ([`simbench::count_events`]),
//! the online detector's steady-state allocations per interval
//! ([`simbench::steady_state_allocs_per_interval`], counted by
//! [`alloc_track::CountingAlloc`]), the allocations and heap high-water
//! of one capture per matrix point ([`alloc_track::allocs_during`],
//! [`alloc_track::heap_high_water_during`]), plus the
//! matrix itself. Wall-clock
//! performance is measured by the repository benchmark (`perfbench/`) and
//! the `scale` bin, not here.

pub mod alloc_track;
pub mod simbench;

use dsm_workloads::App;

/// Every (app, size) pair the counter gates cover.
pub fn bench_matrix() -> Vec<(App, usize)> {
    App::ALL
        .iter()
        .flat_map(|&a| [2usize, 8].into_iter().map(move |p| (a, p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_apps() {
        assert_eq!(bench_matrix().len(), 8);
    }
}
