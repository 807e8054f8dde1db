//! Zero-allocation gate for the online detector's end-of-interval path.
//!
//! Registers the counting allocator for this test binary and asserts that,
//! in steady state, gathering the DDV rows, normalizing the BBV and
//! classifying an interval allocates nothing. `bench_sim` records the same
//! figure in `BENCH_SIM.json`; this test holds it at zero on every run.

use dsm_bench::alloc_track::{allocs_during, CountingAlloc};
use dsm_bench::simbench::steady_state_allocs_per_interval;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn online_detector_allocates_nothing_per_interval() {
    // The counter is live, so a zero below is a measurement, not a stub.
    let (v, allocs) = allocs_during(|| std::hint::black_box(vec![0u8; 64]));
    assert_eq!(v.len(), 64);
    assert!(allocs > 0, "the counting allocator is not registered");
    assert_eq!(steady_state_allocs_per_interval(), 0.0);
}
