//! The parallel experiment engine.
//!
//! The paper's methodology sweeps ~200 threshold values per detector over
//! every (application, node count) point; every simulation and every sweep
//! point is independent. [`par_map`] runs them on an index-queue over
//! scoped OS threads with a process-wide `--jobs` knob. Results land in
//! their input slot, so output order (and therefore every downstream
//! artefact) is identical for any job count.
//!
//! Simulations were already deterministic per configuration (workload RNGs
//! are seeded from fixed per-(app, proc, chunk) keys — see
//! `dsm-workloads`), so serial and parallel runs produce byte-identical
//! artefacts; `tests/determinism_parallel.rs` locks this down.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Jobs knob
// ---------------------------------------------------------------------------

/// 0 = unset (use available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Hardware default for the worker count.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set the process-wide worker count (0 resets to the hardware default).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Map `f` over `items` on up to [`jobs`] worker threads. Results are
/// returned in input order regardless of scheduling, so parallel output is
/// byte-identical to serial output.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_jobs(jobs(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_jobs<T, R, F>(n_jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n_jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    std::thread::scope(|s| {
        for _ in 0..n_jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i].lock().unwrap().take().expect("item taken twice");
                let r = f(item);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker skipped a slot"))
        .collect()
}

/// FNV-1a 64-bit (stable across platforms and Rust versions, unlike
/// `DefaultHasher`, so the digest pins can hash with it).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Does nothing: captures live only in memory. Kept because the repository
/// benchmark (`perfbench/src/main.rs`) still calls it with `None`.
pub fn set_trace_store_dir(_dir: Option<PathBuf>) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_for_any_job_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for j in [1, 2, 4, 13] {
            assert_eq!(par_map_jobs(j, items.clone(), |x| x * 3), expect);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map_jobs(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map_jobs(4, vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vectors — the digest pins must never drift silently.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
