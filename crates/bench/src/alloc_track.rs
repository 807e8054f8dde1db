//! A counting global allocator for the allocation and heap gates.
//!
//! A test binary that wants heap counts registers [`CountingAlloc`] as its
//! `#[global_allocator]`. It counts per thread: `alloc`/`realloc` calls,
//! live heap bytes and their high-water mark. A test therefore measures
//! the code it runs on its own thread exactly, while the test runner's
//! other threads allocate freely.
//!
//! When no binary registers the allocator every counter stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so reading them never
    // allocates and never fails, even while a thread is being torn down.
    // Signed because a thread may free bytes another thread allocated.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one `alloc`/`realloc` call on this thread.
fn count() {
    ALLOCS.with(|a| a.set(a.get() + 1));
}

/// Move this thread's live byte count by `delta`, raising its high-water.
fn track(delta: i64) {
    let live = LIVE.with(|l| {
        let v = l.get() + delta;
        l.set(v);
        v
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// Pass-through allocator that counts each thread's `alloc`/`realloc`
/// calls and live heap bytes.
pub struct CountingAlloc;

// SAFETY: defers every operation to the std `System` allocator; the counter
// updates touch only const-initialised thread-locals, and have
// no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is the one `System.alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; the caller also guarantees `new_size`
        // is valid for `layout.align()`.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            track(new_size as i64 - layout.size() as i64);
        }
        out
    }
}

/// Heap allocations made so far by this thread (0 unless a binary
/// registered [`CountingAlloc`] as its global allocator).
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The allocations this thread made while `f` ran. Allocations `f` makes
/// on other threads are not counted.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// The most heap bytes this thread held while `f` ran, above what it held
/// when `f` started (0 unless a binary registered [`CountingAlloc`]).
/// Allocations `f` makes on other threads are not counted.
pub fn heap_high_water_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, (peak - start) as u64)
}
