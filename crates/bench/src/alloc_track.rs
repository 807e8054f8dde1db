//! A counting global allocator for the allocation and heap gates.
//!
//! A test binary that wants heap counts registers [`CountingAlloc`] as its
//! `#[global_allocator]`. It keeps two kinds of counter:
//!
//! - a process-wide atomic count of `alloc`/`realloc` calls, so
//!   [`crate::simbench`] can read it without threading state through the
//!   measured code;
//! - per-thread live heap bytes and their high-water mark, so a test can
//!   measure the peak heap of code it runs on its own thread while the test
//!   runner's other threads allocate freely.
//!
//! When no binary registers the allocator every counter stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading them never
    // allocates and never fails, even while a thread is being torn down.
    // Signed because a thread may free bytes another thread allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
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

/// Pass-through allocator that counts every `alloc`/`realloc` call and
/// tracks this thread's live heap bytes.
pub struct CountingAlloc;

// SAFETY: defers every operation to the std `System` allocator; the counter
// updates touch only an atomic and const-initialised thread-locals, and have
// no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller also guarantees `new_size`
        // is valid for `layout.align()`.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            track(new_size as i64 - layout.size() as i64);
        }
        out
    }
}

/// Heap allocations made so far by this process (0 unless a binary
/// registered [`CountingAlloc`] as its global allocator).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation count delta around a closure.
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
