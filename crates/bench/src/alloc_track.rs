//! A counting global allocator for the zero-allocation gate.
//!
//! A test binary that wants heap-allocation counts registers
//! [`CountingAlloc`] as its `#[global_allocator]`; the counter is a
//! process-wide atomic so [`crate::simbench`] can read it without threading
//! state through the measured code. When no binary registers the allocator
//! the counter simply stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Pass-through allocator that counts every `alloc`/`realloc` call.
pub struct CountingAlloc;

// SAFETY: defers every operation to the std `System` allocator; the atomic
// counter update has no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
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
