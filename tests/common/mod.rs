//! The counting global allocator behind the allocation-meter tests.
//!
//! libtest runs each test on a worker thread while its own threads keep
//! allocating, so a process-wide counter picks up bytes from outside the
//! measured section. This meter counts per thread instead: every measured
//! section runs on one thread and reads only that thread's counts, so the
//! tests need no lock between them.

// Each test binary uses a different subset of the meter.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Global allocator wrapper counting the bytes and allocations each thread
/// requests.
pub struct CountingAlloc;

thread_local! {
    // `const` initialisers without destructors: reading or bumping them
    // never allocates and never fails, even while a thread shuts down.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread has allocated so far.
pub fn allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
