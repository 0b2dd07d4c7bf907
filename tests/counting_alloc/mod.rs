//! The global allocator of the suites that pin what an operation costs
//! the allocator: the system allocator, counting `alloc` and `realloc`
//! calls (`alloc_zeroed` defaults to `alloc`). Declaring this module
//! installs it.
//!
//! It counts on a thread-local, so allocations made by other tests
//! running concurrently in the same binary do not reach a test's count
//! as long as the work it counts runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made on this thread so far.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls made on this thread so far.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose contract is the one `GlobalAlloc` asks of callers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
