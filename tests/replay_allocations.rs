//! What an explorer replay costs the global allocator.
//!
//! `smr::explore` builds, runs, checks and drops one coop program per
//! replay, so allocation calls per replay are a large part of what a
//! walk costs. This suite walks the two program shapes `perfbench`'s
//! `explore_dpor` walks, at 3 processes instead of 4, under default
//! DPOR with every cut checked by `check_counter_records`, and pins the
//! mean allocation calls (`alloc` plus `realloc`) per checked cut as an
//! upper bound.
//!
//! The counting allocator counts on a thread-local, so allocations made
//! by other tests running concurrently in this binary do not reach the
//! count: the walk runs entirely on the calling thread.

use bench::programs;
use lincheck::check_counter_records;
use smr::explore::{explore, ExploreConfig};
use smr::{CoopBackend, Driver, History};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made on this thread so far.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// The system allocator, counting `alloc` and `realloc` calls per
/// thread (`alloc_zeroed` defaults to `alloc`).
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

/// A program factory and its checker's accuracy parameter `k`.
type Program = (fn() -> Driver<CoopBackend>, u64);

/// Walk both programs: `(cuts, replays, allocation calls)`.
fn walk() -> (u64, u64, u64) {
    // perfbench's collect program (incrementers × 2 increments and a
    // reader issuing 2 collects) and its Algorithm 1 program (an
    // increment then a read per process, at k = 3).
    let walks: [Program; 2] = [
        (|| programs::collect(2, 2, 2), 1),
        (|| programs::kmult(3, 3, 1, true), 3),
    ];
    let (mut cuts, mut replays, mut allocs) = (0, 0, 0);
    for (factory, k) in walks {
        let before = calls();
        let stats = explore(&ExploreConfig::default(), factory, |h: &History| {
            check_counter_records(h, k)
        });
        allocs += calls() - before;
        assert!(stats.all_ok(), "violations: {:?}", stats.violations);
        assert!(!stats.capped);
        cuts += stats.interleavings;
        replays += stats.replays;
    }
    (cuts, replays, allocs)
}

#[test]
fn a_checked_cut_averages_at_most_21_80_allocation_calls() {
    // The first walk registers the metrics the walk touches, once per
    // process; only the second is counted.
    let first = walk();
    let (cuts, replays, allocs) = walk();
    assert_eq!(
        (cuts, replays),
        (first.0, first.1),
        "the walk is deterministic"
    );
    assert_eq!((cuts, replays), (859, 859));
    // The walk makes 18 722 calls. A replay that ends sleep-blocked
    // builds and steps a program but checks nothing, so the mean is
    // taken per checked cut: such replays raise it instead of diluting
    // it.
    let per_cut = allocs as f64 / cuts as f64;
    assert!(
        per_cut <= 21.80,
        "{per_cut:.2} allocation calls per checked cut ({allocs} over {cuts} cuts)"
    );
}
