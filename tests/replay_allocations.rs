//! What an explorer replay costs the global allocator.
//!
//! `smr::explore` builds, runs, checks and drops one coop program per
//! replay, so allocation calls per replay are a large part of what a
//! walk costs. This suite walks the two program shapes `perfbench`'s
//! `explore_dpor` walks, at 3 processes instead of 4, under default
//! DPOR with every cut checked by `check_counter_records`, and pins the
//! mean allocation calls (`alloc` plus `realloc`) per replay as an upper
//! bound.
//!
//! The counting allocator counts on a thread-local, so allocations made
//! by other tests running concurrently in this binary do not reach the
//! count: the walk runs entirely on the calling thread.

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::check_counter_records;
use parking_lot::Mutex;
use smr::explore::{explore, ExploreConfig};
use smr::{CoopBackend, Driver, History, OpSpec, Runtime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// `perfbench`'s collect program: `incrementers` processes × 2
/// increments plus a reader issuing 2 collects.
fn collect_program(incrementers: usize) -> Driver<CoopBackend> {
    let n = incrementers + 1;
    let mut d = Driver::coop(Runtime::coop(n));
    let c = Arc::new(CollectCounter::new(n));
    for pid in 0..incrementers {
        for _ in 0..2 {
            d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
        }
    }
    for _ in 0..2 {
        d.submit_task(
            incrementers,
            OpSpec::read(),
            CollectReadTask::new(c.clone()),
        );
    }
    d
}

/// `perfbench`'s Algorithm 1 program: `n` processes, each an increment
/// then a read, at k = 3.
fn kmult_program(n: usize) -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(n));
    let c = KmultCounter::new(n, 3);
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
        d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
        d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h));
    }
    d
}

/// A program factory and its checker's accuracy parameter `k`.
type Program = (fn() -> Driver<CoopBackend>, u64);

/// Walk both programs: `(cuts, replays, allocation calls)`.
fn walk() -> (u64, u64, u64) {
    let programs: [Program; 2] = [(|| collect_program(2), 1), (|| kmult_program(3), 3)];
    let (mut cuts, mut replays, mut allocs) = (0, 0, 0);
    for (factory, k) in programs {
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
fn a_replay_averages_at_most_21_34_allocation_calls() {
    // The first walk registers the metrics the walk touches, once per
    // process; only the second is counted.
    let first = walk();
    let (cuts, replays, allocs) = walk();
    assert_eq!(
        (cuts, replays),
        (first.0, first.1),
        "the walk is deterministic"
    );
    assert_eq!((cuts, replays), (859, 949));
    // The walk makes 20 248 calls. The same programs at 4 processes,
    // as `explore_dpor` walks them, average the same per replay.
    let per_replay = allocs as f64 / replays as f64;
    assert!(
        per_replay <= 21.34,
        "{per_replay:.2} allocation calls per replay ({allocs} over {replays} replays)"
    );
}
