//! # obs — the runtime measures itself
//!
//! A hand-rolled, vendor-policy-compatible (std-only, zero deps)
//! lock-free observability layer:
//!
//! * [`Counter`] / [`Gauge`] — cache-padded sharded atomics; one
//!   relaxed `fetch_add` on a thread-private shard per event.
//! * [`registry`] — a static registry of typed metric handles,
//!   registered once at startup (names are constants in [`names`];
//!   `lint_smr` enforces the unit-suffix scheme `bench::regression`
//!   classifies by).
//! * [`MetricsSnapshot`] — exports every registered metric in the same
//!   flat-JSON row schema `bench::regression` already parses and diffs.
//! * [`Reporter`] — samples snapshots on *scaled-step* intervals, not
//!   wall-clock, so instrumented coop/explore runs stay deterministic.
//!
//! There is no histogram type. The distribution a run most needs to
//! explain, primitive steps per operation, is a small integer, so its
//! histogram will be an exact one, added together with its first reader.
//!
//! ## Zero-cost when disabled
//!
//! Collection is off by default. Every metric operation starts with one
//! relaxed load of a global flag ([`enabled`]) and returns immediately
//! when it is clear — the same fast-path discipline the tracer and the
//! analysis layer use ("one relaxed load per primitive"). `exp_scale`
//! measures both sides: disabled instrumentation is unobservable, and
//! *enabled* instrumentation stays within 5% of metrics-off throughput
//! on the free-running coop backend at 10⁵ processes (its `metrics`
//! rows against their plain twins in `BENCH_scale.json`).

pub mod names;
pub mod registry;
pub mod report;

mod metrics;

pub use metrics::{Counter, Gauge};
pub use registry::{counter, gauge, snapshot, MetricsSnapshot, SnapshotRow};
pub use report::Reporter;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metric collection on? One relaxed load — the entire disabled-path
/// cost of every metric operation.
#[inline]
pub fn enabled() -> bool {
    // relaxed-ok: a stale read only delays noticing a toggle by one
    // event; no other memory is published or consumed through the flag.
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric collection on or off, process-wide.
pub fn set_enabled(on: bool) {
    // relaxed-ok: the flag is the only state the toggle touches;
    // counts racing a toggle are attributed to either side, both fine.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Shards per metric. A small power of two: enough that the coop
/// controller, explorer workers and thread-backend workers land on
/// different cache lines, cheap enough to sum on every read.
pub(crate) const SHARDS: usize = 8;

/// This thread's metric shard, assigned round-robin on first use.
#[inline]
pub(crate) fn shard_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            // relaxed-ok: shard assignment needs only a fresh-ish
            // number per thread; collisions are benign (shards are
            // summed, never compared).
            v = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
            s.set(v);
        }
        v
    })
}

/// Pads a shard slot to (at least) a cache line so adjacent shards of
/// one metric never false-share. Mirrors `smr::step::pad::CachePadded`
/// (obs cannot depend on smr — the dependency points the other way).
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub T);

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that toggle the process-global enabled flag.
    pub fn enabled_for_test(on: bool) -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(on);
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let a = shard_index();
        let b = shard_index();
        assert_eq!(a, b, "a thread keeps its shard");
        assert!(a < SHARDS);
    }

    #[test]
    fn toggle_round_trips() {
        let _g = testutil::enabled_for_test(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
