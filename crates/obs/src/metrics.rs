//! Lock-free counters and gauges: one relaxed atomic per metric.
//!
//! Every run that turns collection on records its metrics from one
//! thread (the coop controller, the sequential explorer, the online
//! checker), and the thread backend records none, so a metric has one
//! writer and a single atomic costs that writer no contention. A write
//! is one relaxed RMW, a read one relaxed load: exact once writers are
//! at rest, which is when every reader takes its snapshot.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotone event counter.
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Count one event. No-op while collection is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events. No-op while collection is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        // relaxed-ok: a telemetry count publishes no other memory; the
        // RMW alone keeps concurrent increments from being lost.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The count (exact once writers are at rest).
    pub fn get(&self) -> u64 {
        // relaxed-ok: see `add` — a count carries no ordering.
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the count (experiment harness between configurations).
    pub fn reset(&self) {
        // relaxed-ok: reset happens at rest, between measured runs.
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A signed up/down gauge (queue depths, resident bytes).
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Move the gauge by `delta` (may be negative). No-op while
    /// collection is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        // relaxed-ok: as with Counter — a telemetry value, no ordering
        // contract.
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Shorthand for `add(-delta)`.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    /// The gauge's value (exact once writers are at rest).
    pub fn get(&self) -> i64 {
        // relaxed-ok: see `add`.
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the gauge (experiment harness between configurations).
    pub fn reset(&self) {
        // relaxed-ok: reset happens at rest, between measured runs.
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::enabled_for_test;

    #[test]
    fn counter_counts_and_resets() {
        let _g = enabled_for_test(true);
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn disabled_counter_is_a_no_op() {
        let _g = enabled_for_test(false);
        let c = Counter::new();
        c.inc();
        c.add(100);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let _g = enabled_for_test(true);
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn cross_thread_counts_sum() {
        let _g = enabled_for_test(true);
        let c = std::sync::Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
