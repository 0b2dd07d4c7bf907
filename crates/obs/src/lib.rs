//! # obs — the runtime measures itself
//!
//! A hand-rolled, vendor-policy-compatible (std-only, zero deps)
//! lock-free observability layer:
//!
//! * [`Counter`] / [`Gauge`] — one atomic each; one relaxed
//!   `fetch_add` per event.
//! * [`registry`] — a static registry of typed metric handles,
//!   registered once at startup (names are constants in [`names`];
//!   `lint_smr` enforces the unit-suffix scheme `bench::regression`
//!   classifies by).
//! * [`MetricsSnapshot`] — exports every registered metric in the same
//!   flat-JSON row schema `bench::regression` already parses and diffs.
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

mod metrics;

pub use metrics::{Counter, Gauge};
pub use registry::{counter, gauge, snapshot, MetricsSnapshot, SnapshotRow};

use std::sync::atomic::{AtomicBool, Ordering};

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
    fn toggle_round_trips() {
        let _g = testutil::enabled_for_test(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
