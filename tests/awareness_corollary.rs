//! Corollary III.10.1 as an assertion: after a gated execution in which
//! every process performs one `CounterIncrement` followed by one
//! `CounterRead` on a k-multiplicative-accurate counter, at least `n/2`
//! processes are aware (Definition III.2/III.3) of at least `n/2k²`
//! processes.
//!
//! Awareness is computed operationally from the recorded primitive trace
//! by `perturb::awareness`; the executions are deterministic (gated
//! round-robin), so these are exact checks, not statistical ones.

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use parking_lot::Mutex;
use perturb::awareness;
use smr::sched::{RoundRobin, SeededRandom};
use smr::{Driver, OpSpec, Runtime};
use std::sync::Arc;

fn run_one_inc_one_read_collect(n: usize, seed: Option<u64>) -> awareness::AwarenessReport {
    let rt = Runtime::coop(n);
    rt.enable_tracing();
    let counter = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(rt.clone());
    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
    }
    match seed {
        None => {
            d.run_schedule(&mut RoundRobin::new());
        }
        Some(s) => {
            d.run_schedule(&mut SeededRandom::new(s));
        }
    }
    rt.disable_tracing();
    awareness::compute(n, &rt.take_trace())
}

#[test]
fn corollary_holds_for_exact_counter_any_k() {
    // An exact counter is a k-multiplicative counter for every k; check
    // the corollary's threshold for k = 2 across schedules.
    let k = 2u64;
    for n in [8usize, 16, 32] {
        for seed in [None, Some(5u64), Some(99)] {
            let report = run_one_inc_one_read_collect(n, seed);
            let threshold = (n as u64).div_ceil(2 * k * k) as usize;
            let qualifying = report.processes_aware_of_at_least(threshold);
            assert!(
                qualifying >= n / 2,
                "n={n} seed={seed:?}: only {qualifying} processes aware of ≥ {threshold}"
            );
        }
    }
}

#[test]
fn corollary_holds_for_kmult_counter_at_legal_k() {
    let n = 16usize;
    let k = 4u64; // ⌈√16⌉
    let rt = Runtime::coop(n);
    rt.enable_tracing();
    let counter = KmultCounter::new(n, k);
    let mut d = Driver::coop(rt.clone());
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(counter.handle(pid)));
        d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
        d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h));
    }
    d.run_schedule(&mut RoundRobin::new());
    rt.disable_tracing();
    let report = awareness::compute(n, &rt.take_trace());

    let threshold = (n as u64).div_ceil(2 * k * k) as usize; // = 1
    assert!(
        report.processes_aware_of_at_least(threshold) >= n / 2,
        "sizes: {:?}",
        report.sizes()
    );
}

#[test]
fn awareness_grows_with_information_flow() {
    // Structural sanity: with the collect counter, a reader collects all
    // cells, so any process that read after all increments is aware of
    // every incrementer — its awareness set is maximal.
    let n = 8;
    let report = run_one_inc_one_read_collect(n, None);
    let sizes = report.sizes();
    assert!(
        sizes.iter().any(|&s| s >= n / 2),
        "someone must have learned a lot: {sizes:?}"
    );
    // And everyone is at least self-aware.
    assert!(sizes.iter().all(|&s| s >= 1));
}
