//! Cross-crate integration: concurrent counter executions checked for
//! linearizability against their (relaxed) sequential specifications.
//!
//! Every implementation runs a mixed increment/read workload through the
//! driver; the recorded history goes through `lincheck`'s monotone
//! checker. Exact counters are checked at `k = 1`; Algorithm 1 at its
//! own `k` (configs with `k ≥ n − 1`, where the raw k-multiplicative
//! spec holds from the first operation — see DESIGN.md §2, "Startup
//! window"). The exact counters' gated arms are in `gated_stress.rs`.

mod common;

use approx_objects::{KmultIncTask, KmultReadTask, SharedKmultHandle};
use common::BatchedInc;
use counter::{
    AachCounter, CollectCounter, CollectReadTask, Counter, FaaCounter, SnapshotCounter,
    UnboundedTreeCounter,
};
use lincheck::monotone::check_counter;
use lincheck::CounterHistory;
use parking_lot::Mutex;
use smr::backend::ExecBackend;
use smr::sched::SeededRandom;
use smr::{Driver, OpSpec, Runtime};
use std::sync::Arc;

/// Run a free-running mixed workload against a `Counter`, returning the
/// recorded history.
fn run_free<C: Counter + 'static>(
    c: Arc<C>,
    n: usize,
    ops: u64,
    read_every: u64,
) -> CounterHistory {
    let rt = Runtime::free_running(n);
    let mut d = Driver::new(rt);
    for pid in 0..n {
        for i in 1..=ops {
            let c = Arc::clone(&c);
            if i % read_every == 0 {
                d.submit(pid, OpSpec::read(), move |ctx| c.read(ctx));
            } else {
                d.submit(pid, OpSpec::inc(), move |ctx| {
                    c.increment(ctx);
                    0
                });
            }
        }
    }
    d.wait_all();
    CounterHistory::from_records(d.history()).expect("typed counter history")
}

#[test]
fn collect_counter_is_linearizable_free_running() {
    let h = run_free(Arc::new(CollectCounter::new(8)), 8, 200, 7);
    assert!(h.completed_incs() > 0);
    check_counter(&h, 1).unwrap_or_else(|v| panic!("collect counter: {v}"));
}

#[test]
fn snapshot_counter_is_linearizable() {
    let h = run_free(Arc::new(SnapshotCounter::new(4)), 4, 100, 6);
    check_counter(&h, 1).unwrap_or_else(|v| panic!("snapshot counter: {v}"));
}

#[test]
fn aach_counter_is_linearizable() {
    let h = run_free(Arc::new(AachCounter::new(6, 1 << 20)), 6, 150, 8);
    check_counter(&h, 1).unwrap_or_else(|v| panic!("aach counter: {v}"));
}

#[test]
fn unbounded_tree_counter_is_linearizable() {
    let h = run_free(Arc::new(UnboundedTreeCounter::new(4)), 4, 100, 8);
    check_counter(&h, 1).unwrap_or_else(|v| panic!("unbounded tree counter: {v}"));
}

#[test]
fn faa_counter_is_linearizable() {
    let h = run_free(Arc::new(FaaCounter::new()), 8, 300, 5);
    check_counter(&h, 1).unwrap_or_else(|v| panic!("faa counter: {v}"));
}

/// Batched increments: one submitted operation performs `batch` unit
/// increments and is recorded once with multiplicity `batch` — the
/// ROADMAP "operation granularity" item. The checker must weight it
/// fully: reads interleaved with the batches see every landed unit, so
/// a multiplicity-blind checker (each record counted as ±1) would
/// reject these histories outright.
#[test]
fn batched_increments_are_weighted_by_multiplicity() {
    let n = 4;
    let batch = 8u64;
    for seed in [3u64, 19] {
        let c = Arc::new(CollectCounter::new(n));
        let mut d = Driver::coop(Runtime::coop(n));
        for pid in 0..n {
            for i in 1..=12u64 {
                if i % 4 == 0 {
                    d.submit_task(pid, OpSpec::read(), CollectReadTask::new(c.clone()));
                } else {
                    d.submit_task(
                        pid,
                        OpSpec::inc_by(batch),
                        BatchedInc::new(c.clone(), batch),
                    );
                }
            }
        }
        d.run_schedule(&mut SeededRandom::new(seed));
        let h = CounterHistory::from_records(d.history()).expect("typed counter history");
        assert_eq!(
            h.completed_incs(),
            u128::from(n as u64 * 9 * batch),
            "9 batches of {batch} per process"
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

/// Algorithm 1 with `k ≥ n − 1`: the raw k-multiplicative spec holds over
/// the whole execution, including the startup window. Free-running on
/// worker threads without a seed, on gated coop under the seeded
/// schedule with one.
fn run_kmult(n: usize, k: u64, ops: u64, read_every: u64, seed: Option<u64>) -> CounterHistory {
    fn submit<B: ExecBackend>(d: &mut Driver<B>, n: usize, k: u64, ops: u64, read_every: u64) {
        let counter = approx_objects::KmultCounter::new(n, k);
        for pid in 0..n {
            let h: SharedKmultHandle = Arc::new(Mutex::new(counter.handle(pid)));
            for i in 1..=ops {
                if i % read_every == 0 {
                    d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
                } else {
                    d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
                }
            }
        }
    }
    let history = match seed {
        None => {
            let mut d = Driver::new(Runtime::free_running(n));
            submit(&mut d, n, k, ops, read_every);
            d.wait_all();
            d.take_history()
        }
        Some(s) => {
            let mut d = Driver::coop(Runtime::coop(n));
            submit(&mut d, n, k, ops, read_every);
            d.run_schedule(&mut SeededRandom::new(s));
            d.take_history()
        }
    };
    CounterHistory::from_records(&history).expect("typed counter history")
}

#[test]
fn kmult_counter_is_k_accurate_free_running() {
    for (n, k) in [(4usize, 4u64), (6, 8), (8, 8)] {
        let h = run_kmult(n, k, 400, 9, None);
        check_counter(&h, k).unwrap_or_else(|v| panic!("n={n} k={k}: {v}"));
    }
}

#[test]
fn kmult_counter_is_k_accurate_gated() {
    for seed in [5u64, 17, 99] {
        let h = run_kmult(4, 4, 80, 6, Some(seed));
        check_counter(&h, 4).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kmult_counter_would_fail_stricter_spec() {
    // Sanity check that the checker has teeth: the k = 8 counter's
    // history is generally NOT 1-accurate (exact).
    let h = run_kmult(6, 8, 600, 4, None);
    assert!(
        check_counter(&h, 1).is_err(),
        "a relaxed counter should not pass the exact spec"
    );
}
