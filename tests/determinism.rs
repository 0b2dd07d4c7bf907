//! Determinism guarantees of gated coop runs: identical submissions
//! under identical schedules reproduce identical shared-memory
//! executions, histories and traces — the property the perturbation
//! builder and every scripted experiment rely on (DESIGN.md §5).

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask, Counter};
use parking_lot::Mutex;
use smr::sched::SeededRandom;
use smr::{AccessKind, Driver, OpKind, OpSpec, Runtime};
use std::sync::Arc;

/// A run signature: (per-op return values in submission order, per-pid
/// step counts, primitive applications as (pid, kind) pairs — object
/// addresses vary run to run, so they are excluded).
type Signature = (Vec<u128>, Vec<u64>, Vec<(usize, AccessKind)>);

fn kmult_run(seed: u64) -> Signature {
    let n = 4;
    let rt = Runtime::coop(n);
    rt.enable_tracing();
    let counter = KmultCounter::new(n, 3);
    let mut d = Driver::coop(rt.clone());
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(counter.handle(pid)));
        for i in 1..=60u64 {
            if i % 6 == 0 {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(seed));
    rt.disable_tracing();

    let mut rets: Vec<(usize, u64, u128)> = d
        .history()
        .ops()
        .iter()
        .map(|r| (r.pid, r.inv, r.returned()))
        .collect();
    rets.sort();
    let values = rets.into_iter().map(|(_, _, v)| v).collect();
    let steps = (0..n).map(|p| rt.steps_of(p)).collect();
    let trace = smr::accesses(&rt.take_trace())
        .into_iter()
        .map(|a| (a.pid, a.kind))
        .collect();
    (values, steps, trace)
}

#[test]
fn identical_seeds_reproduce_identical_executions() {
    for seed in [0u64, 42, 0xFEED] {
        let a = kmult_run(seed);
        let b = kmult_run(seed);
        assert_eq!(a.1, b.1, "seed {seed}: step counts diverged");
        assert_eq!(a.0, b.0, "seed {seed}: op results diverged");
        assert_eq!(a.2, b.2, "seed {seed}: traces diverged");
    }
}

#[test]
fn different_seeds_usually_differ() {
    // Not a guarantee, but with 4 processes × 240 ops the interleavings
    // should differ somewhere; if not, the driver is ignoring the schedule.
    let a = kmult_run(1);
    let b = kmult_run(2);
    assert!(
        a.0 != b.0 || a.2 != b.2,
        "two different schedules produced byte-identical executions"
    );
}

#[test]
fn op_records_carry_exact_step_counts() {
    // The per-op `steps` field must sum to the runtime's total.
    let n = 3;
    let rt = Runtime::coop(n);
    let counter = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(rt.clone());
    for pid in 0..n {
        for i in 1..=20u64 {
            if i % 4 == 0 {
                d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(7));
    let history_steps = d.history().total_steps();
    assert_eq!(history_steps, rt.total_steps());
    // Collect counter: increments cost exactly 2, reads exactly n.
    for op in d.history().ops() {
        match op.kind {
            OpKind::Inc { .. } => assert_eq!(op.steps, 2),
            OpKind::Read { .. } => assert_eq!(op.steps, n as u64),
            other => panic!("unexpected operation {other:?}"),
        }
    }
}

#[test]
fn tickets_order_histories_consistently() {
    // inv < resp for every op, and per-process ops are disjoint in time
    // (a process runs one op at a time).
    let n = 4;
    let rt = Runtime::free_running(n);
    let counter = Arc::new(CollectCounter::new(n));
    let mut d = Driver::new(rt);
    for pid in 0..n {
        for _ in 0..50u64 {
            let c = Arc::clone(&counter);
            d.submit(pid, OpSpec::inc(), move |ctx| {
                c.increment(ctx);
                0
            });
        }
    }
    d.wait_all();
    let mut per_pid: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for op in d.history().ops() {
        let resp = op.resp.expect("completed");
        assert!(op.inv < resp, "inv must precede resp");
        per_pid[op.pid].push((op.inv, resp));
    }
    for (pid, mut windows) in per_pid.into_iter().enumerate() {
        windows.sort();
        for pair in windows.windows(2) {
            assert!(
                pair[0].1 < pair[1].0,
                "pid {pid}: operations overlap: {pair:?}"
            );
        }
    }
}
