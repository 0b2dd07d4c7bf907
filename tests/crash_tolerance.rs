//! Crash-failure tolerance: the model's processes are crash-prone, and
//! wait-freedom means every *surviving* process completes its operations
//! regardless of where others stopped. These tests crash processes at
//! adversarially chosen points (mid-operation, holding "fresh" switches,
//! mid-announcement) and check that survivors stay live **and** that the
//! surviving history remains k-accurate.

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::monotone::check_counter;
use lincheck::CounterHistory;
use parking_lot::Mutex;
use smr::sched::SeededRandom;
use smr::{Driver, ImmediateOp, OpSpec, Runtime, StepOutcome};
use std::sync::Arc;

/// One shareable Algorithm 1 handle per process.
fn kmult_handles(counter: &Arc<KmultCounter>) -> Vec<SharedKmultHandle> {
    (0..counter.n())
        .map(|p| Arc::new(Mutex::new(counter.handle(p))))
        .collect()
}

#[test]
fn survivors_complete_after_mid_increment_crash() {
    let n = 3;
    let k = 4;
    let counter = KmultCounter::new(n, k);
    let handles = kmult_handles(&counter);
    let mut d = Driver::coop(Runtime::coop(n));

    // Process 0 will crash mid-announcement: run it until it is inside
    // an increment batch that performs primitives (its 1st increment
    // attempts switch_0), take exactly one step of it, then crash it.
    // The batch is submitted with its true multiplicity, so the pending
    // record tells the checker up to 10 units may have landed.
    d.submit_task(
        0,
        OpSpec::inc_by(10),
        KmultIncTask::batched(handles[0].clone(), 10),
    );
    assert_eq!(
        d.step(0),
        StepOutcome::Stepped,
        "one primitive in, then crash"
    );
    d.crash(0);

    // Survivors run a real workload to completion.
    for (pid, h) in handles.iter().enumerate().skip(1) {
        for i in 1..=100u64 {
            let h = h.clone();
            if i % 10 == 0 {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h));
            }
        }
    }
    let mut sched = SeededRandom::new(1234);
    d.run_schedule(&mut sched);
    assert_eq!(d.completed_of(1), 100, "survivor 1 completed everything");
    assert_eq!(d.completed_of(2), 100, "survivor 2 completed everything");

    // The recorded history must still be k-accurate. The crashed
    // process's partially applied test&set, if any, belongs to an
    // increment the driver surfaces as a pending record (resp = None) —
    // legal to linearize or drop, so the checker's B-window widens to
    // tolerate the extra set switch a survivor's read may have observed.
    let h = CounterHistory::from_records(d.history()).expect("typed counter history");
    check_counter(&h, k).unwrap_or_else(|v| panic!("post-crash history: {v}"));
}

#[test]
fn reader_crash_does_not_block_writers() {
    let n = 2;
    let counter = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(Runtime::coop(n));

    // Reader starts a read and crashes after one collect step.
    d.submit_task(1, OpSpec::read(), CollectReadTask::new(counter.clone()));
    assert_eq!(d.step(1), StepOutcome::Stepped);
    d.crash(1);

    // Writer proceeds unimpeded (wait-freedom is per-process).
    for _ in 0..50 {
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(counter.clone()));
    }
    d.run_solo(0);
    assert_eq!(d.completed_of(0), 50);
}

#[test]
fn crashed_process_cannot_be_scheduled() {
    let mut d = Driver::coop(Runtime::coop(2));
    d.submit_task(0, OpSpec::custom("noop", 0), ImmediateOp::new(|_| 0));
    d.crash(0);
    assert!(d.is_crashed(0));
    assert!(!d.active_pids().contains(&0));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.step(0)));
    assert!(result.is_err(), "stepping a crashed process must panic");
}

#[test]
fn half_the_processes_crash_mid_announcement() {
    // n = 6, crash 3 processes each right after their first primitive;
    // the rest finish and stay accurate (k = n keeps the raw spec valid
    // through the startup window).
    let n = 6;
    let k = 6;
    let counter = KmultCounter::new(n, k);
    let handles = kmult_handles(&counter);
    let mut d = Driver::coop(Runtime::coop(n));

    for (pid, h) in handles.iter().enumerate() {
        for i in 1..=60u64 {
            let h = h.clone();
            if i % 12 == 0 {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h));
            }
        }
    }
    for pid in 0..3 {
        let _ = d.step(pid); // one primitive each …
        d.crash(pid); // … then gone
    }
    let mut sched = SeededRandom::new(777);
    d.run_schedule(&mut sched);
    for pid in 3..n {
        assert_eq!(d.completed_of(pid), 60, "survivor {pid}");
    }
    let h = CounterHistory::from_records(d.history()).expect("typed counter history");
    check_counter(&h, k).unwrap_or_else(|v| panic!("post-crash history: {v}"));
}
