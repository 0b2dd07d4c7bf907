//! Live history snapshots: `Driver::history_snapshot()` must surface
//! the in-flight operation of a process the adversary *suspended* —
//! never crashed, never rescheduled — as a pending record, so checkers
//! see the same optional-effect semantics as for crashes. This is the
//! checker-completeness hole the ROADMAP called out: before snapshots,
//! such an operation was invisible to `Driver::history()` even though
//! its partial effects were already observable in shared memory.

mod common;

use common::BatchedInc;
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::monotone::check_counter;
use lincheck::CounterHistory;
use smr::{Driver, OpKind, OpSpec, Runtime, StepOutcome};
use std::sync::Arc;

/// The motivating scenario: a suspended increment batch has landed one
/// of its two units; a reader observes it. Without the pending record
/// the history is *not* linearizable (a read of 1 with zero recorded
/// increments); with the snapshot it is.
#[test]
fn suspended_ops_effects_are_checkable_only_via_snapshot() {
    let n = 2;
    let c = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(Runtime::coop(n));

    // pid 0: a batch of two increments = four primitives on the collect
    // counter (read cell, write cell, twice). Two steps land exactly the
    // first unit, then the process is suspended — not crashed — and
    // never scheduled again.
    d.submit_task(0, OpSpec::inc_by(2), BatchedInc::new(c.clone(), 2));
    assert_eq!(d.step(0), StepOutcome::Stepped);
    assert_eq!(d.step(0), StepOutcome::Stepped);

    // pid 1 reads and sees the landed unit.
    d.submit_task(1, OpSpec::read(), CollectReadTask::new(c.clone()));
    d.run_solo(1);
    let read_val = d.history().ops().last().expect("read recorded").returned();
    assert_eq!(read_val, 1, "the suspended batch's first unit is visible");

    // Plain history: the suspended batch is invisible, so the read is a
    // spec violation — one observed increment, none recorded.
    let incomplete = CounterHistory::from_records(d.history()).expect("typed counter history");
    assert!(
        check_counter(&incomplete, 1).is_err(),
        "without the pending record the history cannot linearize"
    );

    // Snapshot: the in-flight batch appears as a pending record with its
    // full multiplicity, and the history linearizes.
    let snap = d.history_snapshot();
    let pending: Vec<_> = snap.ops().iter().filter(|r| r.resp.is_none()).collect();
    assert_eq!(pending.len(), 1, "exactly the suspended batch");
    assert_eq!(pending[0].pid, 0);
    assert_eq!(pending[0].kind, OpKind::Inc { amount: 2 });
    assert_eq!(pending[0].steps, 2, "two primitives performed so far");
    let complete = CounterHistory::from_records(&snap).expect("typed counter history");
    check_counter(&complete, 1).unwrap_or_else(|v| panic!("snapshot history: {v}"));
}

/// Snapshots are a deterministic cut: repeated calls with no grants in
/// between return identical histories, and they do not perturb the
/// execution (the suspended op still completes normally afterwards).
#[test]
fn snapshots_are_repeatable_and_non_destructive() {
    let n = 3;
    let c = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(Runtime::coop(n));

    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
    }
    // Everyone takes one step of their two-step increment: three
    // suspended processes at once.
    for pid in 0..n {
        assert_eq!(d.step(pid), StepOutcome::Stepped);
    }
    let a = d.history_snapshot();
    let b = d.history_snapshot();
    assert_eq!(a.ops(), b.ops(), "same cut, same records");
    assert_eq!(a.len(), n, "one pending record per suspended process");
    assert!(a.ops().iter().all(|r| r.resp.is_none()));

    // Resume everyone; the final history completes all three and a
    // fresh snapshot carries no pending residue.
    for pid in 0..n {
        d.run_solo(pid);
    }
    assert_eq!(d.history().len(), n);
    let done = d.history_snapshot();
    assert_eq!(done.len(), n);
    assert!(done.ops().iter().all(|r| r.resp.is_some()));
    assert_eq!(done.pending().len(), 0);
}

/// Mixed cut: one crashed process (already pending in `history()`), one
/// suspended process (pending only in the snapshot), survivors
/// completed — the snapshot must contain all three classes exactly
/// once, and the whole cut must linearize.
#[test]
fn snapshot_combines_crashed_suspended_and_completed() {
    let n = 3;
    let c = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(Runtime::coop(n));

    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
    }
    d.submit_task(2, OpSpec::read(), CollectReadTask::new(c.clone()));

    // pid 0 crashes mid-increment; pid 1 is suspended mid-increment;
    // pid 2 completes everything.
    assert_eq!(d.step(0), StepOutcome::Stepped);
    d.crash(0);
    assert_eq!(d.step(1), StepOutcome::Stepped);
    d.run_solo(2);

    let snap = d.history_snapshot();
    assert_eq!(snap.len(), 4, "crashed + suspended + inc + read");
    assert_eq!(snap.pending().len(), 2);
    let complete = CounterHistory::from_records(&snap).expect("typed counter history");
    check_counter(&complete, 1).unwrap_or_else(|v| panic!("mixed cut: {v}"));
}
