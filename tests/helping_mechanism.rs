//! Wait-freedom of `CounterRead` under adversarial scheduling
//! (Lemma III.1): a reader starved by concurrent incrementers must
//! terminate through the helping mechanism (paper lines 45–55), and the
//! helped value is still correctly linearizable (Lemma III.3).

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, ReadMachine, SharedKmultHandle};
use parking_lot::Mutex;
use smr::{Driver, OpKind, OpSpec, OpTask, Poll, ProcCtx, Runtime, StepOutcome};
use std::sync::Arc;

/// One shareable Algorithm 1 handle per process.
fn kmult_handles(counter: &Arc<KmultCounter>) -> Vec<SharedKmultHandle> {
    (0..counter.n())
        .map(|p| Arc::new(Mutex::new(counter.handle(p))))
        .collect()
}

/// `read_detailed` as a task: drives the public [`ReadMachine`] and
/// packs the outcome as `helped << 120 | value`.
struct DetailedRead {
    handle: SharedKmultHandle,
    machine: ReadMachine,
}

impl OpTask for DetailedRead {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine
            .step(&mut self.handle.lock(), ctx)
            .map(|out| u128::from(out.helped) << 120 | out.value)
    }
}

/// The precise Lemma III.3 scenario: the reader takes its helping
/// snapshot (c = n, paper lines 46–48), is then suspended while a fresh
/// writer announces **two** switches entirely within the read's window,
/// and on resumption the c = 2n scan observes `sn − snapshot ≥ 2` and
/// returns via the helping branch (lines 50–55).
///
/// The schedule is fully deterministic: with k = 2 and n = 3, the
/// reader's first 6 steps are 3 switch reads (reaching c = 3) plus the
/// 3-read snapshot scan; it parks exactly before its 7th primitive.
#[test]
fn starved_reader_completes_via_helping() {
    let n = 3; // pid 0 = prefix writer, pid 1 = perturbing writer, pid 2 = reader
    let k = 2;
    let counter = KmultCounter::new(n, k);
    let handles = kmult_handles(&counter);
    let mut d = Driver::coop(Runtime::coop(n));

    // Phase 1: writer 0 sets a long switch prefix (100 increments set
    // switches 0..=9 for k = 2), so the reader's cursor has material.
    d.submit_task(
        0,
        OpSpec::inc_by(100),
        KmultIncTask::batched(handles[0].clone(), 100),
    );
    d.run_solo(0);

    // Phase 2: the reader takes exactly 6 steps — c = 1, 2, 3 switch
    // reads, then the 3-step helping snapshot of H[0..3] — and parks.
    d.submit_task(
        2,
        OpSpec::read(),
        DetailedRead {
            handle: handles[2].clone(),
            machine: ReadMachine::new(),
        },
    );
    for i in 0..6 {
        assert_eq!(d.step(2), StepOutcome::Stepped, "reader step {i}");
    }

    // Phase 3: writer 1 floods. Its announcements trail the frontier
    // (every attempt hits already-set switches first) but it eventually
    // wins two fresh switches, pushing H[1].sn ≥ 2 — both entirely
    // inside the reader's window.
    d.submit_task(
        1,
        OpSpec::inc_by(100_000),
        KmultIncTask::batched(handles[1].clone(), 100_000),
    );
    d.run_solo(1);

    // Phase 4: resume the reader; by its c = 2n scan it must observe the
    // sn growth and return through the helping branch.
    d.run_solo(2);

    let rec = d
        .history()
        .ops()
        .iter()
        .find(|r| matches!(r.kind, OpKind::Read { .. }))
        .expect("read recorded")
        .clone();
    let helped = rec.returned() >> 120 != 0;
    let value = rec.returned() & ((1u128 << 120) - 1);
    assert!(
        helped,
        "the reader must have returned via the helping branch"
    );
    assert!(value > 0);
    // Lemma III.3: the helped value corresponds to a switch set during
    // the read — so it is a current value, bounded by k × all increments.
    let max_possible = u128::from(100u32 + 100_000) * u128::from(k);
    assert!(
        value <= max_possible,
        "helped value {value} exceeds {max_possible}"
    );
}

/// A reader suspended mid-read resumes correctly when rescheduled much
/// later (persistent cursor across arbitrary pauses).
#[test]
fn suspended_reader_resumes_consistently() {
    let n = 2;
    let k = 2;
    let counter = KmultCounter::new(n, k);
    let handles = kmult_handles(&counter);
    let mut d = Driver::coop(Runtime::coop(n));

    for _ in 0..200u64 {
        d.submit_task(0, OpSpec::inc(), KmultIncTask::new(handles[0].clone()));
    }
    d.submit_task(1, OpSpec::read(), KmultReadTask::new(handles[1].clone()));

    // Reader takes 2 steps, then the writer floods, then reader finishes.
    let _ = d.step(1);
    let _ = d.step(1);
    d.run_solo(0);
    d.run_solo(1);

    let read_val = d
        .history()
        .ops()
        .iter()
        .find(|r| matches!(r.kind, OpKind::Read { .. }))
        .expect("read recorded")
        .returned();
    // 200 increments completed before the read finished; the read ran
    // concurrently with all of them: any value in [0, 200·k] is sound,
    // and it must not exceed k × total.
    assert!(read_val <= 400, "read {read_val} out of range");
}

/// Wait-freedom of increments: every increment completes within a
/// bounded number of its own steps (at most k switch probes + H write).
#[test]
fn increment_steps_are_bounded() {
    let n = 4;
    let k = 3;
    let rt = Runtime::free_running(n);
    let counter = KmultCounter::new(n, k);
    let ctx = rt.ctx(0);
    let mut h = counter.handle(0);
    let mut worst = 0u64;
    for _ in 0..20_000 {
        let s0 = ctx.steps_taken();
        h.increment(&ctx);
        worst = worst.max(ctx.steps_taken() - s0);
    }
    assert!(
        worst <= k + 1,
        "an increment performed {worst} steps; bound is k probes + 1 help write"
    );
}
