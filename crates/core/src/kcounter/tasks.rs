//! [`OpTask`] forms of Algorithm 1's operations, for the coop execution
//! backend (they run unchanged on the thread backend too).
//!
//! The tasks drive the same
//! [`IncMachine`](super::IncMachine)/[`ReadMachine`] resume-point
//! transcriptions that the blocking `increment`/`read_detailed` methods
//! loop over, so both submission forms apply byte-identical primitive
//! sequences (pinned by `task_forms_match_blocking_forms` below).
//!
//! A process's persistent local variables live in its
//! [`KmultCounterHandle`]; successive operations of the process need it
//! one after another, so tasks share it behind an `Arc<Mutex<_>>` (the
//! same idiom the closure-based tests use). The lock is uncontended by
//! construction — a process runs one operation at a time.

use super::handle::{FlushMachine, ReadMachine};
use super::KmultCounterHandle;
use parking_lot::Mutex;
use smr::{OpTask, Poll, ProcCtx};
use std::sync::Arc;

/// A shareable handle, as tasks need it. One per process.
pub type SharedKmultHandle = Arc<Mutex<KmultCounterHandle>>;

/// `CounterIncrement()` × `amount`, as a resumable task. Submit with
/// [`OpSpec::inc_by`](smr::OpSpec::inc_by) carrying the same `amount` so
/// the recorded multiplicity matches.
pub struct KmultIncTask {
    handle: SharedKmultHandle,
    machine: FlushMachine,
}

impl KmultIncTask {
    /// A single increment.
    pub fn new(handle: SharedKmultHandle) -> Self {
        Self::batched(handle, 1)
    }

    /// A batch of `amount` increments submitted as one operation,
    /// driving the same [`FlushMachine`] transcription the batching
    /// handles use.
    ///
    /// # Panics
    /// Panics if `amount == 0`.
    pub fn batched(handle: SharedKmultHandle, amount: u64) -> Self {
        assert!(amount > 0, "a batch needs at least one increment");
        KmultIncTask {
            handle,
            machine: FlushMachine::with_amount(amount),
        }
    }
}

impl OpTask for KmultIncTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        let mut h = self.handle.lock();
        self.machine.step(&mut h, ctx).map(|()| 0)
    }
}

/// `CounterRead()`, as a resumable task; resolves to the approximate
/// counter value.
pub struct KmultReadTask {
    handle: SharedKmultHandle,
    machine: ReadMachine,
}

impl KmultReadTask {
    /// A read through `handle`.
    pub fn new(handle: SharedKmultHandle) -> Self {
        KmultReadTask {
            handle,
            machine: ReadMachine::new(),
        }
    }
}

impl OpTask for KmultReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        let mut h = self.handle.lock();
        match self.machine.step(&mut h, ctx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(outcome) => Poll::Ready(outcome.value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KmultCounter;
    use smr::Runtime;

    /// Drive a task to completion on a free-running runtime, counting
    /// polls; the machine transcriptions must match the blocking forms
    /// primitive-for-primitive.
    fn run_task<T: OpTask>(mut t: T, ctx: &ProcCtx) -> u128 {
        loop {
            if let Poll::Ready(v) = t.poll(ctx) {
                return v;
            }
        }
    }

    #[test]
    fn task_forms_match_blocking_forms() {
        let n = 1;
        for k in [2u64, 3, 5] {
            // Blocking reference run.
            let rt_a = Runtime::free_running(n);
            let ctx_a = rt_a.ctx(0);
            let c_a = KmultCounter::new(n, k);
            let mut h_a = c_a.handle(0);
            // Task run.
            let rt_b = Runtime::free_running(n);
            let ctx_b = rt_b.ctx(0);
            let c_b = KmultCounter::new(n, k);
            let h_b: SharedKmultHandle = Arc::new(Mutex::new(c_b.handle(0)));

            for round in 1..=200u64 {
                h_a.increment(&ctx_a);
                let _ = run_task(KmultIncTask::new(h_b.clone()), &ctx_b);
                if round % 7 == 0 {
                    let va = h_a.read(&ctx_a);
                    let vb = run_task(KmultReadTask::new(h_b.clone()), &ctx_b);
                    assert_eq!(va, vb, "k={k} round={round}");
                }
            }
            assert_eq!(
                rt_a.steps_of(0),
                rt_b.steps_of(0),
                "k={k}: primitive counts diverged between forms"
            );
        }
    }

    #[test]
    fn batched_task_equals_repeated_increments() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let c = KmultCounter::new(1, 2);
        let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(0)));
        let _ = run_task(KmultIncTask::batched(h.clone(), 9), &ctx);
        let v = run_task(KmultReadTask::new(h), &ctx);
        assert_eq!(v, 18, "same trace as 9 single increments at k=2");
    }
}
