//! [`OpTask`] forms of the baseline counters' operations, for the coop
//! execution backend (they run unchanged on the thread backend).
//!
//! [`CollectCounter`]'s operations are rewritten as one-primitive-per-
//! poll state machines; [`SnapshotCounter`], [`AachCounter`] and
//! [`UnboundedTreeCounter`] expose their operations as resumable
//! machines next to the objects themselves (the single transcription
//! their blocking methods drive — see `maxreg::tree`'s module docs for
//! the convention), wrapped here into owning [`OpTask`]s; the
//! lock-based [`LockCounter`] oracle applies no primitives at all, so
//! its task forms are [`ImmediateOp`] adapters completing on the priming
//! poll.

use crate::aach::{AachCounter, AachIncMachine, AachReadMachine};
use crate::collect::CollectCounter;
use crate::reference::LockCounter;
use crate::snapshot::{SnapshotCounter, SnapshotIncMachine, SnapshotReadMachine};
use crate::spec::Counter;
use crate::unbounded_tree::{
    UnboundedTreeCounter, UnboundedTreeIncMachine, UnboundedTreeReadMachine,
};
use smr::{ImmediateOp, OpTask, Poll, ProcCtx};
use std::sync::Arc;

/// `CollectCounter::increment` as a resumable task: read the invoking
/// process's cell, then write it back incremented — two primitives.
pub struct CollectIncTask {
    counter: Arc<CollectCounter>,
    /// `None` until primed; then the value read from the own cell.
    read: Option<u64>,
    primed: bool,
}

impl CollectIncTask {
    /// An increment against `counter`.
    pub fn new(counter: Arc<CollectCounter>) -> Self {
        CollectIncTask {
            counter,
            read: None,
            primed: false,
        }
    }
}

impl OpTask for CollectIncTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        let cell = self.counter.cell(ctx.pid());
        match self.read {
            None => {
                self.read = Some(cell.read(ctx));
                Poll::Pending
            }
            Some(v) => {
                cell.write(ctx, v + 1);
                Poll::Ready(0)
            }
        }
    }
}

/// `CollectCounter::read` as a resumable task: collect the `n` cells,
/// one primitive per poll, resolving to their sum.
pub struct CollectReadTask {
    counter: Arc<CollectCounter>,
    next: usize,
    sum: u128,
    primed: bool,
}

impl CollectReadTask {
    /// A read against `counter`.
    pub fn new(counter: Arc<CollectCounter>) -> Self {
        CollectReadTask {
            counter,
            next: 0,
            sum: 0,
            primed: false,
        }
    }
}

impl OpTask for CollectReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        self.sum += u128::from(self.counter.cell(self.next).read(ctx));
        self.next += 1;
        if self.next == self.counter.n() {
            Poll::Ready(self.sum)
        } else {
            Poll::Pending
        }
    }
}

/// `SnapshotCounter::increment` as a resumable task: read the own
/// component, then the embedded Afek-et-al. update (scan + own read +
/// own write).
pub struct SnapshotIncTask {
    counter: Arc<SnapshotCounter>,
    machine: SnapshotIncMachine,
}

impl SnapshotIncTask {
    /// An increment against `counter`.
    pub fn new(counter: Arc<SnapshotCounter>) -> Self {
        let machine = SnapshotIncMachine::new(&counter);
        SnapshotIncTask { counter, machine }
    }
}

impl OpTask for SnapshotIncTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.counter, ctx).map(|()| 0)
    }
}

/// `SnapshotCounter::read` as a resumable task: a full atomic scan, one
/// segment read per poll, resolving to the summed view.
pub struct SnapshotReadTask {
    counter: Arc<SnapshotCounter>,
    machine: SnapshotReadMachine,
}

impl SnapshotReadTask {
    /// A read against `counter`.
    pub fn new(counter: Arc<SnapshotCounter>) -> Self {
        let machine = SnapshotReadMachine::new(&counter);
        SnapshotReadTask { counter, machine }
    }
}

impl OpTask for SnapshotReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.counter, ctx)
    }
}

/// `AachCounter::increment` as a resumable task (the monotone-circuit
/// ascent, one primitive per poll).
pub struct AachIncTask {
    counter: Arc<AachCounter>,
    machine: AachIncMachine,
}

impl AachIncTask {
    /// An increment against `counter` on behalf of process `pid` (the
    /// pid the task will be submitted to).
    pub fn new(counter: Arc<AachCounter>, pid: usize) -> Self {
        let machine = AachIncMachine::new(&counter, pid);
        AachIncTask { counter, machine }
    }
}

impl OpTask for AachIncTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.counter, ctx).map(|()| 0)
    }
}

/// `AachCounter::read` as a resumable task (the root max register).
pub struct AachReadTask {
    counter: Arc<AachCounter>,
    machine: AachReadMachine,
}

impl AachReadTask {
    /// A read against `counter`.
    pub fn new(counter: Arc<AachCounter>) -> Self {
        let machine = AachReadMachine::new(&counter);
        AachReadTask { counter, machine }
    }
}

impl OpTask for AachReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.counter, ctx)
    }
}

/// `UnboundedTreeCounter::increment` as a resumable task.
pub struct UnboundedTreeIncTask {
    counter: Arc<UnboundedTreeCounter>,
    machine: UnboundedTreeIncMachine,
}

impl UnboundedTreeIncTask {
    /// An increment against `counter` on behalf of process `pid` (the
    /// pid the task will be submitted to).
    pub fn new(counter: Arc<UnboundedTreeCounter>, pid: usize) -> Self {
        let machine = UnboundedTreeIncMachine::new(&counter, pid);
        UnboundedTreeIncTask { counter, machine }
    }
}

impl OpTask for UnboundedTreeIncTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.counter, ctx).map(|()| 0)
    }
}

/// `UnboundedTreeCounter::read` as a resumable task.
pub struct UnboundedTreeReadTask {
    counter: Arc<UnboundedTreeCounter>,
    machine: UnboundedTreeReadMachine,
}

impl UnboundedTreeReadTask {
    /// A read against `counter`.
    pub fn new(counter: Arc<UnboundedTreeCounter>) -> Self {
        let machine = UnboundedTreeReadMachine::new(&counter);
        UnboundedTreeReadTask { counter, machine }
    }
}

impl OpTask for UnboundedTreeReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.counter, ctx)
    }
}

/// `LockCounter::increment` as a task (zero primitives: completes on the
/// priming poll, like the closure form completes without grants).
pub fn lock_inc_task(oracle: Arc<LockCounter>) -> impl OpTask {
    ImmediateOp::new(move |ctx| {
        oracle.increment(ctx);
        0
    })
}

/// `LockCounter::read` as a task (zero primitives).
pub fn lock_read_task(oracle: Arc<LockCounter>) -> impl OpTask {
    ImmediateOp::new(move |ctx| oracle.read(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::Runtime;

    fn run<T: OpTask>(mut t: T, ctx: &ProcCtx) -> u128 {
        loop {
            if let Poll::Ready(v) = t.poll(ctx) {
                return v;
            }
        }
    }

    #[test]
    fn collect_tasks_match_blocking_costs_and_values() {
        let n = 5;
        let rt = Runtime::free_running(n);
        let c = Arc::new(CollectCounter::new(n));
        for pid in 0..n {
            let ctx = rt.ctx(pid);
            let s0 = ctx.steps_taken();
            let _ = run(CollectIncTask::new(c.clone()), &ctx);
            assert_eq!(ctx.steps_taken() - s0, 2, "increment: 2 primitives");
        }
        let ctx = rt.ctx(0);
        let s0 = ctx.steps_taken();
        let sum = run(CollectReadTask::new(c.clone()), &ctx);
        assert_eq!(ctx.steps_taken() - s0, n as u64, "read: n primitives");
        assert_eq!(sum, n as u128);
        assert_eq!(c.read(&ctx), n as u128, "blocking read agrees");
    }

    #[test]
    fn oracle_tasks_apply_no_primitives() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let oracle = Arc::new(LockCounter::new());
        let _ = run(lock_inc_task(oracle.clone()), &ctx);
        assert_eq!(run(lock_read_task(oracle), &ctx), 1);
        assert_eq!(ctx.steps_taken(), 0);
    }

    fn run_boxed(mut t: Box<dyn OpTask>, ctx: &ProcCtx) -> u128 {
        loop {
            if let Poll::Ready(v) = t.poll(ctx) {
                return v;
            }
        }
    }

    /// Drive the same sequential inc/read mix through the blocking form
    /// (counter `a`) and the task form (counter `b`), asserting values
    /// and per-process primitive counts stay identical throughout.
    fn pin_task_form_to_blocking_form<C: Counter>(
        n: usize,
        rounds: u64,
        a: C,
        b: Arc<C>,
        inc_task: &dyn Fn(Arc<C>, usize) -> Box<dyn OpTask>,
        read_task: &dyn Fn(Arc<C>) -> Box<dyn OpTask>,
    ) {
        let rt_a = Runtime::free_running(n);
        let rt_b = Runtime::free_running(n);
        for round in 0..rounds {
            let pid = (round % n as u64) as usize;
            let (ctx_a, ctx_b) = (rt_a.ctx(pid), rt_b.ctx(pid));
            a.increment(&ctx_a);
            let _ = run_boxed(inc_task(b.clone(), pid), &ctx_b);
            if round % 3 == 0 {
                let va = a.read(&ctx_a);
                let vb = run_boxed(read_task(b.clone()), &ctx_b);
                assert_eq!(va, vb, "round {round}: values diverged");
            }
            assert_eq!(
                rt_a.steps_of(pid),
                rt_b.steps_of(pid),
                "round {round}: primitive counts diverged"
            );
        }
    }

    #[test]
    fn snapshot_tasks_match_blocking_forms() {
        for n in [1usize, 2, 5] {
            pin_task_form_to_blocking_form(
                n,
                30,
                SnapshotCounter::new(n),
                Arc::new(SnapshotCounter::new(n)),
                &|c, _pid| Box::new(SnapshotIncTask::new(c)),
                &|c| Box::new(SnapshotReadTask::new(c)),
            );
        }
    }

    #[test]
    fn aach_tasks_match_blocking_forms() {
        for n in [1usize, 2, 3, 8] {
            pin_task_form_to_blocking_form(
                n,
                40,
                AachCounter::new(n, 1 << 16),
                Arc::new(AachCounter::new(n, 1 << 16)),
                &|c, pid| Box::new(AachIncTask::new(c, pid)),
                &|c| Box::new(AachReadTask::new(c)),
            );
        }
    }

    #[test]
    fn unbounded_tree_tasks_match_blocking_forms() {
        for n in [1usize, 2, 3, 6] {
            pin_task_form_to_blocking_form(
                n,
                40,
                UnboundedTreeCounter::new(n),
                Arc::new(UnboundedTreeCounter::new(n)),
                &|c, pid| Box::new(UnboundedTreeIncTask::new(c, pid)),
                &|c| Box::new(UnboundedTreeReadTask::new(c)),
            );
        }
    }
}
