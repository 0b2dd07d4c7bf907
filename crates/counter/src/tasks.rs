//! [`OpTask`] forms of the baseline counters' operations, for the coop
//! execution backend (they run unchanged on the thread backend).
//!
//! [`CollectCounter`], [`SnapshotCounter`], [`AachCounter`] and
//! [`UnboundedTreeCounter`] expose their operations as resumable
//! machines next to the objects themselves (the single transcription
//! their blocking forms drive — see `maxreg::tree`'s module docs for
//! the convention) and name them through [`MachineCounter`]. The one
//! task pair here, [`CounterIncTask`] and [`CounterReadTask`], owns an
//! `Arc` of any such counter and polls its machine; the per-counter
//! names are aliases of it. The lock-based [`LockCounter`](crate::LockCounter)
//! oracle and [`FaaCounter`](crate::FaaCounter) have no machines and no
//! task form.

use crate::aach::AachCounter;
use crate::collect::CollectCounter;
use crate::snapshot::SnapshotCounter;
use crate::spec::MachineCounter;
use crate::unbounded_tree::UnboundedTreeCounter;
use smr::{OpTask, Poll, ProcCtx};
use std::sync::Arc;

/// A counter's `increment` as a resumable [`OpTask`]: an owning wrapper
/// around its increment machine, resolving to 0.
pub struct CounterIncTask<C: MachineCounter> {
    counter: Arc<C>,
    machine: C::IncMachine,
}

impl<C: MachineCounter> CounterIncTask<C> {
    /// An increment against `counter`, on behalf of the process the
    /// task is submitted to.
    pub fn new(counter: Arc<C>) -> Self {
        let machine = counter.inc_machine();
        CounterIncTask { counter, machine }
    }
}

impl<C: MachineCounter> OpTask for CounterIncTask<C> {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.counter.step_inc(&mut self.machine, ctx).map(|()| 0)
    }
}

/// A counter's `read` as a resumable [`OpTask`]: an owning wrapper
/// around its read machine.
pub struct CounterReadTask<C: MachineCounter> {
    counter: Arc<C>,
    machine: C::ReadMachine,
}

impl<C: MachineCounter> CounterReadTask<C> {
    /// A read against `counter`.
    pub fn new(counter: Arc<C>) -> Self {
        let machine = counter.read_machine();
        CounterReadTask { counter, machine }
    }
}

impl<C: MachineCounter> OpTask for CounterReadTask<C> {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.counter.step_read(&mut self.machine, ctx)
    }
}

/// `CollectCounter::increment` as a task: read the invoking process's
/// cell, then write it back incremented — two primitives.
pub type CollectIncTask = CounterIncTask<CollectCounter>;
/// `CollectCounter::read` as a task: collect the `n` cells, one
/// primitive per poll, resolving to their sum.
pub type CollectReadTask = CounterReadTask<CollectCounter>;
/// `SnapshotCounter::increment` as a task: read the own component, then
/// the embedded Afek-et-al. update (scan + own read + own write).
pub type SnapshotIncTask = CounterIncTask<SnapshotCounter>;
/// `SnapshotCounter::read` as a task: a full atomic scan, one segment
/// read per poll, resolving to the summed view.
pub type SnapshotReadTask = CounterReadTask<SnapshotCounter>;
/// `AachCounter::increment` as a task (the monotone-circuit ascent).
pub type AachIncTask = CounterIncTask<AachCounter>;
/// `AachCounter::read` as a task (the root max register).
pub type AachReadTask = CounterReadTask<AachCounter>;
/// `UnboundedTreeCounter::increment` as a task.
pub type UnboundedTreeIncTask = CounterIncTask<UnboundedTreeCounter>;
/// `UnboundedTreeCounter::read` as a task.
pub type UnboundedTreeReadTask = CounterReadTask<UnboundedTreeCounter>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Counter;
    use crate::LockCounter;
    use smr::{ImmediateOp, Runtime};

    fn run<T: OpTask>(mut t: T, ctx: &ProcCtx) -> u128 {
        loop {
            if let Poll::Ready(v) = t.poll(ctx) {
                return v;
            }
        }
    }

    #[test]
    fn oracle_tasks_apply_no_primitives() {
        // The oracle has no machines: submitted as tasks, its
        // operations are `ImmediateOp`s over its blocking form.
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let oracle = Arc::new(LockCounter::new());
        let inc = oracle.clone();
        let _ = run(
            ImmediateOp::new(move |ctx| {
                inc.increment(ctx);
                0
            }),
            &ctx,
        );
        assert_eq!(run(ImmediateOp::new(move |ctx| oracle.read(ctx)), &ctx), 1);
        assert_eq!(ctx.steps_taken(), 0);
    }

    /// Drive the same sequential inc/read mix through the blocking form
    /// (counter `a`) and the task form (counter `b`), asserting values
    /// and per-process primitive counts stay identical throughout.
    fn pin_task_form_to_blocking_form<C: MachineCounter>(n: usize, rounds: u64, a: C, b: Arc<C>) {
        let rt_a = Runtime::free_running(n);
        let rt_b = Runtime::free_running(n);
        for round in 0..rounds {
            let pid = (round % n as u64) as usize;
            let (ctx_a, ctx_b) = (rt_a.ctx(pid), rt_b.ctx(pid));
            a.increment(&ctx_a);
            let _ = run(CounterIncTask::new(b.clone()), &ctx_b);
            if round % 3 == 0 {
                let va = a.read(&ctx_a);
                let vb = run(CounterReadTask::new(b.clone()), &ctx_b);
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
    fn collect_tasks_match_blocking_costs_and_values() {
        for n in [1usize, 2, 5] {
            let (a, b) = (CollectCounter::new(n), CollectCounter::new(n));
            pin_task_form_to_blocking_form(n, 30, a, Arc::new(b));
        }
    }

    #[test]
    fn snapshot_tasks_match_blocking_forms() {
        for n in [1usize, 2, 5] {
            let (a, b) = (SnapshotCounter::new(n), SnapshotCounter::new(n));
            pin_task_form_to_blocking_form(n, 30, a, Arc::new(b));
        }
    }

    #[test]
    fn aach_tasks_match_blocking_forms() {
        for n in [1usize, 2, 3, 8] {
            let (a, b) = (AachCounter::new(n, 1 << 16), AachCounter::new(n, 1 << 16));
            pin_task_form_to_blocking_form(n, 40, a, Arc::new(b));
        }
    }

    #[test]
    fn unbounded_tree_tasks_match_blocking_forms() {
        for n in [1usize, 2, 3, 6] {
            let (a, b) = (UnboundedTreeCounter::new(n), UnboundedTreeCounter::new(n));
            pin_task_form_to_blocking_form(n, 40, a, Arc::new(b));
        }
    }
}
