//! [`OpTask`] forms of max-register operations, for the coop execution
//! backend (they run unchanged on the thread backend).
//!
//! Every register's operations exist once, as resumable *machines* next
//! to the register itself (see `maxreg::tree`'s module docs for the
//! convention). The one task pair here, [`MaxRegWriteTask`] and
//! [`MaxRegReadTask`], owns an `Arc` of any [`MachineMaxRegister`] and
//! polls its machine; the per-register names
//! ([`TreeMaxWriteTask`], [`AdaptiveMaxReadTask`], …) are aliases of
//! it. The lock-based oracle has no machines and no task form.

use crate::adaptive::AdaptiveMaxRegister;
use crate::spec::MachineMaxRegister;
use crate::tree::TreeMaxRegister;
use crate::unbounded::UnboundedMaxRegister;
use smr::{OpTask, Poll, ProcCtx};
use std::sync::Arc;

/// A register's `write` as a resumable [`OpTask`]: an owning wrapper
/// around its write machine.
pub struct MaxRegWriteTask<R: MachineMaxRegister> {
    reg: Arc<R>,
    machine: R::WriteMachine,
}

impl<R: MachineMaxRegister> MaxRegWriteTask<R> {
    /// A write of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    pub fn new(reg: Arc<R>, v: u64) -> Self {
        let machine = reg.write_machine(v);
        MaxRegWriteTask { reg, machine }
    }
}

impl<R: MachineMaxRegister> OpTask for MaxRegWriteTask<R> {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.reg.step_write(&mut self.machine, ctx).map(|()| 0)
    }
}

/// A register's `read` as a resumable [`OpTask`]: an owning wrapper
/// around its read machine.
pub struct MaxRegReadTask<R: MachineMaxRegister> {
    reg: Arc<R>,
    machine: R::ReadMachine,
}

impl<R: MachineMaxRegister> MaxRegReadTask<R> {
    /// A read.
    pub fn new(reg: Arc<R>) -> Self {
        let machine = reg.read_machine();
        MaxRegReadTask { reg, machine }
    }
}

impl<R: MachineMaxRegister> OpTask for MaxRegReadTask<R> {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.reg.step_read(&mut self.machine, ctx).map(u128::from)
    }
}

/// `TreeMaxRegister::write` as a task.
pub type TreeMaxWriteTask = MaxRegWriteTask<TreeMaxRegister>;
/// `TreeMaxRegister::read` as a task.
pub type TreeMaxReadTask = MaxRegReadTask<TreeMaxRegister>;
/// `AdaptiveMaxRegister::write` as a task, through the selected arm.
pub type AdaptiveMaxWriteTask = MaxRegWriteTask<AdaptiveMaxRegister>;
/// `AdaptiveMaxRegister::read` as a task, through the selected arm.
pub type AdaptiveMaxReadTask = MaxRegReadTask<AdaptiveMaxRegister>;
/// `UnboundedMaxRegister::write` as a task.
pub type UnboundedMaxWriteTask = MaxRegWriteTask<UnboundedMaxRegister>;
/// `UnboundedMaxRegister::read` as a task.
pub type UnboundedMaxReadTask = MaxRegReadTask<UnboundedMaxRegister>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MaxRegister;
    use crate::LockMaxRegister;
    use smr::{ImmediateOp, Runtime};

    fn run<T: OpTask>(mut t: T, ctx: &ProcCtx) -> u128 {
        loop {
            if let Poll::Ready(v) = t.poll(ctx) {
                return v;
            }
        }
    }

    /// Drive the same write/read sequence from pid 0 of `n` through the
    /// blocking form (register `a`) and the task form (register `b`),
    /// asserting values and primitive counts stay identical throughout.
    fn pin_task_form_to_blocking_form<R: MachineMaxRegister>(
        n: usize,
        a: R,
        b: Arc<R>,
        seq: &[u64],
    ) {
        let rt_a = Runtime::free_running(n);
        let ctx_a = rt_a.ctx(0);
        let rt_b = Runtime::free_running(n);
        let ctx_b = rt_b.ctx(0);
        for &v in seq {
            a.write(&ctx_a, v);
            let _ = run(MaxRegWriteTask::new(b.clone(), v), &ctx_b);
            let ra = u128::from(a.read(&ctx_a));
            let rb = run(MaxRegReadTask::new(b.clone()), &ctx_b);
            assert_eq!(ra, rb, "n={n}: after write {v}");
            assert_eq!(
                rt_a.steps_of(0),
                rt_b.steps_of(0),
                "n={n}: primitive counts diverged after write {v}"
            );
        }
    }

    #[test]
    fn tree_tasks_match_blocking_forms() {
        let seq = [5u64, 900, 3, 999, 42, 0, 998, 512, 997];
        let m = 1000;
        let (a, b) = (TreeMaxRegister::new(m), TreeMaxRegister::new(m));
        pin_task_form_to_blocking_form(1, a, Arc::new(b), &seq);
    }

    #[test]
    fn tree_tasks_handle_degenerate_bounds() {
        for m in [1u64, 2, 3] {
            let rt = Runtime::free_running(1);
            let ctx = rt.ctx(0);
            let reg = Arc::new(TreeMaxRegister::new(m));
            for v in 0..m {
                let _ = run(TreeMaxWriteTask::new(reg.clone(), v), &ctx);
                assert_eq!(run(TreeMaxReadTask::new(reg.clone()), &ctx), u128::from(v));
            }
        }
    }

    #[test]
    fn adaptive_tasks_match_blocking_forms_both_arms() {
        // (n, m) pairs selecting the tree arm and the collect arm.
        for (n, m, tree) in [(64usize, 512u64, true), (2, 1 << 50, false)] {
            let reg = || AdaptiveMaxRegister::new(n, m);
            let (a, b) = (reg(), reg());
            assert_eq!((a.uses_tree(), b.uses_tree()), (tree, tree));
            pin_task_form_to_blocking_form(n, a, Arc::new(b), &[1, 200, 7, 511, 3, 444]);
        }
    }

    #[test]
    fn unbounded_tasks_match_blocking_forms() {
        // Values spanning several doubling levels, including the
        // cross-level domination case.
        let seq = [1u64, 3, 200, 65_000, 1 << 20, 7, 1 << 45, 0, 1 << 60];
        let (a, b) = (UnboundedMaxRegister::new(), UnboundedMaxRegister::new());
        pin_task_form_to_blocking_form(1, a, Arc::new(b), &seq);
    }

    #[test]
    fn unbounded_read_of_fresh_register_costs_one_primitive() {
        // The written flag answers 0 immediately: one primitive, like
        // the blocking form.
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let reg = Arc::new(UnboundedMaxRegister::new());
        assert_eq!(run(UnboundedMaxReadTask::new(reg), &ctx), 0);
        assert_eq!(ctx.steps_taken(), 1);
    }

    #[test]
    fn oracle_tasks_apply_no_primitives() {
        // The oracle has no machines: submitted as tasks, its
        // operations are `ImmediateOp`s over its blocking form.
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let oracle = Arc::new(LockMaxRegister::new());
        let write = oracle.clone();
        let _ = run(
            ImmediateOp::new(move |ctx| {
                write.write(ctx, 7);
                0
            }),
            &ctx,
        );
        let read = ImmediateOp::new(move |ctx| u128::from(oracle.read(ctx)));
        assert_eq!(run(read, &ctx), 7);
        assert_eq!(ctx.steps_taken(), 0);
    }
}
