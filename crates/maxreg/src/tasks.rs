//! [`OpTask`] forms of max-register operations, for the
//! coop execution backend (they run unchanged on the thread backend).
//!
//! Every register's operations exist once, as resumable *machines* next
//! to the register itself (see `maxreg::tree`'s module docs for the
//! convention); the task types re-exported here are thin owning
//! wrappers: [`TreeMaxWriteTask`]/[`TreeMaxReadTask`] over the tree
//! machines, [`AdaptiveMaxWriteTask`]/[`AdaptiveMaxReadTask`] over the
//! arm-selected machines, and
//! [`UnboundedMaxWriteTask`]/[`UnboundedMaxReadTask`] over the
//! level-doubling composites. The lock-based oracle applies no
//! primitives, so its task forms are [`ImmediateOp`] adapters completing
//! on the priming poll.

use crate::reference::LockMaxRegister;
use crate::spec::MaxRegister;
use smr::{ImmediateOp, OpTask};
use std::sync::Arc;

pub use crate::adaptive::{AdaptiveMaxReadTask, AdaptiveMaxWriteTask};
pub use crate::tree::{TreeMaxReadTask, TreeMaxWriteTask};
pub use crate::unbounded::{UnboundedMaxReadTask, UnboundedMaxWriteTask};

/// `LockMaxRegister::write` as a task (zero primitives).
pub fn lock_write_task(oracle: Arc<LockMaxRegister>, v: u64) -> impl OpTask {
    ImmediateOp::new(move |ctx| {
        oracle.write(ctx, v);
        0
    })
}

/// `LockMaxRegister::read` as a task (zero primitives).
pub fn lock_read_task(oracle: Arc<LockMaxRegister>) -> impl OpTask {
    ImmediateOp::new(move |ctx| u128::from(oracle.read(ctx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveMaxRegister, TreeMaxRegister, UnboundedMaxRegister};
    use smr::{Poll, ProcCtx, Runtime};

    fn run<T: OpTask>(mut t: T, ctx: &ProcCtx) -> u128 {
        loop {
            if let Poll::Ready(v) = t.poll(ctx) {
                return v;
            }
        }
    }

    #[test]
    fn tree_tasks_match_blocking_forms() {
        // Same write/read sequence through both forms; primitive counts
        // and results must agree exactly.
        let seq = [5u64, 900, 3, 999, 42, 0, 998, 512, 997];
        let m = 1000;

        let rt_a = Runtime::free_running(1);
        let ctx_a = rt_a.ctx(0);
        let reg_a = TreeMaxRegister::new(m);

        let rt_b = Runtime::free_running(1);
        let ctx_b = rt_b.ctx(0);
        let reg_b = Arc::new(TreeMaxRegister::new(m));

        for &v in &seq {
            reg_a.write(&ctx_a, v);
            let _ = run(TreeMaxWriteTask::new(reg_b.clone(), v), &ctx_b);
            let ra = u128::from(reg_a.read(&ctx_a));
            let rb = run(TreeMaxReadTask::new(reg_b.clone()), &ctx_b);
            assert_eq!(ra, rb, "after write {v}");
            assert_eq!(
                rt_a.steps_of(0),
                rt_b.steps_of(0),
                "primitive counts diverged after write {v}"
            );
        }
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
        for (n, m) in [(64usize, 512u64), (2, 1 << 50)] {
            let seq = [1u64, 200, 7, 511, 3, 444];

            let rt_a = Runtime::free_running(n);
            let ctx_a = rt_a.ctx(0);
            let reg_a = AdaptiveMaxRegister::new(n, m);

            let rt_b = Runtime::free_running(n);
            let ctx_b = rt_b.ctx(0);
            let reg_b = Arc::new(AdaptiveMaxRegister::new(n, m));
            assert_eq!(reg_a.uses_tree(), reg_b.uses_tree());

            for &v in &seq {
                reg_a.write(&ctx_a, v);
                let _ = run(AdaptiveMaxWriteTask::new(reg_b.clone(), v), &ctx_b);
                let ra = u128::from(reg_a.read(&ctx_a));
                let rb = run(AdaptiveMaxReadTask::new(reg_b.clone()), &ctx_b);
                assert_eq!(ra, rb, "n={n} m={m}: after write {v}");
                assert_eq!(
                    rt_a.steps_of(0),
                    rt_b.steps_of(0),
                    "n={n} m={m}: primitive counts diverged after write {v}"
                );
            }
        }
    }

    #[test]
    fn unbounded_tasks_match_blocking_forms() {
        // Values spanning several doubling levels, including the
        // cross-level domination case.
        let seq = [1u64, 3, 200, 65_000, 1 << 20, 7, 1 << 45, 0, 1 << 60];

        let rt_a = Runtime::free_running(1);
        let ctx_a = rt_a.ctx(0);
        let reg_a = UnboundedMaxRegister::new();

        let rt_b = Runtime::free_running(1);
        let ctx_b = rt_b.ctx(0);
        let reg_b = Arc::new(UnboundedMaxRegister::new());

        for &v in &seq {
            reg_a.write(&ctx_a, v);
            let _ = run(UnboundedMaxWriteTask::new(reg_b.clone(), v), &ctx_b);
            let ra = u128::from(reg_a.read(&ctx_a));
            let rb = run(UnboundedMaxReadTask::new(reg_b.clone()), &ctx_b);
            assert_eq!(ra, rb, "after write {v}");
            assert_eq!(
                rt_a.steps_of(0),
                rt_b.steps_of(0),
                "primitive counts diverged after write {v}"
            );
        }
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
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let oracle = Arc::new(LockMaxRegister::new());
        let _ = run(lock_write_task(oracle.clone(), 7), &ctx);
        assert_eq!(run(lock_read_task(oracle), &ctx), 7);
        assert_eq!(ctx.steps_taken(), 0);
    }
}
