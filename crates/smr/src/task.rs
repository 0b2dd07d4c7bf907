//! [`OpTask`]: poll-style resumable operations.
//!
//! A closure submitted to the driver owns its whole operation: once it
//! starts, nothing can pause it between primitives short of parking the
//! OS thread running it, so closures run only free, on the thread
//! backend's workers. An `OpTask` is the same operation written as an
//! explicit state machine, so a single controller thread can interleave
//! thousands of them without parking anything: the coop backend
//! advances a task by one primitive per [`poll`](OpTask::poll) call —
//! the grant that gated scheduling is made of.
//!
//! ## The poll contract
//!
//! A task runs local computation freely and stops immediately
//! **before** each primitive, applying it only when granted a step.
//! Concretely:
//!
//! * The **first** poll is the *priming* poll: run local computation up
//!   to (but not including) the first primitive and return
//!   [`Poll::Pending`] **without applying any primitive**. If the
//!   operation applies no primitives at all, return `Poll::Ready`
//!   (still zero primitives) — such operations complete without ever
//!   being granted a step.
//! * Every **subsequent** poll is a *granted step*: apply exactly one
//!   primitive (through the [`ProcCtx`] methods, so it is counted and
//!   traced), continue local computation, and stop at the next
//!   primitive boundary (`Poll::Pending`) or at completion
//!   (`Poll::Ready(result)` — the completing poll still applies its one
//!   primitive).
//!
//! The coop backend *enforces* this contract by watching the process's
//! step counter around every poll and panics on a violation (a primitive
//! applied while priming, more than one primitive per granted step, or a
//! step that made no progress). The thread backend runs a task as one
//! job, a closure that polls it to completion on a worker thread.
//!
//! Each backend takes a task in one form: the coop backend writes it
//! into its task arena as its concrete type, and the thread backend
//! boxes that job.
//!
//! [`ProcCtx`]: crate::ProcCtx

use crate::ProcCtx;

pub use std::task::Poll;

/// A resumable operation: one primitive per granted poll. See the
/// [module docs](self) for the exact contract.
pub trait OpTask: Send {
    /// Advance the operation. The first call primes (no primitive);
    /// each later call applies exactly one primitive.
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128>;
}

/// Adapter: a **zero-primitive** closure as an [`OpTask`], completing on
/// the priming poll. This is the task form of oracle/reference
/// operations (e.g. the lock-based test objects), which apply no
/// primitives; closures that *do* apply primitives cannot be adapted —
/// they must be rewritten as state machines to run cooperatively.
pub struct ImmediateOp<F>(Option<F>);

impl<F> ImmediateOp<F>
where
    F: FnOnce(&ProcCtx) -> u128 + Send + 'static,
{
    /// Wrap a zero-primitive closure.
    pub fn new(f: F) -> Self {
        ImmediateOp(Some(f))
    }
}

impl<F> OpTask for ImmediateOp<F>
where
    F: FnOnce(&ProcCtx) -> u128 + Send + 'static,
{
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        let f = self.0.take().expect("polled after completion");
        Poll::Ready(f(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn immediate_op_completes_on_priming_poll() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let mut op = ImmediateOp::new(|_ctx| 17);
        assert_eq!(op.poll(&ctx), Poll::Ready(17));
        assert_eq!(ctx.steps_taken(), 0);
    }
}
