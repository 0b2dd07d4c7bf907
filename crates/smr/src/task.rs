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
//! step that made no progress). The thread backend simply polls a task
//! to completion on a worker thread.
//!
//! [`ProcCtx`]: crate::ProcCtx

use crate::ProcCtx;
use std::alloc::Layout;
use std::ptr::NonNull;

pub use std::task::Poll;

/// A resumable operation: one primitive per granted poll. See the
/// [module docs](self) for the exact contract.
pub trait OpTask: Send {
    /// Advance the operation. The first call primes (no primitive);
    /// each later call applies exactly one primitive.
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128>;
}

/// Shim applying one [`OpTask::poll`] to a type-erased payload.
pub(crate) type PollFn = unsafe fn(NonNull<u8>, &ProcCtx) -> Poll<u128>;
/// Shim dropping a type-erased payload in place (no deallocation).
pub(crate) type DropFn = unsafe fn(NonNull<u8>);

/// The [`PollFn`] for payload type `T`.
///
/// # Safety
/// `data` must point to a live `T` that the caller owns exclusively.
pub(crate) unsafe fn poll_shim<T: OpTask>(data: NonNull<u8>, ctx: &ProcCtx) -> Poll<u128> {
    // SAFETY: the caller passes a live `T` it owns exclusively, so the
    // cast is valid and the `&mut` is unique.
    unsafe { data.cast::<T>().as_mut() }.poll(ctx)
}

/// The [`DropFn`] for payload type `T`.
///
/// # Safety
/// As for [`poll_shim`]; the value is dead afterwards.
pub(crate) unsafe fn drop_shim<T>(data: NonNull<u8>) {
    // SAFETY: the caller passes a live `T` it owns exclusively and never
    // uses again, so it is dropped exactly once.
    unsafe { std::ptr::drop_in_place(data.cast::<T>().as_ptr()) }
}

/// A type-erased [`OpTask`] behind a *thin* pointer: the payload lives
/// in its own heap allocation and the vtable is two explicit shims
/// captured where the concrete type is still known
/// ([`ErasedTask::new`]).
///
/// Unlike `Box<dyn OpTask>`, the payload pointer and the shims travel
/// separately, so the payload bytes can be relocated (it has never been
/// polled when the backend takes it, so the relocation is an ordinary
/// move) and dropped in place without a deallocation — which is what
/// lets the coop backend move 10⁶ task states into a bump arena and
/// keep the shims in dense side arrays (see `backend::coop`).
pub struct ErasedTask {
    data: NonNull<u8>,
    layout: Layout,
    poll: PollFn,
    dropper: DropFn,
}

// SAFETY: the payload is some `T: OpTask + 'static` (`OpTask: Send`)
// owned exclusively through `data`; sending the handle sends that
// ownership.
unsafe impl Send for ErasedTask {}

impl ErasedTask {
    /// Erase `task`, moving it to its own heap allocation.
    pub fn new<T: OpTask + 'static>(task: T) -> Self {
        let data = NonNull::new(Box::into_raw(Box::new(task)))
            .expect("Box allocations are non-null")
            .cast::<u8>();
        ErasedTask {
            data,
            layout: Layout::new::<T>(),
            poll: poll_shim::<T>,
            dropper: drop_shim::<T>,
        }
    }

    /// Advance the erased task (see [`OpTask::poll`]).
    pub(crate) fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        // SAFETY: `data` is the live payload these shims were built for.
        unsafe { (self.poll)(self.data, ctx) }
    }

    /// Decompose into payload pointer, its layout, and the two shims.
    /// The caller takes over the payload's heap allocation (none for
    /// zero-sized payloads: the pointer is dangling, as from `Box`).
    pub(crate) fn into_raw_parts(self) -> (NonNull<u8>, Layout, PollFn, DropFn) {
        let this = std::mem::ManuallyDrop::new(self);
        (this.data, this.layout, this.poll, this.dropper)
    }
}

impl Drop for ErasedTask {
    fn drop(&mut self) {
        // SAFETY: sole owner of the payload and (for non-ZSTs) its
        // allocation, both created in `new`.
        unsafe {
            (self.dropper)(self.data);
            if self.layout.size() > 0 {
                std::alloc::dealloc(self.data.as_ptr(), self.layout);
            }
        }
    }
}

impl std::fmt::Debug for ErasedTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedTask")
            .field("layout", &self.layout)
            .finish_non_exhaustive()
    }
}

/// An operation in either submission form: a one-shot closure (thread
/// backend only — it cannot be suspended cooperatively) or a resumable
/// [`OpTask`] (either backend).
pub enum Op {
    /// A closure executed start-to-finish on a worker thread.
    Call(Box<dyn FnOnce(&ProcCtx) -> u128 + Send + 'static>),
    /// A poll-style resumable task, type-erased.
    Task(ErasedTask),
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Op::Call(_) => "Op::Call",
            Op::Task(_) => "Op::Task",
        })
    }
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
