//! [`ProcCtx`]: the per-process capability for applying primitives.

use crate::runtime::Runtime;
use crate::trace::AccessKind;
use std::cell::{Ref, RefCell};
use std::sync::Arc;

/// The capability a process needs to apply primitives to base objects.
///
/// Every primitive method on [`Register`](crate::Register),
/// [`TasBit`](crate::TasBit), … takes a `&ProcCtx`; the context charges the
/// step to the owning process and records it in the trace when tracing
/// is enabled. Gated scheduling needs nothing from the context: the coop
/// backend grants a step by polling a task once, and the task applies
/// its one primitive through the context.
///
/// A `ProcCtx` is `Send` but deliberately not `Clone`/`Sync`: each process
/// of the modelled machine is a single sequential thread of control.
///
/// ```
/// fn send<T: Send>() {}
/// send::<smr::ProcCtx>();
/// ```
///
/// ```compile_fail
/// fn sync<T: Sync>() {}
/// sync::<smr::ProcCtx>();
/// ```
///
/// Contexts from [`Runtime::ctx`] act for one process for their whole
/// life. The coop backend instead owns a single *recording* context,
/// re-pointed at whichever process it polls, which lists the
/// `(object, kind)` of every primitive applied through it since the
/// backend last cleared the list — the per-step access record the
/// explorer reads instead of the trace log.
pub struct ProcCtx {
    runtime: Arc<Runtime>,
    pid: usize,
    /// Whether [`step`](ProcCtx::step) appends to `touched`. Off for
    /// [`Runtime::ctx`] contexts, whose list stays empty and unallocated.
    recording: bool,
    /// Primitives applied through this context since the last
    /// [`begin`](ProcCtx::begin), in order.
    touched: RefCell<Vec<(usize, AccessKind)>>,
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCtx").field("pid", &self.pid).finish()
    }
}

impl ProcCtx {
    pub(crate) fn new(runtime: Arc<Runtime>, pid: usize) -> Self {
        ProcCtx {
            runtime,
            pid,
            recording: false,
            touched: RefCell::new(Vec::new()),
        }
    }

    /// A recording context for the coop backend: pointed at pid 0 until
    /// the first [`begin`](ProcCtx::begin).
    pub(crate) fn recording(runtime: Arc<Runtime>) -> Self {
        ProcCtx {
            recording: true,
            // Allocated with the backend rather than at the first push:
            // a first-push allocation lands mid-run between longer-lived
            // ones, and with glibc malloc the explorer's one backend per
            // replay then fragments the heap (`perfbench`'s
            // `explore_dpor`: 336 KiB of anonymous RSS, against 266 KiB
            // allocated here).
            touched: RefCell::new(Vec::with_capacity(4)),
            ..ProcCtx::new(runtime, 0)
        }
    }

    /// Re-point the context at `pid` and clear its access record.
    #[inline]
    pub(crate) fn begin(&mut self, pid: usize) {
        self.pid = pid;
        self.touched.get_mut().clear();
    }

    /// The `(object, kind)` of every primitive applied through this
    /// context since the last [`begin`](ProcCtx::begin), in order (always
    /// empty for a context that does not record).
    pub(crate) fn touched(&self) -> Ref<'_, [(usize, AccessKind)]> {
        Ref::map(self.touched.borrow(), Vec::as_slice)
    }

    /// The process id this context acts for.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The runtime this context belongs to.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Steps this process has performed so far.
    pub fn steps_taken(&self) -> u64 {
        self.runtime.steps_of(self.pid)
    }

    /// Charge one primitive step on base object `obj` to this process. A
    /// recording context also appends `(obj, kind)` to its access record.
    /// The returned permit is held for the duration of the primitive.
    ///
    /// The primitive reports its observed effect through
    /// [`StepPermit::record`]; when no trace consumer is active
    /// ([`StepPermit::traced`] is `false`) the recording — and any state
    /// digesting done to feed it — must be skipped, keeping untraced
    /// runs at native cost.
    #[inline]
    pub(crate) fn step(&self, obj: usize, kind: AccessKind) -> StepPermit<'_> {
        self.runtime.count_step(self.pid);
        if self.recording {
            self.touched.borrow_mut().push((obj, kind));
        }
        StepPermit {
            runtime: &self.runtime,
            pid: self.pid,
            obj,
            kind,
        }
    }
}

/// Held for the duration of one primitive application.
pub(crate) struct StepPermit<'a> {
    runtime: &'a Runtime,
    pid: usize,
    obj: usize,
    kind: AccessKind,
}

impl StepPermit<'_> {
    /// `true` if a trace consumer (log or analysis sink) is active and
    /// the primitive should digest its before/after states for
    /// [`record`](StepPermit::record).
    #[inline]
    pub(crate) fn traced(&self) -> bool {
        self.runtime.trace_active()
    }

    /// Record the primitive's observed effect: the object's state digest
    /// immediately before and after the application. Must be called
    /// while the permit is held.
    #[inline]
    pub(crate) fn record(&self, before: u64, after: u64) {
        self.runtime
            .trace_access(self.pid, self.obj, self.kind, before, after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_accumulate() {
        let rt = Runtime::free_running(2);
        let ctx = rt.ctx(1);
        {
            let _p = ctx.step(0, AccessKind::Read);
        }
        {
            let _p = ctx.step(0, AccessKind::Write);
        }
        assert_eq!(ctx.steps_taken(), 2);
        assert_eq!(rt.steps_of(0), 0);
    }

    #[test]
    fn runtime_contexts_record_nothing() {
        let rt = Runtime::coop(2);
        let ctx = rt.ctx(1);
        let reg = crate::Register::new(0);
        for v in 0..100 {
            reg.write(&ctx, v);
            let _ = reg.read(&ctx);
        }
        assert_eq!(ctx.steps_taken(), 200);
        assert!(ctx.touched().is_empty());
        assert_eq!(ctx.touched.borrow().capacity(), 0, "the record never grows");
    }

    #[test]
    fn a_recording_context_lists_its_primitives_until_begin() {
        let rt = Runtime::coop(3);
        let mut ctx = ProcCtx::recording(rt.clone());
        let reg = crate::Register::new(0);
        let tas = crate::TasBit::new();
        ctx.begin(2);
        reg.write(&ctx, 1);
        let _ = tas.test_and_set(&ctx);
        assert_eq!(ctx.pid(), 2);
        assert_eq!(
            &*ctx.touched(),
            &[
                (reg.obj_id(), AccessKind::Write),
                (tas.obj_id(), AccessKind::TestAndSet)
            ]
        );
        assert_eq!(rt.steps_of(2), 2, "steps charge the pointed-at pid");
        ctx.begin(0);
        assert!(ctx.touched().is_empty());
        let _ = reg.read(&ctx);
        assert_eq!(&*ctx.touched(), &[(reg.obj_id(), AccessKind::Read)]);
        assert_eq!(rt.steps_of(0), 1);
    }
}
