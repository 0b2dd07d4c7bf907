//! Execution backends: how submitted operations actually run.
//!
//! The [`Driver`](crate::Driver) is generic over an [`ExecBackend`],
//! which owns operation execution and event production; the driver keeps
//! the bookkeeping (histories, crash flags, the active set) identical
//! across backends:
//!
//! * [`ThreadBackend`] — the original machinery: one worker thread per
//!   process, primitives park at the gate in gated mode. Runs closure
//!   ops and [`OpTask`](crate::OpTask)s, supports free-running mode,
//!   native speed, but tops out around 10³ processes (OS threads plus a
//!   cross-thread gate handshake per step).
//! * [`CoopBackend`] — N *virtual* processes as resumable task state
//!   machines on the controller thread: no worker threads, no parking,
//!   one indirect call per step. [`OpTask`] ops only, scales to
//!   10⁵–10⁶ processes. Gated ([`Runtime::coop`]) or free-running
//!   ([`Runtime::coop_free`]: `wait_event` batch-polls runnable tasks
//!   in deterministic rounds instead of granting steps).
//!
//! [`Runtime::coop`]: crate::Runtime::coop
//! [`Runtime::coop_free`]: crate::Runtime::coop_free
//!
//! Both backends speak the same event protocol: in gated mode an
//! operation's start is announced with a pending [`OpRecord`]
//! (`resp = None`, `steps` = the process's cumulative step count at
//! invocation) and its completion recorded with a full one; the driver
//! turns those into histories, crash pendings and snapshots, so
//! crash/suspend/quiesce semantics are backend-independent (verified by
//! `tests/backend_equivalence`).

mod coop;
mod thread;

pub use coop::CoopBackend;
pub use thread::ThreadBackend;

use crate::history::{OpRecord, OpSpec};
use crate::task::{ErasedTask, Op, OpTask};

/// Result of advancing one process by one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One primitive was executed to completion.
    Stepped,
    /// All operations submitted to this process have completed; no step
    /// was taken.
    Completed,
}

/// An operation executor the [`Driver`](crate::Driver) delegates to.
///
/// `expected_ops` parameters carry the driver's submission count for the
/// process, which is how a backend distinguishes "idle, everything done"
/// from "idle, next op not yet started".
pub trait ExecBackend {
    /// Hand `op` to process `pid`. In gated mode it must not apply any
    /// primitive until granted a step; in free-running mode it starts
    /// immediately.
    fn submit(&mut self, pid: usize, spec: OpSpec, op: Op);

    /// [`submit`](ExecBackend::submit) for a task whose type is still
    /// known. The default erases it into its own heap allocation
    /// ([`ErasedTask`]); a backend that stores payloads itself can write
    /// the task there directly instead.
    fn submit_task<T: OpTask + 'static>(&mut self, pid: usize, spec: OpSpec, task: T) {
        self.submit(pid, spec, Op::Task(ErasedTask::new(task)));
    }

    /// Gated mode: advance `pid` by one primitive, or report that all
    /// `expected_ops` of its operations completed.
    fn step(&mut self, pid: usize, expected_ops: u64) -> StepOutcome;

    /// Gated mode: bring `pid` to a stable point — parked immediately
    /// before a primitive, or idle with all `expected_ops` operations
    /// finished — with every event it will ever emit without further
    /// grants already drainable.
    fn quiesce(&mut self, pid: usize, expected_ops: u64);

    /// Drain produced events (invocation announcements and completions)
    /// into `sink`, in production order per process.
    fn drain(&mut self, sink: &mut dyn FnMut(OpRecord));

    /// Free-running mode only: block until the next event is available
    /// and return it.
    fn wait_event(&mut self) -> OpRecord;

    /// Tear down: release anything parked and let every in-flight and
    /// queued operation run to completion ungated (a dropped driver must
    /// leave shared memory as if all submitted operations finished —
    /// events emitted during shutdown are discarded).
    fn shutdown(&mut self);
}
