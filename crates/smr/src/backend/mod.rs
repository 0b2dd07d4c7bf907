//! Execution backends: how submitted operations actually run.
//!
//! The [`Driver`](crate::Driver) is generic over an [`ExecBackend`],
//! which owns operation execution and event production; the driver keeps
//! the bookkeeping (histories, pending counts, the active set):
//!
//! * [`CoopBackend`] — N *virtual* processes as resumable task state
//!   machines on the controller thread: no worker threads, no parking,
//!   one indirect call per step. [`OpTask`] ops only, scales to
//!   10⁵–10⁶ processes. Gated ([`Runtime::coop`]: the repo's one
//!   deterministic executor — the controller grants one primitive at a
//!   time, crashes and suspends processes) or free-running
//!   ([`Runtime::coop_free`]: `wait_event` batch-polls runnable tasks
//!   in deterministic rounds instead of granting steps).
//! * [`ThreadBackend`] — one worker thread per process of a
//!   free-running runtime ([`Runtime::free_running`]): closure ops and
//!   [`OpTask`]s at native speed with real concurrency, the target of
//!   the thread-sanitizer lane.
//!
//! [`Runtime::coop`]: crate::Runtime::coop
//! [`Runtime::coop_free`]: crate::Runtime::coop_free
//! [`Runtime::free_running`]: crate::Runtime::free_running
//!
//! Both backends report completions as [`OpRecord`]s. Gated coop also
//! announces each operation's start with a pending record
//! (`resp = None`, `steps` = the process's cumulative step count at
//! invocation), which the driver turns into crash pendings and
//! snapshots.

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
/// Stepping is not part of it: only [`CoopBackend`] grants steps, so
/// gated control lives on `Driver<CoopBackend>`.
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

    /// Drain produced events (invocation announcements and completions)
    /// into `sink`, in production order per process.
    fn drain(&mut self, sink: &mut dyn FnMut(OpRecord));

    /// Free-running mode only: block until the next event is available
    /// and return it.
    fn wait_event(&mut self) -> OpRecord;

    /// Tear down: let every in-flight and queued operation run to
    /// completion ungated (a dropped driver must leave shared memory as
    /// if all submitted operations finished — events emitted during
    /// shutdown are discarded).
    fn shutdown(&mut self);
}
