//! Execution backends: how submitted operations actually run.
//!
//! The [`Driver`](crate::Driver) is generic over an [`ExecBackend`],
//! which owns operation execution and event production; the driver keeps
//! the bookkeeping (histories, pending counts, the active set):
//!
//! * [`CoopBackend`] — N *virtual* processes as resumable task state
//!   machines on the controller thread: no worker threads, no parking,
//!   one indirect call per step. [`OpTask`] ops only, written into a
//!   task arena as their concrete type; scales to 10⁵–10⁶ processes.
//!   Gated ([`Runtime::coop`]: the repo's one deterministic executor —
//!   the controller grants one primitive at a time, crashes and
//!   suspends processes) or free-running ([`Runtime::coop_free`]:
//!   `wait_event` batch-polls runnable tasks in deterministic rounds
//!   instead of granting steps).
//! * [`ThreadBackend`] — one worker thread per process of a
//!   free-running runtime ([`Runtime::free_running`]): each operation
//!   is one boxed job — a closure from `Driver::submit`, or a closure
//!   that polls an [`OpTask`] to completion — run at native speed with
//!   real concurrency, the target of the thread-sanitizer lane.
//!
//! [`Runtime::coop`]: crate::Runtime::coop
//! [`Runtime::coop_free`]: crate::Runtime::coop_free
//! [`Runtime::free_running`]: crate::Runtime::free_running
//!
//! Both backends report completions, and only completions, as
//! [`OpRecord`]s. A gated coop backend keeps each in-flight operation's
//! invocation in its parked state, from which the driver builds the
//! pending records (`resp = None`) of crashes and snapshots. Teardown
//! is each backend's own `Drop`: every in-flight and queued operation
//! runs to completion, so a dropped driver leaves shared memory as if
//! all submitted operations finished.

mod coop;
mod thread;

pub use coop::CoopBackend;
pub use thread::ThreadBackend;

use crate::history::{OpRecord, OpSpec};
use crate::task::OpTask;

/// Result of advancing one process by one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One primitive was executed to completion.
    Stepped,
    /// All operations submitted to this process have completed; no step
    /// was taken.
    Completed,
}

/// An operation executor the [`Driver`](crate::Driver) delegates to:
/// the three calls the driver makes. Stepping is not part of it: only
/// [`CoopBackend`] grants steps, so gated control lives on
/// `Driver<CoopBackend>`.
pub trait ExecBackend {
    /// Hand `task` to process `pid`. In gated mode it must not apply any
    /// primitive until granted a step; in free-running mode it starts
    /// immediately.
    fn submit_task<T: OpTask + 'static>(&mut self, pid: usize, spec: OpSpec, task: T);

    /// Drain the completion records produced so far into `sink`, in
    /// production order per process. No backend yields a pending record
    /// here: a gated coop driver builds those from the backend's parked
    /// state.
    fn drain(&mut self, sink: &mut dyn FnMut(OpRecord));

    /// Free-running mode only: block until the next completion is
    /// available and return it.
    fn wait_event(&mut self) -> OpRecord;
}
