//! The [`Driver`]: controller-side scheduling and operation-history
//! recording, generic over an execution backend.
//!
//! In **gated** mode — [`Driver::coop`], the repo's one deterministic
//! executor — the driver is the controller: it submits operations to
//! virtual processes and advances the execution one primitive at a time
//! ([`Driver::step`]), under any [`Scheduler`] policy or under direct,
//! fully scripted control (what the lower-bound adversaries need —
//! including suspending a process mid-operation indefinitely by simply
//! never scheduling it again, or crashing it with [`Driver::crash`]).
//!
//! In **free-running** mode operations execute without grants —
//! batch-polled in deterministic rounds on the controller thread
//! ([`Driver::coop_free`]), or concurrently on one worker thread per
//! process ([`Driver::new`]); [`Driver::wait_all`] collects the
//! resulting history either way.
//!
//! How operations execute is the backend's business
//! ([`ExecBackend`]): [`CoopBackend`]
//! drives *virtual* processes as [`OpTask`] state machines on the
//! controller thread, gated or free, scaling to 10⁵–10⁶ processes;
//! [`ThreadBackend`] runs closures and tasks free on worker threads.
//! Stepping and crashing exist only on `Driver<CoopBackend>`, so a
//! thread driver cannot be stepped:
//!
//! ```compile_fail
//! use smr::{Driver, Runtime};
//!
//! let mut d = Driver::new(Runtime::free_running(2));
//! let _ = d.step(0);
//! ```
//!
//! Determinism: gated executions serialize primitives completely, and the
//! implementations under test are deterministic, so replaying the same
//! submissions under the same schedule reproduces the same shared-memory
//! execution — the property the perturbation builder relies on.

use crate::active::ActiveSet;
use crate::backend::{CoopBackend, ExecBackend, ThreadBackend};
use crate::history::{History, OpRecord, OpSpec};
use crate::runtime::{Mode, Runtime};
use crate::sched::Scheduler;
use crate::task::OpTask;
use crate::trace::{AccessKind, TraceEvent};
use crate::ProcCtx;
use std::cell::Ref;
use std::sync::Arc;

pub use crate::backend::StepOutcome;

/// One process's submitted and completed operation counts.
#[derive(Clone, Copy, Default)]
struct OpCounts {
    submitted: u64,
    completed: u64,
}

/// Trace events a gated run buffers before delivering them as one
/// batch (about 96 KiB of events): [`Driver::run_schedule`] and
/// [`Driver::run_solo`] flush whenever this many are waiting, and
/// before they return.
const TRACE_BATCH: usize = 1024;

/// Controller for a set of per-process executors.
///
/// See the [module docs](self) for the execution modes and backends.
///
/// ```
/// use smr::{Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
/// use smr::sched::RoundRobin;
/// use std::sync::Arc;
///
/// /// Read the register, then write back the value read plus one.
/// struct Rmw(Arc<Register>, Option<Option<u64>>);
///
/// impl OpTask for Rmw {
///     fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
///         match self.1 {
///             None => self.1 = Some(None), // priming poll: no primitive
///             Some(None) => self.1 = Some(Some(self.0.read(ctx))),
///             Some(Some(v)) => {
///                 self.0.write(ctx, v + 1);
///                 return Poll::Ready(u128::from(v));
///             }
///         }
///         Poll::Pending
///     }
/// }
///
/// let mut driver = Driver::coop(Runtime::coop(2));
/// let reg = Arc::new(Register::new(0));
/// for pid in 0..2 {
///     driver.submit_task(pid, OpSpec::custom("rmw", 0), Rmw(reg.clone(), None));
/// }
/// // Round-robin interleaving loses an update — deterministically.
/// driver.run_schedule(&mut RoundRobin::new());
/// assert_eq!(reg.peek(), 1);
/// ```
pub struct Driver<B: ExecBackend = ThreadBackend> {
    runtime: Arc<Runtime>,
    backend: B,
    /// Operations submitted to and completed by each process.
    ops: Vec<OpCounts>,
    /// Crashed processes: a dense flag array of its own, since every
    /// grant reads it.
    crashed: Vec<bool>,
    /// Uncrashed pids with unfinished submitted operations, maintained
    /// incrementally (no per-step rebuild).
    active: ActiveSet,
    /// Submitted-but-uncompleted ops across all processes, maintained
    /// incrementally so [`wait_all`](Driver::wait_all) is O(1) per
    /// event instead of rescanning 10⁶ per-pid counters.
    pending_ops: u64,
    history: History,
}

impl Driver<ThreadBackend> {
    /// A driver over the thread backend: one worker thread per process
    /// of a free-running `runtime` ([`Runtime::free_running`]).
    pub fn new(runtime: Arc<Runtime>) -> Self {
        let backend = ThreadBackend::new(runtime.clone());
        Driver::with_backend(runtime, backend)
    }

    /// Queue a closure operation for process `pid`; it starts
    /// immediately. `spec` is the typed description of what the closure
    /// does ([`OpSpec::inc`], [`OpSpec::read`], …); the closure's return
    /// value completes the recorded [`OpKind`](crate::OpKind).
    ///
    /// Closures run start-to-finish on a worker thread, so they exist
    /// only on the thread backend; the coop backend takes resumable
    /// tasks ([`Driver::submit_task`], which works on both).
    pub fn submit<F>(&mut self, pid: usize, spec: OpSpec, f: F)
    where
        F: FnOnce(&ProcCtx) -> u128 + Send + 'static,
    {
        self.admit(pid);
        self.backend.submit_job(pid, spec, Box::new(f));
    }
}

impl Driver<CoopBackend> {
    /// A gated driver whose processes are *virtual*: `runtime` must come
    /// from [`Runtime::coop`], operations are submitted as [`OpTask`]s
    /// ([`Driver::submit_task`]), and each granted step polls the
    /// scheduled process's task once on the controller thread. Crashes,
    /// suspensions and snapshots are deterministic cuts; runs scale to
    /// 10⁵–10⁶ virtual processes.
    pub fn coop(runtime: Arc<Runtime>) -> Self {
        let backend = CoopBackend::new(runtime.clone());
        Driver::with_backend(runtime, backend)
    }

    /// A driver whose virtual processes run **free**: `runtime` must
    /// come from [`Runtime::coop_free`], and instead of granting steps
    /// the backend batch-polls every runnable task in rounds — one
    /// primitive per task per round, ascending submission order —
    /// until [`wait_all`](Driver::wait_all) has drained every
    /// completion. No per-step scheduling, no crash/suspension — the
    /// coop backend's cache locality at free-running throughput.
    /// Executions are deterministic (single controller thread, fixed
    /// batch order): with ops submitted in ascending pid order the poll
    /// order is exactly the gated round-robin schedule, which is what
    /// `tests/backend_equivalence` pins.
    pub fn coop_free(runtime: Arc<Runtime>) -> Self {
        let backend = CoopBackend::new_free(runtime.clone());
        Driver::with_backend(runtime, backend)
    }

    /// Like [`coop_free`](Driver::coop_free), but each batch round
    /// polls in a seeded pseudo-random order. Replayable: the same seed
    /// reproduces the same execution.
    pub fn coop_free_seeded(runtime: Arc<Runtime>, seed: u64) -> Self {
        let backend = CoopBackend::new_free_seeded(runtime.clone(), seed);
        Driver::with_backend(runtime, backend)
    }

    /// Crash process `pid`: it is never scheduled again in this driver's
    /// gated execution — the model's crash failure. The crash takes
    /// effect at the process's next primitive: queued operations that
    /// apply no primitives have already run to completion (a crash is
    /// only observable through shared memory), while the operation
    /// parked at a primitive, if any, stays suspended forever and is
    /// surfaced as a pending history record (`resp = None`) so
    /// linearizability checkers can account for its optional effects.
    /// Task state is reclaimed on drop.
    ///
    /// Gated mode only — in free-running mode processes cannot be
    /// stopped once submitted to.
    pub fn crash(&mut self, pid: usize) {
        assert_eq!(
            self.runtime.mode(),
            Mode::Gated,
            "crash() requires a gated runtime"
        );
        // The backend keeps every process at a stable point between
        // calls, so the drain below observes a deterministic cut.
        self.crashed[pid] = true;
        self.runtime
            .emit_trace(|| TraceEvent::Crash { seq: 0, pid });
        self.active.remove(pid);
        self.drain_events();
        if let Some(rec) = self.backend.pending(pid) {
            self.history.push_expecting(rec, self.pending_ops);
        }
    }

    /// Gated mode only: advance process `pid` by one primitive step (or
    /// learn that all of its submitted operations completed).
    ///
    /// # Panics
    /// Panics in free-running mode, and if `pid` has crashed.
    pub fn step(&mut self, pid: usize) -> StepOutcome {
        let out = self.grant(pid);
        self.backend.flush_trace();
        out
    }

    /// [`step`](Driver::step), leaving the step's trace events buffered.
    fn grant(&mut self, pid: usize) -> StepOutcome {
        assert!(!self.crashed[pid], "process {pid} has crashed");
        let out = self.backend.grant(pid);
        self.drain_events();
        out
    }

    /// Deliver the buffered trace events once a full batch is waiting.
    fn flush_full_trace_batch(&mut self) {
        if self.backend.buffered_trace() >= TRACE_BATCH {
            self.backend.flush_trace();
        }
    }

    /// Gated mode only: run `pid` exclusively until all its submitted
    /// operations complete. Returns the number of steps granted.
    pub fn run_solo(&mut self, pid: usize) -> u64 {
        let mut steps = 0;
        while self.grant(pid) == StepOutcome::Stepped {
            steps += 1;
            self.flush_full_trace_batch();
        }
        self.backend.flush_trace();
        steps
    }

    /// Gated mode only: drive all submitted operations to completion under
    /// `sched`. Returns the total number of steps granted.
    pub fn run_schedule<S: Scheduler + ?Sized>(&mut self, sched: &mut S) -> u64 {
        let mut steps = 0;
        while !self.active.is_empty() {
            let pid = sched.next(&self.active);
            debug_assert!(self.active.contains(pid), "scheduler picked inactive pid");
            if self.grant(pid) == StepOutcome::Stepped {
                steps += 1;
            }
            self.flush_full_trace_batch();
        }
        self.backend.flush_trace();
        steps
    }

    /// The `(object, kind)` of every primitive the last
    /// [`step`](Driver::step) or submission applied — the backend
    /// context's access record (see [`CoopBackend`]): exactly one after
    /// a granted step, none after a submission. A
    /// [`crash`](Driver::crash) applies nothing and leaves it as it was.
    pub(crate) fn touched(&self) -> Ref<'_, [(usize, AccessKind)]> {
        self.backend.touched()
    }

    /// A live snapshot of the history **including pending records for
    /// every in-flight operation** — crashed processes (as in
    /// [`history`]) *and* processes the schedule merely suspended
    /// mid-operation and may or may not ever run again.
    ///
    /// Gated mode: every process sits at a stable point between
    /// controller calls (parked at a primitive or idle), so the snapshot
    /// is a deterministic cut of the execution, and it is what a
    /// linearizability checker should consume when the execution has not
    /// quiesced: a suspended operation's effects are optional, exactly
    /// like a crashed one's. The pending record of an uncrashed process
    /// is built from the backend's parked state (its invocation ticket
    /// and the steps taken since). The suspended operations remain in
    /// flight: if the schedule later resumes them, the final history
    /// records their completions as usual, with the same invocation
    /// ticket.
    ///
    /// Free-running mode: nothing is suspended, so an operation that is
    /// mid-execution has **no** pending record here — the snapshot is
    /// just the completed history drained so far, and it is *not*
    /// checker-complete until the execution quiesces ([`wait_all`]): a
    /// concurrent read may already have observed the effects of an
    /// operation this snapshot omits. Check free-running histories only
    /// after `wait_all`.
    ///
    /// [`wait_all`]: Driver::wait_all
    /// [`history`]: Driver::history
    pub fn history_snapshot(&mut self) -> History {
        self.drain_events();
        let mut snap = self.history.clone();
        self.push_suspended(&mut snap);
        snap
    }

    /// [`history_snapshot`](Driver::history_snapshot) of a driver that is
    /// dropped right after: the history moves into the snapshot instead
    /// of being cloned.
    pub(crate) fn into_history_snapshot(mut self) -> History {
        self.drain_events();
        let mut snap = std::mem::take(&mut self.history);
        self.push_suspended(&mut snap);
        snap
    }

    /// Append the pending record of every uncrashed process's parked
    /// operation to `snap`.
    fn push_suspended(&self, snap: &mut History) {
        for pid in 0..self.runtime.n() {
            if self.crashed[pid] {
                // Its pending record is already in `history`.
                continue;
            }
            if let Some(rec) = self.backend.pending(pid) {
                snap.push_expecting(rec, self.pending_ops);
            }
        }
    }
}

impl<B: ExecBackend> Driver<B> {
    fn with_backend(runtime: Arc<Runtime>, backend: B) -> Self {
        let n = runtime.n();
        Driver {
            runtime,
            backend,
            ops: vec![OpCounts::default(); n],
            crashed: vec![false; n],
            active: ActiveSet::new(n),
            pending_ops: 0,
            history: History::new(),
        }
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Queue a resumable [`OpTask`] operation for process `pid` — the
    /// submission form that runs on every backend (on the thread
    /// backend the task is polled to completion on the worker).
    ///
    /// # Panics
    /// Panics if `pid` has been [crashed](Driver::crash).
    pub fn submit_task<T>(&mut self, pid: usize, spec: OpSpec, task: T)
    where
        T: OpTask + 'static,
    {
        self.admit(pid);
        self.backend.submit_task(pid, spec, task);
    }

    /// Account one more operation submitted to `pid`.
    fn admit(&mut self, pid: usize) {
        // A crashed process never runs again, so work queued to it could
        // never execute — accepting it would silently skew the
        // submitted/active accounting (the pid would look runnable
        // forever to `run_schedule`). Refuse loudly instead.
        assert!(
            !self.crashed[pid],
            "submit to crashed process {pid}: a crashed process cannot run operations"
        );
        self.ops[pid].submitted += 1;
        self.pending_ops += 1;
        self.active.insert(pid);
    }

    /// Operations of `pid` whose completion has been observed.
    pub fn completed_of(&self, pid: usize) -> u64 {
        self.ops[pid].completed
    }

    /// The incrementally-maintained set of process ids that still have
    /// unfinished submitted operations and have not been crashed — what
    /// [`run_schedule`](Driver::run_schedule) hands the [`Scheduler`].
    pub fn active_set(&self) -> &ActiveSet {
        &self.active
    }

    /// Process ids with unfinished operations, ascending (a sorted copy;
    /// prefer [`active_set`](Driver::active_set) in hot paths).
    pub fn active_pids(&self) -> Vec<usize> {
        self.active.iter_sorted().collect()
    }

    /// `true` if `pid` has been crashed.
    pub fn is_crashed(&self, pid: usize) -> bool {
        self.crashed[pid]
    }

    /// Free-running mode only: block until every submitted operation has
    /// completed. (Gated executions complete only as steps are granted.)
    pub fn wait_all(&mut self) {
        assert_eq!(
            self.runtime.mode(),
            Mode::FreeRunning,
            "wait_all() requires a free-running runtime"
        );
        while self.total_pending() > 0 {
            let rec = self.backend.wait_event();
            self.record(rec);
        }
        // Nothing is left to drain, but a drain publishes the backend's
        // batched counts, so they are exact once `wait_all` returns.
        self.drain_events();
    }

    fn total_pending(&self) -> u64 {
        self.pending_ops
    }

    fn drain_events(&mut self) {
        // Destructure so the closure borrows fields, not `self` (the
        // backend is borrowed mutably for the duration of the drain).
        let Driver {
            backend,
            ops,
            active,
            pending_ops,
            history,
            ..
        } = self;
        backend.drain(&mut |rec| Self::record_fields(ops, active, pending_ops, history, rec));
    }

    /// Process one completion.
    fn record(&mut self, rec: OpRecord) {
        Self::record_fields(
            &mut self.ops,
            &mut self.active,
            &mut self.pending_ops,
            &mut self.history,
            rec,
        );
    }

    fn record_fields(
        ops: &mut [OpCounts],
        active: &mut ActiveSet,
        pending_ops: &mut u64,
        history: &mut History,
        rec: OpRecord,
    ) {
        debug_assert!(rec.resp.is_some(), "backends yield completions only");
        let counts = &mut ops[rec.pid];
        counts.completed += 1;
        if counts.completed == counts.submitted {
            active.remove(rec.pid);
        }
        history.push_expecting(rec, *pending_ops);
        *pending_ops -= 1;
    }

    /// The history recorded so far: completed operations, plus pending
    /// records (`resp = None`) for operations suspended by [`crash`].
    /// Use [`History::completed`] for the completed-only view, and
    /// [`history_snapshot`] (coop drivers) for a view that also surfaces
    /// the in-flight operations of *suspended but uncrashed* processes.
    ///
    /// [`crash`]: Driver::crash
    /// [`history_snapshot`]: Driver::history_snapshot
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Take the recorded history, leaving an empty one.
    pub fn take_history(&mut self) -> History {
        std::mem::take(&mut self.history)
    }
}

// Teardown is each backend's own `Drop`: every in-flight or queued
// operation finishes ungated, so dropping a `Driver` leaves shared
// memory as if all submitted operations completed.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpKind;
    use crate::sched::{RoundRobin, SeededRandom};
    use crate::task::{ImmediateOp, Poll};
    use crate::trace::TraceEvent;
    use crate::{Analyzer, Register, Runtime};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn free_running_executes_and_records() {
        let rt = Runtime::free_running(4);
        let mut d = Driver::new(rt.clone());
        let reg = Arc::new(Register::new(0));
        for pid in 0..4 {
            let reg = reg.clone();
            d.submit(pid, OpSpec::write(pid as u64), move |ctx| {
                reg.write(ctx, ctx.pid() as u64 + 1);
                0
            });
        }
        d.wait_all();
        assert_eq!(d.history().len(), 4);
        assert!(reg.peek() >= 1 && reg.peek() <= 4);
        assert_eq!(rt.total_steps(), 4);
    }

    #[test]
    fn gated_round_robin_runs_to_completion() {
        let rt = Runtime::coop(3);
        let mut d = Driver::coop(rt.clone());
        let reg = Arc::new(Register::new(0));
        for pid in 0..3 {
            d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
        }
        let steps = d.run_schedule(&mut RoundRobin::new());
        assert_eq!(steps, 6, "3 processes x 2 primitives");
        assert_eq!(d.history().len(), 3);
        // Round-robin interleaving of read;write read;write read;write:
        // all three read 0, final value 1.
        assert_eq!(reg.peek(), 1);
        for rec in d.history().ops() {
            assert_eq!(rec.returned(), 0, "every process read the initial value");
        }
    }

    #[test]
    fn gated_sequential_schedule_is_atomic() {
        let mut d = Driver::coop(Runtime::coop(3));
        let reg = Arc::new(Register::new(0));
        for pid in 0..3 {
            d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
        }
        for pid in 0..3 {
            d.run_solo(pid);
        }
        assert_eq!(reg.peek(), 3, "solo runs do not interleave");
    }

    #[test]
    fn scripted_schedules_replay_identically() {
        let run = |seed: u64| -> Vec<u128> {
            let mut d = Driver::coop(Runtime::coop(4));
            let reg = Arc::new(Register::new(0));
            for pid in 0..4 {
                let task = RmwTask::new(reg.clone(), pid as u64 + 1);
                d.submit_task(pid, OpSpec::custom("rmw", 0), task);
            }
            let mut sched = SeededRandom::new(seed);
            d.run_schedule(&mut sched);
            let mut h = d.take_history().sorted_by_invocation();
            h.sort_by_key(|r| r.pid);
            h.iter().map(|r| r.returned()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same results");
    }

    #[test]
    fn zero_step_operations_complete() {
        let mut d = Driver::coop(Runtime::coop(2));
        d.submit_task(0, OpSpec::custom("noop", 0), ImmediateOp::new(|_| 42));
        assert_eq!(d.run_solo(0), 0);
        assert_eq!(d.history().ops()[0].returned(), 42);
    }

    #[test]
    fn crash_after_zero_step_op_records_no_duplicate() {
        // Zero-primitive ops complete on submission, so a crash right
        // after them finds nothing in flight: one completed record per
        // op, never a pending duplicate.
        let mut d = Driver::coop(Runtime::coop(2));
        for ret in [42, 43] {
            d.submit_task(0, OpSpec::custom("noop", 0), ImmediateOp::new(move |_| ret));
        }
        d.crash(0);
        assert_eq!(d.completed_of(0), 2, "zero-primitive ops complete");
        assert_eq!(d.history().len(), 2, "exactly one record per op");
        assert!(d.history().ops().iter().all(|r| r.resp.is_some()));
    }

    #[test]
    fn crash_right_after_submit_is_deterministic() {
        // The op's priming poll parks it before its first primitive;
        // crash() surfaces the pending record, and no primitive ran.
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::inc(), RmwTask::new(reg.clone(), 1));
        d.crash(0);
        assert_eq!(d.completed_of(0), 0);
        assert_eq!(d.history().len(), 1, "pending record surfaced");
        let rec = &d.history().ops()[0];
        assert_eq!(rec.resp, None);
        assert_eq!(rec.kind, OpKind::Inc { amount: 1 });
        assert_eq!(reg.peek(), 0, "no primitive was granted");
    }

    #[test]
    #[should_panic(expected = "submit to crashed process 0")]
    fn submit_to_crashed_process_panics() {
        // Crashed mid-operation: the parked op stays pending, and no
        // further op is accepted.
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::inc(), RmwTask::new(reg.clone(), 1));
        assert_eq!(d.step(0), StepOutcome::Stepped);
        d.crash(0);
        d.submit_task(0, OpSpec::inc(), RmwTask::new(reg, 1));
    }

    #[test]
    #[should_panic(expected = "submit to crashed process 0")]
    fn submit_to_crashed_process_panics_on_coop_backend_too() {
        // An idle crashed process refuses work just the same.
        let rt = Runtime::coop(2);
        let mut d = Driver::coop(rt);
        d.crash(0);
        d.submit_task(0, OpSpec::inc(), crate::task::ImmediateOp::new(|_| 0));
    }

    #[test]
    fn crash_mid_op_then_later_ops_never_invoked() {
        // Ops queued behind the suspended one must not generate records.
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        for i in 0..3 {
            d.submit_task(0, OpSpec::custom("w", i), RmwTask::new(reg.clone(), 1));
        }
        assert_eq!(d.step(0), StepOutcome::Stepped);
        d.crash(0);
        assert_eq!(d.history().len(), 1, "only the started op is visible");
        assert_eq!(d.history().ops()[0].resp, None);
        assert_eq!(
            d.history().ops()[0].kind,
            OpKind::Custom {
                label: "w",
                arg: 0,
                ret: 0
            },
            "it is the first op"
        );
        assert_eq!(
            d.history().ops()[0].steps,
            1,
            "the pending record reports the step the op performed"
        );
        assert_eq!(d.history().total_steps(), d.runtime().total_steps());
    }

    #[test]
    fn mid_operation_suspension() {
        // Process 0 is suspended after its first primitive; process 1
        // completes; the suspended op finishes only at Driver drop.
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(10));
        let two_steps = OpSpec::custom("two-steps", 0);
        d.submit_task(0, two_steps, RmwTask::new(reg.clone(), 1));
        // Reads 10, writes 10 + 89.
        d.submit_task(1, OpSpec::write(99), RmwTask::new(reg.clone(), 89));
        assert_eq!(d.step(0), StepOutcome::Stepped); // 0 read 10, now parked
        d.run_solo(1); // 1 writes 99
        assert_eq!(reg.peek(), 99);
        drop(d); // finishes 0, which writes 10 + 1
        assert_eq!(reg.peek(), 11);
    }

    #[test]
    fn snapshot_surfaces_suspended_op_and_final_history_completes_it() {
        // A process suspended mid-operation (never crashed, never
        // rescheduled so far) is invisible to `history()` but must
        // appear as a pending record in `history_snapshot()`; once the
        // schedule resumes it, the final history records the completion
        // and a fresh snapshot has no pending residue.
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::inc(), RmwTask::new(reg.clone(), 1));
        // Reads, then writes back what it read.
        d.submit_task(1, OpSpec::read(), RmwTask::new(reg.clone(), 0));
        assert_eq!(d.step(0), StepOutcome::Stepped); // 0 read, parked at write
        d.run_solo(1);

        assert_eq!(d.history().len(), 1, "only the completed read");
        let snap = d.history_snapshot();
        assert_eq!(snap.len(), 2, "snapshot adds the suspended inc");
        let pending: Vec<_> = snap.ops().iter().filter(|r| r.resp.is_none()).collect();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].pid, 0);
        assert_eq!(pending[0].kind, OpKind::Inc { amount: 1 });
        assert_eq!(pending[0].steps, 1, "one primitive performed so far");

        // Resume the suspended process: the op completes normally.
        d.run_solo(0);
        assert_eq!(d.completed_of(0), 1);
        let snap = d.history_snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.ops().iter().all(|r| r.resp.is_some()));
    }

    #[test]
    fn snapshot_waits_for_worker_to_reach_a_stable_point() {
        // Immediately after submit the op is parked before its first
        // primitive — already the stable point a snapshot cuts at — so
        // its pending record is surfaced.
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::inc(), RmwTask::new(reg, 1));
        let snap = d.history_snapshot();
        assert_eq!(snap.len(), 1, "pending record surfaced");
        assert_eq!(snap.ops()[0].resp, None);
        assert_eq!(d.history().len(), 0, "plain history untouched");
    }

    #[test]
    fn scripted_schedule_controls_interleaving() {
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        for pid in 0..2 {
            d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 10));
        }
        // p0 fully, then p1 fully: no lost update.
        d.run_solo(0);
        d.run_solo(1);
        assert_eq!(reg.peek(), 20);
    }

    /// Minimal task: read a register, then write `v + delta`, returning
    /// the read value — two primitives, written to the poll contract.
    struct RmwTask {
        reg: Arc<Register>,
        delta: u64,
        read: Option<u64>,
        primed: bool,
    }

    impl RmwTask {
        fn new(reg: Arc<Register>, delta: u64) -> Self {
            RmwTask {
                reg,
                delta,
                read: None,
                primed: false,
            }
        }
    }

    impl OpTask for RmwTask {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            if !self.primed {
                self.primed = true;
                return Poll::Pending;
            }
            match self.read {
                None => {
                    self.read = Some(self.reg.read(ctx));
                    Poll::Pending
                }
                Some(v) => {
                    self.reg.write(ctx, v + self.delta);
                    Poll::Ready(u128::from(v))
                }
            }
        }
    }

    #[test]
    fn coop_round_robin_matches_thread_semantics() {
        let rt = Runtime::coop(3);
        let mut d = Driver::coop(rt.clone());
        let reg = Arc::new(Register::new(0));
        for pid in 0..3 {
            d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
        }
        let steps = d.run_schedule(&mut RoundRobin::new());
        assert_eq!(steps, 6, "3 processes x 2 primitives");
        assert_eq!(reg.peek(), 1, "round-robin loses updates identically");
        assert_eq!(rt.total_steps(), 6);
        for rec in d.history().ops() {
            assert_eq!(rec.returned(), 0);
            assert_eq!(rec.steps, 2);
            assert!(rec.resp.is_some());
        }
    }

    #[test]
    fn coop_crash_and_snapshot_semantics() {
        let rt = Runtime::coop(2);
        let mut d = Driver::coop(rt);
        let reg = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::inc(), RmwTask::new(reg.clone(), 1));
        d.submit_task(1, OpSpec::read(), RmwTask::new(reg.clone(), 0));

        assert_eq!(d.step(0), StepOutcome::Stepped); // read applied, parked at write

        // Both in-flight ops surface as pending records: pid 0 one step
        // in, pid 1 parked by its priming poll but never granted a step.
        let snap = d.history_snapshot();
        assert_eq!(snap.len(), 2);
        let by_pid = |p: usize| snap.ops().iter().find(|r| r.pid == p).unwrap().clone();
        assert_eq!(by_pid(0).resp, None);
        assert_eq!(by_pid(0).steps, 1);
        assert_eq!(by_pid(1).resp, None);
        assert_eq!(by_pid(1).steps, 0);

        d.crash(0);
        assert_eq!(d.history().len(), 1, "pending record surfaced by crash");
        assert_eq!(d.history().ops()[0].kind, OpKind::Inc { amount: 1 });
        assert!(!d.active_pids().contains(&0));

        d.run_solo(1);
        assert_eq!(d.completed_of(1), 1, "survivor unaffected");
    }

    #[test]
    fn coop_drop_finishes_suspended_ops() {
        let rt = Runtime::coop(1);
        let mut d = Driver::coop(rt);
        let reg = Arc::new(Register::new(10));
        d.submit_task(
            0,
            OpSpec::custom("two-steps", 0),
            RmwTask::new(reg.clone(), 1),
        );
        assert_eq!(d.step(0), StepOutcome::Stepped); // read 10, parked at write
        drop(d);
        assert_eq!(reg.peek(), 11, "suspended op completed at teardown");
    }

    #[test]
    fn coop_zero_step_tasks_complete_without_grants() {
        let rt = Runtime::coop(2);
        let mut d = Driver::coop(rt);
        d.submit_task(
            0,
            OpSpec::custom("noop", 0),
            crate::task::ImmediateOp::new(|_| 42),
        );
        d.crash(0);
        assert_eq!(d.completed_of(0), 1, "zero-primitive op completes");
        assert_eq!(d.history().len(), 1);
        assert!(d.history().ops()[0].resp.is_some());
        assert_eq!(d.history().ops()[0].returned(), 42);
    }

    #[test]
    fn coop_free_wait_all_completes_everything() {
        let rt = Runtime::coop_free(4);
        let mut d = Driver::coop_free(rt.clone());
        let reg = Arc::new(Register::new(0));
        for pid in 0..4 {
            d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
        }
        d.wait_all();
        assert_eq!(d.history().len(), 4);
        assert!(d.history().ops().iter().all(|r| r.resp.is_some()));
        assert_eq!(rt.total_steps(), 8, "4 processes x 2 primitives");
        // Batch order is ascending pid per round — exactly the gated
        // round-robin interleaving, which loses all but one update.
        assert_eq!(reg.peek(), 1);
        for rec in d.history().ops() {
            assert_eq!(rec.returned(), 0);
            assert_eq!(rec.steps, 2);
        }
    }

    #[test]
    fn coop_free_matches_gated_round_robin() {
        let gated = {
            let reg = Arc::new(Register::new(0));
            let mut d = Driver::coop(Runtime::coop(3));
            for pid in 0..3 {
                d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
            }
            d.run_schedule(&mut RoundRobin::new());
            (reg.peek(), d.take_history().sorted_by_invocation())
        };
        let free = {
            let reg = Arc::new(Register::new(0));
            let mut d = Driver::coop_free(Runtime::coop_free(3));
            for pid in 0..3 {
                d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
            }
            d.wait_all();
            (reg.peek(), d.take_history().sorted_by_invocation())
        };
        assert_eq!(gated.0, free.0, "shared memory diverged");
        assert_eq!(gated.1, free.1, "histories diverged");
    }

    #[test]
    fn coop_free_seeded_rounds_are_replayable() {
        let run = |seed: u64| -> (u64, Vec<u128>) {
            let reg = Arc::new(Register::new(0));
            let mut d = Driver::coop_free_seeded(Runtime::coop_free(8), seed);
            for pid in 0..8 {
                d.submit_task(pid, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
            }
            d.wait_all();
            let h = d.take_history().sorted_by_invocation();
            (reg.peek(), h.iter().map(|r| r.returned()).collect())
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
    }

    #[test]
    fn coop_free_zero_step_ops_complete_without_rounds() {
        let rt = Runtime::coop_free(2);
        let mut d = Driver::coop_free(rt);
        d.submit_task(
            0,
            OpSpec::custom("noop", 0),
            crate::task::ImmediateOp::new(|_| 7),
        );
        d.wait_all();
        assert_eq!(d.history().len(), 1);
        assert_eq!(d.history().ops()[0].returned(), 7);
    }

    #[test]
    fn coop_free_supports_multiple_wait_all_batches() {
        let rt = Runtime::coop_free(2);
        let mut d = Driver::coop_free(rt);
        let reg = Arc::new(Register::new(0));
        for round in 0..3 {
            for pid in 0..2 {
                d.submit_task(
                    pid,
                    OpSpec::custom("rmw", round),
                    RmwTask::new(reg.clone(), 1),
                );
            }
            d.wait_all();
        }
        assert_eq!(d.history().len(), 6);
        assert!(d.active_pids().is_empty());
    }

    #[test]
    #[should_panic(expected = "crash() requires a gated runtime")]
    fn coop_free_rejects_crash() {
        let mut d = Driver::coop_free(Runtime::coop_free(2));
        d.crash(0);
    }

    #[test]
    #[should_panic(expected = "requires a gated coop runtime")]
    fn gated_coop_constructor_rejects_free_runtime() {
        let _ = Driver::coop(Runtime::coop_free(2));
    }

    #[test]
    #[should_panic(expected = "requires a free-running coop runtime")]
    fn free_coop_constructor_rejects_gated_runtime() {
        let _ = Driver::coop_free(Runtime::coop(2));
    }

    #[test]
    fn tasks_run_on_the_thread_backend_too() {
        // One worker runs a process's ops one after another, so two
        // read-modify-writes on one pid lose nothing.
        let mut d = Driver::new(Runtime::free_running(2));
        let reg = Arc::new(Register::new(0));
        for _ in 0..2 {
            d.submit_task(0, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 10));
        }
        d.wait_all();
        assert_eq!(reg.peek(), 20, "sequential tasks lose nothing");
        assert_eq!(d.history().len(), 2);
    }

    /// What the thread backend's workers did with their jobs; atomics,
    /// since the jobs run and drop on the worker threads.
    #[derive(Default)]
    struct JobCounts {
        tasks_completed: AtomicUsize,
        tasks_dropped: AtomicUsize,
        closures_run: AtomicUsize,
    }

    impl JobCounts {
        fn read(&self) -> [usize; 3] {
            [
                self.tasks_completed.load(Ordering::SeqCst),
                self.tasks_dropped.load(Ordering::SeqCst),
                self.closures_run.load(Ordering::SeqCst),
            ]
        }
    }

    /// An [`RmwTask`] that counts its completion and its drop.
    struct CountedTask {
        rmw: RmwTask,
        counts: Arc<JobCounts>,
    }

    impl OpTask for CountedTask {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            let polled = self.rmw.poll(ctx);
            if polled.is_ready() {
                self.counts.tasks_completed.fetch_add(1, Ordering::SeqCst);
            }
            polled
        }
    }

    impl Drop for CountedTask {
        fn drop(&mut self) {
            self.counts.tasks_dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn thread_backend_runs_each_job_once_and_drops_each_task_once() {
        const PER_PID: usize = 3;
        let counts = Arc::new(JobCounts::default());
        let reg = Arc::new(Register::new(0));
        let submit_round = |d: &mut Driver| {
            for pid in 0..2 {
                for _ in 0..PER_PID {
                    let task = CountedTask {
                        rmw: RmwTask::new(reg.clone(), 1),
                        counts: counts.clone(),
                    };
                    d.submit_task(pid, OpSpec::inc(), task);
                    let counts = counts.clone();
                    d.submit(pid, OpSpec::read(), move |_| {
                        counts.closures_run.fetch_add(1, Ordering::SeqCst);
                        0
                    });
                }
            }
        };
        let rt = Runtime::free_running(2);
        // An analysis sink stays active until teardown seals it, which
        // lets a job wait for teardown to begin.
        rt.attach_analysis(Analyzer::new(Vec::new()));
        let mut d = Driver::new(rt.clone());

        // Collected by `wait_all`.
        submit_round(&mut d);
        d.wait_all();
        assert_eq!(d.history().len(), 4 * PER_PID);
        let done = 2 * PER_PID;
        assert_eq!(counts.read(), [done, done, done]);

        // Dropped while queued: each worker holds in a closure until
        // teardown begins, so the round behind it is still queued when
        // the driver drops without `wait_all`.
        for pid in 0..2 {
            let rt = rt.clone();
            d.submit(pid, OpSpec::read(), move |_| {
                while rt.trace_active() {
                    std::thread::yield_now();
                }
                0
            });
        }
        submit_round(&mut d);
        drop(d);
        let done = 4 * PER_PID;
        assert_eq!(counts.read(), [done, done, done]);
    }

    /// Applies two primitives in one granted poll (read, then write
    /// `v + 1`): a poll-contract violation.
    struct Greedy {
        reg: Arc<Register>,
        primed: bool,
    }

    impl OpTask for Greedy {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            if !self.primed {
                self.primed = true;
                return Poll::Pending;
            }
            let v = self.reg.read(ctx);
            self.reg.write(ctx, v + 1); // second primitive: contract violation
            Poll::Ready(0)
        }
    }

    #[test]
    #[should_panic(expected = "exactly one primitive")]
    fn coop_detects_multi_primitive_polls() {
        let rt = Runtime::coop(1);
        let mut d = Driver::coop(rt);
        d.submit_task(
            0,
            OpSpec::custom("greedy", 0),
            Greedy {
                reg: Arc::new(Register::new(0)),
                primed: false,
            },
        );
        let _ = d.step(0);
    }

    /// Applies a primitive in its priming poll: a poll-contract
    /// violation.
    struct Eager {
        reg: Arc<Register>,
    }

    impl OpTask for Eager {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            Poll::Ready(u128::from(self.reg.read(ctx)))
        }
    }

    #[test]
    #[should_panic(expected = "the priming poll applied a primitive")]
    fn coop_detects_a_priming_primitive_at_submit() {
        let mut d = Driver::coop(Runtime::coop(1));
        d.submit_task(
            0,
            OpSpec::custom("eager", 0),
            Eager {
                reg: Arc::new(Register::new(0)),
            },
        );
    }

    /// Parks on every poll without applying a primitive: a granted poll
    /// that applies none.
    struct Idle;

    impl OpTask for Idle {
        fn poll(&mut self, _ctx: &ProcCtx) -> Poll<u128> {
            Poll::Pending
        }
    }

    #[test]
    #[should_panic(expected = "exactly one primitive, got 0")]
    fn coop_detects_a_granted_poll_without_a_primitive() {
        let mut d = Driver::coop(Runtime::coop(1));
        d.submit_task(0, OpSpec::custom("idle", 0), Idle);
        let _ = d.step(0);
    }

    #[test]
    #[should_panic(expected = "exactly one primitive, got 2")]
    fn coop_free_detects_multi_primitive_polls() {
        let mut d = Driver::coop_free(Runtime::coop_free(1));
        d.submit_task(
            0,
            OpSpec::custom("greedy", 0),
            Greedy {
                reg: Arc::new(Register::new(0)),
                primed: false,
            },
        );
        d.wait_all();
    }

    #[test]
    fn coop_step_records_its_one_primitive() {
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
        assert!(d.touched().is_empty(), "a priming poll applies nothing");
        let r = reg.obj_id();
        assert_eq!(d.step(0), StepOutcome::Stepped);
        assert_eq!(&*d.touched(), &[(r, AccessKind::Read)]);
        assert_eq!(d.step(0), StepOutcome::Stepped);
        assert_eq!(&*d.touched(), &[(r, AccessKind::Write)]);
    }

    #[test]
    fn coop_step_with_nothing_parked_records_nothing() {
        let mut d = Driver::coop(Runtime::coop(2));
        let reg = Arc::new(Register::new(0));
        d.submit_task(1, OpSpec::custom("rmw", 0), RmwTask::new(reg.clone(), 1));
        assert_eq!(d.step(1), StepOutcome::Stepped);
        assert_eq!(d.touched().len(), 1);
        assert_eq!(d.step(0), StepOutcome::Completed, "pid 0 has no work");
        assert!(d.touched().is_empty(), "the earlier step's record is gone");
    }

    #[test]
    fn coop_crash_logs_exactly_one_crash_edge() {
        let rt = Runtime::coop(2);
        let mut d = Driver::coop(rt.clone());
        let reg = Arc::new(Register::new(0));
        for pid in 0..2 {
            d.submit_task(pid, OpSpec::inc(), RmwTask::new(reg.clone(), 1));
        }
        rt.enable_tracing();
        assert_eq!(d.step(0), StepOutcome::Stepped);
        assert!(!rt.take_trace().is_empty(), "the step was traced");
        d.crash(1);
        let log = rt.take_trace();
        assert!(
            matches!(log[..], [TraceEvent::Crash { pid: 1, .. }]),
            "{log:?}"
        );
    }
}
