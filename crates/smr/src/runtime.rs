//! The [`Runtime`]: per-process step accounting, logical timestamps and
//! the trace stream.

use crate::analysis::{Analyzer, RunMeta};
use crate::ctx::ProcCtx;
use crate::step::pad;
use crate::trace::{TraceEvent, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Execution mode of a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Primitives run at native speed; only step counters are maintained.
    FreeRunning,
    /// Every primitive is granted individually by a controller, giving
    /// fully deterministic interleavings: the coop backend grants a step
    /// by polling the process's task once ([`Runtime::coop`]).
    Gated,
}

/// Per-process step counters. Worker threads hammer these concurrently,
/// so the thread-backed runtime pads each counter to its own cache line;
/// a coop runtime is driven by a single controller thread over up to
/// 10⁶ virtual processes, where 64-byte padding would multiply resident
/// memory eightfold for no contention benefit — it stores them densely.
enum StepCounters {
    Padded(Vec<pad::CachePadded<AtomicU64>>),
    Dense(Vec<AtomicU64>),
}

impl StepCounters {
    fn at(&self, pid: usize) -> &AtomicU64 {
        match self {
            StepCounters::Padded(v) => &v[pid],
            StepCounters::Dense(v) => &v[pid],
        }
    }

    fn total(&self) -> u64 {
        // Exact on coop runtimes (one thread applies every step) and once
        // the workers' completions have been received (channel ordering).
        // relaxed-ok: statistical sum while worker threads run.
        match self {
            StepCounters::Padded(v) => v.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
            StepCounters::Dense(v) => v.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
        }
    }
}

/// The shared-memory machine: `n` process slots, each with a step counter,
/// plus a global logical clock used to timestamp operation histories.
///
/// A `Runtime` is cheap to share (`Arc`) and all of its state is
/// thread-safe; per-process *capabilities* are handed out as [`ProcCtx`]
/// values via [`Runtime::ctx`].
pub struct Runtime {
    n: usize,
    mode: Mode,
    /// Processes are *virtual*, driven cooperatively on the controller
    /// thread (`Driver::coop`, `Driver::coop_free`).
    coop: bool,
    steps: StepCounters,
    ticket: AtomicU64,
    tracer: Tracer,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("n", &self.n)
            .field("mode", &self.mode)
            .field("coop", &self.coop)
            .field("total_steps", &self.total_steps())
            .finish()
    }
}

impl Runtime {
    /// A free-running runtime for `n` processes: one worker thread per
    /// process (`Driver::new`), primitives at native speed, for real
    /// concurrency. Contexts from [`ctx`](Runtime::ctx) also apply
    /// primitives directly on the calling thread.
    pub fn free_running(n: usize) -> Arc<Runtime> {
        Arc::new(Runtime::build(n, Mode::FreeRunning, false))
    }

    /// A gated runtime for `n` *virtual* processes — the deterministic
    /// executor: operations are submitted as [`OpTask`](crate::OpTask)s
    /// and interleaved one primitive per grant on the controller thread
    /// (`Driver::coop`), under any scheduler or a scripted adversary.
    /// Scales to 10⁵–10⁶ processes.
    pub fn coop(n: usize) -> Arc<Runtime> {
        Arc::new(Runtime::build(n, Mode::Gated, true))
    }

    /// A **free-running** runtime over *virtual* processes: as
    /// [`coop`](Runtime::coop), operations are submitted as
    /// [`OpTask`](crate::OpTask)s and run on the controller thread —
    /// but with no grant discipline. The backend batch-polls every
    /// runnable task in rounds (`Driver::coop_free`), trading crash and
    /// suspension control for raw throughput: coop cache locality at
    /// free-running speed. Executions are still deterministic (single
    /// thread, fixed batch order).
    pub fn coop_free(n: usize) -> Arc<Runtime> {
        Arc::new(Runtime::build(n, Mode::FreeRunning, true))
    }

    fn build(n: usize, mode: Mode, coop: bool) -> Runtime {
        assert!(n > 0, "a runtime needs at least one process");
        Runtime {
            n,
            mode,
            coop,
            steps: if coop {
                StepCounters::Dense((0..n).map(|_| AtomicU64::new(0)).collect())
            } else {
                StepCounters::Padded(
                    (0..n)
                        .map(|_| pad::CachePadded::new(AtomicU64::new(0)))
                        .collect(),
                )
            },
            ticket: AtomicU64::new(0),
            tracer: Tracer::default(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// `true` for runtimes built by [`Runtime::coop`] or
    /// [`Runtime::coop_free`]: virtual processes driven cooperatively
    /// on the controller thread, no worker threads.
    pub fn is_coop(&self) -> bool {
        self.coop
    }

    /// The per-process capability used to apply primitives. It acts for
    /// `pid` for its whole life and keeps no access record (only the
    /// coop backend's own context records one).
    ///
    /// # Panics
    /// Panics if `pid >= self.n()`.
    pub fn ctx(self: &Arc<Self>, pid: usize) -> ProcCtx {
        assert!(pid < self.n, "pid {pid} out of range (n = {})", self.n);
        ProcCtx::new(self.clone(), pid)
    }

    /// Steps (primitive applications) performed so far by process `pid`.
    pub fn steps_of(&self, pid: usize) -> u64 {
        // Exact when read by the thread that applies the steps (every
        // coop read) or after receiving the worker completion that
        // follows them (channel ordering).
        // relaxed-ok: monotonic counter (see above).
        self.steps.at(pid).load(Ordering::Relaxed)
    }

    /// Total steps performed by all processes.
    pub fn total_steps(&self) -> u64 {
        self.steps.total()
    }

    /// A fresh logical timestamp; strictly increasing across the runtime.
    pub fn ticket(&self) -> u64 {
        self.ticket.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn count_step(&self, pid: usize) {
        // Coop runtimes count and read on one thread; a worker thread's
        // counts reach the controller ordered by the completion it sends
        // afterwards over the event channel.
        // relaxed-ok: a per-process monotonic counter (see above).
        self.steps.at(pid).fetch_add(1, Ordering::Relaxed);
    }

    /// `true` while any trace consumer (log or analysis sink) is active
    /// — the flag primitives consult before digesting object states.
    #[inline]
    pub(crate) fn trace_active(&self) -> bool {
        self.tracer.is_active()
    }

    /// Emit one event, built with a placeholder seq, if a trace
    /// consumer is active.
    #[inline]
    pub(crate) fn emit_trace(&self, build: impl FnOnce() -> TraceEvent) {
        self.tracer.emit(build);
    }

    /// Deliver events a recording context buffered, numbering them in
    /// buffer order (see [`ProcCtx::flush_trace`]).
    pub(crate) fn deliver_trace(&self, batch: &mut [TraceEvent]) {
        self.tracer.deliver(batch);
    }

    /// Attach an [`Analyzer`]: from now on every trace event is pushed
    /// into its passes online, whether or not the trace *log* is
    /// enabled. At most one analyzer per runtime, ever.
    ///
    /// # Panics
    /// Panics if an analyzer is already attached.
    pub fn attach_analysis(&self, analyzer: Arc<Analyzer>) {
        analyzer.attach_meta(RunMeta {
            n: self.n,
            gated: self.mode == Mode::Gated,
        });
        self.tracer.attach(analyzer);
    }

    /// The attached analyzer, if any.
    pub fn analysis(&self) -> Option<&Arc<Analyzer>> {
        self.tracer.sink()
    }

    /// Stop feeding the analysis sink permanently. Called by backend
    /// teardown (suspended operations are polled to completion outside
    /// the modelled execution; that noise must not reach the passes) —
    /// call it earlier to cut analysis off at a chosen point.
    pub fn seal_analysis(&self) {
        self.tracer.seal();
    }

    /// Start recording every primitive application into the trace log.
    pub fn enable_tracing(&self) {
        self.tracer.set_enabled(true);
    }

    /// Stop recording primitive applications.
    pub fn disable_tracing(&self) {
        self.tracer.set_enabled(false);
    }

    /// `true` while tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Drain and return the trace recorded so far.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.tracer.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_counted_per_process() {
        let rt = Runtime::free_running(3);
        rt.count_step(0);
        rt.count_step(0);
        rt.count_step(2);
        assert_eq!(rt.steps_of(0), 2);
        assert_eq!(rt.steps_of(1), 0);
        assert_eq!(rt.steps_of(2), 1);
        assert_eq!(rt.total_steps(), 3);
    }

    #[test]
    fn tickets_increase() {
        let rt = Runtime::free_running(1);
        let a = rt.ticket();
        let b = rt.ticket();
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ctx_rejects_bad_pid() {
        let rt = Runtime::free_running(2);
        let _ = rt.ctx(2);
    }

    #[test]
    fn coop_runtime_is_gated_without_a_gate() {
        let rt = Runtime::coop(4);
        assert_eq!(rt.mode(), Mode::Gated);
        assert!(rt.is_coop());
        // Primitives on a coop runtime never park; they just count.
        let ctx = rt.ctx(3);
        let reg = crate::Register::new(0);
        reg.write(&ctx, 9);
        assert_eq!(rt.steps_of(3), 1);
    }

    #[test]
    fn coop_free_runtime_is_free_running_without_a_gate() {
        let rt = Runtime::coop_free(4);
        assert_eq!(rt.mode(), Mode::FreeRunning);
        assert!(rt.is_coop());
        // Primitives never park; they just count.
        let ctx = rt.ctx(1);
        let reg = crate::Register::new(0);
        reg.write(&ctx, 5);
        assert_eq!(rt.steps_of(1), 1);
    }

    #[test]
    fn thread_runtimes_are_not_coop() {
        let rt = Runtime::free_running(2);
        assert!(!rt.is_coop());
        assert_eq!(rt.mode(), Mode::FreeRunning);
    }
}
