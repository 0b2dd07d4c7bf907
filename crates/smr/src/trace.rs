//! Optional execution tracing: a global, ordered event stream of
//! primitive applications and controller decisions, used by the
//! lower-bound experiments (awareness-set computation per Definition
//! III.2/III.3) and by the online analysis passes ([`crate::analysis`]).
//!
//! Tracing is designed for *gated* executions, where steps are already
//! fully serialized; the stream order then equals the execution order.
//! It works in free-running mode too, but the order is then merely one
//! valid linear order of the (SeqCst) primitives, and the
//! controller-side events ([`TraceEvent::Invoke`],
//! [`TraceEvent::Complete`], [`TraceEvent::Grant`],
//! [`TraceEvent::Crash`]) are absent.
//!
//! The stream has two consumers, independently switchable:
//!
//! * the **log** ([`Runtime::enable_tracing`](crate::Runtime)) — events
//!   are buffered and drained with
//!   [`take_trace`](crate::Runtime::take_trace);
//! * an **analysis sink**
//!   ([`Runtime::attach_analysis`](crate::Runtime)) — events are pushed
//!   into the attached [`Analyzer`](crate::analysis::Analyzer) as they
//!   happen.
//!
//! With neither active, emission is a single relaxed load and nothing
//! else — tracing is zero-cost when off.

use crate::analysis::Analyzer;
use crate::history::OpKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The primitive applied by a traced step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A trivial primitive: never changes the object.
    Read,
    /// A nontrivial historyless primitive: overwrites unconditionally.
    Write,
    /// `test&set`: reads and overwrites (historyless).
    TestAndSet,
    /// `fetch&add` (baseline only; not in the paper's primitive set).
    FetchAdd,
}

impl AccessKind {
    /// `true` if the primitive may change the object's value.
    pub fn is_nontrivial(self) -> bool {
        !matches!(self, AccessKind::Read)
    }

    /// `true` if the issuing process learns the object's value.
    pub fn is_reading(self) -> bool {
        !matches!(self, AccessKind::Write)
    }
}

/// One primitive application, as recorded in the trace.
///
/// `before`/`after` are the object's state *digests* immediately around
/// the application (the raw `u64` for word-sized objects, a hash for
/// wide ones), recorded by the primitive itself while it holds its step
/// permit — the ground truth the access-kind conformance pass checks
/// declarations against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Position in the recorded order (0-based).
    pub seq: u64,
    /// Issuing process.
    pub pid: usize,
    /// Base-object identity (its address; stable for the object's life).
    pub obj: usize,
    /// Which primitive was applied.
    pub kind: AccessKind,
    /// Object state digest immediately before the application.
    pub before: u64,
    /// Object state digest immediately after the application.
    pub after: u64,
}

/// One event of the execution, as recorded in the trace.
///
/// Primitive applications ([`TraceEvent::Access`]) are recorded by the
/// issuing process; invocations, completions, step grants and crashes
/// are controller-side edges recorded by the execution backends and the
/// [`Driver`](crate::Driver). In a gated coop execution the stream is
/// totally ordered and equals the execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A primitive application.
    Access(Access),
    /// An operation's invocation was announced (gated mode).
    Invoke {
        /// Position in the recorded order.
        seq: u64,
        /// Invoking process.
        pid: usize,
        /// The operation, with a placeholder return value (`ret = 0`):
        /// the result is unknown at invocation time. Passes that only
        /// need the name use [`OpKind::label`](crate::OpKind::label).
        kind: OpKind,
        /// The invocation's logical timestamp.
        inv: u64,
    },
    /// An operation completed (gated mode).
    Complete {
        /// Position in the recorded order.
        seq: u64,
        /// Completing process.
        pid: usize,
        /// The operation, carrying its actual return value — enough
        /// for a linearizability pass to reconstruct the op record.
        kind: OpKind,
        /// The response's logical timestamp.
        resp: u64,
    },
    /// The controller granted `pid` one primitive step.
    Grant {
        /// Position in the recorded order.
        seq: u64,
        /// Granted process.
        pid: usize,
    },
    /// The controller crashed `pid`: it is never scheduled again.
    Crash {
        /// Position in the recorded order.
        seq: u64,
        /// Crashed process.
        pid: usize,
    },
}

impl TraceEvent {
    /// Position in the recorded order.
    pub fn seq(&self) -> u64 {
        match *self {
            TraceEvent::Access(Access { seq, .. })
            | TraceEvent::Invoke { seq, .. }
            | TraceEvent::Complete { seq, .. }
            | TraceEvent::Grant { seq, .. }
            | TraceEvent::Crash { seq, .. } => seq,
        }
    }

    /// The process this event belongs to.
    pub fn pid(&self) -> usize {
        match *self {
            TraceEvent::Access(Access { pid, .. })
            | TraceEvent::Invoke { pid, .. }
            | TraceEvent::Complete { pid, .. }
            | TraceEvent::Grant { pid, .. }
            | TraceEvent::Crash { pid, .. } => pid,
        }
    }

    /// The primitive application, for [`TraceEvent::Access`] events.
    pub fn access(&self) -> Option<&Access> {
        match self {
            TraceEvent::Access(a) => Some(a),
            _ => None,
        }
    }
}

/// The primitive applications of `trace`, in order — the view the
/// awareness-set computation and the step-signature tests consume.
pub fn accesses(trace: &[TraceEvent]) -> Vec<Access> {
    trace.iter().filter_map(|e| e.access()).copied().collect()
}

/// The trace collector owned by a [`Runtime`](crate::Runtime).
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    /// `log_enabled || (sink attached && !sealed)` — the one flag the
    /// emission fast path loads.
    active: AtomicBool,
    log_enabled: AtomicBool,
    sealed: AtomicBool,
    seq: AtomicU64,
    log: Mutex<Vec<TraceEvent>>,
    sink: OnceLock<Arc<Analyzer>>,
}

impl Tracer {
    /// Emit one event: `build` receives the allocated sequence number.
    /// The closure runs only when a consumer is active.
    #[inline]
    pub(crate) fn emit(&self, build: impl FnOnce(u64) -> TraceEvent) {
        // relaxed-ok: a pure on/off flag; emission order comes from the
        // seq-cst sequence draw (and, on coop runs, the one controller
        // thread), not from this load.
        if !self.active.load(Ordering::Relaxed) {
            return;
        }
        self.emit_slow(build);
    }

    #[cold]
    fn emit_slow(&self, build: impl FnOnce(u64) -> TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let ev = build(seq);
        if let Some(analyzer) = self.sink.get() {
            if !self.sealed.load(Ordering::SeqCst) {
                analyzer.on_event(&ev);
            }
        }
        if self.log_enabled.load(Ordering::SeqCst) {
            self.log.lock().push(ev);
        }
    }

    /// `true` while any consumer (log or live sink) is active.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        // relaxed-ok: same on/off flag as in `emit`.
        self.active.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.log_enabled.store(on, Ordering::SeqCst);
        self.refresh_active();
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.log_enabled.load(Ordering::SeqCst)
    }

    /// Attach the analysis sink. At most one per tracer, ever.
    pub(crate) fn attach(&self, analyzer: Arc<Analyzer>) {
        if self.sink.set(analyzer).is_err() {
            panic!("an analyzer is already attached to this runtime");
        }
        self.refresh_active();
    }

    pub(crate) fn sink(&self) -> Option<&Arc<Analyzer>> {
        self.sink.get()
    }

    /// Permanently stop feeding the analysis sink: called at the start
    /// of backend teardown, where suspended operations are polled to
    /// completion *outside* the modelled execution — that noise must not
    /// reach the passes. The log keeps working (post-teardown traces are
    /// an explicit debugging feature of free-running mode).
    pub(crate) fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
        self.refresh_active();
    }

    fn refresh_active(&self) {
        let sink_live = self.sink.get().is_some() && !self.sealed.load(Ordering::SeqCst);
        self.active.store(
            self.log_enabled.load(Ordering::SeqCst) || sink_live,
            Ordering::SeqCst,
        );
    }

    pub(crate) fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.log.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(t: &Tracer, pid: usize, obj: usize, kind: AccessKind) {
        t.emit(|seq| {
            TraceEvent::Access(Access {
                seq,
                pid,
                obj,
                kind,
                before: 0,
                after: 0,
            })
        });
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        access(&t, 0, 1, AccessKind::Read);
        assert!(t.take().is_empty());
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let t = Tracer::default();
        t.set_enabled(true);
        access(&t, 0, 10, AccessKind::Write);
        access(&t, 1, 10, AccessKind::Read);
        let log = t.take();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].seq(), 0);
        assert_eq!(log[0].access().unwrap().kind, AccessKind::Write);
        assert_eq!(log[1].pid(), 1);
        assert!(t.take().is_empty(), "take drains");
    }

    #[test]
    fn seq_survives_disable_reenable() {
        let t = Tracer::default();
        t.set_enabled(true);
        access(&t, 0, 1, AccessKind::Read);
        t.set_enabled(false);
        access(&t, 0, 1, AccessKind::Read); // unrecorded, draws no seq
        t.set_enabled(true);
        access(&t, 0, 1, AccessKind::Read);
        let log = t.take();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].seq(), 1, "seq counts emitted events only");
    }

    #[test]
    fn accesses_filters_controller_events() {
        let t = Tracer::default();
        t.set_enabled(true);
        t.emit(|seq| TraceEvent::Grant { seq, pid: 0 });
        access(&t, 0, 1, AccessKind::Write);
        t.emit(|seq| TraceEvent::Crash { seq, pid: 0 });
        let log = t.take();
        assert_eq!(log.len(), 3);
        let acc = accesses(&log);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].kind, AccessKind::Write);
    }

    #[test]
    fn kind_classification() {
        assert!(!AccessKind::Read.is_nontrivial());
        assert!(AccessKind::Write.is_nontrivial());
        assert!(AccessKind::TestAndSet.is_nontrivial());
        assert!(AccessKind::Read.is_reading());
        assert!(!AccessKind::Write.is_reading());
        assert!(AccessKind::TestAndSet.is_reading());
    }
}
