//! Online trace-analysis passes: machinery that *verifies* the runtime
//! contracts the rest of the repo silently trusts.
//!
//! Every correctness claim downstream of `smr` — the explorer's
//! commuting-step pruning, the monotone sweep's real-time precedence
//! order, the sketch envelopes checked on every interleaving — rests on
//! three contracts:
//!
//! 1. **Poll discipline** — a granted poll applies exactly one
//!    primitive; a priming poll applies none ([`PollDiscipline`]).
//! 2. **Access-kind conformance** — each step's declared [`AccessKind`]
//!    matches its actual effect on the object ([`Conformance`], plus the
//!    replay-based [`commutation_audit`](crate::analysis::commutation_audit)
//!    that checks the explorer's independence relation directly).
//! 3. **Happens-before soundness** — the grant/ticket order the checkers
//!    consume is consistent with the happens-before partial order of the
//!    execution ([`HappensBefore`]).
//!
//! An [`Analyzer`] bundles passes and attaches to a
//! [`Runtime`](crate::Runtime) via
//! [`attach_analysis`](crate::Runtime::attach_analysis); from then on
//! every [`TraceEvent`] is pushed into each pass *online*, during any
//! [`Driver`](crate::Driver) run and during every
//! [`explore`](crate::explore) replay (the explorer consults an attached
//! analyzer after each checked cut and reports its violations exactly
//! like checker rejections). Events arrive in batches
//! ([`AnalysisPass::on_events`]), one analyzer lock per batch; a gated
//! coop run delivers every batch before a `Driver` call returns. When
//! no analyzer is attached and the trace log is off, the event stream
//! costs one relaxed load per primitive — zero-cost when disabled
//! (measured: `exp_scale`'s `analysis` rows against their plain twins
//! in `BENCH_scale.json`).

mod commute;
mod conformance;
mod hb;
mod poll;

pub use commute::{commutation_audit, independent, CommuteConfig, StepMeta};
pub use conformance::Conformance;
pub use hb::HappensBefore;
pub(crate) use hb::Vc;
pub use poll::PollDiscipline;

use crate::trace::TraceEvent;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Facts about the run an [`Analyzer`] is attached to, handed to each
/// pass before the first event.
#[derive(Debug, Clone, Copy)]
pub struct RunMeta {
    /// Number of processes.
    pub n: usize,
    /// `true` for gated runtimes ([`Runtime::coop`](crate::Runtime::coop)):
    /// the event stream is serialized in execution order, grants are
    /// recorded, and invocation/completion events are emitted by the
    /// one controller, in ticket order.
    pub gated: bool,
}

/// One finding of an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The pass that produced the finding.
    pub pass: &'static str,
    /// The offending process, when attributable.
    pub pid: Option<usize>,
    /// Trace sequence number of the offending event, when attributable.
    pub seq: Option<u64>,
    /// Human-readable diagnosis naming the machine (operation label) and
    /// step.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.pass)?;
        if let Some(pid) = self.pid {
            write!(f, "pid {pid}: ")?;
        }
        write!(f, "{}", self.message)?;
        if let Some(seq) = self.seq {
            write!(f, " (trace seq {seq})")?;
        }
        Ok(())
    }
}

/// A pluggable online analysis pass over the [`TraceEvent`] stream.
///
/// Passes are driven strictly in event order (the tracer serializes
/// emission); they keep their own state and report accumulated findings
/// from [`finish`](AnalysisPass::finish).
pub trait AnalysisPass: Send {
    /// Stable pass name, used in [`Violation::pass`].
    fn name(&self) -> &'static str;

    /// Called once, before any event, with facts about the run.
    fn on_attach(&mut self, _meta: &RunMeta) {}

    /// Called for every trace event, in stream order.
    fn on_event(&mut self, ev: &TraceEvent);

    /// Called for each batch of consecutive trace events, in stream
    /// order. The tracer delivers a batch at a time: a gated coop run's
    /// controller events and accesses arrive up to about a thousand at
    /// once, other events one by one. The default hands each event to
    /// [`on_event`](AnalysisPass::on_event).
    fn on_events(&mut self, evs: &[TraceEvent]) {
        for ev in evs {
            self.on_event(ev);
        }
    }

    /// Close the pass and report its findings. Called once.
    fn finish(&mut self) -> Vec<Violation>;

    /// An optional one-line operational notice about how the pass ran —
    /// coverage it dropped, say — as opposed to `finish`'s *verdicts*,
    /// for run summaries ([`Analyzer::summaries`]). No pass in the tree
    /// has one: a pass that cannot check the rest of a stream exactly
    /// reports a violation instead (`lincheck`'s linearizability pass
    /// on a broken ticket order).
    fn summary(&self) -> Option<String> {
        None
    }
}

struct Inner {
    passes: Vec<Box<dyn AnalysisPass>>,
    /// Cached report once [`Analyzer::finish`] ran; later events are
    /// ignored (teardown noise is additionally cut off by the tracer's
    /// seal).
    report: Option<Vec<Violation>>,
}

/// A bundle of [`AnalysisPass`]es attached to one runtime.
///
/// ```
/// use smr::analysis::Analyzer;
/// use smr::{Driver, ImmediateOp, OpSpec, Runtime};
///
/// let rt = Runtime::coop(2);
/// rt.attach_analysis(Analyzer::standard());
/// let mut d = Driver::coop(rt.clone());
/// d.submit_task(0, OpSpec::custom("noop", 0), ImmediateOp::new(|_ctx| 0));
/// d.run_solo(0);
/// drop(d);
/// assert!(rt.analysis().unwrap().finish().is_empty());
/// ```
pub struct Analyzer {
    inner: Mutex<Inner>,
}

impl Analyzer {
    /// An analyzer over the given passes.
    pub fn new(passes: Vec<Box<dyn AnalysisPass>>) -> Arc<Analyzer> {
        Arc::new(Analyzer {
            inner: Mutex::new(Inner {
                passes,
                report: None,
            }),
        })
    }

    /// The standard bundle: poll discipline, access-kind conformance,
    /// happens-before audit.
    pub fn standard() -> Arc<Analyzer> {
        Analyzer::new(vec![
            Box::new(PollDiscipline::new()),
            Box::new(Conformance::new()),
            Box::new(HappensBefore::new()),
        ])
    }

    pub(crate) fn attach_meta(&self, meta: RunMeta) {
        let mut inner = self.inner.lock();
        for pass in &mut inner.passes {
            pass.on_attach(&meta);
        }
    }

    /// Hand a batch of consecutive events to every pass, under one
    /// lock.
    pub(crate) fn on_events(&self, evs: &[TraceEvent]) {
        let mut inner = self.inner.lock();
        if inner.report.is_some() {
            return;
        }
        for pass in &mut inner.passes {
            pass.on_events(evs);
        }
    }

    /// Close every pass and return the accumulated findings, most severe
    /// stream-order first. Idempotent: the first call caches the report,
    /// later calls return a clone and events arriving in between are
    /// dropped.
    pub fn finish(&self) -> Vec<Violation> {
        let mut inner = self.inner.lock();
        if inner.report.is_none() {
            let mut all = Vec::new();
            for pass in &mut inner.passes {
                all.extend(pass.finish());
            }
            all.sort_by_key(|v| v.seq.unwrap_or(u64::MAX));
            inner.report = Some(all);
        }
        inner.report.clone().expect("just cached")
    }

    /// `true` once [`finish`](Analyzer::finish) has run.
    pub fn finished(&self) -> bool {
        self.inner.lock().report.is_some()
    }

    /// Operational notices from every pass
    /// ([`AnalysisPass::summary`]) — reports that are not violations,
    /// for inclusion in run summaries. Callable before or after
    /// [`finish`](Analyzer::finish).
    pub fn summaries(&self) -> Vec<String> {
        let inner = self.inner.lock();
        inner
            .passes
            .iter()
            .filter_map(|p| p.summary().map(|s| format!("[{}] {s}", p.name())))
            .collect()
    }
}

impl fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Analyzer")
            .field("passes", &inner.passes.len())
            .field("finished", &inner.report.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountPass {
        events: u64,
    }

    impl AnalysisPass for CountPass {
        fn name(&self) -> &'static str {
            "count"
        }
        fn on_event(&mut self, _ev: &TraceEvent) {
            self.events += 1;
        }
        fn finish(&mut self) -> Vec<Violation> {
            vec![Violation {
                pass: "count",
                pid: None,
                seq: Some(self.events),
                message: format!("{} events", self.events),
            }]
        }
    }

    #[test]
    fn finish_is_idempotent_and_caches() {
        let a = Analyzer::new(vec![Box::new(CountPass { events: 0 })]);
        a.on_events(&[TraceEvent::Grant { seq: 0, pid: 0 }]);
        let first = a.finish();
        assert_eq!(first[0].seq, Some(1));
        // Events after finish are dropped; the report is stable.
        a.on_events(&[TraceEvent::Grant { seq: 1, pid: 0 }]);
        assert_eq!(a.finish(), first);
        assert!(a.finished());
    }

    #[test]
    fn violation_display_names_everything() {
        let v = Violation {
            pass: "poll",
            pid: Some(3),
            seq: Some(17),
            message: "two primitives in one poll".into(),
        };
        let s = v.to_string();
        assert!(s.contains("[poll]"));
        assert!(s.contains("pid 3"));
        assert!(s.contains("seq 17"));
    }
}

/// Seeded-mutant tests that need crate-private access (`ctx.step` is
/// `pub(crate)`, so only in-crate code can build an object that *lies*
/// about its access kind): each mutant must be caught by its pass, end
/// to end through a real coop driver. The poll-contract mutants, which
/// need only the public API, live in `tests/analysis_integration.rs`.
#[cfg(test)]
mod mutant_tests {
    use super::*;
    use crate::history::OpSpec;
    use crate::runtime::Runtime;
    use crate::task::{OpTask, Poll};
    use crate::trace::AccessKind;
    use crate::{Driver, ProcCtx};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// The mutant: `read` declares [`AccessKind::Read`] but actually
    /// increments the cell. Digests are recorded honestly (they are the
    /// ground truth the passes compare the declaration against).
    #[derive(Default)]
    struct LyingRegister {
        cell: AtomicU64,
    }

    impl LyingRegister {
        fn obj_id(&self) -> usize {
            self as *const Self as usize
        }

        /// Declared trivial; actually a fetch&add.
        fn lying_read(&self, ctx: &ProcCtx) -> u64 {
            let permit = ctx.step(self.obj_id(), AccessKind::Read);
            let before = self.cell.fetch_add(1, Ordering::SeqCst);
            if permit.traced() {
                permit.record(before, before.wrapping_add(1));
            }
            before
        }

        /// A genuinely trivial read.
        fn honest_read(&self, ctx: &ProcCtx) -> u64 {
            let permit = ctx.step(self.obj_id(), AccessKind::Read);
            let v = self.cell.load(Ordering::SeqCst);
            if permit.traced() {
                permit.record(v, v);
            }
            v
        }
    }

    /// Two primitives: first read as configured (lying or honest), then
    /// an honest read; returns the *first* value — so the first step
    /// neither completes the op nor draws tickets, making it eligible
    /// for the explorer's independence relation.
    struct TwoReads {
        reg: Arc<LyingRegister>,
        lie_first: bool,
        first: Option<u64>,
        primed: bool,
    }

    impl TwoReads {
        fn new(reg: Arc<LyingRegister>, lie_first: bool) -> Self {
            TwoReads {
                reg,
                lie_first,
                first: None,
                primed: false,
            }
        }
    }

    impl OpTask for TwoReads {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            if !self.primed {
                self.primed = true;
                return Poll::Pending;
            }
            match self.first {
                None => {
                    self.first = Some(if self.lie_first {
                        self.reg.lying_read(ctx)
                    } else {
                        self.reg.honest_read(ctx)
                    });
                    Poll::Pending
                }
                Some(v) => {
                    let _ = self.reg.honest_read(ctx);
                    Poll::Ready(u128::from(v))
                }
            }
        }
    }

    #[test]
    fn conformance_flags_a_mutating_read_end_to_end() {
        let rt = Runtime::coop(1);
        rt.attach_analysis(Analyzer::standard());
        let mut d = Driver::coop(rt.clone());
        d.submit_task(
            0,
            OpSpec::custom("lying-read", 0),
            TwoReads::new(Arc::new(LyingRegister::default()), true),
        );
        d.run_solo(0);
        drop(d);
        let violations = rt.analysis().unwrap().finish();
        let hit = violations
            .iter()
            .find(|v| v.pass == "conformance")
            .unwrap_or_else(|| panic!("conformance must flag the mutant: {violations:?}"));
        assert_eq!(hit.pid, Some(0));
        assert!(
            hit.message.contains("lying-read"),
            "the report names the machine: {hit}"
        );
    }

    #[test]
    fn commutation_audit_catches_the_pair_the_pruner_would_wrongly_trust() {
        // pid 0's first step is the lying read (declared Read, actually
        // an increment); pid 1's first step honestly reads the same
        // cell. Declared kinds make the adjacent pair Read/Read on one
        // object — independent — but transposing them changes what
        // pid 1 observes. The audit must refuse to let the explorer's
        // reduction trust the declaration.
        let violations = commutation_audit(
            || {
                let mut d = Driver::coop(Runtime::coop(2));
                let reg = Arc::new(LyingRegister::default());
                d.submit_task(
                    0,
                    OpSpec::custom("lying-read", 0),
                    TwoReads::new(reg.clone(), true),
                );
                d.submit_task(1, OpSpec::custom("observer", 0), TwoReads::new(reg, false));
                d
            },
            &CommuteConfig::default(),
        );
        assert!(
            !violations.is_empty(),
            "the mis-declared pair must fail the audit"
        );
        assert_eq!(violations[0].pass, "commutation");
        assert!(
            violations[0].message.contains("does not commute"),
            "{}",
            violations[0]
        );
    }

    #[test]
    fn honest_objects_pass_both_checks() {
        // The control: the same program shape with honest declarations
        // is clean under the full standard bundle and the audit.
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(2));
            let reg = Arc::new(LyingRegister::default());
            for pid in 0..2 {
                d.submit_task(
                    pid,
                    OpSpec::custom("observer", 0),
                    TwoReads::new(reg.clone(), false),
                );
            }
            d
        };
        let rt = Runtime::coop(2);
        rt.attach_analysis(Analyzer::standard());
        let mut d = Driver::coop(rt.clone());
        let reg = Arc::new(LyingRegister::default());
        for pid in 0..2 {
            d.submit_task(
                pid,
                OpSpec::custom("observer", 0),
                TwoReads::new(reg.clone(), false),
            );
        }
        d.run_schedule(&mut crate::sched::RoundRobin::new());
        drop(d);
        assert!(rt.analysis().unwrap().finish().is_empty());
        assert!(commutation_audit(factory, &CommuteConfig::default()).is_empty());
    }
}
