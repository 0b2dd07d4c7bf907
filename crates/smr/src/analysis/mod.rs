//! Online trace-analysis passes over the live event stream of a gated
//! run.
//!
//! Every correctness claim downstream of `smr` — the step counts the
//! paper bounds, the explorer's commuting-step pruning, the monotone
//! sweep's real-time precedence order — rests on three runtime
//! contracts, and each has exactly one enforcer:
//!
//! 1. **Poll discipline** — a granted poll applies exactly one
//!    primitive; a priming poll applies none. The coop backend asserts
//!    it around every poll and panics on a breach
//!    ([`CoopBackend`](crate::CoopBackend)).
//! 2. **Access-kind conformance** — each step's declared
//!    [`AccessKind`](crate::AccessKind) matches its actual effect on
//!    the object. [`Conformance`] refutes a mis-declared kind online;
//!    it is the standard bundle ([`Analyzer::standard`]).
//! 3. **Ticket order** — invocation and response tickets are drawn in
//!    execution order, per-process operations do not overlap, and no
//!    completion lacks an open invocation. `lincheck`'s linearizability
//!    pass reports any break as a sticky violation.
//!
//! [`PollDiscipline`] and [`HappensBefore`] are outside the standard
//! bundle. The first re-checks the poll contract from the stream and,
//! since the backend panics first, finds nothing on a real run; the
//! second yields racy pairs, which are information, not violations.
//! Both stay public only because perfbench's gated workloads attach
//! them.
//!
//! An [`Analyzer`] bundles passes and attaches to a
//! [`Runtime`](crate::Runtime) via
//! [`attach_analysis`](crate::Runtime::attach_analysis); from then on
//! every [`TraceEvent`] is pushed into each pass *online*, during any
//! [`Driver`](crate::Driver) run and during every
//! [`explore`](fn@crate::explore) replay (the explorer consults an
//! attached analyzer after each checked cut and reports its violations
//! exactly like checker rejections). Events arrive in batches
//! ([`AnalysisPass::on_events`]), one analyzer lock per batch; a gated
//! coop run delivers every batch before a `Driver` call returns. When
//! no analyzer is attached and the trace log is off, the event stream
//! costs one relaxed load per primitive. perfbench prices the passes:
//! `kmaxreg_gated` and `kcounter_audit` run them inline, inside their
//! end-to-end checked ops/s, and its traced ledger times them against a
//! run with no analyzer attached (`analysis.*_s`).

mod conformance;
mod hb;
mod poll;

pub use conformance::Conformance;
pub use hb::HappensBefore;
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

    /// The standard bundle: access-kind conformance, the one runtime
    /// contract a pass enforces (see the [module docs](self)).
    pub fn standard() -> Arc<Analyzer> {
        Analyzer::new(vec![Box::new(Conformance::new())])
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
/// about its access kind): the mutant must be caught by the standard
/// bundle, end to end through a real coop driver and through the
/// explorer. (A poll-contract mutant needs no pass: the coop backend
/// panics on it, as `driver`'s `should_panic` tests pin.)
#[cfg(test)]
mod mutant_tests {
    use super::*;
    use crate::explore::{explore, Choice, ExploreConfig};
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

    /// The mutant pair: pid 0's first step is the lying read, pid 1's
    /// first step honestly reads the same cell. Declared kinds make the
    /// adjacent pair Read/Read on one object — independent — though
    /// transposing them changes what pid 1 observes.
    fn lying_pair(lie: bool) -> Driver<crate::CoopBackend> {
        let rt = Runtime::coop(2);
        rt.attach_analysis(Analyzer::standard());
        let mut d = Driver::coop(rt);
        let reg = Arc::new(LyingRegister::default());
        let label = if lie { "lying-read" } else { "observer" };
        d.submit_task(0, OpSpec::custom(label, 0), TwoReads::new(reg.clone(), lie));
        d.submit_task(1, OpSpec::custom("observer", 0), TwoReads::new(reg, false));
        d
    }

    #[test]
    fn conformance_catches_the_pair_the_pruner_would_wrongly_trust() {
        // The explorer consults the attached analyzer after every
        // checked cut: the mis-declared read that would make DPOR prune
        // a real reordering surfaces as a FoundViolation carrying the
        // conformance diagnosis, minimized like any failing schedule.
        let stats = explore(&ExploreConfig::default(), || lying_pair(true), |_h| Ok(()));
        assert_eq!(stats.interleavings, 1, "found on the first cut");
        assert_eq!(stats.violations.len(), 1);
        let v = &stats.violations[0];
        assert!(
            v.message.contains("[conformance]") && v.message.contains("lying-read"),
            "the explorer reports the pass diagnosis: {}",
            v.message
        );
        assert_eq!(
            v.minimized.choices,
            [Choice::Step(0)],
            "the lying read alone"
        );
    }

    #[test]
    fn honest_objects_pass_both_checks() {
        // The control: the same program with honest declarations passes
        // both of conformance's checks on every interleaving.
        let stats = explore(
            &ExploreConfig::exhaustive(),
            || lying_pair(false),
            |_h| Ok(()),
        );
        assert!(stats.all_ok(), "violations: {:?}", stats.violations);
        assert!(stats.interleavings > 1);
    }
}
