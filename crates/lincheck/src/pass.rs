//! [`LinearizabilityPass`]: the [`OnlineChecker`] packaged as an
//! [`smr::analysis::AnalysisPass`], so any driver run — and every
//! `smr::explore` replay — checks linearizability inline, with
//! findings surfaced (and ddmin-minimized by the explorer) like every
//! other pass finding.
//!
//! # Event-order robustness
//!
//! The checker consumes operations in timestamp order. Every event runs
//! through a bounded reorder buffer (a min-heap on `(timestamp, phase,
//! seq)`) and is released to the checker once the buffer holds more
//! than the run's *reorder depth* of events. The depth comes from the
//! [`RunMeta`] the pass is attached with:
//!
//! * **coop runs: depth 0.** The trace stream already *is*
//!   timestamp-ordered — one controller emits every event, and the
//!   happens-before pass's ticket audit checks that order — so each
//!   event is released the moment it arrives, and the check is exact.
//! * **thread runs: depth [`WINDOW`].** A worker can draw its ticket and
//!   lose the CPU before emitting, so nearby events may appear slightly
//!   out of order in the stream; an event is released only once
//!   [`WINDOW`] newer events are buffered behind it.
//!
//! If the stream raced further than the depth — a released event still
//! lands behind the checker's watermark, or a completion arrives whose
//! announcement was lost — the pass goes *inert* for the rest of the
//! run instead of risking a false report, and says so in its
//! [`summary`](AnalysisPass::summary). Linearizability checking on the
//! thread backend is best-effort by nature, and a silent skip is
//! strictly better than a spurious violation; on a coop run, going
//! inert means the stream broke its own ticket order.
//!
//! `Custom` operations are outside both checkable vocabularies and
//! are skipped silently; a `Write` in counter mode (or an `Inc` in
//! max-register mode) is a real finding — the run is exercising an
//! object the checker was not configured for.

use crate::online::{CounterSpec, OnlineChecker};
use smr::analysis::{AnalysisPass, RunMeta, Violation};
use smr::{OpKind, OpRecord, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reorder depth on thread runs (and before any attach): how many
/// newer events must pile up behind a buffered event before it is
/// released to the checker. Large enough to cover the thread backend's
/// ticket-draw-to-emit race window many times over; small enough that
/// the buffer's memory footprint is negligible. Coop runs use depth 0
/// (see the [module docs](self)).
const WINDOW: usize = 256;

/// One buffered trace event, ordered by `(ts, phase, seq)`. Phase 0 =
/// announcement, 1 = completion, 2 = crash (keyed at the largest
/// timestamp seen, so it drains after everything it could have
/// interrupted).
struct Buffered {
    ts: u64,
    phase: u8,
    seq: u64,
    pid: usize,
    kind: Option<OpKind>,
}

impl Buffered {
    fn key(&self) -> (u64, u8, u64) {
        (self.ts, self.phase, self.seq)
    }
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Buffered {}
impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

enum Mode {
    Counter(CounterSpec),
    MaxReg(u64),
}

impl Mode {
    fn build(&self) -> OnlineChecker {
        match *self {
            Mode::Counter(spec) => OnlineChecker::counter_with(spec),
            Mode::MaxReg(k) => OnlineChecker::maxreg(k),
        }
    }
}

/// Streaming linearizability checking as an analysis pass. See the
/// [module docs](self).
pub struct LinearizabilityPass {
    mode: Mode,
    checker: OnlineChecker,
    heap: BinaryHeap<Reverse<Buffered>>,
    /// Events held back before release: 0 on coop runs, [`WINDOW`]
    /// otherwise.
    depth: usize,
    /// `(ts, phase)` of the last event released to the checker.
    released: (u64, u8),
    /// Largest timestamp seen on any buffered event (crash key).
    max_ts: u64,
    /// First finding, sticky.
    found: Option<Violation>,
    /// The stream outran the reorder window: stay silent forever.
    inert: bool,
    /// Checkable events accepted before the pass went inert (or so
    /// far, if it never did) — what "after N events" in
    /// [`summary`](AnalysisPass::summary) reports.
    events_seen: u64,
    /// Counts inert *transitions* (at most one per attach), so a batch
    /// of explorer replays shows how many silently dropped coverage.
    inert_transitions: &'static obs::Counter,
    /// Reorder-buffer occupancy sampled at every buffered event: p99
    /// near [`WINDOW`] on a thread run means the stream is racing the
    /// buffer and inertness is close; on a coop run it stays at 1.
    occupancy: &'static obs::Histogram,
}

impl LinearizabilityPass {
    /// Check the run against the `k`-multiplicative counter spec.
    pub fn counter(k: u64) -> Self {
        Self::with_mode(Mode::Counter(CounterSpec::Multiplicative(k)))
    }

    /// Check the run against the `k`-additive counter spec.
    pub fn counter_additive(k: u64) -> Self {
        Self::with_mode(Mode::Counter(CounterSpec::Additive(k)))
    }

    /// Check the run against an arbitrary [`CounterSpec`].
    pub fn counter_with(spec: CounterSpec) -> Self {
        Self::with_mode(Mode::Counter(spec))
    }

    /// Check the run against the `k`-multiplicative max-register spec.
    pub fn maxreg(k: u64) -> Self {
        Self::with_mode(Mode::MaxReg(k))
    }

    fn with_mode(mode: Mode) -> Self {
        let checker = mode.build();
        LinearizabilityPass {
            mode,
            checker,
            heap: BinaryHeap::with_capacity(WINDOW + 1),
            depth: WINDOW,
            released: (0, 0),
            max_ts: 0,
            found: None,
            inert: false,
            events_seen: 0,
            inert_transitions: obs::counter(obs::names::SUB_LINCHECK, obs::names::LINCHECK_INERT),
            occupancy: obs::histogram(
                obs::names::SUB_LINCHECK,
                obs::names::LINCHECK_REORDER_OCCUPANCY,
                2,
                1,
            ),
        }
    }

    fn active(&self) -> bool {
        !self.inert && self.found.is_none()
    }

    /// Transition to the inert state (idempotent per attach). Counted
    /// so the degradation is visible in a metrics snapshot even though
    /// it produces no violation.
    fn go_inert(&mut self) {
        if !self.inert {
            self.inert = true;
            self.inert_transitions.inc();
        }
    }

    /// Pop the oldest buffered event and apply it to the checker.
    fn release_one(&mut self) {
        let Some(Reverse(b)) = self.heap.pop() else {
            return;
        };
        if !self.active() {
            return;
        }
        if b.phase == 2 {
            self.checker.crash(b.pid);
            return;
        }
        let key = (b.ts, b.phase);
        if key < self.released {
            // An event older than something already released surfaced:
            // the stream raced beyond the reorder window.
            self.go_inert();
            return;
        }
        let kind = b.kind.expect("announce/complete events carry a kind");
        let rec = if b.phase == 0 {
            OpRecord {
                pid: b.pid,
                kind,
                inv: b.ts,
                resp: None,
                steps: 0,
            }
        } else {
            if !self.checker.has_open(b.pid) {
                // The matching announcement was lost beyond the window
                // (or the pass attached mid-run): go inert rather than
                // let the checker misread this as a fresh operation.
                self.go_inert();
                return;
            }
            OpRecord {
                pid: b.pid,
                kind,
                // Unused: the checker takes the invocation from the
                // open announcement it just matched.
                inv: 0,
                resp: Some(b.ts),
                steps: 0,
            }
        };
        if let Err(v) = self.checker.push(&rec) {
            self.found = Some(Violation {
                pass: "linearizability",
                pid: Some(b.pid),
                seq: Some(b.seq),
                message: v.message,
            });
        }
        self.released = key;
    }
}

impl AnalysisPass for LinearizabilityPass {
    fn name(&self) -> &'static str {
        "linearizability"
    }

    fn on_attach(&mut self, meta: &RunMeta) {
        self.checker = self.mode.build();
        self.heap.clear();
        self.depth = if meta.coop { 0 } else { WINDOW };
        self.released = (0, 0);
        self.max_ts = 0;
        self.found = None;
        self.inert = false;
        self.events_seen = 0;
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        if !self.active() {
            return;
        }
        match *ev {
            TraceEvent::Invoke {
                seq,
                pid,
                kind,
                inv,
            } => {
                self.max_ts = self.max_ts.max(inv);
                if matches!(kind, OpKind::Custom { .. }) {
                    return; // outside both vocabularies: skipped silently
                }
                self.heap.push(Reverse(Buffered {
                    ts: inv,
                    phase: 0,
                    seq,
                    pid,
                    kind: Some(kind),
                }));
            }
            TraceEvent::Complete {
                seq,
                pid,
                kind,
                resp,
            } => {
                self.max_ts = self.max_ts.max(resp);
                if matches!(kind, OpKind::Custom { .. }) {
                    return;
                }
                self.heap.push(Reverse(Buffered {
                    ts: resp,
                    phase: 1,
                    seq,
                    pid,
                    kind: Some(kind),
                }));
            }
            TraceEvent::Crash { seq, pid } => {
                self.heap.push(Reverse(Buffered {
                    ts: self.max_ts,
                    phase: 2,
                    seq,
                    pid,
                    kind: None,
                }));
            }
            TraceEvent::Access(_) | TraceEvent::Grant { .. } => return,
        }
        self.events_seen += 1;
        self.occupancy.record(self.heap.len() as u64);
        while self.heap.len() > self.depth {
            self.release_one();
        }
    }

    fn finish(&mut self) -> Vec<Violation> {
        while !self.heap.is_empty() {
            self.release_one();
        }
        self.found.clone().into_iter().collect()
    }

    fn summary(&self) -> Option<String> {
        if self.inert {
            Some(format!(
                "pass went inert after {} events: the stream outran the \
                 reorder window; later operations were not checked",
                self.events_seen
            ))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoke(seq: u64, pid: usize, kind: OpKind, inv: u64) -> TraceEvent {
        TraceEvent::Invoke {
            seq,
            pid,
            kind,
            inv,
        }
    }

    fn complete(seq: u64, pid: usize, kind: OpKind, resp: u64) -> TraceEvent {
        TraceEvent::Complete {
            seq,
            pid,
            kind,
            resp,
        }
    }

    #[test]
    fn clean_counter_stream_has_no_findings() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&complete(1, 0, OpKind::Inc { amount: 1 }, 1));
        p.on_event(&invoke(2, 1, OpKind::Read { returned: 0 }, 2));
        p.on_event(&complete(3, 1, OpKind::Read { returned: 1 }, 3));
        assert!(p.finish().is_empty());
    }

    #[test]
    fn stale_read_is_reported() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&complete(1, 0, OpKind::Inc { amount: 1 }, 1));
        p.on_event(&invoke(2, 1, OpKind::Read { returned: 0 }, 2));
        p.on_event(&complete(3, 1, OpKind::Read { returned: 0 }, 3));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].pass, "linearizability");
        assert_eq!(found[0].pid, Some(1));
        assert!(found[0].message.contains("empty window"));
    }

    fn meta(coop: bool) -> RunMeta {
        RunMeta {
            n: 2,
            gated: true,
            coop,
        }
    }

    #[test]
    fn small_reorders_inside_the_window_are_absorbed() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_attach(&meta(false));
        // Invoke/complete pairs delivered slightly shuffled, as a
        // thread-backend stream might: the heap restores ticket order.
        p.on_event(&complete(0, 0, OpKind::Inc { amount: 1 }, 1));
        p.on_event(&invoke(1, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&complete(2, 1, OpKind::Read { returned: 1 }, 3));
        p.on_event(&invoke(3, 1, OpKind::Read { returned: 0 }, 2));
        assert!(p.finish().is_empty());
        assert!(p.summary().is_none());
    }

    #[test]
    fn a_coop_stream_out_of_ticket_order_goes_inert() {
        // A coop stream is ticket-ordered by construction, so the pass
        // holds nothing back: the late announcement is not absorbed but
        // lands behind the released watermark and stops the check.
        let mut p = LinearizabilityPass::counter(1);
        p.on_attach(&meta(true));
        p.on_event(&invoke(0, 1, OpKind::Read { returned: 0 }, 2));
        p.on_event(&invoke(1, 0, OpKind::Inc { amount: 1 }, 0));
        let s = p.summary().expect("inert pass reports a summary");
        assert!(s.contains("inert after 2 events"), "got: {s}");
        assert!(p.finish().is_empty(), "inert, not a false positive");
    }

    #[test]
    fn custom_ops_are_skipped_but_writes_are_vocabulary_findings() {
        let mut p = LinearizabilityPass::counter(1);
        let custom = OpKind::Custom {
            label: "cas",
            arg: 0,
            ret: 0,
        };
        p.on_event(&invoke(0, 0, custom, 0));
        p.on_event(&complete(1, 0, custom, 1));
        assert!(p.finish().is_empty());

        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Write { value: 7 }, 0));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("vocabulary"));
    }

    #[test]
    fn crash_closes_the_open_operation() {
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 0, OpKind::Inc { amount: 1 }, 0));
        p.on_event(&TraceEvent::Crash { seq: 1, pid: 0 });
        // The crashed increment may or may not have taken effect.
        p.on_event(&invoke(2, 1, OpKind::Read { returned: 0 }, 1));
        p.on_event(&complete(3, 1, OpKind::Read { returned: 1 }, 2));
        assert!(p.finish().is_empty());
    }

    #[test]
    fn unmatched_completion_degrades_silently() {
        obs::set_enabled(true);
        let mut p = LinearizabilityPass::counter(1);
        let inert_before = p.inert_transitions.get();
        p.on_event(&complete(0, 0, OpKind::Read { returned: 5 }, 3));
        assert!(p.summary().is_none(), "still buffered: not yet inert");
        assert!(p.finish().is_empty(), "inert, not a false positive");
        // The degradation is silent in the verdict, but not invisible:
        // the transition is counted and the summary names it.
        assert_eq!(p.inert_transitions.get(), inert_before + 1);
        let s = p.summary().expect("inert pass reports a summary");
        assert!(s.contains("inert after 1 events"), "got: {s}");
        // A fresh attach clears the degraded state.
        p.on_attach(&meta(true));
        assert!(p.summary().is_none());
    }
}
