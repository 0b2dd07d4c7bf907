//! [`LinearizabilityPass`]: the [`OnlineChecker`] packaged as an
//! [`smr::analysis::AnalysisPass`], so any gated driver run — and every
//! `smr::explore` replay — checks linearizability inline, with
//! findings surfaced (and ddmin-minimized by the explorer) like every
//! other pass finding.
//!
//! # Event order
//!
//! The checker consumes operations in timestamp order, and the trace
//! stream of a gated coop run already *is* timestamp-ordered: one
//! controller emits every invocation and completion. So each event
//! goes straight to the checker, and the check is exact.
//!
//! This pass is also the one enforcer of that ticket order. An event
//! that lands behind the last one checked, an announcement on a pid
//! whose previous operation is still open, or a completion with no open
//! announcement is a controller bug or a pass attached after operations
//! were invoked. Any of them is the pass's first, sticky violation,
//! naming the pid, the event's seq and both tickets: the rest of the
//! stream cannot be checked exactly, and saying so beats checking it
//! wrongly.
//!
//! `Custom` operations are outside both checkable vocabularies and
//! are skipped silently; a `Write` in counter mode (or an `Inc` in
//! max-register mode) is a real finding — the run is exercising an
//! object the checker was not configured for.

use crate::online::{CounterSpec, OnlineChecker};
use smr::analysis::{AnalysisPass, RunMeta, Violation};
use smr::{OpKind, OpRecord, TraceEvent};

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
    /// `(ts, phase)` of the last event checked; phase 0 = announcement,
    /// 1 = completion.
    released: (u64, u8),
    /// First finding, sticky.
    found: Option<Violation>,
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
            released: (0, 0),
            found: None,
        }
    }

    fn fail(&mut self, pid: usize, seq: u64, message: String) {
        self.found = Some(Violation {
            pass: "linearizability",
            pid: Some(pid),
            seq: Some(seq),
            message,
        });
    }

    /// Apply one announcement (`phase` 0) or completion (`phase` 1) to
    /// the checker.
    fn check(&mut self, seq: u64, pid: usize, kind: OpKind, ts: u64, phase: u8) {
        if matches!(kind, OpKind::Custom { .. }) {
            return; // outside both vocabularies: skipped silently
        }
        if (ts, phase) < self.released {
            let event = if phase == 0 {
                "invocation"
            } else {
                "completion"
            };
            self.fail(
                pid,
                seq,
                format!(
                    "ticket order broken: pid {pid}'s {event} at ticket {ts} lands behind \
                     the last checked ticket {} (a controller bug, or the pass attached \
                     after operations were invoked)",
                    self.released.0
                ),
            );
            return;
        }
        let rec = if phase == 0 {
            OpRecord {
                pid,
                kind,
                inv: ts,
                resp: None,
                steps: 0,
            }
        } else {
            if !self.checker.has_open(pid) {
                self.fail(
                    pid,
                    seq,
                    format!(
                        "ticket order broken: pid {pid}'s completion at ticket {ts} has no \
                         open invocation (last checked ticket {}; a controller bug, or the \
                         pass attached after operations were invoked)",
                        self.released.0
                    ),
                );
                return;
            }
            OpRecord {
                pid,
                kind,
                // Unused: the checker takes the invocation from the
                // open announcement it just matched.
                inv: 0,
                resp: Some(ts),
                steps: 0,
            }
        };
        if let Err(v) = self.checker.push(&rec) {
            self.fail(pid, seq, v.message);
        }
        self.released = (ts, phase);
    }
}

impl AnalysisPass for LinearizabilityPass {
    fn name(&self) -> &'static str {
        "linearizability"
    }

    fn on_attach(&mut self, _meta: &RunMeta) {
        self.checker = self.mode.build();
        self.released = (0, 0);
        self.found = None;
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        if self.found.is_some() {
            return;
        }
        match *ev {
            TraceEvent::Invoke {
                seq,
                pid,
                kind,
                inv,
            } => self.check(seq, pid, kind, inv, 0),
            TraceEvent::Complete {
                seq,
                pid,
                kind,
                resp,
            } => self.check(seq, pid, kind, resp, 1),
            TraceEvent::Crash { pid, .. } => self.checker.crash(pid),
            TraceEvent::Access(_) | TraceEvent::Grant { .. } => {}
        }
    }

    fn finish(&mut self) -> Vec<Violation> {
        self.found.clone().into_iter().collect()
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

    fn meta() -> RunMeta {
        RunMeta { n: 2, gated: true }
    }

    #[test]
    fn a_coop_stream_out_of_ticket_order_is_a_violation() {
        // A coop stream is ticket-ordered by construction; one that is
        // not is a controller bug: the late announcement lands behind
        // the last checked ticket.
        let mut p = LinearizabilityPass::counter(1);
        p.on_attach(&meta());
        p.on_event(&invoke(0, 1, OpKind::Read { returned: 0 }, 2));
        p.on_event(&invoke(1, 0, OpKind::Inc { amount: 1 }, 0));
        // Sticky: later events, even a would-be finding, change nothing.
        p.on_event(&complete(2, 1, OpKind::Read { returned: 9 }, 3));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].pid, found[0].seq), (Some(0), Some(1)));
        let m = &found[0].message;
        assert!(
            m.contains("ticket order broken") && m.contains("invocation at ticket 0"),
            "got: {m}"
        );
        assert!(m.contains("last checked ticket 2"), "got: {m}");
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
    fn an_unmatched_completion_is_a_violation() {
        // A completion with no open invocation: the pass attached after
        // the operation was invoked, or the controller lost the event.
        let mut p = LinearizabilityPass::counter(1);
        p.on_event(&invoke(0, 1, OpKind::Inc { amount: 1 }, 1));
        p.on_event(&complete(1, 0, OpKind::Read { returned: 5 }, 3));
        let found = p.finish();
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].pid, found[0].seq), (Some(0), Some(1)));
        let m = &found[0].message;
        assert!(
            m.contains("completion at ticket 3 has no open invocation"),
            "got: {m}"
        );
        assert!(m.contains("last checked ticket 1"), "got: {m}");
        // A fresh attach clears the finding.
        p.on_attach(&meta());
        assert!(p.finish().is_empty());
    }
}
