//! The access-kind conformance checker: declared [`AccessKind`]s must
//! match observed effects.
//!
//! Every [`Access`](crate::trace::Access) event carries the object's
//! state digest immediately before and after the primitive, recorded by
//! the primitive itself while it holds its step permit. Two checks run
//! over those digests:
//!
//! * **Reads are trivial** — a step declared [`AccessKind::Read`] must
//!   leave the object unchanged (`before == after`). A write path
//!   mis-declared as a read — precisely the mutation that would make the
//!   explorer's read/read commutation rule unsound — trips this on its
//!   first state-changing application.
//! * **Serialized-state continuity** (gated runs only) — successive
//!   accesses to the same object must agree: each access's `before`
//!   equals the previous access's `after`. Gated executions serialize
//!   all primitives, and the model forbids mutating base objects outside
//!   primitives, so a discontinuity means an object was modified through
//!   a back door (or two objects alias one identity).
//!
//! The replay-based half of conformance checking — sampling step pairs
//! the explorer's DPOR treats as independent and verifying they
//! actually commute — is [`commutation_audit`](super::commutation_audit).
//!
//! [`AccessKind`]: crate::AccessKind
//! [`AccessKind::Read`]: crate::AccessKind::Read

use super::{AnalysisPass, RunMeta, Violation};
use crate::addr::AddrMap;
use crate::trace::{AccessKind, TraceEvent};

/// The access-kind conformance pass. See the [module docs](self).
pub struct Conformance {
    gated: bool,
    /// Last observed `after` digest per object.
    last_after: AddrMap<u64>,
    /// In-flight operation label per pid, for naming the machine.
    labels: Vec<Option<&'static str>>,
    violations: Vec<Violation>,
    max_violations: usize,
}

impl Conformance {
    /// A fresh pass.
    pub fn new() -> Self {
        Conformance {
            gated: true,
            last_after: AddrMap::default(),
            labels: Vec::new(),
            violations: Vec::new(),
            max_violations: 64,
        }
    }

    fn label_of(&mut self, pid: usize) -> &'static str {
        if pid >= self.labels.len() {
            self.labels.resize(pid + 1, None);
        }
        self.labels[pid].unwrap_or("<unannounced op>")
    }

    fn set_label(&mut self, pid: usize, label: Option<&'static str>) {
        if pid >= self.labels.len() {
            self.labels.resize(pid + 1, None);
        }
        self.labels[pid] = label;
    }

    fn violate(&mut self, pid: usize, seq: u64, message: String) {
        if self.violations.len() < self.max_violations {
            self.violations.push(Violation {
                pass: "conformance",
                pid: Some(pid),
                seq: Some(seq),
                message,
            });
        }
    }
}

impl Default for Conformance {
    fn default() -> Self {
        Conformance::new()
    }
}

impl AnalysisPass for Conformance {
    fn name(&self) -> &'static str {
        "conformance"
    }

    fn on_attach(&mut self, meta: &RunMeta) {
        self.gated = meta.gated;
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Invoke { pid, kind, .. } => {
                self.set_label(pid, Some(kind.label()));
                return;
            }
            TraceEvent::Complete { pid, .. } | TraceEvent::Crash { pid, .. } => {
                self.set_label(pid, None);
                return;
            }
            _ => {}
        }
        let Some(a) = ev.access() else { return };
        if a.kind == AccessKind::Read && a.before != a.after {
            let label = self.label_of(a.pid);
            self.violate(
                a.pid,
                a.seq,
                format!(
                    "machine {label:?}: step declared Read on object {:#x} \
                     changed its state ({:#x} -> {:#x}): a nontrivial \
                     primitive is mis-declared as trivial",
                    a.obj, a.before, a.after
                ),
            );
        }
        if self.gated {
            match self.last_after.insert(a.obj, a.after) {
                Some(prev) if prev != a.before => {
                    let label = self.label_of(a.pid);
                    self.violate(
                        a.pid,
                        a.seq,
                        format!(
                            "machine {label:?}: object {:#x} state discontinuity: \
                             previous access left {:#x}, this {:?} observed {:#x} \
                             before it — the object was modified outside a primitive",
                            a.obj, prev, a.kind, a.before
                        ),
                    );
                }
                _ => {}
            }
        }
    }

    fn finish(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Access;

    fn meta() -> RunMeta {
        RunMeta { n: 2, gated: true }
    }

    fn acc(seq: u64, kind: AccessKind, before: u64, after: u64) -> TraceEvent {
        TraceEvent::Access(Access {
            seq,
            pid: 0,
            obj: 0x20,
            kind,
            before,
            after,
        })
    }

    #[test]
    fn honest_sequence_passes() {
        let mut c = Conformance::new();
        c.on_attach(&meta());
        c.on_event(&acc(0, AccessKind::Write, 0, 5));
        c.on_event(&acc(1, AccessKind::Read, 5, 5));
        c.on_event(&acc(2, AccessKind::TestAndSet, 5, 1));
        assert!(c.finish().is_empty());
    }

    #[test]
    fn mutating_read_is_flagged() {
        let mut c = Conformance::new();
        c.on_attach(&meta());
        c.on_event(&acc(0, AccessKind::Read, 0, 7));
        let v = c.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("mis-declared"), "{}", v[0].message);
        assert_eq!(v[0].seq, Some(0));
    }

    #[test]
    fn state_discontinuity_is_flagged_in_gated_mode_only() {
        let mut c = Conformance::new();
        c.on_attach(&meta());
        c.on_event(&acc(0, AccessKind::Write, 0, 5));
        c.on_event(&acc(1, AccessKind::Read, 9, 9)); // 5 -> 9 out of band
        let v = c.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("discontinuity"), "{}", v[0].message);

        let mut c = Conformance::new();
        c.on_attach(&RunMeta { n: 2, gated: false });
        // Free-running: interleavings can legitimately produce digests
        // the stream order does not explain; continuity is not checked.
        c.on_event(&acc(0, AccessKind::Write, 0, 5));
        c.on_event(&acc(1, AccessKind::Read, 9, 9));
        assert!(c.finish().is_empty());
    }
}
