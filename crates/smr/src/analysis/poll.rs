//! The poll-discipline checker: exactly one primitive per granted poll,
//! zero while priming.
//!
//! The coop backend's whole determinism story rests on the [`OpTask`]
//! contract (priming polls apply no primitive; a granted poll applies
//! exactly one). The contract's one enforcer is the backend itself: it
//! asserts step-counter deltas around every poll and panics on a
//! breach, before any event of the breaching poll reaches this pass.
//! This pass re-checks the same contract *observationally* from the
//! event stream (grants and accesses interleave 1:1), so on a real run
//! it finds nothing. It is not in
//! [`Analyzer::standard`](super::Analyzer::standard), and stays public
//! only because perfbench's gated workloads attach it; it and
//! `TraceEvent::Grant`, which feeds only this pass, can go once they
//! no longer do.
//!
//! [`OpTask`]: crate::OpTask

use super::{AnalysisPass, RunMeta, Violation};
use crate::trace::TraceEvent;

#[derive(Default, Clone)]
struct PidState {
    /// Label of the in-flight operation, if its invocation was announced.
    label: Option<&'static str>,
    /// A grant is open (granted, not yet closed by the next grant /
    /// completion / crash).
    open_grant: bool,
    /// Sequence number of the open grant.
    grant_seq: u64,
    /// Primitives applied under the open grant.
    in_grant: u32,
}

/// The poll-discipline pass. See the module docs in `analysis/poll.rs`
/// for why it finds nothing on a real run.
pub struct PollDiscipline {
    pids: Vec<PidState>,
    gated: bool,
    violations: Vec<Violation>,
    /// Cap so a hot loop of a badly broken machine cannot OOM the report.
    max_violations: usize,
}

impl PollDiscipline {
    /// A fresh pass.
    pub fn new() -> Self {
        PollDiscipline {
            pids: Vec::new(),
            gated: true,
            violations: Vec::new(),
            max_violations: 64,
        }
    }

    fn pid_mut(&mut self, pid: usize) -> &mut PidState {
        if pid >= self.pids.len() {
            self.pids.resize_with(pid + 1, PidState::default);
        }
        &mut self.pids[pid]
    }

    fn violate(&mut self, pid: usize, seq: u64, message: String) {
        if self.violations.len() < self.max_violations {
            self.violations.push(Violation {
                pass: "poll-discipline",
                pid: Some(pid),
                seq: Some(seq),
                message,
            });
        }
    }

    fn op_label(st: &PidState) -> &'static str {
        st.label.unwrap_or("<unannounced op>")
    }

    /// Close the open grant of `pid`, flagging an empty one. `why` names
    /// the closing edge for the report.
    fn close_grant(&mut self, pid: usize, why: &str) {
        let st = &mut self.pids[pid];
        if st.open_grant && st.in_grant == 0 {
            let label = Self::op_label(st);
            let grant_seq = st.grant_seq;
            st.open_grant = false;
            self.violate(
                pid,
                grant_seq,
                format!(
                    "machine {label:?}: granted poll applied no primitive \
                     (grant closed by {why})"
                ),
            );
        } else {
            st.open_grant = false;
        }
    }
}

impl Default for PollDiscipline {
    fn default() -> Self {
        PollDiscipline::new()
    }
}

impl AnalysisPass for PollDiscipline {
    fn name(&self) -> &'static str {
        "poll-discipline"
    }

    fn on_attach(&mut self, meta: &RunMeta) {
        self.gated = meta.gated;
        self.pids = vec![PidState::default(); meta.n];
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Invoke { seq, pid, kind, .. } => {
                let label = kind.label();
                if let Some(open) = self.pid_mut(pid).label {
                    self.violate(
                        pid,
                        seq,
                        format!(
                            "machine {label:?} invoked while machine {open:?} \
                             is still in flight"
                        ),
                    );
                }
                self.pids[pid].label = Some(label);
            }
            TraceEvent::Grant { seq, pid } => {
                self.pid_mut(pid);
                self.close_grant(pid, "the next grant");
                let st = &mut self.pids[pid];
                st.open_grant = true;
                st.grant_seq = seq;
                st.in_grant = 0;
            }
            TraceEvent::Access(a) => {
                if !self.gated {
                    return; // free-running: no grants exist to pair with
                }
                let st = self.pid_mut(a.pid);
                if !st.open_grant {
                    let label = Self::op_label(st);
                    self.violate(
                        a.pid,
                        a.seq,
                        format!(
                            "machine {label:?}: primitive {:?} on object {:#x} \
                             applied outside a granted poll (priming, or never granted)",
                            a.kind, a.obj
                        ),
                    );
                } else {
                    st.in_grant += 1;
                    if st.in_grant > 1 {
                        let n = st.in_grant;
                        let label = Self::op_label(st);
                        self.violate(
                            a.pid,
                            a.seq,
                            format!(
                                "machine {label:?}: granted poll applied {n} primitives \
                                 (primitive {n} is {:?} on object {:#x}); \
                                 the contract allows exactly one",
                                a.kind, a.obj
                            ),
                        );
                    }
                }
            }
            TraceEvent::Complete { pid, .. } => {
                self.pid_mut(pid);
                // A grant may legitimately be closed by the completion it
                // produced (the op's last primitive), but a completion
                // directly after an *empty* grant means a granted poll
                // returned Ready without stepping.
                self.close_grant(pid, "the operation's completion");
                self.pids[pid].label = None;
            }
            TraceEvent::Crash { pid, .. } => {
                // The suspended operation will never run again; whatever
                // poll state it was in dies with it.
                let st = self.pid_mut(pid);
                st.open_grant = false;
                st.in_grant = 0;
                st.label = None;
            }
        }
    }

    fn finish(&mut self) -> Vec<Violation> {
        if self.gated {
            for pid in 0..self.pids.len() {
                if self.pids[pid].open_grant && self.pids[pid].in_grant == 0 {
                    self.close_grant(pid, "end of run");
                }
            }
        }
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpKind;
    use crate::trace::{Access, AccessKind};

    fn meta(n: usize) -> RunMeta {
        RunMeta { n, gated: true }
    }

    fn acc(seq: u64, pid: usize) -> TraceEvent {
        TraceEvent::Access(Access {
            seq,
            pid,
            obj: 0x10,
            kind: AccessKind::Write,
            before: 0,
            after: 1,
        })
    }

    #[test]
    fn clean_grant_access_pairs_pass() {
        let mut p = PollDiscipline::new();
        p.on_attach(&meta(1));
        p.on_event(&TraceEvent::Invoke {
            seq: 0,
            pid: 0,
            kind: OpKind::Custom {
                label: "inc",
                arg: 0,
                ret: 0,
            },
            inv: 0,
        });
        p.on_event(&TraceEvent::Grant { seq: 1, pid: 0 });
        p.on_event(&acc(2, 0));
        p.on_event(&TraceEvent::Grant { seq: 3, pid: 0 });
        p.on_event(&acc(4, 0));
        p.on_event(&TraceEvent::Complete {
            seq: 5,
            pid: 0,
            kind: OpKind::Custom {
                label: "inc",
                arg: 0,
                ret: 0,
            },
            resp: 1,
        });
        assert!(p.finish().is_empty());
    }

    #[test]
    fn two_primitives_in_one_poll_are_flagged() {
        let mut p = PollDiscipline::new();
        p.on_attach(&meta(1));
        p.on_event(&TraceEvent::Invoke {
            seq: 0,
            pid: 0,
            kind: OpKind::Custom {
                label: "greedy",
                arg: 0,
                ret: 0,
            },
            inv: 0,
        });
        p.on_event(&TraceEvent::Grant { seq: 1, pid: 0 });
        p.on_event(&acc(2, 0));
        p.on_event(&acc(3, 0));
        let v = p.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pid, Some(0));
        assert_eq!(v[0].seq, Some(3));
        assert!(v[0].message.contains("greedy"), "{}", v[0].message);
        assert!(v[0].message.contains("2 primitives"), "{}", v[0].message);
    }

    #[test]
    fn priming_primitive_is_flagged() {
        let mut p = PollDiscipline::new();
        p.on_attach(&meta(1));
        p.on_event(&TraceEvent::Invoke {
            seq: 0,
            pid: 0,
            kind: OpKind::Custom {
                label: "eager",
                arg: 0,
                ret: 0,
            },
            inv: 0,
        });
        p.on_event(&acc(1, 0)); // no grant yet
        let v = p.finish();
        assert_eq!(v.len(), 1);
        assert!(
            v[0].message.contains("outside a granted poll"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn empty_grant_is_flagged_at_close_and_at_finish() {
        let mut p = PollDiscipline::new();
        p.on_attach(&meta(2));
        p.on_event(&TraceEvent::Grant { seq: 0, pid: 0 });
        p.on_event(&TraceEvent::Grant { seq: 1, pid: 0 }); // closes empty grant
        p.on_event(&acc(2, 0));
        p.on_event(&TraceEvent::Grant { seq: 3, pid: 1 }); // still open at finish
        let v = p.finish();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].seq, Some(0));
        assert_eq!(v[1].pid, Some(1));
        assert!(v[1].message.contains("end of run"));
    }

    #[test]
    fn crash_clears_poll_state() {
        let mut p = PollDiscipline::new();
        p.on_attach(&meta(1));
        p.on_event(&TraceEvent::Grant { seq: 0, pid: 0 });
        p.on_event(&TraceEvent::Crash { seq: 1, pid: 0 });
        assert!(
            p.finish().is_empty(),
            "a crashed pid's open grant is not an empty-grant violation"
        );
    }

    #[test]
    fn free_running_streams_are_not_flagged() {
        let mut p = PollDiscipline::new();
        p.on_attach(&RunMeta { n: 1, gated: false });
        p.on_event(&acc(0, 0));
        p.on_event(&acc(1, 0));
        assert!(p.finish().is_empty());
    }
}
