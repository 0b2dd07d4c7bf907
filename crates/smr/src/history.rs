//! Timestamped operation histories, the input to linearizability checking.
//!
//! The event vocabulary is **typed**: an operation is described at
//! submission time by an [`OpSpec`] (what the caller is about to do) and
//! recorded as an [`OpKind`] (what happened, including the returned
//! value). Checkers dispatch on the enum — no string matching — and the
//! `Inc` variant carries a *multiplicity*, so one submitted closure that
//! performs `amount` unit increments is accounted exactly.

/// What an operation *did*, recorded in the history.
///
/// Payload fields that are known at invocation time (`amount`, `value`,
/// `label`, `arg`) are valid even on pending records (`resp = None`);
/// result fields (`returned`, `ret`) are meaningless until the operation
/// completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `amount` unit counter increments performed by one submitted
    /// closure (the multiplicity field; checkers weight the record by
    /// it).
    Inc {
        /// How many unit increments this operation performs.
        amount: u64,
    },
    /// A read (counter or max register) that returned `returned`.
    Read {
        /// The value the read returned.
        returned: u128,
    },
    /// A max-register write of `value`.
    Write {
        /// The written value.
        value: u64,
    },
    /// Escape hatch for operations outside the counter/max-register
    /// vocabulary (mixed register workloads, test rigs, …). Checkers
    /// reject these gracefully instead of guessing.
    Custom {
        /// Free-form operation name, for diagnostics only.
        label: &'static str,
        /// Operation argument (0 if none).
        arg: u128,
        /// Returned value (0 if none).
        ret: u128,
    },
}

impl OpKind {
    /// Diagnostic name of the operation ("inc", "read", "write", or the
    /// custom label). For display only — never dispatch on this.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Inc { .. } => "inc",
            OpKind::Read { .. } => "read",
            OpKind::Write { .. } => "write",
            OpKind::Custom { label, .. } => label,
        }
    }

    /// The value the operation returned (0 for operations that return
    /// nothing). Meaningless on pending records.
    pub fn returned(&self) -> u128 {
        match self {
            OpKind::Read { returned } => *returned,
            OpKind::Custom { ret, .. } => *ret,
            OpKind::Inc { .. } | OpKind::Write { .. } => 0,
        }
    }

    /// How many object-level operations this record stands for: the
    /// `amount` of an increment batch, 1 for everything else.
    pub fn multiplicity(&self) -> u64 {
        match self {
            OpKind::Inc { amount } => *amount,
            _ => 1,
        }
    }
}

/// Submission-side descriptor of an operation: everything known *before*
/// the closure runs. The driver combines it with the closure's return
/// value into the recorded [`OpKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpSpec {
    /// `amount` unit counter increments.
    Inc {
        /// How many unit increments the closure performs.
        amount: u64,
    },
    /// A read; the closure's return value is recorded as the result.
    Read,
    /// A max-register write of `value`.
    Write {
        /// The written value.
        value: u64,
    },
    /// An operation outside the typed vocabulary.
    Custom {
        /// Free-form operation name, for diagnostics only.
        label: &'static str,
        /// Operation argument (0 if none).
        arg: u128,
    },
}

impl OpSpec {
    /// A single unit increment.
    pub fn inc() -> Self {
        OpSpec::Inc { amount: 1 }
    }

    /// A batch of `amount` unit increments submitted as one closure.
    pub fn inc_by(amount: u64) -> Self {
        OpSpec::Inc { amount }
    }

    /// A read.
    pub fn read() -> Self {
        OpSpec::Read
    }

    /// A max-register write of `value`.
    pub fn write(value: u64) -> Self {
        OpSpec::Write { value }
    }

    /// An operation outside the typed vocabulary.
    pub fn custom(label: &'static str, arg: u128) -> Self {
        OpSpec::Custom { label, arg }
    }

    /// The recorded event for this spec once the closure returned `ret`.
    pub fn kind(self, ret: u128) -> OpKind {
        match self {
            OpSpec::Inc { amount } => OpKind::Inc { amount },
            OpSpec::Read => OpKind::Read { returned: ret },
            OpSpec::Write { value } => OpKind::Write { value },
            OpSpec::Custom { label, arg } => OpKind::Custom { label, arg, ret },
        }
    }
}

/// One completed (or, for crashed/suspended processes, pending)
/// operation instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Invoking process.
    pub pid: usize,
    /// What the operation did (typed — see [`OpKind`]).
    pub kind: OpKind,
    /// Logical invocation timestamp (from [`Runtime::ticket`]).
    ///
    /// [`Runtime::ticket`]: crate::Runtime::ticket
    pub inv: u64,
    /// Logical response timestamp; `None` for operations that never
    /// completed (crashed / suspended processes).
    pub resp: Option<u64>,
    /// Steps (primitive applications) this operation performed.
    pub steps: u64,
}

impl OpRecord {
    /// `true` if `self` finished before `other` was invoked (real-time
    /// precedence). Pending operations precede nothing.
    pub fn precedes(&self, other: &OpRecord) -> bool {
        match self.resp {
            Some(r) => r < other.inv,
            None => false,
        }
    }

    /// Diagnostic name of the operation (see [`OpKind::label`]).
    pub fn label(&self) -> &'static str {
        self.kind.label()
    }

    /// The value the operation returned (see [`OpKind::returned`]).
    pub fn returned(&self) -> u128 {
        self.kind.returned()
    }
}

/// An execution history: a set of operation records with real-time order
/// induced by their logical timestamps.
#[derive(Debug, Clone, Default)]
pub struct History {
    ops: Vec<OpRecord>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History { ops: Vec::new() }
    }

    /// Append a record.
    pub fn push(&mut self, op: OpRecord) {
        self.ops.push(op);
    }

    /// Append a record to a history that expects `expected` more
    /// records, this one included: the first record reserves room for
    /// all of them. A driver passes its pending operation count, so a
    /// history that records each submitted operation once allocates
    /// once instead of doubling its way up.
    pub(crate) fn push_expecting(&mut self, op: OpRecord, expected: u64) {
        if self.ops.is_empty() {
            self.ops.reserve(usize::try_from(expected).unwrap_or(0));
        }
        self.ops.push(op);
    }

    /// All records, in insertion order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Records sorted by invocation timestamp.
    pub fn sorted_by_invocation(&self) -> Vec<OpRecord> {
        let mut v = self.ops.clone();
        v.sort_by_key(|op| op.inv);
        v
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no records.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Only the completed operations.
    pub fn completed(&self) -> History {
        History {
            ops: self
                .ops
                .iter()
                .filter(|op| op.resp.is_some())
                .cloned()
                .collect(),
        }
    }

    /// Only the pending operations (`resp = None`).
    pub fn pending(&self) -> History {
        History {
            ops: self
                .ops
                .iter()
                .filter(|op| op.resp.is_none())
                .cloned()
                .collect(),
        }
    }

    /// Total steps across all records.
    pub fn total_steps(&self) -> u64 {
        self.ops.iter().map(|op| op.steps).sum()
    }

    /// Merge another history into this one.
    pub fn extend(&mut self, other: History) {
        self.ops.extend(other.ops);
    }
}

impl FromIterator<OpRecord> for History {
    fn from_iter<I: IntoIterator<Item = OpRecord>>(iter: I) -> Self {
        History {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pid: usize, inv: u64, resp: Option<u64>) -> OpRecord {
        OpRecord {
            pid,
            kind: OpSpec::custom("op", 0).kind(0),
            inv,
            resp,
            steps: 1,
        }
    }

    #[test]
    fn precedence_requires_completion() {
        let a = rec(0, 0, Some(5));
        let b = rec(1, 6, Some(8));
        let c = rec(2, 3, None);
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!c.precedes(&b));
    }

    #[test]
    fn completed_filters_pending() {
        let mut h = History::new();
        h.push(rec(0, 0, Some(1)));
        h.push(rec(1, 2, None));
        assert_eq!(h.len(), 2);
        assert_eq!(h.completed().len(), 1);
        assert_eq!(h.pending().len(), 1);
        assert_eq!(h.total_steps(), 2);
    }

    #[test]
    fn sorted_by_invocation_orders() {
        let mut h = History::new();
        h.push(rec(0, 9, Some(10)));
        h.push(rec(1, 2, Some(3)));
        let s = h.sorted_by_invocation();
        assert_eq!(s[0].inv, 2);
        assert_eq!(s[1].inv, 9);
    }

    #[test]
    fn spec_to_kind_carries_results() {
        assert_eq!(OpSpec::inc().kind(9), OpKind::Inc { amount: 1 });
        assert_eq!(OpSpec::inc_by(5).kind(0), OpKind::Inc { amount: 5 });
        assert_eq!(OpSpec::read().kind(7), OpKind::Read { returned: 7 });
        assert_eq!(OpSpec::write(3).kind(0), OpKind::Write { value: 3 });
        let k = OpSpec::custom("rmw", 2).kind(4);
        assert_eq!(
            k,
            OpKind::Custom {
                label: "rmw",
                arg: 2,
                ret: 4
            }
        );
        assert_eq!(k.label(), "rmw");
        assert_eq!(k.returned(), 4);
        assert_eq!(k.multiplicity(), 1);
        assert_eq!(OpKind::Inc { amount: 5 }.multiplicity(), 5);
    }
}
