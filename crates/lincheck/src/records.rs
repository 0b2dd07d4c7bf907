//! One-call checker entry points for raw driver histories — the form
//! `smr::explore` hands its checker closure.
//!
//! The explorer's contract is `Fn(&smr::History) -> Result<(), String>`;
//! these helpers sort the driver's records straight into the
//! [`OnlineChecker`] — real pids, no intermediate
//! [`CounterHistory`](crate::CounterHistory) — and flatten both failure
//! kinds (a record outside the object vocabulary, a genuine
//! linearizability violation) into the explorer's error string. `k = 1`
//! checks the exact specification.
//!
//! Pending records are announced and then crashed: a pending increment
//! or write keeps its optional effect, a pending read constrains
//! nothing. Each process's operations must have disjoint windows, as a
//! driver's do; an overlap is reported as a violation. Violations
//! number reads in completion order, as in [`crate::monotone`].

use crate::online::OnlineChecker;
use smr::History;

/// Check a driver history against the k-multiplicative counter
/// specification (`k = 1`: the exact counter). Pending increments are
/// honoured as optional effects; pending reads constrain nothing.
pub fn check_counter_records(h: &History, k: u64) -> Result<(), String> {
    feed_records(h, OnlineChecker::counter(k))
}

/// Check a driver history against the k-multiplicative max-register
/// specification (`k = 1`: the exact max register).
pub fn check_maxreg_records(h: &History, k: u64) -> Result<(), String> {
    feed_records(h, OnlineChecker::maxreg(k))
}

fn feed_records(h: &History, mut checker: OnlineChecker) -> Result<(), String> {
    let ops = h.ops();
    checker
        .check_sorted(ops.len(), |i| {
            let r = &ops[i];
            (Some(r.pid), r.kind, r.inv, r.resp)
        })
        .map_err(|v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::{OpRecord, OpSpec};

    fn rec(pid: usize, spec: OpSpec, ret: u128, inv: u64, resp: Option<u64>) -> OpRecord {
        OpRecord {
            pid,
            kind: spec.kind(ret),
            inv,
            resp,
            steps: 1,
        }
    }

    #[test]
    fn counter_records_pass_and_fail() {
        let mut h = History::new();
        h.push(rec(0, OpSpec::inc(), 0, 0, Some(1)));
        h.push(rec(1, OpSpec::read(), 1, 2, Some(3)));
        assert_eq!(check_counter_records(&h, 1), Ok(()));

        // A later read that missed the completed increment.
        h.push(rec(1, OpSpec::read(), 0, 4, Some(5)));
        let err = check_counter_records(&h, 1).expect_err("stale read");
        assert!(!err.is_empty());
    }

    #[test]
    fn counter_records_reject_foreign_ops_gracefully() {
        let mut h = History::new();
        h.push(rec(0, OpSpec::custom("cas", 7), 0, 0, Some(1)));
        let err = check_counter_records(&h, 1).expect_err("foreign op");
        assert!(err.contains("counter"), "diagnosis names the vocabulary");
    }

    #[test]
    fn maxreg_records_pass_and_fail() {
        let mut h = History::new();
        h.push(rec(0, OpSpec::write(9), 0, 0, Some(1)));
        h.push(rec(1, OpSpec::read(), 9, 2, Some(3)));
        assert_eq!(check_maxreg_records(&h, 1), Ok(()));

        h.push(rec(1, OpSpec::read(), 0, 4, Some(5)));
        assert!(check_maxreg_records(&h, 1).is_err(), "max regressed");
        // The same history is also k-inadmissible for any k: 0 is not
        // within a factor of k of 9.
        assert!(check_maxreg_records(&h, 3).is_err());
    }
}
