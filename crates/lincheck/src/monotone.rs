//! The post-hoc linearizability checkers for monotone objects with
//! (possibly) relaxed reads, and the decision procedure behind them.
//!
//! Every entry point here is a thin sorted feed: it splits each
//! operation of a finished history into an announcement and a
//! completion, sorts them, and pushes them through
//! [`OnlineChecker`], the crate's one engine (see [`crate::online`]
//! for how the sweep below runs as a stream, and for the two sorts).
//! A typed history carries no pids, so each operation takes a recycled
//! slot of the engine's open table while it is open: the table grows to
//! the history's concurrency, not to its length.
//!
//! ## Counter
//!
//! A history of (weighted) increments and reads returning `x_r` is
//! linearizable w.r.t. the k-multiplicative counter spec iff each read
//! `r` can be assigned an exact count `v_r` such that
//!
//! 1. `⌈x_r/k⌉ ≤ v_r ≤ x_r·k` (spec admissibility);
//! 2. `A_r ≤ v_r ≤ B_r`, where `A_r` sums increments *completed
//!    strictly before* `r` was invoked (they are forced before `r`) and
//!    `B_r` sums increments invoked at or before `r`'s response (only
//!    these can precede `r` — `i` may precede `r` iff `r` does not
//!    strictly precede `i`, i.e. `i.inv ≤ r.resp`);
//! 3. for every pair of reads with `r.resp < s.inv`:
//!    `v_s ≥ v_r + D(r, s)`, where `D(r, s)` sums increments whose whole
//!    window lies between `r`'s response and `s`'s invocation — everything
//!    `r` counted precedes `s` too, and the `D` increments are forced in
//!    between.
//!
//! An increment record of multiplicity `m` counts as `m` everywhere — it
//! is exactly `m` unit increments sharing one window (a pending batch
//! may have landed any prefix of them).
//!
//! Necessity of 1–3 is immediate; sufficiency is the standard
//! interval-order construction (place reads in `v_r`-order refined by
//! real time, then slot increments). The greedy longest-path assignment
//! `v_r = max(lo_r, max_{r'≺r}(v_{r'} + D(r', r)))` is minimal, so it
//! succeeds iff some assignment does.
//!
//! ### The sweep
//!
//! Constraint 3 is the hot loop. Evaluating it pairwise is `O(R²)`
//! ([`naive`](crate::naive) keeps that transcription as the
//! cross-validation reference); the engine instead walks the events in
//! timestamp order and maintains, in a monotone stack, the running
//! quantity
//!
//! ```text
//! M(t) = max over reads p with p.resp < t of  ( v_p + D(p, t) )
//! ```
//!
//! so a read invoked at `t` needs just `v_r ≥ max(lo_r, M(t))`. A
//! read's invocation reads `M`, its response inserts the term `v_r`
//! (with `D(r, t) = 0` at that instant), and an increment's response
//! adds its amount to the term of every read with `p.resp < i.inv` —
//! exactly the reads whose `D` the increment enters. Terms only grow,
//! prefixes (in `resp` order) grow fastest, so the set of reads that
//! can ever realize the maximum is a stack of strictly increasing
//! terms; each read enters and leaves it at most once.
//!
//! **Complexity** for `R` reads and `I` increment records: ordering
//! the announcements and completions takes `O(R + I)` on a driver
//! history, whose tickets are dense (a counting sort), and
//! `O((R + I) log(R + I))` otherwise (`sort_unstable`); each event then
//! costs amortized `O(log)` in the stack, whose live size the folds
//! keep proportional to the open increments.
//! Cross-validated against [`naive`](crate::naive) and the exhaustive
//! [`wg`](crate::wg) checker on randomized histories (see `tests/`).
//!
//! ## Max register
//!
//! Analogous, with max instead of sum. Each read `r` gets a minimal
//! achievable maximum `m_r` with: `m_r ≥ base(r) = max(M_A(r), m_{r'}
//! for reads r' that precede r)` where `M_A(r)` is the largest write
//! completed before `r.inv`; `m_r` admissible for `x_r`. If `base(r)` is
//! not already admissible, a *witness* write `w` with `w.inv ≤ r.resp`
//! must be linearized before `r` — but placing `w` drags along everything
//! forced before `w` in real time: earlier-completed **writes** (their
//! values) and earlier-completed **reads** (whose own minimal maxima were
//! forced by *their* witnesses). So the witness's **effective value** is
//!
//! ```text
//! ev(w) = max(w.value,
//!             max{w'.value : w'.resp < w.inv},
//!             max{m_{r'}   : r'.resp < w.inv})
//! ```
//!
//! and the greedy picks the smallest admissible `ev(w)`. All quantities
//! depend only on strictly earlier timestamps, so one timestamp-ordered
//! pass (write invocations before read responses at equal times)
//! computes everything. The engine keeps the effective values in an
//! ordered set and picks the smallest admissible one with a range
//! query: amortized `O(log(R + W))` per event for `R` reads and `W`
//! writes, after the same ordering step.
//!
//! ## Violations
//!
//! A violation names the first read the engine cannot linearize by its
//! window `[inv, resp]`. Its `read #N` counts reads in completion order,
//! the order the engine decides them, so `N` is not an index into
//! `h.reads` (nor does it match [`naive`](crate::naive)'s numbering).
//!
//! ## Malformed windows
//!
//! [`TimedRead`](crate::TimedRead)'s fields are public, so a hand-built
//! read can claim `inv ≥ resp`. Every entry point panics on such a
//! window, for both objects, rather than checking a history no
//! execution can produce.

use crate::history::{CounterHistory, MaxRegHistory, Violation};
use crate::online::OnlineChecker;
use smr::OpKind;

/// Check a counter history against the k-multiplicative-accurate counter
/// specification (`k = 1` for the exact counter).
///
/// A read returning `x` admits exact counts in the inclusive window
/// `[⌈x/k⌉, x·k]`: integer `div_ceil` at the bottom (the smallest `v`
/// with `v·k ≥ x`), saturating multiplication at the top. Saturation
/// is exact, not an approximation: a count can never exceed
/// `u128::MAX`, so clamping the upper bound there loses nothing. At
/// `x = 0` the window is `[0, 0]` for every `k` — a zero read always
/// claims the counter has never been incremented.
///
/// # Panics
/// If `k = 0`, or on a malformed window (see the [module docs](self)).
pub fn check_counter(h: &CounterHistory, k: u64) -> Result<(), Violation> {
    feed_counter(h, &mut OnlineChecker::counter(k))
}

/// Check a counter history against the **k-additive**-accurate counter
/// specification: a read may return `x` with `|v − x| ≤ k`.
///
/// A read returning `x` admits exact counts in the inclusive window
/// `[x − k, x + k]`, saturating at both ends: `x − k` clamps to zero
/// (counts are nonnegative) and `x + k` clamps to `u128::MAX` (counts
/// cannot exceed it), so both clamps are exact rather than lossy.
/// `k = 0` degenerates to the exact counter.
///
/// # Panics
/// On a malformed window (see the [module docs](self)).
pub fn check_counter_additive(h: &CounterHistory, k: u64) -> Result<(), Violation> {
    feed_counter(h, &mut OnlineChecker::counter_additive(k))
}

/// Reads are operations `0..R`, increments follow; none has a pid.
fn feed_counter(h: &CounterHistory, checker: &mut OnlineChecker) -> Result<(), Violation> {
    let reads = h.reads.len();
    checker.check_sorted(reads + h.incs.len(), |i| match h.reads.get(i) {
        Some(r) => (
            None,
            OpKind::Read { returned: r.value },
            r.inv,
            Some(r.resp),
        ),
        None => {
            let inc = &h.incs[i - reads];
            let kind = OpKind::Inc { amount: inc.amount };
            (None, kind, inc.window.inv, inc.window.resp)
        }
    })
}

/// Check a max-register history against the k-multiplicative-accurate max
/// register specification (`k = 1` for the exact max register).
///
/// # Panics
/// If `k = 0`, or on a malformed window (see the [module docs](self)).
pub fn check_maxreg(h: &MaxRegHistory, k: u64) -> Result<(), Violation> {
    let reads = h.reads.len();
    OnlineChecker::maxreg(k).check_sorted(reads + h.writes.len(), |i| match h.reads.get(i) {
        Some(r) => (
            None,
            OpKind::Read { returned: r.value },
            r.inv,
            Some(r.resp),
        ),
        None => {
            let w = &h.writes[i - reads];
            let kind = OpKind::Write { value: w.value };
            (None, kind, w.window.inv, w.window.resp)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Interval, TimedInc, TimedRead, TimedWrite};

    fn inc(inv: u64, resp: u64) -> TimedInc {
        TimedInc::unit(Interval::done(inv, resp))
    }

    fn read(inv: u64, resp: u64, value: u128) -> TimedRead {
        TimedRead { inv, resp, value }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_counter(&CounterHistory::default(), 2).is_ok());
        assert!(check_maxreg(&MaxRegHistory::default(), 2).is_ok());
    }

    #[test]
    fn exact_sequential_counter_accepts() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 2)],
        };
        assert!(check_counter(&h, 1).is_ok());
    }

    #[test]
    fn exact_sequential_counter_rejects_wrong_value() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 3)],
        };
        assert!(check_counter(&h, 1).is_err());
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 1)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn relaxation_widens_acceptance() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 4)],
        };
        assert!(check_counter(&h, 1).is_err(), "exact rejects 4 for v=2");
        assert!(check_counter(&h, 2).is_ok(), "k=2 accepts 4 for v=2");
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 1)],
        };
        assert!(check_counter(&h, 2).is_ok(), "k=2 accepts 1 for v=2");
    }

    #[test]
    fn concurrent_increment_may_or_may_not_count() {
        // inc concurrent with the read: both 0 and 1 acceptable.
        for ret in [0u128, 1] {
            let h = CounterHistory {
                incs: vec![inc(0, 10)],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_counter(&h, 1).is_ok(), "ret {ret}");
        }
        let h = CounterHistory {
            incs: vec![inc(0, 10)],
            reads: vec![read(1, 2, 2)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn long_lived_increment_forces_accumulation() {
        // The trap the pairwise D-term exists for: a long increment iP
        // counted by read 1 plus a short increment completed in between
        // force read 2 to see at least 2.
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4)],
            reads: vec![read(1, 2, 1), read(5, 6, 1)],
        };
        assert!(
            check_counter(&h, 1).is_err(),
            "read1 counted iP; the short inc is forced between the reads"
        );
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4)],
            reads: vec![read(1, 2, 1), read(5, 6, 2)],
        };
        assert!(check_counter(&h, 1).is_ok());
    }

    #[test]
    fn sequenced_reads_must_be_monotone() {
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 1), read(4, 5, 0)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn chained_reads_accumulate_through_the_stack() {
        // Three sequenced reads, an in-between increment after each:
        // every read forces the next one unit higher. Exercises repeated
        // raise_before + insert interleavings.
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4), inc(7, 8)],
            reads: vec![read(1, 2, 1), read(5, 6, 2), read(9, 10, 3)],
        };
        assert!(check_counter(&h, 1).is_ok());
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4), inc(7, 8)],
            reads: vec![read(1, 2, 1), read(5, 6, 2), read(9, 10, 2)],
        };
        assert!(check_counter(&h, 1).is_err(), "third read must reach 3");
    }

    #[test]
    fn batched_increment_counts_with_multiplicity() {
        // One completed batch of 5: a later read must return 5 exactly.
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::done(0, 1), 5)],
            reads: vec![read(2, 3, 5)],
        };
        assert!(check_counter(&h, 1).is_ok());
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::done(0, 1), 5)],
            reads: vec![read(2, 3, 1)],
        };
        assert!(
            check_counter(&h, 1).is_err(),
            "a completed batch forces all 5 units"
        );
    }

    #[test]
    fn pending_batch_allows_any_prefix() {
        // A pending batch of 4 concurrent with the read: any value in
        // 0..=4 is a legal prefix; 5 is not.
        for ret in 0u128..=4 {
            let h = CounterHistory {
                incs: vec![TimedInc::batch(Interval::pending(0), 4)],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_counter(&h, 1).is_ok(), "ret {ret}");
        }
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::pending(0), 4)],
            reads: vec![read(1, 2, 5)],
        };
        assert!(check_counter(&h, 1).is_err());
    }

    #[test]
    fn additive_spec_accepts_and_rejects() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3), inc(4, 5)],
            reads: vec![read(6, 7, 1)],
        };
        assert!(check_counter_additive(&h, 2).is_ok(), "|3 − 1| ≤ 2");
        assert!(check_counter_additive(&h, 1).is_err(), "|3 − 1| > 1");
        // Additive overshoot is also allowed.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 3)],
        };
        assert!(check_counter_additive(&h, 2).is_ok());
        assert!(check_counter_additive(&h, 1).is_err());
    }

    #[test]
    fn pending_increment_is_optional() {
        for ret in [0u128, 1] {
            let h = CounterHistory {
                incs: vec![TimedInc::unit(Interval::pending(0))],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_counter(&h, 1).is_ok(), "ret {ret}");
        }
    }

    fn write(inv: u64, resp: u64, value: u64) -> TimedWrite {
        TimedWrite {
            window: Interval::done(inv, resp),
            value,
        }
    }

    #[test]
    fn exact_maxreg_accepts_and_rejects() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5), write(2, 3, 3)],
            reads: vec![read(4, 5, 5)],
        };
        assert!(check_maxreg(&h, 1).is_ok());
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 3)],
        };
        assert!(check_maxreg(&h, 1).is_err(), "3 was never the maximum");
    }

    #[test]
    fn kmult_maxreg_accepts_magnitude() {
        // Algorithm 2 returns k^p ∈ [v, v·k]: e.g. v = 5, k = 2, x = 8.
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 8)],
        };
        assert!(check_maxreg(&h, 1).is_err());
        assert!(check_maxreg(&h, 2).is_ok());
    }

    #[test]
    fn maxreg_sequenced_reads_monotone() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 8), write(2, 3, 2)],
            reads: vec![read(4, 5, 8), read(6, 7, 2)],
        };
        assert!(check_maxreg(&h, 1).is_err(), "maximum cannot shrink");
    }

    #[test]
    fn maxreg_concurrent_write_optional() {
        for ret in [0u128, 4] {
            let h = MaxRegHistory {
                writes: vec![write(0, 10, 4)],
                reads: vec![read(1, 2, ret)],
            };
            assert!(check_maxreg(&h, 1).is_ok(), "ret {ret}");
        }
    }

    #[test]
    fn maxreg_zero_read_requires_zero_history() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 4)],
            reads: vec![read(2, 3, 0)],
        };
        assert!(check_maxreg(&h, 3).is_err(), "x = 0 forces v = 0");
    }

    #[test]
    fn counter_violation_message_snapshot() {
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 0)],
        };
        let err = check_counter(&h, 1).unwrap_err();
        assert_eq!(
            err.message,
            "read #0 (window [2, 3]) returned 0 but the exact count is \
             confined to an empty window: need \u{2265} 1, \u{2264} 0 \
             (forced-before A = 1, possible-before B = 1)"
        );
    }

    #[test]
    fn maxreg_violation_message_snapshot() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 3)],
        };
        let err = check_maxreg(&h, 1).unwrap_err();
        assert_eq!(
            err.message,
            "read #0 (window [2, 3]) returned 3 but no admissible maximum \
             exists: forced maximum 5, admissible value window [3, 3], and \
             no write invoked at or before the response timestamp 3 has an \
             effective value in that window (k = 1)"
        );
    }

    #[test]
    #[should_panic(expected = "window must satisfy inv < resp")]
    fn malformed_counter_read_window_panics() {
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(3, 3, 1)],
        };
        let _ = check_counter(&h, 1);
    }

    #[test]
    #[should_panic(expected = "window must satisfy inv < resp")]
    fn malformed_maxreg_read_window_panics() {
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(4, 2, 5)],
        };
        let _ = check_maxreg(&h, 1);
    }

    #[test]
    #[should_panic(expected = "window must satisfy inv < resp")]
    fn malformed_window_panics_in_a_counting_sorted_history() {
        // A thousand sequential increments on dense tickets are far above
        // the counting sort's thresholds; the read's window is empty.
        let h = CounterHistory {
            incs: (0..1000).map(|j| inc(2 * j, 2 * j + 1)).collect(),
            reads: vec![read(2000, 2000, 1000)],
        };
        let _ = check_counter(&h, 1);
    }

    #[test]
    fn typed_feed_opens_no_more_slots_than_operations_overlap() {
        // 10⁵ operations, each open across the next C − 1 invocations,
        // so at most C are ever open at once. Increments and reads
        // alternate; each read returns its forced-before count.
        const C: u64 = 8;
        let mut h = CounterHistory::default();
        let mut inc_resps = Vec::new();
        for j in 0..100_000u64 {
            let (inv, resp) = (2 * j, 2 * j + 2 * C - 1);
            if j % 2 == 0 {
                h.incs.push(inc(inv, resp));
                inc_resps.push(resp);
            } else {
                let forced = inc_resps.partition_point(|&r| r < inv);
                h.reads.push(read(inv, resp, forced as u128));
            }
        }
        let mut checker = OnlineChecker::counter(1);
        feed_counter(&h, &mut checker).expect("forced-before reads linearize");
        assert_eq!(checker.open_slots(), C as usize);
    }

    #[test]
    fn multiplicative_window_boundaries() {
        // k = 1: the window degenerates to [x, x].
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 2)],
        };
        assert!(check_counter(&h, 1).is_ok());
        // A read of u128::MAX under k = u64::MAX still demands a count
        // of at least div_ceil(u128::MAX, u64::MAX) > 0; with no
        // increments the possible-before weight is 0, so it rejects
        // (and the saturating upper bound must not mask that).
        let h = CounterHistory {
            incs: vec![],
            reads: vec![read(0, 1, u128::MAX)],
        };
        assert!(check_counter(&h, u64::MAX).is_err());
        // Batched increments of u64::MAX amounts accumulate in u128
        // without overflow; the exact sum is accepted at k = 1.
        let amounts = 3u128 * u128::from(u64::MAX);
        let h = CounterHistory {
            incs: vec![
                TimedInc::batch(Interval::done(0, 1), u64::MAX),
                TimedInc::batch(Interval::done(2, 3), u64::MAX),
                TimedInc::batch(Interval::done(4, 5), u64::MAX),
            ],
            reads: vec![read(6, 7, amounts)],
        };
        assert!(check_counter(&h, 1).is_ok());
        // Saturating upper bound: x * k clamps to u128::MAX, which is
        // exact (no count exceeds it), so a huge read under a huge k
        // accepts any sufficiently large exact count.
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::done(0, 1), u64::MAX)],
            reads: vec![read(2, 3, u128::MAX / u128::from(u64::MAX))],
        };
        assert!(check_counter(&h, u64::MAX).is_ok());
    }

    #[test]
    fn additive_window_boundaries() {
        // k = 0 degenerates to the exact counter.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 1)],
        };
        assert!(check_counter_additive(&h, 0).is_ok());
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 2)],
        };
        assert!(check_counter_additive(&h, 0).is_err());
        // Lower bound saturates at zero: a read of 0 under a huge k
        // admits any small count.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 0)],
        };
        assert!(check_counter_additive(&h, u64::MAX).is_ok());
        // Upper bound saturates at u128::MAX: a read of u128::MAX with
        // k = u64::MAX still demands a count of at least
        // u128::MAX - u64::MAX, which no history here provides.
        let h = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, u128::MAX)],
        };
        assert!(check_counter_additive(&h, u64::MAX).is_err());
    }
}
