//! Reference checkers: direct transcriptions of the decision procedures
//! in [`monotone`](crate::monotone), without the sweep machinery.
//!
//! * [`check_counter_with`] is the previous engine generation: the
//!   per-read window bounds plus an explicit **pairwise** loop over all
//!   preceding reads for constraint 3 — `O(R² log I)` for `R` reads and
//!   `I` increment records.
//! * [`check_maxreg`] evaluates the max-register greedy with plain
//!   quadratic scans instead of the event sweep — `O(R·W + W²)`.
//!
//! Both decide the same predicates as the engine behind their
//! [`monotone`] counterparts; their sole purpose is cross-validation
//! (`tests/cross_validation.rs` and `tests/online_differential.rs`
//! compare them with the engine on thousands of randomized histories,
//! and `exp_checker` measures the asymptotic gap). Do not use them on
//! large histories.
//!
//! [`monotone`]: crate::monotone

use crate::history::{CounterHistory, MaxRegHistory, Violation};

/// Pairwise-reference check of a counter history against the
/// k-multiplicative spec (`k = 1` for the exact counter).
pub fn check_counter(h: &CounterHistory, k: u64) -> Result<(), Violation> {
    assert!(k >= 1);
    let kk = u128::from(k);
    check_counter_with(h, |x| (x.div_ceil(kk), x.saturating_mul(kk)))
}

/// Pairwise-reference check against the **k-additive** spec.
pub fn check_counter_additive(h: &CounterHistory, k: u64) -> Result<(), Violation> {
    let kk = u128::from(k);
    check_counter_with(h, move |x| (x.saturating_sub(kk), x.saturating_add(kk)))
}

/// Pairwise-reference check against an arbitrary relaxed read
/// specification — the retired `O(R² log I)` hot loop, kept verbatim as
/// the cross-validation oracle for the sweep engine.
pub fn check_counter_with<W>(h: &CounterHistory, window: W) -> Result<(), Violation>
where
    W: Fn(u128) -> (u128, u128),
{
    // Completed increments, by response; all increments, by invocation
    // (both weighted by multiplicity).
    let mut by_resp: Vec<(u64, u64)> = h
        .incs
        .iter()
        .filter_map(|i| i.window.resp.map(|r| (r, i.amount)))
        .collect();
    by_resp.sort_unstable();
    let resp_prefix = prefix_sums(&by_resp);
    let mut by_inv: Vec<(u64, u64)> = h.incs.iter().map(|i| (i.window.inv, i.amount)).collect();
    by_inv.sort_unstable();
    let inv_prefix = prefix_sums(&by_inv);

    // Completed increments as (resp, inv, amount), sorted by resp —
    // streamed into the Fenwick tree (indexed by inv rank) as the loop
    // passes their response times.
    let mut completed: Vec<(u64, u64, u64)> = h
        .incs
        .iter()
        .filter_map(|i| i.window.resp.map(|r| (r, i.window.inv, i.amount)))
        .collect();
    completed.sort_unstable();
    let inv_rank = |t: u64| -> usize { by_inv.partition_point(|&(x, _)| x <= t) };

    let mut reads: Vec<(usize, &crate::history::TimedRead)> = h.reads.iter().enumerate().collect();
    reads.sort_by_key(|(_, r)| r.inv);

    let mut fen = Fenwick::new(by_inv.len());
    let mut stream = 0usize;
    // Assigned counts, in `reads` (inv-sorted) order.
    let mut assigned: Vec<u128> = Vec::with_capacity(reads.len());

    for (pos, (idx, r)) in reads.iter().enumerate() {
        assert!(r.inv < r.resp, "read window must satisfy inv < resp");
        // Stream increments with resp < r.inv into the Fenwick tree.
        while stream < completed.len() && completed[stream].0 < r.inv {
            fen.add(inv_rank(completed[stream].1) - 1, completed[stream].2);
            stream += 1;
        }
        let a = weighted_lt(&by_resp, &resp_prefix, r.inv);
        let b = weighted_leq(&by_inv, &inv_prefix, r.resp);
        let (spec_lo, spec_hi) = window(r.value);
        let mut lo = spec_lo.max(a);
        let hi = spec_hi.min(b);

        // Pairwise constraints from every read that precedes r.
        for (ppos, (_, p)) in reads.iter().enumerate().take(pos) {
            if p.resp < r.inv {
                // D = completed increments with inv > p.resp and resp < r.inv.
                // The tree currently holds exactly those with resp < r.inv.
                let d = fen.count_suffix(inv_rank(p.resp));
                lo = lo.max(assigned[ppos] + d);
            }
        }

        if lo > hi {
            return Err(Violation {
                message: format!(
                    "read #{idx} (window [{}, {}]) returned {} but the exact \
                     count is confined to an empty window: need ≥ {lo}, ≤ {hi} \
                     (forced-before A = {a}, possible-before B = {b})",
                    r.inv, r.resp, r.value
                ),
            });
        }
        assigned.push(lo);
    }
    Ok(())
}

/// Quadratic-reference check of a max-register history against the
/// k-multiplicative spec: the same greedy minimal-maximum recurrence as
/// [`monotone::check_maxreg`](crate::monotone::check_maxreg), with every
/// quantity recomputed by a plain scan.
pub fn check_maxreg(h: &MaxRegHistory, k: u64) -> Result<(), Violation> {
    assert!(k >= 1);
    let kk = u128::from(k);

    // Reads in response order; minimal[j] = the minimal achievable
    // maximum at read j's linearization point.
    let mut reads: Vec<(usize, &crate::history::TimedRead)> = h.reads.iter().enumerate().collect();
    reads.sort_by_key(|(_, r)| r.resp);
    let mut minimal: Vec<u128> = Vec::with_capacity(reads.len());

    // Largest completed write with resp strictly before t.
    let max_write_before = |t: u64| -> u128 {
        h.writes
            .iter()
            .filter(|w| matches!(w.window.resp, Some(wr) if wr < t))
            .map(|w| u128::from(w.value))
            .max()
            .unwrap_or(0)
    };

    for (pos, (idx, r)) in reads.iter().enumerate() {
        assert!(r.inv < r.resp, "read window must satisfy inv < resp");
        let spec_lo = r.value.div_ceil(kk).min(r.value);
        let spec_hi = r.value.saturating_mul(kk);
        // Reads finalized so far are exactly those with smaller resp, so
        // scanning the `minimal` prefix covers every read that could
        // precede r (or a witness) in real time.
        let max_read_before = |cut: usize, t: u64| -> u128 {
            reads[..cut]
                .iter()
                .zip(&minimal)
                .filter(|((_, p), _)| p.resp < t)
                .map(|(_, &m)| m)
                .max()
                .unwrap_or(0)
        };
        let base = max_write_before(r.inv).max(max_read_before(pos, r.inv));
        let m = if base >= spec_lo {
            (base <= spec_hi).then_some(base)
        } else {
            // Smallest admissible effective value among witness writes
            // invoked at or before r.resp.
            h.writes
                .iter()
                .filter(|w| w.window.inv <= r.resp)
                .map(|w| {
                    u128::from(w.value)
                        .max(max_write_before(w.window.inv))
                        .max(max_read_before(pos, w.window.inv))
                })
                .filter(|&ev| ev >= spec_lo && ev <= spec_hi)
                .min()
        };
        match m {
            Some(m) => minimal.push(m),
            None => {
                return Err(Violation {
                    message: format!(
                        "read #{idx} (window [{}, {}]) returned {} but no \
                         admissible maximum exists: forced maximum {base}, \
                         admissible value window [{spec_lo}, {spec_hi}], and \
                         no witness write invoked by {} has an effective \
                         value in that window (k = {k})",
                        r.inv, r.resp, r.value, r.resp
                    ),
                })
            }
        }
    }
    Ok(())
}

/// Prefix sums of the weights of a time-sorted `(time, weight)` slice.
/// With [`weighted_lt`]/[`weighted_leq`], the weighted-count primitive
/// of the pairwise reference, shared with history generators that must
/// agree with its boundary semantics (e.g. `exp_checker`).
///
/// The slice **must** be sorted by time: the companion lookups run
/// `partition_point`, which silently returns garbage on unsorted
/// input. All three functions `debug_assert!` the contract, so a
/// violation panics in debug builds instead of corrupting verdicts.
pub fn prefix_sums(sorted: &[(u64, u64)]) -> Vec<u128> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0].0 <= w[1].0),
        "prefix_sums requires a time-sorted slice"
    );
    let mut out = Vec::with_capacity(sorted.len());
    let mut run: u128 = 0;
    for &(_, w) in sorted {
        run += u128::from(w);
        out.push(run);
    }
    out
}

/// Total weight of entries with time strictly less than `t`.
/// `sorted` must be time-sorted (see [`prefix_sums`]).
pub fn weighted_lt(sorted: &[(u64, u64)], prefix: &[u128], t: u64) -> u128 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0].0 <= w[1].0),
        "weighted_lt requires a time-sorted slice"
    );
    let cnt = sorted.partition_point(|&(x, _)| x < t);
    if cnt == 0 {
        0
    } else {
        prefix[cnt - 1]
    }
}

/// Total weight of entries with time less than or equal to `t`.
/// `sorted` must be time-sorted (see [`prefix_sums`]).
pub fn weighted_leq(sorted: &[(u64, u64)], prefix: &[u128], t: u64) -> u128 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0].0 <= w[1].0),
        "weighted_leq requires a time-sorted slice"
    );
    let cnt = sorted.partition_point(|&(x, _)| x <= t);
    if cnt == 0 {
        0
    } else {
        prefix[cnt - 1]
    }
}

/// A Fenwick (binary indexed) tree over `len` slots, counting weighted
/// points.
struct Fenwick {
    tree: Vec<u128>,
    total: u128,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
            total: 0,
        }
    }

    fn add(&mut self, i: usize, delta: u64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += u128::from(delta);
            i += i & i.wrapping_neg();
        }
        self.total += u128::from(delta);
    }

    /// Sum of slots `0..=i-1` (prefix of length `i`).
    fn prefix(&self, i: usize) -> u128 {
        let mut i = i.min(self.tree.len() - 1);
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Weight in slots `from..` (suffix).
    fn count_suffix(&self, from: usize) -> u128 {
        self.total - self.prefix(from)
    }
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

    fn write(inv: u64, resp: u64, value: u64) -> TimedWrite {
        TimedWrite {
            window: Interval::done(inv, resp),
            value,
        }
    }

    #[test]
    fn fenwick_counts() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 2);
        f.add(7, 1);
        assert_eq!(f.prefix(0), 0);
        assert_eq!(f.prefix(1), 1);
        assert_eq!(f.prefix(4), 3);
        assert_eq!(f.prefix(8), 4);
        assert_eq!(f.count_suffix(4), 1);
        assert_eq!(f.count_suffix(0), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-sorted")]
    fn prefix_sums_panics_on_unsorted_slice_in_debug() {
        let _ = prefix_sums(&[(5, 1), (2, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-sorted")]
    fn weighted_lt_panics_on_unsorted_slice_in_debug() {
        let _ = weighted_lt(&[(5, 1), (2, 1)], &[1, 2], 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-sorted")]
    fn weighted_leq_panics_on_unsorted_slice_in_debug() {
        let _ = weighted_leq(&[(5, 1), (2, 1)], &[1, 2], 3);
    }

    #[test]
    fn reference_counter_decides_the_textbook_cases() {
        let h = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 2)],
        };
        assert!(check_counter(&h, 1).is_ok());
        let h = CounterHistory {
            incs: vec![inc(0, 100), inc(3, 4)],
            reads: vec![read(1, 2, 1), read(5, 6, 1)],
        };
        assert!(check_counter(&h, 1).is_err(), "forced accumulation");
        let h = CounterHistory {
            incs: vec![TimedInc::batch(Interval::done(0, 1), 5)],
            reads: vec![read(2, 3, 5)],
        };
        assert!(check_counter(&h, 1).is_ok(), "multiplicity-aware");
        assert!(check_counter_additive(&h, 4).is_ok());
    }

    #[test]
    fn reference_maxreg_decides_the_textbook_cases() {
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
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 8), write(2, 3, 2)],
            reads: vec![read(4, 5, 8), read(6, 7, 2)],
        };
        assert!(check_maxreg(&h, 1).is_err(), "maximum cannot shrink");
        let h = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 8)],
        };
        assert!(check_maxreg(&h, 2).is_ok(), "k = 2 admits 8 for v = 5");
    }
}
