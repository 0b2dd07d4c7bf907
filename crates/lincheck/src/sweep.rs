//! The monotone stack behind the counter engine ([`crate::online`]):
//! entries `(resp, term)` inserted in nondecreasing `resp` order,
//! supporting
//!
//! * `raise_before(t, w)` — add `w` to the term of every entry with
//!   `resp < t` (a *prefix* of the stack);
//! * `max()` — the largest current term;
//! * `insert(resp, term)` — add an entry at the top.
//!
//! Invariant: terms strictly increase from bottom (oldest `resp`) to
//! top. An entry whose term is overtaken by an earlier entry is
//! *dominated forever* — every future `raise_before` that reaches it
//! also reaches the earlier entry — so it is retired. Terms are stored
//! as successive differences in an append-only sorted vec: a prefix
//! raise is `+w` on the first live difference and a deficit walk from
//! the boundary (one `partition_point`) that retires entries whose
//! difference it exhausts. Retired entries keep a zero diff in place —
//! prefix sums are unaffected — and are hopped over with union-find
//! "next live" pointers that compress on traversal, so the walk costs
//! `O(α)` amortized per retired entry. (The previous `BTreeMap`
//! encoding hit an allocator + pointer-chasing knee near 10⁶ records.)
//!
//! The engine also needs the state to stay *small* on unbounded
//! histories, which [`MonotoneStack::fold_and_compact`] provides: any
//! two adjacent live entries whose gap can no longer contain a future
//! raise boundary are observationally identical and fold into one (see
//! the method docs for the argument).

pub(crate) struct MonotoneStack {
    /// `(resp, diff)` in nondecreasing `resp` order; the term of a live
    /// entry is the sum of all diffs up to and including its own.
    entries: Vec<(u64, u128)>,
    /// Next-live pointers: `skip[i] == i` marks a live entry; a dead
    /// entry points at some strictly larger index (possibly
    /// `entries.len()`). Dead entries are never revived — a same-`resp`
    /// replacement appends a fresh entry instead — so compressed paths
    /// stay valid forever (until a physical compaction rebuilds both
    /// vecs from scratch).
    skip: Vec<usize>,
    /// Number of live entries.
    live: usize,
    /// Sum of all diffs = term of the top live entry = current maximum.
    total: u128,
}

impl MonotoneStack {
    /// An empty stack pre-sized for `cap` inserts (each `insert` appends
    /// at most one entry).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        MonotoneStack {
            entries: Vec::with_capacity(cap),
            skip: Vec::with_capacity(cap),
            live: 0,
            total: 0,
        }
    }

    /// Largest current term, if any entry is live.
    pub(crate) fn max(&self) -> Option<u128> {
        (self.live > 0).then_some(self.total)
    }

    /// Number of live entries (the analogue of the old map's `len`).
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }

    /// First live index at or after `i` (or `entries.len()`), with path
    /// compression over the dead chain it walked.
    fn first_live(&mut self, i: usize) -> usize {
        let mut j = i;
        while j < self.entries.len() && self.skip[j] != j {
            j = self.skip[j];
        }
        let mut k = i;
        while k < self.entries.len() && self.skip[k] != k {
            k = std::mem::replace(&mut self.skip[k], j);
        }
        j
    }

    /// Retire entry `i`: zero diff stays in place, pointers hop past it.
    fn retire(&mut self, i: usize) {
        self.entries[i].1 = 0;
        self.skip[i] = i + 1;
        self.live -= 1;
    }

    /// Push `(resp, term)`. Requires `resp` ≥ every present key (inserts
    /// arrive in response order). A term not exceeding the current
    /// maximum is dominated on arrival and discarded.
    pub(crate) fn insert(&mut self, resp: u64, term: u128) {
        if self.live > 0 && term <= self.total {
            return;
        }
        // An existing live entry at the same `resp` (necessarily the
        // top) has identical future exposure and a smaller term: retire
        // it, folding its diff into the newcomer's.
        let mut folded = 0;
        if let Some(i) = self.entries.len().checked_sub(1) {
            debug_assert!(self.entries[i].0 <= resp, "inserts arrive in resp order");
            if self.entries[i].0 == resp && self.skip[i] == i {
                folded = self.entries[i].1;
                self.retire(i);
            }
        }
        self.entries.push((resp, term - self.total + folded));
        self.skip.push(self.skip.len());
        self.live += 1;
        self.total = term;
    }

    /// Add `w` to the term of every entry with `resp < t`, retiring
    /// entries this dominates.
    pub(crate) fn raise_before(&mut self, t: u64, w: u128) {
        let first = self.first_live(0);
        if first >= self.entries.len() || self.entries[first].0 >= t {
            return; // no live entry precedes t
        }
        self.entries[first].1 += w;
        self.total += w;
        // Restore the terms of entries at or beyond the boundary by
        // walking the deficit through their diffs; an exhausted diff
        // means the entry's term sank to its predecessor's — dominated.
        let mut deficit = w;
        let mut i = self.entries.partition_point(|&(resp, _)| resp < t);
        loop {
            i = self.first_live(i);
            if i >= self.entries.len() {
                break;
            }
            let d = deficit.min(self.entries[i].1);
            self.entries[i].1 -= d;
            deficit -= d;
            self.total -= d;
            if self.entries[i].1 == 0 {
                self.retire(i);
            }
            if deficit == 0 {
                break;
            }
            i += 1;
        }
    }

    /// Fold adjacent live entries whose gap is sealed, then physically
    /// compact the backing vecs down to the surviving live entries.
    ///
    /// The stack's observable behavior depends only on the term of the
    /// last live entry *below* each future `raise_before(t, ..)`
    /// boundary, plus the top term (`max`). `protected(lo, hi)` must
    /// answer whether some future boundary `t` can still satisfy
    /// `lo < t ≤ hi`: for the streaming counter checker those
    /// boundaries are exactly the invocation timestamps of in-flight
    /// increments (everything else is already in the past). When no
    /// boundary can land in `(lo, hi]`, the entry at `lo` is never
    /// again the last-below-a-boundary entry on its own, so its diff
    /// folds into its live successor — total and every still-reachable
    /// term are unchanged. Folding is monotone: gaps only seal further
    /// as in-flight increments complete, so a fold is never regretted.
    ///
    /// Costs `O(live + dead)`; callers amortize it by invoking only
    /// when `live_len` has roughly doubled since the previous call.
    /// `protected` is asked about consecutive gaps from the bottom of
    /// the stack up, so both arguments increase from call to call.
    pub(crate) fn fold_and_compact(&mut self, mut protected: impl FnMut(u64, u64) -> bool) {
        let mut kept: Vec<(u64, u128)> = Vec::with_capacity(self.live);
        let mut i = self.first_live(0);
        while i < self.entries.len() {
            let (resp, diff) = self.entries[i];
            match kept.last().copied() {
                Some((lo, folded)) if !protected(lo, resp) => {
                    kept.pop();
                    kept.push((resp, folded + diff));
                }
                _ => kept.push((resp, diff)),
            }
            i = self.first_live(i + 1);
        }
        self.live = kept.len();
        self.skip.clear();
        self.skip.extend(0..kept.len());
        self.entries = kept;
        debug_assert_eq!(
            self.entries.iter().map(|&(_, d)| d).sum::<u128>(),
            self.total
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_stack_prefix_raises_and_domination() {
        let mut s = MonotoneStack::with_capacity(4);
        assert_eq!(s.max(), None);
        s.insert(2, 5);
        s.insert(4, 7);
        s.insert(6, 20);
        assert_eq!(s.max(), Some(20));
        // Raise entries with resp < 3 by 4: terms 9, 7→dominated, 20.
        s.raise_before(3, 4);
        assert_eq!(s.max(), Some(20));
        assert_eq!(s.live_len(), 2, "middle entry retired");
        // Raise entries with resp < 7 by 100: both remaining entries.
        s.raise_before(7, 100);
        assert_eq!(s.max(), Some(120));
        // Dominated-on-arrival insert is discarded.
        s.insert(9, 3);
        assert_eq!(s.live_len(), 2);
        // Raise with boundary before everything: no-op.
        s.raise_before(1, 50);
        assert_eq!(s.max(), Some(120));
    }

    #[test]
    fn fold_merges_sealed_gaps_only() {
        let mut s = MonotoneStack::with_capacity(4);
        s.insert(2, 5);
        s.insert(4, 7);
        s.insert(6, 20);
        // A boundary can still land in (2, 4]; the gap (4, 6] is sealed.
        s.fold_and_compact(|lo, hi| lo < 4 && 4 <= hi);
        assert_eq!(s.live_len(), 2);
        assert_eq!(s.max(), Some(20));
        // The surviving prefix entry still absorbs raises below 4...
        s.raise_before(4, 10);
        assert_eq!(s.max(), Some(20), "15 < 20: top unchanged");
        s.raise_before(4, 10);
        assert_eq!(s.max(), Some(25), "prefix term 25 overtakes the top");
        // ...and with every gap sealed the stack collapses to one entry.
        s.fold_and_compact(|_, _| false);
        assert_eq!(s.live_len(), 1);
        assert_eq!(s.max(), Some(25));
    }

    #[test]
    fn fold_is_invisible_to_an_interleaved_raise_insert_workload() {
        // Run the same script with and without periodic folding, where
        // the fold's `protected` oracle is fed the script's own future
        // raise boundaries — results must match exactly.
        let script: Vec<(u8, u64, u128)> = vec![
            (0, 2, 10),
            (0, 5, 12),
            (1, 3, 4), // raise_before(3, 4)
            (0, 7, 30),
            (1, 6, 100),
            (0, 9, 131),
            (1, 10, 1),
        ];
        let mut plain = MonotoneStack::with_capacity(8);
        let mut folded = MonotoneStack::with_capacity(8);
        for (step, (op, t, v)) in script.iter().copied().enumerate() {
            let future: Vec<u64> = script[step..]
                .iter()
                .filter(|&&(op, ..)| op == 1)
                .map(|&(_, t, _)| t)
                .collect();
            match op {
                0 => {
                    plain.insert(t, v);
                    folded.insert(t, v);
                }
                _ => {
                    plain.raise_before(t, v);
                    folded.raise_before(t, v);
                }
            }
            folded.fold_and_compact(|lo, hi| future.iter().any(|&b| lo < b && b <= hi));
            assert_eq!(plain.max(), folded.max(), "step {step}");
        }
        assert_eq!(folded.live_len(), 1, "all gaps sealed at the end");
    }
}
