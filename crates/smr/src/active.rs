//! [`ActiveSet`]: the incrementally-maintained set of runnable processes.
//!
//! `Driver::run_schedule` used to rebuild a sorted `Vec<usize>` of active
//! pids on every step — an `O(n)` scan per primitive that capped gated
//! executions at a few thousand processes. The driver now maintains this
//! set incrementally (insert on submit, remove on completion/crash), and
//! schedulers query it through operations that stay cheap at 10⁵–10⁶
//! pids:
//!
//! * `contains` / `len` — O(1) (dense index),
//! * `pick(i)` — O(1) uniform access for randomized policies,
//! * `min` / `next_after` — O(log₆₄ n) via a hierarchical bitmap, giving
//!   round-robin its sorted cyclic order without a scan,
//! * `insert` / `remove` — O(log₆₄ n).
//!
//! The structure is a classic sparse-set (unordered dense vector plus a
//! position index) fused with a 64-ary summary-bitmap tree over pid
//! space; the dense half serves O(1) sampling, the bitmap half serves
//! ordered queries. The sparse set's two halves share one allocation
//! and every bitmap level sits in one more, so a set costs two
//! allocation calls however many members it takes (the explorer builds
//! one per replay).

/// Sentinel in the position index: pid not present.
const ABSENT: u32 = u32::MAX;

/// Bitmap levels a set over `u32` pids can need: 2³² bits summarize to
/// one word in six 64-ary levels.
const MAX_LEVELS: usize = 6;

/// A set of pids from `0..capacity`, supporting O(1) membership and
/// sampling plus O(log₆₄ n) ordered queries. See the module docs in
/// `active.rs` for the layout.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    capacity: usize,
    /// The sparse set in one allocation: `slots[..capacity]` maps each
    /// pid to its index among the members (or [`ABSENT`]), and
    /// `slots[capacity..]` lists the members in insertion-churn order
    /// (swap-remove on deletion). Room for every pid is reserved at
    /// construction.
    slots: Vec<u32>,
    /// Every bitmap level in one array, level `l` at
    /// `words[level_at[l]..level_at[l + 1]]`. Level 0 is the membership
    /// bitmap over pid space; bit `i` of level `l` is set iff word `i`
    /// of level `l - 1` is non-zero. The top level is a single word.
    words: Vec<u64>,
    level_at: [u32; MAX_LEVELS + 1],
    levels: usize,
}

fn words_for(bits: usize) -> usize {
    bits.div_ceil(64).max(1)
}

impl ActiveSet {
    /// An empty set over pids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity as u64 <= u64::from(u32::MAX), "capacity too large");
        let mut level_at = [0u32; MAX_LEVELS + 1];
        let mut levels = 0;
        let mut words = words_for(capacity);
        loop {
            level_at[levels + 1] = level_at[levels] + words as u32;
            levels += 1;
            if words == 1 {
                break;
            }
            words = words_for(words);
        }
        let mut slots = Vec::with_capacity(2 * capacity);
        slots.resize(capacity, ABSENT);
        ActiveSet {
            capacity,
            slots,
            words: vec![0; level_at[levels] as usize],
            level_at,
            levels,
        }
    }

    /// Bitmap level `l`.
    fn level(&self, l: usize) -> &[u64] {
        &self.words[self.level_at[l] as usize..self.level_at[l + 1] as usize]
    }

    /// The word of level `l` holding bit `idx`.
    fn word_mut(&mut self, l: usize, idx: usize) -> &mut u64 {
        &mut self.words[self.level_at[l] as usize + idx / 64]
    }

    /// Largest pid the set can hold, plus one.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.slots.len() - self.capacity
    }

    /// `true` if no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1) membership test.
    pub fn contains(&self, pid: usize) -> bool {
        pid < self.capacity && self.slots[pid] != ABSENT
    }

    /// The `i`-th member in the set's internal (unordered but
    /// deterministic) enumeration, for uniform sampling.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn pick(&self, i: usize) -> usize {
        self.slots[self.capacity..][i] as usize
    }

    /// Insert `pid`; no-op if already present.
    pub fn insert(&mut self, pid: usize) {
        assert!(pid < self.capacity, "pid {pid} out of range");
        if self.slots[pid] != ABSENT {
            return;
        }
        self.slots[pid] = self.len() as u32;
        self.slots.push(pid as u32);
        let mut idx = pid;
        for l in 0..self.levels {
            let word = self.word_mut(l, idx);
            let was = *word;
            *word |= 1 << (idx % 64);
            if was != 0 {
                break; // summaries above are already set
            }
            idx /= 64;
        }
    }

    /// Remove `pid`; no-op if absent.
    pub fn remove(&mut self, pid: usize) {
        if pid >= self.capacity || self.slots[pid] == ABSENT {
            return;
        }
        let at = self.slots[pid] as usize;
        let last = self.slots.pop().expect("non-empty");
        if last as usize != pid {
            self.slots[self.capacity + at] = last;
            self.slots[last as usize] = at as u32;
        }
        self.slots[pid] = ABSENT;
        let mut idx = pid;
        for l in 0..self.levels {
            let word = self.word_mut(l, idx);
            *word &= !(1 << (idx % 64));
            if *word != 0 {
                break; // word still summarized as non-empty above
            }
            idx /= 64;
        }
    }

    /// Smallest member, if any.
    pub fn min(&self) -> Option<usize> {
        let top = self.levels - 1;
        if self.level(top)[0] == 0 {
            return None;
        }
        let mut idx = 0usize;
        for l in (0..self.levels).rev() {
            let w = self.level(l)[idx];
            debug_assert!(w != 0, "summary bit set over an empty word");
            idx = idx * 64 + w.trailing_zeros() as usize;
        }
        Some(idx)
    }

    /// Smallest member strictly greater than `after`, if any. `after`
    /// need not be a member.
    pub fn next_after(&self, after: usize) -> Option<usize> {
        let idx = self.succ(0, after)?;
        Some(idx)
    }

    /// Smallest flat bit index strictly greater than `x` set at `level`.
    fn succ(&self, level: usize, x: usize) -> Option<usize> {
        let bits = self.level(level);
        let word_idx = x / 64;
        if word_idx < bits.len() {
            let b = x % 64;
            let rem = if b == 63 {
                0
            } else {
                bits[word_idx] >> (b + 1) << (b + 1)
            };
            if rem != 0 {
                return Some(word_idx * 64 + rem.trailing_zeros() as usize);
            }
        }
        if level + 1 == self.levels {
            return None;
        }
        // Next non-empty word of this level, strictly after `word_idx`.
        let w = self.succ(level + 1, word_idx)?;
        Some(w * 64 + bits[w].trailing_zeros() as usize)
    }

    /// Members in ascending order (walks the membership bitmap; O(n/64 +
    /// len) — for observability APIs, not the scheduling hot path).
    pub fn iter_sorted(&self) -> impl Iterator<Item = usize> + '_ {
        self.level(0).iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

impl FromIterator<usize> for ActiveSet {
    /// Build a set sized to the largest pid — a convenience for tests.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let pids: Vec<usize> = iter.into_iter().collect();
        let cap = pids.iter().max().map_or(1, |&m| m + 1);
        let mut set = ActiveSet::new(cap);
        for pid in pids {
            set.insert(pid);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(200);
        assert!(s.is_empty());
        for pid in [0, 5, 64, 65, 130, 199] {
            s.insert(pid);
        }
        s.insert(5); // idempotent
        assert_eq!(s.len(), 6);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        s.remove(64);
        s.remove(64); // idempotent
        assert!(!s.contains(64));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn ordered_queries() {
        let s: ActiveSet = [3usize, 70, 140, 141].into_iter().collect();
        assert_eq!(s.min(), Some(3));
        assert_eq!(s.next_after(0), Some(3));
        assert_eq!(s.next_after(3), Some(70));
        assert_eq!(s.next_after(70), Some(140));
        assert_eq!(s.next_after(140), Some(141));
        assert_eq!(s.next_after(141), None);
        assert_eq!(s.iter_sorted().collect::<Vec<_>>(), vec![3, 70, 140, 141]);
    }

    #[test]
    fn empty_set_queries() {
        let s = ActiveSet::new(1_000);
        assert_eq!(s.min(), None);
        assert_eq!(s.next_after(0), None);
        assert_eq!(s.iter_sorted().count(), 0);
    }

    #[test]
    fn large_sparse_set_round_trips() {
        // Three bitmap levels (10⁵ pids) with scattered members.
        let n = 100_000;
        let mut s = ActiveSet::new(n);
        let members: Vec<usize> = (0..n).step_by(997).collect();
        for &pid in &members {
            s.insert(pid);
        }
        assert_eq!(s.iter_sorted().collect::<Vec<_>>(), members);
        // Successor chain visits every member in order.
        let mut walked = vec![s.min().unwrap()];
        while let Some(next) = s.next_after(*walked.last().unwrap()) {
            walked.push(next);
        }
        assert_eq!(walked, members);
        // Remove every other member; queries stay consistent.
        for &pid in members.iter().step_by(2) {
            s.remove(pid);
        }
        let expect: Vec<usize> = members.iter().copied().skip(1).step_by(2).collect();
        assert_eq!(s.iter_sorted().collect::<Vec<_>>(), expect);
        assert_eq!(s.len(), expect.len());
    }

    #[test]
    fn word_boundary_64_65() {
        // The summary bitmap's word boundary: members straddling bits
        // 63/64 must survive inserts, removes and ordered queries on
        // both sides of the word edge.
        let mut s = ActiveSet::new(130);
        for pid in [63, 64, 65] {
            s.insert(pid);
        }
        assert_eq!(s.iter_sorted().collect::<Vec<_>>(), vec![63, 64, 65]);
        assert_eq!(s.next_after(63), Some(64), "crosses the word edge");
        assert_eq!(s.next_after(64), Some(65), "within the second word");
        s.remove(64);
        assert_eq!(
            s.next_after(63),
            Some(65),
            "successor skips the removed first bit of word 1"
        );
        s.remove(65);
        // Word 1 is now empty: its summary bit must be cleared, or the
        // successor query would descend into an empty word.
        assert_eq!(s.next_after(63), None);
        assert_eq!(s.min(), Some(63));
        s.remove(63);
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
    }

    #[test]
    fn remove_then_readd_same_pid() {
        // Re-adding a pid after removal must restore both halves of the
        // structure: dense-index membership and the bitmap path.
        let mut s = ActiveSet::new(200);
        for pid in [7, 64, 130] {
            s.insert(pid);
        }
        s.remove(64);
        assert!(!s.contains(64));
        s.insert(64);
        assert!(s.contains(64));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter_sorted().collect::<Vec<_>>(), vec![7, 64, 130]);
        assert_eq!(s.next_after(7), Some(64));
        // The dense half still enumerates exactly the members.
        let mut picks: Vec<usize> = (0..s.len()).map(|i| s.pick(i)).collect();
        picks.sort_unstable();
        assert_eq!(picks, vec![7, 64, 130]);
        // Churn the same pid repeatedly: no duplicates, no leaks.
        for _ in 0..10 {
            s.remove(64);
            s.insert(64);
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn dense_pick_enumerates_members() {
        let mut s = ActiveSet::new(50);
        for pid in 0..50 {
            s.insert(pid);
        }
        s.remove(10);
        s.remove(49);
        let mut seen: Vec<usize> = (0..s.len()).map(|i| s.pick(i)).collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..50).filter(|&p| p != 10 && p != 49).collect();
        assert_eq!(seen, expect);
    }
}
