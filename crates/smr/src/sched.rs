//! Schedulers: policies for choosing which process steps next in a gated
//! execution.
//!
//! The asynchronous model places no fairness constraints on the adversary;
//! these schedulers span the space the experiments need: fair round-robin
//! and seeded pseudo-random (reproducible "chaotic" interleavings). An
//! exact schedule is not a policy: the lower-bound constructions and the
//! Figure 1 scenarios grant steps one at a time ([`Driver::step`]) or run
//! blocking operations, and an explored schedule replays as a
//! [`Replay`](crate::explore::Replay), crashes included.
//!
//! Policies pick from the driver's incrementally-maintained
//! [`ActiveSet`] rather than a per-step pid slice, so every decision
//! stays O(1)–O(log n) and schedules remain practical at 10⁵–10⁶
//! virtual processes (the coop backend's territory): round-robin uses
//! the set's ordered successor query, and the seeded-random policy its
//! O(1) dense sampling.
//!
//! [`Driver::step`]: crate::Driver::step

use crate::active::ActiveSet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A policy choosing the next process to step among those with work.
pub trait Scheduler {
    /// Pick one member of `active` (non-empty).
    fn next(&mut self, active: &ActiveSet) -> usize;
}

/// Fair cyclic scheduling in ascending pid order.
#[derive(Debug, Default)]
pub struct RoundRobin {
    last: Option<usize>,
}

impl RoundRobin {
    /// A round-robin scheduler starting from the lowest pid.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn next(&mut self, active: &ActiveSet) -> usize {
        assert!(!active.is_empty());
        let first = || active.min().expect("non-empty");
        let pick = match self.last {
            None => first(),
            Some(prev) => active.next_after(prev).unwrap_or_else(first),
        };
        self.last = Some(pick);
        pick
    }
}

/// Seeded pseudo-random scheduling; identical seeds reproduce identical
/// gated executions.
#[derive(Debug)]
pub struct SeededRandom {
    rng: StdRng,
}

impl SeededRandom {
    /// A random scheduler with the given seed.
    pub fn new(seed: u64) -> Self {
        SeededRandom {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for SeededRandom {
    fn next(&mut self, active: &ActiveSet) -> usize {
        assert!(!active.is_empty());
        active.pick(self.rng.random_range(0..active.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pids: &[usize]) -> ActiveSet {
        pids.iter().copied().collect()
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let active = set(&[0, 2, 5]);
        assert_eq!(rr.next(&active), 0);
        assert_eq!(rr.next(&active), 2);
        assert_eq!(rr.next(&active), 5);
        assert_eq!(rr.next(&active), 0);
    }

    #[test]
    fn round_robin_skips_inactive() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.next(&set(&[0, 1, 2])), 0);
        assert_eq!(rr.next(&set(&[0, 2])), 2);
        assert_eq!(rr.next(&set(&[0, 2])), 0);
    }

    #[test]
    fn round_robin_stays_cheap_at_scale() {
        // 10⁵ pids: each pick is a successor query, not a scan.
        let n = 100_000;
        let active: ActiveSet = (0..n).collect();
        let mut rr = RoundRobin::new();
        for expect in 0..n {
            assert_eq!(rr.next(&active), expect);
        }
        assert_eq!(rr.next(&active), 0, "wraps around");
    }

    #[test]
    fn round_robin_wraparound_with_sparse_members_at_word_edges() {
        // Successor queries wrap around correctly when the members sit
        // at summary-word boundaries (63/64/65) and when the previous
        // pick was the largest member.
        let mut rr = RoundRobin::new();
        let active = set(&[63, 64, 65, 127]);
        assert_eq!(rr.next(&active), 63);
        assert_eq!(rr.next(&active), 64);
        assert_eq!(rr.next(&active), 65);
        assert_eq!(rr.next(&active), 127);
        assert_eq!(rr.next(&active), 63, "wraps to the minimum");
        // The remembered pick may vanish from the set entirely: the
        // successor of a non-member must still be found, and the wrap
        // from past-the-end still lands on the minimum.
        let shrunk = set(&[64, 127]);
        assert_eq!(rr.next(&shrunk), 64, "successor of absent 63");
        assert_eq!(rr.next(&shrunk), 127);
        assert_eq!(rr.next(&shrunk), 64, "wraps past absent members");
    }

    #[test]
    fn seeded_random_is_reproducible() {
        let active = set(&[0, 1, 2, 3]);
        let picks1: Vec<_> = {
            let mut s = SeededRandom::new(42);
            (0..50).map(|_| s.next(&active)).collect()
        };
        let picks2: Vec<_> = {
            let mut s = SeededRandom::new(42);
            (0..50).map(|_| s.next(&active)).collect()
        };
        assert_eq!(picks1, picks2);
    }
}
