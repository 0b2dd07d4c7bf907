//! Algorithm 1: the wait-free linearizable k-multiplicative-accurate
//! unbounded counter.
//!
//! Shared state (paper lines 1–3):
//!
//! * `switch_j`, `j ∈ ℕ` — an unbounded sequence of 1-bit base objects
//!   supporting `read` and `test&set`, held in a lock-free
//!   [`SegArray`] so every bit has stable identity.
//! * `H[n]` — the helping array: one register per process holding a
//!   `(val, sn)` pair (packed into one `u64`, as the pseudocode treats the
//!   pair as a single atomic value).
//!
//! The per-process persistent local variables (lines 4–9) live in a
//! [`KmultCounterHandle`], one per process.
//!
//! Accuracy contract: a `CounterRead` returning `x` with `v` increments
//! linearized before it satisfies `v/k ≤ x ≤ v·k`, provided `k ≥ √n`
//! (Theorem III.9). `u_min`/`u_max` of Claim III.6 give the exact
//! envelope; see [`arith`]. **Startup boundary note** (DESIGN.md §2,
//! "Startup window"): at the very beginning of an execution, while only
//! `switch_0` is set (the `(p,q) = (0,0)` window), up to `1 + n(k−1)`
//! increments may be pending against a read of `k`, so the raw `v ≤ k·x`
//! side needs `n ≤ k + 1` there; Claim III.6's inequality covers
//! `q ≥ 1 ∨ p ≥ 1`. Tests check the paper's envelope everywhere and the
//! raw k-accuracy once the execution leaves that window (or when
//! `n ≤ k + 1`).

pub mod arith;
mod handle;
pub mod tasks;

pub use handle::{FlushMachine, IncMachine, KmultCounterHandle, KmultReadOutcome, ReadMachine};
pub use tasks::{KmultIncTask, KmultReadTask, SharedKmultHandle};

use smr::{CachePadded, ProcCtx, Register, SegArray, TasBit};
use std::sync::Arc;

/// Switches resident in the padded hot stripe; `switch_j` for `j ≥`
/// this lives in the on-demand cold `SegArray`.
const HOT_SWITCHES: usize = 64;

/// The shared part of Algorithm 1. Create per-process
/// [`KmultCounterHandle`]s with [`KmultCounter::handle`] to operate on it.
pub struct KmultCounter {
    k: u64,
    n: usize,
    /// `switch_j` for `j < HOT_SWITCHES`, one cache line per bit. The
    /// low-index switches absorb almost all `test&set` traffic (the
    /// frontier index grows roughly logarithmically in the count), so
    /// striping them keeps concurrent writers — at this counter and at
    /// neighbouring counters in sharded sketches — from false-sharing a
    /// line.
    hot_switches: Box<[CachePadded<TasBit>]>,
    /// `switch_j` for `j ≥ HOT_SWITCHES` (allocated on demand; segments
    /// are cache-line aligned, see [`SegArray`]).
    cold_switches: SegArray<TasBit>,
    /// `H[i] = (val, sn)` packed as `val << 32 | sn`.
    help: Vec<Register>,
}

impl KmultCounter {
    /// A k-multiplicative-accurate counter for `n` processes.
    ///
    /// The accuracy theorem needs `k ≥ √n`; smaller `k` is accepted (the
    /// object is still wait-free and linearizable w.r.t. *some* relaxed
    /// envelope) so the lower-bound experiments can probe the `k < √n`
    /// regime — check [`KmultCounter::accuracy_guaranteed`].
    ///
    /// # Panics
    /// Panics if `n == 0` or `k < 2`.
    pub fn new(n: usize, k: u64) -> Arc<Self> {
        assert!(n > 0, "need at least one process");
        assert!(k >= 2, "k must be at least 2");
        Arc::new(KmultCounter {
            k,
            n,
            hot_switches: (0..HOT_SWITCHES)
                .map(|_| CachePadded::new(TasBit::new()))
                .collect(),
            cold_switches: SegArray::new(),
            help: (0..n).map(|_| Register::new(0)).collect(),
        })
    }

    /// The accuracy parameter `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The number of processes `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` iff `k ≥ √n`, the premise of Theorem III.9.
    pub fn accuracy_guaranteed(&self) -> bool {
        self.k.saturating_mul(self.k) >= self.n as u64
    }

    /// A handle for process `pid`, holding its persistent local variables.
    ///
    /// Each process must use exactly one handle; the handle asserts that
    /// the [`ProcCtx`] passed to its operations matches `pid`.
    pub fn handle(self: &Arc<Self>, pid: usize) -> KmultCounterHandle {
        assert!(pid < self.n, "pid {pid} out of range (n = {})", self.n);
        KmultCounterHandle::new(self.clone(), pid)
    }

    /// `switch_j`: the hot padded stripe for low indices, the cold
    /// segment array beyond it.
    ///
    /// # Panics
    /// Panics with the offending index if `j` does not fit this
    /// platform's `usize` (see [`peek_switch`](KmultCounter::peek_switch)).
    pub(crate) fn switch(&self, j: u64) -> &TasBit {
        let idx = Self::switch_index(j);
        if idx < HOT_SWITCHES {
            &self.hot_switches[idx]
        } else {
            self.cold_switches.get(idx - HOT_SWITCHES)
        }
    }

    /// Narrow a switch index to `usize`. On 64-bit platforms this is
    /// total; on narrower ones an index beyond `usize::MAX` — which no
    /// reachable execution produces (the frontier grows logarithmically
    /// in the increment count) — panics with the index in the message
    /// rather than a context-free `expect`.
    fn switch_index(j: u64) -> usize {
        usize::try_from(j).unwrap_or_else(|_| {
            panic!(
                "switch index {j} does not fit usize on this platform (max {})",
                usize::MAX
            )
        })
    }

    /// Read `H[i]`, unpacking the `(val, sn)` pair. One step.
    pub(crate) fn help_read(&self, ctx: &ProcCtx, i: usize) -> (u64, u64) {
        let raw = self.help[i].read(ctx);
        (raw >> 32, raw & 0xFFFF_FFFF)
    }

    /// Write `(val, sn)` to `H[i]`. One step.
    pub(crate) fn help_write(&self, ctx: &ProcCtx, i: usize, val: u64, sn: u64) {
        assert!(val < (1 << 32), "switch index exceeds packing width");
        assert!(sn < (1 << 32), "sequence number exceeds packing width");
        self.help[i].write(ctx, (val << 32) | sn);
    }

    /// Test-and-inspection view of `switch_j` without charging a step.
    /// **Not a primitive.**
    ///
    /// # Panics
    /// Panics (with the index in the message) if `j` exceeds this
    /// platform's `usize` — only possible on 32-bit targets, and only
    /// for indices no reachable execution produces.
    pub fn peek_switch(&self, j: u64) -> bool {
        self.switch(j).peek()
    }

    /// Test-and-inspection view of the counter's current return value:
    /// walk the switch prefix exactly like `CounterRead`'s cursor (from
    /// index 0, so no handle state is needed or touched) and expand the
    /// leading exponent. **Not a primitive** — zero steps are charged;
    /// for shadow checks in tests and experiments only, never inside an
    /// operation.
    pub fn peek_approx_value(&self) -> u128 {
        let (mut p, mut q) = (0, 0);
        let mut last = 0u64;
        let mut seen = false;
        while self.peek_switch(last) {
            seen = true;
            (p, q) = arith::decompose(last, self.k);
            // The cursor geometry of CounterRead lines 40–43.
            if last.is_multiple_of(self.k) {
                last += 1;
            } else {
                last += self.k - 1;
            }
        }
        if seen {
            arith::return_value(p, q, self.k)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::Runtime;

    #[test]
    fn construction_validates() {
        let c = KmultCounter::new(4, 2);
        assert_eq!(c.k(), 2);
        assert_eq!(c.n(), 4);
        assert!(c.accuracy_guaranteed());
        let c = KmultCounter::new(16, 3);
        assert!(!c.accuracy_guaranteed(), "3 < √16");
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn k_one_is_rejected() {
        let _ = KmultCounter::new(1, 1);
    }

    #[test]
    fn help_pack_round_trips() {
        let rt = Runtime::free_running(2);
        let ctx = rt.ctx(0);
        let c = KmultCounter::new(2, 4);
        c.help_write(&ctx, 1, 123_456, 789);
        assert_eq!(c.help_read(&ctx, 1), (123_456, 789));
    }

    #[test]
    fn switches_start_clear() {
        let c = KmultCounter::new(1, 2);
        assert!(!c.peek_switch(0));
        assert!(!c.peek_switch(1000));
    }

    #[test]
    fn switches_have_stable_identity_across_the_hot_cold_boundary() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let c = KmultCounter::new(1, 2);
        // Set a bit on each side of the boundary and at the seam.
        for j in [0, 63, 64, 65, 500] {
            assert!(!c.switch(j).test_and_set(&ctx));
            assert!(c.peek_switch(j), "switch {j} lost");
            assert!(c.switch(j).test_and_set(&ctx), "switch {j} reset");
        }
        assert!(!c.peek_switch(1), "neighbour disturbed");
        assert!(!c.peek_switch(66), "cold neighbour disturbed");
    }

    #[test]
    fn hot_switches_do_not_share_cache_lines() {
        let c = KmultCounter::new(1, 2);
        let a = c.switch(0) as *const _ as usize;
        let b = c.switch(1) as *const _ as usize;
        assert!(b.abs_diff(a) >= 64, "hot switches share a line");
    }

    #[test]
    fn peek_approx_value_matches_a_fresh_read() {
        // The free peek must agree with what a fresh handle's CounterRead
        // would return (both walk the whole switch prefix from 0), and
        // charge no steps.
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        for k in [2u64, 3] {
            let c = KmultCounter::new(1, k);
            assert_eq!(c.peek_approx_value(), 0);
            let mut h = c.handle(0);
            for i in 1..=200u32 {
                h.increment(&ctx);
                if i % 13 == 0 {
                    let steps_before = ctx.steps_taken();
                    let peeked = c.peek_approx_value();
                    assert_eq!(ctx.steps_taken(), steps_before, "peek is free");
                    let mut fresh = c.handle(0);
                    assert_eq!(peeked, fresh.read(&ctx), "k={k} after {i} incs");
                }
            }
        }
    }
}
