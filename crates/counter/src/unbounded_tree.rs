//! An **unbounded** exact counter with polylogarithmic step complexity —
//! the long-lived baseline of the paper's §I-A/§I-B discussion.
//!
//! The paper positions Algorithm 1 against the long-lived exact counter
//! of Baig, Hendler, Milani & Travers (DISC '19): wait-free, read/write,
//! `O(log² n)` amortized steps for executions of arbitrary length. Their
//! construction is a full paper; as documented in DESIGN.md we substitute
//! the same *shape* with simpler parts: the AACH monotone-circuit tree
//! ([`AachTree`], the same code as `AachCounter`) with every internal
//! cache an **unbounded** max register (the level-doubling chain of
//! [`maxreg::UnboundedMaxRegister`]), giving an unbounded, long-lived
//! exact counter at
//!
//! * `increment`: `O(log n · log v)` steps (`v` = current count);
//! * `read`: `O(log v)` steps.
//!
//! Polylogarithmic in the count rather than in `n` alone — enough to
//! exhibit §I-B's point: the best exact counters sit a logarithmic
//! factor above the relaxed counter's `O(1)` (EXP-T3.9 / EXP-LENGTH).

use crate::aach::AachTree;
use maxreg::UnboundedMaxRegister;

/// An unbounded exact counter for `n` processes with polylog steps: the
/// AACH tree over [`UnboundedMaxRegister`] nodes.
pub type UnboundedTreeCounter = AachTree<UnboundedMaxRegister>;

impl UnboundedTreeCounter {
    /// A counter for `n` processes; no capacity bound below the
    /// `u64::MAX` its nodes reserve.
    pub fn new(n: usize) -> Self {
        AachTree::with_nodes(n, UnboundedMaxRegister::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aach::tests::{check_tree_concurrent, check_tree_sequential};
    use crate::spec::Counter;
    use smr::Runtime;

    #[test]
    fn sequential_conformance() {
        check_tree_sequential(UnboundedTreeCounter::new);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        check_tree_concurrent(UnboundedTreeCounter::new);
    }

    #[test]
    fn no_capacity_bound() {
        // Unlike AachCounter, large counts need no pre-declared m.
        let rt = Runtime::free_running(1);
        let c = UnboundedTreeCounter::new(1);
        let ctx = rt.ctx(0);
        for _ in 0..100_000u64 {
            c.increment(&ctx);
        }
        assert_eq!(c.read(&ctx), 100_000);
    }

    #[test]
    fn read_cost_scales_with_count_not_n() {
        let n = 32;
        let rt = Runtime::free_running(n);
        let c = UnboundedTreeCounter::new(n);
        let ctx = rt.ctx(0);
        for _ in 0..100 {
            c.increment(&ctx);
        }
        let s0 = ctx.steps_taken();
        let _ = c.read(&ctx);
        let cost = ctx.steps_taken() - s0;
        // Root is an unbounded max register holding ~100: its read costs
        // O(log v) ≈ pointer (3 levels) + level-3 tree (8 bits), far
        // below n = 32.
        assert!(cost <= 16, "read cost {cost}");
    }

    #[test]
    fn increment_cost_is_polylog() {
        let n = 16;
        let rt = Runtime::free_running(n);
        let c = UnboundedTreeCounter::new(n);
        let ctx = rt.ctx(0);
        for _ in 0..1_000u64 {
            c.increment(&ctx);
        }
        let amortized = ctx.steps_taken() as f64 / 1_000.0;
        // log2(n)=4 levels × (2 reads + 1 write) × O(log v ≈ 10 + ptr).
        assert!(amortized < 250.0, "amortized {amortized}");
        assert!(amortized > 4.0, "suspiciously cheap for an exact tree");
    }
}
