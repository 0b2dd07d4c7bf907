//! An unbounded exact max register: a level-doubling chain of bounded
//! tree registers.
//!
//! Level `i` is a [`TreeMaxRegister`] with bound `B_i = 2^(2^i)` (capped at
//! the `u64` domain), plus a small exact *level pointer* max register that
//! tracks the highest level written. A value `v` is stored in the lowest
//! level that can represent it, i.e. level `ℓ(v) = ⌈log₂ max(1, ⌈log₂ (v+1)⌉)⌉`;
//! crucially, any value stored at level `ℓ ≥ 1` is `≥ B_{ℓ−1}` and hence
//! dominates everything stored at lower levels.
//!
//! * `write(v)`: write `v` into level `ℓ(v)`, then raise the level pointer
//!   to `ℓ(v)` — in that order, so a read that sees pointer `ℓ` finds a
//!   dominating value already present at level `ℓ`.
//! * `read()`: read the pointer, then read that level.
//!
//! Cost for value `v`: `O(log₂ v)` primitives (the level-`ℓ(v)` tree has
//! depth `2^ℓ ≈ log₂ v`) plus `O(log L)` for the pointer, where `L ≤ 7`
//! levels cover all of `u64`. This is the exact-object analogue of the
//! unbounded constructions of Baig et al. [9]; the *approximate* version
//! in `approx-objects` stores only MSB indices and therefore runs in
//! `O(log₂ log_k v)` — the paper's sub-logarithmic extension.

use crate::spec::MachineMaxRegister;
use crate::tree::{TreeMaxRegister, TreeReadMachine, TreeWriteMachine};
use smr::{Poll, ProcCtx};

/// Number of doubling levels needed so the last level covers all of `u64`:
/// bounds 2^1, 2^2, 2^4, 2^8, 2^16, 2^32, then the full domain.
const LEVELS: usize = 7;

/// An unbounded exact max register over the full `u64` domain.
pub struct UnboundedMaxRegister {
    levels: Vec<TreeMaxRegister>,
    /// Exact max register over `{0,…,LEVELS−1}` tracking the top level
    /// written; `LEVELS` as bound, values are level indices.
    pointer: TreeMaxRegister,
    /// Distinguishes "nothing written" from "0 written at level 0".
    written: TreeMaxRegister,
}

impl Default for UnboundedMaxRegister {
    fn default() -> Self {
        Self::new()
    }
}

impl UnboundedMaxRegister {
    /// A fresh unbounded max register.
    pub fn new() -> Self {
        let levels = (0..LEVELS)
            .map(|i| TreeMaxRegister::new(Self::level_bound(i)))
            .collect();
        UnboundedMaxRegister {
            levels,
            pointer: TreeMaxRegister::new(LEVELS as u64),
            written: TreeMaxRegister::new(2),
        }
    }

    /// The exclusive bound of level `i`: `2^(2^i)`, saturating at `u64::MAX`.
    fn level_bound(i: usize) -> u64 {
        let bits = 1u32 << i; // 1, 2, 4, 8, 16, 32, 64
        if bits >= 64 {
            u64::MAX // domain {0,…,u64::MAX−1}; MAX itself is rejected
        } else {
            1u64 << bits
        }
    }

    /// The lowest level whose bound exceeds `v`.
    fn level_of(v: u64) -> usize {
        (0..LEVELS)
            .find(|&i| v < Self::level_bound(i))
            .expect("LEVELS covers the domain")
    }
}

impl MachineMaxRegister for UnboundedMaxRegister {
    type WriteMachine = UnboundedWriteMachine;
    type ReadMachine = UnboundedReadMachine;

    fn write_machine(&self, v: u64) -> UnboundedWriteMachine {
        UnboundedWriteMachine::new(self, v)
    }

    fn read_machine(&self) -> UnboundedReadMachine {
        UnboundedReadMachine::new(self)
    }

    fn step_write(&self, m: &mut UnboundedWriteMachine, ctx: &ProcCtx) -> Poll<()> {
        m.step(self, ctx)
    }

    fn step_read(&self, m: &mut UnboundedReadMachine, ctx: &ProcCtx) -> Poll<u64> {
        m.step(self, ctx)
    }

    fn value_bound(&self) -> Option<u64> {
        None
    }
}

/// Resume point of an `UnboundedMaxRegister::write`: the value write
/// into its level's tree, then the pointer raise, then the written flag
/// — three [`TreeWriteMachine`]s run back to back, one primitive per
/// [`step`](UnboundedWriteMachine::step), priming step free (the
/// machine convention of `maxreg::tree`'s module docs). A
/// sub-machine's free priming is absorbed into the current step, so the
/// stage boundaries are invisible to the scheduler.
#[derive(Debug)]
pub struct UnboundedWriteMachine {
    level: usize,
    stage: WriteStage,
    sub: TreeWriteMachine,
    primed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteStage {
    Level,
    Pointer,
    Written,
}

impl UnboundedWriteMachine {
    /// A machine writing `v` into `reg`.
    ///
    /// # Panics
    /// Panics if `v == u64::MAX` (reserved), like the blocking write.
    pub fn new(reg: &UnboundedMaxRegister, v: u64) -> Self {
        assert!(v < u64::MAX, "u64::MAX is reserved");
        let level = UnboundedMaxRegister::level_of(v);
        UnboundedWriteMachine {
            level,
            stage: WriteStage::Level,
            sub: TreeWriteMachine::new(&reg.levels[level], v),
            primed: false,
        }
    }

    /// The tree the current stage operates on.
    fn target<'r>(&self, reg: &'r UnboundedMaxRegister) -> &'r TreeMaxRegister {
        match self.stage {
            WriteStage::Level => &reg.levels[self.level],
            WriteStage::Pointer => &reg.pointer,
            WriteStage::Written => &reg.written,
        }
    }

    /// Move to the next stage; `false` when all stages are done.
    fn advance(&mut self, reg: &UnboundedMaxRegister) -> bool {
        match self.stage {
            WriteStage::Level => {
                self.stage = WriteStage::Pointer;
                self.sub = TreeWriteMachine::new(&reg.pointer, self.level as u64);
                true
            }
            WriteStage::Pointer => {
                self.stage = WriteStage::Written;
                self.sub = TreeWriteMachine::new(&reg.written, 1);
                true
            }
            WriteStage::Written => false,
        }
    }

    /// Advance the write by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &UnboundedMaxRegister, ctx: &ProcCtx) -> Poll<()> {
        if !self.primed {
            self.primed = true;
            // Prime sub-machines through zero-primitive progress only.
            loop {
                match self.sub.step(self.target(reg), ctx) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(()) => {
                        if !self.advance(reg) {
                            return Poll::Ready(());
                        }
                    }
                }
            }
        }
        loop {
            let before = ctx.steps_taken();
            let polled = self.sub.step(self.target(reg), ctx);
            let applied = ctx.steps_taken() - before;
            match polled {
                Poll::Pending => {
                    if applied == 1 {
                        return Poll::Pending;
                    }
                    // A fresh sub-machine just primed; keep going within
                    // this granted step.
                }
                Poll::Ready(()) => {
                    if !self.advance(reg) {
                        debug_assert_eq!(applied, 1, "the completing step applies a primitive");
                        return Poll::Ready(());
                    }
                    if applied == 1 {
                        return Poll::Pending;
                    }
                }
            }
        }
    }
}

/// Resume point of an `UnboundedMaxRegister::read`: the written flag,
/// then the level pointer, then that level's tree — resolving to the
/// stored maximum. Counterpart of [`UnboundedWriteMachine`].
#[derive(Debug)]
pub struct UnboundedReadMachine {
    stage: ReadStage,
    primed: bool,
}

#[derive(Debug)]
enum ReadStage {
    Written(TreeReadMachine),
    Pointer(TreeReadMachine),
    Level(usize, TreeReadMachine),
}

impl UnboundedReadMachine {
    /// A machine reading `reg`.
    pub fn new(reg: &UnboundedMaxRegister) -> Self {
        UnboundedReadMachine {
            stage: ReadStage::Written(TreeReadMachine::new(&reg.written)),
            primed: false,
        }
    }

    /// Advance the read by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &UnboundedMaxRegister, ctx: &ProcCtx) -> Poll<u64> {
        if !self.primed {
            self.primed = true;
            // A fresh machine is always at the written-flag stage, whose
            // tree has depth 1 — the read applies a primitive, so the
            // priming step never completes.
            let ReadStage::Written(m) = &mut self.stage else {
                unreachable!("fresh machine primes at the written-flag stage");
            };
            let polled = m.step(&reg.written, ctx);
            debug_assert!(polled.is_pending(), "flag read needs a primitive");
            return Poll::Pending;
        }
        loop {
            let before = ctx.steps_taken();
            let polled = match &mut self.stage {
                ReadStage::Written(m) => m.step(&reg.written, ctx),
                ReadStage::Pointer(m) => m.step(&reg.pointer, ctx),
                ReadStage::Level(l, m) => m.step(&reg.levels[*l], ctx),
            };
            let applied = ctx.steps_taken() - before;
            match polled {
                Poll::Pending => {
                    if applied == 1 {
                        return Poll::Pending;
                    }
                }
                Poll::Ready(v) => {
                    match &self.stage {
                        ReadStage::Written(_) => {
                            if v == 0 {
                                return Poll::Ready(0); // nothing written yet
                            }
                            let mut m = TreeReadMachine::new(&reg.pointer);
                            let polled = m.step(&reg.pointer, ctx); // prime: free
                            debug_assert!(polled.is_pending());
                            self.stage = ReadStage::Pointer(m);
                        }
                        ReadStage::Pointer(_) => {
                            let level = v as usize;
                            let mut m = TreeReadMachine::new(&reg.levels[level]);
                            let polled = m.step(&reg.levels[level], ctx); // prime: free
                            debug_assert!(polled.is_pending());
                            self.stage = ReadStage::Level(level, m);
                        }
                        ReadStage::Level(..) => return Poll::Ready(v),
                    }
                    if applied == 1 {
                        return Poll::Pending;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{testutil, MaxRegister};
    use smr::Runtime;
    use std::sync::Arc;

    #[test]
    fn level_bounds_double() {
        assert_eq!(UnboundedMaxRegister::level_bound(0), 2);
        assert_eq!(UnboundedMaxRegister::level_bound(1), 4);
        assert_eq!(UnboundedMaxRegister::level_bound(2), 16);
        assert_eq!(UnboundedMaxRegister::level_bound(3), 256);
        assert_eq!(UnboundedMaxRegister::level_bound(6), u64::MAX);
    }

    #[test]
    fn level_of_is_monotone_and_minimal() {
        assert_eq!(UnboundedMaxRegister::level_of(0), 0);
        assert_eq!(UnboundedMaxRegister::level_of(1), 0);
        assert_eq!(UnboundedMaxRegister::level_of(2), 1);
        assert_eq!(UnboundedMaxRegister::level_of(3), 1);
        assert_eq!(UnboundedMaxRegister::level_of(4), 2);
        assert_eq!(UnboundedMaxRegister::level_of(255), 3);
        assert_eq!(UnboundedMaxRegister::level_of(256), 4);
        assert_eq!(UnboundedMaxRegister::level_of(u64::MAX - 1), 6);
    }

    #[test]
    fn sequential_conformance() {
        let reg = UnboundedMaxRegister::new();
        testutil::check_sequential(&reg, &[1, 3, 2, 1000, 999, 1 << 40, 5]);
    }

    #[test]
    fn cross_level_domination() {
        // A small value written after a huge one must not lower the max.
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let reg = UnboundedMaxRegister::new();
        reg.write(&ctx, 1 << 50);
        reg.write(&ctx, 1);
        assert_eq!(reg.read(&ctx), 1 << 50);
    }

    #[test]
    fn zero_write_is_visible() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let reg = UnboundedMaxRegister::new();
        assert_eq!(reg.read(&ctx), 0);
        reg.write(&ctx, 0);
        assert_eq!(reg.read(&ctx), 0);
    }

    #[test]
    fn cost_scales_with_value_not_domain() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let reg = UnboundedMaxRegister::new();
        let s0 = ctx.steps_taken();
        reg.write(&ctx, 3); // level 1, depth 2 tree
        let small_cost = ctx.steps_taken() - s0;
        let reg2 = UnboundedMaxRegister::new();
        let s0 = ctx.steps_taken();
        reg2.write(&ctx, 1 << 60); // level 6
        let big_cost = ctx.steps_taken() - s0;
        assert!(
            small_cost < big_cost,
            "small {small_cost} vs big {big_cost}"
        );
        assert!(small_cost <= 12, "small write cost {small_cost}");
    }

    #[test]
    fn concurrent_writers_converge() {
        let reg = Arc::new(UnboundedMaxRegister::new());
        testutil::check_concurrent(reg, 6, 300);
    }
}
