//! The `O(min(log m, n))` bounded max register.
//!
//! AACH's bound for `m`-bounded max registers is `O(min(log₂ m, n))`:
//! the tree construction costs `O(log m)` and the collect construction
//! `O(n)`; whichever is smaller wins. [`AdaptiveMaxRegister`] makes that
//! choice once, at construction time, from the `(n, m)` parameters — the
//! same convention the paper uses when quoting the bound in Theorem IV.2.

use crate::collect::{CollectMaxRegister, CollectReadMachine, CollectWriteMachine};
use crate::spec::MachineMaxRegister;
use crate::tree::{TreeMaxRegister, TreeReadMachine, TreeWriteMachine};
use smr::{Poll, ProcCtx};

enum Arm {
    Tree(TreeMaxRegister),
    Collect(CollectMaxRegister),
}

/// An `m`-bounded max register for `n` processes with worst-case step
/// complexity `O(min(log₂ m, n))`.
pub struct AdaptiveMaxRegister {
    arm: Arm,
}

impl AdaptiveMaxRegister {
    /// Choose the cheaper construction for `n` processes and bound `m`.
    pub fn new(n: usize, m: u64) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(m > 0, "bound must be positive");
        let tree_cost = TreeMaxRegister::new(m).worst_case_steps();
        let arm = if tree_cost <= n as u64 {
            Arm::Tree(TreeMaxRegister::new(m))
        } else {
            Arm::Collect(CollectMaxRegister::bounded(n, m))
        };
        AdaptiveMaxRegister { arm }
    }

    /// `true` if the tree arm was selected (`log₂ m ≤ n`).
    pub fn uses_tree(&self) -> bool {
        matches!(self.arm, Arm::Tree(_))
    }
}

impl MachineMaxRegister for AdaptiveMaxRegister {
    type WriteMachine = AdaptiveWriteMachine;
    type ReadMachine = AdaptiveReadMachine;

    fn write_machine(&self, v: u64) -> AdaptiveWriteMachine {
        AdaptiveWriteMachine::new(self, v)
    }

    fn read_machine(&self) -> AdaptiveReadMachine {
        AdaptiveReadMachine::new(self)
    }

    fn step_write(&self, m: &mut AdaptiveWriteMachine, ctx: &ProcCtx) -> Poll<()> {
        m.step(self, ctx)
    }

    fn step_read(&self, m: &mut AdaptiveReadMachine, ctx: &ProcCtx) -> Poll<u64> {
        m.step(self, ctx)
    }

    fn value_bound(&self) -> Option<u64> {
        match &self.arm {
            Arm::Tree(t) => t.value_bound(),
            Arm::Collect(c) => c.value_bound(),
        }
    }
}

/// Resume point of an `AdaptiveMaxRegister::write`: the machine of
/// whichever arm the register selected at construction. One primitive
/// per [`step`](AdaptiveWriteMachine::step), priming step free — the
/// convention of `maxreg::tree`'s module docs.
#[derive(Debug)]
pub enum AdaptiveWriteMachine {
    /// Write through the tree arm.
    Tree(TreeWriteMachine),
    /// Write through the collect arm.
    Collect(CollectWriteMachine),
}

impl AdaptiveWriteMachine {
    /// A machine writing `v` into `reg`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    pub fn new(reg: &AdaptiveMaxRegister, v: u64) -> Self {
        match &reg.arm {
            Arm::Tree(t) => AdaptiveWriteMachine::Tree(TreeWriteMachine::new(t, v)),
            Arm::Collect(c) => AdaptiveWriteMachine::Collect(CollectWriteMachine::new(c, v)),
        }
    }

    /// Advance the write by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &AdaptiveMaxRegister, ctx: &ProcCtx) -> Poll<()> {
        match (self, &reg.arm) {
            (AdaptiveWriteMachine::Tree(m), Arm::Tree(t)) => m.step(t, ctx),
            (AdaptiveWriteMachine::Collect(m), Arm::Collect(c)) => m.step(c, ctx),
            _ => panic!("machine stepped against a different register"),
        }
    }
}

/// Resume point of an `AdaptiveMaxRegister::read`; counterpart of
/// [`AdaptiveWriteMachine`].
#[derive(Debug)]
pub enum AdaptiveReadMachine {
    /// Read through the tree arm.
    Tree(TreeReadMachine),
    /// Read through the collect arm.
    Collect(CollectReadMachine),
}

impl AdaptiveReadMachine {
    /// A machine reading `reg`.
    pub fn new(reg: &AdaptiveMaxRegister) -> Self {
        match &reg.arm {
            Arm::Tree(t) => AdaptiveReadMachine::Tree(TreeReadMachine::new(t)),
            Arm::Collect(c) => AdaptiveReadMachine::Collect(CollectReadMachine::new(c)),
        }
    }

    /// Advance the read by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &AdaptiveMaxRegister, ctx: &ProcCtx) -> Poll<u64> {
        match (self, &reg.arm) {
            (AdaptiveReadMachine::Tree(m), Arm::Tree(t)) => m.step(t, ctx),
            (AdaptiveReadMachine::Collect(m), Arm::Collect(c)) => m.step(c, ctx),
            _ => panic!("machine stepped against a different register"),
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
    fn picks_tree_for_small_bounds() {
        let reg = AdaptiveMaxRegister::new(64, 256); // log m = 8 ≤ 64
        assert!(reg.uses_tree());
    }

    #[test]
    fn picks_collect_for_few_processes() {
        let reg = AdaptiveMaxRegister::new(4, 1 << 40); // n = 4 < 40
        assert!(!reg.uses_tree());
    }

    #[test]
    fn sequential_conformance_both_arms() {
        let tree = AdaptiveMaxRegister::new(64, 512);
        testutil::check_sequential(&tree, &[1, 500, 7, 511]);
        let collect = AdaptiveMaxRegister::new(2, 1 << 50);
        testutil::check_sequential(&collect, &[1, 1 << 49, 7]);
    }

    #[test]
    fn concurrent_writers_converge() {
        let reg = Arc::new(AdaptiveMaxRegister::new(4, 1 << 30));
        testutil::check_concurrent(reg, 4, 300);
    }

    #[test]
    fn step_cost_respects_min() {
        // n = 2, m = 2^40: collect arm, reads cost ~n not ~log m.
        let rt = Runtime::free_running(2);
        let reg = AdaptiveMaxRegister::new(2, 1 << 40);
        let ctx = rt.ctx(0);
        reg.write(&ctx, 77);
        let s0 = ctx.steps_taken();
        let _ = reg.read(&ctx);
        assert!(ctx.steps_taken() - s0 <= 2, "collect read is O(n)");
    }
}
