//! The `O(min(log m, n))` bounded max register.
//!
//! AACH's bound for `m`-bounded max registers is `O(min(log₂ m, n))`:
//! the tree construction costs `O(log m)` and the collect construction
//! `O(n)`; whichever is smaller wins. [`AdaptiveMaxRegister`] makes that
//! choice once, at construction time, from the `(n, m)` parameters — the
//! same convention the paper uses when quoting the bound in Theorem IV.2.

use crate::collect::{CollectMaxRegister, CollectReadMachine, CollectWriteMachine};
use crate::spec::MaxRegister;
use crate::tree::{TreeMaxRegister, TreeReadMachine, TreeWriteMachine};
use smr::{OpTask, Poll, ProcCtx};
use std::sync::Arc;

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

impl MaxRegister for AdaptiveMaxRegister {
    fn write(&self, ctx: &ProcCtx, v: u64) {
        match &self.arm {
            Arm::Tree(t) => t.write(ctx, v),
            Arm::Collect(c) => c.write(ctx, v),
        }
    }

    fn read(&self, ctx: &ProcCtx) -> u64 {
        match &self.arm {
            Arm::Tree(t) => t.read(ctx),
            Arm::Collect(c) => c.read(ctx),
        }
    }

    fn bound(&self) -> Option<u64> {
        match &self.arm {
            Arm::Tree(t) => t.bound(),
            Arm::Collect(c) => c.bound(),
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

/// `AdaptiveMaxRegister::write` as a resumable [`OpTask`] for the coop
/// backend.
pub struct AdaptiveMaxWriteTask {
    reg: Arc<AdaptiveMaxRegister>,
    machine: AdaptiveWriteMachine,
}

impl AdaptiveMaxWriteTask {
    /// A write of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    pub fn new(reg: Arc<AdaptiveMaxRegister>, v: u64) -> Self {
        let machine = AdaptiveWriteMachine::new(&reg, v);
        AdaptiveMaxWriteTask { reg, machine }
    }
}

impl OpTask for AdaptiveMaxWriteTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.reg, ctx).map(|()| 0)
    }
}

/// `AdaptiveMaxRegister::read` as a resumable [`OpTask`] for the coop
/// backend.
pub struct AdaptiveMaxReadTask {
    reg: Arc<AdaptiveMaxRegister>,
    machine: AdaptiveReadMachine,
}

impl AdaptiveMaxReadTask {
    /// A read.
    pub fn new(reg: Arc<AdaptiveMaxRegister>) -> Self {
        let machine = AdaptiveReadMachine::new(&reg);
        AdaptiveMaxReadTask { reg, machine }
    }
}

impl OpTask for AdaptiveMaxReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.reg, ctx).map(u128::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil;
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
