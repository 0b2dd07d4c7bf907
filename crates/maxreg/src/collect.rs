//! The collect-based max register: `O(1)` writes, `O(n)` reads.
//!
//! One single-writer register per process holds the largest value that
//! process has written; a read collects all `n` cells and returns the
//! maximum. For a *monotone* object this is linearizable: the value
//! returned lies between the max of writes completed before the read began
//! and the max of writes begun before it ended, and every intermediate
//! value is attained at some instant inside the read's window.
//!
//! This is the `n`-side of AACH's `O(min(log m, n))` bound: cheaper than
//! the tree whenever `n < log₂ m`.

use crate::spec::MachineMaxRegister;
use smr::{Poll, ProcCtx, Register};

/// An unbounded (full `u64` domain) max register with `O(1)` writes and
/// `O(n)` reads, built from `n` single-writer registers.
pub struct CollectMaxRegister {
    cells: Vec<Register>,
    bound: Option<u64>,
}

impl CollectMaxRegister {
    /// A collect-based max register for `n` processes over all of `u64`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        CollectMaxRegister {
            cells: (0..n).map(|_| Register::new(0)).collect(),
            bound: None,
        }
    }

    /// Same, but advertising (and enforcing) a bound `m` — used by
    /// [`AdaptiveMaxRegister`](crate::AdaptiveMaxRegister) so both arms
    /// agree on the domain.
    pub fn bounded(n: usize, m: u64) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(m > 0, "bound must be positive");
        CollectMaxRegister {
            cells: (0..n).map(|_| Register::new(0)).collect(),
            bound: Some(m),
        }
    }

    /// Number of processes (cells).
    pub fn n(&self) -> usize {
        self.cells.len()
    }
}

impl MachineMaxRegister for CollectMaxRegister {
    type WriteMachine = CollectWriteMachine;
    type ReadMachine = CollectReadMachine;

    fn write_machine(&self, v: u64) -> CollectWriteMachine {
        CollectWriteMachine::new(self, v)
    }

    fn read_machine(&self) -> CollectReadMachine {
        CollectReadMachine::new(self)
    }

    fn step_write(&self, m: &mut CollectWriteMachine, ctx: &ProcCtx) -> Poll<()> {
        m.step(self, ctx)
    }

    fn step_read(&self, m: &mut CollectReadMachine, ctx: &ProcCtx) -> Poll<u64> {
        m.step(self, ctx)
    }

    fn value_bound(&self) -> Option<u64> {
        self.bound
    }
}

/// Resume point of a `CollectMaxRegister::write`: read the own cell,
/// then overwrite it if the new value is larger — one primitive per
/// [`step`](CollectWriteMachine::step), priming step free; dominated
/// writes complete on the read. The single transcription driven by the
/// blocking form, the task form and the composites (see
/// `maxreg::tree`'s module docs for the machine convention).
#[derive(Debug)]
pub struct CollectWriteMachine {
    v: u64,
    phase: CollectWritePhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectWritePhase {
    Start,
    ReadOwn,
    WriteOwn,
}

impl CollectWriteMachine {
    /// A machine writing `v` into `reg`.
    ///
    /// # Panics
    /// Panics if `v` is out of a bounded register's range, like the
    /// blocking write.
    pub fn new(reg: &CollectMaxRegister, v: u64) -> Self {
        if let Some(m) = reg.bound {
            assert!(v < m, "value {v} out of range (m = {m})");
        }
        CollectWriteMachine {
            v,
            phase: CollectWritePhase::Start,
        }
    }

    /// Advance the write by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &CollectMaxRegister, ctx: &ProcCtx) -> Poll<()> {
        match self.phase {
            CollectWritePhase::Start => {
                self.phase = CollectWritePhase::ReadOwn;
                Poll::Pending
            }
            CollectWritePhase::ReadOwn => {
                // Single-writer: only this process writes this cell, so
                // the read-then-write pair cannot lose updates.
                if reg.cells[ctx.pid()].read(ctx) < self.v {
                    self.phase = CollectWritePhase::WriteOwn;
                    Poll::Pending
                } else {
                    Poll::Ready(()) // dominated: skip the store
                }
            }
            CollectWritePhase::WriteOwn => {
                reg.cells[ctx.pid()].write(ctx, self.v);
                Poll::Ready(())
            }
        }
    }
}

/// Resume point of a `CollectMaxRegister::read`: collect the `n` cells,
/// one primitive per [`step`](CollectReadMachine::step), resolving to
/// their maximum.
#[derive(Debug)]
pub struct CollectReadMachine {
    next: usize,
    acc: u64,
    primed: bool,
}

impl CollectReadMachine {
    /// A machine reading `reg`.
    pub fn new(_reg: &CollectMaxRegister) -> Self {
        CollectReadMachine {
            next: 0,
            acc: 0,
            primed: false,
        }
    }

    /// Advance the read by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &CollectMaxRegister, ctx: &ProcCtx) -> Poll<u64> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        self.acc = self.acc.max(reg.cells[self.next].read(ctx));
        self.next += 1;
        if self.next == reg.cells.len() {
            Poll::Ready(self.acc)
        } else {
            Poll::Pending
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
    fn sequential_conformance() {
        let reg = CollectMaxRegister::new(1);
        testutil::check_sequential(&reg, &[1, 100, 7, u64::MAX, 3]);
    }

    #[test]
    fn concurrent_writers_converge() {
        let reg = Arc::new(CollectMaxRegister::new(6));
        testutil::check_concurrent(reg, 6, 400);
    }

    #[test]
    fn write_costs_constant_read_costs_n() {
        let n = 16;
        let rt = Runtime::free_running(n);
        let reg = CollectMaxRegister::new(n);
        let ctx = rt.ctx(3);
        let s0 = ctx.steps_taken();
        reg.write(&ctx, 5);
        assert_eq!(ctx.steps_taken() - s0, 2, "write = own-cell read + write");
        let s0 = ctx.steps_taken();
        let _ = reg.read(&ctx);
        assert_eq!(ctx.steps_taken() - s0, n as u64, "read = n-cell collect");
    }

    #[test]
    fn dominated_write_skips_store() {
        let rt = Runtime::free_running(1);
        let reg = CollectMaxRegister::new(1);
        let ctx = rt.ctx(0);
        reg.write(&ctx, 10);
        let s0 = ctx.steps_taken();
        reg.write(&ctx, 3); // dominated: read own cell, skip write
        assert_eq!(ctx.steps_taken() - s0, 1);
        assert_eq!(reg.read(&ctx), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounded_variant_enforces_bound() {
        let rt = Runtime::free_running(1);
        let reg = CollectMaxRegister::bounded(1, 16);
        let ctx = rt.ctx(0);
        reg.write(&ctx, 16);
    }
}
