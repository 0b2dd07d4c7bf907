//! The collect counter: single-writer cells + sum.
//!
//! `increment` bumps the invoking process's own cell (`read` + `write`,
//! two steps — the cell is single-writer so the pair cannot lose
//! updates); `read` collects all `n` cells and returns their sum. Both
//! exist once, as the machines below, which the blocking form and the
//! task forms in [`tasks`](crate::tasks) drive through
//! [`MachineCounter`].
//!
//! Linearizability for unit increments: let `S₀` be the sum of completed
//! increments when a read begins and `S₁` the sum of started increments
//! when it ends. The collected sum lies in `[S₀, S₁]`, and since the true
//! count is monotone and changes by 1, every value in that interval is the
//! true count at some instant inside the read's window — a valid
//! linearization point.

use crate::spec::MachineCounter;
use smr::{Poll, ProcCtx, Register};

/// An exact counter with `O(1)` increments and `O(n)` reads.
pub struct CollectCounter {
    cells: Vec<Register>,
}

impl CollectCounter {
    /// A counter for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        CollectCounter {
            cells: (0..n).map(|_| Register::new(0)).collect(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.cells.len()
    }
}

impl MachineCounter for CollectCounter {
    type IncMachine = CollectIncMachine;
    type ReadMachine = CollectReadMachine;

    fn inc_machine(&self) -> CollectIncMachine {
        CollectIncMachine::new(self)
    }

    fn read_machine(&self) -> CollectReadMachine {
        CollectReadMachine::new(self)
    }

    fn step_inc(&self, m: &mut CollectIncMachine, ctx: &ProcCtx) -> Poll<()> {
        m.step(self, ctx)
    }

    fn step_read(&self, m: &mut CollectReadMachine, ctx: &ProcCtx) -> Poll<u128> {
        m.step(self, ctx)
    }
}

/// Resume point of a `CollectCounter::increment`: read the invoking
/// process's own cell, then write it back incremented — one primitive
/// per [`step`](CollectIncMachine::step), priming step free. The single
/// transcription that both the blocking form and the task form drive
/// (see `maxreg::tree`'s module docs for the machine convention).
#[derive(Debug)]
pub struct CollectIncMachine {
    phase: CollectIncPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectIncPhase {
    Start,
    ReadOwn,
    /// The own cell read this value.
    WriteOwn(u64),
}

impl CollectIncMachine {
    /// A machine incrementing `counter`.
    pub fn new(_counter: &CollectCounter) -> Self {
        CollectIncMachine {
            phase: CollectIncPhase::Start,
        }
    }

    /// Advance the increment by at most one primitive against `counter`
    /// — which must be the counter the machine was created for.
    pub fn step(&mut self, counter: &CollectCounter, ctx: &ProcCtx) -> Poll<()> {
        match self.phase {
            CollectIncPhase::Start => {
                self.phase = CollectIncPhase::ReadOwn;
                Poll::Pending
            }
            CollectIncPhase::ReadOwn => {
                let v = counter.cells[ctx.pid()].read(ctx);
                self.phase = CollectIncPhase::WriteOwn(v);
                Poll::Pending
            }
            CollectIncPhase::WriteOwn(v) => {
                // Single-writer: only this process writes this cell, so
                // the read-then-write pair cannot lose updates.
                counter.cells[ctx.pid()].write(ctx, v + 1);
                Poll::Ready(())
            }
        }
    }
}

/// Resume point of a `CollectCounter::read`: collect the `n` cells, one
/// primitive per [`step`](CollectReadMachine::step), resolving to their
/// sum. Machine convention as in [`CollectIncMachine`].
#[derive(Debug)]
pub struct CollectReadMachine {
    next: usize,
    sum: u128,
    primed: bool,
}

impl CollectReadMachine {
    /// A machine reading `counter`.
    pub fn new(_counter: &CollectCounter) -> Self {
        CollectReadMachine {
            next: 0,
            sum: 0,
            primed: false,
        }
    }

    /// Advance the read by at most one primitive against `counter` —
    /// which must be the counter the machine was created for.
    pub fn step(&mut self, counter: &CollectCounter, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        self.sum += u128::from(counter.cells[self.next].read(ctx));
        self.next += 1;
        if self.next == counter.cells.len() {
            Poll::Ready(self.sum)
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{testutil, Counter};
    use smr::Runtime;
    use std::sync::Arc;

    #[test]
    fn sequential_conformance() {
        let c = CollectCounter::new(1);
        testutil::check_sequential_exact(&c, 100);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = Arc::new(CollectCounter::new(8));
        testutil::check_concurrent_exact(c, 8, 1_000);
    }

    #[test]
    fn step_costs() {
        let n = 12;
        let rt = Runtime::free_running(n);
        let c = CollectCounter::new(n);
        let ctx = rt.ctx(5);
        let s0 = ctx.steps_taken();
        c.increment(&ctx);
        assert_eq!(ctx.steps_taken() - s0, 2, "increment: 2 steps");
        let s0 = ctx.steps_taken();
        let _ = c.read(&ctx);
        assert_eq!(ctx.steps_taken() - s0, n as u64, "read: n steps");
    }
}
