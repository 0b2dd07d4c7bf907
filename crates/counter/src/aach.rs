//! The AACH monotone-circuit tree counter, written once over any exact
//! max register with machines.
//!
//! A binary tree with one leaf per process. A leaf holds the (exact,
//! single-writer) count of its process; every internal node is a max
//! register caching the sum of its subtree. Since counts only grow,
//! subtree sums only grow, so writing a freshly computed sum into a
//! *max* register never regresses the cached value — this is the
//! monotone-circuit idea of Aspnes, Attiya and Censor-Hillel.
//!
//! * `increment`: bump the own leaf, then recompute and max-write every
//!   ancestor — `O(log n)` nodes, each a node-register read or write.
//! * `read`: read the root max register.
//!
//! [`AachTree`] is generic over the node register, so its two machines
//! serve both exact tree counters:
//!
//! * [`AachCounter`] — `m`-bounded [`TreeMaxRegister`] nodes, each
//!   access `O(log m)`: `O(log n · log m)` increments and `O(log m)`
//!   reads. With `m` polynomial in the number of operations this is the
//!   polylogarithmic exact counter the paper's introduction quotes; its
//!   step complexity degrades to the `Ω(n)` JTT bound only when
//!   executions are unboundedly long (the paper's §I-A discussion).
//! * [`UnboundedTreeCounter`](crate::UnboundedTreeCounter) — unbounded
//!   nodes, the long-lived baseline (see its module).
//!
//! The ascent asserts every leaf count and node sum against the node
//! register's own bound: `m` for the bounded tree, and `u64::MAX`,
//! which the unbounded register reserves, for the other.

use crate::spec::MachineCounter;
use maxreg::{MachineMaxRegister, TreeMaxRegister};
use smr::{Poll, ProcCtx, Register};

/// The AACH tree counter for `n` processes over node registers `R`,
/// used through its two aliases, [`AachCounter`] and
/// [`UnboundedTreeCounter`](crate::UnboundedTreeCounter).
pub struct AachTree<R> {
    n: usize,
    /// Leaf padding: the tree has `p = n.next_power_of_two()` leaf slots.
    p: usize,
    /// The node register's bound (`u64::MAX` for unbounded nodes): leaf
    /// counts and node sums must stay below it.
    bound: u64,
    /// Heap-ordered internal nodes, indices `1..p` (index 0 holds no
    /// sum; it only answers `bound` at construction).
    /// Node `v`'s children are `2v` and `2v+1`; leaves live at `p..2p`.
    inner: Vec<R>,
    /// Per-process exact counts (single-writer).
    leaves: Vec<Register>,
}

/// An `m`-bounded exact counter for `n` processes with
/// `O(log n · log m)` increments and `O(log m)` reads.
pub type AachCounter = AachTree<TreeMaxRegister>;

impl<R: MachineMaxRegister> AachTree<R> {
    /// A tree for `n` processes whose internal nodes `node` builds.
    pub(crate) fn with_nodes(n: usize, node: impl Fn() -> R) -> Self {
        assert!(n > 0, "need at least one process");
        let p = n.next_power_of_two();
        let inner: Vec<R> = (0..p).map(|_| node()).collect();
        AachTree {
            n,
            p,
            bound: inner[0].value_bound().unwrap_or(u64::MAX),
            inner,
            leaves: (0..n).map(|_| Register::new(0)).collect(),
        }
    }
}

impl AachCounter {
    /// A counter for `n` processes supporting at most `m − 1` increments.
    pub fn new(n: usize, m: u64) -> Self {
        assert!(m > 1, "bound must exceed 1");
        AachTree::with_nodes(n, || TreeMaxRegister::new(m))
    }

    /// The capacity bound `m` (the counter counts up to `m − 1`).
    pub fn m(&self) -> u64 {
        self.bound
    }
}

impl<R: MachineMaxRegister> MachineCounter for AachTree<R> {
    type IncMachine = AachIncMachine<R>;
    type ReadMachine = AachReadMachine<R>;

    fn inc_machine(&self) -> AachIncMachine<R> {
        AachIncMachine::new(self)
    }

    fn read_machine(&self) -> AachReadMachine<R> {
        AachReadMachine::new(self)
    }

    fn step_inc(&self, m: &mut AachIncMachine<R>, ctx: &ProcCtx) -> Poll<()> {
        m.step(self, ctx)
    }

    fn step_read(&self, m: &mut AachReadMachine<R>, ctx: &ProcCtx) -> Poll<u128> {
        m.step(self, ctx)
    }
}

/// Reading one heap slot: an embedded node-register read for internal
/// nodes, a single register read for live leaves, and nothing at all
/// for padding leaves (their value is 0 by construction).
enum SlotRead<R: MachineMaxRegister> {
    Inner(R::ReadMachine),
    Leaf,
    Padding,
}

impl<R: MachineMaxRegister> SlotRead<R> {
    fn new(c: &AachTree<R>, idx: usize) -> Self {
        if idx < c.p {
            SlotRead::Inner(c.inner[idx].read_machine())
        } else if idx - c.p < c.n {
            SlotRead::Leaf
        } else {
            SlotRead::Padding
        }
    }
}

/// Resume point of an [`AachTree`] increment: bump the stepping
/// process's own leaf (one read, one write), then for every ancestor
/// read both child slots and max-write the sum — each slot access an
/// embedded node-register machine. One primitive per
/// [`step`](AachIncMachine::step), priming step free (the machine
/// convention of `maxreg::tree`'s module docs); padding-leaf slots and
/// sub-machine priming are absorbed into the surrounding step.
pub struct AachIncMachine<R: MachineMaxRegister> {
    phase: AachIncPhase<R>,
}

enum AachIncPhase<R: MachineMaxRegister> {
    Start,
    ReadLeaf,
    WriteLeaf {
        mine: u64,
    },
    ReadSlot {
        node: usize,
        /// `false` while reading child `2·node`, `true` for `2·node+1`.
        right: bool,
        left_val: u64,
        sub: SlotRead<R>,
    },
    WriteNode {
        node: usize,
        sub: R::WriteMachine,
    },
}

impl<R: MachineMaxRegister> AachIncMachine<R> {
    /// A machine incrementing `counter` on behalf of the process that
    /// steps it: the leaf steps read `ctx.pid()`, so a machine never
    /// writes another process's single-writer leaf.
    pub fn new(_counter: &AachTree<R>) -> Self {
        AachIncMachine {
            phase: AachIncPhase::Start,
        }
    }

    /// Advance the increment by at most one primitive against `counter`
    /// — which must be the counter the machine was created for.
    pub fn step(&mut self, c: &AachTree<R>, ctx: &ProcCtx) -> Poll<()> {
        loop {
            let before = ctx.steps_taken();
            match &mut self.phase {
                AachIncPhase::Start => {
                    self.phase = AachIncPhase::ReadLeaf;
                    return Poll::Pending; // priming step: no primitive
                }
                AachIncPhase::ReadLeaf => {
                    let mine = c.leaves[ctx.pid()].read(ctx) + 1;
                    assert!(
                        mine < c.bound,
                        "counter capacity (m = {}) exceeded",
                        c.bound
                    );
                    self.phase = AachIncPhase::WriteLeaf { mine };
                }
                AachIncPhase::WriteLeaf { mine } => {
                    c.leaves[ctx.pid()].write(ctx, *mine);
                    if c.p == 1 {
                        return Poll::Ready(()); // the leaf is the whole tree
                    }
                    let node = (c.p + ctx.pid()) / 2;
                    self.phase = AachIncPhase::ReadSlot {
                        node,
                        right: false,
                        left_val: 0,
                        sub: SlotRead::new(c, 2 * node),
                    };
                }
                AachIncPhase::ReadSlot {
                    node,
                    right,
                    left_val,
                    sub,
                } => {
                    let idx = 2 * *node + usize::from(*right);
                    let val = match sub {
                        SlotRead::Inner(m) => match c.inner[idx].step_read(m, ctx) {
                            Poll::Pending => None,
                            Poll::Ready(v) => Some(v),
                        },
                        SlotRead::Leaf => Some(c.leaves[idx - c.p].read(ctx)),
                        SlotRead::Padding => Some(0),
                    };
                    if let Some(val) = val {
                        if !*right {
                            self.phase = AachIncPhase::ReadSlot {
                                node: *node,
                                right: true,
                                left_val: val,
                                sub: SlotRead::new(c, 2 * *node + 1),
                            };
                        } else {
                            let sum = *left_val + val;
                            assert!(sum < c.bound, "counter capacity (m = {}) exceeded", c.bound);
                            self.phase = AachIncPhase::WriteNode {
                                node: *node,
                                sub: c.inner[*node].write_machine(sum),
                            };
                        }
                    }
                }
                AachIncPhase::WriteNode { node, sub } => {
                    if c.inner[*node].step_write(sub, ctx).is_ready() {
                        if *node == 1 {
                            return Poll::Ready(());
                        }
                        let parent = *node / 2;
                        self.phase = AachIncPhase::ReadSlot {
                            node: parent,
                            right: false,
                            left_val: 0,
                            sub: SlotRead::new(c, 2 * parent),
                        };
                    }
                }
            }
            if ctx.steps_taken() != before {
                return Poll::Pending;
            }
        }
    }
}

/// Resume point of an [`AachTree`] read: the root max register (or the
/// single leaf when `n = 1`). Machine convention as in
/// [`AachIncMachine`].
pub struct AachReadMachine<R: MachineMaxRegister> {
    /// `n = 1`: the single leaf is the whole tree (one register read).
    leaf: bool,
    root: Option<R::ReadMachine>,
    primed: bool,
}

impl<R: MachineMaxRegister> AachReadMachine<R> {
    /// A machine reading `counter`.
    pub fn new(counter: &AachTree<R>) -> Self {
        let leaf = counter.p == 1;
        AachReadMachine {
            leaf,
            root: (!leaf).then(|| counter.inner[1].read_machine()),
            primed: false,
        }
    }

    /// Advance the read by at most one primitive against `counter` —
    /// which must be the counter the machine was created for.
    pub fn step(&mut self, c: &AachTree<R>, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending; // a read always applies a primitive
        }
        if self.leaf {
            return Poll::Ready(u128::from(c.leaves[0].read(ctx)));
        }
        let m = self.root.as_mut().expect("root machine for p > 1");
        loop {
            let before = ctx.steps_taken();
            if let Poll::Ready(v) = c.inner[1].step_read(m, ctx) {
                return Poll::Ready(u128::from(v));
            }
            if ctx.steps_taken() != before {
                return Poll::Pending;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{testutil, Counter};
    use smr::Runtime;
    use std::sync::Arc;

    // Both aliases of the one tree run the next two bodies, each with
    // its own constructor `make(n)` (here and in `unbounded_tree`), so
    // a fault in the shared ascent or read shows on each.

    /// Sequential exactness of the tree `make(n)` builds, 80 increments
    /// at each `n ∈ {1, 2, 3, 5, 6, 8}`.
    pub(crate) fn check_tree_sequential<R: MachineMaxRegister>(
        make: impl Fn(usize) -> AachTree<R>,
    ) {
        for n in [1usize, 2, 3, 5, 6, 8] {
            testutil::check_sequential_exact(&make(n), 80);
        }
    }

    /// Concurrent exactness of the tree `make(6)` builds: 6 threads,
    /// 500 increments each.
    pub(crate) fn check_tree_concurrent<R: MachineMaxRegister + 'static>(
        make: impl Fn(usize) -> AachTree<R>,
    ) {
        testutil::check_concurrent_exact(Arc::new(make(6)), 6, 500);
    }

    #[test]
    fn sequential_conformance() {
        check_tree_sequential(|n| AachCounter::new(n, 1 << 20));
    }

    #[test]
    fn concurrent_increments_are_exact() {
        check_tree_concurrent(|n| AachCounter::new(n, 1 << 20));
    }

    #[test]
    fn read_cost_is_log_m_not_n() {
        let n = 32;
        let m = 1 << 16;
        let rt = Runtime::free_running(n);
        let c = AachCounter::new(n, m);
        let ctx = rt.ctx(0);
        c.increment(&ctx);
        let s0 = ctx.steps_taken();
        let _ = c.read(&ctx);
        let read_steps = ctx.steps_taken() - s0;
        assert!(
            read_steps <= 16 + 1,
            "root read is O(log m), got {read_steps}"
        );
    }

    #[test]
    fn increment_cost_is_log_n_log_m() {
        let n = 16;
        let m = 1 << 16;
        let rt = Runtime::free_running(n);
        let c = AachCounter::new(n, m);
        let ctx = rt.ctx(7);
        let s0 = ctx.steps_taken();
        c.increment(&ctx);
        let steps = ctx.steps_taken() - s0;
        // 2 leaf ops + log2(n)=4 levels x (2 child reads + 1 write), each
        // O(log2 m)=16 with small constants.
        let budget = 2 + 4 * 3 * (16 + 1);
        assert!(steps <= budget, "increment took {steps}, budget {budget}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overflow_is_rejected() {
        let c = AachCounter::new(1, 4);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        for _ in 0..4 {
            c.increment(&ctx);
        }
    }
}
