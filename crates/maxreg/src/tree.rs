//! The AACH tree construction of an `m`-bounded max register.
//!
//! The register for the domain `{0,…,m−1}` is a binary tree: an internal
//! node covering a span of `s` values has a 1-bit `switch` register, a left
//! child covering the lower `⌈s/2⌉` values and a right child covering the
//! upper `⌊s/2⌋`.
//!
//! * `Write(v)` descends toward `v`'s leaf. Going **right**, it first
//!   completes the write in the right subtree and only then sets the
//!   node's switch (so a set switch proves the right subtree already holds
//!   the value). Going **left**, it first reads the switch and abandons the
//!   write if set — the value is already dominated by something in the
//!   right half.
//! * `Read()` descends following switches: right if set, left otherwise,
//!   accumulating the offsets of every right turn.
//!
//! Both operations apply at most `⌈log₂ m⌉ + 1` primitives (AACH, Theorem
//! 5; optimal by the paper's reference [5]).
//!
//! Nodes are allocated lazily and published with a CAS, so the object's
//! memory footprint is proportional to the *paths actually written*, not
//! to `m` — essential for the `m = 2⁶⁰` sweeps in EXP-T4.2.
//!
//! ## One transcription, every form
//!
//! Both operations exist exactly once, as resumable *machines*
//! ([`TreeWriteMachine`] / [`TreeReadMachine`]): the recursive descent
//! unrolled into a turn path (descending, one switch *read* per left
//! turn) plus an unwind walk (ascending, one switch *write* per right
//! turn, deepest first) — one primitive per granted step, priming step
//! free. The blocking [`write`](TreeMaxRegister::write) /
//! [`read`](TreeMaxRegister::read) methods drive a machine to
//! completion; the [`OpTask`] wrappers ([`TreeMaxWriteTask`] /
//! [`TreeMaxReadTask`]) poll one step at a time; composite objects
//! (`AachCounter`, `UnboundedMaxRegister`, Algorithm 2) embed machines
//! directly. Zero drift between forms by construction.
//!
//! A machine holds no reference into the register — it records the turn
//! path taken and re-walks it from the root on each step (pointer
//! navigation only, no primitives) — so machines are plain safe values;
//! each [`step`](TreeWriteMachine::step) borrows the register it
//! operates on for the duration of the call. The O(depth) re-walk per
//! step is a deliberate trade: a constant wall-clock factor on deep
//! trees buys machines with no raw pointers to keep alive and ordinary
//! struct-nesting composition (the AACH counters embed these directly).
//! Step *counts* — the quantity the theorems bound and the experiments
//! measure — are identical to the recursive forms', pinned by the
//! task-vs-blocking determinism tests.

use crate::spec::MaxRegister;
use smr::{OpTask, Poll, ProcCtx, Register};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

struct Node {
    switch: Register,
    left: AtomicPtr<Node>,
    right: AtomicPtr<Node>,
}

impl Node {
    fn new() -> Node {
        Node {
            switch: Register::new(0),
            left: AtomicPtr::new(std::ptr::null_mut()),
            right: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// The child in `slot`, allocated on demand (CAS; loser frees).
    fn child(slot: &AtomicPtr<Node>) -> &Node {
        let existing = slot.load(Ordering::Acquire);
        if !existing.is_null() {
            // SAFETY: published pointers are valid until the tree drops.
            return unsafe { &*existing };
        }
        let fresh = Box::into_raw(Box::new(Node::new()));
        match slot.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: we just published `fresh`.
            Ok(_) => unsafe { &*fresh },
            Err(winner) => {
                // SAFETY: `fresh` lost the race and was never shared.
                unsafe { drop(Box::from_raw(fresh)) };
                // SAFETY: `winner` is a published, live node.
                unsafe { &*winner }
            }
        }
    }

    fn free(ptr: *mut Node) {
        if ptr.is_null() {
            return;
        }
        // SAFETY: called only from `Drop` with exclusive access.
        unsafe {
            let node = Box::from_raw(ptr);
            // relaxed-ok: exclusive teardown; no concurrent accessors.
            Node::free(node.left.load(Ordering::Relaxed));
            Node::free(node.right.load(Ordering::Relaxed));
        }
    }
}

/// An `m`-bounded exact max register with `O(log₂ m)` reads and writes.
///
/// ```
/// use maxreg::{MaxRegister, TreeMaxRegister};
/// use smr::Runtime;
///
/// let rt = Runtime::free_running(1);
/// let ctx = rt.ctx(0);
/// let reg = TreeMaxRegister::new(1 << 20);
/// reg.write(&ctx, 777);
/// reg.write(&ctx, 42); // dominated
/// assert_eq!(reg.read(&ctx), 777);
/// ```
pub struct TreeMaxRegister {
    bound: u64,
    root: Node,
}

impl TreeMaxRegister {
    /// A max register for values `{0,…,m−1}`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: u64) -> Self {
        assert!(m > 0, "bound must be positive");
        TreeMaxRegister {
            bound: m,
            root: Node::new(),
        }
    }

    /// The bound `m`.
    pub fn m(&self) -> u64 {
        self.bound
    }

    /// Worst-case primitives per operation for this bound: the tree depth
    /// plus one switch access per level.
    pub fn worst_case_steps(&self) -> u64 {
        // Depth of the span-halving recursion on `m` values.
        let mut span = self.bound;
        let mut depth = 0;
        while span > 1 {
            span = span.div_ceil(2);
            depth += 1;
        }
        depth
    }

    /// The node reached by following `path` from the root (allocating
    /// lazily, as the recursive forms do). Pointer navigation only — no
    /// primitives.
    fn navigate(&self, path: &[Turn]) -> &Node {
        let mut node = &self.root;
        for &turn in path {
            node = Node::child(match turn {
                Turn::Left => &node.left,
                Turn::Right => &node.right,
            });
        }
        node
    }
}

impl MaxRegister for TreeMaxRegister {
    fn write(&self, ctx: &ProcCtx, v: u64) {
        let mut m = TreeWriteMachine::new(self, v);
        while m.step(self, ctx).is_pending() {}
    }

    fn read(&self, ctx: &ProcCtx) -> u64 {
        let mut m = TreeReadMachine::new(self);
        loop {
            if let Poll::Ready(v) = m.step(self, ctx) {
                return v;
            }
        }
    }

    fn bound(&self) -> Option<u64> {
        Some(self.bound)
    }
}

/// A turn of the descent path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    Left,
    Right,
}

/// Resume point of a `TreeMaxRegister::write` — one primitive per
/// [`step`](TreeWriteMachine::step), priming step free, exactly the
/// primitive sequence of the recursive transcription. See
/// `maxreg::tree`'s module docs for the machine convention and how the
/// forms share it.
#[derive(Debug)]
pub struct TreeWriteMachine {
    /// Turns committed so far from the root. Right turns are the
    /// ancestors whose switches remain to be set on the unwind.
    path: Vec<Turn>,
    /// Value and span relative to the current node's subrange.
    v: u64,
    span: u64,
    phase: WritePhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WritePhase {
    /// Not yet primed.
    Start,
    /// About to read the current node's switch (a left turn).
    ReadSwitch,
    /// Descent finished or abandoned; about to set the switch of the
    /// deepest right-turn ancestor strictly above `path[upto..]`.
    Unwind {
        /// Right turns at indices `< upto` are still pending.
        upto: usize,
    },
}

impl TreeWriteMachine {
    /// A machine writing `v` into `reg`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    pub fn new(reg: &TreeMaxRegister, v: u64) -> Self {
        assert!(v < reg.bound, "value {v} out of range (m = {})", reg.bound);
        TreeWriteMachine {
            path: Vec::new(),
            v,
            span: reg.bound,
            phase: WritePhase::Start,
        }
    }

    /// Take right turns (no primitives) until the next left turn (a
    /// switch read) or the leaf (start unwinding).
    fn descend(&mut self) {
        while self.span > 1 {
            let half = self.span.div_ceil(2);
            if self.v < half {
                self.span = half;
                self.phase = WritePhase::ReadSwitch;
                return;
            }
            self.path.push(Turn::Right);
            self.v -= half;
            self.span -= half;
        }
        self.phase = WritePhase::Unwind {
            upto: self.path.len(),
        };
    }

    /// The deepest pending right turn strictly below `upto`, if any.
    fn next_unwind(&self, upto: usize) -> Option<usize> {
        self.path[..upto].iter().rposition(|&t| t == Turn::Right)
    }

    /// Advance the write by at most one primitive against `reg` — which
    /// must be the register the machine was created for. The first call
    /// primes (no primitive; zero-primitive writes — `m = 1` — complete
    /// here); each later call applies exactly one primitive and returns
    /// `Ready` with the one that finishes the write.
    pub fn step(&mut self, reg: &TreeMaxRegister, ctx: &ProcCtx) -> Poll<()> {
        match self.phase {
            WritePhase::Start => {
                self.descend();
                if let WritePhase::Unwind { upto } = self.phase {
                    if self.next_unwind(upto).is_none() {
                        return Poll::Ready(()); // m = 1: no primitives at all
                    }
                }
                Poll::Pending
            }
            WritePhase::ReadSwitch => {
                let node = reg.navigate(&self.path);
                if node.switch.read(ctx) == 0 {
                    self.path.push(Turn::Left);
                    self.descend();
                } else {
                    // Dominated: abandon the descent and unwind what is
                    // stacked (ancestors' right-subtree writes are
                    // complete by construction).
                    self.phase = WritePhase::Unwind {
                        upto: self.path.len(),
                    };
                }
                match self.phase {
                    WritePhase::Unwind { upto } if self.next_unwind(upto).is_none() => {
                        Poll::Ready(())
                    }
                    _ => Poll::Pending,
                }
            }
            WritePhase::Unwind { upto } => {
                let at = self.next_unwind(upto).expect("pending right turn");
                reg.navigate(&self.path[..at]).switch.write(ctx, 1);
                self.phase = WritePhase::Unwind { upto: at };
                if self.next_unwind(at).is_none() {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

/// Resume point of a `TreeMaxRegister::read`: descend following
/// switches, one switch read per granted step, resolving to the
/// accumulated maximum. Same machine convention as
/// [`TreeWriteMachine`].
#[derive(Debug)]
pub struct TreeReadMachine {
    path: Vec<Turn>,
    span: u64,
    acc: u64,
    primed: bool,
}

impl TreeReadMachine {
    /// A machine reading `reg`.
    pub fn new(reg: &TreeMaxRegister) -> Self {
        TreeReadMachine {
            path: Vec::new(),
            span: reg.bound,
            acc: 0,
            primed: false,
        }
    }

    /// Advance the read by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &TreeMaxRegister, ctx: &ProcCtx) -> Poll<u64> {
        if !self.primed {
            self.primed = true;
            if self.span <= 1 {
                return Poll::Ready(self.acc); // m = 1: no primitives
            }
            return Poll::Pending;
        }
        let half = self.span.div_ceil(2);
        let node = reg.navigate(&self.path);
        if node.switch.read(ctx) == 1 {
            self.acc += half;
            self.span -= half;
            self.path.push(Turn::Right);
        } else {
            self.span = half;
            self.path.push(Turn::Left);
        }
        if self.span <= 1 {
            Poll::Ready(self.acc)
        } else {
            Poll::Pending
        }
    }
}

/// `TreeMaxRegister::write` as a resumable [`OpTask`] for the coop
/// backend: an owning wrapper around [`TreeWriteMachine`].
pub struct TreeMaxWriteTask {
    reg: Arc<TreeMaxRegister>,
    machine: TreeWriteMachine,
}

impl TreeMaxWriteTask {
    /// A write of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    pub fn new(reg: Arc<TreeMaxRegister>, v: u64) -> Self {
        let machine = TreeWriteMachine::new(&reg, v);
        TreeMaxWriteTask { reg, machine }
    }
}

impl OpTask for TreeMaxWriteTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.reg, ctx).map(|()| 0)
    }
}

/// `TreeMaxRegister::read` as a resumable [`OpTask`]: an owning wrapper
/// around [`TreeReadMachine`].
pub struct TreeMaxReadTask {
    reg: Arc<TreeMaxRegister>,
    machine: TreeReadMachine,
}

impl TreeMaxReadTask {
    /// A read.
    pub fn new(reg: Arc<TreeMaxRegister>) -> Self {
        let machine = TreeReadMachine::new(&reg);
        TreeMaxReadTask { reg, machine }
    }
}

impl OpTask for TreeMaxReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.reg, ctx).map(u128::from)
    }
}

impl Drop for TreeMaxRegister {
    fn drop(&mut self) {
        // relaxed-ok: exclusive teardown; no concurrent accessors.
        Node::free(self.root.left.load(Ordering::Relaxed));
        Node::free(self.root.right.load(Ordering::Relaxed));
        self.root
            .left
            // relaxed-ok: same exclusive teardown.
            .store(std::ptr::null_mut(), Ordering::Relaxed);
        self.root
            .right
            // relaxed-ok: same exclusive teardown.
            .store(std::ptr::null_mut(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil;
    use smr::Runtime;
    use std::sync::Arc;

    #[test]
    fn sequential_conformance() {
        let reg = TreeMaxRegister::new(1000);
        testutil::check_sequential(&reg, &[5, 3, 999, 42, 0, 998]);
    }

    #[test]
    fn sequential_conformance_non_power_of_two() {
        for m in [1u64, 2, 3, 7, 100, 129] {
            let reg = TreeMaxRegister::new(m);
            let vals: Vec<u64> = (0..m.min(50)).rev().collect();
            testutil::check_sequential(&reg, &vals);
        }
    }

    #[test]
    fn every_value_round_trips() {
        let m = 257;
        for v in 0..m {
            let reg = TreeMaxRegister::new(m);
            let rt = Runtime::free_running(1);
            let ctx = rt.ctx(0);
            reg.write(&ctx, v);
            assert_eq!(reg.read(&ctx), v, "round trip of {v}");
        }
    }

    #[test]
    fn step_complexity_is_logarithmic() {
        let m = 1 << 20;
        let reg = TreeMaxRegister::new(m);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let budget = 2 * (reg.worst_case_steps() + 1);

        let s0 = ctx.steps_taken();
        reg.write(&ctx, m - 1);
        let write_steps = ctx.steps_taken() - s0;
        assert!(
            write_steps <= budget,
            "write took {write_steps} steps; budget {budget}"
        );

        let s0 = ctx.steps_taken();
        let _ = reg.read(&ctx);
        let read_steps = ctx.steps_taken() - s0;
        assert!(
            read_steps <= budget,
            "read took {read_steps} steps; budget {budget}"
        );
    }

    #[test]
    fn huge_bound_is_lazy() {
        let m = 1u64 << 60;
        let reg = TreeMaxRegister::new(m);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        reg.write(&ctx, m - 1);
        reg.write(&ctx, 123_456_789);
        assert_eq!(reg.read(&ctx), m - 1);
    }

    #[test]
    fn dominated_left_write_is_abandoned() {
        // Writing a small value after a large one must not disturb the max
        // and must cost at most a few switch reads.
        let reg = TreeMaxRegister::new(1 << 16);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        reg.write(&ctx, 60_000);
        let s0 = ctx.steps_taken();
        reg.write(&ctx, 1);
        let steps = ctx.steps_taken() - s0;
        assert_eq!(reg.read(&ctx), 60_000);
        assert!(steps <= 17, "abandoned write cost {steps}");
    }

    #[test]
    fn concurrent_writers_converge() {
        let reg = Arc::new(TreeMaxRegister::new(1 << 20));
        testutil::check_concurrent(reg, 8, 500);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_rejects_out_of_range() {
        let reg = TreeMaxRegister::new(8);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        reg.write(&ctx, 8);
    }

    #[test]
    fn bound_one_register_is_trivial() {
        let reg = TreeMaxRegister::new(1);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        reg.write(&ctx, 0);
        assert_eq!(reg.read(&ctx), 0);
        assert_eq!(ctx.steps_taken(), 0, "m=1 register needs no primitives");
    }

    #[test]
    fn machine_steps_apply_one_primitive_each() {
        // The machine convention the composites rely on: priming step
        // free, then exactly one primitive per step until Ready.
        let m = 1 << 10;
        let reg = TreeMaxRegister::new(m);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        for v in [0u64, 1, 511, 512, 777, m - 1] {
            let mut machine = TreeWriteMachine::new(&reg, v);
            let s0 = ctx.steps_taken();
            assert!(machine.step(&reg, &ctx).is_pending(), "prime");
            assert_eq!(ctx.steps_taken(), s0, "priming step is free");
            loop {
                let before = ctx.steps_taken();
                let done = machine.step(&reg, &ctx).is_ready();
                assert_eq!(ctx.steps_taken() - before, 1, "one primitive per step");
                if done {
                    break;
                }
            }
        }
    }
}
