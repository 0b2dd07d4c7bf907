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
//! free. The register names its machines through
//! [`MachineMaxRegister`], and both other forms come from that trait:
//! the blocking [`MaxRegister`](crate::MaxRegister) form drives a
//! machine to completion, and the task form
//! ([`TreeMaxWriteTask`](crate::TreeMaxWriteTask) /
//! [`TreeMaxReadTask`](crate::TreeMaxReadTask), aliases of the one
//! generic pair in [`tasks`](crate::tasks)) polls one step at a time.
//! Every other machine register in this crate follows the same shape.
//! Composite objects (the AACH tree counters, `UnboundedMaxRegister`,
//! Algorithm 2) embed machines directly. Zero drift between forms by
//! construction.
//!
//! A machine holds no reference into the register — it records the turn
//! path taken and re-walks it from the root on each step (pointer
//! navigation only, no primitives) — so machines are plain safe values;
//! each [`step`](TreeWriteMachine::step) borrows the register it
//! operates on for the duration of the call. The path is one word: a
//! `u64` whose bit `i` is set for a right turn at depth `i`, and a `u8`
//! depth, enough for any tree on `m ≤ 2⁶⁴` values. So a machine's whole
//! state sits inline in its owner, and an operation costs no allocation
//! once the nodes on its path exist; the unwind finds the deepest pending
//! right turn with a mask and a leading-zeros count. The O(depth) re-walk
//! per step is a deliberate trade: caching the current node would need a
//! raw pointer tied to the register's identity, and pays only on deep
//! trees, while the re-walk keeps machines free of pointers to keep alive
//! and composable by ordinary struct nesting (the AACH counters embed
//! these directly). Step *counts* — the quantity the theorems bound and
//! the experiments measure — are identical to the recursive forms',
//! pinned by the task-vs-blocking determinism tests.

use crate::spec::MachineMaxRegister;
use smr::{Poll, ProcCtx, Register};
use std::sync::atomic::{AtomicPtr, Ordering};

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

    /// The node reached by following the first `depth` turns of `turns`
    /// from the root (bit `i` set: right at depth `i`), allocating
    /// lazily, as the recursive forms do. Pointer navigation only — no
    /// primitives.
    fn navigate(&self, turns: u64, depth: u8) -> &Node {
        let mut node = &self.root;
        for i in 0..depth {
            node = Node::child(if (turns >> i) & 1 == 1 {
                &node.right
            } else {
                &node.left
            });
        }
        node
    }
}

impl MachineMaxRegister for TreeMaxRegister {
    type WriteMachine = TreeWriteMachine;
    type ReadMachine = TreeReadMachine;

    fn write_machine(&self, v: u64) -> TreeWriteMachine {
        TreeWriteMachine::new(self, v)
    }

    fn read_machine(&self) -> TreeReadMachine {
        TreeReadMachine::new(self)
    }

    fn step_write(&self, m: &mut TreeWriteMachine, ctx: &ProcCtx) -> Poll<()> {
        m.step(self, ctx)
    }

    fn step_read(&self, m: &mut TreeReadMachine, ctx: &ProcCtx) -> Poll<u64> {
        m.step(self, ctx)
    }

    fn value_bound(&self) -> Option<u64> {
        Some(self.bound)
    }
}

/// Resume point of a `TreeMaxRegister::write` — one primitive per
/// [`step`](TreeWriteMachine::step), priming step free, exactly the
/// primitive sequence of the recursive transcription. See
/// `maxreg::tree`'s module docs for the machine convention and how the
/// forms share it.
#[derive(Debug)]
pub struct TreeWriteMachine {
    /// Turns committed so far from the root, one bit per depth: bit `i`
    /// set is a right turn at depth `i`, and bits from `depth` up are
    /// clear. Right turns are the ancestors whose switches remain to be
    /// set on the unwind.
    turns: u64,
    /// Turns taken; at most 64, the depth of a tree on `m ≤ 2⁶⁴` values.
    depth: u8,
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
    /// deepest right-turn ancestor above depth `upto`.
    Unwind {
        /// Right turns at depths `< upto` are still pending.
        upto: u8,
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
            turns: 0,
            depth: 0,
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
            self.turns |= 1 << self.depth;
            self.depth += 1;
            self.v -= half;
            self.span -= half;
        }
        self.phase = WritePhase::Unwind { upto: self.depth };
    }

    /// The deepest pending right turn strictly below `upto`, if any.
    fn next_unwind(&self, upto: u8) -> Option<u8> {
        // Keep bits `0..upto`: all 64 at `upto = 64`, where the shift
        // would overflow.
        let below = self.turns & !u64::MAX.checked_shl(u32::from(upto)).unwrap_or(0);
        (below != 0).then(|| 63 - below.leading_zeros() as u8)
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
                let node = reg.navigate(self.turns, self.depth);
                if node.switch.read(ctx) == 0 {
                    self.depth += 1; // a left turn: its bit stays clear
                    self.descend();
                } else {
                    // Dominated: abandon the descent and unwind what is
                    // stacked (ancestors' right-subtree writes are
                    // complete by construction).
                    self.phase = WritePhase::Unwind { upto: self.depth };
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
                reg.navigate(self.turns, at).switch.write(ctx, 1);
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
    /// Switches followed so far from the root, one bit per depth (bit
    /// `i` set: right at depth `i`), as in [`TreeWriteMachine`].
    turns: u64,
    /// Switches read so far.
    depth: u8,
    span: u64,
    acc: u64,
    primed: bool,
}

impl TreeReadMachine {
    /// A machine reading `reg`.
    pub fn new(reg: &TreeMaxRegister) -> Self {
        TreeReadMachine {
            turns: 0,
            depth: 0,
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
        let node = reg.navigate(self.turns, self.depth);
        if node.switch.read(ctx) == 1 {
            self.acc += half;
            self.span -= half;
            self.turns |= 1 << self.depth;
        } else {
            self.span = half;
        }
        self.depth += 1;
        if self.span <= 1 {
            Poll::Ready(self.acc)
        } else {
            Poll::Pending
        }
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
    use crate::spec::{testutil, MaxRegister};
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

    /// `f`'s result and the primitives it applied through `ctx`.
    fn counted<T>(ctx: &ProcCtx, f: impl FnOnce() -> T) -> (T, u64) {
        let s0 = ctx.steps_taken();
        let out = f();
        (out, ctx.steps_taken() - s0)
    }

    #[test]
    fn the_turn_word_holds_a_64_deep_path() {
        // m = 2⁶⁴ − 1: the leftmost leaves sit at depth 64 and the
        // rightmost, m − 1, at depth 63. 1 turns right only at depth 63
        // (the word's top bit), 2⁶³ only at depth 0, and m − 1 at every
        // depth below 63, so its unwind starts from bit 62.
        let m = u64::MAX;
        let reg = TreeMaxRegister::new(m);
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        assert_eq!(reg.worst_case_steps(), 64);
        for (v, steps) in [(1, 64), (1 << 63, 64), (m - 1, 63)] {
            assert_eq!(
                counted(&ctx, || reg.write(&ctx, v)),
                ((), steps),
                "write {v}"
            );
            assert_eq!(
                counted(&ctx, || reg.read(&ctx)),
                (v, steps),
                "read after {v}"
            );
        }
        // Dominated rewrites give up at the first set switch.
        for (v, steps) in [(1 << 63, 2), (1, 1)] {
            assert_eq!(
                counted(&ctx, || reg.write(&ctx, v)),
                ((), steps),
                "rewrite {v}"
            );
        }
        assert_eq!(counted(&ctx, || reg.read(&ctx)), (m - 1, 63));
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
