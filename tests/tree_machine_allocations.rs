//! What a tree max-register operation costs the global allocator.
//!
//! `TreeMaxRegister`'s read and write machines keep their turn path in
//! one word, so once the nodes an operation visits exist, the operation
//! allocates nothing. Algorithm 2's tree arm embeds the same machines,
//! so its operations allocate nothing either. This suite warms an exact
//! tree register and a tree-arm `KmultBoundedMaxRegister` with one pass
//! of its operations, which creates every node a later pass can visit:
//! switches only ever go from 0 to 1, so a repeated write stops no later
//! than its first run did, and the reads follow the final state's
//! switches, which the warm-up's last read already followed. It then
//! drives 10 000 writes and reads through each register's machines and
//! pins zero allocation calls, counted by `counting_alloc` on the
//! calling thread.

mod counting_alloc;

use approx_objects::{KmultBoundedMaxRegister, KmultMaxReadMachine, KmultMaxWriteMachine};
use counting_alloc::calls;
use maxreg::{TreeMaxRegister, TreeReadMachine, TreeWriteMachine};
use smr::{Poll, ProcCtx, Runtime};

/// Operations per register in the counted pass.
const OPS: usize = 10_000;

/// Step `step` until it is ready: `(result, primitives applied)`.
fn drive<T>(ctx: &ProcCtx, mut step: impl FnMut() -> Poll<T>) -> (T, u64) {
    let s0 = ctx.steps_taken();
    loop {
        if let Poll::Ready(v) = step() {
            return (v, ctx.steps_taken() - s0);
        }
    }
}

/// One pass over `values`: a write of each, then a read. Returns the
/// last read and the most steps any read took.
fn tree_pass(reg: &TreeMaxRegister, ctx: &ProcCtx, values: &[u64]) -> (u64, u64) {
    let (mut last, mut most) = (0, 0);
    for &v in values {
        let mut w = TreeWriteMachine::new(reg, v);
        let ((), write_steps) = drive(ctx, || w.step(reg, ctx));
        let mut r = TreeReadMachine::new(reg);
        let (x, read_steps) = drive(ctx, || r.step(reg, ctx));
        assert!(write_steps.max(read_steps) <= reg.worst_case_steps());
        (last, most) = (x, most.max(read_steps));
    }
    (last, most)
}

/// [`tree_pass`] for Algorithm 2.
fn kmult_pass(reg: &KmultBoundedMaxRegister, ctx: &ProcCtx, values: &[u64]) -> (u128, u64) {
    let (mut last, mut most) = (0, 0);
    for &v in values {
        let mut w = KmultMaxWriteMachine::new(reg, v);
        drive(ctx, || w.step(reg, ctx));
        let mut r = KmultMaxReadMachine::new(reg);
        let (x, read_steps) = drive(ctx, || r.step(reg, ctx));
        (last, most) = (x, most.max(read_steps));
    }
    (last, most)
}

#[test]
fn tree_machines_allocate_nothing_once_their_nodes_exist() {
    let rt = Runtime::free_running(1);
    let ctx = rt.ctx(0);

    // The exact register: writes that turn right at the root and are
    // abandoned deeper, writes dominated at the root, and the maximum.
    let m = 1u64 << 20;
    let tree = TreeMaxRegister::new(m);
    let tree_values = [1, 1 << 19, 777_777, m - 2, 3, m - 1, 12_345, (1 << 19) + 5];
    // Algorithm 2 at k = 2 over m = 2⁴⁰ and n = 8: 42 magnitude indices
    // in a 6-deep tree, cheaper than the 8-cell collect arm.
    let kmult = KmultBoundedMaxRegister::new(8, 1 << 40, 2);
    let kmult_values = [1, 1 << 5, 1 << 20, 3, (1 << 40) - 1, 1 << 39, 77, 1 << 30];

    tree_pass(&tree, &ctx, &tree_values);
    kmult_pass(&kmult, &ctx, &kmult_values);

    let (before, s0) = (calls(), ctx.steps_taken());
    for _ in 0..OPS / (2 * tree_values.len()) {
        assert_eq!(tree_pass(&tree, &ctx, &tree_values), (m - 1, 20));
    }
    for _ in 0..OPS / (2 * kmult_values.len()) {
        let (last, most_read_steps) = kmult_pass(&kmult, &ctx, &kmult_values);
        assert_eq!(last, 1 << 40, "k^p for the largest magnitude, p = 40");
        assert!(
            most_read_steps <= 6,
            "a read took {most_read_steps} steps: not the tree arm"
        );
    }
    let (allocs, steps) = (calls() - before, ctx.steps_taken() - s0);
    assert!(steps > 0);
    assert_eq!(allocs, 0, "{allocs} allocation calls over {steps} steps");
}
