//! # maxreg — exact max registers
//!
//! Wait-free linearizable *exact* max registers, the substrate on which the
//! paper's Algorithm 2 (the k-multiplicative-accurate bounded max register)
//! is built, and the baselines its step-complexity claims are compared
//! against.
//!
//! A **max register** supports `write(v)` and `read()`, where `read`
//! returns the largest value written so far (Aspnes, Attiya, Censor-Hillel,
//! *"Polylogarithmic concurrent data structures from monotone circuits"*,
//! J. ACM 2012 — "AACH" below).
//!
//! Implementations:
//!
//! * [`TreeMaxRegister`] — the AACH recursive tree construction for an
//!   `m`-bounded max register: `O(log₂ m)` steps per operation. Nodes are
//!   allocated lazily so huge bounds (e.g. `m = 2⁶⁰`) cost only the paths
//!   actually touched.
//! * [`CollectMaxRegister`] — single-writer cells + collect: `O(1)` writes,
//!   `O(n)` reads. Beats the tree when `n < log₂ m`.
//! * [`AdaptiveMaxRegister`] — picks whichever of the two is cheaper for
//!   the given `(n, m)`, realizing the `O(min(log m, n))` bound quoted in
//!   the paper (Theorem IV.2 relies on it).
//! * [`UnboundedMaxRegister`] — a level-doubling chain of tree registers
//!   covering the full `u64` domain with cost `O(log v)` for the value `v`
//!   at hand (the exact-object analogue of the unbounded constructions of
//!   Baig et al.; see DESIGN.md for the substitution note).
//! * [`LockMaxRegister`] — a lock-based oracle for tests. **Not** a
//!   shared-memory algorithm of the model; charges no steps.
//!
//! All real implementations apply only `read`/`write` primitives through
//! [`smr`]'s instrumented base objects, so per-process step counts measure
//! exactly the complexity the theorems talk about.
//!
//! Each of the four real registers writes its operations once, as a
//! write and a read machine, and names them through
//! [`MachineMaxRegister`]. Everything else is written once over that
//! trait: the blocking [`MaxRegister`] form (a blanket impl driving the
//! machines to completion) and the task pair in [`tasks`]
//! ([`MaxRegWriteTask`] / [`MaxRegReadTask`], with one alias per
//! register). Only the lock oracle, which has no machines, implements
//! [`MaxRegister`] directly.

mod adaptive;
mod collect;
mod reference;
mod spec;
pub mod tasks;
mod tree;
mod unbounded;

pub use adaptive::{AdaptiveMaxRegister, AdaptiveReadMachine, AdaptiveWriteMachine};
pub use collect::{CollectMaxRegister, CollectReadMachine, CollectWriteMachine};
pub use reference::LockMaxRegister;
pub use spec::{MachineMaxRegister, MaxRegister};
pub use tasks::{
    AdaptiveMaxReadTask, AdaptiveMaxWriteTask, MaxRegReadTask, MaxRegWriteTask, TreeMaxReadTask,
    TreeMaxWriteTask, UnboundedMaxReadTask, UnboundedMaxWriteTask,
};
pub use tree::{TreeMaxRegister, TreeReadMachine, TreeWriteMachine};
pub use unbounded::{UnboundedMaxRegister, UnboundedReadMachine, UnboundedWriteMachine};
