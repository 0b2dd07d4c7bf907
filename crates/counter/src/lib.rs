//! # counter — exact counters (the baselines)
//!
//! Wait-free linearizable *exact* counters, against which the paper's
//! k-multiplicative-accurate counter (Algorithm 1, crate `approx-objects`)
//! is compared.
//!
//! A **counter** supports `increment()` and `read()`; `read` returns the
//! number of increments that precede it.
//!
//! Implementations, spanning the complexity landscape the paper's
//! introduction surveys:
//!
//! * [`CollectCounter`] — one single-writer cell per process; `read`
//!   collects and sums. `O(1)` increments, `O(n)` reads. For unit
//!   increments the collect-sum is linearizable (the sum is monotone and
//!   moves by 1, so every value between the start-sum and end-sum is
//!   attained inside the read's window). This is the classic
//!   snapshot-style counter of the introduction's survey.
//! * [`SnapshotCounter`] — increments and reads go through a full
//!   Afek-et-al. single-writer atomic snapshot ([`AtomicSnapshot`]);
//!   `O(n²)` worst-case steps but yields an atomic *vector* view.
//! * [`AachCounter`] — the AACH monotone-circuit bounded counter: a binary
//!   tree of max registers over `n` leaves; `O(log n · log m)` increments
//!   and `O(log m)` reads for an `m`-bounded counter.
//! * [`UnboundedTreeCounter`] — the same tree over *unbounded* max
//!   registers: a long-lived polylog exact counter standing in for Baig
//!   et al. (DISC '19), the baseline §I-B compares against (see
//!   DESIGN.md's substitution notes).
//! * [`FaaCounter`] — a single `fetch&add` register. **Outside** the
//!   paper's primitive set (`fetch&add` is not historyless); included as
//!   the hardware baseline.
//! * [`LockCounter`] — mutex-based oracle for tests; charges no steps.

mod aach;
mod collect;
mod fetch_add;
mod reference;
mod snapshot;
mod spec;
pub mod tasks;
mod unbounded_tree;

pub use aach::{AachCounter, AachIncMachine, AachReadMachine};
pub use collect::{CollectCounter, CollectIncMachine, CollectReadMachine};
pub use fetch_add::FaaCounter;
pub use reference::LockCounter;
pub use snapshot::{
    AtomicSnapshot, ScanMachine, SnapshotCounter, SnapshotIncMachine, SnapshotReadMachine,
    UpdateMachine,
};
pub use spec::Counter;
pub use tasks::{
    AachIncTask, AachReadTask, CollectIncTask, CollectReadTask, SnapshotIncTask, SnapshotReadTask,
    UnboundedTreeIncTask, UnboundedTreeReadTask,
};
pub use unbounded_tree::{UnboundedTreeCounter, UnboundedTreeIncMachine, UnboundedTreeReadMachine};
