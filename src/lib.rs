//! # deterministic-approximate-objects
//!
//! A full reproduction of *"Upper and Lower Bounds for Deterministic
//! Approximate Objects"* (Hendler, Khattabi, Milani, Travers — ICDCS
//! 2021) as a Rust workspace. This umbrella crate re-exports the member
//! crates and hosts the cross-crate integration tests (`tests/`) and the
//! runnable examples (`examples/`).
//!
//! ## The pieces
//!
//! * [`approx_objects`] — the paper's contribution: the
//!   k-multiplicative-accurate counter (Algorithm 1, constant amortized
//!   steps for `k ≥ √n`), bounded max register (Algorithm 2,
//!   `O(min(log₂ log_k m, n))` worst case) and the unbounded max-register
//!   extension.
//! * [`smr`] — the instrumented shared-memory runtime: step-counted base
//!   objects, deterministic gated scheduling, operation histories, traces.
//! * [`maxreg`] / [`counter`] — the exact substrates and baselines
//!   (AACH tree max register, collect objects, atomic snapshot, …).
//! * [`lincheck`] — linearizability checking against exact and
//!   k-multiplicative specifications, plus the composed rank-error
//!   envelopes of the sketch workloads.
//! * [`sketch`] — approximate-aggregation workloads over the paper's
//!   primitives: the sharded top-k / heavy-hitters sketch and the
//!   multiplicative-bucket quantile histogram, with batched write
//!   handles.
//! * [`perturb`] — the lower-bound machinery: awareness sets and
//!   perturbing executions.
//! * [`obs`] — the self-observability layer: lock-free counters and
//!   gauges every subsystem reports into, a registry, snapshots and
//!   step-scaled snapshot reporting (`exp_scale`'s `metrics` rows pin
//!   the overhead).
//!
//! ## Where to start
//!
//! ```bash
//! cargo run --example quickstart
//! cargo run --release -p bench --bin exp_paper -- t39   # the headline theorem
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for paper-vs-measured results.

pub use approx_objects;
pub use counter;
pub use lincheck;
pub use maxreg;
pub use obs;
pub use perturb;
pub use sketch;
pub use smr;
