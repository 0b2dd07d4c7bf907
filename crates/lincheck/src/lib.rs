//! # lincheck — linearizability checking for (relaxed) monotone objects
//!
//! Validates recorded histories against the paper's sequential
//! specifications:
//!
//! * the **exact counter** / **exact max register**;
//! * the **k-multiplicative-accurate** variants, where a read may return
//!   any `x` with `v/k ≤ x ≤ v·k` for the exact value `v` at its
//!   linearization point (`k = 1` recovers the exact specs).
//!
//! One engine and two oracles:
//!
//! * [`online`] — the decision procedure exploiting monotonicity (each
//!   read constrains the object value over its real-time window to an
//!   interval; a greedy minimal assignment that respects real-time read
//!   ordering exists iff the history is linearizable), run as one
//!   timestamp-ordered sweep over a monotone stack. [`OnlineChecker`]
//!   consumes records as a stream with retained state bounded by the
//!   concurrency; [`LinearizabilityPass`] runs it inline on live runs.
//!   The post-hoc entry points in [`monotone`] (derivation and
//!   complexity there) and [`records`] sort a finished history into the
//!   same stream — a driver history's dense tickets with a linear-time
//!   counting sort — and are sized for million-op histories.
//! * [`naive`] — the retired quadratic transcriptions of the same
//!   predicates, retained as cross-validation references.
//! * [`wg`] — an exhaustive Wing&ndash;Gong search (with memoization),
//!   exponential but spec-agnostic; used on small randomized histories to
//!   cross-validate the engine (see this crate's tests).
//!
//! Beyond the per-object specs, [`sketchlog`] checks the `sketch`
//! crate's *composed* aggregation reads (top-k digests, quantile/rank
//! answers) against rank-error envelopes derived from the per-counter
//! bounds — see its module docs and DESIGN.md §6.
//!
//! Histories come from the **typed** [`smr::History`] event log via
//! [`CounterHistory::from_records`] / [`MaxRegHistory::from_records`]
//! (pattern-matching on [`smr::OpKind`] — no label strings, and records
//! outside the object vocabulary are rejected with [`UnsupportedOp`],
//! not a panic), or can be built by hand. For `smr::explore`'s checker
//! closures, [`records`] checks the driver's records directly, in one
//! call returning the explorer's `Result<(), String>` shape.

mod history;
pub mod monotone;
pub mod naive;
pub mod online;
pub mod pass;
pub mod records;
pub mod sketchlog;
mod sweep;
pub mod wg;

pub use history::{
    CounterHistory, Interval, MaxRegHistory, TimedInc, TimedRead, TimedWrite, UnsupportedOp,
    Violation,
};
pub use online::{CounterSpec, OnlineChecker};
pub use pass::LinearizabilityPass;
pub use records::{check_counter_records, check_maxreg_records};
pub use sketchlog::{check_quantile_records, check_topk_records, SketchEnvelope};
