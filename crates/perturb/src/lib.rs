//! # perturb — lower-bound machinery
//!
//! Executable versions of the two adversarial constructions the paper's
//! lower bounds rest on:
//!
//! * [`awareness`] — *awareness sets* (Definitions III.2/III.3): an
//!   operational computation over recorded primitive traces, used to
//!   exhibit Lemma III.10 / Corollary III.10.1 (in any one-increment-
//!   one-read execution of a k-multiplicative counter, `n/2` processes
//!   end up aware of at least `n/2k²` processes) — the combinatorial core
//!   of the `Ω(n·log(n/k²))` bound of Theorem III.11.
//! * [`maxreg`] / [`counter`] — *perturbing executions* (\[5\],
//!   Definition 2, as instantiated by Lemmas V.1/V.3): a designated
//!   reader is repeatedly perturbed by fresh writers writing
//!   `v_r = k²·v_{r−1} + 1` (respectively, raising the increment total to
//!   `k²·ΣI_j + r`); every round forces the reader's solo response to
//!   change. Both builders run one round loop and return one
//!   [`PerturbReport`]; each supplies only its lemma's part: the
//!   recurrence that sets the next level, the bound that stops it, and
//!   what the round's writer does. They realize the full `Θ(log_k m)`
//!   perturbation count and measure how many **distinct base objects**
//!   the reader's solo operation accesses as rounds accumulate — the
//!   quantity Theorems V.2/V.4 bound from below by `Ω(min(log₂ L, n))`.
//!
//! The perturbation builders instantiate the framework with *complete*
//! perturbing operations (the `λ = ∅` case of Definition 2): each round's
//! writer runs to completion before the reader's solo run is measured.
//! That suffices to realize the perturbation count of Lemmas V.1/V.3 and
//! keeps the experiment deterministic; see DESIGN.md §5.

pub mod awareness;
pub mod counter;
mod execution;
pub mod maxreg;

mod bitset;
pub use bitset::BitSet;
pub use execution::{PerturbReport, PerturbRound};
