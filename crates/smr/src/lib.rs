//! # smr — instrumented shared-memory runtime
//!
//! This crate models the asynchronous shared-memory machine used by
//! *"Upper and Lower Bounds for Deterministic Approximate Objects"*
//! (Hendler, Khattabi, Milani, Travers — ICDCS 2021) and by the
//! lower-bound framework of Aspnes et al. it builds on.
//!
//! In that model, `n` crash-prone processes communicate by applying
//! *primitives* (`read`, `write`, `test&set`) to *base objects*; the cost
//! of an operation is the number of primitives it applies. This crate
//! provides:
//!
//! * **Instrumented base objects** ([`Register`], [`TasBit`],
//!   [`FaaRegister`]) — every primitive application is counted against the
//!   invoking process, so the *step complexity* the paper's theorems bound
//!   is measured exactly, independent of wall-clock time.
//! * **Two execution modes** in one [`Runtime`]:
//!   * *free-running* — primitives execute at native atomic speed, only a
//!     relaxed per-process counter is bumped (suitable for throughput
//!     benchmarks);
//!   * *gated* — a controller grants every primitive individually,
//!     giving fully deterministic, scriptable interleavings at primitive
//!     granularity (what the adversary constructions in the paper's
//!     lower-bound proofs need).
//! * **A driver harness** ([`driver::Driver`]) generic over an
//!   *execution backend* ([`backend`]): the [`CoopBackend`] drives
//!   10⁵–10⁶ *virtual* processes as resumable [`OpTask`] state machines
//!   on the controller thread — gated (the one deterministic executor:
//!   the controller schedules steps, crashes and suspends processes) or
//!   free-running — while the [`ThreadBackend`] runs one free-running
//!   worker thread per process (closures or tasks) for real
//!   concurrency. Either way the controller submits operations and
//!   records a timestamped operation history for linearizability
//!   checking.
//! * **Schedulers** ([`sched`]) — round-robin, seeded-random and
//!   scripted, picking from an incrementally-maintained [`ActiveSet`] so
//!   policies stay cheap at 10⁵–10⁶ pids.
//! * **Exhaustive schedule exploration** ([`explore`](mod@explore)) — a
//!   bounded depth-first enumerator over the coop backend that checks
//!   *every* interleaving (one per trace class under sleep-set DPOR, or
//!   all of them under the raw DFS; optional crash injection) and
//!   minimizes failing schedules into replayable scripts, turning
//!   sampled schedule properties into proofs for small configurations.
//! * **Online trace analysis** ([`analysis`]) — pluggable passes fed the
//!   live trace-event stream of any gated run. The standard bundle
//!   checks access-kind conformance against recorded state digests, the
//!   contract the explorer's independence relation trusts; a
//!   vector-clock happens-before pass yields racy pairs. The poll
//!   contract needs no pass: the coop backend asserts it around every
//!   poll.
//! * **A lock-free growable segment array** ([`SegArray`]) used to hold the
//!   unbounded `switch` sequence of the paper's Algorithm 1.
//!
//! ## Example
//!
//! ```
//! use smr::{Runtime, Register};
//!
//! let rt = Runtime::free_running(2);
//! let reg = Register::new(0);
//! let ctx = rt.ctx(0);
//! reg.write(&ctx, 7);
//! assert_eq!(reg.read(&ctx), 7);
//! assert_eq!(rt.steps_of(0), 2); // two primitive applications
//! ```

mod active;
mod addr;
pub mod analysis;
pub mod backend;
mod ctx;
pub mod driver;
pub mod explore;
pub mod history;
mod primitives;
mod runtime;
pub mod sched;
mod segarray;
mod step;
pub mod task;
mod trace;
mod wide;

pub use active::ActiveSet;
pub use analysis::{AnalysisPass, Analyzer, Violation};
pub use backend::{CoopBackend, ExecBackend, ThreadBackend};
pub use ctx::ProcCtx;
pub use driver::{Driver, StepOutcome};
pub use explore::{explore, Choice, ExploreConfig, ExploreStats, FoundViolation, Replay};
pub use history::{History, OpKind, OpRecord, OpSpec};
pub use primitives::{FaaRegister, Register, TasBit};
pub use runtime::{Mode, Runtime};
pub use segarray::SegArray;
pub use step::{pad::CachePadded, StepStats};
pub use task::{ErasedTask, ImmediateOp, Op, OpTask, Poll};
pub use trace::{accesses, Access, AccessKind, TraceEvent};
pub use wide::WideRegister;
