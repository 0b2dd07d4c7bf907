//! The registered metric names — every metric in the workspace is
//! registered under a constant from this module, never a string literal
//! at the call site (`lint_smr` rule 6 enforces both halves: call sites
//! outside `crates/obs` must pass constants, and every name constant
//! here must end in a unit suffix `bench::regression` classifies —
//! `_total` (volatile event count), `_per_sec` (throughput, regresses by
//! dropping), `_bytes` / `_entries` (memory, regresses by growing)).
//!
//! Subsystem tags are the `SUB_*` constants; they name snapshot rows,
//! not metrics, and carry no unit suffix.

// Subsystem row tags.
pub const SUB_COOP: &str = "coop";
pub const SUB_EXPLORE: &str = "explore";
pub const SUB_LINCHECK: &str = "lincheck";

// CoopBackend.
pub const COOP_POLLS: &str = "polls_total";
pub const COOP_ARENA_BYTES: &str = "arena_bytes";

// smr::explore.
pub const EXPLORE_SLEEP_HITS: &str = "sleep_set_hits_total";
pub const EXPLORE_BACKTRACKS: &str = "backtrack_points_total";
pub const EXPLORE_REPLAYS: &str = "replays_total";

// lincheck::online and LinearizabilityPass.
pub const LINCHECK_PUSHES: &str = "pushes_total";
pub const LINCHECK_FOLDS: &str = "fold_compactions_total";
pub const LINCHECK_RETAINED: &str = "retained_entries";
/// No longer recorded: `LinearizabilityPass` checks each event as it
/// arrives, with no reorder buffer to sample. Kept because perfbench's
/// per-layer ledger reads `lincheck.reorder_occupancy_p99` from it
/// (`perfbench/src/metrics.rs`), which now reads 0.
pub const LINCHECK_REORDER_OCCUPANCY: &str = "reorder_occupancy_entries";
