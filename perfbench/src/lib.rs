//! The repository's end-to-end benchmark.
//!
//! It drives the system only through its public entry points — the
//! `smr` runtime and driver, the paper's objects in `approx_objects`,
//! `lincheck`, `smr::analysis`, `smr::explore` and `obs` — and times
//! each call into a layer from here. See `main.rs` for the command line
//! and `metrics.rs` for what each metric means.

pub mod calibrate;
pub mod metrics;
pub mod provenance;
pub mod spans;
pub mod workloads;
