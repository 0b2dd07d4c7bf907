//! The static metric registry and the snapshot exporter.
//!
//! Metrics are registered once (typically at subsystem construction),
//! live for the process (`Box::leak` — registration is startup-time,
//! bounded by the number of *metric names*, not runs), and hand back
//! `&'static` typed handles a hot path can store in a field and hit
//! with zero indirection. Registration is idempotent by
//! `(subsystem, name)`, so two backends built in one process share
//! counters instead of shadowing each other.
//!
//! [`snapshot`] exports every registered metric as one flat row per
//! subsystem in the exact `{"bench": …, "mode": …, "results": [...]}`
//! shape `bench::regression::parse_bench_json` already parses — obs
//! snapshots diff with the same `bench_diff` machinery as BENCH files.

use crate::metrics::{Counter, Gauge};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Unit suffixes a registered metric name must end with — the direction
/// classes `bench::regression` understands plus `_total` for volatile
/// event counts. `lint_smr` rule 6 checks `names.rs` against this list.
pub const UNIT_SUFFIXES: &[&str] = &["_total", "_per_sec", "_bytes", "_entries"];

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
}

struct Entry {
    subsystem: &'static str,
    name: &'static str,
    metric: Metric,
}

/// The registry holds leaked entries, so handed-out references stay
/// valid across later registrations (the index vector may reallocate;
/// the entries never move).
fn entries() -> &'static Mutex<Vec<&'static Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn assert_name(name: &str) {
    assert!(
        UNIT_SUFFIXES.iter().any(|s| name.ends_with(s)),
        "metric name `{name}` lacks a unit suffix (one of {UNIT_SUFFIXES:?})"
    );
}

fn lookup_or_insert(
    subsystem: &'static str,
    name: &'static str,
    make: impl FnOnce() -> Metric,
) -> &'static Entry {
    assert_name(name);
    let mut reg = entries().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = reg
        .iter()
        .find(|e| e.subsystem == subsystem && e.name == name)
    {
        return e;
    }
    let entry: &'static Entry = Box::leak(Box::new(Entry {
        subsystem,
        name,
        metric: make(),
    }));
    reg.push(entry);
    entry
}

/// Register (or fetch) the counter `subsystem/name`.
///
/// # Panics
/// Panics if the name lacks a unit suffix or is already registered as a
/// different metric type.
pub fn counter(subsystem: &'static str, name: &'static str) -> &'static Counter {
    match lookup_or_insert(subsystem, name, || {
        Metric::Counter(Box::leak(Box::new(Counter::new())))
    })
    .metric
    {
        Metric::Counter(c) => c,
        _ => panic!("{subsystem}/{name} is registered as a non-counter"),
    }
}

/// Register (or fetch) the gauge `subsystem/name`.
///
/// # Panics
/// See [`counter`].
pub fn gauge(subsystem: &'static str, name: &'static str) -> &'static Gauge {
    match lookup_or_insert(subsystem, name, || {
        Metric::Gauge(Box::leak(Box::new(Gauge::new())))
    })
    .metric
    {
        Metric::Gauge(g) => g,
        _ => panic!("{subsystem}/{name} is registered as a non-gauge"),
    }
}

/// One exported row: a subsystem tag plus its metric fields in
/// registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRow {
    pub subsystem: &'static str,
    /// `(field name, value)`, one field per metric under its registered
    /// name. `i128` covers both `u64` and `i64` sources.
    pub fields: Vec<(&'static str, i128)>,
}

/// A point-in-time export of every registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub rows: Vec<SnapshotRow>,
}

impl MetricsSnapshot {
    /// Render in the flat-JSON bench shape (`bench` tag
    /// `metrics_snapshot`) that `bench::regression::parse_bench_json`
    /// and `bench_diff` consume.
    pub fn to_json(&self, mode: &str) -> String {
        let mut out = String::from("{\n  \"bench\": \"metrics_snapshot\",\n");
        let _ = writeln!(out, "  \"mode\": \"{mode}\",");
        out.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(out, "    {{\"subsystem\": \"{}\"", row.subsystem);
            for (name, value) in &row.fields {
                let _ = write!(out, ", \"{name}\": {value}");
            }
            let _ = writeln!(out, "}}{}", if i + 1 == self.rows.len() { "" } else { "," });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The value of `subsystem/field`, if exported.
    pub fn get(&self, subsystem: &str, field: &str) -> Option<i128> {
        self.rows
            .iter()
            .find(|r| r.subsystem == subsystem)
            .and_then(|r| r.fields.iter().find(|(n, _)| *n == field).map(|&(_, v)| v))
    }
}

/// Export every registered metric, one row per subsystem.
pub fn snapshot() -> MetricsSnapshot {
    let reg = entries().lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<SnapshotRow> = Vec::new();
    for e in reg.iter() {
        let row = match rows.iter_mut().find(|r| r.subsystem == e.subsystem) {
            Some(r) => r,
            None => {
                rows.push(SnapshotRow {
                    subsystem: e.subsystem,
                    fields: Vec::new(),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        match e.metric {
            Metric::Counter(c) => row.fields.push((e.name, i128::from(c.get()))),
            Metric::Gauge(g) => row.fields.push((e.name, i128::from(g.get()))),
        }
    }
    MetricsSnapshot { rows }
}

/// Reset every registered metric to zero (experiment harness between
/// measured configurations).
pub fn reset_all() {
    let reg = entries().lock().unwrap_or_else(|e| e.into_inner());
    for e in reg.iter() {
        match e.metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::enabled_for_test;

    #[test]
    fn registration_is_idempotent_and_typed() {
        let c1 = counter("test_reg", "events_total");
        let c2 = counter("test_reg", "events_total");
        assert!(std::ptr::eq(c1, c2), "same handle on refetch");
    }

    #[test]
    #[should_panic(expected = "unit suffix")]
    fn suffixless_names_are_rejected() {
        let _ = counter("test_reg", "events");
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn type_confusion_is_rejected() {
        let _ = gauge("test_reg_types", "items_entries");
        let _ = counter("test_reg_types", "items_entries");
    }

    #[test]
    fn snapshot_exports_the_bench_row_shape() {
        let _g = enabled_for_test(true);
        let c = counter("test_snap", "ticks_total");
        let g = gauge("test_snap", "live_entries");
        c.reset();
        g.reset();
        c.add(7);
        g.add(3);
        let snap = snapshot();
        assert_eq!(snap.get("test_snap", "ticks_total"), Some(7));
        assert_eq!(snap.get("test_snap", "live_entries"), Some(3));
        let json = snap.to_json("smoke");
        assert!(json.contains("\"bench\": \"metrics_snapshot\""));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"subsystem\": \"test_snap\""));
        assert!(json.contains("\"ticks_total\": 7"));
    }
}
