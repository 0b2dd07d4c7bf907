//! Shared flat-JSON emission for the `BENCH_*.json` artifacts.
//!
//! Every experiment binary writes the same shape — a `bench` identity,
//! a `mode` (`"smoke"` or `"full"`), and a `results` array of flat
//! rows — because that is what [`crate::regression`]'s parser diffs.
//! The envelope and the row serialization used to be hand-rolled in
//! each binary; this module is the single transcription.
//!
//! Formatting conventions are frozen so regenerating an artifact with
//! unchanged measurements produces byte-identical output (clean `git
//! diff` on committed baselines): strings quoted, bools and integers
//! bare, [`Row::float3`] for millisecond timings (`{:.3}`),
//! [`Row::float0`] for rates (`{:.0}`).

use std::fmt::Write as _;

/// One flat result row, built left to right. Key order is emission
/// order; [`crate::regression`] treats string-valued fields as row
/// identity and numeric fields as metrics.
#[derive(Default, Clone)]
pub struct Row {
    body: String,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{key}\": ");
    }

    /// A string field (row identity for the regression differ).
    pub fn str(mut self, key: &str, v: &str) -> Row {
        self.key(key);
        let _ = write!(self.body, "\"{v}\"");
        self
    }

    /// A boolean field (also row identity).
    pub fn bool(mut self, key: &str, v: bool) -> Row {
        self.key(key);
        let _ = write!(self.body, "{v}");
        self
    }

    /// An integer metric.
    pub fn int(mut self, key: &str, v: impl Into<i128>) -> Row {
        self.key(key);
        let _ = write!(self.body, "{}", v.into());
        self
    }

    /// A millisecond-style metric, `{:.3}`.
    pub fn float3(mut self, key: &str, v: f64) -> Row {
        self.key(key);
        let _ = write!(self.body, "{v:.3}");
        self
    }

    /// A rate-style metric, `{:.0}`.
    pub fn float0(mut self, key: &str, v: f64) -> Row {
        self.key(key);
        let _ = write!(self.body, "{v:.0}");
        self
    }

    /// A per-op-average metric, `{:.1}`.
    pub fn float1(mut self, key: &str, v: f64) -> Row {
        self.key(key);
        let _ = write!(self.body, "{v:.1}");
        self
    }

    /// The row as a JSON object literal.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A full benchmark artifact: identity, mode, rows.
pub struct Report {
    bench: String,
    mode: String,
    rows: Vec<Row>,
}

impl Report {
    /// A report named `bench` in `mode` (conventionally `"smoke"` or
    /// `"full"`; see [`mode_str`]).
    pub fn new(bench: &str, mode: &str) -> Report {
        Report {
            bench: bench.to_string(),
            mode: mode.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append one result row.
    pub fn row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The artifact as pretty-ish JSON — envelope on its own lines, one
    /// row per line, exactly the shape `parse_bench_json` consumes.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(json, "  \"mode\": \"{}\",", self.mode);
        json.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(json, "    {}{}", row.to_json(), sep);
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Write the artifact to `path`, reporting the outcome on stdout
    /// the way every experiment binary does.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => println!("\ncould not write {path}: {e}"),
        }
    }
}

/// The mode string of a run: `smoke` when it covers only part of its
/// bin's grid (`exp_paper`'s claim subsets), `full` otherwise.
/// `bench::regression` holds a `full` run to every baseline row.
pub fn mode_str(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::parse_bench_json;

    #[test]
    fn rows_freeze_the_historical_formatting() {
        let row = Row::new()
            .str("workload", "reg")
            .bool("prune", true)
            .int("n", 100_000u64)
            .float3("millis", 12.3456)
            .float0("steps_per_sec", 98765.4);
        assert_eq!(
            row.to_json(),
            "{\"workload\": \"reg\", \"prune\": true, \"n\": 100000, \
             \"millis\": 12.346, \"steps_per_sec\": 98765}"
        );
    }

    #[test]
    fn reports_parse_back_through_the_regression_parser() {
        let mut report = Report::new("emit_selftest", mode_str(true));
        report.row(Row::new().str("config", "a").int("ops", 7u64));
        report.row(Row::new().str("config", "b").int("ops", 9u64));
        let parsed = parse_bench_json(&report.to_json()).expect("emit output parses");
        assert_eq!(parsed.bench, "emit_selftest");
        assert_eq!(parsed.mode.as_deref(), Some("smoke"));
        assert_eq!(parsed.results.len(), 2);
    }

    #[test]
    fn empty_reports_are_still_valid_artifacts() {
        let report = Report::new("empty", "full");
        let parsed = parse_bench_json(&report.to_json()).expect("empty results array parses");
        assert!(parsed.results.is_empty());
    }
}
