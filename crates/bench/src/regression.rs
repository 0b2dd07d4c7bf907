//! Throughput-regression diffing for the committed `BENCH_*.json`
//! artifacts — the first step toward the ROADMAP's benchmark job with
//! regression tracking.
//!
//! Every experiment binary writes a flat JSON file of the shape
//!
//! ```json
//! { "bench": "…", "mode": "…", "results": [ { flat row }, … ] }
//! ```
//!
//! (our own format, written by hand — no serde in the tree). This module
//! parses that shape, matches rows between a committed baseline and a
//! fresh run by their **identity fields** (everything except metrics and
//! volatile measurements), and reports every metric that regressed by
//! more than a caller-chosen factor:
//!
//! * **throughput** metrics (fields ending in `_per_sec`) regress by
//!   *dropping* below `baseline / factor`;
//! * **memory** metrics (fields ending in `_bytes`, e.g.
//!   `peak_rss_bytes`, or in `_entries`, e.g. the online checker's
//!   `peak_retained_entries`) regress by *growing* beyond
//!   `baseline × factor` — footprint counts are far less noisy than
//!   wall-clock, so a 2× growth is a real layout or leak problem, not
//!   jitter.
//!
//! **Exact** counts are compared for equality instead, whatever the
//! factor: the exploration counts (`interleavings`, `replays`,
//! `pruned_subtrees`, `steps_replayed`) are deterministic, so any
//! difference means the explorer visits other schedules, never noise;
//! so are the paper's own measures in `BENCH_paper.json` — primitive
//! step counts (fields ending in `_steps`) and distinct-base-object
//! counts (`_objects`) — where a difference means an algorithm's step
//! complexity changed.
//!
//! The `bench_diff` binary wraps this as a CI step that *warns* on
//! regressions (CI machines vary too much to gate on wall-clock
//! throughput) and fails on exact-count mismatches and on a
//! [coverage gap](Diff::coverage_gap): another bench, or baseline rows
//! the fresh run should have matched and did not.

use std::collections::{BTreeMap, BTreeSet};

/// A scalar cell of a result row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A JSON string.
    Str(String),
    /// A JSON number (all our numbers fit f64 exactly enough for
    /// ratio checks).
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Num(x) => format!("{x}"),
            Cell::Bool(b) => format!("{b}"),
        }
    }
}

/// One flat result row.
pub type Row = BTreeMap<String, Cell>;

/// A parsed `BENCH_*.json` file.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// The top-level `bench` tag.
    pub bench: String,
    /// The top-level `mode` tag, when present (`full` / `smoke`; see
    /// [`Diff::coverage_gap`]).
    pub mode: Option<String>,
    /// The result rows.
    pub results: Vec<Row>,
}

/// The direction a metric is good in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Higher is better (`_per_sec`): a regression *drops*.
    Throughput,
    /// Lower is better (`_bytes`): a regression *grows*.
    Memory,
}

/// Compared-metric classification; `None` for identity, volatile and
/// exact fields.
fn metric_kind(name: &str) -> Option<MetricKind> {
    if name.ends_with("_per_sec") {
        Some(MetricKind::Throughput)
    } else if name.ends_with("_bytes") || name.ends_with("_entries") {
        Some(MetricKind::Memory)
    } else {
        None
    }
}

fn is_volatile(name: &str) -> bool {
    const VOLATILE: &[&str] = &["millis", "steps", "ops", "writes", "reads", "violations"];
    // `exp_sketch`'s `read_steps_avg`, which varies on thread rows, and
    // obs event counts in a metrics snapshot.
    const VOLATILE_SUFFIXES: &[&str] = &["_avg", "_total"];
    VOLATILE.contains(&name) || VOLATILE_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Deterministic counts, compared for equality (see the module docs).
fn is_exact(name: &str) -> bool {
    const EXACT: &[&str] = &[
        "interleavings",
        "replays",
        "pruned_subtrees",
        "steps_replayed",
    ];
    const EXACT_SUFFIXES: &[&str] = &["_steps", "_objects"];
    EXACT.contains(&name) || EXACT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// The identity key of a row: every stable field, rendered.
pub fn identity(row: &Row) -> String {
    row.iter()
        .filter(|(k, _)| metric_kind(k).is_none() && !is_volatile(k) && !is_exact(k))
        .map(|(k, v)| format!("{k}={}", v.render()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One detected metric regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Identity of the affected row.
    pub row: String,
    /// The metric that regressed.
    pub metric: String,
    /// Which way "worse" points for this metric.
    pub kind: MetricKind,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
}

impl Regression {
    /// How many times worse the fresh run is: `baseline / fresh` for
    /// throughput (slowdown), `fresh / baseline` for memory (growth).
    /// Always > 1 for a reported regression.
    pub fn severity(&self) -> f64 {
        match self.kind {
            MetricKind::Throughput => self.baseline / self.fresh.max(f64::MIN_POSITIVE),
            MetricKind::Memory => self.fresh / self.baseline.max(f64::MIN_POSITIVE),
        }
    }

    /// `baseline / fresh` — how many times slower the fresh run is.
    /// Meaningful for throughput metrics only; see
    /// [`severity`](Regression::severity) for the direction-aware ratio.
    pub fn slowdown(&self) -> f64 {
        self.baseline / self.fresh.max(f64::MIN_POSITIVE)
    }
}

/// An exact count that differs between baseline and fresh run.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Identity of the affected row.
    pub row: String,
    /// The count that changed.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
}

/// The outcome of [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// Baseline rows some fresh row matched by identity. Zero means the
    /// diff compared nothing, whatever `regressions` says.
    pub matched: usize,
    /// Identities of the baseline rows no fresh row matched, in
    /// baseline order.
    pub unmatched: Vec<String>,
    /// Every compared metric that got worse beyond the factor.
    pub regressions: Vec<Regression>,
    /// Every exact count that differs, in either direction.
    pub mismatches: Vec<Mismatch>,
}

impl Diff {
    /// Why `fresh` cannot stand in for `baseline`, whatever its metrics
    /// say; `None` when it can. `bench_diff` fails on any of:
    ///
    /// * the files carry different `bench` tags, so their rows compare
    ///   nothing;
    /// * `fresh` is a `full`-mode run, which covers its bin's one grid,
    ///   yet some baseline rows have no fresh twin (each is named: a
    ///   renamed identity column or a dropped config);
    /// * `fresh` is any other run (`exp_paper`'s claim subsets write
    ///   `smoke`) and matched none of a non-empty baseline's rows, so
    ///   "no regressions" means nothing.
    pub fn coverage_gap(&self, baseline: &BenchFile, fresh: &BenchFile) -> Option<String> {
        if baseline.bench != fresh.bench {
            return Some(format!(
                "comparing different benches ({} vs {})",
                baseline.bench, fresh.bench
            ));
        }
        if fresh.mode.as_deref() == Some("full") {
            if !self.unmatched.is_empty() {
                return Some(format!(
                    "{} of {} baseline rows have no fresh twin in a full run:\n  {}",
                    self.unmatched.len(),
                    baseline.results.len(),
                    self.unmatched.join("\n  ")
                ));
            }
        } else if !baseline.results.is_empty() && self.matched == 0 {
            return Some(format!(
                "no fresh row matched any of the {} baseline rows: the diff compared nothing",
                baseline.results.len()
            ));
        }
        None
    }
}

/// Compare `fresh` against `baseline`: every compared metric present in
/// both versions of a row that got more than `factor` times worse —
/// throughput below `baseline / factor`, memory above
/// `baseline × factor` — is reported, and so is every exact count that
/// differs at all. Rows present on only one side are not compared;
/// [`Diff::matched`] and [`Diff::unmatched`] say which baseline rows
/// were, and [`Diff::coverage_gap`] whether that was enough.
pub fn diff(baseline: &BenchFile, fresh: &BenchFile, factor: f64) -> Diff {
    assert!(factor >= 1.0, "a regression factor below 1 is meaningless");
    let mut by_id: BTreeMap<String, &Row> = BTreeMap::new();
    for row in &baseline.results {
        by_id.insert(identity(row), row);
    }
    let mut matched = BTreeSet::new();
    let mut out = Vec::new();
    let mut mismatches = Vec::new();
    for row in &fresh.results {
        let id = identity(row);
        let Some(base) = by_id.get(&id) else {
            continue;
        };
        matched.insert(id.clone());
        for (name, cell) in row.iter() {
            let (Cell::Num(fresh_v), Some(Cell::Num(base_v))) = (cell, base.get(name)) else {
                continue;
            };
            if is_exact(name) {
                if fresh_v != base_v {
                    mismatches.push(Mismatch {
                        row: id.clone(),
                        metric: name.clone(),
                        baseline: *base_v,
                        fresh: *fresh_v,
                    });
                }
                continue;
            }
            let Some(kind) = metric_kind(name) else {
                continue;
            };
            let regressed = match kind {
                MetricKind::Throughput => *fresh_v * factor < *base_v,
                MetricKind::Memory => *fresh_v > *base_v * factor,
            };
            if *base_v > 0.0 && regressed {
                out.push(Regression {
                    row: id.clone(),
                    metric: name.clone(),
                    kind,
                    baseline: *base_v,
                    fresh: *fresh_v,
                });
            }
        }
    }
    let unmatched = baseline
        .results
        .iter()
        .map(identity)
        .filter(|id| !matched.contains(id))
        .collect();
    Diff {
        matched: matched.len(),
        unmatched,
        regressions: out,
        mismatches,
    }
}

/// Parse a `BENCH_*.json` file (the flat shape our binaries write).
pub fn parse_bench_json(text: &str) -> Result<BenchFile, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut bench = None;
    let mut mode = None;
    let mut results = Vec::new();
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "results" => {
                p.expect(b'[')?;
                loop {
                    p.skip_ws();
                    if p.eat(b']') {
                        break;
                    }
                    results.push(p.flat_object()?);
                    p.skip_ws();
                    p.eat(b',');
                }
            }
            _ => {
                let cell = p.cell()?;
                match (key.as_str(), cell) {
                    ("bench", Cell::Str(s)) => bench = Some(s),
                    ("mode", Cell::Str(s)) => mode = Some(s),
                    _ => {} // other top-level scalars: ignored
                }
            }
        }
        p.skip_ws();
        p.eat(b',');
    }
    Ok(BenchFile {
        bench: bench.ok_or("missing top-level \"bench\" tag")?,
        mode,
        results,
    })
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|e| e.to_string())?
                    .to_string();
                self.at += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err("escapes are not used in bench JSON".into());
            }
            self.at += 1;
        }
        Err("unterminated string".into())
    }

    fn cell(&mut self) -> Result<Cell, String> {
        match self.peek() {
            Some(b'"') => Ok(Cell::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                let word = if self.peek() == Some(b't') {
                    "true"
                } else {
                    "false"
                };
                if self.bytes[self.at..].starts_with(word.as_bytes()) {
                    self.at += word.len();
                    Ok(Cell::Bool(word == "true"))
                } else {
                    Err(format!("malformed literal at byte {}", self.at))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.at;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Cell::Num)
                    .ok_or_else(|| format!("malformed number at byte {start}"))
            }
            other => Err(format!(
                "unexpected value start {other:?} at byte {}",
                self.at
            )),
        }
    }

    fn flat_object(&mut self) -> Result<Row, String> {
        self.expect(b'{')?;
        let mut row = Row::new();
        loop {
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(row);
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let cell = self.cell()?;
            row.insert(key, cell);
            self.skip_ws();
            self.eat(b',');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
  "bench": "sketch_workloads",
  "mode": "full",
  "results": [
    {"object": "topk", "backend": "coop", "n": 8, "shards": 4, "adds_per_sec": 1000000, "millis": 12.5, "violations": 0, "peak_rss_bytes": 100000000},
    {"object": "topk", "backend": "thread", "n": 4, "shards": 1, "adds_per_sec": 500000, "millis": 9.0, "violations": 0, "peak_rss_bytes": 50000000}
  ]
}"#;

    #[test]
    fn parses_our_shape() {
        let f = parse_bench_json(OLD).expect("parses");
        assert_eq!(f.bench, "sketch_workloads");
        assert_eq!(f.mode.as_deref(), Some("full"));
        assert_eq!(f.results.len(), 2);
        assert_eq!(f.results[0].get("backend"), Some(&Cell::Str("coop".into())));
        assert_eq!(f.results[0].get("n"), Some(&Cell::Num(8.0)));
    }

    #[test]
    fn identity_ignores_metrics_and_volatiles() {
        let f = parse_bench_json(OLD).unwrap();
        let id = identity(&f.results[0]);
        assert!(id.contains("backend=coop") && id.contains("n=8"));
        assert!(!id.contains("adds_per_sec") && !id.contains("millis"));
        assert!(!id.contains("violations"));
        assert!(
            !id.contains("peak_rss_bytes"),
            "memory metrics compared, not matched"
        );
    }

    #[test]
    fn detects_a_regression_beyond_the_factor() {
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD
            .replace("\"adds_per_sec\": 1000000", "\"adds_per_sec\": 400000")
            .replace("\"adds_per_sec\": 500000", "\"adds_per_sec\": 300000");
        let new = parse_bench_json(&new_text).unwrap();
        let regs = diff(&old, &new, 2.0).regressions;
        // 1M → 400k is a 2.5× drop (reported); 500k → 300k is 1.67×
        // (within tolerance).
        assert_eq!(regs.len(), 1);
        assert!(regs[0].row.contains("backend=coop"));
        assert_eq!(regs[0].metric, "adds_per_sec");
        assert_eq!(regs[0].kind, MetricKind::Throughput);
        assert!((regs[0].slowdown() - 2.5).abs() < 1e-9);
        assert!((regs[0].severity() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn detects_a_memory_regression_in_the_growth_direction() {
        let old = parse_bench_json(OLD).unwrap();
        // Coop row: RSS grows 2.5× (reported). Thread row: RSS *shrinks*
        // 10× — an improvement, never a regression.
        let new_text = OLD
            .replace(
                "\"peak_rss_bytes\": 100000000",
                "\"peak_rss_bytes\": 250000000",
            )
            .replace(
                "\"peak_rss_bytes\": 50000000",
                "\"peak_rss_bytes\": 5000000",
            );
        let fresh = parse_bench_json(&new_text).unwrap();
        let regs = diff(&old, &fresh, 2.0).regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "peak_rss_bytes");
        assert_eq!(regs[0].kind, MetricKind::Memory);
        assert!(regs[0].row.contains("backend=coop"));
        assert!((regs[0].severity() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn memory_growth_within_the_factor_passes() {
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD.replace(
            "\"peak_rss_bytes\": 100000000",
            "\"peak_rss_bytes\": 180000000",
        );
        let fresh = parse_bench_json(&new_text).unwrap();
        assert!(
            diff(&old, &fresh, 2.0).regressions.is_empty(),
            "1.8x growth is within 2x"
        );
    }

    #[test]
    fn unmatched_rows_are_ignored() {
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD.replace("\"n\": 8", "\"n\": 16");
        let d = diff(
            &old,
            &parse_bench_json(&new_text.replace("1000000", "1")).unwrap(),
            2.0,
        );
        assert!(d.regressions.is_empty(), "different n: different identity");
        assert_eq!(d.matched, 1, "only the thread row still matches");
        assert_eq!(d.unmatched.len(), 1);
        assert!(d.unmatched[0].contains("backend=coop") && d.unmatched[0].contains("n=8"));
    }

    #[test]
    fn diff_counts_matched_baseline_rows() {
        let old = parse_bench_json(OLD).unwrap();
        assert_eq!(diff(&old, &old, 2.0).matched, 2);
        // A fresh row matching the same baseline row twice counts it
        // once; a fresh file matching nothing reports zero.
        let mut twice = old.clone();
        twice.results.push(old.results[0].clone());
        assert_eq!(diff(&old, &twice, 2.0).matched, 2);
        let renamed = parse_bench_json(&OLD.replace("\"backend\"", "\"executor\"")).unwrap();
        let d = diff(&old, &renamed, 2.0);
        assert_eq!(d.matched, 0);
        assert!(d.regressions.is_empty(), "a vacuous diff reports nothing");
    }

    /// `text` with its top-level mode tag set to `mode`.
    fn moded(text: &str, mode: &str) -> BenchFile {
        let mut f = parse_bench_json(text).unwrap();
        f.mode = Some(mode.to_string());
        f
    }

    #[test]
    fn a_diff_that_matched_no_baseline_row_compared_nothing() {
        // A run that is not `full` (a claim subset) must match at least
        // one baseline row.
        let old = parse_bench_json(OLD).unwrap();
        let gap = |fresh: &BenchFile| diff(&old, fresh, 2.0).coverage_gap(&old, fresh);
        assert_eq!(gap(&moded(OLD, "smoke")), None);
        // One matched row is enough to compare something.
        let one = moded(&OLD.replace("\"n\": 8", "\"n\": 16"), "smoke");
        assert_eq!(gap(&one), None);
        let renamed = moded(&OLD.replace("\"backend\"", "\"executor\""), "smoke");
        let why = gap(&renamed).expect("a diff that matched nothing fails");
        assert!(why.contains("compared nothing"), "got: {why}");
        // So must a file without a mode tag.
        let mut untagged = renamed.clone();
        untagged.mode = None;
        assert!(gap(&untagged).is_some());
        // An empty baseline has nothing to compare, so nothing is missed.
        let mut empty = old.clone();
        empty.results.clear();
        assert_eq!(diff(&empty, &one, 2.0).coverage_gap(&empty, &one), None);
    }

    #[test]
    fn a_full_run_must_match_every_baseline_row() {
        let old = parse_bench_json(OLD).unwrap();
        assert_eq!(old.mode.as_deref(), Some("full"));
        assert_eq!(diff(&old, &old, 2.0).coverage_gap(&old, &old), None);
        // Extra fresh rows are fine; a missing baseline row is not, and
        // the failure names it.
        let mut more = old.clone();
        more.results.push(
            parse_bench_json(&OLD.replace("\"n\": 8", "\"n\": 32"))
                .unwrap()
                .results[0]
                .clone(),
        );
        assert_eq!(diff(&old, &more, 2.0).coverage_gap(&old, &more), None);
        let one = parse_bench_json(&OLD.replace("\"n\": 8", "\"n\": 16")).unwrap();
        let why = diff(&old, &one, 2.0)
            .coverage_gap(&old, &one)
            .expect("a full run that misses a row fails");
        assert!(why.starts_with("1 of 2 baseline rows"), "got: {why}");
        assert!(
            why.contains("backend=coop") && why.contains("n=8"),
            "got: {why}"
        );
        assert!(
            !why.contains("backend=thread"),
            "the matched row is not named"
        );
        // The same fresh rows as a smoke run pass: one row matched.
        let smoke = moded(&OLD.replace("\"n\": 8", "\"n\": 16"), "smoke");
        assert_eq!(diff(&old, &smoke, 2.0).coverage_gap(&old, &smoke), None);
    }

    #[test]
    fn comparing_different_benches_fails() {
        let old = parse_bench_json(OLD).unwrap();
        // Same rows, another bench: matching rows prove nothing.
        let other = parse_bench_json(&OLD.replace("sketch_workloads", "backend_scaling")).unwrap();
        let d = diff(&old, &other, 2.0);
        assert_eq!(d.matched, 2);
        let why = d
            .coverage_gap(&old, &other)
            .expect("different benches fail");
        assert_eq!(
            why,
            "comparing different benches (sketch_workloads vs backend_scaling)"
        );
    }

    #[test]
    fn mode_mismatch_still_matches_rows() {
        // Smoke runs produce a subset of rows with the same identities;
        // the top-level mode tag does not enter row identity.
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD.replace("\"mode\": \"full\"", "\"mode\": \"smoke\"");
        let fresh = parse_bench_json(&new_text).unwrap();
        let d = diff(&old, &fresh, 2.0);
        assert!(d.regressions.is_empty());
        assert_eq!(d.matched, 2);
    }

    #[test]
    fn explore_rows_key_on_algo() {
        // exp_explore emits one row per (config, algo) pair; the algo
        // tag must be part of row identity so a dpor row is never
        // diffed against a dfs baseline.
        let text = r#"{
  "bench": "schedule_exploration",
  "results": [
    {"config": "collect-3x2", "algo": "dfs-prune", "prune": true, "max_crashes": 0, "interleavings": 131, "millis": 1.9, "interleavings_per_sec": 69216, "violations": 0},
    {"config": "collect-3x2", "algo": "dpor", "prune": true, "max_crashes": 0, "interleavings": 132, "millis": 1.0, "interleavings_per_sec": 128883, "violations": 0}
  ]
}"#;
        let f = parse_bench_json(text).unwrap();
        let ids: Vec<String> = f.results.iter().map(identity).collect();
        assert!(ids[0].contains("algo=dfs-prune") && ids[1].contains("algo=dpor"));
        assert_ne!(ids[0], ids[1], "algo distinguishes otherwise-equal rows");
    }

    const EXPLORE: &str = r#"{
  "bench": "schedule_exploration",
  "results": [
    {"config": "collect-3x2-dpor", "algo": "dpor", "prune": true, "max_crashes": 0, "interleavings": 132, "pruned_subtrees": 260, "steps_replayed": 1758, "millis": 1.4, "interleavings_per_sec": 92589, "violations": 0},
    {"config": "kmult-3x2-exhaustive", "algo": "dfs", "prune": false, "max_crashes": 0, "interleavings": 6, "pruned_subtrees": 0, "steps_replayed": 18, "millis": 0.1, "interleavings_per_sec": 83696, "violations": 0}
  ]
}"#;

    #[test]
    fn equal_exploration_counts_pass_whatever_the_timing() {
        let base = parse_bench_json(EXPLORE).unwrap();
        let slower = EXPLORE
            .replace("\"millis\": 1.4", "\"millis\": 1.9")
            .replace(
                "\"interleavings_per_sec\": 92589",
                "\"interleavings_per_sec\": 69000",
            );
        let d = diff(&base, &parse_bench_json(&slower).unwrap(), 2.0);
        assert_eq!(d.matched, 2);
        assert!(d.mismatches.is_empty());
        assert!(d.regressions.is_empty(), "1.34x slower is within 2x");
    }

    #[test]
    fn unequal_exploration_counts_are_mismatches_in_either_direction() {
        let base = parse_bench_json(EXPLORE).unwrap();
        let changed = EXPLORE
            .replace("\"interleavings\": 132", "\"interleavings\": 133")
            .replace("\"steps_replayed\": 18", "\"steps_replayed\": 17");
        let d = diff(&base, &parse_bench_json(&changed).unwrap(), 1e9);
        assert_eq!(d.matched, 2, "counts are compared, not part of identity");
        assert!(d.regressions.is_empty());
        let found: Vec<(&str, f64, f64)> = d
            .mismatches
            .iter()
            .map(|m| (m.metric.as_str(), m.baseline, m.fresh))
            .collect();
        assert_eq!(
            found,
            [
                ("interleavings", 132.0, 133.0),
                ("steps_replayed", 18.0, 17.0)
            ]
        );
        assert!(d.mismatches[0].row.contains("config=collect-3x2-dpor"));
        assert!(d.mismatches[1].row.contains("config=kmult-3x2-exhaustive"));
    }

    #[test]
    fn replays_are_an_exact_count_compared_only_where_both_rows_have_it() {
        let with_replays = EXPLORE.replace(
            "\"interleavings\": 132,",
            "\"interleavings\": 132, \"replays\": 150,",
        );
        let base = parse_bench_json(&with_replays).unwrap();
        // A baseline written before the column existed still matches,
        // and compares the counts both sides have.
        let d = diff(&parse_bench_json(EXPLORE).unwrap(), &base, 1e9);
        assert_eq!(d.matched, 2, "replays is not part of identity");
        assert!(d.mismatches.is_empty());
        for fresh in [149.0, 151.0] {
            let changed =
                with_replays.replace("\"replays\": 150", &format!("\"replays\": {fresh}"));
            let d = diff(&base, &parse_bench_json(&changed).unwrap(), 1e9);
            assert_eq!(d.matched, 2);
            assert!(d.regressions.is_empty());
            let found: Vec<(&str, f64, f64)> = d
                .mismatches
                .iter()
                .map(|m| (m.metric.as_str(), m.baseline, m.fresh))
                .collect();
            assert_eq!(found, [("replays", 150.0, fresh)]);
        }
    }

    #[test]
    fn step_and_object_counts_are_exact_by_suffix() {
        let text = r#"{
  "bench": "paper_claims",
  "results": [
    {"claim": "t42", "object": "kmult", "n": 64, "k": 2, "m_bits": 40, "worst_steps": 12},
    {"claim": "t52", "object": "kmult", "k": 2, "m_bits": 16, "reader_objects": 5}
  ]
}"#;
        let base = parse_bench_json(text).unwrap();
        let id = identity(&base.results[0]);
        assert!(id.contains("claim=t42") && id.contains("m_bits=40"));
        assert!(
            !id.contains("worst_steps"),
            "counts are compared, not matched"
        );
        let changed = text
            .replace("\"worst_steps\": 12", "\"worst_steps\": 13")
            .replace("\"reader_objects\": 5", "\"reader_objects\": 4");
        let d = diff(&base, &parse_bench_json(&changed).unwrap(), 1e9);
        assert_eq!(d.matched, 2);
        assert!(d.regressions.is_empty());
        let found: Vec<(&str, f64, f64)> = d
            .mismatches
            .iter()
            .map(|m| (m.metric.as_str(), m.baseline, m.fresh))
            .collect();
        assert_eq!(
            found,
            [("worst_steps", 12.0, 13.0), ("reader_objects", 5.0, 4.0)]
        );
        // Only the suffix is exact: the volatile `steps` stays volatile,
        // and a name that merely contains the word is identity.
        assert!(is_exact("workload_steps") && is_exact("reader_objects"));
        assert!(!is_exact("steps") && is_volatile("steps"));
        assert!(!is_exact("steps_per_sec") && !is_exact("objects_seen"));
    }

    #[test]
    fn coop_sketch_rows_compare_their_read_steps_exactly() {
        // `exp_sketch` writes a coop row's total read steps as
        // `read_steps`, an exact count; a thread row has only the
        // volatile average, so nothing about its read steps is compared.
        let text = r#"{
  "bench": "sketch_workloads",
  "mode": "full",
  "results": [
    {"object": "topk", "backend": "coop", "n": 4, "shards": 1, "keys": 64, "millis": 2.8, "writes_per_sec": 4215929, "read_steps_avg": 52.5, "read_steps": 315, "violations": 0},
    {"object": "topk", "backend": "thread", "n": 4, "shards": 1, "keys": 64, "millis": 4.3, "writes_per_sec": 2808170, "read_steps_avg": 101.8, "violations": 0}
  ]
}"#;
        let base = parse_bench_json(text).unwrap();
        assert!(is_exact("read_steps") && is_volatile("read_steps_avg"));
        assert!(!identity(&base.results[0]).contains("read_steps"));
        let changed = text
            .replace("\"read_steps\": 315", "\"read_steps\": 316")
            .replace("\"read_steps_avg\": 52.5", "\"read_steps_avg\": 52.7")
            .replace("\"read_steps_avg\": 101.8", "\"read_steps_avg\": 97.0");
        let d = diff(&base, &parse_bench_json(&changed).unwrap(), 2.0);
        assert_eq!(d.matched, 2, "the counts are not row identity");
        assert_eq!(d.mismatches.len(), 1, "{:?}", d.mismatches);
        let m = &d.mismatches[0];
        assert!(m.row.contains("backend=coop"), "{m:?}");
        assert_eq!(
            (m.metric.as_str(), m.baseline, m.fresh),
            ("read_steps", 315.0, 316.0)
        );
    }

    #[test]
    fn checker_rows_key_on_mode() {
        // exp_checker rows key on object, engine and record count; the
        // per-row `mode` tag (offline / online) that rows carried while
        // two engines existed is gone, so such a legacy row matches no
        // fresh row, and the diff's matched count shows it. The
        // retained-state metric is compared, not matched.
        let text = r#"{
  "bench": "checker_throughput",
  "results": [
    {"object": "counter", "engine": "monotone", "records": 10000, "millis": 4.0, "records_per_sec": 2500000, "peak_retained_entries": 120},
    {"object": "counter", "engine": "naive", "records": 10000, "millis": 200.0, "records_per_sec": 50000},
    {"object": "maxreg", "engine": "monotone", "records": 131072, "millis": 60.0, "records_per_sec": 2000000}
  ]
}"#;
        let f = parse_bench_json(text).unwrap();
        let ids: Vec<String> = f.results.iter().map(identity).collect();
        assert!(ids[0].contains("engine=monotone") && ids[0].contains("object=counter"));
        assert_ne!(ids[0], ids[1], "engine distinguishes the rows");
        assert_ne!(ids[0], ids[2], "object distinguishes the rows");
        assert!(
            !ids[0].contains("peak_retained_entries"),
            "retained-state metrics compared, not matched"
        );
        let legacy = parse_bench_json(&text.replacen(
            "\"engine\": \"monotone\",",
            "\"engine\": \"monotone\", \"mode\": \"online\",",
            1,
        ))
        .unwrap();
        assert_eq!(
            diff(&legacy, &f, 2.0).matched,
            2,
            "the moded row matches nothing"
        );
        // Retained state growing beyond the factor is a reported memory
        // regression, in the growth direction only.
        let grown = text.replace(
            "\"peak_retained_entries\": 120",
            "\"peak_retained_entries\": 500",
        );
        let d = diff(&f, &parse_bench_json(&grown).unwrap(), 2.0);
        assert_eq!(d.matched, 3);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].metric, "peak_retained_entries");
        assert_eq!(d.regressions[0].kind, MetricKind::Memory);
    }

    #[test]
    fn real_bench_artifacts_parse() {
        // The committed artifacts in the repo root must stay parseable —
        // this is what CI diffs against.
        for name in [
            "BENCH_checker.json",
            "BENCH_scale.json",
            "BENCH_explore.json",
            "BENCH_sketch.json",
            "BENCH_paper.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                let f = parse_bench_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!f.results.is_empty(), "{name} has rows");
            }
        }
    }
}
