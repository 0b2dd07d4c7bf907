//! Self-test of the benchmark at tiny sizes: every workload, untraced
//! and traced, through the real command line. It checks that each run
//! passes its gates, prints its provenance and every metric of
//! `BENCHMARK.json` with its unit, and that the written spans nest: self
//! times are non-negative and add up to each workload span.

use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use perfbench::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest")
}

/// Run the benchmark; returns its standard output.
fn run(w: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", w.name(), "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--out")
        .arg(out_dir())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} (trace {trace}) failed: {stdout}\n{}",
        w.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The text `"name": {"value": <number>, "unit": "<unit>"}` for each
/// metric, and nothing else under `metrics`.
fn assert_metrics(line: &str, expected: &[Metric]) {
    for m in expected {
        let key = format!("\"{}\": {{\"value\": ", m.name);
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{} missing from {line}", m.name));
        let rest = &line[at + key.len()..];
        let (value, rest) = rest.split_once(',').expect("value then unit");
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{}: {value}", m.name));
        assert!(v.is_finite(), "{} = {v}", m.name);
        assert!(
            rest.starts_with(&format!(" \"unit\": \"{}\"}}", m.unit)),
            "{} has the wrong unit: {rest}",
            m.name
        );
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        expected.len(),
        "unexpected metrics in {line}"
    );
}

/// Parse a spans file and check that it nests.
fn assert_spans_nest(path: &Path) {
    let text = std::fs::read_to_string(path).expect("spans file written");
    let mut lines = text.lines();
    assert!(lines
        .next()
        .expect("provenance")
        .starts_with("# {\"commit\""));
    assert_eq!(
        lines.next(),
        Some("index\tparent\tname\tstart_ns\tend_ns\tself_ns")
    );
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split('\t').collect()).collect();
    assert!(!rows.is_empty(), "no spans recorded");
    let mut self_sum: i128 = 0;
    let mut workload_sum: i128 = 0;
    for r in &rows {
        let (start, end, own): (i128, i128, i128) = (
            r[3].parse().unwrap(),
            r[4].parse().unwrap(),
            r[5].parse().unwrap(),
        );
        assert!(own >= 0, "negative self time: {r:?}");
        let metric = format!("span.{}.self_s", r[2]);
        assert!(
            PER_LAYER.iter().any(|m| m.name == metric),
            "no {metric} metric reports this span"
        );
        assert!(end >= start, "span ends before it starts: {r:?}");
        self_sum += own;
        if r[1] == "-" {
            assert_eq!(r[2], "workload", "every root span is a workload span");
            workload_sum += end - start;
        }
    }
    assert_eq!(self_sum, workload_sum, "self times do not add up");
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_gates() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"better\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not emit"
    );
    for w in Workload::ALL {
        assert!(spec.contains(&format!("{{\"name\": \"{}\"", w.name())));
        for trace in [false, true] {
            let stdout = run(w, trace);
            let lines: Vec<&str> = stdout.lines().collect();
            assert!(lines[0].starts_with("{\"provenance\": {\"commit\": "));
            assert!(lines[0].contains("\"seed\": 7"));
            assert!(lines[0].contains(&format!("\"traced\": {trace}")));
            let last = lines.last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0, "), "{last}");
            assert_metrics(last, if trace { PER_LAYER } else { END_TO_END });
        }
        assert_spans_nest(&out_dir().join(format!("{}-seed7-trace1-spans.tsv", w.name())));
    }
}
