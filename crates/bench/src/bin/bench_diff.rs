//! BENCH-DIFF — warn when a fresh `BENCH_*.json` regresses a committed
//! baseline by more than a factor (default 2×): throughput (`_per_sec`)
//! dropping, or memory (`_bytes`, e.g. `peak_rss_bytes`) growing.
//!
//! Usage: `bench_diff BASELINE.json FRESH.json [--factor 2.0] [--strict]`
//!
//! Rows are matched by their stable identity fields; every compared
//! metric present on both sides is checked (see `bench::regression`).
//! The summary line says how many baseline rows a fresh row matched: a
//! diff that matched none of a non-empty baseline's rows compared
//! nothing and exits 1, with or without `--strict`.
//! Exact counts (the explorer's `interleavings`, `replays`,
//! `pruned_subtrees` and `steps_replayed`, and the paper's `_steps` and
//! `_objects` counts) are deterministic: any difference on a matched row
//! is printed as a mismatch and exits 1, with or without `--strict`.
//! Otherwise the exit code is 0 by default — CI machines vary too much
//! to gate on wall-clock throughput — but regressions are printed
//! loudly so a slowdown is visible in the log the moment it lands.
//! `--strict` turns regressions beyond the factor into exit 1, for
//! local gating runs (pre-release sweeps on a quiet box); CI stays
//! warn-only.
//!
//! CI: after an experiment rewrites its JSON in place, diff against the
//! previously-committed copy:
//!
//! ```bash
//! cp BENCH_sketch.json /tmp/baseline.json
//! cargo run --release -p bench --bin exp_sketch -- --smoke
//! cargo run --release -p bench --bin bench_diff -- /tmp/baseline.json BENCH_sketch.json
//! ```

use bench::regression::{diff, parse_bench_json};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: bench_diff BASELINE.json FRESH.json [--factor F] [--strict]");
        std::process::exit(2);
    }
    let strict = args.iter().any(|a| a == "--strict");
    let factor = match args.iter().position(|a| a == "--factor") {
        None => 2.0,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
            Some(f) if f >= 1.0 => f,
            _ => {
                eprintln!(
                    "bench_diff: --factor needs a number ≥ 1 (got {:?})",
                    args.get(i + 1)
                );
                std::process::exit(2);
            }
        },
    };

    let read = |path: &str| -> bench::regression::BenchFile {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot read {path}: {e}");
            std::process::exit(2);
        });
        parse_bench_json(&text).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(&args[1]);
    let fresh = read(&args[2]);
    if baseline.bench != fresh.bench {
        eprintln!(
            "bench_diff: comparing different benches ({} vs {}) — nothing to do",
            baseline.bench, fresh.bench
        );
        return;
    }

    let d = diff(&baseline, &fresh, factor);
    println!(
        "bench_diff: {} ({} of {} baseline rows matched by {} fresh rows, factor {factor}x)",
        fresh.bench,
        d.matched,
        baseline.results.len(),
        fresh.results.len()
    );
    for r in &d.regressions {
        let verb = match r.kind {
            bench::regression::MetricKind::Throughput => "slowed down",
            bench::regression::MetricKind::Memory => "grew",
        };
        println!(
            "WARNING: {}: {} {verb} {:.1}x ({:.0} -> {:.0})",
            r.row,
            r.metric,
            r.severity(),
            r.baseline,
            r.fresh
        );
    }
    for m in &d.mismatches {
        println!(
            "MISMATCH: {}: {} is exact: {} -> {}",
            m.row, m.metric, m.baseline, m.fresh
        );
    }
    let regressions = d.regressions.len();
    if regressions == 0 {
        println!("bench_diff: no regressions beyond {factor}x");
    } else if strict {
        println!("bench_diff: {regressions} regression(s) beyond {factor}x — failing (--strict)");
    } else {
        println!(
            "bench_diff: {regressions} regression(s) beyond {factor}x — investigate before \
             trusting the committed numbers (exit 0: wall-clock noise is not a CI failure)"
        );
    }
    if !d.mismatches.is_empty() {
        println!(
            "bench_diff: {} exact count(s) changed — failing (the explorer visits other \
             schedules, or an object's step complexity changed; regenerate the baseline \
             only if that is intended)",
            d.mismatches.len()
        );
    }
    let vacuous = d.compared_nothing(&baseline);
    if vacuous {
        println!(
            "bench_diff: no fresh row matched any of the {} baseline rows — failing (the \
             diff compared nothing; regenerate the baseline on the grid the run covers)",
            baseline.results.len()
        );
    }
    if vacuous || !d.mismatches.is_empty() || (strict && regressions > 0) {
        std::process::exit(1);
    }
}
