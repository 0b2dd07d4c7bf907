//! Shared plumbing for the experiment binaries.
//!
//! `exp_paper` regenerates and asserts the paper's claims, one table per
//! claim; the other binaries in `src/bin/` measure the infrastructure
//! (see `EXPERIMENTS.md` for the index). Every `exp_*` bin but
//! `exp_paper` takes no arguments and runs one grid, the grid its
//! committed `BENCH_*.json` was written from, so a fresh run diffs
//! against every committed row.
//! This library provides the ASCII table printer, the flat-JSON emitter
//! and regression differ for the committed `BENCH_*.json` files, and
//! small helpers.

pub mod emit;
pub mod regression;
pub mod tables;

use std::process::{Command, Stdio};

/// The grid row this process is to run, if it was started by
/// [`run_child`] (`--child <index>`, with `index < rows`).
pub fn child_index(rows: usize) -> Option<usize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match &args[..] {
        [flag, index] if flag == "--child" => index.parse().ok().filter(|&i| i < rows),
        _ => None,
    }
}

/// Run grid row `index` of bin `bin` in a fresh child process of this
/// executable (`--child <index>`), so the row prices only its own heap,
/// and return the `N` numbers of the `RESULT` line it prints. The
/// child's stderr goes straight to ours.
///
/// # Panics
/// If the child cannot start, fails (an assert inside it, or a crash)
/// or prints no `RESULT` line of `N` numbers; `row` names it.
pub fn run_child<const N: usize>(bin: &str, index: usize, row: &str) -> [f64; N] {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| panic!("{bin}: cannot find its own executable: {e}"));
    let out = Command::new(exe)
        .args(["--child", &index.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("{bin}: cannot start the child for {row}: {e}"));
    assert!(
        out.status.success(),
        "{bin}: the child for {row} failed ({})",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<f64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("RESULT "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    fields
        .try_into()
        .unwrap_or_else(|_| panic!("{bin}: the child for {row} printed no result"))
}

/// A row whose one timed run is shorter than this repeats the run until
/// its runs add up to it, and reports the median run: the throughput of
/// one sub-millisecond run is noise.
pub const MIN_ROW_MILLIS: f64 = 10.0;

/// Repeat `run` until its timed milliseconds add up to
/// [`MIN_ROW_MILLIS`]. Each run returns its result and the milliseconds
/// of its own timed section, so a run can leave its setup and teardown
/// untimed. Returns the first run's result, the median run's
/// milliseconds (the upper middle of an even count) and the number of
/// runs.
///
/// # Panics
/// If a repeat returns other than the first run did: a row's verdict
/// and exact counts must not depend on which run produced them. `what`
/// names the row in the message.
pub fn median_run<T: PartialEq + std::fmt::Debug>(
    what: &str,
    mut run: impl FnMut() -> (T, f64),
) -> (T, f64, usize) {
    let mut millis: Vec<f64> = Vec::new();
    let mut total = 0.0;
    let mut first: Option<T> = None;
    while first.is_none() || total < MIN_ROW_MILLIS {
        let (out, ms) = run();
        millis.push(ms);
        total += ms;
        match &first {
            None => first = Some(out),
            Some(first) => assert_eq!(
                &out,
                first,
                "{what}: run {} disagrees with the first run",
                millis.len()
            ),
        }
    }
    millis.sort_by(f64::total_cmp);
    let first = first.expect("the loop runs at least once");
    (first, millis[millis.len() / 2], millis.len())
}

/// Exit 2 with a usage line if the process got any argument: each
/// experiment bin that takes none runs its one grid.
pub fn no_arguments(bin: &str) {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("{bin}: unexpected argument {arg:?}\nusage: {bin}  (no arguments)");
        std::process::exit(2);
    }
}

/// `(s₁ + … + sₙ)! / (s₁! · … · sₙ!)` — the number of interleavings of
/// `n` sequences with fixed lengths. The closed form `exp_explore` and
/// the explorer acceptance tests assert exhaustive enumeration against.
pub fn multinomial(counts: &[u64]) -> u128 {
    let mut result: u128 = 1;
    let mut placed: u128 = 0;
    for &c in counts {
        for i in 1..=u128::from(c) {
            placed += 1;
            result = result * placed / i; // binomial prefix: always divides
        }
    }
    result
}

/// `⌈√n⌉` — the accuracy threshold of Theorem III.9.
pub fn ceil_sqrt(n: u64) -> u64 {
    let mut k = (n as f64).sqrt() as u64;
    while k * k < n {
        k += 1;
    }
    while k > 1 && (k - 1) * (k - 1) >= n {
        k -= 1;
    }
    k
}

/// `log₂ x` as a float, 0 for x ≤ 1 (plot-friendly).
pub fn log2f(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_sqrt_values() {
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(9), 3);
        assert_eq!(ceil_sqrt(10), 4);
        assert_eq!(ceil_sqrt(64), 8);
        assert_eq!(ceil_sqrt(65), 9);
    }

    #[test]
    fn median_run_repeats_a_short_run_and_keeps_its_result() {
        // Runs of 3, 1, 4, 1.5 and 3 ms reach 10 ms at the fifth; their
        // median is 3 ms.
        let mut timings = [3.0, 1.0, 4.0, 1.5].into_iter().cycle();
        let (out, millis, runs) = median_run("short", || (7, timings.next().unwrap()));
        assert_eq!((out, millis, runs), (7, 3.0, 5));
        // A run of 10 ms or more runs once.
        assert_eq!(median_run("long", || (7, MIN_ROW_MILLIS)), (7, 10.0, 1));
    }

    #[test]
    #[should_panic(expected = "flaky: run 2 disagrees with the first run")]
    fn median_run_rejects_a_repeat_that_disagrees() {
        let mut calls = 0;
        median_run("flaky", || {
            calls += 1;
            (calls, 1.0)
        });
    }

    #[test]
    fn multinomial_values() {
        assert_eq!(multinomial(&[]), 1);
        assert_eq!(multinomial(&[0, 3]), 1);
        assert_eq!(multinomial(&[1, 1, 1]), 6);
        assert_eq!(multinomial(&[2, 2]), 6);
        assert_eq!(multinomial(&[4, 4, 4]), 34650);
        assert_eq!(multinomial(&[2, 2, 3]), 210);
    }
}
