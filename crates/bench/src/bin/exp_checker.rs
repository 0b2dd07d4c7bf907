//! EXP-CHECKER — throughput of the linearizability checker on synthetic
//! large histories.
//!
//! The crate has one engine, [`lincheck::OnlineChecker`]; the timed
//! calls are its post-hoc entry points, `lincheck::monotone::check_counter`
//! and `check_maxreg`, which sort a finished history into the engine's
//! stream. Rows:
//!
//! * **counter / monotone** at 10⁴–10⁶ records, with the engine's peak
//!   retained state when the same history is streamed record by record,
//!   as inline checking feeds it;
//! * **counter / naive** — the retained `O(R² log I)` pairwise reference
//!   at the small sizes, whose verdict must match;
//! * **maxreg / monotone** on one wide-witness history: 2¹⁶ writes all
//!   concurrent with 2¹⁶ sequential reads, each of which needs a witness
//!   write. A per-read witness scan makes this quadratic (seconds, not
//!   milliseconds), so the row keeps such a path from coming back unseen.
//!
//! Counter histories are synthesized from a valid execution (every read
//! returns its forced-before count, which always linearizes), with
//! heavily overlapping windows, pending operations and multi-unit
//! increment batches, so the monotone stack and the watermark
//! retirement both do real work. The streamed peak retained state is
//! asserted against the history's measured concurrency.
//!
//! Every row runs in a fresh child process (`exp_checker --child
//! <index>`), which builds its history and asserts its verdict, so no
//! row reuses a heap an earlier row freed and skips the page faults a
//! fresh process pays. A row whose one timed check takes under
//! [`bench::MIN_ROW_MILLIS`] repeats it until that much time has passed
//! and reports the median run; every repeat must reach the same
//! verdict. A failing child fails the run.
//!
//! Results land in `BENCH_checker.json` (cwd) for regression tracking.
//! Rows key on `object`, `engine` and `records`;
//! `peak_retained_entries` is a memory-direction metric `bench_diff`
//! checks for growth.
//!
//! Run: `cargo run --release -p bench --bin exp_checker` (no arguments)
//! CI:  the same, then `bench_diff` against the committed
//! `BENCH_checker.json`.

use bench::emit::{Report, Row};
use bench::tables::{f2, Table};
use lincheck::monotone::{check_counter, check_maxreg};
use lincheck::naive::{self, prefix_sums, weighted_lt};
use lincheck::{
    CounterHistory, Interval, MaxRegHistory, OnlineChecker, TimedInc, TimedRead, TimedWrite,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smr::{OpKind, OpRecord};
use std::time::Instant;

/// Synthesize a linearizable counter history of `n_incs` increment
/// records and `n_reads` reads with overlapping windows. Reads return
/// their forced-before weight `A_r` — always a valid assignment (the
/// greedy's own lower bound), so the check runs to completion over the
/// whole history instead of bailing at the first read.
fn synth_history(n_incs: usize, n_reads: usize, seed: u64) -> CounterHistory {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = 2 * (n_incs + n_reads) as u64 + 2;
    let mut incs = Vec::with_capacity(n_incs);
    for _ in 0..n_incs {
        let inv = rng.random_range(0..horizon);
        let pending = rng.random_range(0..16) == 0;
        let amount = 1 + rng.random_range(0..3);
        incs.push(TimedInc {
            window: if pending {
                Interval::pending(inv)
            } else {
                Interval::done(inv, inv + 1 + rng.random_range(0..32))
            },
            amount,
        });
    }
    // Forced-before table: completed increments by response, using the
    // reference checker's weighted-count primitives so the generator
    // can never drift from the spec's boundary semantics.
    let mut by_resp: Vec<(u64, u64)> = incs
        .iter()
        .filter_map(|i| i.window.resp.map(|r| (r, i.amount)))
        .collect();
    by_resp.sort_unstable();
    let prefix = prefix_sums(&by_resp);
    let reads = (0..n_reads)
        .map(|_| {
            let inv = rng.random_range(0..horizon);
            TimedRead {
                inv,
                resp: inv + 1 + rng.random_range(0..32),
                value: weighted_lt(&by_resp, &prefix, inv),
            }
        })
        .collect();
    CounterHistory { incs, reads }
}

/// Writes per wide-witness history (and as many reads).
const WIDE_WRITES: u64 = 1 << 16;

/// The wide-witness max-register history: write `i` (value `i + 1`)
/// invokes at `i` and responds after every read; read `j` runs alone
/// after all invocations and returns `j + 1`, which only write `j`
/// witnesses (k = 1).
fn wide_witness_history() -> MaxRegHistory {
    let w = WIDE_WRITES;
    let last_read = w + 2 * w;
    MaxRegHistory {
        writes: (0..w)
            .map(|i| TimedWrite {
                window: Interval::done(i, last_read + 1 + i),
                value: i + 1,
            })
            .collect(),
        reads: (0..w)
            .map(|j| TimedRead {
                inv: w + 2 * j,
                resp: w + 2 * j + 1,
                value: u128::from(j + 1),
            })
            .collect(),
    }
}

/// The record stream a live run would emit for `ops` (`(kind, inv,
/// resp)`): one announcement per operation at its invocation, one
/// completion at its response (pending operations never complete),
/// sorted by timestamp with announcements first at ties.
fn live_stream(ops: impl Iterator<Item = (OpKind, u64, Option<u64>)>) -> Vec<OpRecord> {
    let mut events: Vec<(u64, u8, OpRecord)> = Vec::new();
    for (pid, (kind, inv, resp)) in ops.enumerate() {
        let rec = |resp| OpRecord {
            pid,
            kind,
            inv,
            resp,
            steps: 0,
        };
        events.push((inv, 0, rec(None)));
        if let Some(t) = resp {
            events.push((t, 1, rec(resp)));
        }
    }
    events.sort_by_key(|&(t, phase, _)| (t, phase));
    events.into_iter().map(|(_, _, r)| r).collect()
}

/// Stream a counter history through the engine record by record and
/// return its peak retained state, asserted against the stream's
/// maximum concurrency (announcements count before completions at
/// equal timestamps, so the measure upper-bounds what the checker can
/// have open).
fn streamed_peak(h: &CounterHistory) -> usize {
    let reads = h.reads.iter().map(|r| {
        let kind = OpKind::Read { returned: r.value };
        (kind, r.inv, Some(r.resp))
    });
    let incs = h.incs.iter().map(|i| {
        let kind = OpKind::Inc { amount: i.amount };
        (kind, i.window.inv, i.window.resp)
    });
    let stream = live_stream(reads.chain(incs));
    let mut checker = OnlineChecker::counter(1);
    let (mut open, mut conc) = (0usize, 0usize);
    for r in &stream {
        checker
            .push(r)
            .expect("a linearizable history streams cleanly");
        if r.resp.is_none() {
            open += 1;
            conc = conc.max(open);
        } else {
            open -= 1;
        }
    }
    let peak = checker.peak_retained();
    assert!(
        peak <= 4 * conc + 64,
        "online checker retained {peak} entries against a measured \
         max concurrency of {conc}: the watermark is not retiring"
    );
    peak
}

/// What a row times.
#[derive(Clone, Copy)]
enum Check {
    /// The engine on a synthesized counter history (seed), plus its
    /// streamed peak retained state.
    CounterMonotone(u64),
    /// The pairwise reference on the same history.
    CounterNaive(u64),
    /// The engine on the wide-witness max-register history.
    MaxregWide,
}

#[derive(Clone, Copy)]
struct Config {
    records: usize,
    check: Check,
}

impl Config {
    fn object(&self) -> &'static str {
        match self.check {
            Check::MaxregWide => "maxreg",
            Check::CounterMonotone(_) | Check::CounterNaive(_) => "counter",
        }
    }

    fn engine(&self) -> &'static str {
        match self.check {
            Check::CounterNaive(_) => "naive",
            Check::CounterMonotone(_) | Check::MaxregWide => "monotone",
        }
    }

    fn label(&self) -> String {
        format!("{}/{}/{}", self.object(), self.engine(), self.records)
    }

    /// Run this row in this (child) process: the median run's
    /// milliseconds, the number of runs and the streamed peak retained
    /// state, after every assert.
    fn run(&self) -> (f64, usize, Option<usize>) {
        let label = self.label();
        // 2/3 increments, 1/3 reads — roughly the stress-test mix.
        let total = self.records;
        let counter_history = |seed| synth_history(total * 2 / 3, total - total * 2 / 3, seed);
        // Time the check alone, not the history it is handed.
        let timed = |check: &dyn Fn() -> bool| {
            bench::median_run(&label, || {
                let start = Instant::now();
                let ok = check();
                (ok, start.elapsed().as_secs_f64() * 1e3)
            })
        };
        match self.check {
            Check::CounterMonotone(seed) => {
                let h = counter_history(seed);
                let (ok, millis, runs) = timed(&|| check_counter(&h, 1).is_ok());
                assert!(ok, "synthetic history must linearize");
                (millis, runs, Some(streamed_peak(&h)))
            }
            Check::CounterNaive(seed) => {
                let h = counter_history(seed);
                let (ok, millis, runs) = timed(&|| naive::check_counter(&h, 1).is_ok());
                assert!(ok, "engines disagree on a {total}-record history");
                (millis, runs, None)
            }
            Check::MaxregWide => {
                let wide = wide_witness_history();
                let (ok, millis, runs) = timed(&|| check_maxreg(&wide, 1).is_ok());
                assert!(ok, "the wide-witness history must linearize");
                (millis, runs, None)
            }
        }
    }
}

/// The grid: the counter engine at five sizes (seeded per size), the
/// reference beside it at the two small ones, and the wide-witness row.
fn grid() -> Vec<Config> {
    // (total records, run the quadratic reference too?)
    let sizes = [
        (10_000, true),
        (30_000, true),
        (100_000, false),
        (300_000, false),
        (1_000_000, false),
    ];
    let mut configs = Vec::new();
    for (idx, (records, with_naive)) in sizes.into_iter().enumerate() {
        let seed = 0xC0DE + idx as u64;
        configs.push(Config {
            records,
            check: Check::CounterMonotone(seed),
        });
        if with_naive {
            configs.push(Config {
                records,
                check: Check::CounterNaive(seed),
            });
        }
    }
    configs.push(Config {
        records: 2 * WIDE_WRITES as usize,
        check: Check::MaxregWide,
    });
    configs
}

struct Sample {
    config: Config,
    millis: f64,
    runs: usize,
    peak_retained: Option<usize>,
}

impl Sample {
    fn records_per_sec(&self) -> f64 {
        self.config.records as f64 / (self.millis / 1e3).max(1e-9)
    }
}

/// Run row `index` of the grid in a fresh child process; a child that
/// fails (an assert inside it, or a crash) fails the run.
fn run_child(configs: &[Config], index: usize) -> Sample {
    let c = configs[index];
    let [millis, runs, peak] = bench::run_child("exp_checker", index, &c.label());
    Sample {
        config: c,
        millis,
        runs: runs as usize,
        peak_retained: (peak >= 0.0).then_some(peak as usize),
    }
}

fn main() {
    let configs = grid();
    // Child mode (internal): run one row, print one machine line.
    if let Some(index) = bench::child_index(configs.len()) {
        let (millis, runs, peak) = configs[index].run();
        let peak = peak.map_or(-1, |p| p as i64);
        println!("RESULT {millis} {runs} {peak}");
        return;
    }
    bench::no_arguments("exp_checker");

    let samples: Vec<Sample> = (0..configs.len())
        .map(|i| {
            let s = run_child(&configs, i);
            eprintln!(
                "done: {}: {:.2} ms (median of {} runs)",
                s.config.label(),
                s.millis,
                s.runs
            );
            s
        })
        .collect();

    println!("EXP-CHECKER — linearizability checker throughput on synthetic histories");
    println!("monotone = the engine's sorted feed (peak: the same history streamed);");
    println!("naive    = retained O(R² log I) pairwise reference (small sizes only);");
    println!("maxreg   = 2^16 concurrent writes, each read needs its own witness.");
    println!("Each row runs in its own process; ms is the median of `runs` runs.");
    let mut table = Table::new([
        "object",
        "engine",
        "records",
        "runs",
        "ms",
        "records/s",
        "peak",
    ]);
    for s in &samples {
        table.row([
            s.config.object().to_string(),
            s.config.engine().to_string(),
            s.config.records.to_string(),
            s.runs.to_string(),
            f2(s.millis),
            format!("{:.0}", s.records_per_sec()),
            s.peak_retained
                .map_or_else(|| "-".into(), |p| p.to_string()),
        ]);
    }
    table.print("checker throughput");

    // Machine-readable results for regression tracking;
    // `peak_retained_entries` is a memory-direction metric.
    let mut report = Report::new("checker_throughput", "full");
    for s in &samples {
        let mut row = Row::new()
            .str("object", s.config.object())
            .str("engine", s.config.engine())
            .int("records", s.config.records as u64)
            .float3("millis", s.millis)
            .float0("records_per_sec", s.records_per_sec());
        if let Some(p) = s.peak_retained {
            row = row.int("peak_retained_entries", p as u64);
        }
        report.row(row);
    }
    report.write("BENCH_checker.json");
}
