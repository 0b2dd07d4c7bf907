//! EXP-EXPLORE — schedule exploration throughput and coverage over the
//! coop backend.
//!
//! The paper's correctness claims are schedule-quantified; `smr::explore`
//! turns them into finite checks by enumerating interleavings of small
//! configurations and feeding each history cut to the `lincheck`
//! monotone checkers. This experiment measures that harness across its
//! two walks and pins its correctness on every run:
//!
//! * **count assertions** — for programs with schedule-independent
//!   per-process step counts, exhaustively enumerated interleavings must
//!   equal the multinomial closed form `(Σsᵢ)!/Πsᵢ!`;
//! * **zero violations** — every real-object configuration must pass
//!   its checker on every cut (the bin exits non-zero otherwise);
//! * **throughput** — interleavings/second under the raw exhaustive DFS
//!   (`dfs`) and source-set dynamic partial-order reduction with sleep
//!   sets (`dpor`), plus crash injection. A row whose walk takes under
//!   [`bench::MIN_ROW_MILLIS`] repeats it until that much time has
//!   passed and reports the median run; every repeat must find the same
//!   verdict and the same exact counts (cuts, replays, pruned subtrees,
//!   replayed steps).
//!
//! The `algo` column is part of each row's identity for
//! `bench::regression` diffs; a `dpor` row counts cuts, at least one per
//! *Mazurkiewicz trace class*, not raw interleavings, so counts are
//! comparable only within one algorithm.
//!
//! Results land in `BENCH_explore.json` (cwd) for regression tracking.
//! Every program comes from [`bench::programs`], the builders the
//! explorer suites under `tests/` walk too. The grid includes the two
//! 4-process DPOR programs `perfbench`'s `explore_dpor` walks
//! (collect-4x2 and kmult-4x2), so a diff against the committed file
//! pins the exact walk of both, and Algorithm 2 on its own (k = 2,
//! m = 2⁴⁰, each process a write then a read): 3 processes with one
//! crash, and 4.
//!
//! Run: `cargo run --release -p bench --bin exp_explore` (no arguments;
//! any argument is a usage error, exit 2)
//! CI:  the same, then `bench_diff` against the committed
//! `BENCH_explore.json`.

use bench::emit::{Report, Row};
use bench::tables::{f2, Table};
use bench::{multinomial, programs};
use lincheck::{check_counter_records, check_maxreg_records};
use smr::explore::{explore, ExploreConfig};
use smr::{CoopBackend, Driver, History};
use std::time::Instant;

struct Config {
    name: &'static str,
    cfg: ExploreConfig,
    /// Closed-form interleaving count, where per-process step counts
    /// are schedule-independent (exhaustive, unreduced configs only).
    expected: Option<u128>,
    /// The program: a [`bench::programs`] builder call, made afresh
    /// for every replay.
    program: fn() -> Driver<CoopBackend>,
    /// The checker every cut goes through, at its spec's accuracy `k`.
    check: fn(&History, u64) -> Result<(), String>,
    k: u64,
}

impl Config {
    /// The `algo` identity string reported for this row: the walk
    /// `explore` runs for the config.
    fn algo(&self) -> &'static str {
        if self.cfg.prune {
            "dpor"
        } else {
            "dfs"
        }
    }
}

struct Sample {
    name: &'static str,
    algo: &'static str,
    prune: bool,
    crashes: usize,
    interleavings: u64,
    replays: u64,
    pruned: u64,
    steps_replayed: u64,
    millis: f64,
    runs: usize,
    violations: usize,
}

impl Sample {
    fn per_sec(&self) -> f64 {
        self.interleavings as f64 / (self.millis / 1e3).max(1e-9)
    }

    fn row(&self) -> Row {
        Row::new()
            .str("config", self.name)
            .str("algo", self.algo)
            .bool("prune", self.prune)
            .int("max_crashes", self.crashes as u64)
            .int("interleavings", self.interleavings)
            .int("replays", self.replays)
            .int("pruned_subtrees", self.pruned)
            .int("steps_replayed", self.steps_replayed)
            .float3("millis", self.millis)
            .float0("interleavings_per_sec", self.per_sec())
            .int("violations", self.violations as u64)
    }
}

fn main() {
    bench::no_arguments("exp_explore");

    let configs = [
        Config {
            name: "collect-3x2-exhaustive",
            cfg: ExploreConfig::exhaustive(),
            expected: Some(multinomial(&[4, 4, 4])),
            program: || programs::collect(3, 2, 0),
            check: check_counter_records,
            k: 1,
        },
        Config {
            name: "collect-3x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            program: || programs::collect(3, 2, 0),
            check: check_counter_records,
            k: 1,
        },
        Config {
            name: "kmult-3x2-exhaustive",
            cfg: ExploreConfig::exhaustive(),
            expected: Some(multinomial(&[1, 1, 1])),
            program: || programs::kmult(3, 3, 2, false),
            check: check_counter_records,
            k: 3,
        },
        Config {
            name: "collect-4x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            program: || programs::collect(3, 2, 2),
            check: check_counter_records,
            k: 1,
        },
        Config {
            name: "kmult-4x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            program: || programs::kmult(4, 3, 1, true),
            check: check_counter_records,
            k: 3,
        },
        Config {
            name: "collect-reader-crashes",
            cfg: ExploreConfig {
                max_crashes: 2,
                ..ExploreConfig::default()
            },
            expected: None,
            program: || programs::collect(2, 1, 1),
            check: check_counter_records,
            k: 1,
        },
        Config {
            name: "kmult-mixed-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            program: || programs::kmult(3, 2, 1, true),
            check: check_counter_records,
            k: 2,
        },
        Config {
            name: "tree-maxreg-exhaustive",
            cfg: ExploreConfig::exhaustive(),
            expected: None,
            program: programs::tree_maxreg,
            check: check_maxreg_records,
            k: 1,
        },
        Config {
            name: "tree-maxreg-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            program: programs::tree_maxreg,
            check: check_maxreg_records,
            k: 1,
        },
        Config {
            name: "kmaxreg-3x2-crash-dpor",
            cfg: ExploreConfig {
                max_crashes: 1,
                ..ExploreConfig::default()
            },
            expected: None,
            program: || programs::kmaxreg(3),
            check: check_maxreg_records,
            k: 2,
        },
        Config {
            name: "kmaxreg-4x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            program: || programs::kmaxreg(4),
            check: check_maxreg_records,
            k: 2,
        },
    ];

    let mut samples = Vec::new();
    for c in &configs {
        let (stats, millis, runs) = bench::median_run(c.name, || {
            let start = Instant::now();
            let stats = explore(&c.cfg, c.program, |h| (c.check)(h, c.k));
            (stats, start.elapsed().as_secs_f64() * 1e3)
        });

        // The correctness bars: exact counts where a closed form
        // exists, zero violations everywhere.
        if let Some(expected) = c.expected {
            assert_eq!(
                u128::from(stats.interleavings),
                expected,
                "{}: enumerated interleavings diverge from the closed form",
                c.name
            );
        }
        assert!(
            stats.all_ok(),
            "{}: explorer found violations on a real object: {:?}",
            c.name,
            stats.violations
        );
        assert!(!stats.capped, "{}: unexpected cap", c.name);

        eprintln!(
            "done: {} [{}]: {} interleavings ({} pruned subtrees) in {millis:.2} ms \
             (median of {runs} runs)",
            c.name,
            c.algo(),
            stats.interleavings,
            stats.pruned
        );
        samples.push(Sample {
            name: c.name,
            algo: c.algo(),
            prune: c.cfg.prune,
            crashes: c.cfg.max_crashes,
            interleavings: stats.interleavings,
            replays: stats.replays,
            pruned: stats.pruned,
            steps_replayed: stats.steps_replayed,
            millis,
            runs,
            violations: stats.violations.len(),
        });
    }

    let mut table = Table::new([
        "config",
        "algo",
        "prune",
        "crashes",
        "interleavings",
        "replays",
        "pruned",
        "steps",
        "runs",
        "ms",
        "ileav/s",
    ]);
    for s in &samples {
        table.row([
            s.name.to_string(),
            s.algo.to_string(),
            s.prune.to_string(),
            s.crashes.to_string(),
            s.interleavings.to_string(),
            s.replays.to_string(),
            s.pruned.to_string(),
            s.steps_replayed.to_string(),
            s.runs.to_string(),
            f2(s.millis),
            format!("{:.0}", s.per_sec()),
        ]);
    }

    println!("EXP-EXPLORE — schedule exploration (coop backend)");
    println!("every enumerated interleaving checked against lincheck; dpor rows");
    println!("count cuts, at least one per trace class; count-asserted configs");
    println!("must match the multinomial closed form. ms is the median of `runs`");
    println!("runs, each with the same counts.");
    table.print("schedule exploration");

    let mut report = Report::new("schedule_exploration", "full");
    for s in &samples {
        report.row(s.row());
    }
    report.write("BENCH_explore.json");
}
