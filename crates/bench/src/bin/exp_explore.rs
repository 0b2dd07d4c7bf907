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
//!   (`dfs`) and sleep-set dynamic partial-order reduction (`dpor`),
//!   plus crash injection. A row whose walk takes under
//!   [`bench::MIN_ROW_MILLIS`] repeats it until that much time has
//!   passed and reports the median run; every repeat must find the same
//!   verdict and the same exact counts (cuts, replays, pruned subtrees,
//!   replayed steps).
//!
//! The `algo` column is part of each row's identity for
//! `bench::regression` diffs; a `dpor` row counts *Mazurkiewicz trace
//! representatives*, not raw interleavings, so counts are comparable
//! only within one algorithm.
//!
//! Results land in `BENCH_explore.json` (cwd) for regression tracking.
//! The grid includes the two 4-process DPOR programs `perfbench`'s
//! `explore_dpor` walks (collect-4x2 and kmult-4x2), so a diff against
//! the committed file pins the exact walk of both, and Algorithm 2 on
//! its own (k = 2, m = 2⁴⁰, each process a write then a read): 3
//! processes with one crash, and 4.
//!
//! Run: `cargo run --release -p bench --bin exp_explore` (no arguments;
//! any argument is a usage error, exit 2)
//! CI:  the same, then `bench_diff` against the committed
//! `BENCH_explore.json`.

use approx_objects::{KmultBoundedMaxRegister, KmultMaxReadTask, KmultMaxWriteTask};
use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use bench::emit::{Report, Row};
use bench::multinomial;
use bench::tables::{f2, Table};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::{check_counter_records, check_maxreg_records};
use maxreg::{TreeMaxReadTask, TreeMaxRegister, TreeMaxWriteTask};
use parking_lot::Mutex;
use smr::explore::{explore, ExploreConfig};
use smr::{CoopBackend, Driver, History, OpSpec, Runtime};
use std::sync::Arc;
use std::time::Instant;

type Factory = Box<dyn Fn() -> Driver<CoopBackend>>;
type Checker = Box<dyn Fn(&History) -> Result<(), String>>;

struct Config {
    name: &'static str,
    cfg: ExploreConfig,
    /// Closed-form interleaving count, where per-process step counts
    /// are schedule-independent (exhaustive, unreduced configs only).
    expected: Option<u128>,
    factory: Factory,
    checker: Checker,
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

/// 3 processes × 2 collect-counter increments each: 4 schedule-
/// independent primitives per process.
fn collect_incs() -> Factory {
    Box::new(|| {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = Arc::new(CollectCounter::new(3));
        for pid in 0..3 {
            for _ in 0..2 {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
            }
        }
        d
    })
}

/// The 4-process acceptance program for DPOR: 3 incrementers × 2 incs
/// each plus a reader issuing 2 full collects. Exhaustive enumeration of
/// its 20 primitives is ~4.4 × 10⁹ interleavings — far beyond DFS — but
/// the conflict structure (each collect read races only the owning
/// incrementer's writes) collapses to a few thousand trace classes.
fn collect_4x2() -> Factory {
    Box::new(|| {
        let mut d = Driver::coop(Runtime::coop(4));
        let c = Arc::new(CollectCounter::new(4));
        for pid in 0..3 {
            for _ in 0..2 {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
            }
        }
        for _ in 0..2 {
            d.submit_task(3, OpSpec::read(), CollectReadTask::new(c.clone()));
        }
        d
    })
}

/// The 4-process Algorithm 1 program `perfbench`'s `explore_dpor`
/// walks beside collect-4x2: each process one increment, then one read,
/// at k = 3 (n ≤ k + 1, so raw accuracy holds from the first read).
fn kmult_4x2() -> Factory {
    Box::new(|| {
        let mut d = Driver::coop(Runtime::coop(4));
        let c = KmultCounter::new(4, 3);
        for pid in 0..4 {
            let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
            d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h));
        }
        d
    })
}

/// 2 incrementers + 1 reader over the collect counter.
fn collect_with_reader() -> Factory {
    Box::new(|| {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = Arc::new(CollectCounter::new(3));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(1, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(2, OpSpec::read(), CollectReadTask::new(c.clone()));
        d
    })
}

/// The count-assert configuration: 3 processes × 2 Algorithm 1
/// increments at k = 3 (first announces via switch_0 — one primitive win
/// or lose — the second stays below threshold: zero primitives).
fn kmult_3x2() -> Factory {
    Box::new(|| {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = KmultCounter::new(3, 3);
        for pid in 0..3 {
            let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
            for _ in 0..2 {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
        d
    })
}

/// Algorithm 1 with reads mixed in (schedule-dependent read costs).
fn kmult_mixed() -> Factory {
    Box::new(|| {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = KmultCounter::new(3, 2);
        let hs: Vec<SharedKmultHandle> =
            (0..3).map(|p| Arc::new(Mutex::new(c.handle(p)))).collect();
        for (pid, h) in hs.iter().enumerate() {
            d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
        }
        d
    })
}

/// Two writers + one reader over an 8-bounded AACH tree max register.
fn tree_maxreg() -> Factory {
    Box::new(|| {
        let mut d = Driver::coop(Runtime::coop(3));
        let r = Arc::new(TreeMaxRegister::new(8));
        d.submit_task(0, OpSpec::write(5), TreeMaxWriteTask::new(r.clone(), 5));
        d.submit_task(1, OpSpec::write(3), TreeMaxWriteTask::new(r.clone(), 3));
        d.submit_task(2, OpSpec::read(), TreeMaxReadTask::new(r.clone()));
        d
    })
}

/// Algorithm 2 at k = 2 over m = 2⁴⁰: pid `p` of `n` writes
/// 2^(5 + ⌊40p/n⌋), spreading the writes over the magnitudes, then reads.
fn kmaxreg(n: usize) -> Factory {
    Box::new(move || {
        let mut d = Driver::coop(Runtime::coop(n));
        let r = Arc::new(KmultBoundedMaxRegister::new(n, 1 << 40, 2));
        for pid in 0..n {
            let v = 1u64 << (5 + 40 * pid / n);
            d.submit_task(pid, OpSpec::write(v), KmultMaxWriteTask::new(r.clone(), v));
            d.submit_task(pid, OpSpec::read(), KmultMaxReadTask::new(r.clone()));
        }
        d
    })
}

fn counter_checker(k: u64) -> Checker {
    Box::new(move |h| check_counter_records(h, k))
}

fn maxreg_checker(k: u64) -> Checker {
    Box::new(move |h| check_maxreg_records(h, k))
}

fn main() {
    bench::no_arguments("exp_explore");

    let configs = vec![
        Config {
            name: "collect-3x2-exhaustive",
            cfg: ExploreConfig::exhaustive(100),
            expected: Some(multinomial(&[4, 4, 4])),
            factory: collect_incs(),
            checker: counter_checker(1),
        },
        Config {
            name: "collect-3x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            factory: collect_incs(),
            checker: counter_checker(1),
        },
        Config {
            name: "kmult-3x2-exhaustive",
            cfg: ExploreConfig::exhaustive(100),
            expected: Some(multinomial(&[1, 1, 1])),
            factory: kmult_3x2(),
            checker: counter_checker(3),
        },
        Config {
            name: "collect-4x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            factory: collect_4x2(),
            checker: counter_checker(1),
        },
        Config {
            name: "kmult-4x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            factory: kmult_4x2(),
            checker: counter_checker(3),
        },
        Config {
            name: "collect-reader-crashes",
            cfg: ExploreConfig {
                max_crashes: 2,
                ..ExploreConfig::default()
            },
            expected: None,
            factory: collect_with_reader(),
            checker: counter_checker(1),
        },
        Config {
            name: "kmult-mixed-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            factory: kmult_mixed(),
            checker: counter_checker(2),
        },
        Config {
            name: "tree-maxreg-exhaustive",
            cfg: ExploreConfig::exhaustive(100),
            expected: None,
            factory: tree_maxreg(),
            checker: maxreg_checker(1),
        },
        Config {
            name: "tree-maxreg-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            factory: tree_maxreg(),
            checker: maxreg_checker(1),
        },
        Config {
            name: "kmaxreg-3x2-crash-dpor",
            cfg: ExploreConfig {
                max_crashes: 1,
                ..ExploreConfig::default()
            },
            expected: None,
            factory: kmaxreg(3),
            checker: maxreg_checker(2),
        },
        Config {
            name: "kmaxreg-4x2-dpor",
            cfg: ExploreConfig::default(),
            expected: None,
            factory: kmaxreg(4),
            checker: maxreg_checker(2),
        },
    ];

    let mut samples = Vec::new();
    for c in &configs {
        let (stats, millis, runs) = bench::median_run(c.name, || {
            let start = Instant::now();
            let stats = explore(&c.cfg, &c.factory, &c.checker);
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
    println!("count Mazurkiewicz trace representatives; count-asserted configs");
    println!("must match the multinomial closed form. ms is the median of `runs`");
    println!("runs, each with the same counts.");
    table.print("schedule exploration");

    let mut report = Report::new("schedule_exploration", "full");
    for s in &samples {
        report.row(s.row());
    }
    report.write("BENCH_explore.json");
}
