//! EXP-SCALE — the coop backend's throughput harness: steps/s and peak
//! RSS vs process count, in both scheduling modes, bare and with metrics
//! collection on.
//!
//! The paper's bounds are parameterized by the process count `n`. The
//! coop backend drives *virtual* processes as resumable `OpTask` state
//! machines on the controller thread, which is what opens the 10⁵–10⁶
//! range the `O(log log n)`-flavored results are about. Each config is
//! a workload, a mode, `n`, an op count and an instrument:
//!
//! * workloads — `reg`: read-then-write chains over a striped pool of
//!   1 024 registers (2 primitives per op; pure harness overhead).
//!   `kmult`: Algorithm 1 increments and reads at `k = ⌈√n⌉`, where
//!   every process funnels through the same `switch` bits.
//! * modes — `gated`: one controller grant per primitive, round-robin
//!   (`run_schedule`). `free`: the ungated batch-polling
//!   `Driver::coop_free` loop, the backend's throughput ceiling.
//! * instruments — `none`: the bare runtime. `metrics`: `obs`
//!   collection on (one relaxed `fetch_add` per event). Every
//!   metrics config directly follows its plain twin (same workload,
//!   mode, `n` and ops), and the `instrument` column is part of row
//!   identity, so both sides regress independently. The gate's pair,
//!   at 10⁵ processes, runs in nine alternating rounds, one run of each
//!   side per round with the side that runs first switching each round,
//!   and each side's fastest run is its row; every other config, the
//!   other metrics pairs included, runs once. The analysis passes are
//!   priced by perfbench, inside the checked ops/s of its gated
//!   workloads.
//!
//! Every run is a fresh child process (`exp_scale --child <index>`), so
//! a row prices its own heap alone and its peak RSS (`VmHWM` of
//! `/proc/self/status`, 0 where unavailable) is its own. Only execution
//! is timed, not setup or teardown. A child whose execution takes under
//! [`bench::MIN_ROW_MILLIS`] repeats it on a fresh runtime with the same
//! submissions until that much has passed, and reports the median run;
//! every repeat must grant the same steps. A failing child fails the
//! run. The gates, asserted here:
//!
//! * every run finishes in under 120 s (a runaway, not a busy box);
//! * every gated `reg` run at `n ≥ 10⁵` finishes in under 60 s and
//!   grants steps;
//! * every metrics-on run counts coop polls (the hot path kept its
//!   instrumentation);
//! * at 10⁵ processes, metrics-on keeps ≥ 95% of its plain twin's
//!   steps/s, estimated as the median over the nine rounds of each
//!   round's on/off ratio. The two runs of a round see the same machine
//!   load, so their ratio cancels drift, and the median drops the few
//!   rounds a scheduler hiccup spoils (one costs more than the whole
//!   budget at ~100 ms run lengths) instead of keeping the luckiest.
//!
//! Results land in `BENCH_scale.json` (cwd); each metrics-on run leaves
//! its `obs` snapshot in `OBS_snapshot.json`, so the file holds the last
//! one.
//!
//! Run: `cargo run --release -p bench --bin exp_scale` (no arguments)
//! CI:  the same, then `bench_diff` against the committed
//! `BENCH_scale.json`.

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use bench::emit::{Report, Row};
use bench::tables::{f2, Table};
use parking_lot::Mutex;
use smr::backend::CoopBackend;
use smr::sched::RoundRobin;
use smr::{Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
use std::sync::Arc;
use std::time::Instant;

/// Registers in the `reg` workload's striped pool.
const POOL: usize = 1024;

/// Alternating rounds of the gate's metrics pair: odd, so the median is
/// one round's ratio.
const GATE_ROUNDS: usize = 9;

/// The process count of the metrics-overhead gate.
const METRICS_GATE_N: usize = 100_000;

/// Read one register, write another: 2 primitives per op.
struct ChainTask {
    pool: Arc<Vec<Register>>,
    read_at: usize,
    write_at: usize,
    read: Option<u64>,
    primed: bool,
}

impl OpTask for ChainTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        match self.read {
            None => {
                self.read = Some(self.pool[self.read_at].read(ctx));
                Poll::Pending
            }
            Some(v) => {
                self.pool[self.write_at].write(ctx, v.wrapping_add(1));
                Poll::Ready(u128::from(v))
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Reg,
    Kmult,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Reg => "reg",
            Workload::Kmult => "kmult",
        }
    }

    fn submit(self, d: &mut Driver<CoopBackend>, n: usize, ops_per_proc: u64) {
        if self == Workload::Kmult {
            let k = bench::ceil_sqrt(n as u64).max(2);
            let counter = KmultCounter::new(n, k);
            for pid in 0..n {
                let handle: SharedKmultHandle = Arc::new(Mutex::new(counter.handle(pid)));
                for j in 0..ops_per_proc {
                    if j % 2 == 0 {
                        d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(handle.clone()));
                    } else {
                        d.submit_task(pid, OpSpec::read(), KmultReadTask::new(handle.clone()));
                    }
                }
            }
            return;
        }
        let pool: Arc<Vec<Register>> = Arc::new((0..POOL).map(|_| Register::new(0)).collect());
        for pid in 0..n {
            for j in 0..ops_per_proc {
                let at = pid + j as usize;
                let task = ChainTask {
                    pool: pool.clone(),
                    read_at: at % POOL,
                    write_at: (at + 1) % POOL,
                    read: None,
                    primed: false,
                };
                d.submit_task(pid, OpSpec::custom("chain", j as u128), task);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Gated,
    Free,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Gated => "gated",
            Mode::Free => "free",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Instrument {
    None,
    Metrics,
}

impl Instrument {
    fn name(self) -> &'static str {
        match self {
            Instrument::None => "none",
            Instrument::Metrics => "metrics",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Config {
    workload: Workload,
    mode: Mode,
    n: usize,
    ops_per_proc: u64,
    instrument: Instrument,
}

impl Config {
    /// What a metrics config shares with its plain twin.
    fn key(&self) -> (Workload, Mode, usize, u64) {
        (self.workload, self.mode, self.n, self.ops_per_proc)
    }

    fn label(&self) -> String {
        format!(
            "{}/{}/{}/n={}",
            self.workload.name(),
            self.mode.name(),
            self.instrument.name(),
            self.n
        )
    }
}

/// The one grid, the one `BENCH_scale.json` was written from.
fn grid() -> Vec<Config> {
    use Mode::{Free, Gated};
    use Workload::{Kmult, Reg};
    let c = |workload, mode, n, ops_per_proc, instrument| Config {
        workload,
        mode,
        n,
        ops_per_proc,
        instrument,
    };
    let (none, metrics) = (Instrument::None, Instrument::Metrics);
    vec![
        c(Reg, Gated, 100, 4, none),
        c(Reg, Gated, 1_000, 4, none),
        c(Reg, Gated, 10_000, 4, none),
        c(Reg, Gated, 100_000, 4, none),
        c(Reg, Gated, 1_000_000, 1, none),
        c(Reg, Free, 10_000, 4, none),
        c(Reg, Free, 10_000, 4, metrics),
        c(Reg, Free, METRICS_GATE_N, 4, none),
        c(Reg, Free, METRICS_GATE_N, 4, metrics),
        c(Reg, Free, 1_000_000, 1, none),
        c(Reg, Free, 1_000_000, 1, metrics),
        c(Kmult, Gated, 10_000, 4, none),
        c(Kmult, Gated, 100_000, 2, none),
        c(Kmult, Free, 100_000, 2, none),
    ]
}

struct Sample {
    config: Config,
    steps: u64,
    /// The median run's execution time.
    millis: f64,
    /// Runs behind `millis` (printed, not written: not row identity).
    runs: usize,
    peak_rss_bytes: u64,
}

impl Sample {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.millis / 1e3).max(1e-9)
    }

    fn row(&self) -> Row {
        let c = &self.config;
        Row::new()
            .str("workload", c.workload.name())
            .str("mode", c.mode.name())
            .str("instrument", c.instrument.name())
            .int("n", c.n as u64)
            .int("ops", c.n as u64 * c.ops_per_proc)
            .int("steps", self.steps)
            .float3("millis", self.millis)
            .float0("steps_per_sec", self.steps_per_sec())
            .int("peak_rss_bytes", self.peak_rss_bytes)
    }
}

/// `VmHWM` (peak resident set) of this process, in bytes; 0 where
/// `/proc` is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Run `c` once in this (child) process: the steps and milliseconds of
/// execution, after the instrument's own gate.
fn run_config(c: &Config) -> (u64, f64) {
    if c.instrument == Instrument::Metrics {
        // Each run's snapshot counts that run alone.
        obs::registry::reset_all();
    }
    obs::set_enabled(c.instrument == Instrument::Metrics);
    let (rt, mut d) = match c.mode {
        Mode::Gated => {
            let rt = Runtime::coop(c.n);
            (rt.clone(), Driver::coop(rt))
        }
        Mode::Free => {
            let rt = Runtime::coop_free(c.n);
            (rt.clone(), Driver::coop_free(rt))
        }
    };
    c.workload.submit(&mut d, c.n, c.ops_per_proc);
    let start = Instant::now();
    let steps = match c.mode {
        Mode::Gated => d.run_schedule(&mut RoundRobin::new()),
        Mode::Free => {
            d.wait_all();
            rt.total_steps()
        }
    };
    let millis = start.elapsed().as_secs_f64() * 1e3;
    // Off again before teardown, so the snapshot keeps the run's gauges
    // (the arena's resident bytes) rather than the drop's.
    obs::set_enabled(false);
    drop(d);
    if c.instrument == Instrument::Metrics {
        let snap = obs::snapshot();
        let polls = snap
            .get(obs::names::SUB_COOP, obs::names::COOP_POLLS)
            .unwrap_or(0);
        assert!(
            polls > 0,
            "{} recorded zero coop polls — the hot path lost its instrumentation",
            c.label()
        );
        let path = "OBS_snapshot.json";
        if let Err(e) = std::fs::write(path, snap.to_json("full")) {
            eprintln!("could not write {path}: {e}");
        }
    }
    (steps, millis)
}

/// Run config `index` of the grid in a fresh child process; a child
/// that fails (a gate inside it, or a crash) fails the run.
fn run_child(configs: &[Config], index: usize) -> Sample {
    let c = configs[index];
    let [steps, millis, runs, peak_rss_bytes] = bench::run_child("exp_scale", index, &c.label());
    let s = Sample {
        config: c,
        steps: steps as u64,
        millis,
        runs: runs as usize,
        peak_rss_bytes: peak_rss_bytes as u64,
    };
    assert!(
        s.millis < 120_000.0,
        "{} took {:.0} ms — a runaway, not a busy box",
        c.label(),
        s.millis
    );
    s
}

/// Measure a group — a plain config and its metrics twin, if any
/// (`group` indexes `configs`) — in `rounds` rounds, one run of each
/// config per round, switching which runs first each round. Returns
/// each config's fastest run and, sorted, every round's twin-over-plain
/// steps/s ratio.
fn measure(configs: &[Config], group: &[usize], rounds: usize) -> (Vec<Sample>, Vec<f64>) {
    let mut best: Vec<Sample> = Vec::new();
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut order = group.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        let mut runs: Vec<Sample> = order.iter().map(|&i| run_child(configs, i)).collect();
        if round % 2 == 1 {
            runs.reverse();
        }
        ratios.push(runs[runs.len() - 1].steps_per_sec() / runs[0].steps_per_sec());
        if best.is_empty() {
            best = runs;
        } else {
            for (b, s) in best.iter_mut().zip(runs) {
                if s.millis < b.millis {
                    *b = s;
                }
            }
        }
    }
    ratios.sort_by(f64::total_cmp);
    (best, ratios)
}

fn main() {
    let configs = grid();
    // Child mode (internal): run one config, print one machine line.
    if let Some(index) = bench::child_index(configs.len()) {
        let c = &configs[index];
        let (steps, millis, runs) = bench::median_run(&c.label(), || run_config(c));
        println!("RESULT {steps} {millis} {runs} {}", peak_rss_bytes());
        return;
    }
    bench::no_arguments("exp_scale");

    let mut samples: Vec<Sample> = Vec::new();
    let mut metrics_bar = None;
    let indices: Vec<usize> = (0..configs.len()).collect();
    for group in indices.chunk_by(|&a, &b| configs[a].key() == configs[b].key()) {
        let twin = configs[group[group.len() - 1]];
        let gate = twin.instrument == Instrument::Metrics && twin.n == METRICS_GATE_N;
        let (best, ratios) = measure(&configs, group, if gate { GATE_ROUNDS } else { 1 });
        for s in &best {
            eprintln!(
                "done: {}: {:.0} steps/s",
                s.config.label(),
                s.steps_per_sec()
            );
        }
        if gate {
            let median = ratios[GATE_ROUNDS / 2];
            assert!(
                median >= 0.95,
                "metrics-on throughput at {METRICS_GATE_N} processes is {:.1}% of its \
                 plain twin's (median of {GATE_ROUNDS} alternating pairs) — the enabled \
                 path exceeds the 5% budget",
                100.0 * median
            );
            metrics_bar = Some((median, ratios[GATE_ROUNDS / 4], ratios[3 * GATE_ROUNDS / 4]));
        }
        samples.extend(best);
    }

    for s in &samples {
        let c = &s.config;
        if c.workload == Workload::Reg && c.mode == Mode::Gated && c.n >= 100_000 {
            assert!(
                s.millis < 60_000.0,
                "a {}-process gated run took {:.0} ms — the coop backend has regressed",
                c.n,
                s.millis
            );
            assert!(
                s.steps > 0,
                "the {}-process gated run granted no steps",
                c.n
            );
        }
    }

    let mut table = Table::new([
        "workload",
        "mode",
        "instrument",
        "n",
        "steps",
        "ms",
        "runs",
        "steps/s",
        "peak MB",
    ]);
    for s in &samples {
        let c = &s.config;
        table.row([
            c.workload.name().to_string(),
            c.mode.name().to_string(),
            c.instrument.name().to_string(),
            c.n.to_string(),
            s.steps.to_string(),
            f2(s.millis),
            s.runs.to_string(),
            format!("{:.0}", s.steps_per_sec()),
            f2(s.peak_rss_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }

    println!("EXP-SCALE — steps/s and peak RSS vs process count, bare and with metrics on");
    println!("coop = virtual processes polled on the controller thread");
    println!("       (mode gated = one grant per primitive; free = ungated batch polling).");
    println!("instrument metrics = obs collection on.");
    println!(
        "ms = execution only, the median of `runs` runs (runs repeat until {} ms have passed).",
        bench::MIN_ROW_MILLIS
    );
    if let Some((bar, q1, q3)) = metrics_bar {
        println!(
            "{METRICS_GATE_N}-process metrics bar: on/off = {bar:.3}, the median of \
             {GATE_ROUNDS} alternating pairs (quartiles {q1:.3}–{q3:.3}; ≥ 0.950 required)."
        );
    }
    table.print("coop scaling");

    let mut report = Report::new("backend_scaling", "full");
    for s in &samples {
        report.row(s.row());
    }
    report.write("BENCH_scale.json");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::regression::{identity, parse_bench_json};
    use std::collections::BTreeSet;

    #[test]
    fn the_grid_pairs_every_instrument_with_a_plain_twin_and_holds_every_gated_config() {
        let configs = grid();
        assert_eq!(configs.len(), 14);
        let plain = configs.iter().filter(|c| c.instrument == Instrument::None);
        assert_eq!(plain.count(), 11);

        // Every metrics config directly follows its plain twin, which
        // is how `main` pairs and alternates them.
        for (i, c) in configs.iter().enumerate() {
            if c.instrument != Instrument::None {
                let twin = &configs[i - 1];
                assert_eq!(twin.instrument, Instrument::None, "{}", c.label());
                assert_eq!(twin.key(), c.key(), "{}", c.label());
            }
        }

        // Row identities are unique.
        let mut report = Report::new("backend_scaling", "full");
        for &config in &configs {
            let s = Sample {
                config,
                steps: 1,
                millis: 1.0,
                runs: 1,
                peak_rss_bytes: 1,
            };
            report.row(s.row());
        }
        let parsed = parse_bench_json(&report.to_json()).expect("rows parse");
        let ids: BTreeSet<String> = parsed.results.iter().map(identity).collect();
        assert_eq!(ids.len(), configs.len(), "duplicate row identity");

        // Each config a gate reads exists.
        let of = |w: Workload, m: Mode, i: Instrument| {
            configs
                .iter()
                .filter(move |c| (c.workload, c.mode, c.instrument) == (w, m, i))
        };
        let metrics = of(Workload::Reg, Mode::Free, Instrument::Metrics);
        assert_eq!(metrics.filter(|c| c.n == METRICS_GATE_N).count(), 1);
        let mut gated_reg = of(Workload::Reg, Mode::Gated, Instrument::None);
        assert!(gated_reg.any(|c| c.n >= 100_000));
    }
}
