//! EXP-SCALE — execution throughput and memory vs process count, in
//! both scheduling modes of the coop backend.
//!
//! The paper's bounds are parameterized by the process count `n`. The
//! coop backend drives *virtual* processes as resumable `OpTask` state
//! machines on the controller thread, which is what opens the 10⁵–10⁶
//! range the `O(log log n)`-flavored results are about. This
//! experiment measures steps/s and peak RSS as `n` grows, in two modes:
//! `gated` (one controller grant per primitive, `run_schedule`) and
//! `free` (the ungated batch-polling `Driver::coop_free` loop — the
//! coop backend's throughput ceiling with scheduling costs removed):
//!
//! * `reg` workload — each process runs read-then-write chains over a
//!   striped register pool (2 primitives per op): pure harness overhead.
//! * `kmult` workload — each process alternates Algorithm 1
//!   increments/reads at `k = ⌈√n⌉` through the ported task wrappers:
//!   the paper's object at populations of 10⁵ processes.
//!
//! Peak RSS is per-configuration: the parent re-executes itself
//! (`--child …`) so each config is measured in a fresh address space
//! (`VmHWM` of `/proc/self/status`; 0 where unavailable).
//!
//! Results land in `BENCH_scale.json` (cwd) for regression tracking.
//!
//! Run: `cargo run --release -p bench --bin exp_scale`
//! CI:  `cargo run --release -p bench --bin exp_scale -- --smoke`
//! (`--smoke` shrinks the sweep but still proves the acceptance bar: a
//! gated schedule over 10⁵ virtual processes completing in seconds.)

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use bench::emit::{mode_str, Report, Row};
use bench::tables::{f2, Table};
use parking_lot::Mutex;
use smr::backend::ExecBackend;
use smr::sched::RoundRobin;
use smr::{Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
use std::sync::Arc;
use std::time::Instant;

/// Read-then-write over a striped register pool: 2 primitives per op.
struct RegChainTask {
    pool: Arc<Vec<Register>>,
    at: usize,
    read: Option<u64>,
    primed: bool,
}

impl RegChainTask {
    fn new(pool: Arc<Vec<Register>>, at: usize) -> Self {
        RegChainTask {
            pool,
            at,
            read: None,
            primed: false,
        }
    }
}

impl OpTask for RegChainTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        let len = self.pool.len();
        match self.read {
            None => {
                self.read = Some(self.pool[self.at % len].read(ctx));
                Poll::Pending
            }
            Some(v) => {
                self.pool[(self.at + 1) % len].write(ctx, v.wrapping_add(1));
                Poll::Ready(u128::from(v))
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Coop,
    CoopFree,
}

impl Backend {
    /// Scheduling mode: `gated` runs grant one primitive at a time
    /// (`run_schedule`); `free` batch-polls runnable tasks with no
    /// grants ([`Driver::coop_free`]).
    fn mode(self) -> &'static str {
        match self {
            Backend::Coop => "gated",
            Backend::CoopFree => "free",
        }
    }

    /// Unambiguous CLI token for `--child` re-execution.
    fn token(self) -> &'static str {
        match self {
            Backend::Coop => "coop",
            Backend::CoopFree => "coop_free",
        }
    }
}

struct Sample {
    workload: &'static str,
    mode: &'static str,
    n: usize,
    ops: u64,
    steps: u64,
    millis: f64,
    peak_rss_bytes: u64,
}

impl Sample {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.millis / 1e3).max(1e-9)
    }

    fn row(&self) -> Row {
        Row::new()
            .str("workload", self.workload)
            // Every row is the coop backend; the column keeps row
            // identity stable against older baselines.
            .str("backend", "coop")
            .str("mode", self.mode)
            .int("n", self.n as u64)
            .int("ops", self.ops)
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

fn submit_reg<B: ExecBackend>(d: &mut Driver<B>, n: usize, ops_per_proc: u64) {
    let pool: Arc<Vec<Register>> = Arc::new((0..1024).map(|_| Register::new(0)).collect());
    for pid in 0..n {
        for j in 0..ops_per_proc {
            d.submit_task(
                pid,
                OpSpec::custom("rmw", j as u128),
                RegChainTask::new(pool.clone(), pid + j as usize),
            );
        }
    }
}

fn submit_kmult<B: ExecBackend>(d: &mut Driver<B>, n: usize, ops_per_proc: u64) {
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
}

/// Run one configuration in this process and return its sample.
fn run_config(workload: &'static str, backend: Backend, n: usize, ops_per_proc: u64) -> Sample {
    let drive =
        |steps: u64, start: Instant| -> (u64, f64) { (steps, start.elapsed().as_secs_f64() * 1e3) };
    let (steps, millis) = match backend {
        Backend::Coop => {
            let mut d = Driver::coop(Runtime::coop(n));
            match workload {
                "reg" => submit_reg(&mut d, n, ops_per_proc),
                _ => submit_kmult(&mut d, n, ops_per_proc),
            }
            let start = Instant::now();
            drive(d.run_schedule(&mut RoundRobin::new()), start)
        }
        Backend::CoopFree => {
            // No grants: tasks are batch-polled until every submitted op
            // completes; steps come off the runtime's counters.
            let mut d = Driver::coop_free(Runtime::coop_free(n));
            match workload {
                "reg" => submit_reg(&mut d, n, ops_per_proc),
                _ => submit_kmult(&mut d, n, ops_per_proc),
            }
            let start = Instant::now();
            d.wait_all();
            drive(d.runtime().total_steps(), start)
        }
    };
    Sample {
        workload,
        mode: backend.mode(),
        n,
        ops: n as u64 * ops_per_proc,
        steps,
        millis,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Run one configuration in a fresh child process (per-config RSS);
/// falls back to in-process measurement if re-execution fails.
fn run_isolated(workload: &'static str, backend: Backend, n: usize, ops_per_proc: u64) -> Sample {
    let child = std::env::current_exe().ok().and_then(|exe| {
        std::process::Command::new(exe)
            .args([
                "--child",
                workload,
                backend.token(),
                &n.to_string(),
                &ops_per_proc.to_string(),
            ])
            .output()
            .ok()
    });
    if let Some(out) = child {
        if out.status.success() {
            let stdout = String::from_utf8_lossy(&out.stdout);
            if let Some(line) = stdout.lines().find_map(|l| l.strip_prefix("RESULT ")) {
                return parse_child_line(line, workload, backend);
            }
        }
        eprintln!(
            "child for {}/{}/n={n} failed; measuring in-process",
            workload,
            backend.token()
        );
    }
    run_config(workload, backend, n, ops_per_proc)
}

/// Parse the child's flat JSON result line (no serde in the tree; the
/// format is our own, written by `Sample::row`).
fn parse_child_line(line: &str, workload: &'static str, backend: Backend) -> Sample {
    let field = |key: &str| -> f64 {
        let pat = format!("\"{key}\": ");
        let at = line.find(&pat).map(|i| i + pat.len()).unwrap_or(0);
        line[at..]
            .split([',', '}'])
            .next()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Sample {
        workload,
        mode: backend.mode(),
        n: field("n") as usize,
        ops: field("ops") as u64,
        steps: field("steps") as u64,
        millis: field("millis"),
        peak_rss_bytes: field("peak_rss_bytes") as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    // Child mode: run exactly one config, print one machine line.
    if args.get(1).map(String::as_str) == Some("--child") {
        let workload: &'static str = if args[2] == "reg" { "reg" } else { "kmult" };
        let backend = match args[3].as_str() {
            "coop_free" => Backend::CoopFree,
            _ => Backend::Coop,
        };
        let n: usize = args[4].parse().expect("n");
        let ops: u64 = args[5].parse().expect("ops_per_proc");
        let sample = run_config(workload, backend, n, ops);
        println!("RESULT {}", sample.row().to_json());
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = bench::scale() as usize;

    // (workload, backend, n, ops_per_proc)
    let configs: Vec<(&'static str, Backend, usize, u64)> = if smoke {
        vec![
            ("reg", Backend::Coop, 100, 2),
            ("reg", Backend::Coop, 10_000, 2),
            // The acceptance bar: ≥ 10⁵ virtual processes, gated, seconds.
            ("reg", Backend::Coop, 100_000, 2),
            ("reg", Backend::CoopFree, 100_000, 2),
            ("kmult", Backend::Coop, 10_000, 2),
            ("kmult", Backend::CoopFree, 10_000, 2),
        ]
    } else {
        vec![
            ("reg", Backend::Coop, 100, 4),
            ("reg", Backend::Coop, 1_000, 4),
            ("reg", Backend::Coop, 10_000, 4),
            ("reg", Backend::Coop, 100_000, 4),
            ("reg", Backend::Coop, 1_000_000 * scale, 1),
            ("reg", Backend::CoopFree, 10_000, 4),
            ("reg", Backend::CoopFree, 100_000, 4),
            ("reg", Backend::CoopFree, 1_000_000 * scale, 1),
            ("kmult", Backend::Coop, 10_000, 4),
            ("kmult", Backend::Coop, 100_000 * scale, 2),
            ("kmult", Backend::CoopFree, 100_000 * scale, 2),
        ]
    };

    let mut samples = Vec::new();
    for &(workload, backend, n, ops) in &configs {
        let s = run_isolated(workload, backend, n, ops);
        eprintln!(
            "done: {workload}/{}/n={n}: {:.0} steps/s",
            backend.token(),
            s.steps_per_sec()
        );
        samples.push(s);
    }

    // The point of the exercise: huge-n gated runs finish in seconds.
    if let Some(big) = samples.iter().find(|s| s.mode == "gated" && s.n >= 100_000) {
        assert!(
            big.millis < 60_000.0,
            "a 10⁵-process gated run took {:.0} ms — the coop backend has regressed",
            big.millis
        );
        assert!(big.steps > 0, "the big run granted no steps");
    }

    let mut table = Table::new(["workload", "mode", "n", "steps", "ms", "steps/s", "peak MB"]);
    for s in &samples {
        table.row([
            s.workload.to_string(),
            s.mode.to_string(),
            s.n.to_string(),
            s.steps.to_string(),
            f2(s.millis),
            format!("{:.0}", s.steps_per_sec()),
            f2(s.peak_rss_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }

    println!("EXP-SCALE — steps/s and peak RSS vs process count");
    println!("coop = virtual processes polled on the controller thread");
    println!("       (mode gated = one grant per primitive; free = ungated batch polling).");
    table.print(if smoke {
        "execution-backend scaling (--smoke sizes)"
    } else {
        "execution-backend scaling"
    });

    let mut report = Report::new("backend_scaling", mode_str(smoke));
    for s in &samples {
        report.row(s.row());
    }
    report.write("BENCH_scale.json");
}
