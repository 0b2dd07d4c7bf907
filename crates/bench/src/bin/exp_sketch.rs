//! EXP-SKETCH — sharded approximate-aggregation workloads (top-k +
//! quantiles) over the k-multiplicative primitives.
//!
//! Measures the `sketch` crate under serving-shaped traffic on both
//! execution backends — the thread backend free-running (native-speed
//! writers) and the coop backend gated (deterministic schedules over
//! many virtual processes) — across a grid of process-count ×
//! shard-count configurations, and **asserts the accuracy envelope on
//! every sampled read**:
//!
//! * every recorded top-k / quantile / rank read is checked against the
//!   composed rank-error envelope by `lincheck::sketchlog` (the bin
//!   exits non-zero on any violation);
//! * after quiescence, every per-key counter is shadow-checked against
//!   the exact totals reconstructed from the typed event log (free
//!   `peek_approx_value`, zero primitives).
//!
//! Workload shape: each writer hammers its own hot key, spreads over its
//! owned key stripe, and grazes its neighbor's hot key (so every key has
//! at most 2 writers — the `w` of the envelope); writers batch through
//! `flush_every = 8` handles (the ROADMAP's "batch increments in
//! handles"). Readers interleave top-k, quantile and rank queries.
//!
//! Every config runs in a fresh child process (`exp_sketch --child
//! <index>`), which runs it with every envelope and shadow check, so no
//! config reuses a heap an earlier one freed. A config whose timed
//! section takes under [`bench::MIN_ROW_MILLIS`] repeats on a fresh
//! sketch and driver until that much time has passed, and reports the
//! median run; every repeat must submit the same counts and, on the
//! deterministic coop backend, take the same read steps. A failing
//! child fails the run.
//!
//! Results land in `BENCH_sketch.json` (cwd) for regression tracking.
//! Every row writes its average read steps, `read_steps_avg`; a coop
//! row also writes its total, `read_steps`, which `bench_diff` compares
//! exactly (a thread row's read steps vary from run to run).
//!
//! Run: `cargo run --release -p bench --bin exp_sketch` (no arguments)
//! CI:  the same, then `bench_diff` against the committed
//! `BENCH_sketch.json`.

use bench::emit::{Report, Row};
use bench::tables::{f2, Table};
use lincheck::sketchlog;
use lincheck::SketchEnvelope;
use parking_lot::Mutex;
use sketch::{
    specs, QuantileConfig, QuantileObserveTask, QuantileSketch, QuantileValueTask, RankTask,
    SharedQuantileHandle, SharedTopKHandle, TopKAddTask, TopKConfig, TopKReadTask, TopKSketch,
};
use smr::backend::ExecBackend;
use smr::sched::RoundRobin;
use smr::{Driver, History, OpKind, Runtime};
use std::sync::Arc;
use std::time::Instant;

const FLUSH_EVERY: u64 = 8;
const K: u64 = 4;

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    /// Thread backend, free-running: native-speed execution.
    Thread,
    /// Coop backend, gated round-robin: deterministic virtual processes.
    Coop,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Coop => "coop",
        }
    }
}

#[derive(Clone, Copy)]
enum Object {
    /// Top-k over this many shards.
    TopK {
        shards: usize,
    },
    Quantile,
}

/// One grid row: an object on a backend over `n` processes, with `ops`
/// operations per writer.
#[derive(Clone, Copy)]
struct Config {
    object: Object,
    backend: Backend,
    n: usize,
    ops: u64,
}

impl Config {
    fn label(&self) -> String {
        let backend = self.backend.name();
        match self.object {
            Object::TopK { shards } => format!("topk/{backend}/n={}/S={shards}", self.n),
            Object::Quantile => format!("quantile/{backend}/n={}", self.n),
        }
    }

    /// Run once, with every envelope and shadow check.
    fn run(&self) -> Sample {
        match self.object {
            Object::TopK { shards } => run_topk(self.backend, self.n, shards, self.ops),
            Object::Quantile => run_quantile(self.backend, self.n, self.ops),
        }
    }
}

/// The one grid: at least 4 process-count × shard-count top-k
/// configurations on each backend, then the quantile rows.
fn grid() -> Vec<Config> {
    use Backend::{Coop, Thread};
    let topk = |backend, n, shards, ops: u64| Config {
        object: Object::TopK { shards },
        backend,
        n,
        ops,
    };
    let quantile = |backend, n, ops: u64| Config {
        object: Object::Quantile,
        backend,
        n,
        ops,
    };
    vec![
        topk(Thread, 4, 1, 2_000),
        topk(Thread, 8, 4, 2_000),
        topk(Thread, 16, 8, 1_000),
        topk(Thread, 64, 16, 500),
        topk(Coop, 4, 1, 2_000),
        topk(Coop, 8, 4, 2_000),
        topk(Coop, 16, 8, 1_000),
        topk(Coop, 64, 16, 500),
        topk(Coop, 256, 32, 100),
        topk(Coop, 1_000, 64, 20),
        quantile(Thread, 4, 2_000),
        quantile(Thread, 16, 1_000),
        quantile(Coop, 16, 1_000),
        quantile(Coop, 64, 200),
    ]
}

struct Sample {
    object: &'static str,
    backend: &'static str,
    n: usize,
    /// Shards (top-k) or buckets (quantile).
    partitions: usize,
    keys: usize,
    writes: u64,
    reads: u64,
    /// The timed section: the median run's, once the child is done.
    millis: f64,
    /// Runs behind `millis` (printed, not written: not row identity).
    runs: usize,
    /// Steps of every completed read, in total and per read.
    read_steps: u64,
    read_steps_avg: f64,
}

impl Sample {
    /// What each repeat of a config must reproduce: its sizes and
    /// submitted counts, and on the coop backend (a deterministic
    /// executor) its read steps too.
    fn repeatable(&self) -> (usize, usize, u64, u64, Option<u64>) {
        let read_steps = (self.backend == "coop").then_some(self.read_steps);
        (
            self.partitions,
            self.keys,
            self.writes,
            self.reads,
            read_steps,
        )
    }

    fn writes_per_sec(&self) -> f64 {
        self.writes as f64 / (self.millis / 1e3).max(1e-9)
    }

    fn row(&self) -> Row {
        let part_key = if self.object == "topk" {
            "shards"
        } else {
            "buckets"
        };
        let row = Row::new()
            .str("object", self.object)
            .str("backend", self.backend)
            .int("n", self.n as u64)
            .int(part_key, self.partitions as u64)
            .int("keys", self.keys as u64)
            .int("k", K)
            .int("flush_every", FLUSH_EVERY)
            .int("writes", self.writes)
            .int("reads", self.reads)
            .float3("millis", self.millis)
            .float0("writes_per_sec", self.writes_per_sec())
            .float1("read_steps_avg", self.read_steps_avg);
        let row = if self.backend == "coop" {
            row.int("read_steps", self.read_steps)
        } else {
            row
        };
        row.int("violations", 0u64)
    }
}

/// Total and average `steps` of the completed read records with
/// `label`.
fn read_steps(h: &History, label: &str) -> (u64, f64) {
    let mut steps = 0u64;
    let mut count = 0u64;
    for op in h.ops() {
        if let OpKind::Custom { label: l, .. } = op.kind {
            if l == label && op.resp.is_some() {
                steps += op.steps;
                count += 1;
            }
        }
    }
    (steps, steps as f64 / count.max(1) as f64)
}

/// Exact per-key (or per-value) completed write totals from the log.
fn exact_totals(h: &History, label: &str) -> std::collections::BTreeMap<u64, u128> {
    let mut totals = std::collections::BTreeMap::new();
    for op in h.ops() {
        if let OpKind::Custom { label: l, arg, .. } = op.kind {
            if l == label && op.resp.is_some() {
                let (key, amount) = sketchlog::unpack_keyed(arg);
                *totals.entry(key).or_insert(0u128) += u128::from(amount);
            }
        }
    }
    totals
}

/// The writer key pattern: hot own key, owned-stripe spread, neighbor
/// grazing. Writer `i` owns the keys `≡ i (mod writers)`; only hot keys
/// (`key < writers`) are grazed by the left neighbor, so every key has
/// at most 2 writers — the `w` of the envelope.
fn writer_key(i: usize, j: u64, writers: usize, keys: usize) -> usize {
    debug_assert!(writers <= keys);
    if j.is_multiple_of(5) {
        (i + 1) % writers
    } else if j.is_multiple_of(3) {
        // Keys x < keys with x ≡ i (mod writers): i, i+W, i+2W, …
        let owned = (keys - i).div_ceil(writers);
        i + ((j / 3) as usize % owned) * writers
    } else {
        i
    }
}

fn submit_topk<B: ExecBackend>(
    d: &mut Driver<B>,
    sk: &Arc<TopKSketch>,
    writers: usize,
    n: usize,
    ops_per_writer: u64,
    reads_per_reader: u64,
) -> (u64, u64) {
    let keys = sk.config().keys;
    let q = 8.min(keys);
    let mut writes = 0u64;
    for i in 0..writers {
        let h: SharedTopKHandle = Arc::new(Mutex::new(sk.handle(i, FLUSH_EVERY)));
        for j in 0..ops_per_writer {
            let key = writer_key(i, j, writers, keys);
            let amount = 1 + j % 3;
            writes += amount;
            d.submit_task(
                i,
                specs::topk_add(key, amount),
                TopKAddTask::new(h.clone(), key, amount),
            );
        }
    }
    let mut reads = 0u64;
    for pid in writers..n {
        let h: SharedTopKHandle = Arc::new(Mutex::new(sk.handle(pid, FLUSH_EVERY)));
        for _ in 0..reads_per_reader {
            reads += 1;
            d.submit_task(pid, specs::topk_read(q), TopKReadTask::new(h.clone(), q));
        }
    }
    (writes, reads)
}

fn run_topk(backend: Backend, n: usize, shards: usize, ops_per_writer: u64) -> Sample {
    let readers = (n / 8).max(1);
    let writers = n - readers;
    assert!(
        writers >= 2,
        "need at least two writers for the neighbor pattern"
    );
    let keys = 64.max(4 * shards).max(writers);
    let cfg = TopKConfig {
        n,
        keys,
        shards,
        k: K,
        max_accuracy: 2,
        max_bound: 1 << 48,
    };
    let sk = TopKSketch::new(cfg);
    let reads_per_reader = 6;

    let (history, writes, reads, millis) = match backend {
        Backend::Coop => {
            let mut d = Driver::coop(Runtime::coop(n));
            let (w, r) = submit_topk(&mut d, &sk, writers, n, ops_per_writer, reads_per_reader);
            let start = Instant::now();
            d.run_schedule(&mut RoundRobin::new());
            let millis = start.elapsed().as_secs_f64() * 1e3;
            (d.take_history(), w, r, millis)
        }
        Backend::Thread => {
            let mut d = Driver::new(Runtime::free_running(n));
            let start = Instant::now();
            let (w, r) = submit_topk(&mut d, &sk, writers, n, ops_per_writer, reads_per_reader);
            d.wait_all();
            let millis = start.elapsed().as_secs_f64() * 1e3;
            (d.take_history(), w, r, millis)
        }
    };

    // The accuracy bar, part 1: every sampled read within its envelope.
    let env = SketchEnvelope::new(K, 2).with_buffer_slack(FLUSH_EVERY - 1);
    sketchlog::check_topk_records(&history, &env)
        .unwrap_or_else(|e| panic!("topk {}/{n}x{shards}: {e}", backend.name()));

    // Part 2: quiescent per-key shadow check against the exact totals
    // (free peeks, zero primitives; unflushed buffers are the only gap).
    let totals = exact_totals(&history, sketchlog::TOPK_ADD);
    for key in 0..keys {
        let f = totals.get(&(key as u64)).copied().unwrap_or(0);
        let peek = sk.counter(key).peek_approx_value();
        assert!(
            peek <= u128::from(K) * f,
            "key {key}: peek {peek} above k x exact {f}"
        );
        assert!(
            f <= 3 * peek + 2 * u128::from(FLUSH_EVERY - 1),
            "key {key}: exact {f} above (w+1) x peek {peek} + slack"
        );
    }

    let (read_steps, read_steps_avg) = read_steps(&history, sketchlog::TOPK_READ);
    Sample {
        object: "topk",
        backend: backend.name(),
        n,
        partitions: shards,
        keys,
        writes,
        reads,
        millis,
        runs: 1,
        read_steps,
        read_steps_avg,
    }
}

/// Deterministic value stream (splitmix-style LCG), log-uniformish over
/// `1..=max` by masking with a pid-and-step-dependent width.
fn value_stream(pid: usize, j: u64, max: u64) -> u64 {
    let mut x = (pid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ j;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (x >> 27);
    let width = 1 + (x % 16) as u32; // 1..=16 significant bits
    1 + ((x >> 16) & ((1 << width) - 1)) % max
}

fn submit_quantile<B: ExecBackend>(
    d: &mut Driver<B>,
    sk: &Arc<QuantileSketch>,
    observers: usize,
    ops_per_obs: u64,
    reads_per_reader: u64,
) -> (u64, u64) {
    let max = sk.config().max_value;
    let mut writes = 0u64;
    for pid in 0..observers {
        let h: SharedQuantileHandle = Arc::new(Mutex::new(sk.handle(pid, FLUSH_EVERY)));
        for j in 0..ops_per_obs {
            let v = value_stream(pid, j, max);
            let amount = 1 + j % 2;
            writes += amount;
            d.submit_task(
                pid,
                specs::quantile_observe(v, amount),
                QuantileObserveTask::new(h.clone(), v, amount),
            );
        }
    }
    let reader = observers;
    let h: SharedQuantileHandle = Arc::new(Mutex::new(sk.handle(reader, FLUSH_EVERY)));
    let mut reads = 0u64;
    for i in 0..reads_per_reader {
        reads += 1;
        match i % 4 {
            0 => d.submit_task(
                reader,
                specs::quantile_read(1, 2),
                QuantileValueTask::new(h.clone(), 1, 2),
            ),
            1 => d.submit_task(
                reader,
                specs::quantile_read(95, 100),
                QuantileValueTask::new(h.clone(), 95, 100),
            ),
            2 => d.submit_task(
                reader,
                specs::quantile_read(99, 100),
                QuantileValueTask::new(h.clone(), 99, 100),
            ),
            _ => d.submit_task(reader, specs::rank(256), RankTask::new(h.clone(), 256)),
        }
    }
    (writes, reads)
}

fn run_quantile(backend: Backend, n: usize, ops_per_obs: u64) -> Sample {
    assert!(n >= 2, "need an observer and a reader");
    let observers = n - 1;
    let cfg = QuantileConfig {
        n,
        k: K,
        base: 2,
        max_value: 1 << 16,
    };
    let sk = QuantileSketch::new(cfg);
    let reads_per_reader = 8;

    let (history, writes, reads, millis) = match backend {
        Backend::Coop => {
            let mut d = Driver::coop(Runtime::coop(n));
            let (w, r) = submit_quantile(&mut d, &sk, observers, ops_per_obs, reads_per_reader);
            let start = Instant::now();
            d.run_schedule(&mut RoundRobin::new());
            let millis = start.elapsed().as_secs_f64() * 1e3;
            (d.take_history(), w, r, millis)
        }
        Backend::Thread => {
            let mut d = Driver::new(Runtime::free_running(n));
            let start = Instant::now();
            let (w, r) = submit_quantile(&mut d, &sk, observers, ops_per_obs, reads_per_reader);
            d.wait_all();
            let millis = start.elapsed().as_secs_f64() * 1e3;
            (d.take_history(), w, r, millis)
        }
    };

    let env = SketchEnvelope::new(K, observers as u64).with_buffer_slack(FLUSH_EVERY - 1);
    sketchlog::check_quantile_records(&history, &env, 2)
        .unwrap_or_else(|e| panic!("quantile {}/{n}: {e}", backend.name()));

    // Quiescent per-bucket shadow check (observers all share buckets).
    let totals = exact_totals(&history, sketchlog::QUANTILE_OBSERVE);
    let w = observers as u128;
    let slack = w * u128::from(FLUSH_EVERY - 1);
    for i in 0..sk.num_buckets() {
        let f: u128 = totals
            .iter()
            .filter(|(&v, _)| sk.bucket_of(v) == i)
            .map(|(_, &amt)| amt)
            .sum();
        let peek = sk.bucket(i).peek_approx_value();
        assert!(
            peek <= u128::from(K) * f,
            "bucket {i}: peek {peek} above k x exact {f}"
        );
        assert!(
            f <= (w + 1) * peek + slack,
            "bucket {i}: exact {f} above (w+1) x peek {peek} + slack"
        );
    }

    let (read_steps, read_steps_avg) = read_steps(&history, sketchlog::QUANTILE_READ);
    Sample {
        object: "quantile",
        backend: backend.name(),
        n,
        partitions: sk.num_buckets(),
        keys: sk.num_buckets(),
        writes,
        reads,
        millis,
        runs: 1,
        read_steps,
        read_steps_avg,
    }
}

/// Run config `index` of the grid in a fresh child process; a child
/// that fails (a check inside it, or a crash) fails the run.
fn run_child(configs: &[Config], index: usize) -> Sample {
    let c = configs[index];
    let [partitions, keys, writes, reads, read_steps, read_steps_avg, millis, runs] =
        bench::run_child("exp_sketch", index, &c.label());
    Sample {
        object: match c.object {
            Object::TopK { .. } => "topk",
            Object::Quantile => "quantile",
        },
        backend: c.backend.name(),
        n: c.n,
        partitions: partitions as usize,
        keys: keys as usize,
        writes: writes as u64,
        reads: reads as u64,
        millis,
        runs: runs as usize,
        read_steps: read_steps as u64,
        read_steps_avg,
    }
}

fn main() {
    let configs = grid();
    // Child mode (internal): run one config, print one machine line.
    if let Some(index) = bench::child_index(configs.len()) {
        let c = configs[index];
        let mut first = None;
        let (_, millis, runs) = bench::median_run(&c.label(), || {
            let s = c.run();
            let run = (s.repeatable(), s.millis);
            first.get_or_insert(s);
            run
        });
        let s = first.expect("median_run runs at least once");
        println!(
            "RESULT {} {} {} {} {} {} {millis} {runs}",
            s.partitions, s.keys, s.writes, s.reads, s.read_steps, s.read_steps_avg
        );
        return;
    }
    bench::no_arguments("exp_sketch");

    let mut samples = Vec::new();
    for (index, c) in configs.iter().enumerate() {
        let s = run_child(&configs, index);
        eprintln!(
            "done: {}: {:.0} writes/s, {} read ≈ {:.0} steps",
            c.label(),
            s.writes_per_sec(),
            s.object,
            s.read_steps_avg
        );
        samples.push(s);
    }

    // The acceptance bar: ≥ 4 topk n×S configurations per backend, all
    // checked (the checkers above panicked otherwise).
    for b in ["thread", "coop"] {
        let count = samples
            .iter()
            .filter(|s| s.object == "topk" && s.backend == b)
            .count();
        assert!(count >= 4, "only {count} topk configs on the {b} backend");
    }

    let mut table = Table::new([
        "object",
        "backend",
        "n",
        "parts",
        "keys",
        "writes",
        "reads",
        "ms",
        "runs",
        "writes/s",
        "read steps",
    ]);
    for s in &samples {
        table.row([
            s.object.to_string(),
            s.backend.to_string(),
            s.n.to_string(),
            s.partitions.to_string(),
            s.keys.to_string(),
            s.writes.to_string(),
            s.reads.to_string(),
            f2(s.millis),
            s.runs.to_string(),
            format!("{:.0}", s.writes_per_sec()),
            format!("{:.1}", s.read_steps_avg),
        ]);
    }

    println!("EXP-SKETCH — approximate aggregation over k-multiplicative primitives");
    println!("thread = free-running native speed; coop = gated round-robin virtual procs.");
    println!("every recorded read checked against the composed rank-error envelope;");
    println!("per-key counters shadow-checked against exact totals after quiescence.");
    println!("each config runs in its own process; ms is the median of `runs` runs.");
    table.print("sketch workloads");

    let mut report = Report::new("sketch_workloads", "full");
    for s in &samples {
        report.row(s.row());
    }
    report.write("BENCH_sketch.json");
}
