//! EXP-PAPER — the paper's claims, regenerated and asserted by one
//! table-driven binary (EXPERIMENTS.md lists the claims and what each
//! asserts).
//!
//! Each entry of [`CLAIMS`] is a claim id, its anchor in the paper and
//! the function that prints the claim's tables, checks the shape the
//! paper predicts (constants stated next to each check) and pins the
//! claim's counts. Every claim runs on a deterministic executor: solo
//! operations on the calling thread, gated coop under round-robin
//! (`t311`), or free-running coop with its fixed batch order (the mixed
//! workloads of `t39`, `length` and `tradeoff`). Two runs print the same
//! tables and write the same `BENCH_paper.json`.
//!
//! A breach is printed to stderr with the claim, the table row and the
//! property that failed, and the bin exits 1 after writing
//! `BENCH_paper.json` (cwd). Its rows are identified by `claim`,
//! `object` and the sizes (`n`, `k`, `operations`, `m_bits`, `v_bits`);
//! each carries one count ending in `_steps` or `_objects`, which
//! `bench_diff` compares exactly.
//!
//! Run: `cargo run --release -p bench --bin exp_paper` runs every claim
//! (about 4 minutes on a 2-core host, most of it `t54`'s AACH rows);
//! `exp_paper t42 t52` runs only the named claims, in table order. Any
//! other argument exits 2 with a usage line.

use approx_objects::accuracy::within_k;
use approx_objects::{
    arith, KaddCounter, KaddIncTask, KaddReadTask, KmultBoundedMaxRegister, KmultCounter,
    KmultIncTask, KmultReadTask, KmultUnboundedMaxRegister, SharedKaddHandle, SharedKmultHandle,
};
use bench::emit::{mode_str, Report, Row};
use bench::tables::{f2, Table};
use bench::{ceil_sqrt, log2f};
use counter::{
    AachCounter, AachIncTask, AachReadTask, CollectCounter, CollectIncTask, CollectReadTask,
    SnapshotCounter, SnapshotIncTask, SnapshotReadTask, UnboundedTreeCounter, UnboundedTreeIncTask,
    UnboundedTreeReadTask,
};
use maxreg::{
    AdaptiveMaxRegister, CollectMaxRegister, MaxRegister, TreeMaxRegister, UnboundedMaxRegister,
};
use parking_lot::Mutex;
use perturb::awareness::AwarenessReport;
use perturb::counter::{perturb_counter, CounterPerturbConfig, KmultTarget};
use perturb::maxreg::{perturb_maxreg, MaxRegTarget, PerturbConfig};
use smr::sched::RoundRobin;
use smr::{Driver, OpSpec, OpTask, ProcCtx, Runtime};
use std::sync::Arc;
use std::time::Instant;

/// A claim: (id, anchor in the paper, run).
type Claim = (&'static str, &'static str, fn(&mut Ledger));

/// The claims, in run order.
const CLAIMS: [Claim; 9] = [
    ("t39", "Theorem III.9", t39),
    ("t311", "Theorem III.11, Lemma III.10, Cor. III.10.1", t311),
    ("fig1", "Figure 1 / Claim III.6", fig1),
    ("length", "Theorem III.9, arbitrary length", length),
    ("t42", "Theorem IV.2", t42),
    ("t52", "Theorem V.2 / Lemma V.1", t52),
    ("t54", "Theorem V.4 / Lemma V.3", t54),
    ("ext", "§IV extension", ext),
    ("tradeoff", "§I-A ablation", tradeoff),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = CLAIMS.iter().map(|c| c.0).collect();
    if let Some(arg) = args.iter().find(|a| !ids.contains(&a.as_str())) {
        eprintln!(
            "exp_paper: unexpected argument {arg:?}\nusage: exp_paper [ID]...  (ids: {})",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let selected: Vec<_> = CLAIMS
        .iter()
        .filter(|c| args.is_empty() || args.iter().any(|a| a == c.0))
        .collect();

    let mut ledger = Ledger {
        claim: "",
        report: Report::new("paper_claims", mode_str(selected.len() < CLAIMS.len())),
        breaches: 0,
    };
    for (i, &&(id, anchor, run)) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("### {id} — {anchor}\n");
        let start = Instant::now();
        ledger.claim = id;
        run(&mut ledger);
        let secs = start.elapsed().as_secs_f64();
        eprintln!("exp_paper: {id} took {secs:.1} s");
    }
    ledger.report.write("BENCH_paper.json");
    if ledger.breaches > 0 {
        eprintln!(
            "exp_paper: {} breach(es), see BREACH lines above",
            ledger.breaches
        );
        std::process::exit(1);
    }
}

/// What the claims leave behind: the `BENCH_paper.json` rows they pin
/// and how many assertions they breached.
struct Ledger {
    /// Id of the running claim.
    claim: &'static str,
    report: Report,
    breaches: usize,
}

impl Ledger {
    /// Pin `count = value` for `object` of the running claim, measured
    /// at `sizes` (the row's identity).
    fn pin(&mut self, object: &str, sizes: &[(&str, u64)], count: &str, value: u64) {
        let mut row = Row::new().str("claim", self.claim).str("object", object);
        for &(name, size) in sizes {
            row = row.int(name, size);
        }
        self.report.row(row.int(count, value));
    }

    /// Report a breach of the running claim at table row `at` unless
    /// `holds`; `property` states what must hold (the row's measured
    /// values are in the printed table).
    fn check(&mut self, holds: bool, at: &str, property: &str) {
        if !holds {
            eprintln!(
                "exp_paper: BREACH {} [{at}]: expected {property}",
                self.claim
            );
            self.breaches += 1;
        }
    }
}

// Mixed increment/read workloads (t39, length, tradeoff).

/// One read per this many operations, the rest increments.
const READ_EVERY: u64 = 16;

/// Operations each process submits before the driver drains them all.
/// A batch boundary is a barrier. Batches bound the tasks and history
/// records held at once: submitted up front, `length`'s 10⁶-operation
/// rows peaked at 450 MiB, in batches at 142 MiB.
const BATCH: u64 = 1024;

/// A mixed workload's outcome.
struct Mixed {
    ops: u64,
    incs: u64,
    /// Steps of the workload's operations; the final read is excluded.
    steps: u64,
    /// A quiescent read by process 0 after the workload.
    final_read: u128,
}

impl Mixed {
    /// Steps per operation: the execution's amortized step complexity.
    fn amortized(&self) -> f64 {
        self.steps as f64 / self.ops as f64
    }
}

/// Run `n` processes free on coop, each performing `per_proc`
/// operations in batches of `BATCH` — every `READ_EVERY`-th a read built
/// by `read(pid)`, the rest increments built by `inc(pid)` — then one
/// quiescent read by process 0.
fn mixed<I, R>(
    n: usize,
    per_proc: u64,
    inc: impl Fn(usize) -> I,
    read: impl Fn(usize) -> R,
) -> Mixed
where
    I: OpTask + 'static,
    R: OpTask + 'static,
{
    let rt = Runtime::coop_free(n);
    let mut d = Driver::coop_free(rt.clone());
    for first in (1..=per_proc).step_by(BATCH as usize) {
        for pid in 0..n {
            for i in first..(first + BATCH).min(per_proc + 1) {
                if i % READ_EVERY == 0 {
                    d.submit_task(pid, OpSpec::read(), read(pid));
                } else {
                    d.submit_task(pid, OpSpec::inc(), inc(pid));
                }
            }
        }
        d.wait_all();
        d.take_history();
    }
    let steps = rt.total_steps();
    d.submit_task(0, OpSpec::read(), read(0));
    d.wait_all();
    let last = d.history().ops().last().expect("the final read completed");
    Mixed {
        ops: per_proc * n as u64,
        incs: (per_proc - per_proc / READ_EVERY) * n as u64,
        steps,
        final_read: last.kind.returned(),
    }
}

/// One shared Algorithm 1 handle per process, as its task forms take them.
fn kmult_handles(c: &Arc<KmultCounter>) -> Vec<SharedKmultHandle> {
    (0..c.n())
        .map(|p| Arc::new(Mutex::new(c.handle(p))))
        .collect()
}

/// Algorithm 1 at accuracy `k`; the counter comes back for its switch
/// frontier.
fn kmult_mixed(n: usize, k: u64, per_proc: u64) -> (Mixed, Arc<KmultCounter>) {
    let c = KmultCounter::new(n, k);
    let h = kmult_handles(&c);
    let inc = |p: usize| KmultIncTask::new(h[p].clone());
    let run = mixed(n, per_proc, inc, |p| KmultReadTask::new(h[p].clone()));
    (run, c)
}

/// Algorithm 1 at accuracy `k` and the exact baselines — collect, AACH
/// (bounded by twice the operation count, at least 2²⁰) and the
/// long-lived tree — under the same mixed workload, every run pinned.
/// Returns kmult's run, its switch frontier and the baselines' steps/op.
fn counters(l: &mut Ledger, n: usize, k: u64, per_proc: u64) -> (Mixed, u64, [f64; 3]) {
    let (kmult, c) = kmult_mixed(n, k, per_proc);
    let mut frontier = 0;
    while c.peek_switch(frontier) {
        frontier += 1;
    }
    let collect = Arc::new(CollectCounter::new(n));
    let aach = Arc::new(AachCounter::new(n, (kmult.ops * 2).max(1 << 20)));
    let tree = Arc::new(UnboundedTreeCounter::new(n));
    let baselines = [
        mixed(
            n,
            per_proc,
            |_| CollectIncTask::new(collect.clone()),
            |_| CollectReadTask::new(collect.clone()),
        ),
        mixed(
            n,
            per_proc,
            |p| AachIncTask::new(aach.clone(), p),
            |_| AachReadTask::new(aach.clone()),
        ),
        mixed(
            n,
            per_proc,
            |p| UnboundedTreeIncTask::new(tree.clone(), p),
            |_| UnboundedTreeReadTask::new(tree.clone()),
        ),
    ];
    let sizes = [("n", n as u64), ("k", k), ("operations", kmult.ops)];
    l.pin("kmult", &sizes, "workload_steps", kmult.steps);
    for (object, run) in ["collect", "aach", "longlived"].iter().zip(&baselines) {
        let sizes = [("n", n as u64), ("operations", run.ops)];
        l.pin(object, &sizes, "workload_steps", run.steps);
    }
    (kmult, frontier, baselines.map(|run| run.amortized()))
}

/// `t39`: kmult's steps/op may vary across n by at most this factor.
/// Theorem III.9 bounds it by a constant independent of n; the
/// measured spread from n = 2 to 64 is 1.7×.
const FLAT_SPREAD: f64 = 2.0;

fn t39(l: &mut Ledger) {
    let ops: u64 = 40_000;
    let mut table = Table::new([
        "n",
        "k=⌈√n⌉",
        "kmult",
        "collect",
        "aach",
        "longlived",
        "kmult final read",
        "accuracy v/x",
    ]);
    let (mut lo, mut hi, mut prev_collect) = (f64::INFINITY, 0f64, 0.0);
    for n in [2usize, 4, 8, 16, 32, 64] {
        let k = ceil_sqrt(n as u64);
        let (kmult, _, [collect, aach, longlived]) = counters(l, n, k, ops / n as u64);
        let (cost, v, x) = (kmult.amortized(), u128::from(kmult.incs), kmult.final_read);

        let at = format!("n={n}");
        l.check(within_k(v, x, k), &at, "quiescent read in [v/k, v·k]");
        l.check(cost < collect, &at, "kmult steps/op < collect's");
        l.check(collect > prev_collect, &at, "collect to grow with n");
        (lo, hi, prev_collect) = (lo.min(cost), hi.max(cost), collect);

        table.row([
            n.to_string(),
            k.to_string(),
            f2(cost),
            f2(collect),
            f2(aach),
            f2(longlived),
            x.to_string(),
            f2(v as f64 / (x as f64).max(1.0)),
        ]);
    }
    let flat = format!("kmult steps/op within {FLAT_SPREAD}× across n");
    l.check(hi <= FLAT_SPREAD * lo, "all n", &flat);

    println!("EXP-T3.9 — amortized step complexity (steps/op), mixed workload");
    println!("paper claim: kmult column is O(1) for k ≥ √n (Theorem III.9);");
    println!("collect reads are Θ(n); AACH is Θ(log n · log v); the long-lived");
    println!("tree (Baig-et-al.-style substitute) is polylog. Fetch&add, outside");
    println!("the model, costs exactly 1 step/op by construction (pinned by");
    println!("counter::fetch_add's unit test). accuracy v/x must lie in [1/k, k].");
    table.print("steps per operation vs n");
}

fn length(l: &mut Ledger) {
    let n = 8usize;
    let k = 3u64; // ⌈√8⌉
    let mut table = Table::new([
        "total ops",
        "kmult steps/op",
        "collect steps/op",
        "aach steps/op",
        "longlived steps/op",
        "kmult switch frontier",
    ]);
    // Interval q of the switches holds k switches and fills after about
    // k^(q+1) increments, so a tenfold longer execution moves the
    // frontier by about k·log_k 10 switches.
    let per_decade = (k as f64 * 10f64.ln() / (k as f64).ln()).ceil() as u64;
    let moved = format!("the switch frontier to move ≤ {per_decade} per decade");
    let (mut prev_cost, mut prev_frontier) = (f64::INFINITY, u64::MAX);
    for exp in [3u32, 4, 5, 6] {
        let (kmult, frontier, [collect, aach, longlived]) =
            counters(l, n, k, 10u64.pow(exp) / n as u64);

        let (at, cost) = (format!("10^{exp}"), kmult.amortized());
        l.check(cost <= prev_cost, &at, "kmult steps/op never to rise");
        let bounded = frontier <= prev_frontier.saturating_add(per_decade);
        l.check(bounded, &at, &moved);
        (prev_cost, prev_frontier) = (cost, frontier);

        table.row([
            format!("10^{exp}"),
            f2(cost),
            f2(collect),
            f2(aach),
            f2(longlived),
            frontier.to_string(),
        ]);
    }

    println!("EXP-LENGTH — amortized steps/op vs execution length (n = {n}, k = {k})");
    println!("paper claim: Algorithm 1's O(1) amortized bound holds for executions");
    println!("of arbitrary length — announcements get geometrically rarer (the");
    println!("switch frontier grows only logarithmically in the op count), while");
    println!("AACH's per-op polylog(count) cost creeps upward.");
    table.print("amortized step complexity vs execution length");
}

fn tradeoff(l: &mut Ledger) {
    let n = 16usize;
    let ops_per: u64 = 20_000;
    let mut table = Table::new([
        "k",
        "k ≥ √n?",
        "kmult steps/op",
        "kmult quiescent ratio (≤ k)",
        "kadd steps/op",
        "kadd quiescent |err| (≤ k)",
    ]);

    for k in [2u64, 4, 8, 16, 64, 256, 1024] {
        let (mult, _) = kmult_mixed(n, k, ops_per);
        let add = {
            let c = KaddCounter::new(n, k);
            let h: Vec<SharedKaddHandle> =
                (0..n).map(|p| Arc::new(Mutex::new(c.handle(p)))).collect();
            let inc = |p: usize| KaddIncTask::new(h[p].clone());
            mixed(n, ops_per, inc, |_| KaddReadTask::new(c.clone()))
        };
        let ratio = mult.incs as f64 / mult.final_read as f64;
        let mult_err = if ratio < 1.0 { 1.0 / ratio } else { ratio };
        let add_err = u128::from(add.incs).abs_diff(add.final_read);
        let legal = k * k >= n as u64;

        let at = format!("k={k}");
        let (mult_cost, add_cost) = (mult.amortized(), add.amortized());
        let accurate = !legal || mult_err <= k as f64;
        l.check(accurate, &at, "kmult ratio ≤ k for k ≥ √n");
        l.check(add_err <= u128::from(k), &at, "kadd |err| ≤ k");
        l.check(mult_cost < add_cost, &at, "kmult steps/op below kadd's");
        for (object, run) in [("kmult", &mult), ("kadd", &add)] {
            let sizes = [("n", n as u64), ("k", k), ("operations", run.ops)];
            l.pin(object, &sizes, "workload_steps", run.steps);
        }

        table.row([
            k.to_string(),
            if legal { "yes" } else { "no" }.to_string(),
            f2(mult_cost),
            f2(mult_err),
            f2(add_cost),
            f2(add_err as f64),
        ]);
    }

    println!("EXP-TRADEOFF — the relaxation knob at n = {n} (mixed workload,");
    println!("1 read per {READ_EVERY} ops). The multiplicative counter collapses");
    println!("to O(1) steps/op once k ≥ √n and gains nothing more; the additive");
    println!("counter's batching cheapens increments with k, but its reads stay");
    println!("Θ(n) — the structural asymmetry behind the paper's choice of the");
    println!("multiplicative relaxation.");
    table.print("relaxation tradeoff: multiplicative vs additive");
}

// Theorem III.11 and Figure 1 (Algorithm 1's lower bound and proof cases).

/// Run the one-increment-one-read workload, built by `inc_op(pid)` and
/// `read_op(pid)`, gated + traced; return (total steps, awareness
/// report).
fn one_shot_workload<I, R>(
    n: usize,
    inc_op: impl Fn(usize) -> I,
    read_op: impl Fn(usize) -> R,
) -> (u64, AwarenessReport)
where
    I: OpTask + 'static,
    R: OpTask + 'static,
{
    let rt = Runtime::coop(n);
    rt.enable_tracing();
    let mut driver = Driver::coop(rt.clone());
    for pid in 0..n {
        driver.submit_task(pid, OpSpec::inc(), inc_op(pid));
        driver.submit_task(pid, OpSpec::read(), read_op(pid));
    }
    let steps = driver.run_schedule(&mut RoundRobin::new());
    rt.disable_tracing();
    let trace = rt.take_trace();
    let report = perturb::awareness::compute(n, &trace);
    (steps, report)
}

fn t311(l: &mut Ledger) {
    let k: u64 = 2;

    // Part A + B: spec-compliant counters.
    let mut a = Table::new([
        "n",
        "k",
        "Ω: log₂(n/k²)",
        "collect",
        "aach",
        "snapshot",
        "kmult k=⌈√n⌉",
    ]);
    let mut b = Table::new([
        "n",
        "impl",
        "threshold n/2k²",
        "#procs ≥ threshold",
        "corollary needs",
    ]);

    for n in [16usize, 32, 64, 128] {
        let bound = log2f(n as f64 / (k * k) as f64);
        let ops = 2 * n as u64;
        let per_op = |steps: u64| steps as f64 / ops as f64;

        let collect = Arc::new(CollectCounter::new(n));
        let (collect_steps, collect_aw) = one_shot_workload(
            n,
            |_| CollectIncTask::new(collect.clone()),
            |_| CollectReadTask::new(collect.clone()),
        );
        let aach = Arc::new(AachCounter::new(n, 1 << 20));
        let (aach_steps, _) = one_shot_workload(
            n,
            |pid| AachIncTask::new(aach.clone(), pid),
            |_| AachReadTask::new(aach.clone()),
        );
        let snap = Arc::new(SnapshotCounter::new(n));
        let (snap_steps, _) = one_shot_workload(
            n,
            |_| SnapshotIncTask::new(snap.clone()),
            |_| SnapshotReadTask::new(snap.clone()),
        );
        // kmult at its legal k = ⌈√n⌉ (spec-compliant there).
        let legal_k = ceil_sqrt(n as u64);
        let h = kmult_handles(&KmultCounter::new(n, legal_k));
        let (kmult_steps, kmult_aw) = one_shot_workload(
            n,
            |pid| KmultIncTask::new(h[pid].clone()),
            |pid| KmultReadTask::new(h[pid].clone()),
        );

        let exact = [
            ("collect", collect_steps),
            ("aach", aach_steps),
            ("snapshot", snap_steps),
        ];
        for (object, steps) in exact {
            let at = format!("n={n} {object}");
            l.check(per_op(steps) >= bound, &at, "steps/op ≥ log₂(n/k²)");
            let sizes = [("n", n as u64), ("operations", ops)];
            l.pin(object, &sizes, "workload_steps", steps);
        }
        let sizes = [("n", n as u64), ("k", legal_k), ("operations", ops)];
        l.pin("kmult", &sizes, "workload_steps", kmult_steps);
        a.row([
            n.to_string(),
            k.to_string(),
            f2(bound),
            f2(per_op(collect_steps)),
            f2(per_op(aach_steps)),
            f2(per_op(snap_steps)),
            format!("{} (k={legal_k})", f2(per_op(kmult_steps))),
        ]);

        let collect_name = "collect (exact ⇒ k-mult for any k)".to_string();
        let kmult_name = format!("kmult (k={legal_k})");
        for (name, kk, aw) in [
            (collect_name, k, &collect_aw),
            (kmult_name, legal_k, &kmult_aw),
        ] {
            let threshold = (n as u64).div_ceil(2 * kk * kk) as usize;
            let aware = aw.processes_aware_of_at_least(threshold);
            let at = format!("n={n} {name}");
            l.check(aware >= n / 2, &at, "≥ n/2 aware of ≥ n/2k² others");
            b.row([
                n.to_string(),
                name,
                threshold.to_string(),
                aware.to_string(),
                format!("≥ {}", n / 2),
            ]);
        }
    }

    println!("EXP-T3.11 — the Ω(log(n/k²)) amortized lower bound (k ≤ √n/2)");
    println!("workload: every process runs one increment then one read, gated");
    println!("round-robin. All spec-compliant implementations must sit above");
    println!("the Ω column; Algorithm 1 at its legal k = ⌈√n⌉ may sit below —");
    println!("it satisfies a weaker spec (k ≥ √n), outside the bound's regime.");
    a.print("(A) measured steps/op vs the lower bound (k = 2)");

    println!("\ncorollary III.10.1: after the workload, ≥ n/2 processes must be");
    println!("aware of ≥ n/2k² processes (awareness per Definition III.2).");
    b.print("(B) awareness sets");

    // Part C: running Algorithm 1 below its legal k breaks accuracy.
    let mut c_table = Table::new([
        "n",
        "illegal k",
        "√n",
        "quiescent v",
        "read x",
        "v/x",
        "k-accurate?",
    ]);
    for n in [16usize, 64, 256] {
        let illegal_k: u64 = 2;
        let rt = Runtime::free_running(n);
        let c = KmultCounter::new(n, illegal_k);
        let mut handles: Vec<_> = (0..n).map(|p| c.handle(p)).collect();
        // Each process: one increment (some announce, most stay local).
        for (pid, h) in handles.iter_mut().enumerate() {
            h.increment(&rt.ctx(pid));
        }
        let x = handles[0].read(&rt.ctx(0));
        let v = n as u128;
        let ok = within_k(v, x, illegal_k);
        l.check(!ok, &format!("n={n}"), "a k-accuracy violation at k < √n");
        c_table.row([
            n.to_string(),
            illegal_k.to_string(),
            f2((n as f64).sqrt()),
            v.to_string(),
            x.to_string(),
            f2(v as f64 / x as f64),
            if ok { "yes" } else { "NO — spec violated" }.to_string(),
        ]);
    }
    println!("\nwhy small k escapes nothing: Algorithm 1 forced to k < √n stops");
    println!("being a k-multiplicative counter at all (v/x exceeds k).");
    c_table.print("(C) Algorithm 1 outside its premise");
}

fn fig1(l: &mut Ledger) {
    const K: u64 = 4;
    // (name, description, (pid, increments) batches applied in order).
    type Scenario = (&'static str, &'static str, &'static [(usize, u64)]);
    let scenarios: [Scenario; 3] = [
        (
            "case a",
            "interval 1 full; first switch of interval 2 unset (p=0, q=1)",
            // One process announces k times within interval 1 (k incs
            // per announcement): switches 1..=4 all set.
            &[(0, 1), (0, K * K)],
        ),
        (
            "case b.2",
            "only the first switch of interval 1 set (p=1, q=0)",
            // switch_0 (1 inc), then one announcement in interval 1.
            &[(0, 1), (0, K)],
        ),
        (
            "case b.1",
            "first AND a middle switch of interval 1 set — same read outcome as b.2",
            // p0 sets switch_0 and switch_1; p1's first inc loses
            // switch_0, then k more incs: attempts switch_1 (set), wins
            // switch_2.
            &[(0, 1), (0, K), (1, 1 + K)],
        ),
    ];

    let mut table = Table::new([
        "scenario",
        "switch prefix",
        "(p, q)",
        "true count v",
        "read x",
        "u_min",
        "u_max",
        "v ∈ [u_min, u_max]?",
        "x = k·u_min?",
    ]);

    // (p, q, x, v) of each case, for the b.1/b.2 comparison.
    let mut outcomes = Vec::new();
    for (name, description, batches) in scenarios {
        let n = 2;
        let rt = Runtime::free_running(n);
        let counter = KmultCounter::new(n, K);
        let mut handles: Vec<_> = (0..n).map(|p| counter.handle(p)).collect();
        let mut v: u128 = 0;
        for &(pid, incs) in batches {
            let ctx = rt.ctx(pid);
            for _ in 0..incs {
                handles[pid].increment(&ctx);
                v += 1;
            }
        }

        let prefix: String = (0..10)
            .map(|j| if counter.peek_switch(j) { '1' } else { '0' })
            .collect();

        let o = handles[0].read_detailed(&rt.ctx(0));
        let umin = arith::u_min(o.p, o.q, K);
        let umax = arith::u_max(o.p, o.q, K, n);
        let in_envelope = umin <= v && v <= umax;
        let is_k_umin = o.value == u128::from(K) * umin;
        let envelope = in_envelope && is_k_umin;
        l.check(envelope, name, "v in [u_min, u_max], x = k·u_min");
        outcomes.push((o.p, o.q, o.value, v));

        table.row([
            name.to_string(),
            prefix,
            format!("({}, {})", o.p, o.q),
            v.to_string(),
            o.value.to_string(),
            umin.to_string(),
            umax.to_string(),
            in_envelope.to_string(),
            is_k_umin.to_string(),
        ]);
        println!("{name}: {description}");
    }
    let ((p2, q2, x2, v2), (p1, q1, x1, v1)) = (outcomes[1], outcomes[2]);
    let alike = (p1, q1, x1) == (p2, q2, x2) && v1 != v2;
    l.check(alike, "b.1 vs b.2", "same (p, q) and x, different v");

    println!("\nEXP-F1 — Figure 1's switch-state cases (k = {K}, n = 2)");
    println!("claim III.6: a read returning ReturnValue(p, q) = k·u_min has");
    println!("between u_min and u_max increments linearized before it. Note");
    println!("b.1 and b.2 produce the same (p, q) and the same return value");
    println!("from different true counts — the reader cannot distinguish them.");
    table.print("switch states and the Claim III.6 envelope");
}

// Max registers: Theorem IV.2 and the §IV extension.

/// The most steps one process takes for a `write(v)` + `read()` pair as
/// v sweeps the magnitudes 1, 2, 4, …, m − 1 through one running
/// register. (A fresh register per magnitude would under-count the
/// read's walk.)
fn worst_pair<T: MaxRegTarget>(reg: &T) -> u64 {
    let m = reg.m();
    let rt = Runtime::free_running(1);
    let ctx = rt.ctx(0);
    let mut worst = 0;
    let mut v = 1u64;
    loop {
        let s0 = ctx.steps_taken();
        reg.write(&ctx, v.min(m - 1));
        let _ = reg.read(&ctx);
        worst = worst.max(ctx.steps_taken() - s0);
        if v >= m - 1 {
            return worst;
        }
        v = v.saturating_mul(2);
    }
}

/// Theorem IV.2's constant, from the transcription in
/// `core/src/kmaxreg.rs`: Algorithm 2 performs one operation on an
/// exact max register over `⌊log_k(m−1)⌋ + 2 = log_k m + 1` magnitude
/// indices (m a power of k). With n = 64 that register takes its tree
/// arm, whose operations over that many values cost at most
/// `⌈log₂(log_k m + 1)⌉ ≤ ⌈log₂ log_k m⌉ + 1` steps. A write plus a read
/// therefore costs at most `C·⌈log₂ log_k m⌉ + C` with `C = 2`.
const T42_C: u64 = 2;

fn t42(l: &mut Ledger) {
    let mut table = Table::new([
        "m",
        "log₂ m",
        "exact (n=64)",
        "kmult k=2",
        "kmult k=4",
        "kmult k=16",
        "log₂log₂m",
        "exact n=4 (min arm)",
    ]);
    let within = format!("kmult worst pair ≤ {T42_C}·⌈log₂ log_k m⌉ + {T42_C}");

    let mut adaptive_first = None;
    for bits in [8u32, 16, 24, 32, 40, 48, 56, 60] {
        let (m, at, mb) = (1u64 << bits, format!("m=2^{bits}"), u64::from(bits));

        let exact = worst_pair(&TreeMaxRegister::new(m));
        l.check(exact == 2 * mb, &at, "exact tree worst pair = 2·log₂ m");
        l.pin("tree", &[("m_bits", mb)], "worst_steps", exact);

        let kmult = [2u64, 4, 16].map(|k| {
            let worst = worst_pair(&KmultBoundedMaxRegister::new(64, m, k));
            // ⌈log₂ log_k m⌉; log_k m is a whole number on this grid.
            let log_log = u64::from((mb / u64::from(k.ilog2())).next_power_of_two().ilog2());
            let bounded = worst <= T42_C * log_log + T42_C;
            l.check(bounded, &format!("{at} k={k}"), &within);
            let sizes = [("n", 64), ("k", k), ("m_bits", mb)];
            l.pin("kmult", &sizes, "worst_steps", worst);
            worst
        });

        let adaptive = worst_pair(&AdaptiveMaxRegister::new(4, m));
        let first = *adaptive_first.get_or_insert(adaptive);
        l.check(adaptive == first, &at, "n = 4 adaptive constant in m");
        let sizes = [("n", 4), ("m_bits", mb)];
        l.pin("adaptive", &sizes, "worst_steps", adaptive);

        table.row([
            format!("2^{bits}"),
            bits.to_string(),
            exact.to_string(),
            kmult[0].to_string(),
            kmult[1].to_string(),
            kmult[2].to_string(),
            f2(log2f(bits as f64)),
            adaptive.to_string(),
        ]);
    }

    println!("EXP-T4.2 — worst-case steps per (write+read) pair vs bound m");
    println!("paper claim: exact registers pay Θ(log₂ m); the k-multiplicative");
    println!("register pays O(min(log₂ log_k m, n)) — doubling m's bits adds a");
    println!("constant, not a doubling (Theorem IV.2; optimal by Theorem V.2).");
    table.print("worst-case step complexity vs m");
}

/// Processes of the `ext` registers.
const EXT_N: usize = 64;

fn ext(l: &mut Ledger) {
    // (object, k, a fresh register's `write(v)` then `read()`).
    type WriteRead = fn(&ProcCtx, u64);
    let columns: [(&str, Option<u64>, WriteRead); 4] = [
        ("chain", None, |c, v| {
            let reg = UnboundedMaxRegister::new();
            reg.write(c, v);
            let _ = reg.read(c);
        }),
        ("kmult", Some(2), |c, v| {
            let reg = KmultUnboundedMaxRegister::new(EXT_N, 2);
            reg.write(c, v);
            let _ = reg.read(c);
        }),
        ("kmult", Some(16), |c, v| {
            let reg = KmultUnboundedMaxRegister::new(EXT_N, 16);
            reg.write(c, v);
            let _ = reg.read(c);
        }),
        ("collect", None, |c, v| {
            let reg = CollectMaxRegister::new(EXT_N);
            reg.write(c, v);
            let _ = reg.read(c);
        }),
    ];
    let mut table = Table::new([
        "value v",
        "log₂ v",
        "log₂ log₂ v",
        "exact chain",
        "kmult k=2",
        "kmult k=16",
        "collect (O(n), n=64)",
    ]);

    let (mut prev_chain, mut kmult_at_2_16) = (0, None);
    for bits in [4u32, 8, 16, 24, 32, 40, 48, 56, 62] {
        let steps = columns.map(|(_, _, write_read)| {
            let rt = Runtime::free_running(EXT_N);
            write_read(&rt.ctx(0), 1u64 << bits);
            rt.steps_of(0)
        });

        let (at, vb, chain) = (format!("v=2^{bits}"), u64::from(bits), steps[0]);
        let grows = chain >= prev_chain && chain >= vb;
        l.check(grows, &at, "exact chain non-decreasing, ≥ log₂ v");
        prev_chain = chain;
        if bits >= 16 {
            let flat = *kmult_at_2_16.get_or_insert([steps[1], steps[2]]);
            let now = [steps[1], steps[2]];
            l.check(now == flat, &at, "kmult columns flat from 2^16 on");
        }
        for ((object, k, _), s) in columns.iter().zip(steps) {
            let sizes: Vec<_> = [("v_bits", vb)]
                .into_iter()
                .chain(k.map(|k| ("k", k)))
                .collect();
            l.pin(object, &sizes, "pair_steps", s);
        }

        table.row([
            format!("2^{bits}"),
            bits.to_string(),
            f2(log2f(bits as f64)),
            steps[0].to_string(),
            steps[1].to_string(),
            steps[2].to_string(),
            steps[3].to_string(),
        ]);
    }

    println!("EXP-EXT — unbounded max registers: steps for one write + one read");
    println!("paper claim (§IV closing remark): plugging the bounded k-mult");
    println!("register into an unbounded construction gives sub-logarithmic");
    println!("cost — the kmult columns grow like log₂ log_k v while the exact");
    println!("chain grows like log₂ v.");
    table.print("steps per (write+read) vs value magnitude");
}

// Perturbation lower bounds: Theorems V.2 and V.4.

/// The cells every perturbation row shows — rounds L, the Ω column
/// log₂ L, the reader's most distinct base objects, whether every round
/// perturbed the reader — after checking what both theorems rest on:
/// every round perturbs the reader, and the reader touches at least
/// log₂ L objects.
fn perturbation_cells(
    l: &mut Ledger,
    at: &str,
    rounds: u64,
    objects: usize,
    every_round: bool,
) -> [String; 4] {
    let omega = log2f(rounds as f64);
    l.check(every_round, at, "every round to perturb the reader");
    l.check(objects as f64 >= omega, at, "reader objects ≥ log₂ L");
    [
        rounds.to_string(),
        f2(omega),
        objects.to_string(),
        every_round.to_string(),
    ]
}

/// `t52`: Algorithm 2's reader touches at most log₂ L + this many
/// objects. It walks the magnitude register's tree over
/// `log_k m + 1 = 2L + 1` indices: `⌈log₂(2L + 1)⌉ ≤ log₂ L + 2` switches
/// on the grid below.
const T52_SLACK: f64 = 2.0;

fn t52(l: &mut Ledger) {
    let writers = 256;
    let mut table = Table::new([
        "m",
        "k",
        "rounds L",
        "Ω: log₂ L",
        "reader distinct objs",
        "every round perturbed",
        "stop cause",
    ]);
    let near = format!("the reader to touch ≤ log₂ L + {T52_SLACK} objects");

    for bits in [16u32, 32, 48, 60] {
        let (m, mb) = (1u64 << bits, u64::from(bits));
        let cfg = |factor| PerturbConfig {
            writers,
            factor,
            max_rounds: 512,
        };
        // The exact register takes +1 perturbations capped at `writers`
        // rounds (its L = m−1 is astronomically larger; the cap realizes
        // the min(·, n) arm); Algorithm 2 takes ×k² jumps.
        let exact = (None, perturb_maxreg(&TreeMaxRegister::new(m), cfg(1)));
        let kmult = [2u64, 4].map(|k| {
            let reg = KmultBoundedMaxRegister::new(writers + 1, m, k);
            (Some(k), perturb_maxreg(&reg, cfg(k * k)))
        });

        for (k, r) in [exact].into_iter().chain(kmult) {
            let label = k.map_or("exact".to_string(), |k| k.to_string());
            let at = format!("m=2^{bits} k={label}");
            let (rounds, objects) = (r.rounds_achieved(), r.max_distinct_objects());
            let (object, sizes) = match k {
                None => ("tree", vec![("m_bits", mb)]),
                Some(k) => ("kmult", vec![("k", k), ("m_bits", mb)]),
            };
            l.pin(object, &sizes, "reader_objects", objects as u64);
            let cells = perturbation_cells(l, &at, rounds, objects, r.every_round_perturbed);
            match k {
                None => l.check(objects as u64 == mb, &at, "reader objects = log₂ m"),
                Some(k) => {
                    // L = log_{k²} m: v_r = k²·v_{r−1} + 1 passes m − 1
                    // exactly then on this grid.
                    let on_bound = r.value_exhausted && rounds == mb / (2 * u64::from(k.ilog2()));
                    l.check(on_bound, &at, "to stop on the bound m at L = log_{k²} m");
                    let near_bound = objects as f64 <= log2f(rounds as f64) + T52_SLACK;
                    l.check(near_bound, &at, &near);
                }
            }
            table.row(
                [format!("2^{bits}"), label]
                    .into_iter()
                    .chain(cells)
                    .chain([stop_cause(r.saturated, r.value_exhausted)]),
            );
        }
    }

    println!("EXP-T5.2 — perturbing executions for bounded max registers");
    println!("paper claim: the k-mult register admits L = Θ(log_k m) perturbing");
    println!("rounds (Lemma V.1), so any implementation pays Ω(min(log₂ L, n))");
    println!("distinct base objects in some read (Theorem V.2 via [5] Thm 1);");
    println!("Algorithm 2's reader column sits within a constant of log₂ L —");
    println!("the bound is tight. The exact register pays Θ(log₂ m).");
    table.print("perturbation rounds and reader probes");
}

fn stop_cause(saturated: bool, value_exhausted: bool) -> String {
    match (saturated, value_exhausted) {
        (true, _) => "writers exhausted (n arm)".into(),
        (_, true) => "bound m reached (log arm)".into(),
        _ => "round cap".into(),
    }
}

fn t54(l: &mut Ledger) {
    let writers = 64;
    let k: u64 = 2;
    let mut table = Table::new([
        "m",
        "impl",
        "rounds L",
        "Ω: log₂ L",
        "reader distinct objs",
        "every round perturbed",
    ]);

    for bits in [16u32, 20, 24] {
        let m = 1u128 << bits;
        let cfg = CounterPerturbConfig {
            writers,
            k,
            m,
            max_rounds: 128,
        };
        let kmult = KmultCounter::new(writers + 1, k);
        let aach = AachCounter::new(writers + 1, (m * 2) as u64);
        let collect = CollectCounter::new(writers + 1);
        let runs = [
            ("kmult", perturb_counter(&KmultTarget::new(&kmult), cfg)),
            ("aach", perturb_counter(&aach, cfg)),
            ("collect", perturb_counter(&collect, cfg)),
        ];
        let sizes = [("k", k), ("m_bits", u64::from(bits))];
        for (object, r) in runs {
            let name = match object {
                "kmult" => format!("kmult (k={k})"),
                exact => format!("{exact} (exact)"),
            };
            let at = format!("m=2^{bits} {name}");
            let (rounds, objects) = (r.rounds_achieved(), r.max_distinct_objects());
            l.pin(object, &sizes, "reader_objects", objects as u64);
            let cells = perturbation_cells(l, &at, rounds, objects, r.every_round_perturbed);
            table.row([format!("2^{bits}"), name].into_iter().chain(cells));
        }
    }

    println!("EXP-T5.4 — perturbing executions for bounded counters");
    println!("paper claim: L = Θ(log_k m) perturbing rounds exist (Lemma V.3),");
    println!("so any m-bounded k-mult counter pays Ω(min(log₂ L, n)) distinct");
    println!("base objects in some read (Theorem V.4). All measured columns sit");
    println!("above the Ω column; no implementation matches it — the gap is the");
    println!("open question of §VI.");
    table.print("perturbation rounds and reader probes");
}
