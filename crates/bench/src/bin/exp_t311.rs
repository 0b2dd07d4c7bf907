//! EXP-T3.11 — Theorem III.11 / Lemma III.10 / Corollary III.10.1: the
//! amortized lower bound `Ω(log(n/k²))` for k-multiplicative counters
//! with `k ≤ √n/2`, and the awareness-set structure behind it.
//!
//! Three parts:
//!
//! **(A) Amortized cost of spec-compliant counters vs the bound.** Every
//! exact counter is in particular a k-multiplicative counter for any k,
//! so the bound applies to it. Workload = the theorem's: each process
//! performs one `CounterIncrement` then one `CounterRead`, under a gated
//! round-robin schedule. Measured steps/op must sit **above**
//! `log₂(n/k²)` for all spec-compliant implementations.
//!
//! **(B) Awareness sets (Corollary III.10.1).** From the same gated,
//! traced executions we compute awareness sets (Definition III.2/III.3)
//! and report how many processes are aware of ≥ n/2k² others — the
//! corollary says at least n/2 must be.
//!
//! **(C) Why k < √n escapes nothing.** Algorithm 1 run with k ≤ √n/2
//! beats the bound's cost — but it then violates k-accuracy, which we
//! exhibit: the quiescent accuracy ratio v/x exceeds k. The bound binds
//! only objects that actually satisfy the spec.
//!
//! Run: `cargo run --release -p bench --bin exp_t311`.

#![allow(clippy::needless_range_loop)] // pid-indexed handles read clearest

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use bench::log2f;
use bench::tables::{f2, Table};
use counter::{
    AachCounter, AachIncTask, AachReadTask, CollectCounter, CollectIncTask, CollectReadTask,
    SnapshotCounter, SnapshotIncTask, SnapshotReadTask,
};
use parking_lot::Mutex;
use smr::sched::RoundRobin;
use smr::{Driver, OpSpec, OpTask, Runtime};
use std::sync::Arc;

/// Run the one-increment-one-read workload, built by `inc_op(pid)` and
/// `read_op(pid)`, gated + traced; return (steps/op, awareness report).
fn one_shot_workload<I, R>(
    n: usize,
    inc_op: impl Fn(usize) -> I,
    read_op: impl Fn(usize) -> R,
) -> (f64, perturb::awareness::AwarenessReport)
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
    (steps as f64 / (2 * n) as f64, report)
}

fn main() {
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

        let (collect_amrt, collect_aw) = {
            let c = Arc::new(CollectCounter::new(n));
            one_shot_workload(
                n,
                |_| CollectIncTask::new(c.clone()),
                |_| CollectReadTask::new(c.clone()),
            )
        };
        let (aach_amrt, _) = {
            let c = Arc::new(AachCounter::new(n, 1 << 20));
            one_shot_workload(
                n,
                |pid| AachIncTask::new(c.clone(), pid),
                |_| AachReadTask::new(c.clone()),
            )
        };
        let (snap_amrt, _) = {
            let c = Arc::new(SnapshotCounter::new(n));
            one_shot_workload(
                n,
                |_| SnapshotIncTask::new(c.clone()),
                |_| SnapshotReadTask::new(c.clone()),
            )
        };
        // kmult at its legal k = ⌈√n⌉ (spec-compliant there).
        let legal_k = bench::ceil_sqrt(n as u64);
        let (kmult_amrt, kmult_aw) = {
            let c = KmultCounter::new(n, legal_k);
            let handles: Vec<SharedKmultHandle> =
                (0..n).map(|p| Arc::new(Mutex::new(c.handle(p)))).collect();
            one_shot_workload(
                n,
                |pid| KmultIncTask::new(handles[pid].clone()),
                |pid| KmultReadTask::new(handles[pid].clone()),
            )
        };

        a.row([
            n.to_string(),
            k.to_string(),
            f2(bound),
            f2(collect_amrt),
            f2(aach_amrt),
            f2(snap_amrt),
            format!("{} (k={legal_k})", f2(kmult_amrt)),
        ]);

        let threshold = (n as u64).div_ceil(2 * k * k) as usize;
        b.row([
            n.to_string(),
            "collect (exact ⇒ k-mult for any k)".into(),
            threshold.to_string(),
            collect_aw
                .processes_aware_of_at_least(threshold)
                .to_string(),
            format!("≥ {}", n / 2),
        ]);
        let legal_threshold = (n as u64).div_ceil(2 * legal_k * legal_k) as usize;
        b.row([
            n.to_string(),
            format!("kmult (k={legal_k})"),
            legal_threshold.to_string(),
            kmult_aw
                .processes_aware_of_at_least(legal_threshold)
                .to_string(),
            format!("≥ {}", n / 2),
        ]);
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
        for pid in 0..n {
            let ctx = rt.ctx(pid);
            handles[pid].increment(&ctx);
        }
        let ctx = rt.ctx(0);
        let x = handles[0].read(&ctx);
        let v = n as u128;
        let ok = v <= x * u128::from(illegal_k) && x <= v * u128::from(illegal_k);
        c_table.row([
            n.to_string(),
            illegal_k.to_string(),
            f2((n as f64).sqrt()),
            v.to_string(),
            x.to_string(),
            f2(v as f64 / x as f64),
            if ok {
                "yes".into()
            } else {
                "NO — spec violated".to_string()
            },
        ]);
    }
    println!("\nwhy small k escapes nothing: Algorithm 1 forced to k < √n stops");
    println!("being a k-multiplicative counter at all (v/x exceeds k).");
    c_table.print("(C) Algorithm 1 outside its premise");
}
