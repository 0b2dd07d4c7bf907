//! Theorem III.9 as assertions: constant amortized step complexity for
//! `k ≥ √n`, accuracy at quiescence, and the startup-window boundary
//! documented in DESIGN.md.

#![allow(clippy::needless_range_loop)] // pid-indexed handles read clearest

use approx_objects::{accuracy::within_k, KmultCounter};
use bench::ceil_sqrt;
use smr::Runtime;

#[test]
fn amortized_steps_stay_constant_as_n_grows() {
    let total_ops: u64 = 120_000;
    let mut amortized = Vec::new();
    for n in [2usize, 8, 32] {
        let k = ceil_sqrt(n as u64);
        let rt = Runtime::free_running(n);
        let counter = KmultCounter::new(n, k);
        let per = total_ops / n as u64;
        let mut handles = Vec::new();
        for pid in 0..n {
            let ctx = rt.ctx(pid);
            let mut h = counter.handle(pid);
            handles.push(std::thread::spawn(move || {
                for i in 1..=per {
                    if i % 16 == 0 {
                        let _ = h.read(&ctx);
                    } else {
                        h.increment(&ctx);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let a = rt.total_steps() as f64 / total_ops as f64;
        amortized.push((n, a));
    }
    for &(n, a) in &amortized {
        assert!(a < 3.0, "n={n}: amortized {a} not constant-like");
    }
    // No systematic blow-up across a 16× increase in n.
    let first = amortized[0].1;
    let last = amortized.last().unwrap().1;
    assert!(
        last < first * 4.0 + 1.0,
        "amortized cost grew too fast: {amortized:?}"
    );
}

#[test]
fn quiescent_accuracy_holds_for_k_ceil_sqrt_n() {
    // After enough increments to leave the startup window (q ≥ 1), the
    // raw k-accuracy v/k ≤ x ≤ v·k holds at quiescence for k = ⌈√n⌉.
    for n in [4usize, 9, 16, 25] {
        let k = ceil_sqrt(n as u64);
        let rt = Runtime::free_running(n);
        let counter = KmultCounter::new(n, k);
        let mut handles: Vec<_> = (0..n).map(|p| counter.handle(p)).collect();
        let per = 5_000u64;
        let mut v: u128 = 0;
        for round in 0..per {
            let pid = (round % n as u64) as usize;
            let ctx = rt.ctx(pid);
            handles[pid].increment(&ctx);
            v += 1;
        }
        let ctx = rt.ctx(0);
        let x = handles[0].read(&ctx);
        assert!(
            within_k(v, x, k),
            "n={n} k={k}: quiescent count {v}, read {x}"
        );
    }
}

#[test]
fn startup_window_requires_k_at_least_n_minus_1() {
    // DESIGN.md §2 "Startup window": while only switch_0 is set, up to
    // 1 + n(k−1) increments can be pending against a read of k. With
    // k ≥ n − 1 the raw spec survives even this window…
    let n = 5;
    let k = (n - 1) as u64;
    let rt = Runtime::free_running(n);
    let counter = KmultCounter::new(n, k);
    let mut handles: Vec<_> = (0..n).map(|p| counter.handle(p)).collect();
    for pid in 0..n {
        let ctx = rt.ctx(pid);
        handles[pid].increment(&ctx);
    }
    let ctx = rt.ctx(0);
    let x = handles[0].read(&ctx);
    assert!(
        within_k(n as u128, x, k),
        "k = n−1 keeps the window accurate"
    );

    // …while k clearly below √n breaks it (cf. `exp_paper t311` part C).
    let n = 64;
    let k = 2u64;
    let rt = Runtime::free_running(n);
    let counter = KmultCounter::new(n, k);
    let mut handles: Vec<_> = (0..n).map(|p| counter.handle(p)).collect();
    for pid in 0..n {
        let ctx = rt.ctx(pid);
        handles[pid].increment(&ctx);
    }
    let ctx = rt.ctx(0);
    let x = handles[0].read(&ctx);
    assert!(
        !within_k(n as u128, x, k),
        "k ≪ √n must violate accuracy here (x = {x})"
    );
}

#[test]
fn idle_reads_cost_amortizes_to_zero() {
    // The persistent read cursor means R repeated quiescent reads cost
    // O(1) each after the first — total steps stay far below R·log(v).
    let rt = Runtime::free_running(1);
    let counter = KmultCounter::new(1, 2);
    let mut h = counter.handle(0);
    let ctx = rt.ctx(0);
    for _ in 0..50_000 {
        h.increment(&ctx);
    }
    let _ = h.read(&ctx);
    let s0 = ctx.steps_taken();
    for _ in 0..1_000 {
        let _ = h.read(&ctx);
    }
    let per_read = (ctx.steps_taken() - s0) as f64 / 1_000.0;
    assert!(per_read <= 2.0, "idle read cost {per_read}");
}

#[test]
fn read_values_are_monotone_at_quiescence() {
    // Successive quiescent reads interleaved with increments never
    // decrease (the counter is monotone).
    let rt = Runtime::free_running(1);
    let counter = KmultCounter::new(1, 3);
    let mut h = counter.handle(0);
    let ctx = rt.ctx(0);
    let mut prev = 0u128;
    for _ in 0..500 {
        for _ in 0..7 {
            h.increment(&ctx);
        }
        let x = h.read(&ctx);
        assert!(x >= prev, "read regressed: {prev} → {x}");
        prev = x;
    }
}
