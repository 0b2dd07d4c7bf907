//! Figure 1 / Claim III.6 as executable assertions: the three
//! switch-state cases a, b.1, b.2 with k = 4, n = 2, checking the
//! `[u_min, u_max]` envelope and the indistinguishability of b.1 / b.2.
//! `exp_paper fig1` prints the same cases as a table and asserts the
//! same facts on every run.

use approx_objects::{arith, KmultCounter, KmultReadOutcome};
use smr::Runtime;

const K: u64 = 4;

/// Build a two-process counter state by running increment batches, then
/// read from process 0.
fn run_case(batches: &[(usize, u64)]) -> (u128, KmultReadOutcome, Vec<bool>) {
    let n = 2;
    let rt = Runtime::free_running(n);
    let counter = KmultCounter::new(n, K);
    let mut handles: Vec<_> = (0..n).map(|p| counter.handle(p)).collect();
    let mut true_count: u128 = 0;
    for &(pid, incs) in batches {
        let ctx = rt.ctx(pid);
        for _ in 0..incs {
            handles[pid].increment(&ctx);
            true_count += 1;
        }
    }
    let ctx = rt.ctx(0);
    let outcome = handles[0].read_detailed(&ctx);
    let switches = (0..10).map(|j| counter.peek_switch(j)).collect();
    (true_count, outcome, switches)
}

fn assert_envelope(name: &str, v: u128, o: &KmultReadOutcome, n: usize) {
    let umin = arith::u_min(o.p, o.q, K);
    let umax = arith::u_max(o.p, o.q, K, n);
    assert!(
        umin <= v && v <= umax,
        "{name}: true count {v} outside [{umin}, {umax}] for (p,q)=({},{})",
        o.p,
        o.q
    );
    assert_eq!(
        o.value,
        u128::from(K) * umin,
        "{name}: ReturnValue must equal k·u_min"
    );
}

#[test]
fn case_a_interval_full() {
    // One process announces k times in interval 1: switches 1..=4 all set;
    // the read advances into interval 2 and finds its first switch unset.
    let (v, o, switches) = run_case(&[(0, 1), (0, K * K)]);
    assert_eq!(
        switches[..6],
        [true, true, true, true, true, false],
        "switch prefix 11111 expected"
    );
    assert_eq!(
        (o.p, o.q),
        (0, 1),
        "read lands on (p=0, q=1) — Figure 1 case a"
    );
    assert_eq!(v, 17);
    assert_envelope("case a", v, &o, 2);
}

#[test]
fn case_b2_only_first_switch() {
    let (v, o, switches) = run_case(&[(0, 1), (0, K)]);
    assert_eq!(
        switches[..3],
        [true, true, false],
        "switch prefix 11 expected"
    );
    assert_eq!(
        (o.p, o.q),
        (1, 0),
        "read lands on (p=1, q=0) — Figure 1 case b.2"
    );
    assert_eq!(v, 1 + u128::from(K));
    assert_envelope("case b.2", v, &o, 2);
}

#[test]
fn case_b1_middle_switch_also_set() {
    // Second process loses switch_0, then its announcement skips the set
    // switch_1 and wins switch_2 — a set middle switch the reader skips.
    let (v, o, switches) = run_case(&[(0, 1), (0, K), (1, 1 + K)]);
    assert_eq!(
        switches[..4],
        [true, true, true, false],
        "switch prefix 111 expected"
    );
    assert_eq!((o.p, o.q), (1, 0), "same observation as case b.2");
    assert_eq!(v, 2 * (1 + u128::from(K)));
    assert_envelope("case b.1", v, &o, 2);
}

#[test]
fn b1_and_b2_are_indistinguishable_to_the_reader() {
    let (_, o_b2, _) = run_case(&[(0, 1), (0, K)]);
    let (_, o_b1, _) = run_case(&[(0, 1), (0, K), (1, 1 + K)]);
    assert_eq!(
        o_b1.value, o_b2.value,
        "same return value from different states"
    );
    assert_eq!((o_b1.p, o_b1.q), (o_b2.p, o_b2.q));
    // …which is exactly why u_max charges for the possibly-set middles:
    // both true counts (5 and 10) sit inside the same envelope.
    let umin = arith::u_min(1, 0, K);
    let umax = arith::u_max(1, 0, K, 2);
    assert!(umin <= 5 && 5 <= umax);
    assert!(umin <= 10 && 10 <= umax);
}

#[test]
fn reader_skips_middle_switches() {
    // The read touches only the first and last switch of each interval:
    // after case b.1's setup its cost is bounded accordingly.
    let n = 2;
    let rt = Runtime::free_running(n);
    let counter = KmultCounter::new(n, K);
    let mut h0 = counter.handle(0);
    let ctx = rt.ctx(0);
    for _ in 0..(1 + K + K * K) {
        h0.increment(&ctx);
    }
    let steps_before = ctx.steps_taken();
    let _ = h0.read(&ctx);
    let read_steps = ctx.steps_taken() - steps_before;
    // Cursor visits switch_0, switch_1, switch_4, switch_5 … ≤ 2 per
    // interval + helping scans (n per n iterations).
    assert!(read_steps <= 10, "read took {read_steps} steps");
}
