//! Property-based tests for the paper's objects: accuracy invariants,
//! `ReturnValue` arithmetic, and structural invariants of Algorithm 1
//! under arbitrary (sequential and round-robin) operation sequences.

#![allow(clippy::needless_range_loop)] // pid-indexed handles read clearest

use approx_objects::accuracy::{log_k_floor, within_k};
use approx_objects::{arith, KmultBoundedMaxRegister, KmultCounter, KmultUnboundedMaxRegister};
use proptest::prelude::*;
use smr::Runtime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn counter_sequential_accuracy(k in 2u64..12, incs in 1u128..4_000) {
        let rt = Runtime::free_running(1);
        let counter = KmultCounter::new(1, k);
        let ctx = rt.ctx(0);
        let mut h = counter.handle(0);
        for _ in 0..incs {
            h.increment(&ctx);
        }
        let x = h.read(&ctx);
        prop_assert!(within_k(incs, x, k), "v={incs} x={x} k={k}");
    }

    #[test]
    fn counter_round_robin_accuracy(
        n in 2usize..6,
        incs_per in 1u64..800,
    ) {
        // k = n keeps the raw spec valid through the startup window.
        let k = n as u64;
        let rt = Runtime::free_running(n);
        let counter = KmultCounter::new(n, k);
        let mut handles: Vec<_> = (0..n).map(|p| counter.handle(p)).collect();
        for i in 0..incs_per {
            for pid in 0..n {
                let ctx = rt.ctx(pid);
                handles[pid].increment(&ctx);
                let _ = i;
            }
        }
        let v = u128::from(incs_per) * n as u128;
        for pid in 0..n {
            let ctx = rt.ctx(pid);
            let x = handles[pid].read(&ctx);
            prop_assert!(within_k(v, x, k), "pid={pid} v={v} x={x} k={k}");
        }
    }

    #[test]
    fn counter_reads_monotone_under_interleaving(
        k in 2u64..8,
        batches in prop::collection::vec(1u64..50, 1..30),
    ) {
        let rt = Runtime::free_running(1);
        let counter = KmultCounter::new(1, k);
        let ctx = rt.ctx(0);
        let mut h = counter.handle(0);
        let mut prev = 0u128;
        for b in batches {
            for _ in 0..b {
                h.increment(&ctx);
            }
            let x = h.read(&ctx);
            prop_assert!(x >= prev, "reads regressed {prev} → {x}");
            prev = x;
        }
    }

    #[test]
    fn switch_prefix_is_contiguous_single_process(
        k in 2u64..8,
        incs in 1u64..5_000,
    ) {
        // Lemma III.2 for one process: the set switches form a prefix.
        let rt = Runtime::free_running(1);
        let counter = KmultCounter::new(1, k);
        let ctx = rt.ctx(0);
        let mut h = counter.handle(0);
        for _ in 0..incs {
            h.increment(&ctx);
        }
        let mut seen_unset = false;
        for j in 0..200u64 {
            let set = counter.peek_switch(j);
            if seen_unset {
                prop_assert!(!set, "gap: switch {j} set after an unset one");
            }
            if !set {
                seen_unset = true;
            }
        }
    }

    #[test]
    fn return_value_equals_k_times_u_min(p in 0u64..2, q in 0u64..12, k in 2u64..10) {
        prop_assert_eq!(
            arith::return_value(p, q, k),
            u128::from(k) * arith::u_min(p, q, k)
        );
    }

    #[test]
    fn envelope_certifies_accuracy(p in 0u64..2, q in 0u64..12, k in 2u64..10, n in 1usize..64) {
        let lo = arith::u_min(p, q, k);
        let hi = arith::u_max(p, q, k, n);
        prop_assert!(lo <= hi);
        let x = arith::return_value(p, q, k);
        // Lower side always: x = k·u_min ≤ k·v for every v ≥ u_min.
        prop_assert!(x <= lo * u128::from(k));
        // Upper side — Claim III.6's inequality u_max ≤ k·x — holds for
        // k ≥ √n once the execution has left the (p, q) = (0, 0) startup
        // window (DESIGN.md §2 "Startup window" documents the boundary).
        if (p >= 1 || q >= 1) && u128::from(k) * u128::from(k) >= n as u128 {
            prop_assert!(
                hi <= x * u128::from(k),
                "u_max {hi} exceeds k·x = {} at (p={p}, q={q}, k={k}, n={n})",
                x * u128::from(k)
            );
        }
    }

    #[test]
    fn log_k_floor_inverts_pow(k in 2u64..20, e in 0u32..10) {
        let v = u64::try_from(arith::pow_k(k, e)).unwrap();
        prop_assert_eq!(log_k_floor(v, k), e);
        if v > 1 {
            prop_assert_eq!(log_k_floor(v - 1, k), e - 1);
        }
    }

    #[test]
    fn bounded_maxreg_accuracy(
        k in 2u64..10,
        m_bits in 3u32..40,
        values in prop::collection::vec(1u64..u64::MAX, 1..25),
    ) {
        let m = 1u64 << m_bits;
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let reg = KmultBoundedMaxRegister::new(1, m, k);
        let mut true_max = 0u64;
        for v in values {
            let v = v % m;
            reg.write(&ctx, v);
            true_max = true_max.max(v);
            let x = reg.read(&ctx);
            prop_assert!(within_k(u128::from(true_max), x, k), "max={true_max} x={x} k={k}");
            if true_max > 0 {
                prop_assert!(x >= u128::from(true_max), "Algorithm 2 reads are one-sided");
            }
        }
    }

    #[test]
    fn unbounded_maxreg_accuracy(
        k in 2u64..10,
        values in prop::collection::vec(0u64..(u64::MAX - 1), 1..25),
    ) {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let reg = KmultUnboundedMaxRegister::new(1, k);
        let mut true_max = 0u64;
        for v in values {
            reg.write(&ctx, v);
            true_max = true_max.max(v);
            let x = reg.read(&ctx);
            prop_assert!(within_k(u128::from(true_max), x, k), "max={true_max} x={x} k={k}");
        }
    }

    #[test]
    fn increment_worst_case_is_k_plus_one(k in 2u64..12, incs in 1u64..3_000) {
        let rt = Runtime::free_running(1);
        let counter = KmultCounter::new(1, k);
        let ctx = rt.ctx(0);
        let mut h = counter.handle(0);
        for _ in 0..incs {
            let s0 = ctx.steps_taken();
            h.increment(&ctx);
            prop_assert!(ctx.steps_taken() - s0 <= k + 1);
        }
    }
}
