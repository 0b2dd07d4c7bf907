//! Property-based tests: exact counters agree with the oracle on
//! arbitrary sequential sequences and preserve sums under concurrency.

use counter::{
    AachCounter, CollectCounter, Counter, FaaCounter, LockCounter, SnapshotCounter,
    UnboundedTreeCounter,
};
use proptest::prelude::*;
use smr::Runtime;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Op {
    Inc,
    Read,
}

fn ops_strategy(len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(prop_oneof![Just(Op::Inc), Just(Op::Read)], 1..len)
}

fn check_against_oracle<C: Counter>(c: &C, ops: &[Op]) {
    let rt = Runtime::free_running(1);
    let ctx = rt.ctx(0);
    let oracle = LockCounter::new();
    for op in ops {
        match op {
            Op::Inc => {
                c.increment(&ctx);
                oracle.increment(&ctx);
            }
            Op::Read => assert_eq!(c.read(&ctx), oracle.read(&ctx)),
        }
    }
    assert_eq!(c.read(&ctx), oracle.read(&ctx));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn collect_matches_oracle(ops in ops_strategy(60)) {
        check_against_oracle(&CollectCounter::new(1), &ops);
    }

    #[test]
    fn snapshot_matches_oracle(ops in ops_strategy(60)) {
        check_against_oracle(&SnapshotCounter::new(1), &ops);
    }

    #[test]
    fn aach_matches_oracle(n in 1usize..9, ops in ops_strategy(60)) {
        // Both aliases of the one AACH tree.
        check_against_oracle(&AachCounter::new(n, 1 << 16), &ops);
        check_against_oracle(&UnboundedTreeCounter::new(n), &ops);
    }

    #[test]
    fn faa_matches_oracle(ops in ops_strategy(60)) {
        check_against_oracle(&FaaCounter::new(), &ops);
    }

    #[test]
    fn concurrent_sums_are_preserved(
        n in 2usize..6,
        per in 1u64..300,
    ) {
        let rt = Runtime::free_running(n);
        let c = Arc::new(CollectCounter::new(n));
        let handles: Vec<_> = (0..n)
            .map(|pid| {
                let c = Arc::clone(&c);
                let ctx = rt.ctx(pid);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        c.increment(&ctx);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let ctx = rt.ctx(0);
        prop_assert_eq!(c.read(&ctx), u128::from(per) * n as u128);
    }

    #[test]
    fn aach_read_cost_independent_of_count(
        n in 2usize..17,
        incs in 1u64..200,
    ) {
        // Reads are O(log m) regardless of how many increments happened.
        let m = 1u64 << 16;
        let rt = Runtime::free_running(n);
        let c = AachCounter::new(n, m);
        let ctx = rt.ctx(0);
        for _ in 0..incs {
            c.increment(&ctx);
        }
        let s0 = ctx.steps_taken();
        let _ = c.read(&ctx);
        prop_assert!(ctx.steps_taken() - s0 <= 17, "read must stay O(log m)");
    }

    #[test]
    fn snapshot_scan_is_a_consistent_cut(
        updates in prop::collection::vec((0usize..3, 1u64..100), 1..30),
    ) {
        // Sequential updates through 3 components: a scan equals the last
        // written value per component.
        let rt = Runtime::free_running(3);
        let snap = counter::AtomicSnapshot::new(3);
        let mut expect = [0u64; 3];
        for (pid, v) in updates {
            let ctx = rt.ctx(pid);
            snap.update(&ctx, v);
            expect[pid] = v;
        }
        let ctx = rt.ctx(0);
        prop_assert_eq!(snap.scan(&ctx), expect.to_vec());
    }
}
