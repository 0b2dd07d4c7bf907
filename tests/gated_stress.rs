//! Seed-matrix stress: every object under many deterministic adversarial
//! schedules, every history checked against its specification. Each
//! seed is a distinct, reproducible interleaving at primitive
//! granularity, on sizes the exhaustive explorer (`tests/explore.rs`,
//! which covers *every* schedule of small programs) cannot reach. The
//! `*_gated` tests are the gated arms of the linearizability suites,
//! whose free-running arms stay in `counter_linearizability.rs` and
//! `maxreg_linearizability.rs`.

use approx_objects::{
    KaddCounter, KaddIncTask, KaddReadTask, KmultBoundedMaxRegister, KmultCounter, KmultIncTask,
    KmultMaxReadTask, KmultMaxWriteTask, KmultReadTask, SharedKaddHandle, SharedKmultHandle,
};
use counter::{
    AachCounter, AachIncTask, AachReadTask, CollectCounter, CollectIncTask, CollectReadTask,
    SnapshotCounter, SnapshotIncTask, SnapshotReadTask, UnboundedTreeCounter, UnboundedTreeIncTask,
    UnboundedTreeReadTask,
};
use lincheck::monotone::{check_counter, check_counter_additive, check_maxreg};
use lincheck::{CounterHistory, MaxRegHistory};
use maxreg::{TreeMaxReadTask, TreeMaxRegister, TreeMaxWriteTask};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smr::sched::SeededRandom;
use smr::{Driver, OpSpec, OpTask, Runtime};
use std::sync::Arc;

const SEEDS: [u64; 6] = [1, 2, 3, 0xDEAD, 0xBEEF, 0xC0FFEE];

/// `ops` operations per process — every `read_every`-th a read, the
/// rest increments — built by `inc(pid)` / `read(pid)`, run under the
/// seeded schedule.
fn drive_counter<I, R>(
    n: usize,
    ops: u64,
    read_every: u64,
    seed: u64,
    inc: impl Fn(usize) -> I,
    read: impl Fn(usize) -> R,
) -> CounterHistory
where
    I: OpTask + 'static,
    R: OpTask + 'static,
{
    let mut d = Driver::coop(Runtime::coop(n));
    for pid in 0..n {
        for i in 1..=ops {
            if i % read_every == 0 {
                d.submit_task(pid, OpSpec::read(), read(pid));
            } else {
                d.submit_task(pid, OpSpec::inc(), inc(pid));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(seed));
    CounterHistory::from_records(d.history()).expect("typed counter history")
}

/// 40 operations per process — every 4th a read, the rest writes of
/// values drawn from `[1, m)` by a generator seeded with `values_seed` —
/// run under the schedule seeded with `seed`.
fn drive_maxreg<W, R>(
    n: usize,
    m: u64,
    values_seed: u64,
    seed: u64,
    write: impl Fn(u64) -> W,
    read: impl Fn() -> R,
) -> MaxRegHistory
where
    W: OpTask + 'static,
    R: OpTask + 'static,
{
    let mut d = Driver::coop(Runtime::coop(n));
    let mut rng = StdRng::seed_from_u64(values_seed);
    for pid in 0..n {
        for i in 1..=40u64 {
            if i % 4 == 0 {
                d.submit_task(pid, OpSpec::read(), read());
            } else {
                let v = rng.random_range(1..m);
                d.submit_task(pid, OpSpec::write(v), write(v));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(seed));
    MaxRegHistory::from_records(d.history()).expect("typed maxreg history")
}

#[test]
fn collect_counter_seed_matrix() {
    for &seed in &SEEDS {
        let c = Arc::new(CollectCounter::new(4));
        let h = drive_counter(
            4,
            40,
            5,
            seed,
            |_| CollectIncTask::new(c.clone()),
            |_| CollectReadTask::new(c.clone()),
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn aach_counter_seed_matrix() {
    for &seed in &SEEDS {
        let c = Arc::new(AachCounter::new(3, 1 << 16));
        let h = drive_counter(
            3,
            30,
            5,
            seed,
            |pid| AachIncTask::new(c.clone(), pid),
            |_| AachReadTask::new(c.clone()),
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn snapshot_counter_seed_matrix() {
    for &seed in &SEEDS[..3] {
        let c = Arc::new(SnapshotCounter::new(3));
        let h = drive_counter(
            3,
            25,
            5,
            seed,
            |_| SnapshotIncTask::new(c.clone()),
            |_| SnapshotReadTask::new(c.clone()),
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kmult_counter_seed_matrix() {
    for &seed in &SEEDS {
        let (n, k) = (4, 4u64);
        let counter = KmultCounter::new(n, k);
        let handles: Vec<SharedKmultHandle> = (0..n)
            .map(|p| Arc::new(Mutex::new(counter.handle(p))))
            .collect();
        let h = drive_counter(
            n,
            50,
            5,
            seed,
            |pid| KmultIncTask::new(handles[pid].clone()),
            |pid| KmultReadTask::new(handles[pid].clone()),
        );
        check_counter(&h, k).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kadd_counter_seed_matrix() {
    for &seed in &SEEDS {
        let (n, k) = (4, 12u64);
        let counter = KaddCounter::new(n, k);
        let handles: Vec<SharedKaddHandle> = (0..n)
            .map(|p| Arc::new(Mutex::new(counter.handle(p))))
            .collect();
        let h = drive_counter(
            n,
            50,
            5,
            seed,
            |pid| KaddIncTask::new(handles[pid].clone()),
            |_| KaddReadTask::new(counter.clone()),
        );
        check_counter_additive(&h, k).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn tree_maxreg_seed_matrix() {
    for &seed in &SEEDS {
        let m = 1u64 << 12;
        let reg = Arc::new(TreeMaxRegister::new(m));
        let h = drive_maxreg(
            3,
            m,
            seed,
            seed,
            |v| TreeMaxWriteTask::new(reg.clone(), v),
            || TreeMaxReadTask::new(reg.clone()),
        );
        check_maxreg(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn kmult_maxreg_seed_matrix() {
    for &seed in &SEEDS {
        let (n, m, k) = (3, 1u64 << 16, 4u64);
        let reg = Arc::new(KmultBoundedMaxRegister::new(n, m, k));
        let h = drive_maxreg(
            n,
            m,
            seed,
            seed,
            |v| KmultMaxWriteTask::new(reg.clone(), v),
            || KmultMaxReadTask::new(reg.clone()),
        );
        check_maxreg(&h, k).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn collect_counter_is_linearizable_gated() {
    for seed in [1u64, 7, 42] {
        let c = Arc::new(CollectCounter::new(4));
        let h = drive_counter(
            4,
            60,
            5,
            seed,
            |_| CollectIncTask::new(c.clone()),
            |_| CollectReadTask::new(c.clone()),
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn snapshot_counter_is_linearizable_gated() {
    for seed in [3u64, 9] {
        let c = Arc::new(SnapshotCounter::new(3));
        let h = drive_counter(
            3,
            40,
            4,
            seed,
            |_| SnapshotIncTask::new(c.clone()),
            |_| SnapshotReadTask::new(c.clone()),
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn aach_counter_is_linearizable_gated() {
    for seed in [11u64, 23] {
        let c = Arc::new(AachCounter::new(3, 1 << 16));
        let h = drive_counter(
            3,
            50,
            5,
            seed,
            |pid| AachIncTask::new(c.clone(), pid),
            |_| AachReadTask::new(c.clone()),
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn unbounded_tree_counter_is_linearizable_gated() {
    for seed in [6u64, 31] {
        let c = Arc::new(UnboundedTreeCounter::new(3));
        let h = drive_counter(
            3,
            40,
            5,
            seed,
            |pid| UnboundedTreeIncTask::new(c.clone(), pid),
            |_| UnboundedTreeReadTask::new(c.clone()),
        );
        check_counter(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn tree_maxreg_is_linearizable_gated() {
    // The shape of `maxreg_linearizability`'s free-running `run_exact`
    // workload, through the tree's task forms.
    let (n, m) = (3, 1u64 << 10);
    for seed in [2u64, 13, 77] {
        let reg = Arc::new(TreeMaxRegister::new(m));
        let h = drive_maxreg(
            n,
            m,
            0xACE ^ seed,
            seed,
            |v| TreeMaxWriteTask::new(reg.clone(), v),
            || TreeMaxReadTask::new(reg.clone()),
        );
        check_maxreg(&h, 1).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}
