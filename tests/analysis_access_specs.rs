//! Declared access-kind specs for every object's task-form machines.
//!
//! Each task runs solo on a traced coop driver with the standard
//! analysis bundle attached; the test then checks the primitive stream
//! against the machine's declared spec — read machines apply only
//! trivial primitives, update machines apply at least one nontrivial
//! primitive and draw every kind from the machine's declared set, and
//! the lock-based oracles apply no primitives at all. A conformance
//! violation (a mis-declared kind) fails the run outright, and a
//! poll-contract breach panics in the coop backend, so this doubles as
//! a conformance sweep over the whole object zoo.

use parking_lot::Mutex;
use smr::analysis::Analyzer;
use smr::{AccessKind, Driver, ImmediateOp, OpSpec, OpTask, Runtime};
use std::sync::Arc;

use counter::{
    AachCounter, AachIncTask, AachReadTask, CollectCounter, CollectIncTask, CollectReadTask,
    Counter, FaaCounter, LockCounter, SnapshotCounter, SnapshotIncTask, SnapshotReadTask,
    UnboundedTreeCounter, UnboundedTreeIncTask, UnboundedTreeReadTask,
};
use maxreg::MaxRegister;

/// Run `task` solo (pid 0) on a fresh `n`-process coop driver with the
/// standard analyzer attached, returning the primitive kinds it applied.
/// Panics if any analysis pass flags the run.
fn observed_kinds<T: OpTask + 'static>(n: usize, label: &'static str, task: T) -> Vec<AccessKind> {
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    rt.enable_tracing();
    let mut d = Driver::coop(rt.clone());
    d.submit_task(0, OpSpec::custom(label, 0), task);
    d.run_solo(0);
    let kinds = smr::accesses(&rt.take_trace())
        .into_iter()
        .map(|a| a.kind)
        .collect();
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "{label}: analysis flagged a standard machine: {violations:?}"
    );
    kinds
}

/// The machine declares itself a read: every primitive trivial, and it
/// must actually touch shared memory at least `min` times.
fn assert_read_only(name: &str, kinds: &[AccessKind], min: usize) {
    assert!(
        kinds.len() >= min,
        "{name}: expected at least {min} primitives, saw {kinds:?}"
    );
    for k in kinds {
        assert!(
            !k.is_nontrivial(),
            "{name}: read machine applied nontrivial {k:?} (full stream: {kinds:?})"
        );
    }
}

/// The machine declares itself an update over `allowed` kinds: at least
/// one nontrivial primitive, none outside the declared set.
fn assert_mutates(name: &str, kinds: &[AccessKind], allowed: &[AccessKind]) {
    assert!(
        kinds.iter().any(|k| k.is_nontrivial()),
        "{name}: update machine applied no nontrivial primitive: {kinds:?}"
    );
    for k in kinds {
        assert!(
            allowed.contains(k),
            "{name}: undeclared kind {k:?} (declared {allowed:?}, full stream: {kinds:?})"
        );
    }
}

const RW: &[AccessKind] = &[AccessKind::Read, AccessKind::Write];
/// Algorithm 1's primitive set: the k-multiplicative machines (and the
/// sketches built on them) also use `test&set`.
const RWT: &[AccessKind] = &[AccessKind::Read, AccessKind::Write, AccessKind::TestAndSet];

/// A one-primitive closure op in proper poll-contract form: prime on the
/// first poll, apply on the first granted one. (`ImmediateOp` completes
/// during priming and so may not touch shared memory.)
struct OneShot<F: FnMut(&smr::ProcCtx) -> u128> {
    primed: bool,
    f: F,
}

impl<F: FnMut(&smr::ProcCtx) -> u128> OneShot<F> {
    fn new(f: F) -> Self {
        OneShot { primed: false, f }
    }
}

impl<F: FnMut(&smr::ProcCtx) -> u128 + Send> OpTask for OneShot<F> {
    fn poll(&mut self, ctx: &smr::ProcCtx) -> smr::Poll<u128> {
        if !self.primed {
            self.primed = true;
            return smr::Poll::Pending;
        }
        smr::Poll::Ready((self.f)(ctx))
    }
}

#[test]
fn collect_counter_machines_match_their_specs() {
    let n = 3;
    let c = Arc::new(CollectCounter::new(n));
    let kinds = observed_kinds(n, "collect-inc", CollectIncTask::new(c.clone()));
    assert_eq!(
        kinds,
        vec![AccessKind::Read, AccessKind::Write],
        "collect inc is read-own-then-write-own"
    );
    let kinds = observed_kinds(n, "collect-read", CollectReadTask::new(c));
    assert_eq!(
        kinds,
        vec![AccessKind::Read; n],
        "collect read scans one register per process"
    );
}

#[test]
fn snapshot_counter_machines_match_their_specs() {
    let n = 3;
    let c = Arc::new(SnapshotCounter::new(n));
    let kinds = observed_kinds(n, "snapshot-inc", SnapshotIncTask::new(c.clone()));
    assert_mutates("snapshot-inc", &kinds, RW);
    let kinds = observed_kinds(n, "snapshot-read", SnapshotReadTask::new(c));
    assert_read_only("snapshot-read", &kinds, n);
}

#[test]
fn aach_counter_machines_match_their_specs() {
    let n = 4;
    let c = Arc::new(AachCounter::new(n, 64));
    let kinds = observed_kinds(n, "aach-inc", AachIncTask::new(c.clone()));
    assert_mutates("aach-inc", &kinds, RW);
    let kinds = observed_kinds(n, "aach-read", AachReadTask::new(c));
    assert_read_only("aach-read", &kinds, 1);
}

#[test]
fn unbounded_tree_counter_machines_match_their_specs() {
    let n = 4;
    let c = Arc::new(UnboundedTreeCounter::new(n));
    let kinds = observed_kinds(n, "utree-inc", UnboundedTreeIncTask::new(c.clone()));
    assert_mutates("utree-inc", &kinds, RW);
    let kinds = observed_kinds(n, "utree-read", UnboundedTreeReadTask::new(c));
    assert_read_only("utree-read", &kinds, 1);
}

#[test]
fn lock_oracles_apply_no_primitives() {
    // The oracles have no machines: as tasks they are zero-primitive
    // `ImmediateOp`s, completing on the priming poll. Each read checks
    // the value it returns, which the driver only records.
    let oracle = Arc::new(LockCounter::new());
    let inc = oracle.clone();
    let kinds = observed_kinds(
        1,
        "lock-inc",
        ImmediateOp::new(move |ctx| {
            inc.increment(ctx);
            0
        }),
    );
    assert!(kinds.is_empty(), "lock inc applied {kinds:?}");
    let read = ImmediateOp::new(move |ctx| {
        let v = oracle.read(ctx);
        assert_eq!(v, 1, "lock read after one increment");
        v
    });
    let kinds = observed_kinds(1, "lock-read", read);
    assert!(kinds.is_empty(), "lock read applied {kinds:?}");

    let oracle = Arc::new(maxreg::LockMaxRegister::new());
    let write = oracle.clone();
    let kinds = observed_kinds(
        1,
        "lock-maxw",
        ImmediateOp::new(move |ctx| {
            write.write(ctx, 7);
            0
        }),
    );
    assert!(kinds.is_empty(), "lock max write applied {kinds:?}");
    let read = ImmediateOp::new(move |ctx| {
        let v = u128::from(oracle.read(ctx));
        assert_eq!(v, 7, "lock max read after writing 7");
        v
    });
    let kinds = observed_kinds(1, "lock-maxr", read);
    assert!(kinds.is_empty(), "lock max read applied {kinds:?}");
}

#[test]
fn faa_baseline_closure_forms_match_their_specs() {
    // The fetch&add baseline has no task type; its closure forms declare
    // FetchAdd for updates and Read for reads.
    let c = Arc::new(FaaCounter::new());
    let rt = Runtime::coop(1);
    rt.attach_analysis(Analyzer::standard());
    rt.enable_tracing();
    let mut d = Driver::coop(rt.clone());
    let inc = c.clone();
    d.submit_task(
        0,
        OpSpec::inc(),
        OneShot::new(move |ctx| {
            inc.increment(ctx);
            0
        }),
    );
    let rd = c;
    d.submit_task(0, OpSpec::read(), OneShot::new(move |ctx| rd.read(ctx)));
    d.run_solo(0);
    let kinds: Vec<AccessKind> = smr::accesses(&rt.take_trace())
        .into_iter()
        .map(|a| a.kind)
        .collect();
    drop(d);
    assert!(rt.analysis().unwrap().finish().is_empty());
    assert_eq!(kinds, vec![AccessKind::FetchAdd, AccessKind::Read]);
}

#[test]
fn maxreg_machines_match_their_specs() {
    let reg = Arc::new(maxreg::TreeMaxRegister::new(1 << 10));
    let kinds = observed_kinds(
        2,
        "tree-write",
        maxreg::TreeMaxWriteTask::new(reg.clone(), 700),
    );
    assert_mutates("tree-write", &kinds, RW);
    let kinds = observed_kinds(2, "tree-read", maxreg::TreeMaxReadTask::new(reg));
    assert_read_only("tree-read", &kinds, 1);

    // Both arms of the adaptive register: tree (small m) and collect
    // (large m).
    for (n, m, v) in [(8usize, 512u64, 300u64), (2, 1 << 50, 1 << 40)] {
        let reg = Arc::new(maxreg::AdaptiveMaxRegister::new(n, m));
        let kinds = observed_kinds(
            n,
            "adaptive-write",
            maxreg::AdaptiveMaxWriteTask::new(reg.clone(), v),
        );
        assert_mutates("adaptive-write", &kinds, RW);
        let kinds = observed_kinds(n, "adaptive-read", maxreg::AdaptiveMaxReadTask::new(reg));
        assert_read_only("adaptive-read", &kinds, 1);
    }

    let reg = Arc::new(maxreg::UnboundedMaxRegister::new());
    let kinds = observed_kinds(
        2,
        "unbounded-write",
        maxreg::UnboundedMaxWriteTask::new(reg.clone(), 9000),
    );
    assert_mutates("unbounded-write", &kinds, RW);
    let kinds = observed_kinds(2, "unbounded-read", maxreg::UnboundedMaxReadTask::new(reg));
    assert_read_only("unbounded-read", &kinds, 1);
}

#[test]
fn kmult_counter_machines_match_their_specs() {
    let n = 3;
    let c = approx_objects::KmultCounter::new(n, 3);
    let h: approx_objects::SharedKmultHandle = Arc::new(Mutex::new(c.handle(0)));
    let kinds = observed_kinds(n, "kmult-inc", approx_objects::KmultIncTask::new(h.clone()));
    assert_mutates("kmult-inc", &kinds, RWT);
    let kinds = observed_kinds(n, "kmult-read", approx_objects::KmultReadTask::new(h));
    assert_read_only("kmult-read", &kinds, 1);
}

#[test]
fn kadd_counter_machines_match_their_specs() {
    let n = 3;
    // k = 1: every increment flushes through to shared memory (larger k
    // buffers the first k − 1 increments locally — zero primitives).
    let c = approx_objects::KaddCounter::new(n, 1);
    let h: approx_objects::SharedKaddHandle = Arc::new(Mutex::new(c.handle(0)));
    let kinds = observed_kinds(n, "kadd-inc", approx_objects::KaddIncTask::new(h));
    assert_mutates("kadd-inc", &kinds, RW);
    let kinds = observed_kinds(n, "kadd-read", approx_objects::KaddReadTask::new(c));
    assert_read_only("kadd-read", &kinds, 1);
}

#[test]
fn kmult_maxreg_machines_match_their_specs() {
    let reg = Arc::new(approx_objects::KmultBoundedMaxRegister::new(3, 1 << 20, 2));
    let kinds = observed_kinds(
        3,
        "kmax-write",
        approx_objects::KmultMaxWriteTask::new(reg.clone(), 5000),
    );
    assert_mutates("kmax-write", &kinds, RW);
    let kinds = observed_kinds(3, "kmax-read", approx_objects::KmultMaxReadTask::new(reg));
    assert_read_only("kmax-read", &kinds, 1);
}

#[test]
fn sketch_topk_machines_match_their_specs() {
    use sketch::{SharedTopKHandle, TopKConfig, TopKSketch};
    let cfg = TopKConfig {
        n: 3,
        keys: 8,
        shards: 4,
        ..TopKConfig::default()
    };

    // Batch 1: every add flushes through to shared memory.
    let sk = TopKSketch::new(cfg);
    let h: SharedTopKHandle = Arc::new(Mutex::new(sk.handle(0, 1)));
    let kinds = observed_kinds(3, "topk-add", sketch::TopKAddTask::new(h.clone(), 2, 1));
    assert_mutates("topk-add", &kinds, RWT);
    let kinds = observed_kinds(3, "topk-read", sketch::TopKReadTask::new(h, 3));
    assert_read_only("topk-read", &kinds, 1);

    // Large batch: adds buffer locally; the explicit flush publishes.
    let sk = TopKSketch::new(cfg);
    let h: SharedTopKHandle = Arc::new(Mutex::new(sk.handle(0, 100)));
    {
        let prep = Runtime::free_running(3);
        let ctx = prep.ctx(0);
        let mut h = h.lock();
        for i in 0..5usize {
            h.add(&ctx, i % 8, 1);
        }
    }
    let kinds = observed_kinds(3, "topk-flush", sketch::TopKFlushTask::new(h));
    assert_mutates("topk-flush", &kinds, RWT);
}

#[test]
fn sketch_quantile_machines_match_their_specs() {
    use sketch::{QuantileConfig, QuantileSketch, SharedQuantileHandle};
    let cfg = QuantileConfig {
        n: 3,
        k: 2,
        base: 2,
        max_value: 1 << 10,
    };

    let sk = QuantileSketch::new(cfg);
    let h: SharedQuantileHandle = Arc::new(Mutex::new(sk.handle(0, 1)));
    let kinds = observed_kinds(
        3,
        "quantile-observe",
        sketch::QuantileObserveTask::new(h.clone(), 50, 2),
    );
    assert_mutates("quantile-observe", &kinds, RWT);
    let kinds = observed_kinds(
        3,
        "quantile-value",
        sketch::QuantileValueTask::new(h.clone(), 1, 2),
    );
    assert_read_only("quantile-value", &kinds, 1);
    let kinds = observed_kinds(3, "rank", sketch::RankTask::new(h, 50));
    assert_read_only("rank", &kinds, 1);

    // Buffered observations published by the explicit flush.
    let sk = QuantileSketch::new(cfg);
    let h: SharedQuantileHandle = Arc::new(Mutex::new(sk.handle(0, 100)));
    {
        let prep = Runtime::free_running(3);
        let ctx = prep.ctx(0);
        let mut h = h.lock();
        for (v, times) in [(3u64, 4u64), (80, 2), (700, 1)] {
            h.observe(&ctx, v, times);
        }
    }
    let kinds = observed_kinds(3, "quantile-flush", sketch::QuantileFlushTask::new(h));
    assert_mutates("quantile-flush", &kinds, RWT);
}
