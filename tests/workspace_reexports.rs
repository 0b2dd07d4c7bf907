//! Guards the umbrella crate's public facade: the `pub use` re-exports
//! in `src/lib.rs` are the workspace's public surface, and a refactor
//! that renames or drops one should fail here, not in downstream code.
//!
//! Every assertion goes through the umbrella paths
//! (`deterministic_approximate_objects::<member>::<item>`), not the
//! member crates directly.

use deterministic_approximate_objects as dao;

#[test]
fn paper_objects_are_reachable() {
    let n = 2;
    let k = 2;
    let rt = dao::smr::Runtime::free_running(n);
    let ctx = rt.ctx(0);

    let counter = dao::approx_objects::KmultCounter::new(n, k);
    let mut handle: dao::approx_objects::KmultCounterHandle = counter.handle(0);
    for _ in 0..8 {
        handle.increment(&ctx);
    }
    let x = handle.read(&ctx);
    assert!(dao::approx_objects::accuracy::within_k(8, x, k), "x={x}");

    let reg = dao::approx_objects::KmultBoundedMaxRegister::new(n, 1 << 20, k);
    reg.write(&ctx, 1000);
    let v = reg.read(&ctx);
    assert!((500..=2000).contains(&v), "v={v}");

    let ureg = dao::approx_objects::KmultUnboundedMaxRegister::new(n, k);
    ureg.write(&ctx, 1 << 40);
    assert!(ureg.read(&ctx) >= 1 << 39);
}

#[test]
fn runtime_and_driver_are_reachable() {
    use dao::counter::{CollectCounter, CollectIncTask};
    use dao::smr::{Driver, OpSpec, Register, Runtime, StepOutcome};

    let counter = std::sync::Arc::new(CollectCounter::new(1));
    let mut d = Driver::coop(Runtime::coop(1));
    d.submit_task(0, OpSpec::inc(), CollectIncTask::new(counter));
    assert_eq!(d.step(0), StepOutcome::Stepped);
    d.run_solo(0);
    assert_eq!(d.completed_of(0), 1);

    let reg = Register::new(0);
    reg.write(&d.runtime().ctx(0), 7);
    assert_eq!(reg.peek(), 7);
}

#[test]
fn lincheck_entry_points_are_reachable() {
    use dao::lincheck::monotone::{check_counter, check_maxreg};
    use dao::lincheck::{CounterHistory, Interval, MaxRegHistory, TimedInc, TimedRead, TimedWrite};

    let h = CounterHistory {
        incs: vec![TimedInc::unit(Interval::done(0, 1))],
        reads: vec![TimedRead {
            inv: 2,
            resp: 3,
            value: 1,
        }],
    };
    check_counter(&h, 1).expect("sequential exact counter history");
    dao::lincheck::naive::check_counter(&h, 1).expect("reference engine reachable");

    let h = MaxRegHistory {
        writes: vec![TimedWrite {
            window: Interval::done(0, 1),
            value: 5,
        }],
        reads: vec![TimedRead {
            inv: 2,
            resp: 3,
            value: 5,
        }],
    };
    check_maxreg(&h, 1).expect("sequential exact maxreg history");

    // The exhaustive cross-validator is part of the facade too.
    assert!(
        dao::lincheck::wg::wg_check(&[], 1),
        "empty history linearizes"
    );
}

#[test]
fn sketch_workloads_are_reachable() {
    use dao::sketch::{QuantileConfig, QuantileSketch, TopKConfig, TopKSketch};

    let rt = dao::smr::Runtime::free_running(1);
    let ctx = rt.ctx(0);

    let sk = TopKSketch::new(TopKConfig {
        n: 1,
        keys: 8,
        shards: 2,
        ..TopKConfig::default()
    });
    let mut h = sk.handle(0, 1);
    for _ in 0..10 {
        h.add(&ctx, 5, 1);
    }
    let top = h.top_k(&ctx, 1);
    assert_eq!(top.entries[0].0, 5);

    let qs = QuantileSketch::new(QuantileConfig {
        n: 1,
        ..QuantileConfig::default()
    });
    let mut q = qs.handle(0, 1);
    q.observe(&ctx, 100, 20);
    assert_eq!(q.quantile(&ctx, 1, 2), 128, "upper edge of [64, 128)");

    // The envelope checkers travel with the facade.
    let env = dao::lincheck::SketchEnvelope::new(2, 1);
    dao::lincheck::check_topk_records(&dao::smr::History::new(), &env)
        .expect("empty history passes");
}

#[test]
fn baselines_and_perturb_are_reachable() {
    use dao::counter::{CollectCounter, Counter};
    use dao::maxreg::{MaxRegister, TreeMaxRegister};

    let rt = dao::smr::Runtime::free_running(1);
    let ctx = rt.ctx(0);

    let c = CollectCounter::new(1);
    c.increment(&ctx);
    assert_eq!(c.read(&ctx), 1);

    let m = TreeMaxRegister::new(1 << 10);
    m.write(&ctx, 3);
    assert_eq!(m.read(&ctx), 3);

    let mut bits = dao::perturb::BitSet::new(8);
    bits.insert(3);
    assert!(bits.contains(3));
}
