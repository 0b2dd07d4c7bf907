//! The small gated programs the explorer walks, each written once.
//!
//! `exp_explore`'s grid and the explorer suites under `tests/` build
//! their programs here, so a pinned count belongs to one definition: a
//! walk of `collect(3, 2, 0)` in a test is the walk of the same program
//! in `exp_explore`. Each builder returns a fresh coop driver with the
//! whole program submitted, ready to serve as an `smr::explore` factory,
//! to take a `Replay`, or to be stepped by hand. A builder takes
//! parameters only where its callers walk different sizes.

use approx_objects::{KaddCounter, KaddIncTask, KaddReadTask, SharedKaddHandle};
use approx_objects::{KmultBoundedMaxRegister, KmultMaxReadTask, KmultMaxWriteTask};
use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use maxreg::{TreeMaxReadTask, TreeMaxRegister, TreeMaxWriteTask};
use parking_lot::Mutex;
use smr::{CoopBackend, Driver, OpSpec, Runtime};
use std::sync::Arc;

/// The collect counter: pids `0..incrementers` each do `incs`
/// increments (a read and a write of the own cell each), and, when
/// `collects > 0`, one more process issues `collects` full collects.
pub fn collect(incrementers: usize, incs: usize, collects: usize) -> Driver<CoopBackend> {
    let n = incrementers + usize::from(collects > 0);
    let mut d = Driver::coop(Runtime::coop(n));
    let c = Arc::new(CollectCounter::new(n));
    for pid in 0..incrementers {
        for _ in 0..incs {
            d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
        }
    }
    for _ in 0..collects {
        d.submit_task(
            incrementers,
            OpSpec::read(),
            CollectReadTask::new(c.clone()),
        );
    }
    d
}

/// Algorithm 1 at accuracy `k` over `n` processes: each does `incs`
/// increments, then, if `read`, one read.
pub fn kmult(n: usize, k: u64, incs: usize, read: bool) -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(n));
    let c = KmultCounter::new(n, k);
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
        for _ in 0..incs {
            d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
        }
        if read {
            d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h));
        }
    }
    d
}

/// The k-additive counter over `n` processes: each increments once,
/// then pid 0 reads.
pub fn kadd(n: usize, k: u64) -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(n));
    let c = KaddCounter::new(n, k);
    for pid in 0..n {
        let h: SharedKaddHandle = Arc::new(Mutex::new(c.handle(pid)));
        d.submit_task(pid, OpSpec::inc(), KaddIncTask::new(h));
    }
    d.submit_task(0, OpSpec::read(), KaddReadTask::new(c));
    d
}

/// Algorithm 2 at k = 2 over m = 2⁴⁰: pid `p` of `n` writes
/// 2^(5 + ⌊40p/n⌋), spreading the writes over the magnitudes, then reads.
pub fn kmaxreg(n: usize) -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(n));
    let r = Arc::new(KmultBoundedMaxRegister::new(n, 1 << 40, 2));
    for pid in 0..n {
        let v = 1u64 << (5 + 40 * pid / n);
        d.submit_task(pid, OpSpec::write(v), KmultMaxWriteTask::new(r.clone(), v));
        d.submit_task(pid, OpSpec::read(), KmultMaxReadTask::new(r.clone()));
    }
    d
}

/// The 8-bounded AACH tree max register: pid 0 writes 5, pid 1 writes 3
/// and pid 2 reads.
pub fn tree_maxreg() -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(3));
    let r = Arc::new(TreeMaxRegister::new(8));
    d.submit_task(0, OpSpec::write(5), TreeMaxWriteTask::new(r.clone(), 5));
    d.submit_task(1, OpSpec::write(3), TreeMaxWriteTask::new(r.clone(), 3));
    d.submit_task(2, OpSpec::read(), TreeMaxReadTask::new(r));
    d
}
