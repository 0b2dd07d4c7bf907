//! The [`Counter`] object interface, and [`MachineCounter`], the hooks
//! from which every machine counter's blocking form is built.

use smr::{Poll, ProcCtx};

/// A linearizable exact counter: `read` returns the number of
/// increments that precede it.
pub trait Counter: Send + Sync {
    /// Apply one increment.
    fn increment(&self, ctx: &ProcCtx);

    /// Read the number of preceding increments.
    fn read(&self, ctx: &ProcCtx) -> u128;
}

/// A counter whose operations exist as resumable machines (the
/// convention of `maxreg::tree`'s module docs): the hooks name its two
/// machines, build them and step them. Each implementation delegates
/// to the machines' inherent `new` and `step`. The blocking [`Counter`]
/// form below drives the machines to completion, and the task forms in
/// [`tasks`](crate::tasks) poll them one step at a time.
pub trait MachineCounter: Send + Sync {
    /// Resume point of an increment.
    type IncMachine: Send;
    /// Resume point of a read.
    type ReadMachine: Send;

    /// A machine incrementing the counter on behalf of the process that
    /// steps it.
    fn inc_machine(&self) -> Self::IncMachine;

    /// A machine reading the counter.
    fn read_machine(&self) -> Self::ReadMachine;

    /// Advance `m`, a machine built by this counter, by at most one
    /// primitive.
    fn step_inc(&self, m: &mut Self::IncMachine, ctx: &ProcCtx) -> Poll<()>;

    /// Advance `m`, a machine built by this counter, by at most one
    /// primitive.
    fn step_read(&self, m: &mut Self::ReadMachine, ctx: &ProcCtx) -> Poll<u128>;
}

impl<C: MachineCounter> Counter for C {
    fn increment(&self, ctx: &ProcCtx) {
        let mut m = self.inc_machine();
        while self.step_inc(&mut m, ctx).is_pending() {}
    }

    fn read(&self, ctx: &ProcCtx) -> u128 {
        let mut m = self.read_machine();
        loop {
            if let Poll::Ready(v) = self.step_read(&mut m, ctx) {
                return v;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use smr::Runtime;
    use std::sync::Arc;

    /// Sequential conformance for exact counters.
    pub(crate) fn check_sequential_exact<C: Counter>(c: &C, upto: u128) {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        assert_eq!(c.read(&ctx), 0, "fresh counter reads 0");
        for i in 1..=upto {
            c.increment(&ctx);
            assert_eq!(c.read(&ctx), i, "after {i} increments");
        }
    }

    /// Concurrent smoke test for exact counters: n threads, `per`
    /// increments each; quiescent read must be exact.
    pub(crate) fn check_concurrent_exact<C: Counter + 'static>(c: Arc<C>, n: usize, per: u64) {
        let rt = Runtime::free_running(n);
        let mut handles = vec![];
        for pid in 0..n {
            let c = c.clone();
            let ctx = rt.ctx(pid);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per {
                    c.increment(&ctx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ctx = rt.ctx(0);
        assert_eq!(c.read(&ctx), (n as u128) * u128::from(per));
    }
}
