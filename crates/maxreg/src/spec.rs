//! The [`MaxRegister`] object interface, and [`MachineMaxRegister`],
//! the hooks from which every machine register's blocking form is
//! built.

use smr::{Poll, ProcCtx};

/// A linearizable max register: `read` returns the largest value
/// previously written (0 if none).
///
/// All methods take the invoking process's [`ProcCtx`], which charges the
/// primitive steps the operation performs; implementations are wait-free.
pub trait MaxRegister: Send + Sync {
    /// Write `v`. For bounded registers `v` must be `< bound`.
    ///
    /// # Panics
    /// Implementations panic if `v` exceeds their bound — writing an
    /// out-of-range value is a caller bug, not a recoverable condition.
    fn write(&self, ctx: &ProcCtx, v: u64);

    /// Return the maximum value written before (or concurrently with)
    /// this read; 0 if nothing was written.
    fn read(&self, ctx: &ProcCtx) -> u64;

    /// `Some(m)` if this register only represents values in `{0,…,m−1}`,
    /// `None` if unbounded (full `u64` domain).
    fn bound(&self) -> Option<u64>;
}

/// A max register whose operations exist as resumable machines (the
/// convention of `maxreg::tree`'s module docs): the hooks name its two
/// machines, build them and step them. Each implementation delegates
/// to the machines' inherent `new` and `step`. The blocking
/// [`MaxRegister`] form below drives the machines to completion, the
/// task forms in [`tasks`](crate::tasks) poll them one step at a time,
/// and composites (the AACH tree counters in `counter`) embed them.
pub trait MachineMaxRegister: Send + Sync {
    /// Resume point of a write.
    type WriteMachine: Send;
    /// Resume point of a read.
    type ReadMachine: Send;

    /// A machine writing `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    fn write_machine(&self, v: u64) -> Self::WriteMachine;

    /// A machine reading the register.
    fn read_machine(&self) -> Self::ReadMachine;

    /// Advance `m`, a machine built by this register, by at most one
    /// primitive.
    fn step_write(&self, m: &mut Self::WriteMachine, ctx: &ProcCtx) -> Poll<()>;

    /// Advance `m`, a machine built by this register, by at most one
    /// primitive.
    fn step_read(&self, m: &mut Self::ReadMachine, ctx: &ProcCtx) -> Poll<u64>;

    /// The answer of [`MaxRegister::bound`].
    fn value_bound(&self) -> Option<u64>;
}

impl<R: MachineMaxRegister> MaxRegister for R {
    fn write(&self, ctx: &ProcCtx, v: u64) {
        let mut m = self.write_machine(v);
        while self.step_write(&mut m, ctx).is_pending() {}
    }

    fn read(&self, ctx: &ProcCtx) -> u64 {
        let mut m = self.read_machine();
        loop {
            if let Poll::Ready(v) = self.step_read(&mut m, ctx) {
                return v;
            }
        }
    }

    fn bound(&self) -> Option<u64> {
        self.value_bound()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use smr::Runtime;
    use std::sync::Arc;

    /// Sequential conformance: random writes interleaved with reads must
    /// always return the running maximum.
    pub(crate) fn check_sequential<M: MaxRegister>(reg: &M, values: &[u64]) {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let mut max = 0;
        assert_eq!(reg.read(&ctx), 0, "fresh register reads 0");
        for &v in values {
            reg.write(&ctx, v);
            max = max.max(v);
            assert_eq!(reg.read(&ctx), max, "after writing {v}");
        }
    }

    /// Concurrent smoke test: `n` free-running writers + a reader; the
    /// final read must equal the global max, and every intermediate read
    /// must be ≤ it and monotonically consistent with writes that
    /// completed before the read started (spot-checked via the final
    /// value only — full linearizability is checked by `lincheck`).
    pub(crate) fn check_concurrent<M: MaxRegister + 'static>(reg: Arc<M>, n: usize, per: u64) {
        let rt = Runtime::free_running(n);
        let mut handles = vec![];
        for pid in 0..n {
            let reg = reg.clone();
            let ctx = rt.ctx(pid);
            handles.push(std::thread::spawn(move || {
                for i in 1..=per {
                    reg.write(&ctx, (pid as u64) * per + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ctx = rt.ctx(0);
        assert_eq!(
            reg.read(&ctx),
            (n as u64) * per,
            "global max after quiescence"
        );
    }
}
