//! The seeded lost-update mutant the explorer suites must refute: the
//! collect counter with its single-writer-cell discipline dropped, so
//! every increment read-modify-writes one shared register and
//! interleaved increments lose updates.

use smr::{CoopBackend, Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
use std::sync::Arc;

/// One increment: read the shared cell, then write back one more.
struct SharedCellInc {
    cell: Arc<Register>,
    read: Option<u64>,
    primed: bool,
}

impl OpTask for SharedCellInc {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        match self.read {
            None => {
                self.read = Some(self.cell.read(ctx));
                Poll::Pending
            }
            Some(v) => {
                self.cell.write(ctx, v + 1);
                Poll::Ready(0)
            }
        }
    }
}

/// One read of the shared cell.
struct SharedCellRead {
    cell: Arc<Register>,
    primed: bool,
}

impl OpTask for SharedCellRead {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        Poll::Ready(u128::from(self.cell.read(ctx)))
    }
}

/// The mutant's program on `rt`, a 3-process coop runtime: pids 0 and 1
/// each increment once, and pid 2 reads twice, so the second read's
/// invocation (announced when the first completes) can land after both
/// increments' responses; only then does real-time order force the read
/// to count them. Taking the runtime lets a caller attach an analyzer
/// before anything is submitted.
pub fn lost_update(rt: Arc<Runtime>) -> Driver<CoopBackend> {
    let mut d = Driver::coop(rt);
    let cell = Arc::new(Register::new(0));
    for pid in 0..2 {
        let inc = SharedCellInc {
            cell: cell.clone(),
            read: None,
            primed: false,
        };
        d.submit_task(pid, OpSpec::inc(), inc);
    }
    for _ in 0..2 {
        let read = SharedCellRead {
            cell: cell.clone(),
            primed: false,
        };
        d.submit_task(2, OpSpec::read(), read);
    }
    d
}
