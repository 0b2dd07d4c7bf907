//! Test-local operation tasks shared by several integration tests.

use counter::{CollectCounter, CollectIncTask};
use smr::{OpTask, Poll, ProcCtx};
use std::sync::Arc;

/// `left` collect increments run back to back as one operation: each
/// granted poll applies one primitive, and the next increment's priming
/// poll rides along with the step that finished the one before.
pub struct BatchedInc {
    counter: Arc<CollectCounter>,
    left: u64,
    current: CollectIncTask,
}

impl BatchedInc {
    pub fn new(counter: Arc<CollectCounter>, amount: u64) -> Self {
        let current = CollectIncTask::new(counter.clone());
        BatchedInc {
            counter,
            left: amount,
            current,
        }
    }
}

impl OpTask for BatchedInc {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        while self.current.poll(ctx).is_ready() {
            self.left -= 1;
            if self.left == 0 {
                return Poll::Ready(0);
            }
            self.current = CollectIncTask::new(self.counter.clone());
        }
        Poll::Pending
    }
}
