//! The adversary playground: drive a concurrent object one primitive at
//! a time, exactly like the scheduling adversary in the paper's
//! lower-bound proofs.
//!
//! This example builds the classic "lost update" interleaving by hand,
//! then shows a scripted schedule against Algorithm 1 that freezes a
//! process at the worst possible moment — between its `test&set` landing
//! and its helping-array announcement — and watches reads stay within
//! their accuracy envelope anyway.
//!
//! ```bash
//! cargo run --example adversary_playground
//! ```

use approx_objects::{accuracy, arith, KmultCounter, KmultIncTask, KmultReadTask};
use parking_lot::Mutex;
use smr::{Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime, StepOutcome};
use std::sync::Arc;

/// Read a register, then write back the value read plus one: two
/// primitives, one per granted step.
struct ReadModifyWrite {
    reg: Arc<Register>,
    read: Option<u64>,
    primed: bool,
}

impl OpTask for ReadModifyWrite {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        match self.read {
            None => {
                self.read = Some(self.reg.read(ctx));
                Poll::Pending
            }
            Some(v) => {
                self.reg.write(ctx, v + 1);
                Poll::Ready(u128::from(v))
            }
        }
    }
}

fn main() {
    lost_update();
    frozen_announcer();
}

/// Two processes read-modify-write a plain register; the adversary
/// interleaves their primitives so one update is lost.
fn lost_update() {
    println!("── part 1: the classic lost update, scheduled by hand ──");
    let mut d = Driver::coop(Runtime::coop(2));
    let reg = Arc::new(Register::new(0));
    for pid in 0..2 {
        let task = ReadModifyWrite {
            reg: Arc::clone(&reg),
            read: None,
            primed: false,
        };
        d.submit_task(pid, OpSpec::custom("rmw", 0), task);
    }
    // p0 reads, p1 reads (same value!), both write.
    for pid in [0, 1, 0, 1] {
        assert_eq!(d.step(pid), StepOutcome::Stepped);
    }
    println!(
        "   both processes incremented; register holds {} (one update lost)\n",
        reg.peek()
    );
}

/// Freeze a process right after it wins a switch but before it updates
/// the helping array — the window Lemma III.3's sequence numbers guard.
fn frozen_announcer() {
    println!("── part 2: freezing an announcer mid-announcement ──");
    let n = 2;
    let k = 2;
    let counter = KmultCounter::new(n, k);
    let mut d = Driver::coop(Runtime::coop(n));

    // Process 0: one increment = one announcement (test&set switch_0).
    // NOTE: switch_0 announcements do not write H (paper lines 25–28),
    // so freeze instead inside a later announcement: TAS + H-write.
    // With k = 2, inc #1 sets switch_0 and inc #3 announces in interval 1.
    let h0 = Arc::new(Mutex::new(counter.handle(0)));
    d.submit_task(0, OpSpec::inc_by(3), KmultIncTask::batched(h0, 3));
    // Steps: 1 = TAS switch_0; 2 = TAS switch_1 (wins); 3 would be the
    // H-write. Stop after step 2: switch set, announcement unpublished.
    assert_eq!(d.step(0), StepOutcome::Stepped);
    assert_eq!(d.step(0), StepOutcome::Stepped);
    println!("   process 0 frozen: switch_1 is set, H[0] not yet written");
    println!(
        "   switch prefix now: {}{}{}",
        counter.peek_switch(0) as u8,
        counter.peek_switch(1) as u8,
        counter.peek_switch(2) as u8
    );

    // Process 1 reads; the frozen announcement is visible through the
    // switch (test&set landed), so the read may count it — and the
    // envelope still holds with the true count of 3 (2 completed + 1
    // in flight).
    let h1 = Arc::new(Mutex::new(counter.handle(1)));
    d.submit_task(1, OpSpec::read(), KmultReadTask::new(h1));
    d.run_solo(1);
    let read_val = d.history().ops().last().expect("read recorded").returned();
    let (p, q) = (1, 0); // reader saw switch_1 as the last set switch
    let (u_min, u_max) = (arith::u_min(p, q, k), arith::u_max(p, q, k, n));
    println!(
        "   process 1 read {read_val} = ReturnValue(p={p}, q={q}); increments linearized \
         before it (Claim III.6): [u_min, u_max] = [{u_min}, {u_max}]"
    );
    // The read is k-accurate whatever count in the envelope is the true one.
    assert!((u_min..=u_max).all(|x| accuracy::within_k(x, read_val, k)));
    println!("   {read_val} is within a factor k = {k} of every count in [{u_min}, {u_max}]");

    // Unfreeze 0 (it finishes the H-write and its remaining increment).
    d.run_solo(0);
    println!("   process 0 resumed and completed; the object was never blocked.");
    println!("   (wait-freedom: a frozen process can stall only itself.)");
}
