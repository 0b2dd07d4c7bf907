//! End-to-end streaming linearizability checking: the
//! [`lincheck::LinearizabilityPass`] attached to a live driver run,
//! and the explorer surfacing (and minimizing) a racy counter that the
//! pass refutes inline — no `history_snapshot()` anywhere.

use approx_objects::{KmultCounter, KmultCounterHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::LinearizabilityPass;
use parking_lot::Mutex;
use smr::analysis::Analyzer;
use smr::explore::{explore, ExploreConfig};
use smr::sched::{RoundRobin, SeededRandom};
use smr::{Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
use std::sync::Arc;

fn lin_analyzer(k: u64) -> Arc<Analyzer> {
    Analyzer::new(vec![Box::new(LinearizabilityPass::counter(k))])
}

#[test]
fn pass_runs_clean_on_a_correct_coop_counter_workload() {
    let n = 4;
    let rt = Runtime::coop(n);
    rt.attach_analysis(lin_analyzer(1));
    let mut d = Driver::coop(rt.clone());
    let counter = Arc::new(CollectCounter::new(n));
    for pid in 0..n {
        for i in 0..6u64 {
            if i % 3 == 2 {
                d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(42));
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "correct counter flagged: {violations:?}"
    );
}

#[test]
fn pass_runs_clean_under_a_mid_operation_crash() {
    let n = 3;
    let rt = Runtime::coop(n);
    rt.attach_analysis(lin_analyzer(1));
    let mut d = Driver::coop(rt.clone());
    let counter = Arc::new(CollectCounter::new(n));
    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
    }
    let _ = d.step(1); // pid 1 parks mid-increment…
    d.crash(1); // …and dies: the open window must close without a report
    d.run_schedule(&mut RoundRobin::new());
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(violations.is_empty(), "crash run flagged: {violations:?}");
}

#[test]
fn pass_checks_a_thread_gated_kmult_run_through_its_reorder_window() {
    // On the thread backend workers emit their own announcements, so
    // the stream may trail ticket order and the pass holds events back
    // in its reorder window. Algorithm 1 with k ≥ n stays k-accurate
    // over the whole run: the k-pass must finish clean without going
    // inert, and the exact pass, fed the same stream, must still reject
    // the run's inexact reads.
    let (n, k) = (4, 4);
    for seed in [5u64, 17, 29, 41, 53, 65] {
        let rt = Runtime::gated(n);
        rt.attach_analysis(Analyzer::new(vec![
            Box::new(LinearizabilityPass::counter(k)),
            Box::new(LinearizabilityPass::counter(1)),
        ]));
        let counter = KmultCounter::new(n, k);
        let handles: Arc<Vec<Mutex<KmultCounterHandle>>> =
            Arc::new((0..n).map(|p| Mutex::new(counter.handle(p))).collect());
        let mut d = Driver::new(rt.clone());
        for pid in 0..n {
            for i in 1..=60u64 {
                let handles = Arc::clone(&handles);
                if i % 6 == 0 {
                    d.submit(pid, OpSpec::read(), move |ctx| {
                        handles[pid].lock().read(ctx)
                    });
                } else {
                    d.submit(pid, OpSpec::inc(), move |ctx| {
                        handles[pid].lock().increment(ctx);
                        0
                    });
                }
            }
        }
        d.run_schedule(&mut SeededRandom::new(seed));
        drop(d);
        let analyzer = rt.analysis().unwrap();
        let violations = analyzer.finish();
        let notices = analyzer.summaries();
        assert!(
            notices.is_empty(),
            "seed {seed}: pass went inert: {notices:?}"
        );
        assert_eq!(violations.len(), 1, "seed {seed}: {violations:?}");
        assert!(
            violations[0].message.contains("empty window"),
            "seed {seed}: only the exact pass rejects: {}",
            violations[0]
        );
    }
}

/// The racy mutant from `tests/explore.rs`: increments read-modify-write
/// one shared register, so interleaved increments lose updates.
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

#[test]
fn explorer_catches_the_lost_update_through_the_pass_alone() {
    // Same racy workload the offline explorer test refutes with an
    // end-of-run `check_counter_records` — here the *final check is a
    // no-op* and the streaming pass must catch it by itself, surfaced
    // and ddmin-minimized like any other analysis finding.
    let factory = || {
        let rt = Runtime::coop(3);
        rt.attach_analysis(lin_analyzer(1));
        let mut d = Driver::coop(rt);
        let cell = Arc::new(Register::new(0));
        for pid in 0..2 {
            d.submit_task(
                pid,
                OpSpec::inc(),
                SharedCellInc {
                    cell: cell.clone(),
                    read: None,
                    primed: false,
                },
            );
        }
        for _ in 0..2 {
            d.submit_task(
                2,
                OpSpec::read(),
                SharedCellRead {
                    cell: cell.clone(),
                    primed: false,
                },
            );
        }
        d
    };
    let stats = explore(&ExploreConfig::default(), factory, |_h| Ok(()));
    assert!(
        !stats.violations.is_empty(),
        "the lost update must be caught inline"
    );
    let v = &stats.violations[0];
    assert!(
        v.message.contains("[linearizability]"),
        "the finding carries the pass name: {}",
        v.message
    );
    assert!(v.minimized.len() <= v.original.len());
    assert!(v.minimized.steps() >= 1, "a replayable minimized schedule");
}

#[test]
fn explorer_stays_quiet_on_the_honest_counter_with_the_pass_attached() {
    // Control: exhaustive exploration of the correct collect counter
    // with the streaming pass attached finds nothing anywhere.
    let factory = || {
        let rt = Runtime::coop(2);
        rt.attach_analysis(lin_analyzer(1));
        let mut d = Driver::coop(rt);
        let counter = Arc::new(CollectCounter::new(2));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(1, OpSpec::read(), CollectReadTask::new(counter.clone()));
        d
    };
    let stats = explore(&ExploreConfig::exhaustive(100), factory, |_h| Ok(()));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(stats.interleavings > 1);
}
