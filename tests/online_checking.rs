//! End-to-end streaming linearizability checking: the
//! [`lincheck::LinearizabilityPass`] attached to a live driver run,
//! and the explorer surfacing (and minimizing) a racy counter that the
//! pass refutes inline — no `history_snapshot()` anywhere.

mod mutant;

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::LinearizabilityPass;
use parking_lot::Mutex;
use smr::analysis::Analyzer;
use smr::explore::{explore, ExploreConfig};
use smr::sched::{RoundRobin, SeededRandom};
use smr::{Driver, OpSpec, Runtime};
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
fn pass_checks_a_coop_kmult_run_against_two_specs() {
    // Algorithm 1 with k ≥ n stays k-accurate over the whole run: the
    // k-pass must finish clean (a broken ticket order would be a
    // violation of its own), and the exact pass, fed the same stream,
    // must still reject the run's inexact reads.
    let (n, k) = (4, 4);
    for seed in [5u64, 17, 29, 41, 53, 65] {
        let rt = Runtime::coop(n);
        rt.attach_analysis(Analyzer::new(vec![
            Box::new(LinearizabilityPass::counter(k)),
            Box::new(LinearizabilityPass::counter(1)),
        ]));
        let counter = KmultCounter::new(n, k);
        let mut d = Driver::coop(rt.clone());
        for pid in 0..n {
            let h: SharedKmultHandle = Arc::new(Mutex::new(counter.handle(pid)));
            for i in 1..=60u64 {
                if i % 6 == 0 {
                    d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
                } else {
                    d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
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
            "seed {seed}: a pass reported a notice: {notices:?}"
        );
        assert_eq!(violations.len(), 1, "seed {seed}: {violations:?}");
        assert!(
            violations[0].message.contains("empty window"),
            "seed {seed}: only the exact pass rejects: {}",
            violations[0]
        );
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
        mutant::lost_update(rt)
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
    let stats = explore(&ExploreConfig::exhaustive(), factory, |_h| Ok(()));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(stats.interleavings > 1);
}
