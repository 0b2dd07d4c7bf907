//! The hot paths add their counts to `obs` in batches, not one atomic
//! add per event: the coop backend publishes its polls once per batch
//! round, at every drain and at teardown, and the linearizability pass
//! publishes its pushes once per delivered trace batch. Batching must
//! not change a count a reader sees once the run is at rest; this suite
//! pins both counts exactly, read while the driver is still alive.

use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::LinearizabilityPass;
use parking_lot::Mutex;
use smr::analysis::Analyzer;
use smr::sched::SeededRandom;
use smr::{CoopBackend, Driver, OpSpec, Runtime};
use std::sync::Arc;

/// Serializes the tests in this file: both toggle the process-global
/// enabled flag, and the harness runs tests concurrently.
static FLAG: Mutex<()> = Mutex::new(());

const N: usize = 16;
const OPS_PER_PROC: usize = 20;

/// Every process increments a collect counter, reading it every fourth
/// operation: `N · OPS_PER_PROC` operations, enough trace events for
/// several delivered batches.
fn submit_workload(d: &mut Driver<CoopBackend>) {
    let c = Arc::new(CollectCounter::new(N));
    for pid in 0..N {
        for i in 0..OPS_PER_PROC {
            if i % 4 == 3 {
                d.submit_task(pid, OpSpec::read(), CollectReadTask::new(c.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
            }
        }
    }
}

fn count(subsystem: &'static str, name: &'static str) -> u64 {
    obs::counter(subsystem, name).get()
}

#[test]
fn a_gated_runs_lincheck_pushes_are_twice_its_completed_operations() {
    let _g = FLAG.lock();
    let rt = Runtime::coop(N);
    let pass = LinearizabilityPass::counter(1);
    rt.attach_analysis(Analyzer::new(vec![Box::new(pass)]));
    let mut d = Driver::coop(rt.clone());

    obs::set_enabled(true);
    let before = count(obs::names::SUB_LINCHECK, obs::names::LINCHECK_PUSHES);
    // Submission already announces each process's first operation.
    submit_workload(&mut d);
    d.run_schedule(&mut SeededRandom::new(7));
    let pushes = count(obs::names::SUB_LINCHECK, obs::names::LINCHECK_PUSHES) - before;
    obs::set_enabled(false);

    let findings = rt.analysis().expect("attached").finish();
    assert!(findings.is_empty(), "{findings:?}");
    let completed = d.history().completed().len() as u64;
    assert_eq!(completed, (N * OPS_PER_PROC) as u64);
    assert_eq!(
        pushes,
        2 * completed,
        "one push per announcement and one per completion"
    );
}

#[test]
fn a_free_runs_polls_are_exact_once_wait_all_returns() {
    let _g = FLAG.lock();
    let rt = Runtime::coop_free(N);
    let mut d = Driver::coop_free(rt.clone());

    obs::set_enabled(true);
    let before = count(obs::names::SUB_COOP, obs::names::COOP_POLLS);
    // Submission already primes each process's first operation.
    submit_workload(&mut d);
    d.wait_all();
    let polls = count(obs::names::SUB_COOP, obs::names::COOP_POLLS) - before;
    obs::set_enabled(false);

    // A batch poll applies exactly one primitive and a priming poll
    // none, so every step and every operation's start is one poll.
    assert_eq!(polls, rt.total_steps() + (N * OPS_PER_PROC) as u64);
}
