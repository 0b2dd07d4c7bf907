//! Observability must not perturb the explored behavior: the explorer's
//! instrumentation (replay, sleep-hit and backtrack counters) is
//! counters-only, and this suite pins that contract operationally —
//! the same program explored with metrics disabled and enabled reaches
//! the **bit-identical** set of history cuts, with identical walk
//! statistics. If an instrumentation site ever grows control flow (or
//! perturbs ticket draws, scheduling, or the DPOR race analysis), the
//! digest sets diverge and this test names the regression.
//!
//! The same discipline is checked on the coop backend's hot path: a
//! gated round-robin run must grant the same step count either way.
//!
//! Both tests also pin the exact counts perfbench's ledger reads: the
//! enabled walk counts one replay per replay, the enabled gated run one
//! poll per granted step plus one priming poll per operation, and the
//! disabled walk counts no replay.

use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use parking_lot::Mutex;
use smr::explore::{explore, ExploreConfig, ExploreStats};
use smr::sched::RoundRobin;
use smr::{CoopBackend, Driver, OpSpec, Runtime};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Serializes the tests in this file: both toggle the process-global
/// enabled flag, and the harness runs tests concurrently.
static FLAG: Mutex<()> = Mutex::new(());

/// Operations [`program`] submits: two on each of its 3 processes.
const PROGRAM_OPS: u64 = 6;

/// 3 processes on a collect counter: 2 increments each for two of
/// them, an increment + read for the third. Schedule-dependent step
/// counts, crash injection on — a walk with real branching.
fn program() -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(3));
    let c = Arc::new(CollectCounter::new(3));
    for pid in 0..3 {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
        if pid == 2 {
            d.submit_task(pid, OpSpec::read(), CollectReadTask::new(c.clone()));
        } else {
            d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
        }
    }
    d
}

/// Every history cut the DPOR walk reaches, as replay-stable digests,
/// plus the walk statistics.
fn dpor_digests(cfg: &ExploreConfig) -> (BTreeSet<String>, ExploreStats) {
    let mut digests = BTreeSet::new();
    let stats = explore(cfg, program, |h| {
        digests.insert(format!("{:?}", h.ops()));
        Ok(())
    });
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(!stats.capped);
    (digests, stats)
}

#[test]
fn dpor_walk_is_identical_with_metrics_on_and_off() {
    let _g = FLAG.lock();
    let cfg = ExploreConfig {
        max_crashes: 1,
        ..ExploreConfig::default()
    };

    let replays = || obs::counter(obs::names::SUB_EXPLORE, obs::names::EXPLORE_REPLAYS).get();

    obs::set_enabled(false);
    let before_off = replays();
    let (digests_off, stats_off) = dpor_digests(&cfg);
    let after_off = replays();

    obs::set_enabled(true);
    let (digests_on, stats_on) = dpor_digests(&cfg);
    obs::set_enabled(false);
    let after_on = replays();

    assert!(
        stats_off.interleavings > 1,
        "the parity program must actually branch"
    );
    assert_eq!(
        stats_off, stats_on,
        "walk statistics diverged between metrics-off and metrics-on"
    );
    assert_eq!(
        digests_off, digests_on,
        "the DPOR history-digest set changed when metrics were enabled — \
         instrumentation perturbed the walk"
    );
    assert_eq!(after_off, before_off, "a disabled walk counted replays");
    assert_eq!(
        after_on - after_off,
        stats_on.replays,
        "the enabled walk's replay counter disagrees with its replays"
    );
}

#[test]
fn gated_coop_grants_the_same_steps_with_metrics_on_and_off() {
    let _g = FLAG.lock();
    let run = || {
        let mut d = program();
        d.run_schedule(&mut RoundRobin::new())
    };

    obs::set_enabled(false);
    let steps_off = run();

    let polls_before = obs::counter(obs::names::SUB_COOP, obs::names::COOP_POLLS).get();
    obs::set_enabled(true);
    let steps_on = run();
    obs::set_enabled(false);
    let polls_after = obs::counter(obs::names::SUB_COOP, obs::names::COOP_POLLS).get();

    assert!(steps_off > 0);
    assert_eq!(
        steps_off, steps_on,
        "granted step count changed when metrics were enabled"
    );
    assert_eq!(
        polls_after - polls_before,
        steps_on + PROGRAM_OPS,
        "the enabled run must count one poll per granted step plus one \
         priming poll per operation"
    );
}
