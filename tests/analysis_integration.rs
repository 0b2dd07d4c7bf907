//! `smr::analysis` against the real objects: the standard pass bundle
//! must run clean over representative gated workloads (any finding
//! there would be a genuine runtime-contract bug), and each
//! seeded poll-contract mutant must be caught with a precise report.
//! (The access-kind mutants need crate-private access and live in
//! `smr::analysis::mutant_tests`.)

use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use parking_lot::Mutex;
use smr::analysis::{AnalysisPass, Analyzer, HappensBefore, RunMeta, Violation};
use smr::explore::{explore, ExploreConfig};
use smr::sched::{RoundRobin, Scheduler, SeededRandom};
use smr::{AccessKind, Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime, TraceEvent};
use std::collections::HashSet;
use std::sync::Arc;

use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};

#[test]
fn standard_passes_run_clean_on_a_coop_kmult_workload() {
    let n = 6;
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    let mut d = Driver::coop(rt.clone());
    let c = KmultCounter::new(n, 3);
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
        for i in 0..8u64 {
            if i % 3 == 2 {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(42));
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "clean workload flagged: {violations:?}"
    );
}

#[test]
fn standard_passes_run_clean_on_a_coop_collect_workload() {
    let n = 4;
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    let counter = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(rt.clone());
    for pid in 0..n {
        for i in 0..10u64 {
            if i % 4 == 3 {
                d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
            }
        }
    }
    d.run_schedule(&mut SeededRandom::new(7));
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "clean workload flagged: {violations:?}"
    );
}

#[test]
fn standard_passes_run_clean_under_crashes() {
    let n = 3;
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    let mut d = Driver::coop(rt.clone());
    let counter = Arc::new(CollectCounter::new(n));
    for pid in 0..n {
        d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(pid, OpSpec::read(), CollectReadTask::new(counter.clone()));
    }
    let _ = d.step(1); // pid 1 parks mid-operation…
    d.crash(1); // …and dies there; its window must close cleanly
    d.run_schedule(&mut RoundRobin::new());
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(violations.is_empty(), "crash run flagged: {violations:?}");
}

/// Forwards the stream to a shared [`HappensBefore`], so its racy-pair
/// tallies stay readable after the analyzer has consumed the run.
struct SharedHb(Arc<Mutex<HappensBefore>>);

impl AnalysisPass for SharedHb {
    fn name(&self) -> &'static str {
        "happens-before"
    }
    fn on_attach(&mut self, meta: &RunMeta) {
        self.0.lock().on_attach(meta);
    }
    fn on_event(&mut self, ev: &TraceEvent) {
        self.0.lock().on_event(ev);
    }
    fn finish(&mut self) -> Vec<Violation> {
        self.0.lock().finish()
    }
}

/// The happens-before audit's racy pairs over one gated coop
/// Algorithm 1 run (n = 16, k = 4): the total, the retained pairs as
/// `(first_seq, second_seq, kinds)`, and how many distinct objects they
/// touch (object ids are addresses, so only their grouping repeats).
type RacyTally = (u64, Vec<(u64, u64, AccessKind, AccessKind)>, usize);

fn racy_tally(sched: &mut impl Scheduler) -> RacyTally {
    let (n, k) = (16, 4);
    let hb = Arc::new(Mutex::new(HappensBefore::new()));
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::new(vec![Box::new(SharedHb(hb.clone()))]));
    let mut d = Driver::coop(rt.clone());
    let c = KmultCounter::new(n, k);
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
        for i in 0..12u64 {
            if i % 4 == 3 {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
    }
    d.run_schedule(sched);
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(violations.is_empty(), "clean run flagged: {violations:?}");
    let hb = hb.lock();
    let objs = hb
        .racy_pairs()
        .iter()
        .map(|p| p.obj)
        .collect::<HashSet<_>>();
    let pairs = hb
        .racy_pairs()
        .iter()
        .map(|p| (p.first_seq, p.second_seq, p.kinds.0, p.kinds.1))
        .collect();
    (hb.racy_total(), pairs, objs.len())
}

/// FNV-1a over the retained pairs, so a test can pin all 64 at once.
fn digest(pairs: &[(u64, u64, AccessKind, AccessKind)]) -> u64 {
    let code = |k: AccessKind| match k {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::TestAndSet => 2,
        AccessKind::FetchAdd => 3,
    };
    pairs
        .iter()
        .flat_map(|&(a, b, ka, kb)| [a, b, code(ka), code(kb)])
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn racy_pairs_of_seeded_kmult_runs_are_pinned() {
    use AccessKind::{Read, TestAndSet, Write};
    // Values the audit produced with hash-map clocks: how clocks are
    // stored must not move a single pair.
    let (total, pairs, objs) = racy_tally(&mut RoundRobin::new());
    assert_eq!((total, pairs.len(), objs), (151, 64, 3));
    assert_eq!(pairs[0], (17, 25, Write, TestAndSet));
    assert_eq!(pairs[15], (137, 145, Write, Read));
    assert_eq!(digest(&pairs), 0x8ccb_9c41_3609_23f6);

    let (total, pairs, objs) = racy_tally(&mut SeededRandom::new(7));
    assert_eq!((total, pairs.len(), objs), (167, 64, 4));
    assert_eq!(pairs[4], (49, 57, Write, Read));
    assert_eq!(pairs[6], (57, 59, Read, TestAndSet));
    assert_eq!(digest(&pairs), 0x76d6_6eaf_d15b_300c);
}

/// Mutant: the granted poll applies *two* primitives.
struct GreedyTask {
    reg: Arc<Register>,
    primed: bool,
}

impl OpTask for GreedyTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        let v = self.reg.read(ctx);
        self.reg.write(ctx, v + 1); // second primitive in one poll
        Poll::Ready(u128::from(v))
    }
}

/// Mutant: the priming poll applies a primitive.
struct EagerTask {
    reg: Arc<Register>,
    primed: bool,
}

impl OpTask for EagerTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            let _ = self.reg.read(ctx); // primitive before any grant
            return Poll::Pending;
        }
        self.reg.write(ctx, 1);
        Poll::Ready(0)
    }
}

#[test]
fn poll_pass_flags_two_primitives_in_one_poll() {
    let rt = Runtime::coop(2);
    rt.attach_analysis(Analyzer::standard());
    // Lenient backend: the contract assert is off, so the mutant runs
    // on and the pass gets to diagnose it instead of a panic.
    let mut d = Driver::coop_lenient(rt.clone());
    d.submit_task(
        1,
        OpSpec::custom("greedy", 0),
        GreedyTask {
            reg: Arc::new(Register::new(0)),
            primed: false,
        },
    );
    d.run_solo(1);
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    let hit = violations
        .iter()
        .find(|v| v.pass == "poll-discipline")
        .unwrap_or_else(|| panic!("poll pass must flag the mutant: {violations:?}"));
    assert_eq!(hit.pid, Some(1), "the report names the process");
    assert!(hit.seq.is_some(), "the report pins the trace position");
    assert!(
        hit.message.contains("greedy") && hit.message.contains("2 primitives"),
        "the report names the machine and the count: {hit}"
    );
}

#[test]
fn poll_pass_flags_a_priming_primitive() {
    let rt = Runtime::coop(1);
    rt.attach_analysis(Analyzer::standard());
    let mut d = Driver::coop_lenient(rt.clone());
    d.submit_task(
        0,
        OpSpec::custom("eager", 0),
        EagerTask {
            reg: Arc::new(Register::new(0)),
            primed: false,
        },
    );
    d.run_solo(0);
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    let hit = violations
        .iter()
        .find(|v| v.pass == "poll-discipline")
        .unwrap_or_else(|| panic!("poll pass must flag the mutant: {violations:?}"));
    assert_eq!(hit.pid, Some(0));
    assert!(
        hit.message.contains("eager") && hit.message.contains("outside a granted poll"),
        "the report names the machine and the phase: {hit}"
    );
}

#[test]
fn explorer_surfaces_analysis_violations_like_checker_rejections() {
    // The explorer consults an attached analyzer after every checked
    // cut: a poll-contract mutant must surface as a FoundViolation with
    // the pass's diagnosis, minimized like any other failing schedule.
    let factory = || {
        let rt = Runtime::coop(2);
        rt.attach_analysis(Analyzer::standard());
        let mut d = Driver::coop_lenient(rt);
        let reg = Arc::new(Register::new(0));
        d.submit_task(
            0,
            OpSpec::custom("greedy", 0),
            GreedyTask {
                reg: reg.clone(),
                primed: false,
            },
        );
        d.submit_task(
            1,
            OpSpec::custom("obs", 0),
            EagerObserver { reg, primed: false },
        );
        d
    };
    let stats = explore(&ExploreConfig::default(), factory, |_h| Ok(()));
    assert!(!stats.violations.is_empty(), "the mutant must be caught");
    let v = &stats.violations[0];
    assert!(
        v.message.contains("[poll-discipline]") && v.message.contains("greedy"),
        "the explorer reports the pass diagnosis: {}",
        v.message
    );
    // Minimal reproduction: granting the greedy op its one poll.
    assert!(v.minimized.len() <= v.original.len());
    assert!(v.minimized.steps() >= 1);
}

/// Honest single-read peer for the explorer test.
struct EagerObserver {
    reg: Arc<Register>,
    primed: bool,
}

impl OpTask for EagerObserver {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        Poll::Ready(u128::from(self.reg.read(ctx)))
    }
}

#[test]
fn explorer_passes_clean_programs_with_an_analyzer_attached() {
    // Control for the mutant test: exhaustive exploration of an honest
    // program with the analyzer attached finds nothing, on every
    // interleaving.
    let factory = || {
        let rt = Runtime::coop(2);
        rt.attach_analysis(Analyzer::standard());
        let mut d = Driver::coop(rt);
        let counter = Arc::new(CollectCounter::new(2));
        for pid in 0..2 {
            d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        }
        d
    };
    let stats = explore(&ExploreConfig::exhaustive(100), factory, |_h| Ok(()));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(stats.interleavings > 1);
}
