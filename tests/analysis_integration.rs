//! `smr::analysis` against the real objects: the standard bundle
//! (access-kind conformance) must run clean over representative gated
//! workloads, on one schedule at up to 10⁴ processes and on every
//! explored interleaving of small programs (any finding there would be
//! a genuine runtime-contract bug); the
//! happens-before pass's racy pairs are pinned; the analysis sink sees
//! the same event stream as the trace log; and a test-local pass's
//! finding surfaces from the explorer as a minimized failing schedule.
//! The access-kind mutants need crate-private access and live in
//! `smr::analysis::mutant_tests`; a poll-contract mutant panics in the
//! coop backend, as `smr::driver`'s `should_panic` tests pin.

use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use parking_lot::Mutex;
use smr::analysis::{AnalysisPass, Analyzer, HappensBefore, RunMeta, Violation};
use smr::explore::{explore, Choice, ExploreConfig};
use smr::sched::{RoundRobin, Scheduler, SeededRandom};
use smr::{
    AccessKind, CoopBackend, Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime, TraceEvent,
};
use std::collections::{HashMap, HashSet};
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
    d.crash(1); // …and dies there
    d.run_schedule(&mut RoundRobin::new());
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(violations.is_empty(), "crash run flagged: {violations:?}");
}

/// Read one register of a shared pool, then write the next: the chains
/// `exp_scale`'s `reg` rows submit (2 primitives per operation).
struct Chain {
    pool: Arc<Vec<Register>>,
    at: usize,
    read: Option<u64>,
    primed: bool,
}

impl OpTask for Chain {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !std::mem::replace(&mut self.primed, true) {
            return Poll::Pending;
        }
        let len = self.pool.len();
        match self.read {
            None => {
                self.read = Some(self.pool[self.at % len].read(ctx));
                Poll::Pending
            }
            Some(v) => {
                self.pool[(self.at + 1) % len].write(ctx, v + 1);
                Poll::Ready(u128::from(v))
            }
        }
    }
}

#[test]
fn standard_passes_run_clean_on_register_chains_at_ten_thousand_processes() {
    // 10⁴ processes over 1 024 multi-writer registers, round-robin: each
    // register is read and written by about forty processes.
    let (n, ops) = (10_000, 4);
    let rt = Runtime::coop(n);
    rt.attach_analysis(Analyzer::standard());
    let mut d = Driver::coop(rt.clone());
    let pool: Arc<Vec<Register>> = Arc::new((0..1024).map(|_| Register::new(0)).collect());
    for pid in 0..n {
        for j in 0..ops {
            let task = Chain {
                pool: pool.clone(),
                at: pid + j,
                read: None,
                primed: false,
            };
            d.submit_task(pid, OpSpec::custom("chain", j as u128), task);
        }
    }
    assert_eq!(d.run_schedule(&mut RoundRobin::new()), 2 * (n * ops) as u64);
    drop(d);
    let violations = rt.analysis().unwrap().finish();
    assert!(
        violations.is_empty(),
        "clean chains flagged: {violations:?}"
    );
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

/// Keeps every event the analyzer hands it, so a test can compare the
/// analysis sink's view of the stream with the trace log's.
struct Recorder(Arc<Mutex<Vec<TraceEvent>>>);

impl AnalysisPass for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn on_event(&mut self, ev: &TraceEvent) {
        self.0.lock().push(*ev);
    }
    fn finish(&mut self) -> Vec<Violation> {
        Vec::new()
    }
}

/// The trace log and the analysis sink after some driver call: both
/// views hold the same events in the same order, numbered 0, 1, 2, …
/// without a gap, and every completion and crash the history records
/// has reached them. Returns the events the call added.
fn both_views_agree(
    rt: &Runtime,
    d: &Driver<CoopBackend>,
    seen: &Mutex<Vec<TraceEvent>>,
    log: &mut Vec<TraceEvent>,
    after: &str,
) -> Vec<TraceEvent> {
    let fresh = rt.take_trace();
    log.extend_from_slice(&fresh);
    assert_eq!(*seen.lock(), *log, "after {after}: the sink's view differs");
    for (i, ev) in log.iter().enumerate() {
        assert_eq!(ev.seq(), i as u64, "after {after}: seq gap at {i}: {ev:?}");
    }
    let traced = |f: fn(&TraceEvent) -> bool| log.iter().filter(|e| f(e)).count();
    let completions = traced(|e| matches!(e, TraceEvent::Complete { .. }));
    let crashes = traced(|e| matches!(e, TraceEvent::Crash { .. }));
    let h = d.history();
    assert_eq!(completions, h.len() - h.pending().len(), "after {after}");
    assert_eq!(crashes, h.pending().len(), "after {after}");
    fresh
}

#[test]
fn batched_trace_delivery_is_invisible_to_log_and_sink() {
    let n = 4;
    let rt = Runtime::coop(n);
    let seen = Arc::new(Mutex::new(Vec::new()));
    rt.attach_analysis(Analyzer::new(vec![Box::new(Recorder(seen.clone()))]));
    rt.enable_tracing();
    let c = Arc::new(CollectCounter::new(n));
    let mut d = Driver::coop(rt.clone());
    let mut log = Vec::new();

    d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
    let fresh = both_views_agree(&rt, &d, &seen, &mut log, "submit_task");
    assert!(
        matches!(fresh[..], [TraceEvent::Invoke { pid: 0, .. }]),
        "{fresh:?}"
    );

    // A primitive applied through a runtime context between two steps
    // lands between their events in both views.
    let outside = Register::new(0);
    d.step(0);
    let fresh = both_views_agree(&rt, &d, &seen, &mut log, "step");
    assert!(
        matches!(
            fresh[..],
            [TraceEvent::Grant { pid: 0, .. }, TraceEvent::Access(_)]
        ),
        "{fresh:?}"
    );
    outside.write(&rt.ctx(3), 7);
    d.step(0);
    let fresh = both_views_agree(&rt, &d, &seen, &mut log, "a write and a step");
    let write = fresh[0].access().map(|a| (a.pid, a.obj));
    assert_eq!(write, Some((3, outside.obj_id())), "{fresh:?}");
    assert!(
        matches!(fresh[1], TraceEvent::Grant { pid: 0, .. }),
        "{fresh:?}"
    );

    for _ in 0..3 {
        d.submit_task(1, OpSpec::inc(), CollectIncTask::new(c.clone()));
    }
    d.submit_task(1, OpSpec::read(), CollectReadTask::new(c.clone()));
    both_views_agree(&rt, &d, &seen, &mut log, "submit_task");
    assert_eq!(d.run_solo(1), 3 * 2 + n as u64);
    let fresh = both_views_agree(&rt, &d, &seen, &mut log, "run_solo");
    assert!(matches!(
        fresh.last(),
        Some(TraceEvent::Complete { pid: 1, .. })
    ));

    d.submit_task(2, OpSpec::inc(), CollectIncTask::new(c.clone()));
    d.step(2);
    d.crash(2);
    let fresh = both_views_agree(&rt, &d, &seen, &mut log, "crash");
    assert!(matches!(
        fresh.last(),
        Some(TraceEvent::Crash { pid: 2, .. })
    ));

    let snap = d.history_snapshot();
    assert!(both_views_agree(&rt, &d, &seen, &mut log, "history_snapshot").is_empty());
    assert_eq!(snap.pending().len(), 1, "the crashed increment");

    // Enough operations that one run crosses the batch size (1 024
    // events) several times: each increment is six events.
    for pid in [0, 1, 3] {
        for i in 0..300 {
            if i % 10 == 9 {
                d.submit_task(pid, OpSpec::read(), CollectReadTask::new(c.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
            }
        }
    }
    both_views_agree(&rt, &d, &seen, &mut log, "submit_task");
    d.run_schedule(&mut SeededRandom::new(11));
    let fresh = both_views_agree(&rt, &d, &seen, &mut log, "run_schedule");
    assert!(fresh.len() > 4 * 1024, "{} events", fresh.len());
    assert!(matches!(fresh.last(), Some(TraceEvent::Complete { .. })));
}

/// A deliberately false invariant, so that some interleavings of an
/// honest program break it: no process reads an object whose last
/// nontrivial primitive another process applied. The finding names the
/// reading operation and both processes.
#[derive(Default)]
struct NoForeignReads {
    /// The label of each process's open operation.
    open: HashMap<usize, &'static str>,
    /// The last process to apply a nontrivial primitive, per object.
    writer: HashMap<usize, usize>,
    found: Vec<Violation>,
}

impl AnalysisPass for NoForeignReads {
    fn name(&self) -> &'static str {
        "no-foreign-reads"
    }
    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Invoke { pid, kind, .. } => {
                self.open.insert(pid, kind.label());
            }
            TraceEvent::Access(a) if a.kind.is_nontrivial() => {
                self.writer.insert(a.obj, a.pid);
            }
            TraceEvent::Access(a) => match self.writer.get(&a.obj) {
                Some(&w) if w != a.pid => self.found.push(Violation {
                    pass: "no-foreign-reads",
                    pid: Some(a.pid),
                    seq: Some(a.seq),
                    message: format!("{} read a cell pid {w} wrote", self.open[&a.pid]),
                }),
                _ => {}
            },
            _ => {}
        }
    }
    fn finish(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.found)
    }
}

#[test]
fn explorer_surfaces_analysis_violations_like_checker_rejections() {
    // The explorer consults an attached analyzer after every checked
    // cut: a pass's finding must surface as a FoundViolation with the
    // pass's diagnosis, minimized like any other failing schedule. The
    // pass is defined here, outside `smr`, through the public
    // `AnalysisPass` trait.
    let factory = || {
        let rt = Runtime::coop(2);
        rt.attach_analysis(Analyzer::new(vec![Box::new(NoForeignReads::default())]));
        let mut d = Driver::coop(rt);
        let counter = Arc::new(CollectCounter::new(2));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(counter.clone()));
        d.submit_task(1, OpSpec::read(), CollectReadTask::new(counter));
        d
    };
    let stats = explore(&ExploreConfig::default(), factory, |_h| Ok(()));
    assert!(!stats.violations.is_empty(), "the finding must be surfaced");
    let v = &stats.violations[0];
    assert!(
        v.message.contains("[no-foreign-reads]") && v.message.contains("read a cell pid 0"),
        "the explorer reports the pass diagnosis: {}",
        v.message
    );
    // Minimal reproduction: the increment's read and write of cell 0,
    // then the collect's read of that cell.
    assert!(v.minimized.len() <= v.original.len());
    assert_eq!(
        v.minimized.choices,
        [Choice::Step(0), Choice::Step(0), Choice::Step(1)]
    );
}

#[test]
fn explorer_passes_clean_programs_with_an_analyzer_attached() {
    // Exhaustive exploration of an honest program with the analyzer
    // attached finds nothing, on every interleaving.
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
    let stats = explore(&ExploreConfig::exhaustive(), factory, |_h| Ok(()));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(stats.interleavings > 1);
}
