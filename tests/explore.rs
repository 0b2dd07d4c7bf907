//! `smr::explore` against the real objects: the schedule-quantified
//! linearizability claims, checked exhaustively for small
//! configurations.
//!
//! Three kinds of evidence, per the harness's design:
//!
//! * **Counting** — for programs whose per-process step counts are
//!   schedule-independent, the number of enumerated interleavings must
//!   equal the multinomial closed form `(Σsᵢ)!/Πsᵢ!`; this pins the
//!   enumerator itself (no duplicate, no missed branch).
//! * **Verification** — every enumerated cut of a real object's history
//!   (including crash cuts and step-bound suspensions) passes the
//!   `lincheck` monotone checkers. A passing run is a *proof* of the
//!   property for that configuration, not a sample.
//! * **Refutation** — a deliberately broken object (the collect
//!   counter's single-writer-cell discipline dropped, so all processes
//!   read-modify-write one shared cell) must be caught, and the failing
//!   schedule minimized to its essential interleaving.

use approx_objects::{KaddCounter, KaddIncTask, KaddReadTask, SharedKaddHandle};
use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use bench::multinomial;
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::{check_counter_records, check_maxreg_records};
use parking_lot::Mutex;
use smr::explore::{explore, Choice, ExploreConfig};
use smr::{CoopBackend, Driver, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn kmult_3x2_interleavings_match_the_multinomial_closed_form() {
    // The acceptance configuration: 3 processes, 2 operations each, on
    // Algorithm 1 with k = 3. The first increment announces via
    // `switch_0` (exactly one test&set, win or lose); the second stays
    // below its announcement threshold (zero primitives, completing on
    // the priming poll). Per-process step counts are therefore
    // schedule-independent — 1 each — and the exhaustive enumeration
    // must visit exactly 3!/(1!·1!·1!) = 6 interleavings.
    let k = 3;
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = KmultCounter::new(3, k);
        for pid in 0..3 {
            let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
            for _ in 0..2 {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
        d
    };
    let stats = explore(&ExploreConfig::exhaustive(100), factory, |h| {
        check_counter_records(h, k)
    });
    assert_eq!(u128::from(stats.interleavings), multinomial(&[1, 1, 1]));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(!stats.capped);
}

#[test]
fn kmult_with_reads_has_no_violating_schedule() {
    // Mixed increments and reads of Algorithm 1 at k = 2: read costs
    // are schedule-dependent (the cursor chases announced switches), so
    // no closed form — but every interleaving, including step-bound
    // suspension cuts, must satisfy the k-multiplicative counter spec.
    let k = 2;
    let factory = move || {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = KmultCounter::new(3, k);
        let hs: Vec<SharedKmultHandle> =
            (0..3).map(|p| Arc::new(Mutex::new(c.handle(p)))).collect();
        d.submit_task(0, OpSpec::inc(), KmultIncTask::new(hs[0].clone()));
        d.submit_task(0, OpSpec::inc(), KmultIncTask::new(hs[0].clone()));
        d.submit_task(1, OpSpec::inc(), KmultIncTask::new(hs[1].clone()));
        d.submit_task(1, OpSpec::read(), KmultReadTask::new(hs[1].clone()));
        d.submit_task(2, OpSpec::read(), KmultReadTask::new(hs[2].clone()));
        d.submit_task(2, OpSpec::inc(), KmultIncTask::new(hs[2].clone()));
        d
    };
    let stats = explore(&ExploreConfig::default(), factory, |h| {
        check_counter_records(h, k)
    });
    assert!(stats.interleavings > 0);
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
}

#[test]
fn collect_counter_with_reader_is_exact_on_every_schedule() {
    // 2 incrementers (2 primitives each: read + write of the own cell)
    // and 1 reader (3 cell reads): multinomial(7; 2,2,3) interleavings,
    // every one exact (k = 1).
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = Arc::new(CollectCounter::new(3));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(1, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(2, OpSpec::read(), CollectReadTask::new(c.clone()));
        d
    };
    let stats = explore(&ExploreConfig::exhaustive(100), factory, |h| {
        check_counter_records(h, 1)
    });
    assert_eq!(u128::from(stats.interleavings), multinomial(&[2, 2, 3]));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);

    // Pruning must cut work without changing the verdict.
    let pruned = explore(&ExploreConfig::default(), factory, |h| {
        check_counter_records(h, 1)
    });
    assert!(pruned.interleavings < stats.interleavings);
    assert!(pruned.pruned > 0);
    assert!(pruned.all_ok());
}

#[test]
fn kadd_counter_is_additively_accurate_on_every_schedule() {
    // The k-additive counter has no linearizability claim of its own
    // here; what is schedule-quantified is the accuracy envelope: a
    // read's collect-sum never exceeds the submitted increments, and a
    // completed read that every publish precedes sees everything
    // published. We check the cheap invariant on every cut: sum ≤
    // submitted increments (the counter never overcounts).
    let n = 3;
    let k = 2; // threshold ⌊k/n⌋+1 = 1: every increment publishes
    let factory = move || {
        let mut d = Driver::coop(Runtime::coop(n));
        let c = KaddCounter::new(n, k);
        for pid in 0..n {
            let h: SharedKaddHandle = Arc::new(Mutex::new(c.handle(pid)));
            d.submit_task(pid, OpSpec::inc(), KaddIncTask::new(h.clone()));
        }
        d.submit_task(0, OpSpec::read(), KaddReadTask::new(c));
        d
    };
    let stats = explore(&ExploreConfig::exhaustive(100), factory, |h| {
        for r in h.ops() {
            if let smr::OpKind::Read { returned } = r.kind {
                if r.resp.is_some() && returned > 3 {
                    return Err(format!("collect-sum {returned} exceeds 3 increments"));
                }
            }
        }
        Ok(())
    });
    // Each publish is one write; the read is 3 cell reads; pid 0 runs
    // inc (1 step) then read (3 steps).
    assert_eq!(u128::from(stats.interleavings), multinomial(&[4, 1, 1]));
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
}

#[test]
fn tree_maxreg_is_linearizable_on_every_schedule() {
    use maxreg::{TreeMaxReadTask, TreeMaxRegister, TreeMaxWriteTask};
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(3));
        let r = Arc::new(TreeMaxRegister::new(8));
        d.submit_task(0, OpSpec::write(5), TreeMaxWriteTask::new(r.clone(), 5));
        d.submit_task(1, OpSpec::write(3), TreeMaxWriteTask::new(r.clone(), 3));
        d.submit_task(2, OpSpec::read(), TreeMaxReadTask::new(r.clone()));
        d.submit_task(2, OpSpec::read(), TreeMaxReadTask::new(r.clone()));
        d
    };
    let stats = explore(&ExploreConfig::default(), factory, |h| {
        check_maxreg_records(h, 1)
    });
    assert!(stats.interleavings > 0);
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
}

/// The seeded mutant: a "counter" whose increments all read-modify-write
/// one shared register — the collect counter with its single-writer-cell
/// discipline deliberately dropped. Interleaved increments lose updates.
struct SharedCellInc {
    cell: Arc<Register>,
    read: Option<u64>,
    primed: bool,
}

impl SharedCellInc {
    fn new(cell: Arc<Register>) -> Self {
        SharedCellInc {
            cell,
            read: None,
            primed: false,
        }
    }
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

/// One read of the mutant's shared cell.
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
fn explorer_refutes_the_seeded_mutant_and_minimizes_the_schedule() {
    // Two increments race the shared cell; the reader queues two reads
    // so the second read's invocation (announced when the first
    // completes) can land after both increments' responses — only then
    // does real-time order force the read to count them.
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(3));
        let cell = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::inc(), SharedCellInc::new(cell.clone()));
        d.submit_task(1, OpSpec::inc(), SharedCellInc::new(cell.clone()));
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
    let check = |h: &smr::History| check_counter_records(h, 1);

    let stats = explore(&ExploreConfig::default(), factory, check);
    assert_eq!(stats.violations.len(), 1, "the lost update must be caught");
    let v = &stats.violations[0];

    // The minimal failing schedule: both increments interleave (4
    // steps) and both reads complete after them (2 steps) — nothing
    // less violates, so ddmin cannot go below 6 steps.
    assert_eq!(v.minimized.steps(), 6, "minimized to the essential races");
    assert!(v.minimized.len() <= v.original.len());
    assert!(
        v.minimized
            .choices
            .iter()
            .all(|c| matches!(c, Choice::Step(_))),
        "no crashes were injected"
    );

    // The minimized schedule is replayable and still violating.
    assert!(check(&v.minimized.run(factory())).is_err());
    // Crash-free, so it also converts to a Scripted scheduler.
    let script = v.minimized.to_scripted();
    assert!(script.is_some(), "crash-free schedules export as Scripted");

    // And the exact counter checker names the stale read.
    assert!(!v.message.is_empty());
}

#[test]
fn crash_injection_never_double_emits_pending_records() {
    // Collect counter under crash injection: every cut must (a) pass
    // the exact-counter check — a crashed increment's effect is
    // optional — and (b) contain at most one record per operation:
    // unique invocation timestamps, and no (pid, inv) both pending and
    // completed. This extends `history_snapshot`'s coverage to every
    // crash position the explorer reaches.
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = Arc::new(CollectCounter::new(3));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(1, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(2, OpSpec::read(), CollectReadTask::new(c.clone()));
        d
    };
    let cfg = ExploreConfig {
        max_crashes: 2,
        ..ExploreConfig::default()
    };
    let mut cuts = 0u64;
    let stats = explore(&cfg, factory, |h| {
        cuts += 1;
        let mut invs: Vec<u64> = h.ops().iter().map(|r| r.inv).collect();
        invs.sort_unstable();
        let before = invs.len();
        invs.dedup();
        if invs.len() != before {
            return Err("duplicate record for one invocation".into());
        }
        for pid in 0..3 {
            let pending = h
                .ops()
                .iter()
                .filter(|r| r.pid == pid && r.resp.is_none())
                .count();
            if pending > 1 {
                return Err(format!("pid {pid}: {pending} pending records"));
            }
        }
        check_counter_records(h, 1)
    });
    assert!(stats.interleavings > 0);
    assert_eq!(stats.interleavings, cuts);
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
}

/// Every history cut the walk under `cfg` reaches, as replay-stable
/// digests (`OpRecord` carries no addresses, so its debug form compares
/// across fresh replays).
fn digest_set<F>(cfg: &ExploreConfig, factory: F) -> BTreeSet<String>
where
    F: Fn() -> Driver<CoopBackend>,
{
    let mut digests = BTreeSet::new();
    let stats = explore(cfg, &factory, |h: &smr::History| {
        digests.insert(format!("{:?}", h.ops()));
        Ok(())
    });
    assert!(stats.all_ok());
    assert!(!stats.capped);
    digests
}

#[test]
fn reductions_preserve_the_reachable_history_set() {
    // DPOR's soundness contract, pinned operationally against the raw
    // DFS on every real-object program this suite explores: skipping
    // equivalent interleavings must not change the *set* of reachable
    // history cuts — ticket values, step counts and all — including
    // under crash injection. (Counts differ by design; the reachable
    // histories may not.)
    type Program = (&'static str, usize, Box<dyn Fn() -> Driver<CoopBackend>>);
    let programs: Vec<Program> = vec![
        (
            "collect-with-reader",
            0,
            Box::new(|| {
                let mut d = Driver::coop(Runtime::coop(3));
                let c = Arc::new(CollectCounter::new(3));
                d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
                d.submit_task(1, OpSpec::inc(), CollectIncTask::new(c.clone()));
                d.submit_task(2, OpSpec::read(), CollectReadTask::new(c.clone()));
                d
            }),
        ),
        (
            "kmult-mixed",
            0,
            Box::new(|| {
                let mut d = Driver::coop(Runtime::coop(3));
                let c = KmultCounter::new(3, 2);
                let hs: Vec<SharedKmultHandle> =
                    (0..3).map(|p| Arc::new(Mutex::new(c.handle(p)))).collect();
                d.submit_task(0, OpSpec::inc(), KmultIncTask::new(hs[0].clone()));
                d.submit_task(1, OpSpec::inc(), KmultIncTask::new(hs[1].clone()));
                d.submit_task(1, OpSpec::read(), KmultReadTask::new(hs[1].clone()));
                d.submit_task(2, OpSpec::read(), KmultReadTask::new(hs[2].clone()));
                d
            }),
        ),
        (
            "kadd",
            0,
            Box::new(|| {
                let mut d = Driver::coop(Runtime::coop(3));
                let c = KaddCounter::new(3, 2);
                for pid in 0..3 {
                    let h: SharedKaddHandle = Arc::new(Mutex::new(c.handle(pid)));
                    d.submit_task(pid, OpSpec::inc(), KaddIncTask::new(h.clone()));
                }
                d.submit_task(0, OpSpec::read(), KaddReadTask::new(c));
                d
            }),
        ),
        (
            "tree-maxreg",
            0,
            Box::new(|| {
                use maxreg::{TreeMaxReadTask, TreeMaxRegister, TreeMaxWriteTask};
                let mut d = Driver::coop(Runtime::coop(3));
                let r = Arc::new(TreeMaxRegister::new(8));
                d.submit_task(0, OpSpec::write(5), TreeMaxWriteTask::new(r.clone(), 5));
                d.submit_task(1, OpSpec::write(3), TreeMaxWriteTask::new(r.clone(), 3));
                d.submit_task(2, OpSpec::read(), TreeMaxReadTask::new(r.clone()));
                d
            }),
        ),
        (
            "collect-crashes",
            2,
            Box::new(|| {
                let mut d = Driver::coop(Runtime::coop(2));
                let c = Arc::new(CollectCounter::new(2));
                d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
                d.submit_task(1, OpSpec::read(), CollectReadTask::new(c.clone()));
                d
            }),
        ),
    ];
    for (name, crashes, factory) in &programs {
        let exhaustive = digest_set(
            &ExploreConfig {
                max_crashes: *crashes,
                ..ExploreConfig::exhaustive(100)
            },
            factory,
        );
        assert!(!exhaustive.is_empty(), "{name}: no cuts reached");
        let dpor = digest_set(
            &ExploreConfig {
                max_crashes: *crashes,
                ..ExploreConfig::default()
            },
            factory,
        );
        assert_eq!(
            dpor, exhaustive,
            "{name}: DPOR changed the reachable history set"
        );
    }
}

/// pid 0's whole operation in one grant: write `a`, read `b`, complete —
/// two primitives in one poll, a contract breach only the lenient
/// backend lets run.
struct WriteThenRead {
    a: Arc<Register>,
    b: Arc<Register>,
    primed: bool,
}

impl OpTask for WriteThenRead {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        self.a.write(ctx, 1);
        Poll::Ready(u128::from(self.b.read(ctx)))
    }
}

/// A read op over two grants: `a` first, then `c`; returns what `a`
/// held.
struct ReadTwoCells {
    a: Arc<Register>,
    c: Arc<Register>,
    seen: Option<u64>,
    primed: bool,
}

impl OpTask for ReadTwoCells {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending;
        }
        match self.seen {
            None => {
                self.seen = Some(self.a.read(ctx));
                Poll::Pending
            }
            Some(v) => {
                let _ = self.c.read(ctx);
                Poll::Ready(u128::from(v))
            }
        }
    }
}

#[test]
fn dpor_stays_exhaustive_around_a_step_without_metadata() {
    // A step that applies two primitives gets no metadata, and a step
    // without metadata commutes with nothing, so DPOR must reach every
    // cut the raw DFS reaches. Keyed on its last primitive alone (the
    // read of `b`), pid 0's step would look independent of pid 1's read
    // of `a`, and the cut where pid 0 runs between pid 1's two reads
    // would be lost.
    let factory = || {
        let mut d = Driver::coop_lenient(Runtime::coop(2));
        let a = Arc::new(Register::new(0));
        let b = Arc::new(Register::new(0));
        let c = Arc::new(Register::new(0));
        d.submit_task(
            0,
            OpSpec::custom("write-read", 0),
            WriteThenRead {
                a: a.clone(),
                b,
                primed: false,
            },
        );
        d.submit_task(
            1,
            OpSpec::read(),
            ReadTwoCells {
                a,
                c,
                seen: None,
                primed: false,
            },
        );
        d
    };
    let exhaustive = digest_set(&ExploreConfig::exhaustive(100), factory);
    assert_eq!(
        exhaustive.len(),
        3,
        "pid 0 runs before, between or after pid 1's reads"
    );
    let dpor = digest_set(&ExploreConfig::default(), factory);
    assert_eq!(dpor, exhaustive, "DPOR lost a cut the raw DFS reaches");
}

#[test]
fn the_interleaving_cap_stops_either_walk_after_exactly_that_many_cuts() {
    // Collect 3×2 has 34 650 raw interleavings and 132 DPOR
    // representatives; a cap of 5 must stop the raw DFS and DPOR alike
    // after 5 checked cuts, and say so.
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(3));
        let c = Arc::new(CollectCounter::new(3));
        for pid in 0..3 {
            for _ in 0..2 {
                d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
            }
        }
        d
    };
    for prune in [false, true] {
        let cfg = ExploreConfig {
            prune,
            max_interleavings: Some(5),
            ..ExploreConfig::default()
        };
        let mut cuts = 0u64;
        let stats = explore(&cfg, factory, |h| {
            cuts += 1;
            check_counter_records(h, 1)
        });
        assert_eq!(cuts, 5, "prune={prune}: cuts checked");
        assert_eq!(stats.interleavings, 5, "prune={prune}: cuts counted");
        assert!(stats.capped, "prune={prune}: the cap must be reported");
        assert!(stats.all_ok(), "prune={prune}: {:?}", stats.violations);
    }
}

#[test]
fn dpor_and_exhaustive_minimize_the_mutant_identically() {
    // The refutation path under reduction: DPOR must catch the seeded
    // lost update and ddmin must land on the same essential schedule —
    // same step count, and a minimized replay whose history digest
    // matches the exhaustive walk's.
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(3));
        let cell = Arc::new(Register::new(0));
        d.submit_task(0, OpSpec::inc(), SharedCellInc::new(cell.clone()));
        d.submit_task(1, OpSpec::inc(), SharedCellInc::new(cell.clone()));
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
    let check = |h: &smr::History| check_counter_records(h, 1);
    let minimized_digest = |cfg: &ExploreConfig| -> (usize, String) {
        let stats = explore(cfg, factory, check);
        assert_eq!(stats.violations.len(), 1, "the lost update must be caught");
        let v = &stats.violations[0];
        assert!(check(&v.minimized.run(factory())).is_err());
        (
            v.minimized.steps(),
            format!("{:?}", v.minimized.run(factory()).ops()),
        )
    };
    let exhaustive = minimized_digest(&ExploreConfig::exhaustive(100));
    let dpor = minimized_digest(&ExploreConfig::default());
    assert_eq!(exhaustive.0, 6, "minimized to the essential races");
    assert_eq!(
        dpor, exhaustive,
        "DPOR must minimize to the same essential schedule"
    );
}

#[test]
fn explored_crash_cuts_match_direct_replay() {
    // A crash-bearing schedule reported by the explorer replays to the
    // exact same cut outside the explorer (determinism of `Replay::run`
    // with crashes in the sequence).
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(2));
        let c = Arc::new(CollectCounter::new(2));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(1, OpSpec::read(), CollectReadTask::new(c.clone()));
        d
    };
    let replay = smr::Replay {
        choices: vec![
            Choice::Step(0),
            Choice::Crash(0),
            Choice::Step(1),
            Choice::Step(1),
        ],
    };
    let a = replay.run(factory());
    let b = replay.run(factory());
    let norm = |h: &smr::History| -> Vec<(usize, bool, u64)> {
        let mut v: Vec<_> = h
            .ops()
            .iter()
            .map(|r| (r.pid, r.resp.is_some(), r.steps))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(norm(&a), norm(&b));
    // The crashed increment is pending; the read completed.
    assert_eq!(a.pending().len(), 1);
    assert!(
        replay.to_scripted().is_none(),
        "crash schedules have no Scripted form"
    );
}

#[test]
fn exploration_leaves_the_trace_log_off() {
    // The explorer learns which object each step touched from the coop
    // backend's access record, not from the trace log: every runtime it
    // builds, under DPOR and the raw DFS, must end with the log still
    // off and empty.
    let kept: Mutex<Vec<Arc<Runtime>>> = Mutex::new(Vec::new());
    let factory = || {
        let rt = Runtime::coop(3);
        kept.lock().push(rt.clone());
        let mut d = Driver::coop(rt);
        let c = Arc::new(CollectCounter::new(3));
        d.submit_task(0, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(1, OpSpec::inc(), CollectIncTask::new(c.clone()));
        d.submit_task(2, OpSpec::read(), CollectReadTask::new(c));
        d
    };
    let check = |h: &smr::History| check_counter_records(h, 1);
    let assert_log_off = |name: &str, stats: smr::ExploreStats| {
        assert!(stats.all_ok(), "{name}: {:?}", stats.violations);
        let built = std::mem::take(&mut *kept.lock());
        assert!(built.len() as u64 >= stats.interleavings, "{name}");
        for rt in &built {
            assert!(
                !rt.tracing_enabled(),
                "{name}: the trace log was switched on"
            );
            assert!(rt.take_trace().is_empty(), "{name}: the trace log recorded");
        }
    };
    assert_log_off("dpor", explore(&ExploreConfig::default(), factory, check));
    assert_log_off(
        "dfs",
        explore(&ExploreConfig::exhaustive(100), factory, check),
    );
}
