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
//!   schedule minimized to its essential interleaving. So must the one
//!   known gap in the real Algorithm 1: raw k-accuracy in its startup
//!   window at k ≥ √n, whose frontier (n ≥ k + 2) is pinned beside it
//!   (DESIGN.md §2, "Startup window").

use approx_objects::{KaddCounter, KaddIncTask, KaddReadTask, SharedKaddHandle};
use approx_objects::{KmultBoundedMaxRegister, KmultMaxReadTask, KmultMaxWriteTask};
use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use bench::multinomial;
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::{check_counter_records, check_maxreg_records};
use parking_lot::Mutex;
use smr::explore::{explore, Choice, ExploreConfig, Replay};
use smr::{CoopBackend, Driver, OpKind, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime};
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

/// Algorithm 2 at k = 2 over m = 2⁴⁰: pid `p` of `n` writes
/// 2^(5 + ⌊40p/n⌋), spreading the writes over the magnitudes, then reads.
fn kmaxreg_program(n: usize) -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(n));
    let r = Arc::new(KmultBoundedMaxRegister::new(n, 1 << 40, 2));
    for pid in 0..n {
        let v = 1u64 << (5 + 40 * pid / n);
        d.submit_task(pid, OpSpec::write(v), KmultMaxWriteTask::new(r.clone(), v));
        d.submit_task(pid, OpSpec::read(), KmultMaxReadTask::new(r.clone()));
    }
    d
}

#[test]
fn kmult_maxreg_is_k_accurate_on_every_schedule() {
    // Algorithm 2 on its own, every cut checked against the
    // k-multiplicative max-register spec: n = 3 with one crash, and
    // n = 4, both exhausted by DPOR. The walks are pinned by their exact
    // counts, and the costliest completed write and read by their steps
    // (Thm IV.2 bounds both by O(min(log₂ log_k m, n))).
    let k = 2;
    for (n, max_crashes, counts, most_steps) in [
        (3, 1, [20_105, 20_105, 16_424, 261_133], (2, 3)),
        (4, 0, [43_128, 56_641, 201_132, 1_309_731], (2, 4)),
    ] {
        let cfg = ExploreConfig {
            max_crashes,
            ..ExploreConfig::default()
        };
        let mut most = (0, 0);
        let stats = explore(
            &cfg,
            || kmaxreg_program(n),
            |h| {
                for r in h.ops().iter().filter(|r| r.resp.is_some()) {
                    match r.kind {
                        OpKind::Write { .. } => most.0 = most.0.max(r.steps),
                        OpKind::Read { .. } => most.1 = most.1.max(r.steps),
                        _ => {}
                    }
                }
                check_maxreg_records(h, k)
            },
        );
        assert!(stats.all_ok(), "n = {n}: {:?}", stats.violations);
        assert!(!stats.capped);
        assert_eq!(
            [
                stats.interleavings,
                stats.replays,
                stats.pruned,
                stats.steps_replayed
            ],
            counts,
            "n = {n}: cuts, replays, pruned subtrees, steps"
        );
        assert_eq!(most, most_steps, "n = {n}: most steps, write / read");
    }
}

/// Algorithm 1's startup window: `n` processes at accuracy `k`, pid `p`
/// doing `incs(p)` increments, then one read on pid 0.
fn startup_window_program(n: usize, k: u64, incs: impl Fn(usize) -> u64) -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(n));
    let c = KmultCounter::new(n, k);
    let hs: Vec<SharedKmultHandle> = (0..n).map(|p| Arc::new(Mutex::new(c.handle(p)))).collect();
    for (pid, h) in hs.iter().enumerate() {
        for _ in 0..incs(pid) {
            d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
        }
    }
    d.submit_task(0, OpSpec::read(), KmultReadTask::new(hs[0].clone()));
    d
}

#[test]
fn the_startup_window_breaks_raw_k_accuracy_at_k_at_least_root_n() {
    // k = 3 ≥ √n, yet raw 3-accuracy fails: each process's first
    // increment test&sets switch_0 and its second stays local, so the
    // 10 increments of pids 0–4 complete while only switch_0 is set, and
    // the read returns 3 < 10/3. See DESIGN.md §2, "Startup window". The
    // cut counts and the minimized replay also pin DPOR's exploration
    // order and ddmin's result.
    let expected: Vec<Choice> = [1, 2, 3, 4, 0, 0, 0].map(Choice::Step).to_vec();
    for (n, cuts) in [(5, 436), (6, 2953)] {
        let stats = explore(
            &ExploreConfig::default(),
            || startup_window_program(n, 3, |_| 2),
            |h| check_counter_records(h, 3),
        );
        assert_eq!(stats.violations.len(), 1, "n = {n}");
        assert_eq!(
            stats.interleavings, cuts,
            "n = {n}: cuts up to the violation"
        );
        let v = &stats.violations[0];
        assert_eq!(v.minimized.choices, expected, "n = {n}");
        assert!(
            v.message.contains("returned 3") && v.message.contains("need ≥ 10, ≤ 9"),
            "n = {n}: {}",
            v.message
        );
        let cut = v.minimized.run(startup_window_program(n, 3, |_| 2));
        assert!(check_counter_records(&cut, 3).is_err());
    }
}

#[test]
fn the_startup_window_frontier_is_n_at_least_k_plus_2() {
    // The schedule shape that forces the most increments before a read
    // of k: pid 1 wins switch_0 and does k increments, every other
    // process loses it and does k − 1 (each loser's increments after
    // the first stay local), and pid 0 reads last. The replay grants
    // pids 1, …, n − 1 one step each, then pid 0 until its read
    // completes (`Replay::run` skips the surplus). The read returns k
    // after 1 + n(k − 1) completed increments, so raw k-accuracy fails
    // exactly when 1 + n(k − 1) > k², that is n ≥ k + 2. See DESIGN.md
    // §2, "Startup window".
    let cells = [
        (4, 2, true),
        (5, 3, true),
        (6, 3, true),
        (7, 3, true),
        (9, 3, true),
        (6, 4, true),
        (16, 4, true),
        (3, 2, false),
        (4, 3, false),
        (5, 4, false),
    ];
    for (n, k, fails) in cells {
        let shape = |pid: usize| if pid == 1 { k } else { k - 1 };
        let choices = (1..n)
            .chain(std::iter::repeat_n(0, 2 * n))
            .map(Choice::Step)
            .collect();
        let h = Replay { choices }.run(startup_window_program(n, k, shape));
        let read = h
            .ops()
            .iter()
            .find(|r| matches!(r.kind, OpKind::Read { .. }))
            .expect("the read ran");
        assert!(read.resp.is_some(), "({n}, {k}): the read completed");
        assert_eq!(read.returned(), u128::from(k), "({n}, {k})");
        let forced = h
            .ops()
            .iter()
            .filter(|r| matches!(r.kind, OpKind::Inc { .. }) && r.precedes(read))
            .count() as u64;
        assert_eq!(forced, 1 + n as u64 * (k - 1), "({n}, {k})");
        assert_eq!(forced > k * k, fails, "({n}, {k})");
        assert_eq!(
            check_counter_records(&h, k).is_err(),
            fails,
            "({n}, {k}): {:?}",
            check_counter_records(&h, k)
        );
    }
}

#[test]
fn the_startup_window_is_clean_beside_the_frontier() {
    // (5, 4) sits on the frontier (1 + 5·3 = 16 = k²). With three
    // increments per process and pid 0's read last, DPOR exhausts every
    // trace class clean.
    let stats = explore(
        &ExploreConfig::default(),
        || startup_window_program(5, 4, |_| 3),
        |h| check_counter_records(h, 4),
    );
    assert!(stats.all_ok(), "violations: {:?}", stats.violations);
    assert!(!stats.capped);
    assert_eq!(stats.interleavings, 840);
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
