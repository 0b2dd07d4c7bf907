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
//!   (including crash cuts) passes the `lincheck` monotone checkers. A
//!   passing run is a *proof* of the property for that configuration,
//!   not a sample.
//! * **Refutation** — a deliberately broken object (the collect
//!   counter's single-writer-cell discipline dropped, so all processes
//!   read-modify-write one shared cell) must be caught, and the failing
//!   schedule minimized to its essential interleaving. So must the one
//!   known gap in the real Algorithm 1: raw k-accuracy in its startup
//!   window at k ≥ √n, whose frontier (n ≥ k + 2) is pinned beside it
//!   (DESIGN.md §2, "Startup window").
//!
//! Programs that `exp_explore` walks too come from `bench::programs`,
//! so a count pinned here and a row of `BENCH_explore.json` describe
//! one program.

mod mutant;

use approx_objects::{KmultBoundedMaxRegister, KmultMaxReadTask, KmultMaxWriteTask};
use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
use bench::{multinomial, programs};
use lincheck::{check_counter_records, check_maxreg_records};
use parking_lot::Mutex;
use smr::explore::{explore, Choice, ExploreConfig, Replay};
use smr::{AccessKind, TraceEvent};
use smr::{CoopBackend, Driver, OpKind, OpSpec, Runtime};
use std::cell::RefCell;
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
    let factory = || programs::kmult(3, k, 2, false);
    let stats = explore(&ExploreConfig::exhaustive(), factory, |h| {
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
    // no closed form — but every interleaving must satisfy the
    // k-multiplicative counter spec.
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
    let factory = || programs::collect(2, 1, 1);
    let stats = explore(&ExploreConfig::exhaustive(), factory, |h| {
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
    // n = 3 and k = 2, so the threshold is ⌊k/n⌋+1 = 1: every increment
    // publishes.
    let factory = || programs::kadd(3, 2);
    let stats = explore(&ExploreConfig::exhaustive(), factory, |h| {
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

/// Algorithm 2 at k = 3 over m = 2⁶, two writers and two readers: pid
/// 0 writes 2, pid 1 writes 4, and pids 2 and 3 each read once.
fn kmaxreg_two_writers_two_readers() -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(4));
    let r = Arc::new(KmultBoundedMaxRegister::new(4, 1 << 6, 3));
    for (pid, v) in [(0, 2), (1, 4)] {
        d.submit_task(pid, OpSpec::write(v), KmultMaxWriteTask::new(r.clone(), v));
    }
    for pid in 2..4 {
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
    // (Thm IV.2 bounds both by O(min(log₂ log_k m, n))). At n = 4 the
    // 30 488 cuts cover all 25 724 trace classes; the repeats come from
    // objects first touched by a sleeping step, whose identity across
    // branches the walk can only compare conservatively.
    let k = 2;
    for (n, max_crashes, counts, most_steps) in [
        (3, 1, [21_474, 21_474, 17_264, 279_329], (2, 3)),
        (4, 0, [30_488, 30_725, 79_417, 736_540], (2, 4)),
    ] {
        let cfg = ExploreConfig {
            max_crashes,
            ..ExploreConfig::default()
        };
        let mut most = (0, 0);
        let stats = explore(
            &cfg,
            || programs::kmaxreg(n),
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

#[test]
fn explorer_refutes_the_seeded_mutant_and_minimizes_the_schedule() {
    // Two increments race the shared cell; the reader queues two reads
    // so the second read's invocation (announced when the first
    // completes) can land after both increments' responses — only then
    // does real-time order force the read to count them.
    let factory = || mutant::lost_update(Runtime::coop(3));
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
    let factory = || programs::collect(2, 1, 1);
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
    let cases: [(&str, usize, ProgramFn); 6] = [
        ("collect-with-reader", 0, || programs::collect(2, 1, 1)),
        // Not `programs::kmult(3, 2, 1, true)`, the oracle's and
        // `exp_explore`'s "kmult-mixed": four operations, not six.
        ("kmult-2inc-2read", 0, || {
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
        ("kadd", 0, || programs::kadd(3, 2)),
        ("tree-maxreg", 0, programs::tree_maxreg),
        // The raw DFS walks 63 996 interleavings to 90 cuts here.
        ("kmaxreg-2w2r", 0, kmaxreg_two_writers_two_readers),
        ("collect-crashes", 2, || programs::collect(1, 1, 1)),
    ];
    for (name, crashes, factory) in cases {
        let exhaustive = digest_set(
            &ExploreConfig {
                max_crashes: crashes,
                ..ExploreConfig::exhaustive()
            },
            factory,
        );
        assert!(!exhaustive.is_empty(), "{name}: no cuts reached");
        let dpor = digest_set(
            &ExploreConfig {
                max_crashes: crashes,
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

/// A program factory.
type ProgramFn = fn() -> Driver<CoopBackend>;

/// One granted step, as the runtime's trace log records it.
#[derive(Debug, Clone, Copy)]
struct Traced {
    pid: usize,
    obj: usize,
    kind: AccessKind,
    /// An operation completed in this step.
    emitted: bool,
}

/// The granted steps of a traced run, in execution order: every step
/// applies one primitive, so each access opens a step, and a completion
/// marks the step it happened in.
fn traced_steps(trace: &[TraceEvent]) -> Vec<Traced> {
    let mut steps: Vec<Traced> = Vec::new();
    for e in trace {
        match *e {
            TraceEvent::Access(a) => steps.push(Traced {
                pid: a.pid,
                obj: a.obj,
                kind: a.kind,
                emitted: false,
            }),
            TraceEvent::Complete { pid, .. } => {
                let step = steps.last_mut().expect("a completion inside a step");
                assert_eq!(step.pid, pid, "a completion belongs to its step");
                step.emitted = true;
            }
            _ => {}
        }
    }
    steps
}

/// Two traced steps commute: different processes, at most one of them
/// completing an operation, and different objects unless both read.
fn commute(a: &Traced, b: &Traced) -> bool {
    a.pid != b.pid
        && !(a.emitted && b.emitted)
        && (a.obj != b.obj || (a.kind == AccessKind::Read && b.kind == AccessKind::Read))
}

/// A run's trace class, named by its lexicographic normal form: the pid
/// sequence of the class's least linearization, built by repeatedly
/// taking the smallest-pid step that commutes with every step left
/// before it.
fn normal_form(steps: &[Traced]) -> Vec<usize> {
    let mut left: Vec<Traced> = steps.to_vec();
    let mut word = Vec::with_capacity(steps.len());
    while !left.is_empty() {
        let at = (0..left.len())
            .filter(|&i| left[..i].iter().all(|b| commute(b, &left[i])))
            .min_by_key(|&i| left[i].pid)
            .expect("the first step left is always minimal");
        word.push(left.remove(at).pid);
    }
    word
}

/// Every trace class of `program`'s maximal runs, by an oracle that
/// shares nothing with the explorer: a depth-first walk over pid
/// sequences that keeps only lexicographic normal forms
/// (Anisimov–Knuth). It extends a prefix by pid `a` unless an earlier
/// step with a larger pid commutes with `a`'s step and with every step
/// after it. Each extension runs on a fresh program with the trace log
/// on, which names each step's object and kind and its completions.
fn trace_classes(program: ProgramFn) -> BTreeSet<Vec<usize>> {
    let run = |word: &[usize]| -> (Vec<Traced>, Vec<usize>) {
        let mut d = program();
        d.runtime().enable_tracing();
        for &pid in word {
            let _ = d.step(pid);
        }
        let steps = traced_steps(&d.runtime().take_trace());
        assert_eq!(steps.len(), word.len(), "one primitive per granted step");
        (steps, d.active_set().iter_sorted().collect())
    };
    let mut classes = BTreeSet::new();
    let mut stack = vec![(Vec::new(), run(&[]))];
    while let Some((word, (steps, active))) = stack.pop() {
        if active.is_empty() {
            assert_eq!(normal_form(&steps), word, "the oracle keeps normal forms");
            classes.insert(word);
            continue;
        }
        for a in active {
            let mut next = word.clone();
            next.push(a);
            let (steps, active) = run(&next);
            let (last, before) = steps.split_last().expect("a step was granted");
            let blocked = before
                .iter()
                .rev()
                .take_while(|b| commute(b, last))
                .any(|b| b.pid > a);
            if !blocked {
                stack.push((next, (steps, active)));
            }
        }
    }
    classes
}

/// DPOR's cuts of `program`, each canonicalised from the trace of its
/// own replay: the factory keeps the runtime it built last, which is the
/// one whose cut the checker receives. Returns the cut count and the
/// set of normal forms.
fn dpor_classes(program: ProgramFn) -> (u64, BTreeSet<Vec<usize>>) {
    let built: RefCell<Option<Arc<Runtime>>> = RefCell::new(None);
    let factory = || {
        let d = program();
        d.runtime().enable_tracing();
        *built.borrow_mut() = Some(d.runtime().clone());
        d
    };
    let mut classes = BTreeSet::new();
    let stats = explore(&ExploreConfig::default(), factory, |_h: &smr::History| {
        let trace = built.borrow().as_ref().expect("built").take_trace();
        classes.insert(normal_form(&traced_steps(&trace)));
        Ok(())
    });
    assert!(stats.all_ok() && !stats.capped);
    (stats.interleavings, classes)
}

#[test]
fn dpor_reaches_every_trace_class_the_oracle_enumerates() {
    // Source-set DPOR explores every Mazurkiewicz class of a program's
    // maximal runs. Where no sleeping step first touches an object the
    // walk has not named yet, it checks one cut per class. The
    // k-additive counter repeats 2 of its 16 classes, so its 18 cuts are
    // pinned; Algorithm 2 at n = 3 repeats some classes, so there only
    // coverage is pinned.
    let cases: [(&str, ProgramFn, usize, Option<u64>); 7] = [
        (
            "kmaxreg-2w2r",
            kmaxreg_two_writers_two_readers,
            90,
            Some(90),
        ),
        ("collect-3x2", || programs::collect(3, 2, 0), 90, Some(90)),
        (
            "collect-reader",
            || programs::collect(2, 1, 1),
            13,
            Some(13),
        ),
        ("tree-maxreg", programs::tree_maxreg, 17, Some(17)),
        (
            "kmult-mixed",
            || programs::kmult(3, 2, 1, true),
            354,
            Some(354),
        ),
        ("kadd-3", || programs::kadd(3, 2), 16, Some(18)),
        ("kmaxreg-3", || programs::kmaxreg(3), 264, None),
    ];
    for (name, program, count, pinned_cuts) in cases {
        let oracle = trace_classes(program);
        assert_eq!(oracle.len(), count, "{name}: trace classes");
        let (cuts, reached) = dpor_classes(program);
        assert_eq!(reached, oracle, "{name}: DPOR missed or invented a class");
        if let Some(pinned) = pinned_cuts {
            assert_eq!(cuts, pinned, "{name}: cuts checked");
        }
    }
}

#[test]
fn the_interleaving_cap_stops_either_walk_after_exactly_that_many_cuts() {
    // Collect 3×2 has 34 650 raw interleavings and 90 trace classes; a
    // cap of 5 must stop the raw DFS and DPOR alike after 5 checked
    // cuts, and say so.
    let factory = || programs::collect(3, 2, 0);
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
    let factory = || mutant::lost_update(Runtime::coop(3));
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
    let exhaustive = minimized_digest(&ExploreConfig::exhaustive());
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
    let factory = || programs::collect(1, 1, 1);
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
}

#[test]
fn exploration_leaves_the_trace_log_off() {
    // The explorer learns which object each step touched from the coop
    // backend's access record, not from the trace log: every runtime it
    // builds, under DPOR and the raw DFS, must end with the log still
    // off and empty.
    let kept: Mutex<Vec<Arc<Runtime>>> = Mutex::new(Vec::new());
    let factory = || {
        let d = programs::collect(2, 1, 1);
        kept.lock().push(d.runtime().clone());
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
    assert_log_off("dfs", explore(&ExploreConfig::exhaustive(), factory, check));
}
