//! Executor equivalence. Gated coop (`Driver::coop`, one controller
//! grant per primitive) and the free-running coop sweep
//! (`Driver::coop_free`, batch polling with no grants) are two
//! executors over the same virtual processes: with every op submitted
//! in ascending pid order, the unseeded free sweep's poll order *is* the
//! gated round-robin schedule, so the two executions must agree on the
//! final `history_snapshot()`, per-process step counters and shared
//! memory. That is pinned on random straight-line register programs, on
//! an Algorithm 1 workload, and on mixes of every ported object task.
//! Seeded free runs shuffle each batch round but stay replayable: the
//! same seed reproduces the same execution bit for bit.
//!
//! "Agree" on histories means: the same per-pid operation sequences
//! (kinds, completion status and per-op step counts) and the same
//! global completion serialization. Absolute logical timestamps are not
//! compared.
//!
//! The free-running thread backend takes both submission forms,
//! closures and [`OpTask`]s; a last property pins that the two forms
//! of the same program execute identically there.

use proptest::prelude::*;
use smr::sched::RoundRobin;
use smr::{Driver, History, OpSpec, OpTask, Poll, ProcCtx, Register, Runtime, TasBit};
use std::sync::Arc;

/// Shared memory the generated programs operate on.
struct Pool {
    regs: Vec<Register>,
    bits: Vec<TasBit>,
}

impl Pool {
    fn new() -> Self {
        Pool {
            regs: (0..4).map(|_| Register::new(0)).collect(),
            bits: (0..2).map(|_| TasBit::new()).collect(),
        }
    }

    fn fingerprint(&self) -> Vec<u64> {
        self.regs
            .iter()
            .map(|r| r.peek())
            .chain(self.bits.iter().map(|b| u64::from(b.peek())))
            .collect()
    }
}

/// One primitive of a generated program: `(kind, object index, value)`.
type Micro = (u8, usize, u64);

/// Per process, its programs in submission order.
type Programs = Vec<Vec<Vec<Micro>>>;

/// A straight-line program over the pool as a resumable task: one
/// micro-op per granted poll, folding read results into `acc`.
struct ProgTask {
    pool: Arc<Pool>,
    prog: Vec<Micro>,
    next: usize,
    acc: u128,
    primed: bool,
}

impl ProgTask {
    fn new(pool: Arc<Pool>, prog: Vec<Micro>) -> Self {
        ProgTask {
            pool,
            prog,
            next: 0,
            acc: 0,
            primed: false,
        }
    }

    fn apply(pool: &Pool, op: Micro, acc: u128, ctx: &ProcCtx) -> u128 {
        let (kind, idx, val) = op;
        match kind {
            0 => acc * 31 + u128::from(pool.regs[idx % pool.regs.len()].read(ctx)),
            1 => {
                // Data-dependent write so interleavings propagate.
                pool.regs[idx % pool.regs.len()].write(ctx, val ^ (acc as u64 & 0x7));
                acc
            }
            _ => acc * 2 + u128::from(pool.bits[idx % pool.bits.len()].test_and_set(ctx)),
        }
    }

    /// The blocking closure form of the same program.
    fn run_blocking(pool: &Pool, prog: &[Micro], ctx: &ProcCtx) -> u128 {
        prog.iter()
            .fold(0, |acc, &op| Self::apply(pool, op, acc, ctx))
    }
}

impl OpTask for ProgTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return if self.prog.is_empty() {
                Poll::Ready(self.acc)
            } else {
                Poll::Pending
            };
        }
        self.acc = Self::apply(&self.pool, self.prog[self.next], self.acc, ctx);
        self.next += 1;
        if self.next == self.prog.len() {
            Poll::Ready(self.acc)
        } else {
            Poll::Pending
        }
    }
}

/// Adapter: a boxed task as an `OpTask` (the driver takes `impl OpTask`).
struct BoxedTask(Box<dyn OpTask>);

impl OpTask for BoxedTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.0.poll(ctx)
    }
}

/// Executor-independent projection of a history: per-pid operation
/// sequences (kinds, completion, step counts) ordered by invocation,
/// plus the global completion order.
#[derive(Debug, PartialEq, Eq)]
struct NormHistory {
    per_pid: Vec<(usize, String, bool, u64)>,
    completion_order: Vec<(usize, String)>,
}

fn normalize(h: &History) -> NormHistory {
    let mut with_inv: Vec<_> = h
        .ops()
        .iter()
        .map(|r| (r.pid, r.inv, format!("{:?}", r.kind), r.resp, r.steps))
        .collect();
    with_inv.sort_by_key(|&(pid, inv, ..)| (pid, inv));
    let per_pid = with_inv
        .iter()
        .map(|(pid, _, kind, resp, steps)| (*pid, kind.clone(), resp.is_some(), *steps))
        .collect();
    let mut completed: Vec<_> = h.ops().iter().filter(|r| r.resp.is_some()).collect();
    completed.sort_by_key(|r| r.resp);
    let completion_order = completed
        .iter()
        .map(|r| (r.pid, format!("{:?}", r.kind)))
        .collect();
    NormHistory {
        per_pid,
        completion_order,
    }
}

/// What a finished run leaves behind that two executors must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    snapshot: NormHistory,
    per_pid_steps: Vec<u64>,
    memory: Vec<u64>,
}

/// `snapshot` is the run's final history cut: a coop driver's
/// `history_snapshot()`, or a quiesced thread driver's `history()`.
fn outcome(snapshot: &History, rt: &Runtime, memory: Vec<u64>) -> Outcome {
    Outcome {
        snapshot: normalize(snapshot),
        per_pid_steps: (0..rt.n()).map(|p| rt.steps_of(p)).collect(),
        memory,
    }
}

/// Where a workload submits its operations: `(pid, spec, task)`.
type Submit<'a> = dyn FnMut(usize, OpSpec, Box<dyn OpTask>) + 'a;

/// A fingerprint of a workload's shared memory, read after the run.
type Memory = Box<dyn Fn() -> Vec<u64>>;

/// How a coop run executes its submissions.
#[derive(Clone, Copy)]
enum Exec {
    /// Gated, one grant per primitive, round-robin.
    RoundRobin,
    /// The free sweep: ascending submission order, or seeded shuffles
    /// of each batch round.
    Free(Option<u64>),
}

/// Build a workload over `n` virtual processes with `build` and run it
/// to completion under `exec`.
fn run(n: usize, exec: Exec, build: &dyn Fn(&mut Submit) -> Memory) -> Outcome {
    match exec {
        Exec::RoundRobin => {
            let mut d = Driver::coop(Runtime::coop(n));
            let memory = build(&mut |pid, spec, task| d.submit_task(pid, spec, BoxedTask(task)));
            let _ = d.run_schedule(&mut RoundRobin::new());
            outcome(&d.history_snapshot(), d.runtime(), memory())
        }
        Exec::Free(seed) => {
            let rt = Runtime::coop_free(n);
            let mut d = match seed {
                None => Driver::coop_free(rt),
                Some(s) => Driver::coop_free_seeded(rt, s),
            };
            let memory = build(&mut |pid, spec, task| d.submit_task(pid, spec, BoxedTask(task)));
            d.wait_all();
            outcome(&d.history_snapshot(), d.runtime(), memory())
        }
    }
}

/// The generated register programs as a workload, submitted pid by pid.
fn programs(progs: &Programs) -> impl Fn(&mut Submit) -> Memory + '_ {
    move |d| {
        let pool = Arc::new(Pool::new());
        for (pid, ops) in progs.iter().enumerate() {
            for (i, prog) in ops.iter().enumerate() {
                d(
                    pid,
                    OpSpec::custom("prog", i as u128),
                    Box::new(ProgTask::new(pool.clone(), prog.clone())),
                );
            }
        }
        Box::new(move || pool.fingerprint())
    }
}

/// An interleaved increment/read workload over one shared Algorithm 1
/// counter; the fingerprint is the counter's quiescent value.
fn kmult_workload(n: usize) -> impl Fn(&mut Submit) -> Memory {
    use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
    use parking_lot::Mutex;

    move |d| {
        let kc = KmultCounter::new(n, 3);
        for pid in 0..n {
            let h: SharedKmultHandle = Arc::new(Mutex::new(kc.handle(pid)));
            for j in 0..8u64 {
                if j % 2 == 0 {
                    d(pid, OpSpec::inc(), Box::new(KmultIncTask::new(h.clone())));
                } else {
                    d(pid, OpSpec::read(), Box::new(KmultReadTask::new(h.clone())));
                }
            }
        }
        Box::new(move || vec![kc.peek_approx_value() as u64])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gated_and_free_coop_agree_on_register_programs(
        progs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0u8..3, 0usize..4, 0u64..100), 1..5),
                1..4,
            ),
            2..6,
        ),
    ) {
        let gated = run(progs.len(), Exec::RoundRobin, &programs(&progs));
        let free = run(progs.len(), Exec::Free(None), &programs(&progs));
        prop_assert_eq!(&gated, &free, "gated round-robin and free sweep diverged");
    }

    #[test]
    fn seeded_free_coop_is_replayable_on_register_programs(
        progs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0u8..3, 0usize..4, 0u64..100), 1..5),
                1..4,
            ),
            2..6,
        ),
        seed in 1u64..1_000_000,
    ) {
        let first = run(progs.len(), Exec::Free(Some(seed)), &programs(&progs));
        let again = run(progs.len(), Exec::Free(Some(seed)), &programs(&progs));
        prop_assert_eq!(&first, &again, "seed {} did not replay", seed);
    }

    #[test]
    fn closure_and_task_forms_are_equivalent_on_the_thread_backend(
        progs in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0u8..3, 0usize..4, 0u64..100), 1..5),
                1..4,
            ),
            2..4,
        ),
    ) {
        let task = run_thread_pid_by_pid(&progs, |d, pool, pid, spec, prog| {
            d.submit_task(pid, spec, ProgTask::new(pool.clone(), prog.to_vec()));
        });
        let closure = run_thread_pid_by_pid(&progs, |d, pool, pid, spec, prog| {
            let (pool, prog) = (pool.clone(), prog.to_vec());
            d.submit(pid, spec, move |ctx| ProgTask::run_blocking(&pool, &prog, ctx));
        });
        prop_assert_eq!(&task, &closure, "forms diverged");
    }
}

/// Run each process's programs to completion one process at a time on
/// the free-running thread backend — so its workers never race — with
/// every op submitted through `submit`.
fn run_thread_pid_by_pid(
    progs: &Programs,
    submit: impl Fn(&mut Driver, &Arc<Pool>, usize, OpSpec, &[Micro]),
) -> Outcome {
    let pool = Arc::new(Pool::new());
    let mut d = Driver::new(Runtime::free_running(progs.len()));
    for (pid, ops) in progs.iter().enumerate() {
        for (i, prog) in ops.iter().enumerate() {
            submit(&mut d, &pool, pid, OpSpec::custom("prog", i as u128), prog);
        }
        d.wait_all();
    }
    outcome(d.history(), d.runtime(), pool.fingerprint())
}

/// The ported object tasks (Algorithm 1 counter, collect counter, tree
/// max register) run identically under gated round-robin and the free
/// sweep — the "real algorithms" counterpart of the register-program
/// property above.
#[test]
fn ported_object_tasks_are_backend_equivalent() {
    use approx_objects::{KmultCounter, KmultIncTask, KmultReadTask, SharedKmultHandle};
    use counter::{CollectCounter, CollectIncTask, CollectReadTask};
    use maxreg::{TreeMaxReadTask, TreeMaxRegister, TreeMaxWriteTask};
    use parking_lot::Mutex;

    let n = 4;
    let build = |d: &mut Submit| -> Memory {
        let kc = KmultCounter::new(n, 4);
        let handles: Vec<SharedKmultHandle> =
            (0..n).map(|p| Arc::new(Mutex::new(kc.handle(p)))).collect();
        let cc = Arc::new(CollectCounter::new(n));
        let mr = Arc::new(TreeMaxRegister::new(1 << 12));
        #[allow(clippy::needless_range_loop)] // pid-indexed handles read clearest
        for pid in 0..n {
            for i in 1..=12u64 {
                match i % 6 {
                    0 => d(
                        pid,
                        OpSpec::read(),
                        Box::new(KmultReadTask::new(handles[pid].clone())),
                    ),
                    1 => d(
                        pid,
                        OpSpec::inc(),
                        Box::new(KmultIncTask::new(handles[pid].clone())),
                    ),
                    2 => d(
                        pid,
                        OpSpec::inc(),
                        Box::new(CollectIncTask::new(cc.clone())),
                    ),
                    3 => d(
                        pid,
                        OpSpec::read(),
                        Box::new(CollectReadTask::new(cc.clone())),
                    ),
                    4 => d(
                        pid,
                        OpSpec::write(pid as u64 * 100 + i),
                        Box::new(TreeMaxWriteTask::new(mr.clone(), pid as u64 * 100 + i)),
                    ),
                    _ => d(
                        pid,
                        OpSpec::read(),
                        Box::new(TreeMaxReadTask::new(mr.clone())),
                    ),
                }
            }
        }
        Box::new(move || vec![kc.peek_approx_value() as u64])
    };
    assert_eq!(
        run(n, Exec::RoundRobin, &build),
        run(n, Exec::Free(None), &build),
        "gated round-robin and free sweep diverged"
    );
}

/// Gated round-robin coop ≡ unseeded free-running coop on the paper's
/// Algorithm 1 counter: same final snapshot, step counters and counter
/// state.
#[test]
fn gated_and_free_coop_agree_on_a_kmult_workload() {
    for n in [1usize, 2, 5, 16] {
        let gated = run(n, Exec::RoundRobin, &kmult_workload(n));
        let free = run(n, Exec::Free(None), &kmult_workload(n));
        assert_eq!(gated, free, "executions diverged at n = {n}");
    }
}

/// A seeded free-running coop run over the kmult workload replays bit
/// for bit under the same seed.
#[test]
fn seeded_free_coop_is_replayable_on_a_kmult_workload() {
    let n = 7;
    for seed in [1u64, 0xBEEF, u64::MAX] {
        assert_eq!(
            run(n, Exec::Free(Some(seed)), &kmult_workload(n)),
            run(n, Exec::Free(Some(seed)), &kmult_workload(n)),
            "seed {seed:#x} did not replay"
        );
    }
}

/// Same property for the objects ported after the first three:
/// snapshot, AACH and unbounded-tree counters, the k-additive counter,
/// Algorithm 2, and the adaptive/unbounded exact max registers.
#[test]
fn newly_ported_object_tasks_are_backend_equivalent() {
    use approx_objects::{
        KaddCounter, KaddIncTask, KaddReadTask, KmultBoundedMaxRegister, KmultMaxReadTask,
        KmultMaxWriteTask, SharedKaddHandle,
    };
    use counter::{
        AachCounter, AachIncTask, AachReadTask, SnapshotCounter, SnapshotIncTask, SnapshotReadTask,
        UnboundedTreeCounter, UnboundedTreeIncTask, UnboundedTreeReadTask,
    };
    use maxreg::{
        AdaptiveMaxReadTask, AdaptiveMaxRegister, AdaptiveMaxWriteTask, UnboundedMaxReadTask,
        UnboundedMaxRegister, UnboundedMaxWriteTask,
    };
    use parking_lot::Mutex;

    let n = 3;
    let build = |d: &mut Submit| -> Memory {
        let snap = Arc::new(SnapshotCounter::new(n));
        let aach = Arc::new(AachCounter::new(n, 1 << 12));
        let utree = Arc::new(UnboundedTreeCounter::new(n));
        let kadd = KaddCounter::new(n, 4);
        let kadd_handles: Vec<SharedKaddHandle> = (0..n)
            .map(|p| Arc::new(Mutex::new(kadd.handle(p))))
            .collect();
        let kmr = Arc::new(KmultBoundedMaxRegister::new(n, 1 << 16, 2));
        let amr = Arc::new(AdaptiveMaxRegister::new(n, 1 << 10));
        let umr = Arc::new(UnboundedMaxRegister::new());
        #[allow(clippy::needless_range_loop)] // pid-indexed handles read clearest
        for pid in 0..n {
            for i in 1..=14u64 {
                let v = pid as u64 * 97 + i * 13;
                match i % 7 {
                    0 => d(
                        pid,
                        OpSpec::inc(),
                        Box::new(SnapshotIncTask::new(snap.clone())),
                    ),
                    1 => d(
                        pid,
                        OpSpec::read(),
                        Box::new(SnapshotReadTask::new(snap.clone())),
                    ),
                    2 => {
                        d(pid, OpSpec::inc(), Box::new(AachIncTask::new(aach.clone())));
                        d(
                            pid,
                            OpSpec::read(),
                            Box::new(AachReadTask::new(aach.clone())),
                        );
                    }
                    3 => {
                        d(
                            pid,
                            OpSpec::inc(),
                            Box::new(UnboundedTreeIncTask::new(utree.clone())),
                        );
                        d(
                            pid,
                            OpSpec::read(),
                            Box::new(UnboundedTreeReadTask::new(utree.clone())),
                        );
                    }
                    4 => {
                        d(
                            pid,
                            OpSpec::inc(),
                            Box::new(KaddIncTask::new(kadd_handles[pid].clone())),
                        );
                        d(
                            pid,
                            OpSpec::read(),
                            Box::new(KaddReadTask::new(kadd.clone())),
                        );
                    }
                    5 => {
                        d(
                            pid,
                            OpSpec::write(v),
                            Box::new(KmultMaxWriteTask::new(kmr.clone(), v)),
                        );
                        d(
                            pid,
                            OpSpec::read(),
                            Box::new(KmultMaxReadTask::new(kmr.clone())),
                        );
                    }
                    _ => {
                        d(
                            pid,
                            OpSpec::write(v % 1024),
                            Box::new(AdaptiveMaxWriteTask::new(amr.clone(), v % 1024)),
                        );
                        d(
                            pid,
                            OpSpec::read(),
                            Box::new(AdaptiveMaxReadTask::new(amr.clone())),
                        );
                        d(
                            pid,
                            OpSpec::write(v * v),
                            Box::new(UnboundedMaxWriteTask::new(umr.clone(), v * v)),
                        );
                        d(
                            pid,
                            OpSpec::read(),
                            Box::new(UnboundedMaxReadTask::new(umr.clone())),
                        );
                    }
                }
            }
        }
        // None of these objects exposes its state outside a read; the
        // histories carry every read's return value.
        Box::new(Vec::new)
    };
    assert_eq!(
        run(n, Exec::RoundRobin, &build),
        run(n, Exec::Free(None), &build),
        "gated round-robin and free sweep diverged"
    );
}
