//! The four workloads. Each call runs one iteration from scratch: it
//! generates its inputs from the seed, builds the runtime and objects,
//! submits every operation up front, runs, checks, and returns what it
//! measured in an [`Outcome`].
//!
//! All load comes from this one thread. Every workload is a closed
//! loop: each virtual process has its whole operation list submitted up
//! front and issues its next operation only after the previous one
//! completes.

use crate::spans::Tracer;
use approx_objects::{
    KmultBoundedMaxRegister, KmultCounter, KmultIncTask, KmultMaxReadTask, KmultMaxWriteTask,
    KmultReadTask, SharedKmultHandle,
};
use counter::{CollectCounter, CollectIncTask, CollectReadTask};
use lincheck::monotone::check_counter;
use lincheck::{check_counter_records, CounterHistory, LinearizabilityPass};
use parking_lot::Mutex;
use smr::analysis::{AnalysisPass, Analyzer, Conformance, HappensBefore, PollDiscipline};
use smr::explore::{explore, ExploreConfig};
use smr::sched::{RoundRobin, Scheduler, SeededRandom};
use smr::{CoopBackend, Driver, History, OpKind, OpRecord, OpSpec, Runtime};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KcounterFree,
    KmaxregGated,
    KcounterAudit,
    ExploreDpor,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KcounterFree,
        Workload::KmaxregGated,
        Workload::KcounterAudit,
        Workload::ExploreDpor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KcounterFree => "kcounter_free",
            Workload::KmaxregGated => "kmaxreg_gated",
            Workload::KcounterAudit => "kcounter_audit",
            Workload::ExploreDpor => "explore_dpor",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The analysis configurations the traced run re-runs this workload
    /// with, besides [`Passes::Full`], to price its inline passes.
    pub fn toggles(self) -> &'static [Passes] {
        match self {
            Workload::KmaxregGated => &[Passes::Detached, Passes::LinOnly],
            Workload::KcounterAudit => &[Passes::Detached, Passes::LinOnly, Passes::HbOnly],
            Workload::KcounterFree | Workload::ExploreDpor => &[],
        }
    }

    /// Run one iteration.
    pub fn run(self, opts: &Options, tr: &Tracer) -> Outcome {
        match self {
            Workload::KcounterFree => kcounter_free(opts, tr),
            Workload::KmaxregGated => kmaxreg_gated(opts, tr),
            Workload::KcounterAudit => kcounter_audit(opts, tr),
            Workload::ExploreDpor => explore_dpor(opts, tr),
        }
    }

    /// The workload's sizes, for provenance.
    pub fn sizes(self, size: Size) -> String {
        match self {
            Workload::KcounterFree => CounterSize::free(size).describe(),
            Workload::KmaxregGated => {
                let s = KmaxregSize::of(size);
                format!(
                    "n={} m=2^{} k={} ops_per_proc={}",
                    s.n, MAXREG_LOG_M, 2, s.per_proc
                )
            }
            Workload::KcounterAudit => CounterSize::audit(size).describe(),
            Workload::ExploreDpor => format!(
                "collect and kmult (k=3) programs of {} processes x 2 ops, sequential DPOR",
                explore_procs(size)
            ),
        }
    }
}

/// Full sizes are the benchmark; tiny sizes exercise every code path in
/// well under a second, for the self-test. Full sizes keep an
/// iteration to tens of MiB and a fraction of a second: iterations that
/// stream hundreds of MiB through a shared host's memory drift with the
/// other tenants' load more than the calibration kernel tracks, and
/// short iterations give a run's median many samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Which analysis passes a gated workload attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// The workload's own configuration.
    Full,
    /// No analyzer at all.
    Detached,
    /// The linearizability pass alone.
    LinOnly,
    /// The happens-before pass alone.
    HbOnly,
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub size: Size,
    pub passes: Passes,
}

/// Which object's per-kind step costs an outcome reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    Kcounter,
    Kmaxreg,
}

/// Per-operation primitive steps, as a count per step value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepHist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

impl StepHist {
    fn add(&mut self, steps: u64) {
        let i = usize::try_from(steps).expect("step count fits usize");
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
        self.sum += steps;
    }

    pub(crate) fn len(&self) -> u64 {
        self.n
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    pub(crate) fn max(&self) -> u64 {
        self.counts.len().saturating_sub(1) as u64
    }

    /// Nearest-rank quantile `num/den`: the smallest step value at or
    /// below which at least that share of operations falls.
    pub(crate) fn quantile(&self, num: u64, den: u64) -> u64 {
        let rank = (self.n * num).div_ceil(den).max(1);
        let mut seen = 0;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return v as u64;
            }
        }
        self.max()
    }
}

/// Step distributions of one iteration: every operation, and per kind
/// for the workload's paper object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpSteps {
    pub all: StepHist,
    pub inc: StepHist,
    pub read: StepHist,
    pub write: StepHist,
}

impl OpSteps {
    fn add(&mut self, rec: &OpRecord, per_kind: bool) {
        self.all.add(rec.steps);
        if per_kind {
            match rec.kind {
                OpKind::Inc { .. } => self.inc.add(rec.steps),
                OpKind::Read { .. } => self.read.add(rec.steps),
                OpKind::Write { .. } => self.write.add(rec.steps),
                OpKind::Custom { .. } => {}
            }
        }
    }

    fn add_history(&mut self, h: &History, per_kind: bool) {
        for rec in h.ops() {
            self.add(rec, per_kind);
        }
    }
}

/// Explorer totals over the workload's programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreTotals {
    pub schedules: u64,
    pub pruned: u64,
    pub steps_replayed: u64,
}

/// What one iteration did and measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub object: Object,
    /// Operations submitted (on `explore_dpor`: operation records across
    /// all checked cuts).
    pub submitted: u64,
    /// Records that were executed and verified.
    pub checked: u64,
    /// Operations rejected by a checker or pass, or lost.
    pub failed: u64,
    /// One message per breached correctness gate.
    pub breaches: Vec<String>,
    /// Building the runtime and objects and submitting every task.
    pub setup_s: f64,
    /// Everything after set-up that executed or checked records.
    pub run_s: f64,
    /// Total primitive steps (explore: replay steps included).
    pub steps: u64,
    pub op_steps: OpSteps,
    /// Counts that must repeat exactly for one seed.
    pub fingerprint: Vec<u64>,
    /// Coop task-arena bytes held at the end of execution.
    pub arena_bytes: i64,
    /// Records in the `Driver`'s history.
    pub history_records: u64,
    pub explore: Option<ExploreTotals>,
}

impl Outcome {
    fn new(object: Object) -> Self {
        Outcome {
            object,
            submitted: 0,
            checked: 0,
            failed: 0,
            breaches: Vec::new(),
            setup_s: 0.0,
            run_s: 0.0,
            steps: 0,
            op_steps: OpSteps::default(),
            fingerprint: Vec::new(),
            arena_bytes: 0,
            history_records: 0,
            explore: None,
        }
    }

    /// Primitive steps per operation.
    pub fn steps_per_op(&self) -> f64 {
        self.steps as f64 / self.op_steps.all.len().max(1) as f64
    }

    /// Record a complete history: lost operations are failures, and a
    /// clean history counts as checked once `rejected` is known.
    fn settle(&mut self, h: &History, rejected: u64) {
        let completed = h.ops().iter().filter(|r| r.resp.is_some()).count() as u64;
        let lost = self.submitted.saturating_sub(completed);
        if lost > 0 || h.len() as u64 != self.submitted {
            self.breaches.push(format!(
                "{} records ({completed} completed) for {} submitted operations",
                h.len(),
                self.submitted
            ));
        }
        self.failed += lost + rejected;
        self.checked = completed.saturating_sub(rejected);
        self.history_records = h.len() as u64;
        self.op_steps.add_history(h, true);
    }
}

/// SplitMix64: the workloads' input generator, so inputs depend on the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One read in this many of a process's operations after its startup
/// increments.
const READ_EVERY: u64 = 8;

/// Algorithm 1 operation kinds (`true` = read), `per_proc` per process,
/// process-major.
///
/// Each process issues its first read only after `2k` increments.
/// Algorithm 1 starts in the `(p, q) = (0, 0)` window, where only
/// `switch_0` is set and up to `1 + n(k − 1)` increments may be pending
/// against a read that returns `k` (see `kcounter/mod.rs`): the raw
/// `v ≤ k·x` side needs `n ≤ k + 1` there. With reads from a process's
/// 8th operation at n = 10⁴, k = 100, `check_counter(k)` rightly rejects
/// read #0, which returned 100 with 28 812 increments forced before it.
/// The benchmark keeps the checker's k and keeps reads out of the
/// window instead.
fn counter_plan(seed: u64, n: usize, per_proc: usize, k: u64) -> Vec<bool> {
    let mut rng = Rng(seed);
    let startup = 2 * k as usize;
    (0..n)
        .flat_map(|_| 0..per_proc)
        .map(|j| j >= startup && rng.below(READ_EVERY) == 0)
        .collect()
}

fn submit_counter(d: &mut Driver<CoopBackend>, counter: &Arc<KmultCounter>, plan: &[bool]) {
    let per_proc = plan.len() / counter.n();
    for (pid, ops) in plan.chunks(per_proc).enumerate() {
        let h: SharedKmultHandle = Arc::new(Mutex::new(counter.handle(pid)));
        for &read in ops {
            if read {
                d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h.clone()));
            } else {
                d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
            }
        }
    }
}

/// Sizes of the two Algorithm 1 workloads.
struct CounterSize {
    n: usize,
    k: u64,
    per_proc: usize,
}

impl CounterSize {
    fn free(size: Size) -> Self {
        match size {
            Size::Full => CounterSize {
                n: 1024,
                k: 32,
                per_proc: 100,
            },
            Size::Tiny => CounterSize {
                n: 16,
                k: 4,
                per_proc: 40,
            },
        }
    }

    fn audit(size: Size) -> Self {
        match size {
            Size::Full => CounterSize {
                n: 256,
                k: 16,
                per_proc: 300,
            },
            Size::Tiny => CounterSize {
                n: 16,
                k: 4,
                per_proc: 30,
            },
        }
    }

    fn describe(&self) -> String {
        format!("n={} k={} ops_per_proc={}", self.n, self.k, self.per_proc)
    }
}

/// Alg. 1 on free-running coop, then the offline sweep over the whole
/// history: produce the history, then check it.
fn kcounter_free(opts: &Options, tr: &Tracer) -> Outcome {
    let sz = CounterSize::free(opts.size);
    let plan = counter_plan(opts.seed, sz.n, sz.per_proc, sz.k);
    let mut out = Outcome::new(Object::Kcounter);
    out.submitted = plan.len() as u64;
    tr.span("workload", || {
        let ((rt, mut d), setup_s) = tr.span("setup", || {
            let rt = Runtime::coop_free(sz.n);
            let counter = KmultCounter::new(sz.n, sz.k);
            let mut d = Driver::coop_free_seeded(rt.clone(), opts.seed);
            tr.span("submit", || submit_counter(&mut d, &counter, &plan));
            (rt, d)
        });
        let ((), exec_s) = tr.span("exec", || d.wait_all());
        out.arena_bytes = arena_bytes();
        let (h, take_s) = tr.span("take_history", || d.take_history());
        let (ch, extract_s) = tr.span("extract", || CounterHistory::from_records(&h));
        let mut rejected = 0;
        let check_s = match ch {
            Ok(ch) => {
                let (verdict, check_s) = tr.span("check", || check_counter(&ch, sz.k));
                if let Err(v) = verdict {
                    out.breaches.push(format!("check_counter({}): {v}", sz.k));
                    rejected = 1;
                }
                check_s
            }
            Err(e) => {
                out.breaches.push(format!("history extraction: {e}"));
                rejected = h.len() as u64;
                0.0
            }
        };
        out.setup_s = setup_s;
        out.run_s = exec_s + take_s + extract_s + check_s;
        out.steps = rt.total_steps();
        out.settle(&h, rejected);
        out.fingerprint = vec![out.steps, h.len() as u64, returned_sum(&h)];
        drop(d);
    });
    out
}

/// Sum of every value returned, as a cheap digest of the execution.
fn returned_sum(h: &History) -> u64 {
    h.ops()
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(r.returned() as u64))
}

fn arena_bytes() -> i64 {
    obs::gauge(obs::names::SUB_COOP, obs::names::COOP_ARENA_BYTES).get()
}

/// A gated coop runtime for `n` processes with `passes` attached, if any.
fn gated_runtime(n: usize, passes: Vec<Box<dyn AnalysisPass>>) -> Arc<Runtime> {
    let rt = Runtime::coop(n);
    if !passes.is_empty() {
        rt.attach_analysis(Analyzer::new(passes));
    }
    rt
}

/// Drive a gated coop run under `sched`, close the attached analyzer and
/// settle the outcome. Shared by the two gated workloads.
fn run_gated<S: Scheduler>(
    tr: &Tracer,
    out: &mut Outcome,
    rt: &Runtime,
    mut d: Driver<CoopBackend>,
    sched: &mut S,
) {
    let (_, exec_s) = tr.span("exec", || d.run_schedule(sched));
    out.arena_bytes = arena_bytes();
    let mut finish_s = 0.0;
    let mut rejected = 0;
    if let Some(analyzer) = rt.analysis() {
        let (violations, secs) = tr.span("analyzer_finish", || analyzer.finish());
        finish_s = secs;
        rejected = violations.len() as u64;
        out.breaches
            .extend(violations.iter().map(|v| format!("analysis: {v}")));
        // A pass that stopped checking ("went inert") has not checked
        // the run, so its notice is a breach too.
        out.breaches.extend(
            analyzer
                .summaries()
                .into_iter()
                .map(|s| format!("analysis notice: {s}")),
        );
    }
    out.run_s = exec_s + finish_s;
    out.steps = rt.total_steps();
    let h = d.take_history();
    out.settle(&h, rejected);
    out.fingerprint = vec![out.steps, h.len() as u64, returned_sum(&h)];
    drop(d);
}

/// log₂ of the max register's bound m.
const MAXREG_LOG_M: u32 = 40;

struct KmaxregSize {
    n: usize,
    per_proc: usize,
}

impl KmaxregSize {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => KmaxregSize {
                n: 10_000,
                per_proc: 10,
            },
            Size::Tiny => KmaxregSize { n: 64, per_proc: 6 },
        }
    }
}

/// Max-register operations: 0 for a read, else the value written.
/// Writes are half the operations; their values are log-uniform over
/// `[1, m)`, so every magnitude index of Alg. 2 is written.
fn maxreg_plan(seed: u64, ops: usize) -> Vec<u64> {
    let mut rng = Rng(seed);
    (0..ops)
        .map(|_| {
            if rng.below(2) == 0 {
                0
            } else {
                let e = rng.below(u64::from(MAXREG_LOG_M));
                (1 << e) + rng.below(1 << e)
            }
        })
        .collect()
}

/// Alg. 2 on gated coop under a seeded random schedule, every operation
/// checked inline by the linearizability pass.
fn kmaxreg_gated(opts: &Options, tr: &Tracer) -> Outcome {
    const K: u64 = 2;
    let sz = KmaxregSize::of(opts.size);
    let plan = maxreg_plan(opts.seed, sz.n * sz.per_proc);
    let mut out = Outcome::new(Object::Kmaxreg);
    out.submitted = plan.len() as u64;
    tr.span("workload", || {
        let ((rt, d), setup_s) = tr.span("setup", || {
            let passes: Vec<Box<dyn AnalysisPass>> = match opts.passes {
                Passes::Full => vec![
                    Box::new(LinearizabilityPass::maxreg(K)),
                    Box::new(PollDiscipline::new()),
                    Box::new(Conformance::new()),
                ],
                Passes::LinOnly => vec![Box::new(LinearizabilityPass::maxreg(K))],
                Passes::HbOnly => vec![Box::new(HappensBefore::new())],
                Passes::Detached => vec![],
            };
            let rt = gated_runtime(sz.n, passes);
            let reg = Arc::new(KmultBoundedMaxRegister::new(sz.n, 1 << MAXREG_LOG_M, K));
            let mut d = Driver::coop(rt.clone());
            tr.span("submit", || {
                for (pid, ops) in plan.chunks(sz.per_proc).enumerate() {
                    for &v in ops {
                        if v == 0 {
                            d.submit_task(pid, OpSpec::read(), KmultMaxReadTask::new(reg.clone()));
                        } else {
                            d.submit_task(
                                pid,
                                OpSpec::write(v),
                                KmultMaxWriteTask::new(reg.clone(), v),
                            );
                        }
                    }
                }
            });
            (rt, d)
        });
        out.setup_s = setup_s;
        run_gated(tr, &mut out, &rt, d, &mut SeededRandom::new(opts.seed));
    });
    out
}

/// Alg. 1 on gated coop under round-robin with every analysis on: the
/// standard passes (poll discipline, conformance, happens-before) plus
/// inline linearizability.
fn kcounter_audit(opts: &Options, tr: &Tracer) -> Outcome {
    let sz = CounterSize::audit(opts.size);
    let plan = counter_plan(opts.seed, sz.n, sz.per_proc, sz.k);
    let mut out = Outcome::new(Object::Kcounter);
    out.submitted = plan.len() as u64;
    tr.span("workload", || {
        let ((rt, d), setup_s) = tr.span("setup", || {
            let passes: Vec<Box<dyn AnalysisPass>> = match opts.passes {
                Passes::Full => vec![
                    Box::new(PollDiscipline::new()),
                    Box::new(Conformance::new()),
                    Box::new(HappensBefore::new()),
                    Box::new(LinearizabilityPass::counter(sz.k)),
                ],
                Passes::LinOnly => vec![Box::new(LinearizabilityPass::counter(sz.k))],
                Passes::HbOnly => vec![Box::new(HappensBefore::new())],
                Passes::Detached => vec![],
            };
            let rt = gated_runtime(sz.n, passes);
            let counter = KmultCounter::new(sz.n, sz.k);
            let mut d = Driver::coop(rt.clone());
            tr.span("submit", || submit_counter(&mut d, &counter, &plan));
            (rt, d)
        });
        out.setup_s = setup_s;
        run_gated(tr, &mut out, &rt, d, &mut RoundRobin::new());
    });
    out
}

type Factory = Box<dyn Fn() -> Driver<CoopBackend>>;

/// One program the explorer walks.
struct Program {
    factory: Factory,
    /// The checker's accuracy parameter.
    k: u64,
    /// Whether its records count toward the Alg. 1 per-kind step costs.
    kmult: bool,
}

/// `incrementers` processes × 2 increments plus a reader issuing 2
/// collects, over the exact collect counter.
fn collect_program(incrementers: usize) -> Driver<CoopBackend> {
    let n = incrementers + 1;
    let mut d = Driver::coop(Runtime::coop(n));
    let c = Arc::new(CollectCounter::new(n));
    for pid in 0..incrementers {
        for _ in 0..2 {
            d.submit_task(pid, OpSpec::inc(), CollectIncTask::new(c.clone()));
        }
    }
    for _ in 0..2 {
        d.submit_task(
            incrementers,
            OpSpec::read(),
            CollectReadTask::new(c.clone()),
        );
    }
    d
}

/// `n` processes, each an increment then a read, over Algorithm 1 at
/// k = 3 (n ≤ k + 1, so the raw accuracy holds from the first read).
fn kmult_program(n: usize) -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(n));
    let c = KmultCounter::new(n, 3);
    for pid in 0..n {
        let h: SharedKmultHandle = Arc::new(Mutex::new(c.handle(pid)));
        d.submit_task(pid, OpSpec::inc(), KmultIncTask::new(h.clone()));
        d.submit_task(pid, OpSpec::read(), KmultReadTask::new(h));
    }
    d
}

/// Processes per explored program: 4 at full size (42 921 and 30 360
/// trace classes), 3 when tiny.
fn explore_procs(size: Size) -> usize {
    match size {
        Size::Full => 4,
        Size::Tiny => 3,
    }
}

/// Timed batches of set-ups per `explore_dpor` iteration.
const EXPLORE_SETUP_BATCHES: usize = 16;
/// Set-ups per timed batch.
const EXPLORE_SETUPS_PER_BATCH: usize = 1024;

/// The explorer's configuration and programs. A factory that builds an
/// ill-formed program fails inside the walk, where every trace class is
/// checked.
fn explore_setup(procs: usize) -> (ExploreConfig, [Program; 2]) {
    let programs = [
        Program {
            factory: Box::new(move || collect_program(procs - 1)),
            k: 1,
            kmult: false,
        },
        Program {
            factory: Box::new(move || kmult_program(procs)),
            k: 3,
            kmult: true,
        },
    ];
    (ExploreConfig::default(), programs)
}

/// Sequential DPOR over two small programs, every cut checked offline.
/// Seed-independent: the explorer enumerates the same classes every time.
fn explore_dpor(opts: &Options, tr: &Tracer) -> Outcome {
    let procs = explore_procs(opts.size);
    let mut out = Outcome::new(Object::Kcounter);
    let mut totals = ExploreTotals::default();
    let mut records = 0u64;
    tr.span("workload", || {
        // One set-up takes well under a microsecond, so a single timing
        // is mostly clock noise: time batches of set-ups and keep the
        // median batch, per set-up.
        let mut samples = Vec::with_capacity(EXPLORE_SETUP_BATCHES);
        let mut built = None;
        for _ in 0..EXPLORE_SETUP_BATCHES {
            let ((), secs) = tr.span("setup", || {
                for _ in 0..EXPLORE_SETUPS_PER_BATCH {
                    built = Some(std::hint::black_box(explore_setup(procs)));
                }
            });
            samples.push(secs / EXPLORE_SETUPS_PER_BATCH as f64);
        }
        let (cfg, programs) = built.expect("at least one set-up");
        out.setup_s = crate::metrics::median(&samples);
        for p in &programs {
            let op_steps = &mut out.op_steps;
            let (stats, secs) = tr.span("explore", || {
                explore(
                    &cfg,
                    || tr.inner("factory", || (p.factory)()),
                    |h: &History| {
                        records += h.len() as u64;
                        op_steps.add_history(h, p.kmult);
                        tr.inner("records_check", || check_counter_records(h, p.k))
                    },
                )
            });
            out.run_s += secs;
            totals.schedules += stats.interleavings;
            totals.pruned += stats.pruned;
            totals.steps_replayed += stats.steps_replayed;
            out.fingerprint
                .extend([stats.interleavings, stats.pruned, stats.steps_replayed]);
            if stats.capped {
                out.breaches.push("explorer hit its cap".into());
            }
            for v in &stats.violations {
                out.breaches
                    .push(format!("explorer violation (k = {}): {}", p.k, v.message));
            }
            out.failed += stats.violations.len() as u64;
        }
    });
    out.submitted = records;
    out.checked = records - out.failed.min(records);
    out.steps = totals.steps_replayed;
    out.fingerprint.push(records);
    out.explore = Some(totals);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_hist_quantiles_use_nearest_rank() {
        let mut h = StepHist::default();
        for s in [0, 0, 0, 1, 5] {
            h.add(s);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(1, 2), 0);
        assert_eq!(h.quantile(4, 5), 1);
        assert_eq!(h.quantile(99, 100), 5);
        assert_eq!(h.max(), 5);
        assert!((h.mean() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn plans_depend_on_the_seed_alone() {
        assert_eq!(counter_plan(7, 4, 100, 4), counter_plan(7, 4, 100, 4));
        assert_ne!(counter_plan(7, 4, 100, 4), counter_plan(8, 4, 100, 4));
        assert_eq!(maxreg_plan(7, 100), maxreg_plan(7, 100));
    }

    #[test]
    fn no_read_falls_in_the_startup_window() {
        let k = 4;
        let plan = counter_plan(1, 8, 50, k);
        for ops in plan.chunks(50) {
            assert!(ops[..2 * k as usize].iter().all(|&read| !read));
            assert!(ops.iter().any(|&read| read));
        }
    }

    #[test]
    fn maxreg_values_stay_below_the_bound() {
        let plan = maxreg_plan(3, 10_000);
        assert!(plan.iter().all(|&v| v < 1 << MAXREG_LOG_M));
        assert!(plan.contains(&0));
        assert!(plan.iter().any(|&v| v >= 1 << (MAXREG_LOG_M - 1)));
    }
}
