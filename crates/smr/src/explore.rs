//! Bounded exhaustive schedule exploration over the coop backend —
//! stateless model checking for gated executions.
//!
//! Property tests sample schedules (`SeededRandom` over a few hundred
//! seeds); this module *enumerates* them. [`explore`] replays a program
//! over a fresh [`Driver<CoopBackend>`] once per interleaving, walking
//! the tree of scheduling decisions depth-first: at every prefix each
//! active process can be granted the next step, and (optionally) each
//! active process can be crashed. Every maximal interleaving — or every
//! prefix cut off by the step bound — is turned into a history cut via
//! [`Driver::history_snapshot`] and handed to a caller-supplied checker,
//! so a schedule-quantified claim ("for every gated schedule …") becomes
//! a finite, checkable statement for small configurations.
//!
//! ## Why the coop backend
//!
//! Exploration replays the program once per interleaving, so the cost of
//! creating and stepping an execution is the whole game. A coop driver
//! is a plain in-process object: no worker threads to spawn or park, one
//! indirect call per granted step, and a history cut is read off its
//! state at any time (the backend keeps every process at a stable point
//! continuously). That is what makes enumerating tens of thousands of
//! interleavings per second practical — see `exp_explore`.
//!
//! ## What a replay costs
//!
//! A replay costs its program and its steps. The factory builds the
//! program, and the coop backend writes each typed task straight into
//! its task arena, whose first chunk is 4 KiB. The stored prefix is then
//! re-applied with [`Driver::step`] and [`Driver::crash`], feeding the
//! objects each decision touched into the first-touch id map (see
//! `ObjIds`) without rebuilding the step metadata the search stack
//! already holds. Only the steps past the prefix are stamped with
//! clocks and scanned for races. At a cut the driver is dropped and its
//! history moves into the cut the checker receives, with no clone.
//!
//! Building, running and dropping a program is sized for it. The
//! runtime, the coop backend, the driver and its active set are built
//! with two allocation calls each (four for the backend), each queue
//! and list starts with room for one entry per process, and the history
//! reserves room for every submitted operation at its first record.
//! Over the two 4-process programs `perfbench`'s `explore_dpor` walks,
//! a checked cut averages about 23 allocation calls, the program
//! objects and `lincheck`'s check included; `tests/replay_allocations.rs`
//! pins the mean for the same programs at 3 processes.
//!
//! The walk's own buffers outlive the replay. Popped DPOR nodes go to a
//! spare list, and the next push refills one in place: its choice lists,
//! sleep and done sets and vector clock keep their allocations. The
//! first-touch map, the race list and the initials scan's per-process
//! buffer are cleared, not rebuilt. Once these buffers have reached
//! their high-water marks, a replay allocates only for the program and
//! for the check of its cut.
//!
//! ## Independence
//!
//! The reduction below rests on one independence relation. Two granted
//! steps commute when
//!
//! * they belong to different processes,
//! * at most one of them emitted a history event, and
//! * they touch different base objects, or both are trivial (`read`)
//!   primitives on the same object.
//!
//! Swapping such a pair changes nothing observable: shared memory ends
//! identical (the primitives commute), per-process step counters are
//! per-process (unaffected by order), and the history is
//! *byte-identical* — logical timestamps are drawn only by emitting
//! steps (an operation completing and announcing its successor), so a
//! non-emitting step can cross an emitting one without moving any
//! ticket draw or history record. Two emitting steps are always
//! dependent: their record order and ticket values swap observably.
//! Crash decisions apply no primitive, get no metadata, and are treated
//! as **dependent on everything**.
//!
//! The relation leans on two runtime contracts, each with one enforcer:
//!
//! * **One primitive per granted step.** The coop backend asserts it
//!   around every poll and panics on a breach (see [`CoopBackend`]), so
//!   every granted step has exactly one `(object, kind)` to key on.
//! * **Declared access kinds are honest.** A primitive declared `read`
//!   must not change its object, or the read/read rule above would
//!   prune real reorderings. The `Conformance` analysis pass refutes
//!   a mis-declared kind online, and an attached analyzer's findings
//!   surface from the walk like checker rejections (see [`explore`]).
//!
//! The primitive each step applied is read off the coop backend's
//! access record: the one context the backend polls every process under
//! lists the `(object, kind)` of each primitive applied through it (see
//! [`CoopBackend`]). Event emission is read off the history length. The
//! explorer never switches the runtime's trace log on, so with no
//! analyzer attached every replay runs with tracing off.
//!
//! ## Reduction: source-set DPOR, with the raw DFS as its oracle
//!
//! While `prune` is on (the default), the explorer runs **dynamic
//! partial-order reduction** with source sets and sleep sets (Abdulla,
//! Aronis, Jonsson, Sagonas, "Optimal Dynamic Partial Order Reduction",
//! POPL 2014, Algorithm 1). As each interleaving executes, every step
//! is stamped with a vector clock, dense with one component per
//! process, joining the clocks of its happens-before predecessors — its
//! process's previous step plus every earlier *dependent* step not
//! already ordered before it. A dependent pair with nothing between
//! them in happens-before order is a *race*: a step e at some node and
//! a later step e′. Reversing it gives v = notdep(e)·e′, the steps after
//! e that do not happen after it followed by e′, which may lie in a new
//! Mazurkiewicz trace class. The processes that can start v at e's node
//! are its *initials*: those whose first step in v has no
//! happens-before predecessor in v. If one of them is already in the
//! node's backtrack set, done or asleep there, nothing is added.
//! Otherwise one joins the node's *backtrack set* — e′'s own process
//! when it is an initial, else the first initial found — and the walk
//! later re-explores the node with it scheduled first. Sleep sets kill
//! the duplicates this creates: after a choice's subtree is fully
//! explored, the choice "sleeps" at that node and stays asleep in
//! sibling subtrees until some executed step is dependent with it. An
//! execution whose next step is asleep is a reordering of an
//! already-explored one, and is skipped (counted in
//! [`ExploreStats::pruned`]).
//!
//! Soundness: when the walk leaves a node, its backtrack set is a
//! *source set* for the maximal executions from that node that its sleep
//! set does not already cover — each is equivalent to one that starts
//! with a member — and sleep sets only skip executions equivalent to
//! explored ones (entries are dropped the moment a dependent step runs).
//! The proof is Abdulla et al.'s: an unexplored class from a node
//! diverges from the explored execution closest to it at a race, and
//! that race's reversal puts an initial of the class's own order into the
//! node's backtrack set. The initials are what make this hold with races
//! found only between executed steps. Scheduling the racing step's own
//! process instead (Flanagan–Godefroid, POPL 2005) is complete only when
//! races are also checked against every process's pending step at every
//! prefix, since that step may depend on a step between the racing
//! pair; without that check it skips reachable histories.
//!
//! One subtlety is
//! *object identity across replays*: every interleaving runs in a fresh
//! program instance, so raw base-object addresses recorded in one
//! replay are meaningless in the next. DPOR metadata persists across
//! replays, so the walk rekeys each step's object to its first-touch
//! index along the choice prefix — a deterministic property of the
//! prefix, hence exact for any two events on one path — and sleep
//! entries whose object was first touched by the sleeping step itself
//! (no shared-prefix identity) are compared conservatively: any
//! possibly-equal pairing counts as dependent and wakes the entry. So
//! the walk checks one cut per trace class unless such an entry wakes
//! early, which repeats a class: Algorithm 2 at four processes checks
//! 30 488 cuts for its 25 724 classes.
//!
//! Crash decisions are seeded into every node's backtrack set
//! unconditionally — crash coverage stays exhaustive (one crash cut per
//! prefix per process, as in the raw DFS); the reduction only collapses
//! step reorderings. Their races go through the same rule. A crash
//! depends on every step, so it never lies inside a notdep; a crash e′
//! racing with e is reversed through the initials of the steps between
//! them, which brings the walk to a prefix where the crash lands before
//! e.
//!
//! `prune: false` selects the raw depth-first walk, which explores
//! every schedule as-is: it is the oracle the parity tests compare
//! DPOR's reachable history cuts against, and what the closed-form
//! interleaving-count tests rely on.
//!
//! ## Bounds
//!
//! [`ExploreConfig`] bounds the walk two ways: `max_steps` (granted
//! steps per interleaving — prefixes at the bound are checked as cuts,
//! exactly like a suspension) and `max_crashes` (crash-point injection:
//! at every prefix, each active process may be crashed, surfacing its
//! in-flight operation as a pending record). An optional
//! `max_interleavings` cap stops runaway configurations and is reported
//! via [`ExploreStats::capped`].
//!
//! ## Replay and minimization
//!
//! Every decision sequence is a [`Replay`]: it can be re-run against a
//! fresh driver ([`Replay::run`]) and, when crash-free, converted into a
//! [`Scripted`] scheduler ([`Replay::to_scripted`]). When the checker
//! rejects a cut, the explorer greedily deletes chunks of the decision
//! sequence (ddmin-style, halving chunk sizes) while the violation
//! persists, and reports the minimal failing schedule alongside the
//! original in [`FoundViolation`]. The walk stops at the first
//! rejection.

use crate::addr::AddrMap;
use crate::backend::CoopBackend;
use crate::driver::Driver;
use crate::history::History;
use crate::sched::Scripted;
use crate::trace::AccessKind;
use std::sync::OnceLock;

/// One decision of an explored schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Grant process `pid` one primitive step.
    Step(usize),
    /// Crash process `pid` (it is never scheduled again; its in-flight
    /// operation surfaces as a pending record).
    Crash(usize),
}

/// What one granted step did, as the independence relation sees it:
/// the acting process, the base object its one primitive touched, the
/// access kind, and whether the step emitted history events (completed
/// an operation and drew logical timestamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepMeta {
    pid: usize,
    obj: usize,
    kind: AccessKind,
    emitted: bool,
}

/// The independence relation (symmetric): two granted steps commute
/// when they belong to different processes, they did not *both* emit
/// history events, and they touch different base objects or are both
/// trivial `read`s of one object. See the [module docs](self) for why
/// one emission is tolerable.
fn independent(a: &StepMeta, b: &StepMeta) -> bool {
    a.pid != b.pid
        && !(a.emitted && b.emitted)
        && (a.obj != b.obj || (a.kind == AccessKind::Read && b.kind == AccessKind::Read))
}

/// The process a decision acts on.
fn acting(choice: Choice) -> usize {
    match choice {
        Choice::Step(pid) | Choice::Crash(pid) => pid,
    }
}

/// A replayable schedule: the exact decision sequence of one explored
/// execution prefix. Gated coop executions are deterministic, so
/// re-applying the sequence to a fresh driver built by the same factory
/// reproduces the execution — including the violating cut the checker
/// rejected.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Replay {
    /// The decision sequence, in execution order.
    pub choices: Vec<Choice>,
}

impl Replay {
    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// `true` if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Granted steps (crash decisions excluded).
    pub fn steps(&self) -> usize {
        self.choices
            .iter()
            .filter(|c| matches!(c, Choice::Step(_)))
            .count()
    }

    /// Crash decisions.
    pub fn crashes(&self) -> usize {
        self.choices.len() - self.steps()
    }

    /// Re-apply the schedule to a fresh driver (same program, same
    /// submission order) and return the resulting history cut — the
    /// exact cut the explorer checked. Decisions that no longer apply
    /// (a pid that already finished or crashed) are skipped, so any
    /// subsequence of a valid schedule is itself valid; minimization
    /// relies on this.
    pub fn run(&self, mut d: Driver<CoopBackend>) -> History {
        for &c in &self.choices {
            match c {
                Choice::Step(pid) => {
                    if !d.is_crashed(pid) && d.active_set().contains(pid) {
                        let _ = d.step(pid);
                    }
                }
                Choice::Crash(pid) => {
                    if !d.is_crashed(pid) {
                        d.crash(pid);
                    }
                }
            }
        }
        d.into_history_snapshot()
    }

    /// The schedule as a [`Scripted`] scheduler, for crash-free
    /// schedules (`None` if the replay contains a crash, which no
    /// `Scheduler` can express). Note `Scripted` drives an execution to
    /// *completion* (falling back to round-robin when the script runs
    /// dry); to reproduce a bounded prefix cut exactly, use
    /// [`Replay::run`].
    pub fn to_scripted(&self) -> Option<Scripted> {
        let mut pids = Vec::with_capacity(self.choices.len());
        for &c in &self.choices {
            match c {
                Choice::Step(pid) => pids.push(pid),
                Choice::Crash(_) => return None,
            }
        }
        Some(Scripted::new(pids))
    }
}

/// Bounds and options for one [`explore`] call.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Granted steps per interleaving; prefixes that hit the bound are
    /// checked as suspension cuts.
    pub max_steps: usize,
    /// Crash decisions per interleaving (0 disables crash injection).
    pub max_crashes: usize,
    /// Run DPOR: skip interleavings equivalent to an already-visited one
    /// (see the [module docs](self)). Disable to run the raw exhaustive
    /// DFS, e.g. to count raw interleavings against a closed form.
    pub prune: bool,
    /// Hard cap on checked interleavings (`None` = exhaust the space).
    pub max_interleavings: Option<u64>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 10_000,
            max_crashes: 0,
            prune: true,
            max_interleavings: None,
        }
    }
}

impl ExploreConfig {
    /// Exhaustive enumeration (no reduction) under the default bounds —
    /// the configuration whose interleaving count matches the
    /// multinomial closed form for programs with schedule-independent
    /// per-process step counts.
    pub fn exhaustive() -> Self {
        ExploreConfig {
            prune: false,
            ..ExploreConfig::default()
        }
    }
}

/// A checker rejection, with the schedule that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundViolation {
    /// The checker's diagnosis for the minimized schedule.
    pub message: String,
    /// The minimal failing schedule (ddmin over the original decision
    /// sequence; every removal kept the checker failing).
    pub minimized: Replay,
    /// The schedule the violation was first observed on.
    pub original: Replay,
}

/// What one [`explore`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// History cuts checked (maximal interleavings plus bound cuts).
    /// Under DPOR, at least one per Mazurkiewicz trace class, and one
    /// per class unless a sleeping step's fresh object forces a
    /// conservative wake-up (see the [module docs](self)).
    pub interleavings: u64,
    /// Program instances the walk built, minimization's excluded. Equal
    /// to `interleavings` under the raw DFS; DPOR adds the replays that
    /// end sleep-blocked, with every continuation asleep and no cut.
    pub replays: u64,
    /// Choices DPOR left unexplored at the nodes it finished: asleep
    /// there, or never scheduled because no race reversal needed them
    /// (0 under the raw DFS).
    pub pruned: u64,
    /// Total granted steps across all replays (the work metric).
    pub steps_replayed: u64,
    /// Deepest decision sequence reached.
    pub max_depth: usize,
    /// Checker rejections, minimized: at most one, since the walk stops
    /// at the first.
    pub violations: Vec<FoundViolation>,
    /// `true` if `max_interleavings` stopped the walk early.
    pub capped: bool,
}

impl ExploreStats {
    /// `true` if every checked cut passed.
    pub fn all_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One node of the decision tree: the alternatives at this prefix and
/// the index of the branch currently being explored (raw DFS walk).
struct Frame {
    alts: Vec<Choice>,
    idx: usize,
}

/// Apply one decision to the driver.
fn exec(d: &mut Driver<CoopBackend>, choice: Choice) {
    match choice {
        Choice::Step(pid) => {
            let _ = d.step(pid);
        }
        Choice::Crash(pid) => d.crash(pid),
    }
}

/// Apply one decision to the driver, returning the step's [`StepMeta`]
/// with its object rewritten to its first-touch id (`None` for a crash
/// decision, which touches nothing).
///
/// What a step applied comes from the backend's access record
/// ([`Driver::touched`]): exactly the granted primitive, since the
/// backend asserts one primitive per granted poll.
fn apply(d: &mut Driver<CoopBackend>, ids: &mut ObjIds, choice: Choice) -> Option<StepMeta> {
    let before_len = d.history().len();
    exec(d, choice);
    let Choice::Step(pid) = choice else {
        return None;
    };
    let (obj, kind) = granted(d);
    Some(StepMeta {
        pid,
        obj: ids.id(obj),
        kind,
        emitted: d.history().len() != before_len,
    })
}

/// The `(object, kind)` of the primitive the last granted step applied.
fn granted(d: &Driver<CoopBackend>) -> (usize, AccessKind) {
    let touched = d.touched();
    debug_assert_eq!(touched.len(), 1, "one primitive per granted step");
    touched[0]
}

/// [`independent`] lifted to optional metadata: a crash decision
/// commutes with nothing.
fn indep_opt(a: &Option<StepMeta>, b: &Option<StepMeta>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => independent(a, b),
        _ => false,
    }
}

/// Mutable walk state threaded through one replay/extension pass.
#[derive(Default)]
struct Walk {
    steps: usize,
    crashes: usize,
}

impl Walk {
    /// Count an applied decision; a granted step also adds to the work
    /// metric `replayed`.
    fn count(&mut self, choice: Choice, replayed: &mut u64) {
        match choice {
            Choice::Step(_) => {
                self.steps += 1;
                *replayed += 1;
            }
            Choice::Crash(_) => self.crashes += 1,
        }
    }
}

/// Fill `alts` with the alternatives at the current prefix, in canonical
/// order: step decisions for each active pid ascending, then crash
/// decisions.
fn alternatives(d: &Driver<CoopBackend>, cfg: &ExploreConfig, walk: &Walk, alts: &mut Vec<Choice>) {
    let active = d.active_set();
    alts.clear();
    alts.extend(active.iter_sorted().map(Choice::Step));
    if walk.crashes < cfg.max_crashes {
        alts.extend(active.iter_sorted().map(Choice::Crash));
    }
}

/// The analysis passes' verdict over a finished replay, when the
/// factory attached an [`Analyzer`](crate::analysis::Analyzer) to the
/// runtime: `Some(message)` if any pass reported a violation. Explored
/// cuts are checked against the analyses exactly like against the
/// caller's history checker, so a conformance bug, or any other pass's
/// finding, is found, minimized and reported through the same
/// [`FoundViolation`] machinery as a linearizability bug.
fn analysis_failure(rt: &std::sync::Arc<crate::Runtime>) -> Option<String> {
    let analyzer = rt.analysis()?;
    let violations = analyzer.finish();
    violations
        .first()
        .map(|v| format!("analysis ({} violation(s)): {v}", violations.len()))
}

/// Greedy ddmin: delete ever-smaller chunks of the decision sequence
/// while the checker still rejects the replayed cut.
fn minimize<F, C>(factory: &F, check: &mut C, original: &Replay) -> (Replay, String)
where
    F: Fn() -> Driver<CoopBackend>,
    C: FnMut(&History) -> Result<(), String>,
{
    let mut failure = |r: &Replay| -> Option<String> {
        let d = factory();
        let rt = d.runtime().clone();
        check(&r.run(d)).err().or_else(|| analysis_failure(&rt))
    };
    let mut best = original.clone();
    let mut message = failure(&best).expect("the original schedule must reproduce the violation");
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut at = 0;
        while at < best.len() {
            let mut candidate = best.clone();
            candidate
                .choices
                .drain(at..(at + chunk).min(candidate.choices.len()));
            if let Some(msg) = failure(&candidate) {
                best = candidate;
                message = msg;
                shrunk = true;
                // re-test the same position: the next chunk slid in
            } else {
                at += chunk;
            }
        }
        if chunk == 1 && !shrunk {
            return (best, message);
        }
        chunk = (chunk / 2).max(1);
    }
}

/// Enumerate every schedule of the program built by `factory` (within
/// `cfg`'s bounds) and check the history cut of each with `check`.
///
/// `factory` must build a fresh, fully-submitted coop driver per call
/// and be deterministic — every invocation must produce the same program
/// (the explorer replays it once per interleaving). `check` receives the
/// [`Driver::history_snapshot`] of each cut: completed operations plus
/// pending records for operations still in flight at the cut (crashed or
/// suspended by the bound).
///
/// With `prune` on (the default) this runs the DPOR walk; otherwise it
/// runs the raw exhaustive depth-first walk, the oracle DPOR is tested
/// against. See the [module docs](self) for the enumeration order, the
/// soundness arguments and the bounds.
pub fn explore<F, C>(cfg: &ExploreConfig, factory: F, check: C) -> ExploreStats
where
    F: Fn() -> Driver<CoopBackend>,
    C: FnMut(&History) -> Result<(), String>,
{
    if cfg.prune {
        explore_dpor(cfg, &factory, check)
    } else {
        explore_dfs(cfg, &factory, check)
    }
}

/// A fresh program from `factory`, which must be a gated coop driver,
/// counted in `replays`.
fn fresh<F: Fn() -> Driver<CoopBackend>>(factory: &F, replays: &mut u64) -> Driver<CoopBackend> {
    *replays += 1;
    let d = factory();
    assert!(
        d.runtime().is_coop(),
        "explore requires a coop driver (Driver::coop over Runtime::coop)"
    );
    d
}

/// Check the cut `d` reached along `path`: count it, minimize and record
/// a rejection, and return `true` when the walk must stop — a
/// rejection, or the interleaving cap reached.
fn check_cut<F, C>(
    cfg: &ExploreConfig,
    factory: &F,
    check: &mut C,
    d: Driver<CoopBackend>,
    path: impl Iterator<Item = Choice>,
    stats: &mut ExploreStats,
) -> bool
where
    F: Fn() -> Driver<CoopBackend>,
    C: FnMut(&History) -> Result<(), String>,
{
    stats.interleavings += 1;
    let rt = d.runtime().clone();
    // The driver is dropped here, before the checker runs: its history
    // moves into the cut instead of being cloned.
    let cut = d.into_history_snapshot();
    let rejected = check(&cut).err().or_else(|| analysis_failure(&rt));
    if rejected.is_some() {
        let original = Replay {
            choices: path.collect(),
        };
        let (minimized, message) = minimize(factory, check, &original);
        stats.violations.push(FoundViolation {
            message,
            minimized,
            original,
        });
        return true;
    }
    stats.capped = cfg
        .max_interleavings
        .is_some_and(|cap| stats.interleavings >= cap);
    stats.capped
}

/// The raw exhaustive depth-first walk: every interleaving within the
/// bounds, none skipped.
fn explore_dfs<F, C>(cfg: &ExploreConfig, factory: &F, mut check: C) -> ExploreStats
where
    F: Fn() -> Driver<CoopBackend>,
    C: FnMut(&History) -> Result<(), String>,
{
    let mut stats = ExploreStats::default();
    let mut path: Vec<Frame> = Vec::new();

    /// Advance to the next unexplored branch; `false` when the tree is
    /// exhausted.
    fn backtrack(path: &mut Vec<Frame>) -> bool {
        while let Some(top) = path.last_mut() {
            top.idx += 1;
            if top.idx < top.alts.len() {
                return true;
            }
            path.pop();
        }
        false
    }

    loop {
        // Replay the current prefix on a fresh driver.
        let mut d = fresh(factory, &mut stats.replays);
        let mut walk = Walk::default();
        for f in &path {
            let choice = f.alts[f.idx];
            exec(&mut d, choice);
            walk.count(choice, &mut stats.steps_replayed);
        }

        // Extend depth-first along each node's first alternative.
        loop {
            stats.max_depth = stats.max_depth.max(path.len());
            if d.active_set().is_empty() || walk.steps >= cfg.max_steps {
                break;
            }
            let mut alts = Vec::new();
            alternatives(&d, cfg, &walk, &mut alts);
            debug_assert!(!alts.is_empty(), "active set non-empty but no alternatives");
            let choice = alts[0];
            path.push(Frame { alts, idx: 0 });
            exec(&mut d, choice);
            walk.count(choice, &mut stats.steps_replayed);
        }
        let choices = path.iter().map(|f| f.alts[f.idx]);
        if check_cut(cfg, factory, &mut check, d, choices, &mut stats) || !backtrack(&mut path) {
            return stats;
        }
    }
}

// ---------------------------------------------------------------------
// DPOR engine
// ---------------------------------------------------------------------

/// First-touch object identity for one execution path.
///
/// [`StepMeta::obj`] is a base-object address, and addresses are
/// instance-local: every replay constructs a fresh program from the
/// factory, so an address recorded in one replay means nothing in the
/// next. DPOR metadata, however, *persists across replays* — done and
/// sleep entries captured executing one interleaving are compared
/// against steps of later ones. The walk therefore rekeys every meta to
/// the index at which its object is first touched along the choice
/// prefix. That index is a deterministic property of the prefix alone,
/// so metas recorded in different replays of the same prefix agree, and
/// two equal ids on one path always denote the same real object.
///
/// One map serves the whole walk: each replay clears it, keeping its
/// table.
#[derive(Default)]
struct ObjIds(AddrMap<usize>);

impl ObjIds {
    /// Forget every id, for the next replay.
    fn clear(&mut self) {
        self.0.clear();
    }

    /// The first-touch id of `addr`, assigning the next id if unseen.
    fn id(&mut self, addr: usize) -> usize {
        let next = self.0.len();
        *self.0.entry(addr).or_insert(next)
    }

    /// Count of distinct objects touched so far.
    fn len(&self) -> usize {
        self.0.len()
    }

    /// Feed the object the just-applied `choice` touched through the
    /// map. A crash touches nothing (the backend's access record still
    /// lists the previous step's primitive, so it is not consulted).
    fn feed(&mut self, d: &Driver<CoopBackend>, choice: Choice) {
        if let Choice::Step(_) = choice {
            self.id(granted(d).0);
        }
    }
}

/// A sleeping (or done-inherited) choice, with the provenance bit that
/// makes its object id safe to compare at deeper nodes.
///
/// First-touch ids are exact *within one path*. A sleep entry captured
/// at node `n` travels into sibling subtrees, where the steps it is
/// compared against lie on a different path sharing only the prefix up
/// to `n`. Ids below the distinct-object count at `n` name objects of
/// that shared prefix, so they stay exact everywhere in the subtree
/// (`obj_known`). An entry whose object was first touched *by the
/// sleeping step itself* has no prefix identity: in a sibling branch the
/// same real object may surface under a later id, so comparisons
/// against higher ids are meaningless and [`survives`] conservatively
/// treats them as dependent.
#[derive(Clone, Copy)]
struct SleepEntry {
    choice: Choice,
    info: Option<StepMeta>,
    /// `true` if the entry's object was already part of the shared
    /// prefix when the entry was captured.
    obj_known: bool,
}

/// `true` if a sleep entry stays asleep across `taken` — i.e. the two
/// are independent under comparisons that are exact or conservative.
///
/// With `obj_known`, the plain relation applies (both ids are
/// first-touch indices of shared-prefix objects — exact). Without it,
/// the entry's object is fresh at its capture node: a step with a
/// *smaller* id touches a shared-prefix object, which the fresh object
/// cannot be (exact inequality); a step with the *same* id may be the
/// same object (treated dependent — conservative); a step with a
/// *larger* id is unidentifiable relative to the entry's capture
/// context, so it is treated as dependent too. Read/read pairs are
/// independent regardless of object identity.
fn survives(e: &SleepEntry, taken: &Option<StepMeta>) -> bool {
    let (Some(a), Some(t)) = (&e.info, taken) else {
        return false;
    };
    if a.pid == t.pid || (a.emitted && t.emitted) {
        return false;
    }
    if a.kind == AccessKind::Read && t.kind == AccessKind::Read {
        return true;
    }
    if !e.obj_known && t.obj > a.obj {
        return false;
    }
    a.obj != t.obj
}

/// One node of the DPOR search stack: the state before `taken` ran.
///
/// Popped nodes go to a spare list, and the next push refills one in
/// place, so node buffers and clocks keep their allocations across
/// replays.
struct DNode {
    /// Every choice available at this prefix, canonical order.
    enabled: Vec<Choice>,
    /// Choices scheduled for exploration from this node: the first
    /// choice not asleep, every crash choice, and one initial per race
    /// reversal that found none covered here.
    backtrack: Vec<Choice>,
    /// Choices fully explored from this node, with the metadata their
    /// first step had (deterministic per state, object rekeyed to its
    /// first-touch id). Doubles as the sleep contribution for later
    /// siblings.
    done: Vec<(Choice, Option<StepMeta>)>,
    /// Inherited sleep set: choices whose exploration from this state
    /// is equivalent to an already-explored execution.
    sleep: Vec<SleepEntry>,
    /// Distinct objects touched in the prefix up to this node — the
    /// first-touch id threshold below which object ids are shared-prefix
    /// identities (see [`SleepEntry`]).
    objs_seen: usize,
    /// The branch currently being explored.
    taken: Choice,
    info: Option<StepMeta>,
    pid: usize,
    local: u64,
    /// The taken step's vector clock, one component per pid.
    clock: Vec<u64>,
}

impl Default for DNode {
    fn default() -> Self {
        DNode {
            enabled: Vec::new(),
            backtrack: Vec::new(),
            done: Vec::new(),
            sleep: Vec::new(),
            objs_seen: 0,
            taken: Choice::Step(0),
            info: None,
            pid: 0,
            local: 0,
            clock: Vec::new(),
        }
    }
}

/// The explorer's registered metrics. Resolved lazily (one `OnceLock`
/// load per use) — every site below fires at node/replay granularity,
/// orders of magnitude rarer than granted steps, and instrumentation
/// must not perturb the walk itself: counters only, no control flow.
/// The obs-on/off parity test in `tests/obs_parity.rs` pins that the
/// DPOR history-digest set is bit-identical either way.
struct ExploreMetrics {
    /// `'outer` iterations of [`explore_dpor`] — fresh-driver replays.
    replays: &'static obs::Counter,
    /// Sleep-blocked states: every continuation was asleep.
    sleep_hits: &'static obs::Counter,
    /// Race reversals actually added to a backtrack set.
    backtracks: &'static obs::Counter,
}

fn metrics() -> &'static ExploreMetrics {
    static M: OnceLock<ExploreMetrics> = OnceLock::new();
    M.get_or_init(|| ExploreMetrics {
        replays: obs::counter(obs::names::SUB_EXPLORE, obs::names::EXPLORE_REPLAYS),
        sleep_hits: obs::counter(obs::names::SUB_EXPLORE, obs::names::EXPLORE_SLEEP_HITS),
        backtracks: obs::counter(obs::names::SUB_EXPLORE, obs::names::EXPLORE_BACKTRACKS),
    })
}

/// `true` if exploring `c` from `node` is already covered — scheduled,
/// explored, or asleep.
fn covered(node: &DNode, c: Choice) -> bool {
    node.backtrack.contains(&c)
        || node.done.iter().any(|(dc, _)| *dc == c)
        || node.sleep.iter().any(|e| e.choice == c)
}

/// `true` if an event with vector clock `clock` has no happens-before
/// predecessor among the events whose per-process first indices
/// `first` holds (0: no event of that process yet).
fn is_initial(clock: &[u64], first: &[u64]) -> bool {
    clock.iter().zip(first).all(|(&c, &f)| f == 0 || c < f)
}

/// Schedule the reversal of the race between the step at stack
/// position `j` (call it e) and the new event, `choice` with clock
/// `clock`, whose predecessors are `below`.
///
/// The reversal is v = notdep(e)·`choice`: the steps after `j` that do
/// not happen after e, then the new event. Its *initials* are the
/// events of v with no happens-before predecessor in v, and some
/// initial must be explored at node `j` for v's class to be reached.
/// One scan of the dense node clocks finds them, keeping in `first`,
/// reused across calls, each process's index of its first event in v.
/// If an initial is already covered at node `j`, nothing is scheduled;
/// otherwise the new event's own choice is when it is an initial, else
/// the first initial found.
fn add_backtrack(
    below: &mut [DNode],
    j: usize,
    choice: Choice,
    clock: &[u64],
    first: &mut Vec<u64>,
) {
    let (pid, local) = (below[j].pid, below[j].local);
    first.clear();
    first.resize(clock.len(), 0);
    let mut pick = None;
    for node in &below[j + 1..] {
        if node.clock[pid] >= local {
            continue; // happens after e: not in notdep(e)
        }
        if is_initial(&node.clock, first) {
            if covered(&below[j], node.taken) {
                return;
            }
            pick.get_or_insert(node.taken);
        }
        if first[node.pid] == 0 {
            first[node.pid] = node.local;
        }
    }
    let c = if is_initial(clock, first) {
        if covered(&below[j], choice) {
            return;
        }
        choice
    } else {
        pick.expect("a preceded event has an initial predecessor in v")
    };
    // The active set only shrinks along a path and the crash budget is
    // monotone, so an initial is enabled at node `j`.
    debug_assert!(below[j].enabled.contains(&c), "initial {c:?} not enabled");
    below[j].backtrack.push(c);
    metrics().backtracks.inc();
}

/// Stamp a new event with its vector clock and detect its races.
///
/// Scanning executed events newest-first: an event not yet dominated by
/// the accumulated cause that is dependent with the new one is a
/// *race* — dependent but concurrent. Its clock joins the cause (its
/// whole happens-before cone is now ordered before the new event), so
/// earlier members of that cone are skipped, and exactly the immediate
/// concurrent dependent partners are reported. Writes the new event's
/// clock, `n` components wide, into `clock` and the stack positions of
/// its races into `races`, and returns its per-process index.
fn race_scan(
    stack: &[DNode],
    n: usize,
    pid: usize,
    info: &Option<StepMeta>,
    clock: &mut Vec<u64>,
    races: &mut Vec<usize>,
) -> u64 {
    // Program order: start from the clock of `pid`'s latest event,
    // copied into the recycled clock, whose allocation outlives the
    // replay.
    clock.clear();
    match stack.iter().rev().find(|node| node.pid == pid) {
        Some(node) => clock.extend_from_slice(&node.clock),
        None => clock.resize(n, 0),
    }
    let local = clock[pid] + 1;
    races.clear();
    for (g, node) in stack.iter().enumerate().rev() {
        if clock[node.pid] >= node.local {
            continue; // already happens-before the new event
        }
        if !indep_opt(&node.info, info) {
            races.push(g);
            for (c, &o) in clock.iter_mut().zip(&node.clock) {
                *c = (*c).max(o);
            }
        }
    }
    clock[pid] = local;
    local
}

/// The source-set DPOR walk with sleep sets (see the [module
/// docs](self)), minimizing the first violation it finds.
fn explore_dpor<F, C>(cfg: &ExploreConfig, factory: &F, mut check: C) -> ExploreStats
where
    F: Fn() -> Driver<CoopBackend>,
    C: FnMut(&History) -> Result<(), String>,
{
    let mut stats = ExploreStats::default();
    let mut stack: Vec<DNode> = Vec::new();
    // Popped nodes, refilled by later pushes.
    let mut spare: Vec<DNode> = Vec::new();
    let mut ids = ObjIds::default();
    let mut races: Vec<usize> = Vec::new();
    let mut first: Vec<u64> = Vec::new();
    // `true` when the top node's `taken` was swapped by backtracking and
    // has not executed yet.
    let mut pending = false;

    /// Move to the next unexplored branch: retire the top node's taken
    /// branch into `done`, pick its next backtrack candidate, or pop
    /// (into `spare`). `true` leaves the top node pending re-execution.
    fn next_branch(
        stack: &mut Vec<DNode>,
        spare: &mut Vec<DNode>,
        stats: &mut ExploreStats,
    ) -> bool {
        while let Some(top) = stack.last_mut() {
            top.done.push((top.taken, top.info));
            let next = top.backtrack.iter().copied().find(|c| {
                !top.done.iter().any(|(dc, _)| dc == c) && !top.sleep.iter().any(|e| e.choice == *c)
            });
            if let Some(c) = next {
                top.taken = c;
                top.info = None;
                return true;
            }
            stats.pruned += (top.enabled.len() - top.done.len()) as u64;
            spare.extend(stack.pop());
        }
        false
    }

    'outer: loop {
        metrics().replays.inc();
        let mut d = fresh(factory, &mut stats.replays);
        // The width of every clock: the factory builds the same program
        // each time.
        let n = d.runtime().n();
        let mut walk = Walk::default();
        // Replay the prefix. Metadata and clocks are already on the
        // stack, but this fresh instance's object addresses are not: the
        // objects the prefix touches rebuild the first-touch id map.
        let exec_upto = stack.len() - usize::from(pending);
        ids.clear();
        for node in &stack[..exec_upto] {
            exec(&mut d, node.taken);
            ids.feed(&d, node.taken);
            walk.count(node.taken, &mut stats.steps_replayed);
        }

        if std::mem::take(&mut pending) {
            let (below, top) = stack.split_at_mut(exec_upto);
            let top = &mut top[0];
            let choice = top.taken;
            top.info = apply(&mut d, &mut ids, choice);
            walk.count(choice, &mut stats.steps_replayed);
            top.pid = acting(choice);
            top.local = race_scan(below, n, top.pid, &top.info, &mut top.clock, &mut races);
            for &j in &races {
                add_backtrack(below, j, choice, &top.clock, &mut first);
            }
        }

        loop {
            stats.max_depth = stats.max_depth.max(stack.len());
            if d.active_set().is_empty() || walk.steps >= cfg.max_steps {
                let path = stack.iter().map(|n| n.taken);
                if check_cut(cfg, factory, &mut check, d, path, &mut stats)
                    || !next_branch(&mut stack, &mut spare, &mut stats)
                {
                    break 'outer;
                }
                pending = true;
                continue 'outer;
            }

            // Open a new node: sleep inherited from the parent (done
            // siblings and surviving sleepers stay asleep only while
            // independent with the step just taken), first non-sleeping
            // choice seeded, every crash choice seeded (crash coverage
            // is never reduced).
            let mut node = spare.pop().unwrap_or_default();
            alternatives(&d, cfg, &walk, &mut node.enabled);
            debug_assert!(
                !node.enabled.is_empty(),
                "active set non-empty but no choices"
            );
            node.sleep.clear();
            if let Some(p) = stack.last() {
                let done = p.done.iter().map(|&(choice, info)| SleepEntry {
                    choice,
                    info,
                    obj_known: info.is_some_and(|m| m.obj < p.objs_seen),
                });
                node.sleep.extend(
                    p.sleep
                        .iter()
                        .copied()
                        .chain(done)
                        .filter(|e| survives(e, &p.info)),
                );
            }
            node.done.clear();
            node.backtrack.clear();
            let sleeping = |c: &Choice| node.sleep.iter().any(|e| e.choice == *c);
            if let Some(&c0) = node.enabled.iter().find(|c| !sleeping(c)) {
                node.backtrack.push(c0);
            }
            for &c in &node.enabled {
                if matches!(c, Choice::Crash(_)) && !sleeping(&c) && !node.backtrack.contains(&c) {
                    node.backtrack.push(c);
                }
            }
            if node.backtrack.is_empty() {
                // Sleep-blocked: every continuation reorders an explored
                // execution.
                metrics().sleep_hits.inc();
                stats.pruned += node.enabled.len() as u64;
                spare.push(node);
                if !next_branch(&mut stack, &mut spare, &mut stats) {
                    break 'outer;
                }
                pending = true;
                continue 'outer;
            }
            node.taken = node.backtrack[0];
            node.objs_seen = ids.len();
            node.info = apply(&mut d, &mut ids, node.taken);
            walk.count(node.taken, &mut stats.steps_replayed);
            node.pid = acting(node.taken);
            node.local = race_scan(&stack, n, node.pid, &node.info, &mut node.clock, &mut races);
            for &j in &races {
                add_backtrack(&mut stack, j, node.taken, &node.clock, &mut first);
            }
            stack.push(node);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{OpKind, OpSpec};
    use crate::task::{OpTask, Poll};
    use crate::{ProcCtx, Register, Runtime};
    use std::sync::Arc;

    /// `(s1 + … + sn)! / (s1! · … · sn!)` — interleavings of n sequences
    /// with fixed lengths.
    fn multinomial(counts: &[u64]) -> u128 {
        let mut result: u128 = 1;
        let mut placed: u128 = 0;
        for &c in counts {
            for i in 1..=u128::from(c) {
                placed += 1;
                result = result * placed / i; // binomial prefix: always divides
            }
        }
        result
    }

    /// Read a register then write `read + delta` — two primitives.
    struct Rmw {
        reg: Arc<Register>,
        delta: u64,
        read: Option<u64>,
        primed: bool,
    }

    impl Rmw {
        fn new(reg: Arc<Register>, delta: u64) -> Self {
            Rmw {
                reg,
                delta,
                read: None,
                primed: false,
            }
        }
    }

    impl OpTask for Rmw {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            if !self.primed {
                self.primed = true;
                return Poll::Pending;
            }
            match self.read {
                None => {
                    self.read = Some(self.reg.read(ctx));
                    Poll::Pending
                }
                Some(v) => {
                    self.reg.write(ctx, v + self.delta);
                    Poll::Ready(u128::from(v))
                }
            }
        }
    }

    /// One `read` of a register.
    struct ReadOnce {
        reg: Arc<Register>,
        primed: bool,
    }

    impl OpTask for ReadOnce {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            if !self.primed {
                self.primed = true;
                return Poll::Pending;
            }
            Poll::Ready(u128::from(self.reg.read(ctx)))
        }
    }

    #[test]
    fn exhaustive_count_matches_multinomial() {
        // 2 processes × one 2-primitive op on a shared register.
        let count = |cfg: &ExploreConfig| {
            explore(
                cfg,
                || {
                    let mut d = Driver::coop(Runtime::coop(2));
                    let reg = Arc::new(Register::new(0));
                    for pid in 0..2 {
                        d.submit_task(pid, OpSpec::custom("rmw", 0), Rmw::new(reg.clone(), 1));
                    }
                    d
                },
                |_h| Ok(()),
            )
        };
        let stats = count(&ExploreConfig::exhaustive());
        assert_eq!(u128::from(stats.interleavings), multinomial(&[2, 2]));
        assert_eq!(stats.replays, stats.interleavings, "one program per cut");
        assert_eq!(stats.pruned, 0, "nothing to prune on one shared object");
        assert!(stats.all_ok());
    }

    #[test]
    fn pruning_collapses_independent_steps_without_losing_outcomes() {
        // Each process works a private register: the intermediate reads
        // commute, so DPOR must collapse schedules the raw DFS visits
        // while still checking at least one per outcome.
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(2));
            for pid in 0..2 {
                let reg = Arc::new(Register::new(0));
                d.submit_task(pid, OpSpec::custom("rmw", 0), Rmw::new(reg, 1));
            }
            d
        };
        let full = explore(&ExploreConfig::exhaustive(), factory, |_h| Ok(()));
        assert_eq!(u128::from(full.interleavings), multinomial(&[2, 2]));
        let reduced = explore(&ExploreConfig::default(), factory, |_h| Ok(()));
        assert!(
            reduced.interleavings < full.interleavings,
            "DPOR must skip equivalent schedules"
        );
        assert!(reduced.pruned > 0, "DPOR must report skipped subtrees");
        assert!(reduced.all_ok());
    }

    #[test]
    fn dpor_visits_one_representative_per_trace_class() {
        // 2 processes, private registers: each process contributes a
        // silent read r and an emitting write w. The only dependent
        // cross-process pair is w0/w1 (both emit), so the 6 raw
        // interleavings collapse to 2 Mazurkiewicz classes — one per
        // order of the two completions — and the walk checks one cut per
        // class.
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(2));
            for pid in 0..2 {
                let reg = Arc::new(Register::new(0));
                d.submit_task(pid, OpSpec::custom("rmw", 0), Rmw::new(reg, 1));
            }
            d
        };
        let stats = explore(&ExploreConfig::default(), factory, |_h| Ok(()));
        assert_eq!(stats.interleavings, 2, "one replay per trace class");
        assert!(stats.all_ok());
    }

    #[test]
    fn finds_and_minimizes_a_lost_update() {
        // Mutant counter: both processes increment through one shared
        // register (read, then write read+1) — the single-writer-cell
        // discipline of the collect counter deliberately dropped. A
        // schedule that interleaves the two read-modify-writes loses an
        // increment; a read that runs strictly afterwards then violates
        // the exact counter spec. The explorer must find it.
        // The reader queues *two* reads: the second is announced only
        // when the first completes, so its invocation can land after
        // the increments' responses and real-time precedence applies.
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(3));
            let reg = Arc::new(Register::new(0));
            d.submit_task(0, OpSpec::inc(), Rmw::new(reg.clone(), 1));
            d.submit_task(1, OpSpec::inc(), Rmw::new(reg.clone(), 1));
            for _ in 0..2 {
                d.submit_task(
                    2,
                    OpSpec::read(),
                    ReadOnce {
                        reg: reg.clone(),
                        primed: false,
                    },
                );
            }
            d
        };
        // Exact-counter check, transcribed locally (smr cannot depend on
        // lincheck): a read that every completed increment precedes must
        // return at least the number of those increments.
        let check = |h: &History| -> Result<(), String> {
            for r in h.ops() {
                let OpKind::Read { returned } = r.kind else {
                    continue;
                };
                if r.resp.is_none() {
                    continue;
                }
                let forced: u128 = h
                    .ops()
                    .iter()
                    .filter(|i| matches!(i.kind, OpKind::Inc { .. }) && i.precedes(r))
                    .map(|i| u128::from(i.kind.multiplicity()))
                    .sum();
                if returned < forced {
                    return Err(format!(
                        "read returned {returned}, {forced} incs precede it"
                    ));
                }
            }
            Ok(())
        };

        let stats = explore(&ExploreConfig::default(), factory, check);
        assert_eq!(stats.violations.len(), 1, "the mutant must be caught");
        let v = &stats.violations[0];
        assert!(v.minimized.len() <= v.original.len());
        // The minimal violating schedule completes both increments (2×2
        // steps) and both reads (the first unblocks the second read's
        // announcement, the second returns the stale value): 6 steps.
        assert_eq!(v.minimized.steps(), 6, "minimal: 2 rmw ops + 2 reads");
        assert_eq!(v.minimized.crashes(), 0);
        // The minimized schedule replays to a failing cut.
        assert!(check(&v.minimized.run(factory())).is_err());
        // And converts to a Scripted scheduler (crash-free).
        assert!(v.minimized.to_scripted().is_some());
    }

    #[test]
    fn reduced_and_unreduced_agree_on_the_mutant() {
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(2));
            let reg = Arc::new(Register::new(0));
            d.submit_task(0, OpSpec::inc(), Rmw::new(reg.clone(), 1));
            d.submit_task(1, OpSpec::inc(), Rmw::new(reg.clone(), 1));
            d
        };
        // Quiescent cut: once both increments completed, the register
        // must hold 2 — detected through the returned pre-write values
        // (both reading 0 means one update was lost).
        let check = |h: &History| -> Result<(), String> {
            let done: Vec<_> = h.ops().iter().filter(|r| r.resp.is_some()).collect();
            if done.len() == 2 && done.iter().all(|r| r.returned() == 0) {
                return Err("both increments read 0: lost update".into());
            }
            Ok(())
        };
        for prune in [false, true] {
            let cfg = ExploreConfig {
                prune,
                ..ExploreConfig::default()
            };
            let stats = explore(&cfg, factory, check);
            assert!(
                !stats.violations.is_empty(),
                "prune={prune}: violation missed"
            );
        }
    }

    #[test]
    fn crash_injection_surfaces_pending_records_once() {
        // One process, one 2-primitive op, up to one crash: the cuts are
        // the crash-free run plus a crash at each prefix. Pending
        // records must appear exactly once per crashed in-flight op.
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(1));
            let reg = Arc::new(Register::new(0));
            d.submit_task(0, OpSpec::inc(), Rmw::new(reg, 1));
            d
        };
        let cfg = ExploreConfig {
            max_crashes: 1,
            prune: false,
            ..ExploreConfig::default()
        };
        let mut cuts = 0;
        let stats = explore(&cfg, factory, |h| {
            cuts += 1;
            let pending = h.ops().iter().filter(|r| r.resp.is_none()).count();
            let completed = h.ops().iter().filter(|r| r.resp.is_some()).count();
            if pending + completed != 1 {
                return Err(format!(
                    "expected exactly one record for the single op, got {pending} pending + \
                     {completed} completed"
                ));
            }
            Ok(())
        });
        // Schedules: ss (complete), c (crash at start), sc (crash after
        // one step), ssc is impossible (op already done → pid inactive).
        assert_eq!(stats.interleavings, 3);
        assert_eq!(cuts, 3);
        assert!(stats.all_ok());
    }

    #[test]
    fn dpor_keeps_crash_coverage_exhaustive() {
        // Same single-process crash program as above, DPOR enabled: the
        // reduction must not drop any crash cut (crash decisions are
        // seeded at every node, never slept).
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(1));
            let reg = Arc::new(Register::new(0));
            d.submit_task(0, OpSpec::inc(), Rmw::new(reg, 1));
            d
        };
        let cfg = ExploreConfig {
            max_crashes: 1,
            ..ExploreConfig::default()
        };
        let stats = explore(&cfg, factory, |h| {
            let records = h.ops().len();
            if records != 1 {
                return Err(format!("expected one record, got {records}"));
            }
            Ok(())
        });
        assert_eq!(stats.interleavings, 3, "ss, c, sc — exactly as raw DFS");
        assert!(stats.all_ok());
    }

    #[test]
    fn step_bound_checks_prefix_cuts() {
        let factory = || {
            let mut d = Driver::coop(Runtime::coop(1));
            let reg = Arc::new(Register::new(0));
            d.submit_task(0, OpSpec::inc(), Rmw::new(reg, 1));
            d
        };
        let cfg = ExploreConfig {
            max_steps: 1,
            prune: false,
            ..ExploreConfig::default()
        };
        let mut pendings = 0;
        let stats = explore(&cfg, factory, |h| {
            pendings += h.ops().iter().filter(|r| r.resp.is_none()).count();
            Ok(())
        });
        assert_eq!(stats.interleavings, 1, "one prefix of length 1");
        assert_eq!(pendings, 1, "the suspended op surfaces as pending");
    }

    #[test]
    fn multinomial_helper() {
        assert_eq!(multinomial(&[2, 2]), 6);
        assert_eq!(multinomial(&[1, 1, 1]), 6);
        assert_eq!(multinomial(&[4, 4, 4]), 34650);
        assert_eq!(multinomial(&[0, 3]), 1);
    }
}
