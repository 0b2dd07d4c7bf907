//! The crate's linearizability engine: the greedy monotone sweep for the
//! counter and max-register specifications (derived in
//! [`crate::monotone`]), as a push-driven state machine that consumes
//! [`OpRecord`]s one at a time and keeps retained state proportional to
//! the number of *concurrently open* operations, not to the length of
//! the history.
//!
//! It runs in two ways. Inline, [`LinearizabilityPass`] pushes a live
//! run's records as they happen. Post hoc, the entry points in
//! [`crate::monotone`] and [`crate::records`] sort a finished history
//! into the same stream and push it through (`check_sorted`; see
//! *The sorted feed* below).
//!
//! [`LinearizabilityPass`]: crate::LinearizabilityPass
//!
//! # The sweep as a stream
//!
//! Every operation splits into an **announcement** (at `inv`, before
//! any same-timestamp completion) and a **completion** (at `resp`). A
//! counter read's window needs three quantities, and each is a prefix
//! quantity of that stream:
//!
//! * `A` (completed-before weight) is the running sum of completed
//!   increment amounts, *captured when the read is announced*;
//! * `B` (possibly-before weight) is the running sum of announced
//!   increment amounts, read when the read completes;
//! * the cross-read bound is the maximum of the monotone stack of
//!   earlier read assignments, also captured at announcement.
//!
//! The per-operation capture lives in a slot of the open table while
//! the operation is open and dies with its completion (or crash). A read
//! is judged at its response, where `B` is finally known; reads are
//! numbered in completion order in violation messages.
//!
//! # Watermark retirement: why retained state stays bounded
//!
//! The one structure that could still grow with history length is the
//! monotone stack. Its future behavior, however, depends only on the
//! term of the last live entry below each *future* `raise_before`
//! boundary — and those boundaries are exactly the invocation
//! timestamps of the increments currently in flight (a not-yet-seen
//! increment invokes in the future, above every stack key). The
//! checker keeps those invocations in announcement order, which the
//! push contract makes nondecreasing, so the list is sorted without
//! ever being sorted; a finished increment leaves a tombstone that a
//! later compaction sweeps out. The checker periodically folds every
//! adjacent pair of stack entries whose gap contains no live boundary
//! (`MonotoneStack::fold_and_compact`, walking the boundaries with a
//! single cursor); after a fold the live stack has at most
//! `open increments + 1` entries. Folding is triggered when the live
//! count has doubled since the last fold, so its `O(live)` cost
//! amortizes to `O(1)` per record. The max-register engine's analogue
//! prunes its witness set below
//! `min(max(completed write, finalized read), min open-read base)` —
//! values at or below that floor can never again be selected.
//!
//! # Input contract
//!
//! Records must be pushed in nondecreasing timestamp order, with an
//! operation's announcement (`resp: None`) arriving before any
//! same-timestamp completion. Driver-emitted streams satisfy this by
//! construction (tickets are globally unique and drawn in order). A
//! completed record with no prior announcement is accepted as an
//! atomic announce-then-complete, which is only valid while no other
//! operation overlaps it — overlapping operations must be streamed as
//! separate announcement and completion records. Violating the order
//! contract is *detected*, not undefined: the checker returns a
//! violation, which is what lets tests feed it deliberately reordered
//! streams and watch it object.
//!
//! Open operations live in a table indexed by pid, which grows to the
//! largest pid seen. [`OnlineChecker::push`] and the
//! [`check_*_records`](crate::records) feeds pass real pids (a driver's
//! dense `0..n`), so an operation announced while its process still has
//! one open is caught. The typed feeds of [`crate::monotone`] carry no
//! pids: each of their operations takes a slot that a completed or
//! crashed operation freed, so the table never holds more slots than
//! the history has operations open at once.
//!
//! # The sorted feed
//!
//! A post-hoc check orders a finished history's events by
//! `(timestamp, phase, operation index)`, announcements (phase 0)
//! before same-timestamp completions (phase 1). Two sorts produce that
//! one order. A runtime draws a ticket only at each invocation and each
//! response, so a driver history's tickets are distinct and dense: its
//! `2n` events use about `2n` consecutive tickets. A history of at
//! least 256 operations (`COUNTING_SORT_MIN_OPS`) whose events fall
//! within 4 tickets per operation (`COUNTING_SORT_MAX_SPAN_PER_OP`) is
//! ordered by one counting sort keyed by `2·(ticket − min) + phase`,
//! whose buckets fill in operation-index order: `O(n + span)` time.
//! Every other input (explorer cuts of a few events, hand-built
//! histories with wide spans) keeps one `sort_unstable` over
//! `(timestamp, tag)` keys: `O(n log n)`. Beside the history it reads,
//! the feed holds the event order and, for a typed history, each
//! operation's slot: `O(n)` memory, with the checker's own state still
//! bounded by the concurrency.

use crate::history::{UnsupportedOp, Violation};
use crate::sweep::MonotoneStack;
use smr::{OpKind, OpRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Shared metric handles, resolved once per process. Pushes and folds
/// are the checker's two cost centers (per-record work and the
/// amortized compaction that keeps retained state bounded); the
/// retained gauge is the high-water mark of
/// [`OnlineChecker::peak_retained`] across every checker, fed record by
/// record or post hoc, so a snapshot shows how far the streaming bound
/// was stressed without holding on to any checker.
struct CheckerMetrics {
    pushes: &'static obs::Counter,
    folds: &'static obs::Counter,
    retained_peak: &'static obs::Gauge,
}

fn metrics() -> &'static CheckerMetrics {
    static METRICS: OnceLock<CheckerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CheckerMetrics {
        pushes: obs::counter(obs::names::SUB_LINCHECK, obs::names::LINCHECK_PUSHES),
        folds: obs::counter(obs::names::SUB_LINCHECK, obs::names::LINCHECK_FOLDS),
        retained_peak: obs::gauge(obs::names::SUB_LINCHECK, obs::names::LINCHECK_RETAINED),
    })
}

/// Add `n` pushes made through [`OnlineChecker::push_uncounted`] to
/// `lincheck.pushes`.
pub(crate) fn count_pushes(n: u64) {
    metrics().pushes.add(n);
}

/// Raise the retained gauge to a checker's `peak` if the gauge is below
/// it. Several checkers leave the gauge at the largest of their peaks,
/// not at their sum.
fn raise_retained_gauge(peak: usize) {
    let gauge = metrics().retained_peak;
    let peak = i64::try_from(peak).unwrap_or(i64::MAX);
    let now = gauge.get();
    if peak > now {
        gauge.add(peak - now);
    }
}

/// A relaxed counter read specification, mirroring the two closed-form
/// windows of [`crate::monotone::check_counter`] and
/// [`crate::monotone::check_counter_additive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterSpec {
    /// `k`-multiplicative accuracy: a read of `x` admits exact counts
    /// in `[⌈x/k⌉, x·k]` (saturating at the top).
    Multiplicative(u64),
    /// `k`-additive accuracy: a read of `x` admits exact counts in
    /// `[x − k, x + k]` (saturating at both ends).
    Additive(u64),
}

impl CounterSpec {
    /// The inclusive window of exact counts admitting a read of `x`.
    pub fn window(self, x: u128) -> (u128, u128) {
        match self {
            CounterSpec::Multiplicative(k) => {
                let kk = u128::from(k);
                (x.div_ceil(kk), x.saturating_mul(kk))
            }
            CounterSpec::Additive(k) => {
                let kk = u128::from(k);
                (x.saturating_sub(kk), x.saturating_add(kk))
            }
        }
    }
}

/// Open operations, indexed by pid (or, for a typed feed, by a recycled
/// slot; see the module docs).
struct OpenOps<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> OpenOps<T> {
    fn new() -> Self {
        OpenOps {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn contains(&self, pid: usize) -> bool {
        matches!(self.slots.get(pid), Some(Some(_)))
    }

    /// Open `op` for `pid`, which must have no open operation.
    fn open(&mut self, pid: usize, op: T) {
        if pid >= self.slots.len() {
            self.slots.resize_with(pid + 1, || None);
        }
        debug_assert!(self.slots[pid].is_none());
        self.slots[pid] = Some(op);
        self.len += 1;
    }

    fn close(&mut self, pid: usize) -> Option<T> {
        let op = self.slots.get_mut(pid)?.take();
        self.len -= usize::from(op.is_some());
        op
    }
}

/// What a process's open operation captured at announcement time.
enum OpenCounterOp {
    Read {
        inv: u64,
        /// `A`: completed-increment weight at the read's invocation.
        a: u128,
        /// Stack maximum at the read's invocation (0 while empty).
        m: u128,
    },
    Inc {
        inv: u64,
        amount: u64,
        /// Index of this increment's entry in `CounterState::in_flight`.
        entry: usize,
    },
}

/// Marks a finished increment's entry in `CounterState::in_flight`.
const TOMBSTONE: usize = usize::MAX;

struct CounterState {
    spec: CounterSpec,
    /// Running weight of *completed* increments (`A` source).
    completed: u128,
    /// Running weight of *announced* increments (`B` source).
    announced: u128,
    stack: MonotoneStack,
    open: OpenOps<OpenCounterOp>,
    /// `(inv, pid)` of every increment announced since the last
    /// compaction, in announcement (hence nondecreasing `inv`) order;
    /// `pid` is [`TOMBSTONE`] once the increment completed or crashed.
    /// The live entries are the only possible future `raise_before`
    /// boundaries at or below current stack keys.
    in_flight: Vec<(u64, usize)>,
    /// Live (non-tombstone) entries of `in_flight`.
    in_flight_live: usize,
    /// Live stack size right after the last fold; the next fold fires
    /// when the live count has (roughly) doubled past it.
    fold_floor: usize,
}

enum OpenMaxRegOp {
    Read {
        inv: u64,
        /// Forced maximum at the read's invocation.
        base: u128,
    },
    Write,
}

struct MaxRegState {
    k: u128,
    /// Largest completed write value.
    cwm: u128,
    /// Largest finalized (linearized) read maximum.
    frm: u128,
    /// Effective values of announced writes, distinct. A `BTreeSet`
    /// suffices: reads only ever take the *minimum* admissible witness
    /// in a value range, so multiplicity is irrelevant.
    witnesses: BTreeSet<u128>,
    open: OpenOps<OpenMaxRegOp>,
    /// Multiset of open-read bases, for the witness retirement floor.
    bases: BTreeMap<u128, u32>,
}

enum Inner {
    Counter(CounterState),
    MaxReg(MaxRegState),
}

/// Incremental linearizability checker for the counter and
/// max-register vocabularies. See the [module docs](self) for the
/// algorithm and the input contract.
pub struct OnlineChecker {
    inner: Inner,
    /// Last processed `(timestamp, phase)`; phase 0 = announcements,
    /// phase 1 = completions. Pushes must not regress below it.
    frontier: (u64, u8),
    /// First violation, sticky: every later call re-returns it.
    failed: Option<Violation>,
    /// Completed reads checked so far (for violation numbering).
    reads_checked: usize,
    peak: usize,
}

impl OnlineChecker {
    /// Checker for the `k`-multiplicative-accurate counter.
    pub fn counter(k: u64) -> Self {
        assert!(k >= 1);
        Self::counter_with(CounterSpec::Multiplicative(k))
    }

    /// Checker for the `k`-additive-accurate counter.
    pub fn counter_additive(k: u64) -> Self {
        Self::counter_with(CounterSpec::Additive(k))
    }

    /// Checker for an arbitrary [`CounterSpec`].
    pub fn counter_with(spec: CounterSpec) -> Self {
        // Sized so that checking an explorer cut (a handful of records)
        // allocates each buffer once instead of regrowing it.
        const SMALL: usize = 16;
        OnlineChecker::new(Inner::Counter(CounterState {
            spec,
            completed: 0,
            announced: 0,
            stack: MonotoneStack::with_capacity(SMALL),
            open: OpenOps::new(),
            in_flight: Vec::with_capacity(SMALL),
            in_flight_live: 0,
            fold_floor: 0,
        }))
    }

    /// Checker for the `k`-multiplicative-accurate max register.
    pub fn maxreg(k: u64) -> Self {
        assert!(k >= 1);
        OnlineChecker::new(Inner::MaxReg(MaxRegState {
            k: u128::from(k),
            cwm: 0,
            frm: 0,
            witnesses: BTreeSet::new(),
            open: OpenOps::new(),
            bases: BTreeMap::new(),
        }))
    }

    fn new(inner: Inner) -> Self {
        OnlineChecker {
            inner,
            frontier: (0, 0),
            failed: None,
            reads_checked: 0,
            peak: 0,
        }
    }

    /// Currently retained entries: open operations plus live stack
    /// entries (counter) or retained witnesses (max register). This is
    /// the quantity the streaming design bounds by the maximum number
    /// of concurrently open operations.
    pub fn retained(&self) -> usize {
        match &self.inner {
            Inner::Counter(c) => c.open.len + c.stack.live_len(),
            Inner::MaxReg(m) => m.open.len + m.witnesses.len(),
        }
    }

    /// High-water mark of [`retained`](Self::retained) over the run.
    pub fn peak_retained(&self) -> usize {
        self.peak
    }

    /// Feed one record. `resp: None` announces an operation (captures
    /// its invocation-time state); `resp: Some` completes the
    /// operation announced earlier for the same pid, or — if none is
    /// open — performs an atomic announce-then-complete (valid only
    /// for non-overlapping operations; see the module docs).
    ///
    /// The first violation is sticky: once `Err` is returned, every
    /// subsequent call returns the same violation.
    pub fn push(&mut self, rec: &OpRecord) -> Result<(), Violation> {
        metrics().pushes.inc();
        self.push_uncounted(rec)
    }

    /// [`push`](Self::push), leaving the count to the caller, which adds
    /// its pushes with [`count_pushes`] in one batch.
    pub(crate) fn push_uncounted(&mut self, rec: &OpRecord) -> Result<(), Violation> {
        if let Some(v) = &self.failed {
            return Err(v.clone());
        }
        let result = match rec.resp {
            None => self.announce(rec.pid, rec.kind, rec.inv),
            Some(resp) if self.has_open(rec.pid) => self.complete(rec.pid, rec.kind, resp),
            Some(resp) => self
                .announce(rec.pid, rec.kind, rec.inv)
                .and_then(|()| self.complete(rec.pid, rec.kind, resp)),
        };
        if let Err(v) = &result {
            self.failed = Some(v.clone());
        }
        let retained = self.retained();
        if retained > self.peak {
            // The gauge carries the peak, not the instantaneous value:
            // the instantaneous value swings every record, while the
            // peak is the quantity the streaming bound is about.
            self.peak = retained;
            raise_retained_gauge(retained);
        }
        result
    }

    /// Check a finished history of `n` operations in one pass: the
    /// sorted feed behind every post-hoc entry point. `op(i)` describes
    /// operation `i` as `(pid, kind, inv, resp)`, where `pid` is `None`
    /// for an operation with no process identity (a typed history's):
    /// it takes a recycled slot of the open table instead. A feed gives
    /// every operation a pid or none, since a recycled slot could
    /// collide with a real pid.
    ///
    /// Each operation is announced at `inv` and, if it completed,
    /// completes at `resp`. A pending operation (`resp: None`) is
    /// announced and then [crashed](Self::crash): its effect stays
    /// optional and it never completes. The events are pushed in
    /// [`push_order`], so the push-order contract holds by construction.
    /// The checker's [peak](Self::peak_retained) is taken after each
    /// event, and raises the retained gauge once, at the end.
    ///
    /// # Panics
    /// If a completed operation has `inv ≥ resp` — a malformed window
    /// ([`Interval::done`](crate::Interval::done) enforces the same
    /// invariant, and driver records satisfy it by construction).
    pub(crate) fn check_sorted<F>(&mut self, n: usize, op: F) -> Result<(), Violation>
    where
        F: Fn(usize) -> (Option<usize>, OpKind, u64, Option<u64>),
    {
        let mut slots = Recycler::default();
        let mut pushed = 0;
        let mut result = Ok(());
        for tag in push_order(n, &op) {
            let i = (tag & !COMPLETION) as usize;
            let (pid, kind, inv, resp) = op(i);
            pushed += 1;
            result = if tag & COMPLETION != 0 {
                let resp = resp.expect("only completed operations have a completion");
                let slot = pid.unwrap_or_else(|| slots.release(i));
                self.complete(slot, kind, resp)
            } else {
                let slot = pid.unwrap_or_else(|| slots.take(n, i));
                let announced = self.announce(slot, kind, inv);
                if resp.is_none() {
                    self.crash(slot);
                    if pid.is_none() {
                        slots.release(i);
                    }
                }
                announced
            };
            self.peak = self.peak.max(self.retained());
            if result.is_err() {
                break;
            }
        }
        metrics().pushes.add(pushed);
        raise_retained_gauge(self.peak);
        result
    }

    /// The process crashed: its open operation (if any) never
    /// completes. A crashed read imposes no constraint and is dropped;
    /// a crashed increment keeps its announced weight (it may have
    /// taken effect) but will never force a raise, so its invocation
    /// stops being a fold boundary; a crashed write keeps its witness
    /// (it may have taken effect).
    pub fn crash(&mut self, pid: usize) {
        match &mut self.inner {
            Inner::Counter(c) => match c.open.close(pid) {
                Some(OpenCounterOp::Inc { entry, .. }) => c.retire_in_flight(entry),
                Some(OpenCounterOp::Read { .. }) | None => {}
            },
            Inner::MaxReg(m) => match m.open.close(pid) {
                Some(OpenMaxRegOp::Read { base, .. }) => {
                    remove_base(&mut m.bases, base);
                    m.prune_witnesses();
                }
                Some(OpenMaxRegOp::Write) | None => {}
            },
        }
    }

    /// Finish the stream. Operations still open are pending records:
    /// they impose no further constraints, so this only re-reports a
    /// sticky violation, if any.
    pub fn finish(&mut self) -> Result<(), Violation> {
        match &self.failed {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    /// Slots the open table has grown to.
    #[cfg(test)]
    pub(crate) fn open_slots(&self) -> usize {
        match &self.inner {
            Inner::Counter(c) => c.open.slots.len(),
            Inner::MaxReg(m) => m.open.slots.len(),
        }
    }

    fn has_open(&self, pid: usize) -> bool {
        match &self.inner {
            Inner::Counter(c) => c.open.contains(pid),
            Inner::MaxReg(m) => m.open.contains(pid),
        }
    }

    /// Enforce the push-order contract: `key` must not regress below
    /// the frontier.
    fn advance(&mut self, key: (u64, u8), what: &str) -> Result<(), Violation> {
        if key < self.frontier {
            return Err(Violation {
                message: format!(
                    "online checker fed out of order: {what} at timestamp {} \
                     after the stream already advanced past timestamp {} \
                     (announcements must precede same-timestamp completions, \
                     and timestamps must not decrease)",
                    key.0, self.frontier.0
                ),
            });
        }
        self.frontier = key;
        Ok(())
    }

    fn announce(&mut self, pid: usize, kind: OpKind, inv: u64) -> Result<(), Violation> {
        self.advance((inv, 0), "announcement")?;
        if self.has_open(pid) {
            return Err(overlap_violation(pid, inv));
        }
        match &mut self.inner {
            Inner::Counter(c) => {
                let op = match kind {
                    OpKind::Inc { amount } => {
                        c.announced += u128::from(amount);
                        c.in_flight.push((inv, pid));
                        c.in_flight_live += 1;
                        OpenCounterOp::Inc {
                            inv,
                            amount,
                            entry: c.in_flight.len() - 1,
                        }
                    }
                    OpKind::Read { .. } => OpenCounterOp::Read {
                        inv,
                        a: c.completed,
                        m: c.stack.max().unwrap_or(0),
                    },
                    other => return Err(vocabulary_violation(pid, other, "counter")),
                };
                c.open.open(pid, op);
            }
            Inner::MaxReg(m) => {
                let op = match kind {
                    OpKind::Write { value } => {
                        let ev = u128::from(value).max(m.cwm).max(m.frm);
                        m.witnesses.insert(ev);
                        OpenMaxRegOp::Write
                    }
                    OpKind::Read { .. } => {
                        let base = m.cwm.max(m.frm);
                        *m.bases.entry(base).or_insert(0) += 1;
                        OpenMaxRegOp::Read { inv, base }
                    }
                    other => return Err(vocabulary_violation(pid, other, "max-register")),
                };
                m.open.open(pid, op);
            }
        }
        Ok(())
    }

    fn complete(&mut self, pid: usize, kind: OpKind, resp: u64) -> Result<(), Violation> {
        self.advance((resp, 1), "completion")?;
        match &mut self.inner {
            Inner::Counter(c) => match (c.open.close(pid), kind) {
                (Some(OpenCounterOp::Inc { inv, amount, entry }), _) => {
                    c.completed += u128::from(amount);
                    c.retire_in_flight(entry);
                    c.stack.raise_before(inv, u128::from(amount));
                    c.maybe_fold(resp);
                }
                (Some(OpenCounterOp::Read { inv, a, m }), OpKind::Read { returned }) => {
                    let b = c.announced;
                    let (spec_lo, spec_hi) = c.spec.window(returned);
                    let lo = spec_lo.max(a).max(m);
                    let hi = spec_hi.min(b);
                    let j = self.reads_checked;
                    if lo > hi {
                        return Err(Violation {
                            message: format!(
                                "read #{j} (window [{inv}, {resp}]) returned {returned} \
                                 but the exact count is confined to an empty window: \
                                 need ≥ {lo}, ≤ {hi} (forced-before A = {a}, \
                                 possible-before B = {b})"
                            ),
                        });
                    }
                    self.reads_checked += 1;
                    c.stack.insert(resp, lo);
                    c.maybe_fold(resp);
                }
                (Some(OpenCounterOp::Read { .. }), other) => {
                    return Err(vocabulary_violation(pid, other, "counter"));
                }
                (None, _) => unreachable!("announce precedes every completion"),
            },
            Inner::MaxReg(m) => match (m.open.close(pid), kind) {
                (Some(OpenMaxRegOp::Write), _) => {
                    if let OpKind::Write { value } = kind {
                        m.cwm = m.cwm.max(u128::from(value));
                    }
                    m.prune_witnesses();
                }
                (Some(OpenMaxRegOp::Read { inv, base }), OpKind::Read { returned }) => {
                    remove_base(&mut m.bases, base);
                    let k = m.k;
                    let spec_lo = returned.div_ceil(k).min(returned);
                    let spec_hi = returned.saturating_mul(k);
                    let chosen = if base >= spec_lo {
                        (base <= spec_hi).then_some(base)
                    } else {
                        m.witnesses.range(spec_lo..=spec_hi).next().copied()
                    };
                    let i = self.reads_checked;
                    match chosen {
                        Some(v) => {
                            self.reads_checked += 1;
                            m.frm = m.frm.max(v);
                            m.prune_witnesses();
                        }
                        None => {
                            return Err(Violation {
                                message: format!(
                                    "read #{i} (window [{inv}, {resp}]) returned \
                                     {returned} but no admissible maximum exists: \
                                     forced maximum {base}, admissible value window \
                                     [{spec_lo}, {spec_hi}], and no write invoked at \
                                     or before the response timestamp {resp} has an \
                                     effective value in that window (k = {k})"
                                ),
                            });
                        }
                    }
                }
                (Some(OpenMaxRegOp::Read { .. }), other) => {
                    return Err(vocabulary_violation(pid, other, "max-register"));
                }
                (None, _) => unreachable!("announce precedes every completion"),
            },
        }
        Ok(())
    }
}

impl CounterState {
    /// Tombstone a finished increment's `in_flight` entry; compact once
    /// tombstones outnumber live entries, so the list stays within a
    /// constant factor of the increments in flight.
    fn retire_in_flight(&mut self, entry: usize) {
        self.in_flight[entry].1 = TOMBSTONE;
        self.in_flight_live -= 1;
        if self.in_flight.len() < 2 * self.in_flight_live + 32 {
            return;
        }
        let mut kept = 0;
        for i in 0..self.in_flight.len() {
            let (inv, pid) = self.in_flight[i];
            if pid == TOMBSTONE {
                continue;
            }
            if let Some(Some(OpenCounterOp::Inc { entry, .. })) = self.open.slots.get_mut(pid) {
                *entry = kept;
            }
            self.in_flight[kept] = (inv, pid);
            kept += 1;
        }
        self.in_flight.truncate(kept);
    }

    /// Fold + compact when the live stack has doubled since the last
    /// fold. A gap `(lo, hi]` is protected while an in-flight
    /// increment's invocation lies in it — or while `hi` is still at
    /// the stream frontier, where a not-yet-announced increment could
    /// tie with it (impossible with globally unique tickets, possible
    /// in synthetic histories).
    fn maybe_fold(&mut self, now: u64) {
        if self.stack.live_len() < 2 * self.fold_floor + 16 {
            return;
        }
        metrics().folds.inc();
        // The fold asks about consecutive gaps left to right, so one
        // cursor walks the sorted invocations: everything at or below
        // a gap's `lo`, and every tombstone, is behind all later gaps.
        let in_flight = &self.in_flight;
        let mut cursor = 0;
        self.stack.fold_and_compact(|lo, hi| {
            while cursor < in_flight.len()
                && (in_flight[cursor].0 <= lo || in_flight[cursor].1 == TOMBSTONE)
            {
                cursor += 1;
            }
            hi >= now || in_flight.get(cursor).is_some_and(|&(inv, _)| inv <= hi)
        });
        self.fold_floor = self.stack.live_len();
    }
}

impl MaxRegState {
    /// Drop witnesses that can never again be selected: a future read
    /// takes the witness branch only when its base — at least
    /// `max(cwm, frm)` by monotonicity — is *below* its window, so it
    /// needs a witness strictly above that base; an open read likewise
    /// needs one strictly above its captured base.
    fn prune_witnesses(&mut self) {
        let mut floor = self.cwm.max(self.frm);
        if let Some((&b, _)) = self.bases.iter().next() {
            floor = floor.min(b);
        }
        while let Some(&w) = self.witnesses.range(..=floor).next_back() {
            self.witnesses.remove(&w);
        }
    }
}

/// Open-table slots for the operations of a feed that carries no pids.
/// An operation takes a slot when it is announced and frees it when it
/// completes or crashes, so the table grows only to the largest number
/// of operations open at once.
#[derive(Default)]
struct Recycler {
    /// The slot each open operation holds, by operation index.
    slot_of: Vec<u32>,
    /// Slots freed by finished operations, reused last-freed first.
    free: Vec<u32>,
    /// Slots handed out so far: the open table's size.
    used: u32,
}

impl Recycler {
    /// A slot for operation `i` of `n`.
    fn take(&mut self, n: usize, i: usize) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.used = self
                .used
                .checked_add(1)
                .expect("under 2³² operations open at once");
            self.used - 1
        });
        if self.slot_of.is_empty() {
            self.slot_of = vec![0; n];
        }
        self.slot_of[i] = slot;
        slot as usize
    }

    /// Free operation `i`'s slot and return it.
    fn release(&mut self, i: usize) -> usize {
        let slot = self.slot_of[i];
        self.free.push(slot);
        slot as usize
    }
}

/// Tags a completion in [`push_order`]; the low bits are the
/// operation index.
const COMPLETION: u64 = 1 << 63;

/// Operation count from which [`push_order`] may take the counting
/// sort. On dense histories the whole check is faster with the counting
/// sort from about 48 operations up; this is several times that, so
/// explorer cuts and other small inputs keep `sort_unstable` and timing
/// noise near the crossover cannot send them to the slower path.
const COUNTING_SORT_MIN_OPS: usize = 256;

/// The widest ticket span, in tickets per operation, that
/// [`push_order`] orders with the counting sort. A driver history spans
/// about 2. At 4, the sort's buckets (two `u32`s per ticket, 32 bytes
/// per operation) are no larger than the comparison sort's keys (two
/// 16-byte keys per operation), so the faster sort never costs memory.
const COUNTING_SORT_MAX_SPAN_PER_OP: u64 = 4;

/// The events of the `n` operations `op` describes, as tags in push
/// order: each operation's announcement at `inv` (tagged with its
/// index) and, if it completed, its completion at `resp` (the index
/// plus [`COMPLETION`]). The order is `(timestamp, phase, index)`, with
/// announcements (phase 0) before same-timestamp completions; see the
/// [module docs](self) for the choice between the two sorts that
/// produce it.
///
/// # Panics
/// If a completed operation has `inv ≥ resp`.
fn push_order<F>(n: usize, op: &F) -> Vec<u64>
where
    F: Fn(usize) -> (Option<usize>, OpKind, u64, Option<u64>),
{
    // The bucket positions are `u32`s: half the memory of `usize`, and
    // no real history has 2³² events.
    if n >= COUNTING_SORT_MIN_OPS && u32::try_from(2 * n).is_ok() {
        let (lo, span) = ticket_range(n, op);
        if span < COUNTING_SORT_MAX_SPAN_PER_OP * n as u64 {
            return counting_order(n, op, lo, span);
        }
    }
    comparison_order(n, op)
}

/// The smallest ticket the events of the `n` operations `op` describes
/// use, and the largest ticket minus it; `n` must be positive.
///
/// # Panics
/// If a completed operation has `inv ≥ resp`.
fn ticket_range<F>(n: usize, op: &F) -> (u64, u64)
where
    F: Fn(usize) -> (Option<usize>, OpKind, u64, Option<u64>),
{
    let (mut lo, mut hi) = (u64::MAX, 0);
    for i in 0..n {
        let (_, _, inv, resp) = op(i);
        lo = lo.min(inv);
        hi = hi.max(inv);
        if let Some(resp) = resp {
            assert!(inv < resp, "operation window must satisfy inv < resp");
            hi = hi.max(resp);
        }
    }
    (lo, hi - lo)
}

/// [`push_order`] by one `sort_unstable` over `(timestamp, tag)` keys:
/// the completion flag is the tag's top bit, so announcements sort
/// before same-timestamp completions.
fn comparison_order<F>(n: usize, op: &F) -> Vec<u64>
where
    F: Fn(usize) -> (Option<usize>, OpKind, u64, Option<u64>),
{
    let mut keys = Vec::with_capacity(2 * n);
    for i in 0..n {
        let (_, _, inv, resp) = op(i);
        keys.push((inv, i as u64));
        if let Some(resp) = resp {
            assert!(inv < resp, "operation window must satisfy inv < resp");
            keys.push((resp, i as u64 | COMPLETION));
        }
    }
    keys.sort_unstable();
    keys.into_iter().map(|(_, tag)| tag).collect()
}

/// [`push_order`] by one counting sort over the tickets `lo ..= lo +
/// span`: an event's bucket is `2·(ticket − lo) + phase`, and each
/// bucket fills in operation-index order, so the order is exactly
/// [`comparison_order`]'s.
fn counting_order<F>(n: usize, op: &F, lo: u64, span: u64) -> Vec<u64>
where
    F: Fn(usize) -> (Option<usize>, OpKind, u64, Option<u64>),
{
    let bucket = |t: u64, phase: usize| 2 * (t - lo) as usize + phase;
    // `next[b + 1]` counts bucket `b`'s events; the prefix sum then
    // turns `next[b]` into the position of bucket `b`'s first event.
    let mut next = vec![0u32; 2 * (span as usize + 1) + 1];
    for i in 0..n {
        let (_, _, inv, resp) = op(i);
        next[bucket(inv, 0) + 1] += 1;
        if let Some(resp) = resp {
            next[bucket(resp, 1) + 1] += 1;
        }
    }
    let mut events = 0;
    for count in &mut next {
        events += *count;
        *count = events;
    }
    let mut order = vec![0u64; events as usize];
    let mut place = |b: usize, tag: u64| {
        order[next[b] as usize] = tag;
        next[b] += 1;
    };
    for i in 0..n {
        let (_, _, inv, resp) = op(i);
        place(bucket(inv, 0), i as u64);
        if let Some(resp) = resp {
            place(bucket(resp, 1), i as u64 | COMPLETION);
        }
    }
    order
}

fn remove_base(bases: &mut BTreeMap<u128, u32>, base: u128) {
    if let Some(n) = bases.get_mut(&base) {
        *n -= 1;
        if *n == 0 {
            bases.remove(&base);
        }
    }
}

fn vocabulary_violation(pid: usize, kind: OpKind, expected: &'static str) -> Violation {
    Violation {
        message: UnsupportedOp {
            pid,
            label: kind.label(),
            expected,
        }
        .to_string(),
    }
}

pub(crate) fn overlap_violation(pid: usize, inv: u64) -> Violation {
    Violation {
        message: format!(
            "process {pid} announced an operation (timestamp {inv}) while \
             its previous operation is still open: per-process operation \
             windows must be disjoint"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::{CounterHistory, Interval, MaxRegHistory, TimedInc, TimedRead, TimedWrite};

    /// Push every operation of `ops` as `(kind, inv, resp)` — operation
    /// `i` on pid `i` — in stream order, the way a live run would.
    fn stream(checker: &mut OnlineChecker, ops: &[(OpKind, u64, u64)]) -> Result<(), Violation> {
        let mut events: Vec<(u64, u8, OpRecord)> = Vec::new();
        for (pid, &(kind, inv, resp)) in ops.iter().enumerate() {
            events.push((inv, 0, announce_rec(pid, kind, inv)));
            events.push((resp, 1, complete_rec(pid, kind, inv, resp)));
        }
        events.sort_by_key(|&(t, phase, _)| (t, phase));
        for (_, _, rec) in &events {
            checker.push(rec)?;
        }
        checker.finish()
    }

    fn counter_ops(h: &CounterHistory) -> Vec<(OpKind, u64, u64)> {
        let reads = h.reads.iter().map(|r| {
            let kind = OpKind::Read { returned: r.value };
            (kind, r.inv, r.resp)
        });
        let incs = h.incs.iter().map(|i| {
            let kind = OpKind::Inc { amount: i.amount };
            (kind, i.window.inv, i.window.resp.expect("completed"))
        });
        reads.chain(incs).collect()
    }

    #[test]
    fn counter_matches_offline_on_simple_histories() {
        let inc = |inv, resp| TimedInc::unit(Interval::done(inv, resp));
        let read = |inv, resp, value| TimedRead { inv, resp, value };
        let good = CounterHistory {
            incs: vec![inc(0, 1), inc(2, 3)],
            reads: vec![read(4, 5, 2)],
        };
        let bad = CounterHistory {
            incs: vec![inc(0, 1)],
            reads: vec![read(2, 3, 0)],
        };
        for (h, k) in [(&good, 1), (&bad, 1), (&bad, 2)] {
            let offline = naive::check_counter(h, k);
            let online = stream(&mut OnlineChecker::counter(k), &counter_ops(h));
            assert_eq!(offline.is_ok(), online.is_ok(), "k = {k}");
            let offline = naive::check_counter_additive(h, k - 1);
            let online = stream(&mut OnlineChecker::counter_additive(k - 1), &counter_ops(h));
            assert_eq!(offline.is_ok(), online.is_ok(), "additive k = {k}");
        }
    }

    #[test]
    fn maxreg_matches_offline_on_simple_histories() {
        let write = |inv, resp, value| TimedWrite {
            window: Interval::done(inv, resp),
            value,
        };
        let read = |inv, resp, value| TimedRead { inv, resp, value };
        let good = MaxRegHistory {
            writes: vec![write(0, 1, 5), write(2, 3, 3)],
            reads: vec![read(4, 5, 5)],
        };
        let bad = MaxRegHistory {
            writes: vec![write(0, 1, 5)],
            reads: vec![read(2, 3, 3)],
        };
        for (h, k) in [(&good, 1), (&bad, 1), (&bad, 2)] {
            let ops: Vec<(OpKind, u64, u64)> = h
                .reads
                .iter()
                .map(|r| (OpKind::Read { returned: r.value }, r.inv, r.resp))
                .chain(h.writes.iter().map(|w| {
                    let kind = OpKind::Write { value: w.value };
                    (kind, w.window.inv, w.window.resp.expect("completed"))
                }))
                .collect();
            let offline = naive::check_maxreg(h, k);
            let online = stream(&mut OnlineChecker::maxreg(k), &ops);
            assert_eq!(offline.is_ok(), online.is_ok(), "k = {k}");
        }
    }

    fn announce_rec(pid: usize, kind: OpKind, inv: u64) -> OpRecord {
        OpRecord {
            pid,
            kind,
            inv,
            resp: None,
            steps: 0,
        }
    }

    fn complete_rec(pid: usize, kind: OpKind, inv: u64, resp: u64) -> OpRecord {
        OpRecord {
            pid,
            kind,
            inv,
            resp: Some(resp),
            steps: 0,
        }
    }

    #[test]
    fn pending_increment_widens_b_but_never_raises() {
        // A pending increment admits a read of 1 (it may have taken
        // effect) and, separately, a read of 0 (it may not have) — but
        // never forces anything.
        for value in [0u128, 1] {
            let mut c = OnlineChecker::counter(1);
            c.push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
                .unwrap();
            c.push(&complete_rec(1, OpKind::Read { returned: value }, 1, 2))
                .unwrap();
            assert!(c.finish().is_ok());
        }
    }

    #[test]
    fn crash_drops_the_separator_but_keeps_announced_weight() {
        let mut c = OnlineChecker::counter(1);
        c.push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
            .unwrap();
        c.crash(0);
        // The crashed increment may still have taken effect: a read of
        // 1 is admissible. It linearizes at count ≥ 1, so a later read
        // of 0 (hi = min(0, B = 1) = 0) must fail.
        c.push(&complete_rec(1, OpKind::Read { returned: 1 }, 1, 2))
            .unwrap();
        let err = c
            .push(&complete_rec(2, OpKind::Read { returned: 0 }, 3, 4))
            .unwrap_err();
        assert!(err.message.contains("empty window"), "{}", err.message);
    }

    #[test]
    fn out_of_order_pushes_are_detected_and_sticky() {
        let mut c = OnlineChecker::counter(1);
        c.push(&complete_rec(0, OpKind::Inc { amount: 1 }, 5, 6))
            .unwrap();
        let err = c
            .push(&complete_rec(1, OpKind::Read { returned: 1 }, 2, 3))
            .unwrap_err();
        assert!(err.message.contains("out of order"), "{}", err.message);
        // Sticky: a perfectly fine record now re-reports the failure.
        let again = c
            .push(&announce_rec(2, OpKind::Inc { amount: 1 }, 9))
            .unwrap_err();
        assert_eq!(err, again);
        assert!(c.finish().is_err());
    }

    #[test]
    fn overlapping_announcements_on_one_pid_are_rejected() {
        let mut c = OnlineChecker::counter(1);
        c.push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
            .unwrap();
        let err = c
            .push(&announce_rec(0, OpKind::Inc { amount: 1 }, 1))
            .unwrap_err();
        assert!(err.message.contains("still open"), "{}", err.message);
    }

    #[test]
    fn wrong_vocabulary_is_flagged() {
        let mut c = OnlineChecker::counter(1);
        let err = c
            .push(&announce_rec(0, OpKind::Write { value: 3 }, 0))
            .unwrap_err();
        assert!(err.message.contains("vocabulary"), "{}", err.message);
        let mut m = OnlineChecker::maxreg(1);
        let err = m
            .push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
            .unwrap_err();
        assert!(err.message.contains("vocabulary"), "{}", err.message);
    }

    #[test]
    fn retained_state_stays_bounded_on_a_long_sequential_stream() {
        // 100k sequential increment/read pairs: everything folds — the
        // retained state must stay tiny, nowhere near history size.
        let mut c = OnlineChecker::counter(1);
        let mut t = 0;
        for i in 0..100_000u64 {
            c.push(&complete_rec(0, OpKind::Inc { amount: 1 }, t, t + 1))
                .unwrap();
            c.push(&complete_rec(
                1,
                OpKind::Read {
                    returned: u128::from(i) + 1,
                },
                t + 2,
                t + 3,
            ))
            .unwrap();
            t += 4;
        }
        assert!(
            c.peak_retained() <= 64,
            "peak retained {} on a sequential stream",
            c.peak_retained()
        );
    }

    #[test]
    fn in_flight_list_compacts_around_a_long_lived_increment() {
        // One increment stays open for the whole stream while 10k short
        // ones come and go: the in-flight list must compact around it
        // (and keep its entry index valid) instead of growing.
        let mut c = OnlineChecker::counter(1);
        c.push(&announce_rec(0, OpKind::Inc { amount: 1 }, 0))
            .unwrap();
        let mut t = 1;
        for _ in 0..10_000u64 {
            c.push(&complete_rec(1, OpKind::Inc { amount: 1 }, t, t + 1))
                .unwrap();
            t += 2;
        }
        let Inner::Counter(state) = &c.inner else {
            unreachable!()
        };
        assert!(state.in_flight.len() <= 34, "{}", state.in_flight.len());
        c.push(&complete_rec(0, OpKind::Inc { amount: 1 }, 0, t))
            .unwrap();
        c.push(&complete_rec(
            1,
            OpKind::Read { returned: 10_001 },
            t + 1,
            t + 2,
        ))
        .unwrap();
    }

    #[test]
    fn fold_keeps_apart_a_gap_holding_an_in_flight_invocation() {
        // Read 0 returns 50 out of a long 100-unit batch. A 40-unit
        // increment invokes right after it and completes only once 16
        // more reads have pushed the live stack past the fold threshold,
        // so the fold must keep read 0's entry apart: the increment's
        // completion raises it to 90, and the final read of 70 must fail.
        // Folding read 0 into its successor would accept that read.
        let read = |inv, value| TimedRead {
            inv,
            resp: inv + 1,
            value,
        };
        let batch = |inv, resp, amount| TimedInc::batch(Interval::done(inv, resp), amount);
        let mut h = CounterHistory {
            incs: vec![batch(0, 100, 100), batch(3, 40, 40)],
            reads: vec![read(1, 50)],
        };
        h.reads
            .extend((1..=16).map(|j| read(2 + 2 * j, 50 + u128::from(j))));
        h.reads.push(read(41, 70));
        assert!(naive::check_counter(&h, 1).is_err());
        assert!(crate::monotone::check_counter(&h, 1).is_err());
        let err = stream(&mut OnlineChecker::counter(1), &counter_ops(&h)).unwrap_err();
        assert!(err.message.contains("empty window"), "{}", err.message);
    }

    #[test]
    fn a_post_hoc_check_keeps_its_peak() {
        // Two overlapping increments and a read inside both, then a read
        // after them: three operations are open at once.
        let ops = [
            (OpKind::Inc { amount: 1 }, 0, 5),
            (OpKind::Inc { amount: 1 }, 1, 6),
            (OpKind::Read { returned: 0 }, 2, 3),
            (OpKind::Read { returned: 2 }, 7, 8),
        ];
        let mut streamed = OnlineChecker::counter(1);
        stream(&mut streamed, &ops).unwrap();
        let mut post_hoc = OnlineChecker::counter(1);
        post_hoc
            .check_sorted(ops.len(), |i| {
                let (kind, inv, resp) = ops[i];
                (Some(i), kind, inv, Some(resp))
            })
            .unwrap();
        assert_eq!(streamed.peak_retained(), 3);
        assert_eq!(post_hoc.peak_retained(), streamed.peak_retained());
    }

    #[test]
    fn both_sorts_give_the_same_push_order() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x50E7);
        let (mut duplicates, mut pending, mut shared) = (0, 0, 0);
        let (mut counted, mut wide) = (0, 0);
        for trial in 0..400 {
            let n = rng.random_range(1..600usize);
            // Invocations draw from `quarters / 4` tickets per
            // operation: half the histories dense (down to n/4 tickets,
            // so tickets repeat), half wide (up to 50 per operation).
            let quarters = if rng.random_range(0..2) == 0 {
                1..=16
            } else {
                16..=200
            };
            let tickets = (rng.random_range(quarters) * n as u64 / 4).max(1);
            let ops: Vec<(u64, Option<u64>)> = (0..n)
                .map(|_| {
                    let inv = rng.random_range(0..tickets);
                    let resp = inv + 1 + rng.random_range(0..8);
                    (inv, (rng.random_range(0..6) != 0).then_some(resp))
                })
                .collect();
            let op = |i: usize| (None, OpKind::Inc { amount: 1 }, ops[i].0, ops[i].1);
            let (lo, span) = ticket_range(n, &op);
            assert_eq!(
                counting_order(n, &op, lo, span),
                comparison_order(n, &op),
                "trial {trial}: n = {n}, span = {span}"
            );
            let invs: BTreeSet<u64> = ops.iter().map(|&(inv, _)| inv).collect();
            duplicates += usize::from(invs.len() < n);
            pending += usize::from(ops.iter().any(|&(_, resp)| resp.is_none()));
            shared += usize::from(
                ops.iter()
                    .any(|&(_, r)| r.is_some_and(|r| invs.contains(&r))),
            );
            let dense = span < COUNTING_SORT_MAX_SPAN_PER_OP * n as u64;
            counted += usize::from(dense && n >= COUNTING_SORT_MIN_OPS);
            wide += usize::from(!dense);
        }
        // The generator must exercise every case the order depends on.
        for (case, count) in [
            ("duplicate tickets", duplicates),
            ("pending operations", pending),
            ("an announcement and a completion on one ticket", shared),
            ("histories push_order counts", counted),
            ("spans too wide for the counting sort", wide),
        ] {
            assert!(count >= 40, "only {count} of 400 trials had {case}");
        }
    }

    #[test]
    fn maxreg_witnesses_are_pruned_behind_the_floor() {
        let mut m = OnlineChecker::maxreg(2);
        let mut t = 0;
        for i in 1..=10_000u64 {
            m.push(&complete_rec(0, OpKind::Write { value: i }, t, t + 1))
                .unwrap();
            t += 2;
        }
        m.push(&complete_rec(1, OpKind::Read { returned: 9_999 }, t, t + 1))
            .unwrap();
        assert!(
            m.peak_retained() <= 8,
            "peak retained {} on sequential writes",
            m.peak_retained()
        );
    }
}
