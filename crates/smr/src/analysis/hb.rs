//! The happens-before pass: FastTrack-style vector clocks over the
//! event stream, yielding racy pairs.
//!
//! ## The partial order
//!
//! Happens-before is generated by
//!
//! * **program order** — each process's events, in stream order;
//! * **reads-from** — the write an access observes precedes it (gated
//!   executions serialize primitives, so a read observes the stream's
//!   latest write);
//! * **coherence** — successive nontrivial primitives on one object, in
//!   stream order.
//!
//! Two conflicting accesses (same object, not both reads) that are *not*
//! ordered by the edges **other than their own direct edge** form a
//! *racy pair*: the execution order between them is a genuine scheduling
//! choice, and each such pair is exactly a backtrack point a
//! DPOR-style explorer must consider (ROADMAP: explorer scale-up). The
//! pass flags these pairs informationally ([`HappensBefore::racy_pairs`];
//! they are not violations — gated executions *resolve* races, they
//! don't forbid them).
//!
//! Clocks are FastTrack-style: one epoch `(pid, clock)` per access, full
//! vector clocks only where joins demand them. Four properties keep the
//! pass viable on 10⁵-process coop runs:
//!
//! * **epoch-guarded joins** — a process absorbs a write's clock only if
//!   the write's epoch is outside its causal past. Components circulate
//!   solely through publishes and later publishes carry supersets, so
//!   "heard the writer's component at ≥ the write's epoch" already
//!   implies the whole snapshot is absorbed; the common ordered case is
//!   one binary search in the reader's clock.
//! * **O(1) publishes** — a write stores the write's epoch plus an `Arc`
//!   alias of the writer's accumulated clock; nothing is cloned until
//!   the writer next *learns* something (copy-on-write).
//! * **pid-sorted vectors** — a clock lists only the processes it has
//!   heard from, sorted by pid (`Vc`): memory stays proportional to
//!   communication, not to `n`, and a join is one linear merge with no
//!   hashing — in place once the clock already holds every pid the
//!   other carries, the usual case once clocks are dense.
//! * **pid-indexed tables** — per-process clocks are a vector indexed
//!   by pid; only per-object state, keyed by object address, lives in a
//!   map.
//!
//! The cost floor is the workload's *communication density*: a process
//! joins only when it observes a write it has not heard about yet, and
//! the join walks the two clocks — the processes each has heard from.
//! Cluster-local workloads stay O(1) amortized per event at any `n`; a
//! single globally-shared object (kmult's `switch` bits) legitimately
//! densifies every causal past to all `n` processes, so a join there is
//! Θ(n) whatever the encoding.
//!
//! ## No violations
//!
//! [`finish`](AnalysisPass::finish) returns none. The ticket order the
//! monotone sweep consumes has one enforcer, `lincheck`'s
//! linearizability pass, which reports a broken order as a sticky
//! violation. So the pass is not in
//! [`Analyzer::standard`](super::Analyzer::standard): attach it
//! explicitly to read racy pairs.

use super::{AnalysisPass, Violation};
use crate::addr::AddrMap;
use crate::trace::{Access, AccessKind, TraceEvent};
use std::sync::Arc;

/// A vector clock: missing entries are zero. Entries are kept sorted by
/// pid, so a lookup is a binary search and a join is one linear merge
/// without hashing, while memory stays proportional to the processes
/// this clock has heard from, not to `n`: the pass runs over up to 10⁴
/// processes, where a dense clock per process would not fit. This pass
/// is its one user; the explorer's DPOR engine stamps its few-process
/// replays with dense clocks of its own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Vc(Vec<(usize, u64)>);

impl Vc {
    fn find(&self, pid: usize) -> Result<usize, usize> {
        self.0.binary_search_by_key(&pid, |&(p, _)| p)
    }

    fn get(&self, pid: usize) -> u64 {
        self.find(pid).map_or(0, |i| self.0[i].1)
    }

    fn set(&mut self, pid: usize, clock: u64) {
        match self.find(pid) {
            Ok(i) => self.0[i].1 = clock,
            Err(i) => self.0.insert(i, (pid, clock)),
        }
    }

    /// Component-wise maximum with `other`, as one linear merge. The
    /// first pass raises every pid the two clocks share, in place, and
    /// counts the pids only `other` has; when there are none — the usual
    /// case once clocks are dense — that is all. Otherwise the clock
    /// grows once and a second pass, back to front, moves its entries
    /// up to interleave the new pids, stopping below the lowest one.
    fn join(&mut self, other: &Vc) {
        let a = &mut self.0;
        let (mut i, mut missing) = (0, 0);
        for &(pid, clock) in &other.0 {
            while i < a.len() && a[i].0 < pid {
                i += 1;
            }
            if i < a.len() && a[i].0 == pid {
                a[i].1 = a[i].1.max(clock);
                i += 1;
            } else {
                missing += 1;
            }
        }
        if missing == 0 {
            return;
        }
        let old = a.len();
        a.resize(old + missing, (0, 0));
        let (mut i, mut w) = (old, old + missing);
        for &(pid, clock) in other.0.iter().rev() {
            while i > 0 && a[i - 1].0 > pid {
                i -= 1;
                w -= 1;
                a[w] = a[i];
            }
            w -= 1;
            if i > 0 && a[i - 1].0 == pid {
                i -= 1;
                a[w] = a[i];
            } else {
                a[w] = (pid, clock);
            }
            if w == i {
                break;
            }
        }
    }
}

/// An epoch: one access, as `(pid, clock, seq)`.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    pid: usize,
    clock: u64,
    seq: u64,
}

/// A process's clock. Everything learned from joins lives in `base`
/// (copy-on-write: published snapshots alias it), the process's own
/// component is kept outside so publishing a write never clones.
#[derive(Debug, Clone)]
struct ProcClock {
    base: Arc<Vc>,
    /// Strictly greater than every component of this process ever
    /// published (publishes tick past their own epoch), so reads after a
    /// write are distinguishable from the write itself.
    own: u64,
}

impl Default for ProcClock {
    fn default() -> Self {
        ProcClock {
            base: Arc::new(Vc::default()),
            // Start above zero so a first access is never confused with
            // the all-zero clock every process trivially dominates.
            own: 1,
        }
    }
}

impl ProcClock {
    /// This process's view of `pid`'s clock (`me` is this process).
    fn get(&self, me: usize, pid: usize) -> u64 {
        if pid == me {
            self.own
        } else {
            self.base.get(pid)
        }
    }
}

/// What a write publishes: its epoch plus the writer's accumulated
/// clock at that point (aliased, not cloned — see [`ProcClock`]).
#[derive(Debug, Clone)]
struct WriteSnap {
    epoch: Epoch,
    base: Arc<Vc>,
}

#[derive(Debug, Default)]
struct ObjState {
    /// The last nontrivial primitive (what a reads-from / coherence
    /// join transfers).
    last_write: Option<WriteSnap>,
    /// Reads since the last write (cleared by the next write).
    reads: Vec<Epoch>,
}

/// One conflicting access pair not ordered by happens-before (minus its
/// own direct edge) — a DPOR backtrack point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RacyPair {
    /// Trace seq of the earlier access.
    pub first_seq: u64,
    /// Trace seq of the later access.
    pub second_seq: u64,
    /// The object both access.
    pub obj: usize,
    /// Kinds of the two accesses, stream order.
    pub kinds: (AccessKind, AccessKind),
}

/// The happens-before pass: racy pairs from vector clocks over the
/// event stream, no violations. See the module docs in `analysis/hb.rs`
/// for the partial order and the clock encoding.
pub struct HappensBefore {
    /// Per-process vector clocks, indexed by pid (grown on demand).
    clocks: Vec<ProcClock>,
    /// Per-object state, keyed by object address.
    objects: AddrMap<ObjState>,
    racy: Vec<RacyPair>,
    racy_total: u64,
    max_racy: usize,
}

impl HappensBefore {
    /// A fresh pass.
    pub fn new() -> Self {
        HappensBefore {
            clocks: Vec::new(),
            objects: AddrMap::default(),
            racy: Vec::new(),
            racy_total: 0,
            max_racy: 64,
        }
    }

    /// The flagged conflicting-unordered pairs (capped at 64; see
    /// [`racy_total`](HappensBefore::racy_total) for the full count).
    pub fn racy_pairs(&self) -> &[RacyPair] {
        &self.racy
    }

    /// Total conflicting-unordered pairs observed, including beyond the
    /// retention cap.
    pub fn racy_total(&self) -> u64 {
        self.racy_total
    }

    fn flag_racy(&mut self, first: Epoch, first_kind: AccessKind, second: &Access) {
        self.racy_total += 1;
        if self.racy.len() < self.max_racy {
            self.racy.push(RacyPair {
                first_seq: first.seq,
                second_seq: second.seq,
                obj: second.obj,
                kinds: (first_kind, second.kind),
            });
        }
    }

    fn on_access(&mut self, a: &Access) {
        // Disjoint field borrows: the object entry and the clock entry
        // are mutated together; racy pairs are collected locally and
        // flagged after both borrows end.
        if a.pid >= self.clocks.len() {
            self.clocks.resize_with(a.pid + 1, ProcClock::default);
        }
        let obj = self.objects.entry(a.obj).or_default();
        let vc = &mut self.clocks[a.pid];

        // Is the last write outside this process's causal past? One
        // epoch probe decides: components circulate solely through
        // publishes, and later publishes carry supersets, so seeing the
        // writer's component at ≥ the write's epoch means the whole
        // snapshot was already absorbed.
        let unseen_write = obj
            .last_write
            .as_ref()
            .is_some_and(|w| w.epoch.pid != a.pid && vc.get(a.pid, w.epoch.pid) < w.epoch.clock);

        // Conflicting predecessors not ordered before this access by the
        // edges built so far (program order, earlier reads-from,
        // coherence) — checked before this access's own edges are added.
        let mut pairs: Vec<(Epoch, AccessKind)> = Vec::new();
        if unseen_write {
            pairs.push((
                obj.last_write.as_ref().expect("guarded").epoch,
                AccessKind::Write,
            ));
        }
        if a.kind.is_nontrivial() {
            for &r in &obj.reads {
                if r.pid != a.pid && vc.get(a.pid, r.pid) < r.clock {
                    pairs.push((r, AccessKind::Read));
                }
            }
        }

        // This access's edges: any access observes the last write
        // (reads-from for reading primitives, coherence for writes —
        // gated executions serialize primitives, so "the last write" is
        // well-defined in stream order). Skipped entirely in the ordered
        // case; when it fires, the process pays for exactly the
        // components it had not heard about.
        if unseen_write {
            let w = obj.last_write.as_ref().expect("guarded");
            let base = Arc::make_mut(&mut vc.base);
            base.join(&w.base);
            if base.get(w.epoch.pid) < w.epoch.clock {
                base.set(w.epoch.pid, w.epoch.clock);
            }
        }

        if a.kind.is_nontrivial() {
            let clock = vc.own + 1;
            let epoch = Epoch {
                pid: a.pid,
                clock,
                seq: a.seq,
            };
            obj.last_write = Some(WriteSnap {
                epoch,
                base: vc.base.clone(),
            });
            // Tick past the published epoch: later events by this
            // process must not be covered by joins of this snapshot.
            vc.own = clock + 1;
            obj.reads.clear();
        } else {
            obj.reads.push(Epoch {
                pid: a.pid,
                clock: vc.own,
                seq: a.seq,
            });
        }

        for (first, first_kind) in pairs {
            self.flag_racy(first, first_kind, a);
        }
    }
}

impl Default for HappensBefore {
    fn default() -> Self {
        HappensBefore::new()
    }
}

impl AnalysisPass for HappensBefore {
    fn name(&self) -> &'static str {
        "happens-before"
    }

    fn on_event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Access(ref a) = *ev {
            self.on_access(a);
        }
    }

    fn finish(&mut self) -> Vec<Violation> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(seq: u64, pid: usize, obj: usize, kind: AccessKind) -> TraceEvent {
        TraceEvent::Access(Access {
            seq,
            pid,
            obj,
            kind,
            before: 0,
            after: 0,
        })
    }

    /// `Vc` against a `BTreeMap` model (missing entries read as zero;
    /// `set` keeps an entry even at zero; `join` is the key union with
    /// component-wise max): random `get`/`set`/`join` sequences on two
    /// clocks whose pid pools are empty, disjoint, interleaved, or one
    /// a subset of the other. Pids stay strictly sorted, and a join
    /// whose pids are a subset of the target's runs in place.
    #[test]
    fn vc_agrees_with_a_btreemap_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::BTreeMap;

        fn agree(vc: &Vc, model: &BTreeMap<usize, u64>) {
            assert!(
                vc.0.windows(2).all(|w| w[0].0 < w[1].0),
                "pids not strictly sorted: {vc:?}"
            );
            let entries: Vec<(usize, u64)> = model.iter().map(|(&p, &c)| (p, c)).collect();
            assert_eq!(vc.0, entries);
        }

        let pools: [[Vec<usize>; 2]; 4] = [
            [vec![], (0..8).collect()],
            [(0..16).step_by(2).collect(), (1..16).step_by(2).collect()],
            [(0..32).collect(), (0..32).collect()],
            [(0..24).collect(), (0..24).step_by(3).collect()],
        ];
        let mut in_place = 0;
        for seed in 0..400u64 {
            let pool = &pools[(seed % 4) as usize];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut vcs = [Vc::default(), Vc::default()];
            let mut models = [BTreeMap::new(), BTreeMap::new()];
            for _ in 0..80 {
                let x = rng.random_range(0..2usize);
                match rng.random_range(0..4u32) {
                    0 => {
                        let pid = rng.random_range(0..40usize);
                        let want = models[x].get(&pid).copied().unwrap_or(0);
                        assert_eq!(vcs[x].get(pid), want, "seed {seed}: get({pid})");
                    }
                    1 | 2 if !pool[x].is_empty() => {
                        let pid = pool[x][rng.random_range(0..pool[x].len())];
                        let clock = rng.random_range(0..50u64);
                        vcs[x].set(pid, clock);
                        models[x].insert(pid, clock);
                    }
                    _ => {
                        let src = vcs[1 - x].clone();
                        let subset = src.0.iter().all(|(p, _)| models[x].contains_key(p));
                        let before = (vcs[x].0.as_ptr(), vcs[x].0.capacity());
                        vcs[x].join(&src);
                        if subset {
                            assert_eq!((vcs[x].0.as_ptr(), vcs[x].0.capacity()), before);
                            in_place += 1;
                        }
                        for &(p, c) in &src.0 {
                            let e = models[x].entry(p).or_insert(0);
                            *e = (*e).max(c);
                        }
                    }
                }
                agree(&vcs[x], &models[x]);
            }
        }
        assert!(in_place > 0, "no join took the in-place path");
    }

    #[test]
    fn program_order_alone_is_race_free() {
        let mut h = HappensBefore::new();
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 0, 0xA, AccessKind::Read));
        h.on_event(&acc(2, 0, 0xB, AccessKind::Write));
        assert!(h.finish().is_empty());
        assert_eq!(h.racy_total(), 0);
    }

    #[test]
    fn cross_process_write_read_is_a_racy_pair_once() {
        let mut h = HappensBefore::new();
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 1, 0xA, AccessKind::Read));
        // The read joined the writer's clock; a second read of the same
        // object is now ordered after the write — no new pair.
        h.on_event(&acc(2, 1, 0xA, AccessKind::Read));
        assert_eq!(h.racy_total(), 1);
        let p = h.racy_pairs()[0];
        assert_eq!((p.first_seq, p.second_seq), (0, 1));
        assert_eq!(p.kinds, (AccessKind::Write, AccessKind::Read));
        assert!(h.finish().is_empty(), "racy pairs are not violations");
    }

    #[test]
    fn read_write_conflict_is_flagged() {
        let mut h = HappensBefore::new();
        h.on_event(&acc(0, 0, 0xA, AccessKind::Read));
        h.on_event(&acc(1, 1, 0xA, AccessKind::Write));
        assert_eq!(h.racy_total(), 1);
        assert_eq!(
            h.racy_pairs()[0].kinds,
            (AccessKind::Read, AccessKind::Write)
        );
    }

    #[test]
    fn disjoint_objects_never_conflict() {
        let mut h = HappensBefore::new();
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 1, 0xB, AccessKind::Write));
        assert_eq!(h.racy_total(), 0);
    }

    #[test]
    fn transitive_ordering_suppresses_pairs() {
        // p0 writes A; p1 reads A (joins p0) then writes B: B's write is
        // ordered after A's write transitively, so p0's later read of B
        // — wait, p0 hasn't joined p1. But p1's write to A after reading
        // A is ordered; check no pair for p1's second access to A.
        let mut h = HappensBefore::new();
        h.on_event(&acc(0, 0, 0xA, AccessKind::Write));
        h.on_event(&acc(1, 1, 0xA, AccessKind::Read)); // pair (0,1)
        h.on_event(&acc(2, 1, 0xA, AccessKind::Write)); // ordered: no pair
        assert_eq!(h.racy_total(), 1);
    }
}
