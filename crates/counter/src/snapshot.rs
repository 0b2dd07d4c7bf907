//! The Afek et al. single-writer atomic snapshot, and a counter on top.
//!
//! [`AtomicSnapshot`] implements the classic wait-free construction
//! (Afek, Attiya, Dolev, Gafni, Merritt, Shavit, *Atomic snapshots of
//! shared memory*, J. ACM 1993): each segment stores `(value, seq,
//! embedded view)`. A `scan` repeatedly double-collects; if the two
//! collects agree on all sequence numbers it returns the collected values,
//! and if some process is observed to move **twice**, its embedded view —
//! a scan that completed entirely within our own scan's window — is
//! returned instead. At most `n+1` collects, so `O(n²)` steps worst case.
//!
//! [`SnapshotCounter`] is the textbook exact counter on top: `increment`
//! bumps the invoker's segment; `read` scans and sums. It is the "wait-free
//! exact counter from atomic snapshot" of the paper's introduction.

use crate::spec::MachineCounter;
use smr::{Poll, ProcCtx, WideRegister};

/// One snapshot segment: the process's value, its update count and the
/// view it embedded at its last update.
#[derive(Debug, Clone, Default)]
struct Segment {
    value: u64,
    seq: u64,
    view: Vec<u64>,
}

/// A wait-free single-writer atomic snapshot over `n` `u64` components.
pub struct AtomicSnapshot {
    segments: Vec<WideRegister<Segment>>,
}

impl AtomicSnapshot {
    /// A snapshot object with `n` components, all initially 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        AtomicSnapshot {
            segments: (0..n).map(|_| WideRegister::default()).collect(),
        }
    }

    /// Number of components.
    pub fn n(&self) -> usize {
        self.segments.len()
    }

    /// Wait-free atomic scan: a vector of all components that was
    /// simultaneously present at some instant within this call.
    pub fn scan(&self, ctx: &ProcCtx) -> Vec<u64> {
        let mut m = ScanMachine::new(self);
        loop {
            if let Poll::Ready(view) = m.step(self, ctx) {
                return view;
            }
        }
    }

    /// Wait-free update of the invoking process's component.
    pub fn update(&self, ctx: &ProcCtx, value: u64) {
        let mut m = UpdateMachine::new(self, value);
        while m.step(self, ctx).is_pending() {}
    }

    /// Current value of the invoking process's own component (one step).
    pub fn my_value(&self, ctx: &ProcCtx) -> u64 {
        self.segments[ctx.pid()].read(ctx).value
    }
}

/// Resume point of an [`AtomicSnapshot::scan`]: repeated collects, one
/// segment read per [`step`](ScanMachine::step), priming step free —
/// the machine convention of `maxreg::tree`'s module docs. The single
/// transcription driven by the blocking method and embedded by the
/// [`SnapshotCounter`] machines.
#[derive(Debug)]
pub struct ScanMachine {
    /// Previous collect, once one completed.
    prev: Option<Vec<Segment>>,
    /// The collect in progress.
    cur: Vec<Segment>,
    /// Per-process observed movement counts.
    moved: Vec<u32>,
    primed: bool,
}

impl ScanMachine {
    /// A machine scanning `snap`.
    pub fn new(snap: &AtomicSnapshot) -> Self {
        ScanMachine {
            prev: None,
            cur: Vec::with_capacity(snap.n()),
            moved: vec![0; snap.n()],
            primed: false,
        }
    }

    /// Advance the scan by at most one primitive against `snap` — which
    /// must be the snapshot the machine was created for.
    pub fn step(&mut self, snap: &AtomicSnapshot, ctx: &ProcCtx) -> Poll<Vec<u64>> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending; // a scan always reads at least 2n segments
        }
        self.cur.push(snap.segments[self.cur.len()].read(ctx));
        if self.cur.len() < snap.n() {
            return Poll::Pending;
        }
        // A collect just completed.
        let b = std::mem::take(&mut self.cur);
        let Some(a) = self.prev.take() else {
            self.prev = Some(b);
            return Poll::Pending;
        };
        if a.iter().zip(&b).all(|(x, y)| x.seq == y.seq) {
            return Poll::Ready(b.into_iter().map(|s| s.value).collect());
        }
        for j in 0..snap.n() {
            if a[j].seq != b[j].seq {
                self.moved[j] += 1;
                if self.moved[j] >= 2 {
                    // j completed an update that started after our scan
                    // began; its embedded view is linearizable within
                    // our window.
                    return Poll::Ready(b[j].view.clone());
                }
            }
        }
        self.prev = Some(b);
        Poll::Pending
    }
}

/// Resume point of an [`AtomicSnapshot::update`]: an embedded scan,
/// then the own segment's read and write. Same machine convention as
/// [`ScanMachine`].
#[derive(Debug)]
pub struct UpdateMachine {
    value: u64,
    phase: UpdatePhase,
    primed: bool,
}

#[derive(Debug)]
enum UpdatePhase {
    Scan(ScanMachine),
    ReadOwn { view: Vec<u64> },
    WriteOwn { view: Vec<u64>, seq: u64 },
}

impl UpdateMachine {
    /// A machine updating the invoking process's component of `snap` to
    /// `value`.
    pub fn new(snap: &AtomicSnapshot, value: u64) -> Self {
        UpdateMachine {
            value,
            phase: UpdatePhase::Scan(ScanMachine::new(snap)),
            primed: false,
        }
    }

    /// Advance the update by at most one primitive against `snap` —
    /// which must be the snapshot the machine was created for.
    pub fn step(&mut self, snap: &AtomicSnapshot, ctx: &ProcCtx) -> Poll<()> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending; // the embedded scan applies primitives
        }
        // Each iteration applies at most one primitive; iterations that
        // applied none (a sub-machine's free priming step, a local phase
        // change) continue within the current step.
        loop {
            let before = ctx.steps_taken();
            match &mut self.phase {
                UpdatePhase::Scan(m) => {
                    if let Poll::Ready(view) = m.step(snap, ctx) {
                        self.phase = UpdatePhase::ReadOwn { view };
                    }
                }
                UpdatePhase::ReadOwn { view } => {
                    let old = snap.segments[ctx.pid()].read(ctx);
                    self.phase = UpdatePhase::WriteOwn {
                        view: std::mem::take(view),
                        seq: old.seq + 1,
                    };
                }
                UpdatePhase::WriteOwn { view, seq } => {
                    snap.segments[ctx.pid()].write(
                        ctx,
                        Segment {
                            value: self.value,
                            seq: *seq,
                            view: std::mem::take(view),
                        },
                    );
                    return Poll::Ready(());
                }
            }
            if ctx.steps_taken() != before {
                return Poll::Pending;
            }
        }
    }
}

/// The classic exact counter from an atomic snapshot: `O(n)`-ish
/// increments (one scan) and `O(n²)` worst-case reads.
pub struct SnapshotCounter {
    snap: AtomicSnapshot,
}

impl SnapshotCounter {
    /// A counter for `n` processes.
    pub fn new(n: usize) -> Self {
        SnapshotCounter {
            snap: AtomicSnapshot::new(n),
        }
    }
}

impl MachineCounter for SnapshotCounter {
    type IncMachine = SnapshotIncMachine;
    type ReadMachine = SnapshotReadMachine;

    fn inc_machine(&self) -> SnapshotIncMachine {
        SnapshotIncMachine::new(self)
    }

    fn read_machine(&self) -> SnapshotReadMachine {
        SnapshotReadMachine::new(self)
    }

    fn step_inc(&self, m: &mut SnapshotIncMachine, ctx: &ProcCtx) -> Poll<()> {
        m.step(self, ctx)
    }

    fn step_read(&self, m: &mut SnapshotReadMachine, ctx: &ProcCtx) -> Poll<u128> {
        m.step(self, ctx)
    }
}

/// Resume point of a `SnapshotCounter::increment`: read the own
/// component, then run the embedded [`UpdateMachine`] with the bumped
/// value. Machine convention as in [`ScanMachine`].
#[derive(Debug)]
pub struct SnapshotIncMachine {
    phase: SnapIncPhase,
}

#[derive(Debug)]
enum SnapIncPhase {
    Start,
    ReadMine,
    Update(UpdateMachine),
}

impl SnapshotIncMachine {
    /// A machine incrementing `counter`.
    pub fn new(_counter: &SnapshotCounter) -> Self {
        SnapshotIncMachine {
            phase: SnapIncPhase::Start,
        }
    }

    /// Advance the increment by at most one primitive against `counter`
    /// — which must be the counter the machine was created for.
    pub fn step(&mut self, counter: &SnapshotCounter, ctx: &ProcCtx) -> Poll<()> {
        loop {
            let before = ctx.steps_taken();
            match &mut self.phase {
                SnapIncPhase::Start => {
                    self.phase = SnapIncPhase::ReadMine;
                    return Poll::Pending; // priming step: no primitive
                }
                SnapIncPhase::ReadMine => {
                    let mine = counter.snap.my_value(ctx);
                    self.phase = SnapIncPhase::Update(UpdateMachine::new(&counter.snap, mine + 1));
                }
                SnapIncPhase::Update(m) => {
                    if m.step(&counter.snap, ctx).is_ready() {
                        return Poll::Ready(());
                    }
                }
            }
            if ctx.steps_taken() != before {
                return Poll::Pending;
            }
        }
    }
}

/// Resume point of a `SnapshotCounter::read`: an embedded scan, summed.
/// Machine convention as in [`ScanMachine`].
#[derive(Debug)]
pub struct SnapshotReadMachine {
    scan: ScanMachine,
    primed: bool,
}

impl SnapshotReadMachine {
    /// A machine reading `counter`.
    pub fn new(counter: &SnapshotCounter) -> Self {
        SnapshotReadMachine {
            scan: ScanMachine::new(&counter.snap),
            primed: false,
        }
    }

    /// Advance the read by at most one primitive against `counter` —
    /// which must be the counter the machine was created for.
    pub fn step(&mut self, counter: &SnapshotCounter, ctx: &ProcCtx) -> Poll<u128> {
        if !self.primed {
            self.primed = true;
            return Poll::Pending; // the scan applies primitives
        }
        loop {
            let before = ctx.steps_taken();
            if let Poll::Ready(view) = self.scan.step(&counter.snap, ctx) {
                return Poll::Ready(view.iter().map(|&v| u128::from(v)).sum());
            }
            if ctx.steps_taken() != before {
                return Poll::Pending;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::testutil;
    use smr::Runtime;
    use std::sync::Arc;

    #[test]
    fn scan_of_fresh_object_is_zero() {
        let rt = Runtime::free_running(3);
        let ctx = rt.ctx(0);
        let snap = AtomicSnapshot::new(3);
        assert_eq!(snap.scan(&ctx), vec![0, 0, 0]);
    }

    #[test]
    fn update_then_scan_sequential() {
        let rt = Runtime::free_running(2);
        let c0 = rt.ctx(0);
        let c1 = rt.ctx(1);
        let snap = AtomicSnapshot::new(2);
        snap.update(&c0, 5);
        snap.update(&c1, 7);
        snap.update(&c0, 6);
        assert_eq!(snap.scan(&c1), vec![6, 7]);
    }

    #[test]
    fn quiescent_scan_costs_two_collects() {
        let n = 8;
        let rt = Runtime::free_running(n);
        let ctx = rt.ctx(0);
        let snap = AtomicSnapshot::new(n);
        let s0 = ctx.steps_taken();
        let _ = snap.scan(&ctx);
        assert_eq!(ctx.steps_taken() - s0, 2 * n as u64);
    }

    #[test]
    fn concurrent_scans_are_snapshots() {
        // Writers keep pairs (2i, 2i+1) equal in adjacent components; a
        // scan must never see them differ by more than the in-flight gap.
        let n = 4;
        let rt = Runtime::free_running(n);
        let snap = Arc::new(AtomicSnapshot::new(n));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = vec![];
        for pid in 0..2 {
            let snap = snap.clone();
            let ctx = rt.ctx(pid);
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut v = 0;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    v += 1;
                    snap.update(&ctx, v);
                }
            }));
        }
        let ctx = rt.ctx(3);
        for _ in 0..200 {
            let view = snap.scan(&ctx);
            assert_eq!(view.len(), n);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn counter_sequential_conformance() {
        let c = SnapshotCounter::new(2);
        testutil::check_sequential_exact(&c, 50);
    }

    #[test]
    fn counter_concurrent_exact() {
        let c = Arc::new(SnapshotCounter::new(4));
        testutil::check_concurrent_exact(c, 4, 300);
    }
}
