//! [`CoopBackend`]: cooperative execution of virtual processes.
//!
//! Drives N processes as [`OpTask`](crate::OpTask) state machines on the
//! controller thread. There are no worker threads: granting a step *is*
//! polling the parked task once, one indirect call — which is what lets
//! gated executions scale to 10⁵–10⁶ virtual processes (see
//! `exp_scale`).
//!
//! ## Memory layout
//!
//! At 10⁶ processes the hot loop is memory-bound, so the backend avoids
//! pointer-chasing structurally:
//!
//! * **Hot and cold per-process arrays.** A process's in-flight op is
//!   not a boxed struct; its state is split by how often it is read.
//!   The hot array holds the parked task's payload pointer and poll
//!   shim, the two fields every grant and every batch poll reads, in
//!   16 bytes per process. The cold array holds the rest: the drop
//!   shim, the op's [`OpSpec`], its invocation ticket, the process's
//!   step count at the invocation and the head and tail of its
//!   submission queue, read only when an op starts, completes, is cut
//!   or is torn down. The two are not one struct because a gated run
//!   over 10⁴ processes under a random schedule reads the hot fields of
//!   a different process at every grant, from a working set larger than
//!   L2: one struct per process would spread those reads over six times
//!   the memory.
//! * **Arena-allocated task state.** Task payloads live in a bump
//!   arena ([`TaskArena`]), reached through a thin payload pointer plus
//!   poll/drop shims instantiated for the task's concrete type.
//!   [`submit_task`](ExecBackend::submit_task), what
//!   `Driver::submit_task` calls, writes the task straight into the
//!   arena, with no transient box. Completed tasks are dropped in
//!   place; the bump cursor rewinds whenever the live count hits zero (a
//!   generation boundary — e.g. the idle point between
//!   `run_schedule` batches), reusing chunk memory instead of
//!   round-tripping 10⁶ boxes through the global allocator. The first
//!   chunk is 4 KiB and each new one doubles, up to 1 MiB, so a small
//!   program (the explorer builds one per replay) allocates a few KiB,
//!   not a MiB.
//! * **Slab-backed submission queues.** Ops queued behind an in-flight
//!   one live in one shared slab of intrusive list nodes (`u32` links),
//!   not per-process `VecDeque` heap buffers. The slab starts with room
//!   for one node per process, so a program that queues one op behind
//!   each in-flight one (the explorer's) never regrows it.
//!
//! ## Gated and free-running modes
//!
//! A backend over a [`Runtime::coop`] runtime is **gated**: the
//! controller grants one primitive at a time
//! ([`step`](CoopBackend::step)) under a scheduler or a scripted
//! adversary, and can crash or indefinitely suspend any process —
//! the repo's one deterministic executor.
//!
//! A backend over a [`Runtime::coop_free`] runtime is **free-running**
//! ([`CoopBackend::new_free`], `Driver::coop_free`): there is no grant
//! discipline — [`wait_event`](ExecBackend::wait_event) batch-polls
//! every runnable task in rounds until completions surface, and
//! `Driver::wait_all` drains them. Like the thread backend, it traces
//! no invocations and has no pending records (nothing can be suspended
//! mid-operation), and mid-run crash/suspension is unsupported. The
//! batch order is
//! ascending submission order by default, or a seeded per-round shuffle
//! ([`CoopBackend::new_free_seeded`]) — both deterministic, single
//! controller thread, and therefore replayable.
//!
//! ## Stable-point invariant
//!
//! The backend keeps every process at a stable point *between*
//! controller calls: either parked (a primed task waiting before its
//! next primitive) or idle with an empty queue. It does so by advancing
//! eagerly — on submit and after each completion it dequeues the next
//! operation, draws its invocation ticket, and runs its priming poll;
//! zero-primitive operations complete immediately. Every completion a
//! process will produce without a further grant is therefore already
//! buffered, and every parked operation's invocation is on record in
//! the cold array (its spec, invocation ticket and step count at
//! invocation), so crash and snapshot cuts drain the completions and
//! read the pending records off that array: they are deterministic by
//! construction.
//!
//! ## Contract enforcement
//!
//! Nothing stops a buggy task from applying two primitives in one poll,
//! so the backend watches the process's step counter around every poll
//! and panics on a violation (a primitive applied while priming, ≠ 1
//! primitive on a granted step or a batch poll), naming the pid and the
//! op. Violations are bugs in the task, not schedule-dependent
//! behavior. These asserts are the poll contract's one enforcer, and
//! they are always on: everything downstream — step counts, the
//! explorer's one-primitive-per-step metadata — may rely on it.
//!
//! ## One recording context
//!
//! Every poll runs under one [`ProcCtx`] that the backend owns for its
//! whole life and re-points at the polled process, so a poll clones no
//! `Arc<Runtime>`. The context records the `(object, kind)` of every
//! primitive applied through it. `submit`, `step` and each batch poll
//! clear the record first, so after a granted step it lists exactly
//! the step's one primitive (the contract asserts leave no room for
//! another). The explorer reads it (`Driver::touched`) to learn which
//! object a step touched without switching the trace log on.
//!
//! While a trace consumer is active, the context also buffers the trace
//! events the backend produces — each grant, invocation and completion
//! it builds itself, and the access its primitives record — in emission
//! order, and delivers them as one batch: one sequence draw numbers the
//! batch in buffer order, one analyzer lock hands it to every pass, one
//! log lock appends it. Every public entry point (`submit`,
//! [`step`](CoopBackend::step), `wait_event`, teardown) returns with the
//! buffer delivered; `Driver::run_schedule` and `Driver::run_solo` grant
//! through an unflushed step and deliver every 1 024 events and before
//! they return. Contexts from `Runtime::ctx` and `Driver::crash` emit
//! directly, between those calls, so every consumer sees the same
//! events, in the same order, with the same seqs as with one delivery
//! per event. Teardown delivers the modelled run's last events before
//! it seals the analysis sink.
//!
//! [`Runtime::coop`]: crate::Runtime::coop
//! [`Runtime::coop_free`]: crate::Runtime::coop_free

use super::{ExecBackend, StepOutcome};
use crate::history::{OpRecord, OpSpec};
use crate::runtime::{Mode, Runtime};
use crate::task::{OpTask, Poll};
use crate::trace::{AccessKind, TraceEvent};
use crate::ProcCtx;
use std::alloc::Layout;
use std::cell::Ref;
use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::{Arc, OnceLock};

/// Null link in the queue slab and in each process's queue head and
/// tail.
const NIL: u32 = u32::MAX;

/// Shim applying one [`OpTask::poll`] to a payload in the arena.
type PollFn = unsafe fn(NonNull<u8>, &ProcCtx) -> Poll<u128>;
/// Shim dropping a payload in place (no deallocation).
type DropFn = unsafe fn(NonNull<u8>);

/// The [`PollFn`] for payload type `T`.
///
/// # Safety
/// `data` must point to a live `T` that the caller owns exclusively.
unsafe fn poll_shim<T: OpTask>(data: NonNull<u8>, ctx: &ProcCtx) -> Poll<u128> {
    // SAFETY: the caller passes a live `T` it owns exclusively, so the
    // cast is valid and the `&mut` is unique.
    unsafe { data.cast::<T>().as_mut() }.poll(ctx)
}

/// The [`DropFn`] for payload type `T`.
///
/// # Safety
/// As for [`poll_shim`]; the value is dead afterwards.
unsafe fn drop_shim<T>(data: NonNull<u8>) {
    // SAFETY: the caller passes a live `T` it owns exclusively and never
    // uses again, so it is dropped exactly once.
    unsafe { std::ptr::drop_in_place(data.cast::<T>().as_ptr()) }
}

/// The backend's registered metrics, resolved once per process (the
/// handles are `&'static`, so the poll loop pays one relaxed flag load
/// plus one sharded `fetch_add` per event, and building a backend pays
/// one `OnceLock` load instead of a registry lookup per metric).
struct CoopMetrics {
    /// Every task poll: priming polls in `advance`, granted polls in
    /// `step`, batch polls in `sweep_one`.
    polls: &'static obs::Counter,
    /// Task-arena chunk memory currently allocated, across backends.
    arena_bytes: &'static obs::Gauge,
}

fn metrics() -> &'static CoopMetrics {
    static M: OnceLock<CoopMetrics> = OnceLock::new();
    M.get_or_init(|| CoopMetrics {
        polls: obs::counter(obs::names::SUB_COOP, obs::names::COOP_POLLS),
        arena_bytes: obs::gauge(obs::names::SUB_COOP, obs::names::COOP_ARENA_BYTES),
    })
}

/// Size of the arena's first chunk; each later chunk doubles the one
/// before it, up to [`CHUNK_SIZE`].
const FIRST_CHUNK_SIZE: usize = 4 << 10;
/// Largest bump-arena chunk; large enough that 10⁶ small task states fit
/// in a few dozen chunks.
const CHUNK_SIZE: usize = 1 << 20;
/// Chunk base alignment (a cache line covers every ordinary task type).
const CHUNK_ALIGN: usize = 64;

struct Chunk {
    ptr: NonNull<u8>,
    layout: Layout,
}

/// Bump arena owning every live task payload.
///
/// Payloads are written in at submit ([`TaskArena::install_value`])
/// and dropped in place at completion ([`TaskArena::retire`]);
/// individual slots are never freed. Instead, when the live count
/// returns to zero — a runtime *generation* boundary — the bump cursor
/// rewinds to the first chunk and the memory is reused wholesale.
/// Chunks grow geometrically ([`FIRST_CHUNK_SIZE`] doubling up to
/// [`CHUNK_SIZE`]); a payload larger than the next chunk gets a chunk
/// of its own size.
#[derive(Default)]
struct TaskArena {
    chunks: Vec<Chunk>,
    /// Chunk the bump cursor is in.
    at: usize,
    /// Bump offset within `chunks[at]`.
    offset: usize,
    /// Installed-but-not-retired payloads.
    live: usize,
}

impl TaskArena {
    /// Carve `layout` bytes out of the current chunk, growing the chunk
    /// list on demand. `layout.size()` must be non-zero.
    fn alloc(&mut self, layout: Layout) -> NonNull<u8> {
        debug_assert!(layout.size() > 0);
        loop {
            if let Some(chunk) = self.chunks.get(self.at) {
                let base = chunk.ptr.as_ptr() as usize;
                let aligned = (base + self.offset).next_multiple_of(layout.align());
                if aligned + layout.size() <= base + chunk.layout.size() {
                    let off = aligned - base;
                    self.offset = off + layout.size();
                    // SAFETY: `off + layout.size()` is within the chunk.
                    return unsafe { NonNull::new_unchecked(chunk.ptr.as_ptr().add(off)) };
                }
                self.at += 1;
                self.offset = 0;
                continue;
            }
            let next = self
                .chunks
                .last()
                .map_or(FIRST_CHUNK_SIZE, |c| (2 * c.layout.size()).min(CHUNK_SIZE));
            let chunk_layout =
                Layout::from_size_align(layout.size().max(next), layout.align().max(CHUNK_ALIGN))
                    .expect("task arena chunk layout");
            // SAFETY: the layout has non-zero size.
            let ptr = unsafe { std::alloc::alloc(chunk_layout) };
            let ptr =
                NonNull::new(ptr).unwrap_or_else(|| std::alloc::handle_alloc_error(chunk_layout));
            // Chunks are reused across generations and only freed at
            // drop, which is what the gauge tracks.
            metrics()
                .arena_bytes
                .add(i64::try_from(chunk_layout.size()).unwrap_or(i64::MAX));
            self.chunks.push(Chunk {
                ptr,
                layout: chunk_layout,
            });
        }
    }

    /// Write a typed task straight into the arena (no transient box).
    fn install_value<T>(&mut self, task: T) -> NonNull<u8> {
        let layout = Layout::new::<T>();
        let dst = if layout.size() == 0 {
            NonNull::<T>::dangling()
        } else {
            self.alloc(layout).cast::<T>()
        };
        // SAFETY: `dst` is a fresh arena slot of `T`'s size and
        // alignment, or, for a zero-sized `T`, a dangling pointer aligned
        // for `T`, which a write of zero bytes may use.
        unsafe { dst.as_ptr().write(task) };
        self.live += 1;
        dst.cast()
    }

    /// Drop a finished task in place. Its bytes are reclaimed at the
    /// next generation reset.
    ///
    /// # Safety
    /// `data` must come from [`install_value`](TaskArena::install_value),
    /// `dropper` must be the [`drop_shim`] of its type, and the task must
    /// never be used again.
    unsafe fn retire(&mut self, data: NonNull<u8>, dropper: DropFn) {
        // SAFETY: per the contract above, `data` is the live payload
        // `dropper` was instantiated for.
        unsafe { dropper(data) };
        self.live -= 1;
        if self.live == 0 {
            self.at = 0;
            self.offset = 0;
        }
    }
}

impl Drop for TaskArena {
    fn drop(&mut self) {
        // The backend retires every live task before the arena drops
        // (teardown or panic path), so only raw chunk memory remains.
        for chunk in self.chunks.drain(..) {
            metrics()
                .arena_bytes
                .sub(i64::try_from(chunk.layout.size()).unwrap_or(i64::MAX));
            // SAFETY: allocated in `alloc` with exactly this layout.
            unsafe { std::alloc::dealloc(chunk.ptr.as_ptr(), chunk.layout) };
        }
    }
}

/// A queued (submitted, not yet started) op in the shared slab.
/// `data: None` marks a free-list node.
struct QNode {
    spec: OpSpec,
    data: Option<NonNull<u8>>,
    poll: PollFn,
    dropper: DropFn,
    next: u32,
}

/// Placeholder shims for idle processes; never called (`Hot::data` is
/// the presence discriminant).
unsafe fn idle_poll(_data: NonNull<u8>, _ctx: &ProcCtx) -> Poll<u128> {
    unreachable!("polled an idle slot")
}
unsafe fn idle_drop(_data: NonNull<u8>) {
    unreachable!("dropped an idle slot")
}

/// What every grant and batch poll reads of a process: its parked
/// task. `data` is `None` while the process is idle.
#[derive(Clone, Copy)]
struct Hot {
    data: Option<NonNull<u8>>,
    poll: PollFn,
}

/// What a process's op needs only when it starts, completes, is cut or
/// is torn down. The op fields are stale while the process is idle.
#[derive(Clone, Copy)]
struct Cold {
    dropper: DropFn,
    spec: OpSpec,
    /// The parked op's invocation ticket.
    inv: u64,
    /// The process's cumulative step count at that invocation.
    steps_at_inv: u64,
    /// The process's FIFO of not-yet-started ops: head and tail indices
    /// into the shared queue slab (`NIL`-terminated).
    qhead: u32,
    qtail: u32,
}

/// Fisher–Yates driven by xorshift64 — deterministic per seed, cheap
/// enough to rerun every batch round.
fn shuffle(list: &mut [u32], state: &mut u64) {
    for i in (1..list.len()).rev() {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        list.swap(i, (x % (i as u64 + 1)) as usize);
    }
}

/// The cooperative (virtual-process) execution backend. See the module
/// docs in `backend/coop.rs` for its memory layout, its gated and
/// free-running modes and how it enforces the poll contract.
pub struct CoopBackend {
    runtime: Arc<Runtime>,
    /// `false` for the free-running mode ([`Runtime::coop_free`]).
    ///
    /// [`Runtime::coop_free`]: crate::Runtime::coop_free
    gated: bool,

    /// Per-process state, indexed by pid, split by how often it is read
    /// (see the module docs).
    hot: Vec<Hot>,
    cold: Vec<Cold>,
    /// The queue slab every process's FIFO links into.
    nodes: Vec<QNode>,
    free_node: u32,

    arena: TaskArena,
    /// Produced events awaiting a drain (or a `wait_event` pop).
    events: VecDeque<OpRecord>,

    // Free-running mode only: the batch-poll round state.
    /// Pids with a parked task, in batch order. Entries in
    /// `[0, sweep_keep)` were polled this round and are still parked;
    /// `[sweep_pos, len)` have not been polled yet; the gap is garbage
    /// compacted away when the round completes.
    runnable: Vec<u32>,
    in_runnable: Vec<bool>,
    sweep_pos: usize,
    sweep_keep: usize,
    /// A round whose batch order has not been (re)shuffled yet.
    round_fresh: bool,
    /// Seeded xorshift64 state for shuffled batch order; `None` keeps
    /// submission order.
    batch_rng: Option<u64>,

    /// The one context every poll runs under, re-pointed at the polled
    /// process; its access record lists the primitives applied since
    /// the last `submit`, `step` or batch poll began.
    ctx: ProcCtx,
    metrics: &'static CoopMetrics,
}

// SAFETY: every raw pointer (arena chunks, installed payloads, slab
// links) points into memory the backend exclusively owns, and every
// payload is some `T: OpTask` (so `Send`) written by `submit_task`;
// moving the backend between threads moves that ownership wholesale.
unsafe impl Send for CoopBackend {}

impl CoopBackend {
    /// A gated backend for the virtual processes of a coop runtime.
    ///
    /// # Panics
    /// Panics unless `runtime` was built by [`Runtime::coop`]
    /// (free-running coop runtimes take [`new_free`](CoopBackend::new_free)).
    ///
    /// [`Runtime::coop`]: crate::Runtime::coop
    pub fn new(runtime: Arc<Runtime>) -> Self {
        assert_eq!(
            runtime.mode(),
            Mode::Gated,
            "CoopBackend::new requires a gated coop runtime (Runtime::coop); \
             free-running coop runtimes take CoopBackend::new_free"
        );
        CoopBackend::build(runtime, None)
    }

    /// A **free-running** backend over a [`Runtime::coop_free`]
    /// runtime: no grant discipline — `wait_event` batch-polls every
    /// runnable task in rounds, in ascending submission order.
    ///
    /// # Panics
    /// Panics unless `runtime` was built by [`Runtime::coop_free`].
    ///
    /// [`Runtime::coop_free`]: crate::Runtime::coop_free
    pub fn new_free(runtime: Arc<Runtime>) -> Self {
        assert_eq!(
            runtime.mode(),
            Mode::FreeRunning,
            "CoopBackend::new_free requires a free-running coop runtime (Runtime::coop_free)"
        );
        CoopBackend::build(runtime, None)
    }

    /// Like [`new_free`](CoopBackend::new_free), but each batch round
    /// polls in a seeded pseudo-random order instead of submission
    /// order. Still fully deterministic: the same seed replays the same
    /// execution.
    pub fn new_free_seeded(runtime: Arc<Runtime>, seed: u64) -> Self {
        assert_eq!(
            runtime.mode(),
            Mode::FreeRunning,
            "CoopBackend::new_free_seeded requires a free-running coop runtime (Runtime::coop_free)"
        );
        // xorshift fixed point: state 0 would never leave 0.
        let state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        CoopBackend::build(runtime, Some(state))
    }

    fn build(runtime: Arc<Runtime>, batch_rng: Option<u64>) -> Self {
        assert!(
            runtime.is_coop(),
            "CoopBackend requires a coop runtime (Runtime::coop / Runtime::coop_free)"
        );
        let n = runtime.n();
        u32::try_from(n).expect("the coop backend indexes processes with u32");
        let gated = runtime.mode() == Mode::Gated;
        let idle_hot = Hot {
            data: None,
            poll: idle_poll,
        };
        let idle_cold = Cold {
            dropper: idle_drop,
            spec: OpSpec::read(),
            inv: 0,
            steps_at_inv: 0,
            qhead: NIL,
            qtail: NIL,
        };
        CoopBackend {
            gated,
            hot: vec![idle_hot; n],
            cold: vec![idle_cold; n],
            nodes: Vec::with_capacity(n),
            free_node: NIL,
            arena: TaskArena::default(),
            events: VecDeque::new(),
            runnable: Vec::new(),
            in_runnable: if gated { Vec::new() } else { vec![false; n] },
            sweep_pos: 0,
            sweep_keep: 0,
            round_fresh: true,
            batch_rng,
            metrics: metrics(),
            ctx: ProcCtx::recording(runtime.clone()),
            runtime,
        }
    }

    fn push_queued(
        &mut self,
        pid: usize,
        spec: OpSpec,
        data: NonNull<u8>,
        poll: PollFn,
        dropper: DropFn,
    ) {
        let node = QNode {
            spec,
            data: Some(data),
            poll,
            dropper,
            next: NIL,
        };
        let idx = if self.free_node != NIL {
            let idx = self.free_node;
            self.free_node = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("queue slab index fits u32");
            self.nodes.push(node);
            idx
        };
        let cold = &mut self.cold[pid];
        if cold.qtail == NIL {
            cold.qhead = idx;
        } else {
            self.nodes[cold.qtail as usize].next = idx;
        }
        cold.qtail = idx;
    }

    fn pop_queued(&mut self, pid: usize) -> Option<(OpSpec, NonNull<u8>, PollFn, DropFn)> {
        let cold = &mut self.cold[pid];
        let idx = cold.qhead;
        if idx == NIL {
            return None;
        }
        let node = &mut self.nodes[idx as usize];
        let data = node.data.take().expect("queued node holds a task");
        let out = (node.spec, data, node.poll, node.dropper);
        cold.qhead = node.next;
        if cold.qhead == NIL {
            cold.qtail = NIL;
        }
        node.next = self.free_node;
        self.free_node = idx;
        Some(out)
    }

    /// Start queued operations until one parks at a primitive or the
    /// queue runs dry: trace the invocation (gated mode), run the
    /// priming poll, and complete zero-primitive operations on the spot.
    /// The context must already point at `pid`; priming polls add to
    /// its access record without clearing it.
    fn advance(&mut self, pid: usize) {
        debug_assert!(self.hot[pid].data.is_none());
        debug_assert_eq!(self.ctx.pid(), pid);
        while let Some((spec, data, poll, dropper)) = self.pop_queued(pid) {
            let inv = self.runtime.ticket();
            let steps_at_inv = self.runtime.steps_of(pid);
            if self.gated {
                // Free-running mode grants nothing, so like the thread
                // backend's its stream carries no controller events.
                self.ctx.trace(|| TraceEvent::Invoke {
                    seq: 0,
                    pid,
                    kind: spec.kind(0),
                    inv,
                });
            }
            self.metrics.polls.inc();
            // SAFETY: `data` is the live, exclusively-owned task
            // installed for this op.
            let polled = unsafe { poll(data, &self.ctx) };
            assert!(
                self.runtime.steps_of(pid) == steps_at_inv,
                "OpTask contract violation (pid {pid}, op {:?}): the priming poll \
                 applied a primitive before any step was granted",
                spec.kind(0).label(),
            );
            match polled {
                Poll::Ready(ret) => {
                    let resp = self.runtime.ticket();
                    if self.gated {
                        self.ctx.trace(|| TraceEvent::Complete {
                            seq: 0,
                            pid,
                            kind: spec.kind(ret),
                            resp,
                        });
                    }
                    self.events.push_back(OpRecord {
                        pid,
                        kind: spec.kind(ret),
                        inv,
                        resp: Some(resp),
                        steps: self.runtime.steps_of(pid) - steps_at_inv,
                    });
                    // SAFETY: the op completed; never polled again.
                    unsafe { self.arena.retire(data, dropper) };
                }
                Poll::Pending => {
                    self.hot[pid] = Hot {
                        data: Some(data),
                        poll,
                    };
                    let cold = &mut self.cold[pid];
                    cold.dropper = dropper;
                    cold.spec = spec;
                    cold.inv = inv;
                    cold.steps_at_inv = steps_at_inv;
                    return;
                }
            }
        }
    }

    /// Record the parked op's completion and retire its task.
    fn complete_parked(&mut self, pid: usize, data: NonNull<u8>, ret: u128) {
        self.hot[pid].data = None;
        let Cold {
            dropper,
            spec,
            inv,
            steps_at_inv,
            ..
        } = self.cold[pid];
        let resp = self.runtime.ticket();
        if self.gated {
            self.ctx.trace(|| TraceEvent::Complete {
                seq: 0,
                pid,
                kind: spec.kind(ret),
                resp,
            });
        }
        self.events.push_back(OpRecord {
            pid,
            kind: spec.kind(ret),
            inv,
            resp: Some(resp),
            steps: self.runtime.steps_of(pid) - steps_at_inv,
        });
        // SAFETY: the op completed; the task is never polled again.
        unsafe { self.arena.retire(data, dropper) };
    }

    /// Free-running mode: poll the next runnable task in batch order.
    /// Rounds are resumable — `wait_event` consumes one record at a
    /// time, and pausing mid-round keeps the event buffer O(1) instead
    /// of O(n) while preserving the exact poll order of full rounds.
    fn sweep_one(&mut self) {
        if self.sweep_pos >= self.runnable.len() {
            // Round complete: compact away pids that went idle (the
            // survivors keep their relative order) and rewind.
            self.runnable.truncate(self.sweep_keep);
            self.sweep_pos = 0;
            self.sweep_keep = 0;
            self.round_fresh = true;
            assert!(
                !self.runnable.is_empty(),
                "wait_event(): nothing runnable and no buffered event — \
                 every submitted operation has completed"
            );
        }
        if self.round_fresh {
            self.round_fresh = false;
            if let Some(state) = &mut self.batch_rng {
                shuffle(&mut self.runnable[self.sweep_pos..], state);
            }
        }
        let pid = self.runnable[self.sweep_pos] as usize;
        self.sweep_pos += 1;
        self.metrics.polls.inc();
        let Hot {
            data: Some(data),
            poll,
        } = self.hot[pid]
        else {
            // Defensive: a stale entry (should not occur — entries are
            // compacted the round their pid goes idle).
            self.in_runnable[pid] = false;
            return;
        };
        let before = self.runtime.steps_of(pid);
        self.ctx.begin(pid);
        // SAFETY: the parked task is live and exclusively ours.
        let polled = unsafe { poll(data, &self.ctx) };
        let applied = self.runtime.steps_of(pid) - before;
        assert!(
            applied == 1,
            "OpTask contract violation (pid {pid}, op {:?}): a granted step must \
             apply exactly one primitive, got {applied}",
            self.cold[pid].spec.kind(0).label(),
        );
        if let Poll::Ready(ret) = polled {
            self.complete_parked(pid, data, ret);
            self.advance(pid);
        }
        if self.hot[pid].data.is_some() {
            self.runnable[self.sweep_keep] = pid as u32;
            self.sweep_keep += 1;
        } else {
            self.in_runnable[pid] = false;
        }
    }

    /// Gated mode: grant `pid` one primitive by polling its parked task
    /// once, or report that it has nothing in flight (every operation
    /// submitted to it has completed). Returns with every trace event
    /// delivered.
    pub fn step(&mut self, pid: usize) -> StepOutcome {
        let out = self.grant(pid);
        self.flush_trace();
        out
    }

    /// [`step`](CoopBackend::step), leaving the step's trace events in
    /// the context's buffer for a later [`flush_trace`](CoopBackend::flush_trace).
    pub(crate) fn grant(&mut self, pid: usize) -> StepOutcome {
        assert!(self.gated, "step() requires a gated runtime");
        self.ctx.begin(pid);
        let Hot {
            data: Some(data),
            poll,
        } = self.hot[pid]
        else {
            debug_assert!(self.cold[pid].qhead == NIL);
            return StepOutcome::Completed;
        };
        let before = self.runtime.steps_of(pid);
        self.ctx.trace(|| TraceEvent::Grant { seq: 0, pid });
        self.metrics.polls.inc();
        // SAFETY: the parked task is live and exclusively ours.
        let polled = unsafe { poll(data, &self.ctx) };
        let applied = self.runtime.steps_of(pid) - before;
        assert!(
            applied == 1,
            "OpTask contract violation (pid {pid}, op {:?}): a granted step must \
             apply exactly one primitive, got {applied}",
            self.cold[pid].spec.kind(0).label(),
        );
        if let Poll::Ready(ret) = polled {
            self.complete_parked(pid, data, ret);
            self.advance(pid);
        }
        StepOutcome::Stepped
    }

    /// Trace events buffered since the last flush.
    pub(crate) fn buffered_trace(&mut self) -> usize {
        self.ctx.buffered_trace()
    }

    /// Deliver the buffered trace events as one batch.
    pub(crate) fn flush_trace(&mut self) {
        self.ctx.flush_trace();
    }

    /// Gated mode: the pending record of `pid`'s parked operation — its
    /// invocation, with the steps it has taken so far — or `None` if
    /// `pid` is idle. Free-running mode has none: nothing there can be
    /// suspended mid-operation.
    pub(crate) fn pending(&self, pid: usize) -> Option<OpRecord> {
        if !self.gated {
            return None;
        }
        self.hot[pid].data?;
        let cold = &self.cold[pid];
        Some(OpRecord {
            pid,
            kind: cold.spec.kind(0),
            inv: cold.inv,
            resp: None,
            steps: self.runtime.steps_of(pid) - cold.steps_at_inv,
        })
    }

    /// The `(object, kind)` of every primitive applied since the last
    /// `submit`, `step` or batch poll began: after a granted step (or a
    /// batch poll), exactly its one primitive. Empty after a `step`
    /// that found nothing parked.
    pub(crate) fn touched(&self) -> Ref<'_, [(usize, AccessKind)]> {
        self.ctx.touched()
    }

    /// Queue an installed task for `pid`, starting it at once if `pid`
    /// has nothing in flight.
    fn enqueue(
        &mut self,
        pid: usize,
        spec: OpSpec,
        data: NonNull<u8>,
        poll: PollFn,
        dropper: DropFn,
    ) {
        self.push_queued(pid, spec, data, poll, dropper);
        self.ctx.begin(pid);
        if self.hot[pid].data.is_none() {
            self.advance(pid);
            self.flush_trace();
        }
        if !self.gated && self.hot[pid].data.is_some() && !self.in_runnable[pid] {
            self.in_runnable[pid] = true;
            self.runnable.push(pid as u32);
        }
    }

    /// Teardown: run every parked operation and everything queued behind
    /// it (crashed processes included) to completion ungated, so a
    /// dropped driver leaves shared memory as if every submitted
    /// operation finished.
    fn shutdown(&mut self) {
        // Records are discarded — and so is the analysis stream: teardown
        // polls happen outside the modelled execution, so the sink is
        // sealed before the first one (and after the last modelled event
        // is delivered). The trace log still records the teardown polls'
        // accesses.
        self.flush_trace();
        self.runtime.seal_analysis();
        for pid in 0..self.hot.len() {
            self.ctx.begin(pid);
            if let Some(data) = self.hot[pid].data.take() {
                let poll = self.hot[pid].poll;
                let dropper = self.cold[pid].dropper;
                // SAFETY: the parked task is live; retired right after
                // its final poll.
                unsafe {
                    while poll(data, &self.ctx).is_pending() {}
                    self.arena.retire(data, dropper);
                }
            }
            while let Some((_spec, data, poll, dropper)) = self.pop_queued(pid) {
                // SAFETY: as above; queued tasks start from their
                // priming poll.
                unsafe {
                    while poll(data, &self.ctx).is_pending() {}
                    self.arena.retire(data, dropper);
                }
            }
        }
        self.flush_trace();
    }
}

impl ExecBackend for CoopBackend {
    fn submit_task<T: OpTask + 'static>(&mut self, pid: usize, spec: OpSpec, task: T) {
        let data = self.arena.install_value(task);
        self.enqueue(pid, spec, data, poll_shim::<T>, drop_shim::<T>);
    }

    fn drain(&mut self, sink: &mut dyn FnMut(OpRecord)) {
        for rec in self.events.drain(..) {
            sink(rec);
        }
    }

    fn wait_event(&mut self) -> OpRecord {
        assert!(
            !self.gated,
            "wait_event() requires a free-running runtime (gated executions are stepped)"
        );
        while self.events.is_empty() {
            self.sweep_one();
        }
        self.flush_trace();
        self.events.pop_front().expect("just produced an event")
    }
}

impl Drop for CoopBackend {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // During a panic unwind (e.g. a contract violation) the
            // tasks are suspect; re-polling them could panic again and
            // abort. Run their destructors without polling so owned
            // resources are released before the arena frees its chunks.
            for pid in 0..self.hot.len() {
                if let Some(data) = self.hot[pid].data.take() {
                    let dropper = self.cold[pid].dropper;
                    // SAFETY: live parked task, dropped exactly once.
                    unsafe { self.arena.retire(data, dropper) };
                }
                while let Some((_spec, data, _poll, dropper)) = self.pop_queued(pid) {
                    // SAFETY: live queued task, dropped exactly once.
                    unsafe { self.arena.retire(data, dropper) };
                }
            }
        } else {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Register, Runtime};
    use std::cell::Cell;

    thread_local! {
        /// Probe drops on the current thread: each test reads the
        /// difference across its own submissions.
        static DROPS: Cell<usize> = const { Cell::new(0) };
    }

    fn drops() -> usize {
        DROPS.with(Cell::get)
    }

    /// Counts its drop in [`DROPS`]; zero-sized.
    struct DropCount;

    impl Drop for DropCount {
        fn drop(&mut self) {
            DROPS.with(|d| d.set(d.get() + 1));
        }
    }

    /// A task carrying `payload` that writes its register `writes` times,
    /// one write per granted poll.
    struct Probe<P> {
        _payload: P,
        reg: Arc<Register>,
        writes: u32,
        primed: bool,
        _count: DropCount,
    }

    fn probe<P>(payload: P, reg: &Arc<Register>, writes: u32) -> Probe<P> {
        Probe {
            _payload: payload,
            reg: reg.clone(),
            writes,
            primed: false,
            _count: DropCount,
        }
    }

    impl<P: Send> OpTask for Probe<P> {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            if self.primed {
                self.reg.write(ctx, 1);
                self.writes -= 1;
            }
            self.primed = true;
            if self.writes == 0 {
                Poll::Ready(0)
            } else {
                Poll::Pending
            }
        }
    }

    /// A zero-sized task that completes on its priming poll.
    struct ZstTask(DropCount);

    impl OpTask for ZstTask {
        fn poll(&mut self, _ctx: &ProcCtx) -> Poll<u128> {
            Poll::Ready(0)
        }
    }

    #[repr(align(128))]
    struct Wide;

    /// Submit `task` as an increment.
    fn submit<T: OpTask + 'static>(b: &mut CoopBackend, pid: usize, task: T) {
        b.submit_task(pid, OpSpec::inc(), task);
    }

    fn gated(n: usize) -> CoopBackend {
        CoopBackend::new(Runtime::coop(n))
    }

    /// Grant `pid` steps until it has nothing left.
    fn run_out(b: &mut CoopBackend, pid: usize) {
        while b.step(pid) == StepOutcome::Stepped {}
    }

    #[test]
    fn a_grant_reads_16_bytes_of_per_process_state() {
        // The hot array's entry, what the module docs' layout argument
        // rests on: four processes per 64-byte cache line.
        assert_eq!(std::mem::size_of::<Hot>(), 16);
    }

    #[test]
    fn every_path_drops_each_task_exactly_once() {
        let reg = Arc::new(Register::new(0));
        let before = drops();
        let mut b = gated(4);
        // Completed: one write, granted.
        submit(&mut b, 0, probe(0u64, &reg, 1));
        assert_eq!(b.step(0), StepOutcome::Stepped);
        assert_eq!(drops() - before, 1, "completed task dropped");
        // Parked at teardown: one of two writes granted.
        submit(&mut b, 1, probe(1u64, &reg, 2));
        assert_eq!(b.step(1), StepOutcome::Stepped);
        // Queued at teardown, behind a parked task.
        submit(&mut b, 2, probe(2u64, &reg, 1));
        submit(&mut b, 2, probe(3u64, &reg, 1));
        // Crashed, as the backend sees it (`Driver::crash`): never
        // granted again while others run.
        submit(&mut b, 3, probe(4u64, &reg, 2));
        assert_eq!(b.step(3), StepOutcome::Stepped);
        run_out(&mut b, 1);
        assert_eq!(drops() - before, 2, "nothing else retired");
        drop(b);
        assert_eq!(drops() - before, 5, "teardown drops the rest");

        // Dropped during a panic unwind: parked and queued tasks are
        // dropped without being polled again.
        let before = drops();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b = gated(2);
            submit(&mut b, 0, probe(5u64, &reg, 2));
            submit(&mut b, 0, probe(6u64, &reg, 2));
            assert_eq!(b.step(0), StepOutcome::Stepped);
            submit(&mut b, 1, probe(7u64, &reg, 1));
            panic!("unwind with live tasks");
        }));
        assert!(unwound.is_err());
        assert_eq!(drops() - before, 3, "unwind drops every task");
    }

    #[test]
    fn zero_sized_and_overaligned_payloads() {
        assert_eq!(std::mem::size_of::<ZstTask>(), 0);
        let reg = Arc::new(Register::new(0));
        let before = drops();
        let mut b = gated(2);
        // Completes at submission.
        submit(&mut b, 0, ZstTask(DropCount));
        assert_eq!(drops() - before, 1);
        submit(&mut b, 1, probe(Wide, &reg, 2));
        let at = b.hot[1].data.expect("parked").as_ptr() as usize;
        assert_eq!(at % 128, 0, "align(128) payload misplaced");
        // Queued behind the parked task, then run.
        submit(&mut b, 1, ZstTask(DropCount));
        submit(&mut b, 1, probe(Wide, &reg, 1));
        run_out(&mut b, 1);
        assert_eq!(drops() - before, 4);
        // Queued at teardown.
        submit(&mut b, 0, probe(Wide, &reg, 1));
        submit(&mut b, 0, ZstTask(DropCount));
        drop(b);
        assert_eq!(drops() - before, 6);
    }

    #[test]
    fn chunks_start_at_4_kib_and_double_up_to_chunk_size() {
        let reg = Arc::new(Register::new(0));
        let mut b = gated(1);
        // One parked task, the rest queued behind it: all stay live.
        while b.arena.chunks.len() < 11 {
            b.submit_task(0, OpSpec::inc(), probe([0u8; 2000], &reg, 1));
        }
        let sizes: Vec<usize> = b.arena.chunks.iter().map(|c| c.layout.size()).collect();
        assert!(sizes[0] <= 4 << 10, "{sizes:?}");
        for pair in sizes.windows(2) {
            assert_eq!(pair[1], (2 * pair[0]).min(CHUNK_SIZE), "{sizes:?}");
        }
        assert_eq!(sizes[9..], [CHUNK_SIZE, CHUNK_SIZE], "{sizes:?}");
    }

    #[test]
    fn a_payload_larger_than_chunk_size_gets_a_chunk_of_its_own() {
        const BIG: usize = CHUNK_SIZE + 1;
        // The payload passes through several frames by value.
        let worker = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let reg = Arc::new(Register::new(0));
                let before = drops();
                let mut b = gated(1);
                submit(&mut b, 0, probe(0u64, &reg, 1));
                submit(&mut b, 0, probe([7u8; BIG], &reg, 1));
                let big = b.arena.chunks.last().expect("a chunk").layout.size();
                assert!(big >= BIG, "{big}");
                run_out(&mut b, 0);
                assert_eq!(reg.peek(), 1);
                assert_eq!(drops() - before, 2);
            })
            .expect("spawn the big-stack test thread");
        worker.join().expect("the test thread passes");
    }

    #[test]
    fn a_second_generation_reuses_the_chunks_without_allocating() {
        let reg = Arc::new(Register::new(0));
        let mut b = gated(4);
        let chunks = |b: &CoopBackend| -> Vec<(usize, usize)> {
            let arena = &b.arena;
            arena
                .chunks
                .iter()
                .map(|c| (c.ptr.as_ptr() as usize, c.layout.size()))
                .collect()
        };
        let generation = |b: &mut CoopBackend| -> Vec<usize> {
            let mut first = Vec::new();
            for pid in 0..4 {
                for _ in 0..8 {
                    b.submit_task(pid, OpSpec::inc(), probe([0u8; 300], &reg, 2));
                }
                first.push(b.hot[pid].data.expect("parked").as_ptr() as usize);
            }
            for pid in 0..4 {
                run_out(b, pid);
            }
            assert_eq!(b.arena.live, 0);
            first
        };
        let first = generation(&mut b);
        let grown = chunks(&b);
        assert!(grown.len() > 1, "the generation spans several chunks");
        let second = generation(&mut b);
        assert_eq!(chunks(&b), grown, "no chunk added or replaced");
        assert_eq!(second, first, "the cursor rewound to the first chunk");
    }
}
