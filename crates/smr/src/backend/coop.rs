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
//!   16 bytes per process. The cold array holds the rest in 48 bytes:
//!   the task's vtable, the op's packed spec, its invocation ticket,
//!   the process's step count at the invocation and the head and tail
//!   of its submission queue, read only when an op starts, completes,
//!   is cut or is torn down. The two are not one struct because a gated
//!   run over 10⁴ processes under a random schedule reads the hot
//!   fields of a different process at every grant, from a working set
//!   larger than L2: one struct per process would spread those reads
//!   over four times the memory.
//! * **Arena-allocated task state.** Task payloads live in a bump
//!   arena ([`TaskArena`]), reached through a thin payload pointer plus
//!   one `&'static` vtable per task type ([`TaskVtable`]: the poll and
//!   drop shims instantiated for the task's concrete type).
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
//!   not per-process `VecDeque` heap buffers: 40 bytes per queued op,
//!   its packed spec, payload pointer, vtable and link. The slab starts
//!   with room for one node per process, so a program that queues one
//!   op behind each in-flight one (the explorer's) never regrows it.
//! * **Packed specs.** A queued or parked op's [`OpSpec`] is kept in 16
//!   bytes ([`Packed`]): `Inc`, `Read` and `Write` carry their `u64`
//!   inline. A `Custom` op's label and `u128` argument would double
//!   that, so they wait in the backend's slot table ([`CustomSlots`])
//!   and the packed spec names the slot. A slot is taken at submission
//!   and freed when its op completes, and freed slots are reused, so
//!   the table holds one slot per queued or parked `Custom` op and
//!   allocates nothing per submission once warm. A crashed op never
//!   completes: it keeps its slot, from which its pending record is
//!   built, until teardown.
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
use crate::history::{OpKind, OpRecord, OpSpec};
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

/// A task type's shims, one `&'static` per type: what a queued or
/// parked op stores to reach its payload's code, in one pointer.
struct TaskVtable {
    poll: PollFn,
    drop: DropFn,
}

/// The backend's registered metrics, resolved once per process (the
/// handles are `&'static`, so building a backend pays one `OnceLock`
/// load instead of a registry lookup per metric).
struct CoopMetrics {
    /// Every task poll: priming polls in `advance`, granted polls in
    /// `step`, batch polls in `sweep_one`. Counted in
    /// `CoopBackend::polls` and added in batches, so the poll loop pays
    /// no atomic read-modify-write.
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

/// An [`OpSpec`] in 16 bytes: `Custom`'s label and argument sit in the
/// backend's [`CustomSlots`], and the packed spec names their slot.
#[derive(Clone, Copy)]
enum Packed {
    Inc { amount: u64 },
    Read,
    Write { value: u64 },
    Custom { slot: u32 },
}

/// One entry of [`CustomSlots`].
enum Slot {
    Taken {
        label: &'static str,
        arg: u128,
    },
    /// A freed slot: the next one in the free list, or `NIL`.
    Free {
        next: u32,
    },
}

/// The label and argument of every queued or parked `Custom` op, by
/// slot. A slot is taken at submission and freed when its op completes;
/// freed slots form a list threaded through the table and are reused
/// first, so the table holds one slot per `Custom` op in flight, not
/// one per op ever submitted.
struct CustomSlots {
    slots: Vec<Slot>,
    /// Head of the free list (`NIL` if empty).
    free: u32,
}

impl CustomSlots {
    fn new() -> Self {
        CustomSlots {
            slots: Vec::new(),
            free: NIL,
        }
    }

    /// `spec` packed, taking a slot if it is `Custom`.
    fn pack(&mut self, spec: OpSpec) -> Packed {
        match spec {
            OpSpec::Inc { amount } => Packed::Inc { amount },
            OpSpec::Read => Packed::Read,
            OpSpec::Write { value } => Packed::Write { value },
            OpSpec::Custom { label, arg } => {
                let taken = Slot::Taken { label, arg };
                let slot = if self.free == NIL {
                    let slot = u32::try_from(self.slots.len()).expect("custom slot fits u32");
                    self.slots.push(taken);
                    slot
                } else {
                    let slot = self.free;
                    let Slot::Free { next } = self.slots[slot as usize] else {
                        unreachable!("custom slot {slot} is on the free list but taken");
                    };
                    self.free = next;
                    self.slots[slot as usize] = taken;
                    slot
                };
                Packed::Custom { slot }
            }
        }
    }

    /// The recorded event of `spec` once its task returned `ret`
    /// ([`OpSpec::kind`]); a `Custom` slot stays taken.
    fn kind(&self, spec: Packed, ret: u128) -> OpKind {
        match spec {
            Packed::Inc { amount } => OpKind::Inc { amount },
            Packed::Read => OpKind::Read { returned: ret },
            Packed::Write { value } => OpKind::Write { value },
            Packed::Custom { slot } => match self.slots[slot as usize] {
                Slot::Taken { label, arg } => OpKind::Custom { label, arg, ret },
                Slot::Free { .. } => unreachable!("custom slot {slot} read after it was freed"),
            },
        }
    }

    /// The completion record of `spec` returning `ret`: its event, with
    /// a `Custom` slot freed, since its op will never be read again.
    fn complete(&mut self, spec: Packed, ret: u128) -> OpKind {
        let kind = self.kind(spec, ret);
        if let Packed::Custom { slot } = spec {
            self.slots[slot as usize] = Slot::Free { next: self.free };
            self.free = slot;
        }
        kind
    }
}

/// A queued (submitted, not yet started) op in the shared slab.
/// `data: None` marks a free-list node.
struct QNode {
    spec: Packed,
    data: Option<NonNull<u8>>,
    vtable: &'static TaskVtable,
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

/// The vtable an idle process's entries point at.
static IDLE: TaskVtable = TaskVtable {
    poll: idle_poll,
    drop: idle_drop,
};

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
    vtable: &'static TaskVtable,
    spec: Packed,
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
    custom: CustomSlots,

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
    /// Polls not yet added to `coop.polls_total`: counted here, not
    /// with one atomic add per poll, and published once per batch
    /// round, at every drain and at teardown.
    polls: u64,
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
            poll: IDLE.poll,
        };
        let idle_cold = Cold {
            vtable: &IDLE,
            spec: Packed::Read,
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
            custom: CustomSlots::new(),
            arena: TaskArena::default(),
            events: VecDeque::new(),
            runnable: Vec::new(),
            in_runnable: if gated { Vec::new() } else { vec![false; n] },
            sweep_pos: 0,
            sweep_keep: 0,
            round_fresh: true,
            batch_rng,
            metrics: metrics(),
            polls: 0,
            ctx: ProcCtx::recording(runtime.clone()),
            runtime,
        }
    }

    /// Add the polls counted since the last publish to
    /// `coop.polls_total`.
    fn publish_polls(&mut self) {
        if self.polls != 0 {
            self.metrics.polls.add(self.polls);
            self.polls = 0;
        }
    }

    fn push_queued(
        &mut self,
        pid: usize,
        spec: Packed,
        data: NonNull<u8>,
        vtable: &'static TaskVtable,
    ) {
        let node = QNode {
            spec,
            data: Some(data),
            vtable,
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

    fn pop_queued(&mut self, pid: usize) -> Option<(Packed, NonNull<u8>, &'static TaskVtable)> {
        let cold = &mut self.cold[pid];
        let idx = cold.qhead;
        if idx == NIL {
            return None;
        }
        let node = &mut self.nodes[idx as usize];
        let data = node.data.take().expect("queued node holds a task");
        let out = (node.spec, data, node.vtable);
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
        while let Some((spec, data, vtable)) = self.pop_queued(pid) {
            let inv = self.runtime.ticket();
            let steps_at_inv = self.runtime.steps_of(pid);
            if self.gated {
                // Free-running mode grants nothing, so like the thread
                // backend's its stream carries no controller events.
                self.ctx.trace(|| TraceEvent::Invoke {
                    seq: 0,
                    pid,
                    kind: self.custom.kind(spec, 0),
                    inv,
                });
            }
            self.polls += 1;
            // SAFETY: `data` is the live, exclusively-owned task
            // installed for this op.
            let polled = unsafe { (vtable.poll)(data, &self.ctx) };
            assert!(
                self.runtime.steps_of(pid) == steps_at_inv,
                "OpTask contract violation (pid {pid}, op {:?}): the priming poll \
                 applied a primitive before any step was granted",
                self.custom.kind(spec, 0).label(),
            );
            match polled {
                Poll::Ready(ret) => {
                    let resp = self.runtime.ticket();
                    let kind = self.custom.complete(spec, ret);
                    if self.gated {
                        self.ctx.trace(|| TraceEvent::Complete {
                            seq: 0,
                            pid,
                            kind,
                            resp,
                        });
                    }
                    self.events.push_back(OpRecord {
                        pid,
                        kind,
                        inv,
                        resp: Some(resp),
                        steps: self.runtime.steps_of(pid) - steps_at_inv,
                    });
                    // SAFETY: the op completed; never polled again.
                    unsafe { self.arena.retire(data, vtable.drop) };
                }
                Poll::Pending => {
                    self.hot[pid] = Hot {
                        data: Some(data),
                        poll: vtable.poll,
                    };
                    let cold = &mut self.cold[pid];
                    cold.vtable = vtable;
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
            vtable,
            spec,
            inv,
            steps_at_inv,
            ..
        } = self.cold[pid];
        let resp = self.runtime.ticket();
        let kind = self.custom.complete(spec, ret);
        if self.gated {
            self.ctx.trace(|| TraceEvent::Complete {
                seq: 0,
                pid,
                kind,
                resp,
            });
        }
        self.events.push_back(OpRecord {
            pid,
            kind,
            inv,
            resp: Some(resp),
            steps: self.runtime.steps_of(pid) - steps_at_inv,
        });
        // SAFETY: the op completed; the task is never polled again.
        unsafe { self.arena.retire(data, vtable.drop) };
    }

    /// Free-running mode: poll the next runnable task in batch order.
    /// Rounds are resumable — `wait_event` consumes one record at a
    /// time, and pausing mid-round keeps the event buffer O(1) instead
    /// of O(n) while preserving the exact poll order of full rounds.
    fn sweep_one(&mut self) {
        if self.sweep_pos >= self.runnable.len() {
            // Round complete: publish its polls, compact away pids that
            // went idle (the survivors keep their relative order) and
            // rewind.
            self.publish_polls();
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
        self.polls += 1;
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
            self.custom.kind(self.cold[pid].spec, 0).label(),
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
        self.polls += 1;
        // SAFETY: the parked task is live and exclusively ours.
        let polled = unsafe { poll(data, &self.ctx) };
        let applied = self.runtime.steps_of(pid) - before;
        assert!(
            applied == 1,
            "OpTask contract violation (pid {pid}, op {:?}): a granted step must \
             apply exactly one primitive, got {applied}",
            self.custom.kind(self.cold[pid].spec, 0).label(),
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
            kind: self.custom.kind(cold.spec, 0),
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
        vtable: &'static TaskVtable,
    ) {
        let spec = self.custom.pack(spec);
        self.push_queued(pid, spec, data, vtable);
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
        // accesses. With no record built, no `Custom` slot is freed: the
        // table drops with the backend.
        self.flush_trace();
        self.runtime.seal_analysis();
        for pid in 0..self.hot.len() {
            self.ctx.begin(pid);
            if let Some(data) = self.hot[pid].data.take() {
                let vtable = self.cold[pid].vtable;
                // SAFETY: the parked task is live; retired right after
                // its final poll.
                unsafe {
                    while (vtable.poll)(data, &self.ctx).is_pending() {}
                    self.arena.retire(data, vtable.drop);
                }
            }
            while let Some((_spec, data, vtable)) = self.pop_queued(pid) {
                // SAFETY: as above; queued tasks start from their
                // priming poll.
                unsafe {
                    while (vtable.poll)(data, &self.ctx).is_pending() {}
                    self.arena.retire(data, vtable.drop);
                }
            }
        }
        self.flush_trace();
    }
}

impl ExecBackend for CoopBackend {
    fn submit_task<T: OpTask + 'static>(&mut self, pid: usize, spec: OpSpec, task: T) {
        let data = self.arena.install_value(task);
        // A constant expression, so the reference is promoted to a
        // `'static`: one vtable per task type.
        let vtable = &TaskVtable {
            poll: poll_shim::<T>,
            drop: drop_shim::<T>,
        };
        self.enqueue(pid, spec, data, vtable);
    }

    fn drain(&mut self, sink: &mut dyn FnMut(OpRecord)) {
        self.publish_polls();
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
        self.publish_polls();
        if std::thread::panicking() {
            // During a panic unwind (e.g. a contract violation) the
            // tasks are suspect; re-polling them could panic again and
            // abort. Run their destructors without polling so owned
            // resources are released before the arena frees its chunks.
            for pid in 0..self.hot.len() {
                if let Some(data) = self.hot[pid].data.take() {
                    let drop = self.cold[pid].vtable.drop;
                    // SAFETY: live parked task, dropped exactly once.
                    unsafe { self.arena.retire(data, drop) };
                }
                while let Some((_spec, data, vtable)) = self.pop_queued(pid) {
                    // SAFETY: live queued task, dropped exactly once.
                    unsafe { self.arena.retire(data, vtable.drop) };
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
    /// one write per granted poll, then returns `ret`.
    struct Probe<P> {
        _payload: P,
        reg: Arc<Register>,
        writes: u32,
        ret: u128,
        primed: bool,
        _count: DropCount,
    }

    fn probe<P>(payload: P, reg: &Arc<Register>, writes: u32) -> Probe<P> {
        Probe {
            _payload: payload,
            reg: reg.clone(),
            writes,
            ret: 0,
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
                Poll::Ready(self.ret)
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
    fn a_queued_op_takes_40_bytes_and_a_process_64() {
        // What 10⁶ processes and a slab of 10⁵ queued ops first-touch.
        assert_eq!(std::mem::size_of::<Packed>(), 16);
        assert!(std::mem::size_of::<QNode>() <= 40);
        assert!(std::mem::size_of::<Cold>() <= 48);
        // A `Custom` op in flight adds a slot: its packed spec and slot
        // take the 48 bytes an unpacked `OpSpec` took.
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    /// The `Custom` spec of the `i`-th op submitted to `pid`: a label
    /// and an argument wider than 64 bits, both distinct per op.
    fn custom_spec(pid: usize, i: usize) -> OpSpec {
        const LABELS: [&str; 3] = ["cas", "swap", "fetch-add"];
        OpSpec::custom(LABELS[(pid + i) % 3], (1 << 100) + (pid * 1000 + i) as u128)
    }

    #[test]
    fn custom_ops_keep_label_arg_and_ret_through_every_cut() {
        const PER_PID: usize = 8;
        let reg = Arc::new(Register::new(0));
        let before = drops();
        let mut d = crate::Driver::coop(Runtime::coop(3));
        let ret = |pid: usize, i: usize| (pid * 1000 + i) as u128 + 7;
        // All queued at once: each pid's first op parks, the rest wait
        // in the slab, and every one holds a slot.
        for pid in 0..3 {
            for i in 0..PER_PID {
                let task = Probe {
                    ret: ret(pid, i),
                    ..probe((), &reg, 2)
                };
                d.submit_task(pid, custom_spec(pid, i), task);
            }
        }
        let expect = |pid: usize, i: usize, ret: u128| custom_spec(pid, i).kind(ret);
        // Completion: pid 0 runs out, in submission order.
        d.run_solo(0);
        let done: Vec<OpKind> = d.history().ops().iter().map(|r| r.kind).collect();
        let want: Vec<OpKind> = (0..PER_PID).map(|i| expect(0, i, ret(0, i))).collect();
        assert_eq!(done, want);
        // A crash: pid 1's first op, one of its two writes done.
        assert_eq!(d.step(1), StepOutcome::Stepped);
        d.crash(1);
        let crashed = d.history().ops().last().expect("a pending record").clone();
        assert_eq!((crashed.pid, crashed.resp, crashed.steps), (1, None, 1));
        assert_eq!(crashed.kind, expect(1, 0, 0));
        // A snapshot: pid 2 suspended mid-op, after its first op completed.
        for _ in 0..3 {
            assert_eq!(d.step(2), StepOutcome::Stepped);
        }
        let snap = d.history_snapshot();
        let tail: Vec<(usize, OpKind, bool)> = snap.ops()[PER_PID + 1..]
            .iter()
            .map(|r| (r.pid, r.kind, r.resp.is_some()))
            .collect();
        let want = [
            (2, expect(2, 0, ret(2, 0)), true),
            (2, expect(2, 1, 0), false),
        ];
        assert_eq!(tail, want);
        // The snapshot left the op in flight: it completes with its spec.
        assert_eq!(d.step(2), StepOutcome::Stepped);
        let resumed = d.history().ops().last().map(|r| r.kind);
        assert_eq!(resumed, Some(expect(2, 1, ret(2, 1))));
        // Teardown runs the crashed op and everything queued to its end.
        drop(d);
        assert_eq!(drops() - before, 3 * PER_PID, "every task dropped once");
    }

    #[test]
    fn sequential_custom_ops_reuse_their_slot() {
        let reg = Arc::new(Register::new(0));
        let mut b = gated(1);
        let mut kinds = Vec::new();
        for i in 0..10_000 {
            // Alternately parked at a primitive and complete at submission.
            if i % 2 == 0 {
                b.submit_task(0, custom_spec(0, i), probe((), &reg, 1));
                run_out(&mut b, 0);
            } else {
                b.submit_task(0, custom_spec(0, i), ZstTask(DropCount));
            }
            b.drain(&mut |rec| kinds.push(rec.kind));
        }
        assert!(b.custom.slots.len() <= 2, "{} slots", b.custom.slots.len());
        let want: Vec<OpKind> = (0..10_000).map(|i| custom_spec(0, i).kind(0)).collect();
        assert_eq!(kinds, want);
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
