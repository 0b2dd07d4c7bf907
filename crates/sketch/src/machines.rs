//! One-primitive-per-step machine forms of every sketch operation — the
//! single transcriptions both the blocking handle methods and the
//! [`OpTask`](smr::OpTask) wrappers ([`tasks`](crate::tasks)) drive, so
//! all submission forms apply byte-identical primitive sequences.
//!
//! Each machine composes the core machines ([`FlushMachine`],
//! [`ReadMachine`], [`KmultMaxWriteMachine`], [`KmultMaxReadMachine`])
//! under the poll contract of [`smr::task`]: a fresh sub-machine's first
//! step is its free priming step, so whenever a sub-machine completes,
//! the composite immediately primes its successor *within the same
//! step* — every granted step still applies exactly one primitive, and
//! the composite's own priming step applies none. Operations that turn
//! out to be pure bookkeeping (an add below the flush threshold, a rank
//! query covering no bucket) complete on the priming step with zero
//! primitives, exactly like zero-step closures.

use crate::quantile::QuantileHandle;
use crate::topk::{TopKHandle, TopKResult};
use approx_objects::{FlushMachine, KmultMaxReadMachine, KmultMaxWriteMachine, ReadMachine};
use smr::{Poll, ProcCtx};

/// Resume point of a [`TopKHandle::flush`]: for every key with buffered
/// units (ascending), batch the deferred increments into the key's
/// counter, read the counter back, and publish the reading to the key's
/// shard maximum.
#[derive(Default)]
pub struct TopKFlushMachine {
    phase: FlushPhase,
}

#[derive(Default)]
enum FlushPhase {
    /// Looking for the next dirty key at or after `from`.
    #[default]
    Seek,
    SeekFrom(usize),
    /// Draining `key`'s deferred units into its counter.
    Inc {
        key: usize,
        m: FlushMachine,
    },
    /// Reading `key`'s counter back.
    Read {
        key: usize,
        m: Box<ReadMachine>,
    },
    /// Publishing the reading to `key`'s shard maximum.
    Publish {
        key: usize,
        m: KmultMaxWriteMachine,
    },
    /// All dirty keys flushed.
    Done,
}

impl TopKFlushMachine {
    /// A machine flushing every key with buffered units.
    pub fn new() -> Self {
        TopKFlushMachine::default()
    }

    /// Advance the flush by at most one primitive.
    pub fn step(&mut self, h: &mut TopKHandle, ctx: &ProcCtx) -> Poll<()> {
        loop {
            match std::mem::take(&mut self.phase) {
                FlushPhase::Seek => self.phase = FlushPhase::SeekFrom(0),
                FlushPhase::SeekFrom(from) => match h.next_buffered_key(from) {
                    None => {
                        self.phase = FlushPhase::Done;
                        return Poll::Ready(());
                    }
                    Some(key) => {
                        // The drained units stop counting against the
                        // flush threshold now; the drain machine takes
                        // them from the core handle on its priming step
                        // (within this same composite step).
                        h.buffered_total -= h.counter_mut(key).deferred();
                        // Mark the key's slot hot *before* the first
                        // increment lands: readers that skip a clear
                        // slot then provably missed every increment of
                        // this flush too (see `ShardDir`).
                        let cfg = *h.sketch.config();
                        let shard = h.sketch.shard_of(key);
                        h.sketch.dir(shard).mark(key / cfg.shards);
                        self.phase = FlushPhase::Inc {
                            key,
                            m: FlushMachine::drain(),
                        };
                    }
                },
                FlushPhase::Inc { key, mut m } => match m.step(h.counter_mut(key), ctx) {
                    Poll::Pending => {
                        self.phase = FlushPhase::Inc { key, m };
                        return Poll::Pending;
                    }
                    Poll::Ready(()) => {
                        self.phase = FlushPhase::Read {
                            key,
                            m: Box::new(ReadMachine::new()),
                        };
                    }
                },
                FlushPhase::Read { key, mut m } => match m.step(h.counter_mut(key), ctx) {
                    Poll::Pending => {
                        self.phase = FlushPhase::Read { key, m };
                        return Poll::Pending;
                    }
                    Poll::Ready(out) => {
                        let bound = h.sketch.config().max_bound;
                        assert!(
                            out.value < u128::from(bound),
                            "counter reading {} exceeds the shard max-register bound \
                             {bound}; raise TopKConfig::max_bound",
                            out.value
                        );
                        let shard = h.sketch.shard_of(key);
                        let m =
                            KmultMaxWriteMachine::new(h.sketch.shard_max(shard), out.value as u64);
                        self.phase = FlushPhase::Publish { key, m };
                    }
                },
                FlushPhase::Publish { key, mut m } => {
                    let shard = h.sketch.shard_of(key);
                    match m.step(h.sketch.shard_max(shard), ctx) {
                        Poll::Pending => {
                            self.phase = FlushPhase::Publish { key, m };
                            return Poll::Pending;
                        }
                        Poll::Ready(()) => self.phase = FlushPhase::SeekFrom(key + 1),
                    }
                }
                FlushPhase::Done => return Poll::Ready(()),
            }
        }
    }
}

/// Resume point of a [`TopKHandle::add`]: buffer the units on the
/// priming step (zero primitives) and, if the buffer reached the flush
/// threshold, run a full [`TopKFlushMachine`].
pub struct TopKAddMachine {
    key: usize,
    amount: u64,
    state: AddState,
}

enum AddState {
    Start,
    Flushing(TopKFlushMachine),
    Done,
}

impl TopKAddMachine {
    /// A machine adding `amount` units to `key`.
    pub fn new(key: usize, amount: u64) -> Self {
        TopKAddMachine {
            key,
            amount,
            state: AddState::Start,
        }
    }

    /// Advance the add by at most one primitive.
    pub fn step(&mut self, h: &mut TopKHandle, ctx: &ProcCtx) -> Poll<()> {
        if let AddState::Start = self.state {
            h.defer_add(self.key, self.amount);
            if h.buffered() < h.flush_every() {
                self.state = AddState::Done;
                return Poll::Ready(());
            }
            // Threshold reached: the flush machine's priming runs within
            // this (priming) step and applies no primitive.
            self.state = AddState::Flushing(TopKFlushMachine::new());
        }
        match &mut self.state {
            AddState::Flushing(m) => match m.step(h, ctx) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(()) => {
                    self.state = AddState::Done;
                    Poll::Ready(())
                }
            },
            AddState::Done => Poll::Ready(()),
            AddState::Start => unreachable!("handled above"),
        }
    }
}

/// Resume point of a [`TopKHandle::top_k`]: read the shard maxima, then
/// scan shards in descending-maximum order, pruning once the next
/// shard's maximum cannot beat the current `q`-th candidate (see the
/// [`topk`](crate::topk) module docs).
pub struct TopKReadMachine {
    q: usize,
    /// Shard maxima, indexed by shard, filled during the max scan.
    maxima: Vec<u128>,
    /// Shard visit order (descending maximum, ties by ascending shard),
    /// built once the max scan completes.
    order: Vec<usize>,
    /// Position in `order` and key slot within the current shard
    /// (`key = shard + slot·S`).
    pos: usize,
    slot: usize,
    /// Current candidates: descending count, ties by ascending key.
    candidates: Vec<(u128, u64)>,
    phase: ReadPhase,
}

enum ReadPhase {
    Start,
    MaxRead {
        shard: usize,
        m: KmultMaxReadMachine,
    },
    KeyRead {
        key: usize,
        m: Box<ReadMachine>,
    },
    Done,
}

impl TopKReadMachine {
    /// A machine answering a top-`q` query.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        TopKReadMachine {
            q,
            maxima: Vec::new(),
            order: Vec::new(),
            pos: 0,
            slot: 0,
            candidates: Vec::new(),
            phase: ReadPhase::Start,
        }
    }

    fn insert_candidate(&mut self, key: usize, count: u128) {
        if count == 0 {
            return;
        }
        self.candidates.push((count, key as u64));
        self.candidates
            .sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        self.candidates.truncate(self.q);
    }

    /// The next phase once the current shard position is resolved:
    /// either a key read, or `Done` when the scan is exhausted or
    /// pruned. Within a shard the scan jumps between hot slots via the
    /// shard's [`ShardDir`](crate::topk::ShardDir) — never-flushed keys
    /// cost zero primitives.
    fn advance_scan(&mut self, h: &TopKHandle) -> ReadPhase {
        let cfg = *h.sketch().config();
        loop {
            if self.pos == self.order.len() {
                return ReadPhase::Done;
            }
            let shard = self.order[self.pos];
            if self.slot == 0 && self.candidates.len() == self.q {
                let kth = self.candidates[self.q - 1].0;
                // Maxima are visited in descending order: if this
                // shard's maximum cannot beat the q-th candidate, no
                // later shard can either.
                if self.maxima[shard] < kth {
                    return ReadPhase::Done;
                }
            }
            match h.sketch().dir(shard).next_hot_slot(self.slot) {
                None => {
                    self.pos += 1;
                    self.slot = 0;
                }
                Some(slot) => {
                    let key = shard + slot * cfg.shards;
                    self.slot = slot + 1;
                    return ReadPhase::KeyRead {
                        key,
                        m: Box::new(ReadMachine::new()),
                    };
                }
            }
        }
    }

    fn result(&mut self) -> TopKResult {
        TopKResult {
            q: self.q,
            entries: std::mem::take(&mut self.candidates)
                .into_iter()
                .map(|(count, key)| (key, count))
                .collect(),
        }
    }

    /// Advance the read by at most one primitive.
    pub fn step(&mut self, h: &mut TopKHandle, ctx: &ProcCtx) -> Poll<TopKResult> {
        loop {
            match std::mem::replace(&mut self.phase, ReadPhase::Done) {
                ReadPhase::Start => {
                    let m = KmultMaxReadMachine::new(h.sketch().shard_max(0));
                    self.phase = ReadPhase::MaxRead { shard: 0, m };
                }
                ReadPhase::MaxRead { shard, mut m } => {
                    match m.step(h.sketch.shard_max(shard), ctx) {
                        Poll::Pending => {
                            self.phase = ReadPhase::MaxRead { shard, m };
                            return Poll::Pending;
                        }
                        Poll::Ready(v) => {
                            self.maxima.push(v);
                            if shard + 1 < h.sketch.config().shards {
                                let m = KmultMaxReadMachine::new(h.sketch.shard_max(shard + 1));
                                self.phase = ReadPhase::MaxRead {
                                    shard: shard + 1,
                                    m,
                                };
                            } else {
                                let mut order: Vec<usize> = (0..self.maxima.len()).collect();
                                let maxima = &self.maxima;
                                order.sort_by(|&a, &b| maxima[b].cmp(&maxima[a]).then(a.cmp(&b)));
                                self.order = order;
                                self.phase = self.advance_scan(h);
                            }
                        }
                    }
                }
                ReadPhase::KeyRead { key, mut m } => match m.step(h.counter_mut(key), ctx) {
                    Poll::Pending => {
                        self.phase = ReadPhase::KeyRead { key, m };
                        return Poll::Pending;
                    }
                    Poll::Ready(out) => {
                        self.insert_candidate(key, out.value);
                        self.phase = self.advance_scan(h);
                    }
                },
                ReadPhase::Done => return Poll::Ready(self.result()),
            }
        }
    }
}

/// Resume point of a [`QuantileHandle::flush`]: drain every dirty
/// bucket's deferred units (ascending bucket order) — no max registers
/// on the quantile write path.
#[derive(Default)]
pub struct QuantileFlushMachine {
    phase: QFlushPhase,
}

#[derive(Default)]
enum QFlushPhase {
    #[default]
    Seek,
    SeekFrom(usize),
    Inc {
        bucket: usize,
        m: FlushMachine,
    },
    Done,
}

impl QuantileFlushMachine {
    /// A machine flushing every dirty bucket.
    pub fn new() -> Self {
        QuantileFlushMachine::default()
    }

    /// Advance the flush by at most one primitive.
    pub fn step(&mut self, h: &mut QuantileHandle, ctx: &ProcCtx) -> Poll<()> {
        loop {
            match std::mem::take(&mut self.phase) {
                QFlushPhase::Seek => self.phase = QFlushPhase::SeekFrom(0),
                QFlushPhase::SeekFrom(from) => match h.next_buffered_bucket(from) {
                    None => {
                        self.phase = QFlushPhase::Done;
                        return Poll::Ready(());
                    }
                    Some(bucket) => {
                        h.buffered_total -= h.bucket_mut(bucket).deferred();
                        self.phase = QFlushPhase::Inc {
                            bucket,
                            m: FlushMachine::drain(),
                        };
                    }
                },
                QFlushPhase::Inc { bucket, mut m } => match m.step(h.bucket_mut(bucket), ctx) {
                    Poll::Pending => {
                        self.phase = QFlushPhase::Inc { bucket, m };
                        return Poll::Pending;
                    }
                    Poll::Ready(()) => self.phase = QFlushPhase::SeekFrom(bucket + 1),
                },
                QFlushPhase::Done => return Poll::Ready(()),
            }
        }
    }
}

/// Resume point of a [`QuantileHandle::observe`]: buffer on the priming
/// step, flush when the threshold is reached.
pub struct QuantileObserveMachine {
    value: u64,
    amount: u64,
    state: ObserveState,
}

enum ObserveState {
    Start,
    Flushing(QuantileFlushMachine),
    Done,
}

impl QuantileObserveMachine {
    /// A machine recording `amount` observations of `value`.
    pub fn new(value: u64, amount: u64) -> Self {
        QuantileObserveMachine {
            value,
            amount,
            state: ObserveState::Start,
        }
    }

    /// Advance the observation by at most one primitive.
    pub fn step(&mut self, h: &mut QuantileHandle, ctx: &ProcCtx) -> Poll<()> {
        if let ObserveState::Start = self.state {
            h.defer_observe(self.value, self.amount);
            if h.buffered() < h.flush_every() {
                self.state = ObserveState::Done;
                return Poll::Ready(());
            }
            self.state = ObserveState::Flushing(QuantileFlushMachine::new());
        }
        match &mut self.state {
            ObserveState::Flushing(m) => match m.step(h, ctx) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(()) => {
                    self.state = ObserveState::Done;
                    Poll::Ready(())
                }
            },
            ObserveState::Done => Poll::Ready(()),
            ObserveState::Start => unreachable!("handled above"),
        }
    }
}

/// Resume point of a [`QuantileHandle::quantile`]: read every bucket
/// (ascending), then resolve the target rank locally on the completing
/// step.
pub struct QuantileValueMachine {
    num: u32,
    den: u32,
    readings: Vec<u128>,
    phase: BucketScanPhase,
}

enum BucketScanPhase {
    Start,
    Read { bucket: usize, m: Box<ReadMachine> },
    Done,
}

impl QuantileValueMachine {
    /// A machine answering `quantile(num/den)`.
    ///
    /// # Panics
    /// Panics unless `0 < num ≤ den`.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(
            num > 0 && num <= den,
            "rank ratio must satisfy 0 < num ≤ den"
        );
        QuantileValueMachine {
            num,
            den,
            readings: Vec::new(),
            phase: BucketScanPhase::Start,
        }
    }

    fn resolve(&self, h: &QuantileHandle) -> u128 {
        let total: u128 = self.readings.iter().sum();
        if total == 0 {
            return 0;
        }
        // Target rank ⌈(num/den)·total⌉ against the approximate total.
        let target = (u128::from(self.num) * total).div_ceil(u128::from(self.den));
        let mut cum = 0u128;
        for (i, &b) in self.readings.iter().enumerate() {
            cum += b;
            if cum >= target {
                return h.sketch().bucket_hi(i);
            }
        }
        unreachable!("cum reaches total ≥ target on the last bucket")
    }

    /// Advance the read by at most one primitive.
    pub fn step(&mut self, h: &mut QuantileHandle, ctx: &ProcCtx) -> Poll<u128> {
        loop {
            match std::mem::replace(&mut self.phase, BucketScanPhase::Done) {
                BucketScanPhase::Start => {
                    self.phase = BucketScanPhase::Read {
                        bucket: 0,
                        m: Box::new(ReadMachine::new()),
                    };
                }
                BucketScanPhase::Read { bucket, mut m } => {
                    match m.step(h.bucket_mut(bucket), ctx) {
                        Poll::Pending => {
                            self.phase = BucketScanPhase::Read { bucket, m };
                            return Poll::Pending;
                        }
                        Poll::Ready(out) => {
                            self.readings.push(out.value);
                            if bucket + 1 < h.sketch().num_buckets() {
                                self.phase = BucketScanPhase::Read {
                                    bucket: bucket + 1,
                                    m: Box::new(ReadMachine::new()),
                                };
                            } else {
                                return Poll::Ready(self.resolve(h));
                            }
                        }
                    }
                }
                BucketScanPhase::Done => {
                    unreachable!("quantile machine stepped after completion")
                }
            }
        }
    }
}

/// Resume point of a [`QuantileHandle::rank`]: read the buckets lying
/// entirely at or below the queried value and sum them. A query below
/// the first bucket edge covers nothing and completes on the priming
/// step with zero primitives.
pub struct RankMachine {
    /// Buckets `0..prefix` are covered by the query.
    prefix: usize,
    sum: u128,
    phase: BucketScanPhase,
}

impl RankMachine {
    /// A machine answering `rank(v)` against `sketch`'s geometry.
    pub fn new(sketch: &crate::quantile::QuantileSketch, v: u64) -> Self {
        let prefix = (0..sketch.num_buckets())
            .take_while(|&i| sketch.bucket_hi(i) <= u128::from(v) + 1)
            .count();
        RankMachine {
            prefix,
            sum: 0,
            phase: BucketScanPhase::Start,
        }
    }

    /// Advance the read by at most one primitive.
    pub fn step(&mut self, h: &mut QuantileHandle, ctx: &ProcCtx) -> Poll<u128> {
        loop {
            match std::mem::replace(&mut self.phase, BucketScanPhase::Done) {
                BucketScanPhase::Start => {
                    if self.prefix == 0 {
                        return Poll::Ready(0); // zero primitives
                    }
                    self.phase = BucketScanPhase::Read {
                        bucket: 0,
                        m: Box::new(ReadMachine::new()),
                    };
                }
                BucketScanPhase::Read { bucket, mut m } => {
                    match m.step(h.bucket_mut(bucket), ctx) {
                        Poll::Pending => {
                            self.phase = BucketScanPhase::Read { bucket, m };
                            return Poll::Pending;
                        }
                        Poll::Ready(out) => {
                            self.sum += out.value;
                            if bucket + 1 < self.prefix {
                                self.phase = BucketScanPhase::Read {
                                    bucket: bucket + 1,
                                    m: Box::new(ReadMachine::new()),
                                };
                            } else {
                                return Poll::Ready(self.sum);
                            }
                        }
                    }
                }
                BucketScanPhase::Done => {
                    unreachable!("rank machine stepped after completion")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{TopKConfig, TopKSketch};
    use smr::Runtime;

    #[test]
    fn add_below_threshold_completes_on_priming_with_zero_primitives() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let sk = TopKSketch::new(TopKConfig {
            n: 1,
            keys: 4,
            shards: 2,
            ..TopKConfig::default()
        });
        let mut h = sk.handle(0, 100);
        let mut m = TopKAddMachine::new(1, 5);
        assert!(m.step(&mut h, &ctx).is_ready());
        assert_eq!(ctx.steps_taken(), 0);
        assert_eq!(h.buffered(), 5);
    }

    #[test]
    fn composite_machines_apply_exactly_one_primitive_per_granted_step() {
        // The poll contract, asserted directly: priming step free, every
        // later step exactly one primitive — for the flush, read and
        // quantile composites.
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let sk = TopKSketch::new(TopKConfig {
            n: 1,
            keys: 8,
            shards: 4,
            ..TopKConfig::default()
        });
        let mut h = sk.handle(0, 1);
        for key in [0usize, 3, 5] {
            for _ in 0..10 {
                h.add(&ctx, key, 1);
            }
        }
        // A flush with buffered units across several keys.
        let mut w = sk.handle(0, 1_000_000);
        for key in 0..8 {
            w.add(&ctx, key, 7);
        }
        let mut m = TopKFlushMachine::new();
        let before = ctx.steps_taken();
        let first = m.step(&mut w, &ctx);
        assert_eq!(ctx.steps_taken(), before, "priming step applies nothing");
        assert!(first.is_pending(), "a dirty flush has primitives to apply");
        loop {
            let s0 = ctx.steps_taken();
            let polled = m.step(&mut w, &ctx);
            assert_eq!(ctx.steps_taken(), s0 + 1, "exactly one primitive");
            if polled.is_ready() {
                break;
            }
        }
        // A top-k read.
        let mut m = TopKReadMachine::new(2);
        let before = ctx.steps_taken();
        assert!(m.step(&mut h, &ctx).is_pending());
        assert_eq!(ctx.steps_taken(), before, "priming step applies nothing");
        loop {
            let s0 = ctx.steps_taken();
            let polled = m.step(&mut h, &ctx);
            assert_eq!(ctx.steps_taken(), s0 + 1, "exactly one primitive");
            if let Poll::Ready(out) = polled {
                assert_eq!(out.entries.len(), 2);
                break;
            }
        }
    }

    #[test]
    fn empty_flush_completes_on_priming() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let sk = TopKSketch::new(TopKConfig {
            n: 1,
            keys: 4,
            shards: 2,
            ..TopKConfig::default()
        });
        let mut h = sk.handle(0, 10);
        let mut m = TopKFlushMachine::new();
        assert!(m.step(&mut h, &ctx).is_ready());
        assert_eq!(ctx.steps_taken(), 0);
    }

    #[test]
    fn blocking_and_machine_forms_take_identical_steps() {
        // Drive one handle through blocking calls and a twin through
        // manual machine stepping: values and per-pid primitive counts
        // must match exactly (single transcription).
        let run_blocking = |keys: usize| -> (u128, u64) {
            let rt = Runtime::free_running(1);
            let ctx = rt.ctx(0);
            let sk = TopKSketch::new(TopKConfig {
                n: 1,
                keys,
                shards: 2,
                ..TopKConfig::default()
            });
            let mut h = sk.handle(0, 3);
            for i in 0..20usize {
                h.add(&ctx, i % keys, 1 + (i as u64 % 2));
            }
            h.flush(&ctx);
            let top = h.top_k(&ctx, 3);
            (top.kth(), rt.steps_of(0))
        };
        let run_machines = |keys: usize| -> (u128, u64) {
            let rt = Runtime::free_running(1);
            let ctx = rt.ctx(0);
            let sk = TopKSketch::new(TopKConfig {
                n: 1,
                keys,
                shards: 2,
                ..TopKConfig::default()
            });
            let mut h = sk.handle(0, 3);
            for i in 0..20usize {
                let mut m = TopKAddMachine::new(i % keys, 1 + (i as u64 % 2));
                while m.step(&mut h, &ctx).is_pending() {}
            }
            let mut m = TopKFlushMachine::new();
            while m.step(&mut h, &ctx).is_pending() {}
            let mut m = TopKReadMachine::new(3);
            let top = loop {
                if let Poll::Ready(out) = m.step(&mut h, &ctx) {
                    break out;
                }
            };
            (top.kth(), rt.steps_of(0))
        };
        for keys in [4usize, 7] {
            assert_eq!(run_blocking(keys), run_machines(keys), "keys = {keys}");
        }
    }
}
