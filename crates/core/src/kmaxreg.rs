//! Algorithm 2: the k-multiplicative-accurate m-bounded max register.
//!
//! The idea (paper §IV): store only the *base-k magnitude* of written
//! values. `Write(v)` computes `p = ⌊log_k v⌋ + 1` — the index of the bit
//! to the left of `v`'s most significant base-k digit — and writes `p`
//! into an **exact** `(⌊log_k(m−1)⌋ + 1)`-bounded max register `M`.
//! `Read()` returns `k^p` for the largest stored `p` (0 if none).
//!
//! Accuracy: if the true maximum is `v` with `⌊log_k v⌋ = p − 1`, then
//! `v ∈ [k^(p−1), k^p − 1]` and the read returns `x = k^p ∈ [v, v·k]` —
//! one-sidedly within the `[v/k, v·k]` envelope.
//!
//! Step complexity: one operation on `M`, whose domain has only
//! `⌊log_k(m−1)⌋ + 2` values — so with the adaptive exact register the
//! cost is `O(min(log₂ log_k m, n))`, matching Theorem IV.2 and the lower
//! bound of Theorem V.2 (an *exponential* improvement over the exact
//! `Θ(min(log₂ m, n))`).

use crate::accuracy::log_k_floor;
use maxreg::{AdaptiveMaxRegister, AdaptiveReadMachine, AdaptiveWriteMachine};
use smr::{OpTask, Poll, ProcCtx};
use std::sync::Arc;

/// A k-multiplicative-accurate `m`-bounded max register
/// (wait-free, linearizable, `O(min(log₂ log_k m, n))` per operation).
///
/// Writes accept values in `{0,…,m−1}` (a write of 0 is a no-op, as for
/// any max register); reads return `k^p ≤ (m−1)·k`, hence the `u128`
/// return type.
///
/// ```
/// use approx_objects::KmultBoundedMaxRegister;
/// use smr::Runtime;
///
/// let rt = Runtime::free_running(1);
/// let ctx = rt.ctx(0);
/// let reg = KmultBoundedMaxRegister::new(1, 1 << 30, 2);
/// reg.write(&ctx, 1_000_000);
/// let x = reg.read(&ctx);
/// assert!(x >= 1_000_000 && x <= 2_000_000); // within [v, v·k]
/// ```
pub struct KmultBoundedMaxRegister {
    k: u64,
    m: u64,
    /// The exact bounded max register `M` over magnitude indices
    /// `{0,…,⌊log_k(m−1)⌋ + 1}`.
    magnitude: AdaptiveMaxRegister,
}

impl KmultBoundedMaxRegister {
    /// A register for values `{0,…,m−1}` shared by `n` processes, with
    /// accuracy parameter `k ≥ 2`.
    ///
    /// # Panics
    /// Panics if `m < 2`, `k < 2` or `n == 0`.
    pub fn new(n: usize, m: u64, k: u64) -> Self {
        assert!(m >= 2, "bound must be at least 2");
        assert!(k >= 2, "k must be at least 2");
        assert!(n > 0, "need at least one process");
        let top_index = u64::from(log_k_floor(m - 1, k)) + 1;
        KmultBoundedMaxRegister {
            k,
            m,
            magnitude: AdaptiveMaxRegister::new(n, top_index + 1),
        }
    }

    /// The accuracy parameter `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The bound `m` (writes accept `{0,…,m−1}`).
    pub fn m(&self) -> u64 {
        self.m
    }

    /// `Write(v)` — paper lines 7–9.
    ///
    /// Implemented by driving [`KmultMaxWriteMachine`] to completion, so
    /// the blocking form and the resumable task form
    /// ([`KmultMaxWriteTask`]) share one transcription.
    pub fn write(&self, ctx: &ProcCtx, v: u64) {
        let mut m = KmultMaxWriteMachine::new(self, v);
        while m.step(self, ctx).is_pending() {}
    }

    /// `Read()` — paper lines 2–5: `k^p` for the largest magnitude index
    /// written, 0 if none.
    ///
    /// Like [`write`](Self::write), drives the shared
    /// [`KmultMaxReadMachine`] transcription.
    pub fn read(&self, ctx: &ProcCtx) -> u128 {
        let mut m = KmultMaxReadMachine::new(self);
        loop {
            if let Poll::Ready(v) = m.step(self, ctx) {
                return v;
            }
        }
    }
}

/// Resume point of a `KmultBoundedMaxRegister::write`: the base-k
/// magnitude index is computed locally (paper line 8) and written into
/// the exact magnitude register through its arm-selected machine. One
/// primitive per [`step`](KmultMaxWriteMachine::step), priming step
/// free; a write of 0 is a no-op and completes on the priming step.
#[derive(Debug)]
pub struct KmultMaxWriteMachine {
    /// `None` for a write of 0 (ignored, like any max register).
    inner: Option<AdaptiveWriteMachine>,
}

impl KmultMaxWriteMachine {
    /// A machine writing `v` into `reg`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    pub fn new(reg: &KmultBoundedMaxRegister, v: u64) -> Self {
        assert!(v < reg.m, "value {v} out of range (m = {})", reg.m);
        KmultMaxWriteMachine {
            inner: (v > 0).then(|| {
                let p = u64::from(log_k_floor(v, reg.k)) + 1;
                AdaptiveWriteMachine::new(&reg.magnitude, p)
            }),
        }
    }

    /// Advance the write by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &KmultBoundedMaxRegister, ctx: &ProcCtx) -> Poll<()> {
        match &mut self.inner {
            None => Poll::Ready(()), // write of 0: zero primitives
            Some(m) => m.step(&reg.magnitude, ctx),
        }
    }
}

/// Resume point of a `KmultBoundedMaxRegister::read`: read the
/// magnitude register, then expand `k^p` locally on the completing
/// step.
#[derive(Debug)]
pub struct KmultMaxReadMachine {
    inner: AdaptiveReadMachine,
}

impl KmultMaxReadMachine {
    /// A machine reading `reg`.
    pub fn new(reg: &KmultBoundedMaxRegister) -> Self {
        KmultMaxReadMachine {
            inner: AdaptiveReadMachine::new(&reg.magnitude),
        }
    }

    /// Advance the read by at most one primitive against `reg` — which
    /// must be the register the machine was created for.
    pub fn step(&mut self, reg: &KmultBoundedMaxRegister, ctx: &ProcCtx) -> Poll<u128> {
        self.inner.step(&reg.magnitude, ctx).map(|p| {
            if p == 0 {
                0
            } else {
                u128::from(reg.k).pow(u32::try_from(p).expect("magnitude fits u32"))
            }
        })
    }
}

/// `KmultBoundedMaxRegister::write` as a resumable [`OpTask`] for the
/// coop backend. Submit with [`OpSpec::write`](smr::OpSpec::write).
pub struct KmultMaxWriteTask {
    reg: Arc<KmultBoundedMaxRegister>,
    machine: KmultMaxWriteMachine,
}

impl KmultMaxWriteTask {
    /// A write of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range, like the blocking write.
    pub fn new(reg: Arc<KmultBoundedMaxRegister>, v: u64) -> Self {
        let machine = KmultMaxWriteMachine::new(&reg, v);
        KmultMaxWriteTask { reg, machine }
    }
}

impl OpTask for KmultMaxWriteTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.reg, ctx).map(|()| 0)
    }
}

/// `KmultBoundedMaxRegister::read` as a resumable [`OpTask`] for the
/// coop backend. Submit with [`OpSpec::read`](smr::OpSpec::read).
pub struct KmultMaxReadTask {
    reg: Arc<KmultBoundedMaxRegister>,
    machine: KmultMaxReadMachine,
}

impl KmultMaxReadTask {
    /// A read.
    pub fn new(reg: Arc<KmultBoundedMaxRegister>) -> Self {
        let machine = KmultMaxReadMachine::new(&reg);
        KmultMaxReadTask { reg, machine }
    }
}

impl OpTask for KmultMaxReadTask {
    fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
        self.machine.step(&self.reg, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::within_k;
    use smr::Runtime;
    use std::sync::Arc;

    #[test]
    fn fresh_register_reads_zero() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let r = KmultBoundedMaxRegister::new(1, 1 << 20, 2);
        assert_eq!(r.read(&ctx), 0);
    }

    #[test]
    fn sequential_accuracy_exhaustive_small() {
        for k in [2u64, 3, 4] {
            let m = 500;
            for v in 1..m {
                let rt = Runtime::free_running(1);
                let ctx = rt.ctx(0);
                let r = KmultBoundedMaxRegister::new(1, m, k);
                r.write(&ctx, v);
                let x = r.read(&ctx);
                assert!(within_k(u128::from(v), x, k), "k={k} v={v} read {x}");
                assert!(x >= u128::from(v), "one-sided: x ≥ v");
            }
        }
    }

    #[test]
    fn running_maximum_is_respected() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let k = 3;
        let r = KmultBoundedMaxRegister::new(1, 100_000, k);
        let mut true_max = 0u64;
        for v in [5u64, 77, 3, 9_999, 12, 80_000, 1] {
            r.write(&ctx, v);
            true_max = true_max.max(v);
            let x = r.read(&ctx);
            assert!(within_k(u128::from(true_max), x, k));
            assert!(x >= u128::from(true_max));
        }
    }

    #[test]
    fn write_zero_is_noop() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let r = KmultBoundedMaxRegister::new(1, 64, 2);
        r.write(&ctx, 0);
        assert_eq!(r.read(&ctx), 0);
        r.write(&ctx, 30);
        r.write(&ctx, 0);
        let x = r.read(&ctx);
        assert!(x >= 30);
    }

    #[test]
    fn step_complexity_is_doubly_logarithmic() {
        // m = 2^48, k = 2: magnitude domain has 50 values, so the tree
        // depth is ⌈log₂ 50⌉ = 6 — per-op cost ≤ ~2·6+2, far below
        // log₂ m = 48.
        let m = 1u64 << 48;
        let rt = Runtime::free_running(64);
        let r = KmultBoundedMaxRegister::new(64, m, 2);
        let ctx = rt.ctx(0);
        let s0 = ctx.steps_taken();
        r.write(&ctx, m - 1);
        let write_cost = ctx.steps_taken() - s0;
        let s0 = ctx.steps_taken();
        let _ = r.read(&ctx);
        let read_cost = ctx.steps_taken() - s0;
        assert!(write_cost <= 14, "write cost {write_cost}");
        assert!(read_cost <= 14, "read cost {read_cost}");
    }

    #[test]
    fn concurrent_writers_stay_accurate() {
        let n = 8;
        let k = 4;
        let m = 1u64 << 30;
        let rt = Runtime::free_running(n);
        let r = Arc::new(KmultBoundedMaxRegister::new(n, m, k));
        let mut handles = vec![];
        for pid in 0..n {
            let r = r.clone();
            let ctx = rt.ctx(pid);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    r.write(&ctx, (pid as u64 + 1) * 1_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ctx = rt.ctx(0);
        let true_max = u128::from((n as u64) * 1_000 + 999);
        let x = r.read(&ctx);
        assert!(within_k(true_max, x, k), "max {true_max}, read {x}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let r = KmultBoundedMaxRegister::new(1, 64, 2);
        r.write(&ctx, 64);
    }

    #[test]
    fn task_forms_match_blocking_forms() {
        fn run_task<T: OpTask>(mut t: T, ctx: &ProcCtx) -> u128 {
            loop {
                if let Poll::Ready(v) = t.poll(ctx) {
                    return v;
                }
            }
        }
        // Both arms of the inner adaptive register: many processes with
        // a huge bound (collect), few values (tree).
        for (n, m, k) in [
            (1usize, 1u64 << 30, 2u64),
            (64, 1 << 20, 3),
            (2, 1 << 48, 2),
        ] {
            let seq = [1u64, 77, 0, 9_999, 12, 80_000, 5];

            let rt_a = Runtime::free_running(n);
            let ctx_a = rt_a.ctx(0);
            let reg_a = KmultBoundedMaxRegister::new(n, m, k);

            let rt_b = Runtime::free_running(n);
            let ctx_b = rt_b.ctx(0);
            let reg_b = Arc::new(KmultBoundedMaxRegister::new(n, m, k));

            for &v in &seq {
                reg_a.write(&ctx_a, v);
                let _ = run_task(KmultMaxWriteTask::new(reg_b.clone(), v), &ctx_b);
                let ra = reg_a.read(&ctx_a);
                let rb = run_task(KmultMaxReadTask::new(reg_b.clone()), &ctx_b);
                assert_eq!(ra, rb, "n={n} m={m} k={k}: after write {v}");
                assert_eq!(
                    rt_a.steps_of(0),
                    rt_b.steps_of(0),
                    "n={n} m={m} k={k}: primitive counts diverged after write {v}"
                );
            }
        }
    }

    #[test]
    fn write_of_zero_task_completes_on_the_priming_poll() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let reg = Arc::new(KmultBoundedMaxRegister::new(1, 64, 2));
        let mut t = KmultMaxWriteTask::new(reg, 0);
        assert!(t.poll(&ctx).is_ready(), "write(0) is a no-op");
        assert_eq!(ctx.steps_taken(), 0);
    }

    #[test]
    fn top_of_range_round_trips() {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let m = 1u64 << 40;
        let k = 7;
        let r = KmultBoundedMaxRegister::new(1, m, k);
        r.write(&ctx, m - 1);
        let x = r.read(&ctx);
        assert!(within_k(u128::from(m - 1), x, k));
    }

    #[test]
    fn a_task_holds_its_whole_state_in_40_bytes() {
        // The register's `Arc` plus a tree machine whose turn path is
        // one word: nothing on the heap, so the coop arena's payload is
        // the whole operation.
        assert!(std::mem::size_of::<KmultMaxWriteTask>() <= 40);
        assert!(std::mem::size_of::<KmultMaxReadTask>() <= 40);
    }
}
