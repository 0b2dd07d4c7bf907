//! Perturbing executions for (bounded) counters — Lemma V.3 made
//! executable.
//!
//! Round `r` raises the increment total to `k²·Σ_{j<r} I_j + r` through
//! a fresh writer process, i.e. performs `I_r = (k²−1)·Σ_{j<r} I_j + r`
//! increments; by Lemma V.3 this forces the reader's response past
//! `k·Σ_{j<r} I_j`, i.e. every round perturbs the reader. The run stops
//! once the total would exceed the bound `m`. The round loop and the
//! reader's distinct-base-object count — the quantity Theorem V.4
//! bounds by `Ω(min(log₂ log_k m, n))` — are the ones both lemmas share
//! (see [`PerturbReport`]).
//!
//! Note the asymmetry with max registers: the paper gives **no**
//! worst-case-optimal bounded k-multiplicative counter (it is an open
//! question, §VI). Perturbing Algorithm 1 therefore shows measured reader
//! probe counts *above* the lower-bound curve, while the k-multiplicative
//! max register sits *on* its matching bound.

use crate::{execution, PerturbReport};
use approx_objects::{KmultCounter, KmultCounterHandle};
use counter::Counter;
use parking_lot::Mutex;
use smr::ProcCtx;
use std::sync::Arc;

/// Anything that looks like a counter to the perturber: increment and
/// read on behalf of the process behind `ctx`.
pub trait CounterTarget: Send + Sync {
    /// One increment.
    fn increment(&self, ctx: &ProcCtx);
    /// A read.
    fn read(&self, ctx: &ProcCtx) -> u128;
}

/// The handle-free exact counters of the `counter` crate.
impl<C: Counter> CounterTarget for C {
    fn increment(&self, ctx: &ProcCtx) {
        Counter::increment(self, ctx);
    }
    fn read(&self, ctx: &ProcCtx) -> u128 {
        Counter::read(self, ctx)
    }
}

/// Adapter for Algorithm 1, whose persistent locals live in per-process
/// handles. The mutexes are uncontended (each pid only ever locks its
/// own handle) and exist purely to satisfy shared ownership; they charge
/// no modelled steps.
pub struct KmultTarget {
    handles: Vec<Mutex<KmultCounterHandle>>,
}

impl KmultTarget {
    /// Wrap a k-multiplicative counter, creating one handle per process.
    pub fn new(counter: &Arc<KmultCounter>) -> Self {
        KmultTarget {
            handles: (0..counter.n())
                .map(|p| Mutex::new(counter.handle(p)))
                .collect(),
        }
    }
}

impl CounterTarget for KmultTarget {
    fn increment(&self, ctx: &ProcCtx) {
        self.handles[ctx.pid()].lock().increment(ctx);
    }
    fn read(&self, ctx: &ProcCtx) -> u128 {
        self.handles[ctx.pid()].lock().read(ctx)
    }
}

/// Configuration of a counter perturbation run.
#[derive(Debug, Clone, Copy)]
pub struct CounterPerturbConfig {
    /// Available writer processes (the paper's `n − 1`).
    pub writers: usize,
    /// Accuracy parameter `k` of the target (1 for exact counters);
    /// drives the increment batches `I_r = (k²−1)·ΣI_j + r`.
    pub k: u64,
    /// Stop once total increments would exceed this bound `m`.
    pub m: u128,
    /// Hard cap on rounds.
    pub max_rounds: u64,
}

/// Run the counter perturbation construction against `target`. Each
/// round's [`level`](crate::PerturbRound::level) is the increment total
/// after it, so its batch `I_r` is the difference of consecutive levels.
pub fn perturb_counter<T: CounterTarget>(target: &T, cfg: CounterPerturbConfig) -> PerturbReport {
    assert!(cfg.k >= 1);
    let ksq = u128::from(cfg.k) * u128::from(cfg.k);
    execution::run(
        cfg.writers,
        cfg.max_rounds,
        cfg.m,
        |total, round| ksq * total + u128::from(round),
        |ctx| target.read(ctx),
        |ctx, total, next| {
            for _ in total..next {
                target.increment(ctx);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use counter::AachCounter;

    #[test]
    fn exact_aach_counter_is_perturbed() {
        let c = AachCounter::new(9, 1 << 22);
        let report = perturb_counter(
            &c,
            CounterPerturbConfig {
                writers: 8,
                k: 2,
                m: 1 << 20,
                max_rounds: 50,
            },
        );
        assert!(report.every_round_perturbed);
        assert!(
            report.rounds_achieved() >= 5,
            "got {}",
            report.rounds_achieved()
        );
        // Exact reads return the exact total.
        for r in &report.rounds {
            assert_eq!(r.reader_value, r.level);
        }
    }

    #[test]
    fn kmult_counter_is_perturbed_and_stays_accurate() {
        let k = 4;
        let c = KmultCounter::new(9, k);
        let target = KmultTarget::new(&c);
        let report = perturb_counter(
            &target,
            CounterPerturbConfig {
                writers: 8,
                k,
                m: 1 << 24,
                max_rounds: 50,
            },
        );
        assert!(report.every_round_perturbed);
        for r in &report.rounds {
            let v = r.level;
            let x = r.reader_value;
            assert!(
                v <= x * u128::from(k) && x <= v * u128::from(k),
                "round {}: total {v}, read {x}",
                r.round
            );
        }
    }

    #[test]
    fn batches_follow_lemma_v3() {
        // I_1 = 1, I_r = (k²−1)·ΣI_j + r.
        let c = AachCounter::new(5, 1 << 30);
        let report = perturb_counter(
            &c,
            CounterPerturbConfig {
                writers: 4,
                k: 2,
                m: 1 << 28,
                max_rounds: 4,
            },
        );
        let mut totals = vec![0];
        totals.extend(report.rounds.iter().map(|r| r.level));
        let incs: Vec<u128> = totals.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(incs[0], 1);
        assert_eq!(incs[1], 3 + 2);
        assert_eq!(incs[2], 3 * 6 + 3);
    }
}
