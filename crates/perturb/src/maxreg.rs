//! Perturbing executions for (bounded) max registers — Lemma V.1 made
//! executable.
//!
//! Round `r` writes `v_r = F·v_{r−1} + 1` through a **fresh** writer
//! process (`F = k²` for a k-multiplicative register: the smallest jump
//! that forces the reader's admissible response window to move; `F = 1`
//! degenerates to the exact register's `+1` perturbation). The run stops
//! once the next value would exceed the bound `m − 1` (the `log L` arm,
//! `L = Θ(log_k m)` by Lemma V.1). The round loop, its stop rules and
//! the reader's measurements are the ones both lemmas share (see
//! [`PerturbReport`]).

use crate::{execution, PerturbReport};
use approx_objects::KmultBoundedMaxRegister;
use smr::ProcCtx;

/// Anything that looks like a bounded max register to the perturber.
pub trait MaxRegTarget: Send + Sync {
    /// Write `v` on behalf of the process behind `ctx`.
    fn write(&self, ctx: &ProcCtx, v: u64);
    /// Read (possibly approximately) the maximum written.
    fn read(&self, ctx: &ProcCtx) -> u128;
    /// The bound `m`: writes must stay in `{0,…,m−1}`.
    fn m(&self) -> u64;
}

impl MaxRegTarget for maxreg::TreeMaxRegister {
    fn write(&self, ctx: &ProcCtx, v: u64) {
        maxreg::MaxRegister::write(self, ctx, v);
    }
    fn read(&self, ctx: &ProcCtx) -> u128 {
        u128::from(maxreg::MaxRegister::read(self, ctx))
    }
    fn m(&self) -> u64 {
        maxreg::MaxRegister::bound(self).expect("tree register is bounded")
    }
}

impl MaxRegTarget for maxreg::AdaptiveMaxRegister {
    fn write(&self, ctx: &ProcCtx, v: u64) {
        maxreg::MaxRegister::write(self, ctx, v);
    }
    fn read(&self, ctx: &ProcCtx) -> u128 {
        u128::from(maxreg::MaxRegister::read(self, ctx))
    }
    fn m(&self) -> u64 {
        maxreg::MaxRegister::bound(self).expect("adaptive register is bounded")
    }
}

impl MaxRegTarget for KmultBoundedMaxRegister {
    fn write(&self, ctx: &ProcCtx, v: u64) {
        KmultBoundedMaxRegister::write(self, ctx, v);
    }
    fn read(&self, ctx: &ProcCtx) -> u128 {
        KmultBoundedMaxRegister::read(self, ctx)
    }
    fn m(&self) -> u64 {
        self.m()
    }
}

/// Configuration of a perturbation run.
#[derive(Debug, Clone, Copy)]
pub struct PerturbConfig {
    /// Available writer processes (the paper's `n − 1`).
    pub writers: usize,
    /// Value jump per round: `v_r = factor·v_{r−1} + 1`.
    pub factor: u64,
    /// Hard cap on rounds (keeps exact-register runs finite).
    pub max_rounds: u64,
}

/// Run the perturbation construction against `target`. Each round's
/// [`level`](crate::PerturbRound::level) is the value its writer wrote.
///
/// ```
/// use maxreg::TreeMaxRegister;
/// use perturb::maxreg::{perturb_maxreg, PerturbConfig};
///
/// let reg = TreeMaxRegister::new(1 << 16);
/// let report = perturb_maxreg(
///     &reg,
///     PerturbConfig { writers: 32, factor: 2, max_rounds: 64 },
/// );
/// assert!(report.every_round_perturbed);
/// assert!(report.max_distinct_objects() >= 10); // Ω(log₂ m) probes
/// ```
pub fn perturb_maxreg<T: MaxRegTarget>(target: &T, cfg: PerturbConfig) -> PerturbReport {
    let factor = u128::from(cfg.factor);
    execution::run(
        cfg.writers,
        cfg.max_rounds,
        u128::from(target.m()) - 1,
        |v, _| factor * v + 1,
        |ctx| target.read(ctx),
        // A level never passes m − 1, so it fits the register's `u64`.
        |ctx, _, v| target.write(ctx, v as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxreg::TreeMaxRegister;

    #[test]
    fn exact_register_is_perturbed_every_round() {
        let reg = TreeMaxRegister::new(1 << 20);
        let report = perturb_maxreg(
            &reg,
            PerturbConfig {
                writers: 64,
                factor: 2,
                max_rounds: 100,
            },
        );
        assert!(report.every_round_perturbed);
        assert!(report.value_exhausted, "values should hit the bound");
        // factor 2: v_r = 2^r − 1, so ~19 rounds before exceeding 2^20−1.
        assert!(report.rounds_achieved() >= 18);
        for r in &report.rounds {
            assert_eq!(
                r.level,
                (1 << r.round) - 1,
                "Lemma V.1 at round {}",
                r.round
            );
        }
        // The reader probes Ω(log L) distinct objects.
        assert!(report.max_distinct_objects() >= 10);
    }

    #[test]
    fn kmult_register_needs_exponentially_fewer_probes() {
        let m = 1u64 << 40;
        let k = 2u64;
        let exact = TreeMaxRegister::new(m);
        let approx = KmultBoundedMaxRegister::new(8, m, k);
        let cfg = PerturbConfig {
            writers: 64,
            factor: k * k,
            max_rounds: 100,
        };
        let exact_report = perturb_maxreg(&exact, cfg);
        let approx_report = perturb_maxreg(&approx, cfg);
        assert!(exact_report.every_round_perturbed);
        assert!(approx_report.every_round_perturbed);
        assert!(
            approx_report.max_distinct_objects() * 2 < exact_report.max_distinct_objects(),
            "approx {} vs exact {}",
            approx_report.max_distinct_objects(),
            exact_report.max_distinct_objects()
        );
    }

    #[test]
    fn writer_exhaustion_saturates() {
        let reg = TreeMaxRegister::new(1 << 60);
        let report = perturb_maxreg(
            &reg,
            PerturbConfig {
                writers: 3,
                factor: 2,
                max_rounds: 100,
            },
        );
        assert!(report.saturated);
        assert_eq!(report.rounds_achieved(), 3);
    }

    #[test]
    fn the_bound_outranks_writer_exhaustion() {
        // m − 1 = 7 admits v = 1, 3, 7 and three writers write them; in
        // round 4 the next value 15 passes the bound and the writers are
        // used up at once. The bound is checked first.
        let reg = TreeMaxRegister::new(8);
        let report = perturb_maxreg(
            &reg,
            PerturbConfig {
                writers: 3,
                factor: 2,
                max_rounds: 100,
            },
        );
        assert_eq!(report.rounds_achieved(), 3);
        assert!(report.value_exhausted, "the next value passes m − 1");
        assert!(!report.saturated, "the bound stops the run first");
    }
}
