//! The perturbing-execution round loop that Lemmas V.1 and V.3 share.
//!
//! A free-running runtime of `writers + 1` processes: round `r`'s fresh
//! writer is pid `r − 1`, and the designated reader is pid `writers`.
//! The reader reads solo once before round 1. Each round first computes
//! the next *level* — the value written ([`maxreg`](crate::maxreg)) or
//! the increments applied so far ([`counter`](crate::counter)). If the
//! level passes the lemma's bound, the run stops with `value_exhausted`
//! (the `log L` arm); otherwise, if every writer is used up, it stops
//! with `saturated` (the `n` arm). Else the round's writer raises the
//! object to the level, and the reader's solo read runs with the trace
//! log on, so the **distinct base objects** it accesses can be counted —
//! the quantity [5, Theorem 1] bounds by `Ω(min(log₂ L, n))` for an
//! `L`-perturbable object.

use smr::{ProcCtx, Runtime};
use std::collections::HashSet;

/// One perturbation round's measurements.
#[derive(Debug, Clone, Copy)]
pub struct PerturbRound {
    /// Round number, starting at 1.
    pub round: u64,
    /// The level the round's writer raised the object to: the value it
    /// wrote (Lemma V.1), or the increments applied so far, this round's
    /// included (Lemma V.3).
    pub level: u128,
    /// What the reader's solo run returned afterwards.
    pub reader_value: u128,
    /// Distinct base objects the reader's solo run accessed.
    pub distinct_objects: usize,
    /// Steps the reader's solo run took.
    pub reader_steps: u64,
}

/// The full report of a perturbation run.
#[derive(Debug, Clone)]
pub struct PerturbReport {
    /// Per-round measurements.
    pub rounds: Vec<PerturbRound>,
    /// `true` if the run stopped because it consumed every writer
    /// (the `n` arm of `Ω(min(log L, n))`).
    pub saturated: bool,
    /// `true` if the run stopped because the next level would pass the
    /// lemma's bound (the `log L` arm).
    pub value_exhausted: bool,
    /// `true` iff every round strictly raised the reader's response —
    /// the witness that each round really was a perturbation.
    pub every_round_perturbed: bool,
}

impl PerturbReport {
    /// Largest number of distinct base objects any reader run accessed.
    pub fn max_distinct_objects(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.distinct_objects)
            .max()
            .unwrap_or(0)
    }

    /// Number of rounds achieved.
    pub fn rounds_achieved(&self) -> u64 {
        self.rounds.len() as u64
    }
}

/// Run at most `max_rounds` rounds. A lemma supplies the rest: the
/// level after round `r` as `next_level(level, r)` (the level starts at
/// 0), the `bound` no level may pass, the reader's `read`, and `raise`,
/// which moves the object from one level to the next on behalf of the
/// writer process behind its context.
pub(crate) fn run(
    writers: usize,
    max_rounds: u64,
    bound: u128,
    next_level: impl Fn(u128, u64) -> u128,
    read: impl Fn(&ProcCtx) -> u128,
    mut raise: impl FnMut(&ProcCtx, u128, u128),
) -> PerturbReport {
    assert!(writers >= 1);
    let rt = Runtime::free_running(writers + 1);
    let reader_ctx = rt.ctx(writers);

    let mut report = PerturbReport {
        rounds: Vec::new(),
        saturated: false,
        value_exhausted: false,
        every_round_perturbed: true,
    };
    let mut prev_value = read(&reader_ctx);
    let mut level = 0;

    for round in 1..=max_rounds {
        let next = next_level(level, round);
        if next > bound {
            report.value_exhausted = true;
            break;
        }
        if round as usize > writers {
            report.saturated = true;
            break;
        }
        raise(&rt.ctx(round as usize - 1), level, next);
        level = next;

        // Reader's solo run, traced.
        let _ = rt.take_trace();
        rt.enable_tracing();
        let steps_before = reader_ctx.steps_taken();
        let value = read(&reader_ctx);
        let reader_steps = reader_ctx.steps_taken() - steps_before;
        rt.disable_tracing();
        let distinct_objects: usize = rt
            .take_trace()
            .iter()
            .filter_map(|e| e.access())
            .filter(|a| a.pid == writers)
            .map(|a| a.obj)
            .collect::<HashSet<_>>()
            .len();

        report.every_round_perturbed &= value > prev_value;
        prev_value = value;
        report.rounds.push(PerturbRound {
            round,
            level,
            reader_value: value,
            distinct_objects,
            reader_steps,
        });
    }
    report
}
