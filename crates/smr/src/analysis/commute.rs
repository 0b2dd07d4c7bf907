//! Replay-based commutation sampling: validate the
//! [`independent`] relation that [`explore`](crate::explore)'s DPOR
//! walk uses, by checking that step pairs it calls independent actually
//! commute.
//!
//! The relation declares two granted steps independent when they belong
//! to different processes, at most one of them emitted a history event,
//! and they touch different base objects (or are both `read`s of one
//! object). DPOR's soundness — skipping every reordering of such a pair
//! — rests on that independence being real, which is exactly what a
//! mis-declared access kind would silently break. This audit tests it
//! *operationally*: run a base schedule, collect every adjacent
//! independent pair, and re-execute the schedule with each sampled pair
//! transposed. If the pair truly commutes, the two executions must be
//! indistinguishable: identical operation histories (tickets and all)
//! and an identical primitive sequence — compared with base-object
//! identities normalized by first appearance, since fresh replays
//! allocate fresh objects.
//!
//! The audit is replay-based, not online: it needs to *execute* the
//! counterfactual order, so it takes the same deterministic driver
//! factory [`explore`](crate::explore) does.

use super::Violation;
use crate::backend::CoopBackend;
use crate::driver::Driver;
use crate::trace::{accesses, Access, AccessKind};

/// Options for one [`commutation_audit`] call.
#[derive(Debug, Clone)]
pub struct CommuteConfig {
    /// Maximum transpositions to replay (pairs are sampled evenly across
    /// the schedule when more are eligible).
    pub max_pairs: usize,
}

impl Default for CommuteConfig {
    fn default() -> Self {
        CommuteConfig { max_pairs: 64 }
    }
}

/// A normalized access: object addresses replaced by first-appearance
/// indices so sequences from different replays compare meaningfully.
type NormAccess = (usize, usize, AccessKind, u64, u64);

fn normalize(seq: &[Access]) -> Vec<NormAccess> {
    let mut ids: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    seq.iter()
        .map(|a| {
            let next = ids.len();
            let idx = *ids.entry(a.obj).or_insert(next);
            (idx, a.pid, a.kind, a.before, a.after)
        })
        .collect()
}

/// One execution of a schedule: the pid granted at each step, what each
/// step did, and the final history (as a comparable string — `OpRecord`
/// carries no addresses, so its debug form is replay-stable).
struct BaseRun {
    schedule: Vec<usize>,
    steps: Vec<Access>,
    emitted: Vec<bool>,
    history: String,
}

/// Run the program round-robin to completion, recording the schedule.
fn base_run(mut d: Driver<CoopBackend>) -> BaseRun {
    d.runtime().enable_tracing();
    let _ = d.runtime().take_trace(); // drop factory-time noise
    let mut schedule = Vec::new();
    let mut emitted = Vec::new();
    let mut cursor = 0usize;
    while !d.active_set().is_empty() {
        let pid = d
            .active_set()
            .iter_sorted()
            .find(|&p| p >= cursor)
            .or_else(|| d.active_set().iter_sorted().next())
            .expect("active set non-empty");
        cursor = pid + 1;
        let before_len = d.history().len();
        let _ = d.step(pid);
        schedule.push(pid);
        emitted.push(d.history().len() != before_len);
    }
    let steps = accesses(&d.runtime().take_trace());
    debug_assert_eq!(steps.len(), schedule.len(), "one access per granted step");
    let history = format!("{:?}", d.history_snapshot().ops());
    BaseRun {
        schedule,
        steps,
        emitted,
        history,
    }
}

/// Re-run the base schedule with steps `i` and `i+1` transposed; return
/// the replay's accesses and final history, or an error if the
/// transposed schedule diverged (a pid completed early — itself proof
/// the pair was not independent).
fn swapped_run(
    d: &mut Driver<CoopBackend>,
    schedule: &[usize],
    i: usize,
) -> Result<(Vec<Access>, String), String> {
    d.runtime().enable_tracing();
    let _ = d.runtime().take_trace();
    for (at, &pid) in schedule.iter().enumerate() {
        let pid = match at {
            _ if at == i => schedule[i + 1],
            _ if at == i + 1 => schedule[i],
            _ => pid,
        };
        if !d.active_set().contains(pid) {
            return Err(format!(
                "pid {pid} ran out of steps at position {at} of the transposed \
                 schedule — the transposition changed control flow"
            ));
        }
        let _ = d.step(pid);
    }
    let steps = accesses(&d.runtime().take_trace());
    let history = format!("{:?}", d.history_snapshot().ops());
    Ok((steps, history))
}

/// What one granted step did, as the independence oracle sees it: the
/// acting process, the base object its single primitive touched, the
/// access kind, and whether the step emitted history events (completed
/// an operation and drew logical timestamps).
///
/// This is the shared currency between this audit and the explorer's
/// reduction machinery ([`explore`](crate::explore)): both judge step
/// pairs with [`independent`], so the audit operationally validates
/// exactly the relation the explorer prunes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepMeta {
    /// Acting process.
    pub pid: usize,
    /// Base object of the step's single primitive.
    pub obj: usize,
    /// Access kind of that primitive.
    pub kind: AccessKind,
    /// `true` if the step emitted history events.
    pub emitted: bool,
}

/// The explorer's independence relation (symmetric): two granted steps
/// commute when they belong to different processes, they did not *both*
/// emit history events, and they touch different base objects or are
/// both trivial `read`s of one object. Steps with no meta (crash
/// decisions, zero- or multi-primitive polls) never commute — callers
/// must treat `None` as dependent on everything.
///
/// Why one emission is tolerable: logical timestamps
/// ([`Runtime::ticket`](crate::Runtime)) are drawn only when an
/// operation invokes or completes — both on the *emitting* step — so a
/// non-emitting step draws no tickets and appends nothing to the
/// history. Transposing it with a remote emitting step leaves the
/// ticket-draw order, every history record, and (given the base-object
/// condition) all primitive results unchanged. Two emitting steps never
/// commute: their record order and ticket values swap observably.
pub fn independent(a: &StepMeta, b: &StepMeta) -> bool {
    a.pid != b.pid
        && !(a.emitted && b.emitted)
        && (a.obj != b.obj || (a.kind == AccessKind::Read && b.kind == AccessKind::Read))
}

/// [`independent`] over the audit's per-step accesses.
fn independent_accesses(a: &Access, b: &Access, a_emitted: bool, b_emitted: bool) -> bool {
    let meta = |acc: &Access, emitted: bool| StepMeta {
        pid: acc.pid,
        obj: acc.obj,
        kind: acc.kind,
        emitted,
    };
    independent(&meta(a, a_emitted), &meta(b, b_emitted))
}

/// Audit the [`independent`] relation that DPOR relies on, over the
/// adjacent step pairs of one schedule of the program built by `factory`
/// (same contract as [`explore`](crate::explore)'s factory: fresh,
/// fully-submitted, deterministic coop driver per call). Returns one
/// violation per sampled pair that failed to commute.
pub fn commutation_audit<F>(factory: F, cfg: &CommuteConfig) -> Vec<Violation>
where
    F: Fn() -> Driver<CoopBackend>,
{
    let base = base_run(factory());
    let candidates: Vec<usize> = (0..base.schedule.len().saturating_sub(1))
        .filter(|&i| {
            independent_accesses(
                &base.steps[i],
                &base.steps[i + 1],
                base.emitted[i],
                base.emitted[i + 1],
            )
        })
        .collect();
    let stride = (candidates.len() / cfg.max_pairs.max(1)).max(1);
    let sampled = candidates.iter().copied().step_by(stride);

    let base_norm = normalize(&base.steps);
    let mut violations = Vec::new();
    for i in sampled.take(cfg.max_pairs) {
        let describe = |v: &mut Vec<Violation>, message: String| {
            let (a, b) = (&base.steps[i], &base.steps[i + 1]);
            v.push(Violation {
                pass: "commutation",
                pid: Some(b.pid),
                seq: Some(b.seq),
                message: format!(
                    "independent pair at steps {i},{} (pid {} {:?} / pid {} \
                     {:?}) does not commute: {message}",
                    i + 1,
                    a.pid,
                    a.kind,
                    b.pid,
                    b.kind,
                ),
            });
        };
        match swapped_run(&mut factory(), &base.schedule, i) {
            Err(msg) => describe(&mut violations, msg),
            Ok((mut steps, history)) => {
                if history != base.history {
                    describe(
                        &mut violations,
                        "the transposed schedule produced a different operation history".into(),
                    );
                    continue;
                }
                // Undo the transposition, then compare the normalized
                // primitive sequences end to end.
                if steps.len() > i + 1 {
                    steps.swap(i, i + 1);
                }
                let norm = normalize(&steps);
                if norm != base_norm {
                    let at = norm
                        .iter()
                        .zip(&base_norm)
                        .position(|(x, y)| x != y)
                        .map_or_else(|| "length".to_string(), |p| format!("step {p}"));
                    describe(
                        &mut violations,
                        format!("the primitive sequences diverge (first at {at})"),
                    );
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpSpec;
    use crate::runtime::Runtime;
    use crate::task::{OpTask, Poll};
    use crate::{ProcCtx, Register};
    use std::sync::Arc;

    /// Read a register then write `read + delta` — two primitives.
    struct Rmw {
        reg: Arc<Register>,
        read: Option<u64>,
        primed: bool,
    }

    impl Rmw {
        fn new(reg: Arc<Register>) -> Self {
            Rmw {
                reg,
                read: None,
                primed: false,
            }
        }
    }

    impl OpTask for Rmw {
        fn poll(&mut self, ctx: &ProcCtx) -> Poll<u128> {
            if !self.primed {
                self.primed = true;
                return Poll::Pending;
            }
            match self.read {
                None => {
                    self.read = Some(self.reg.read(ctx));
                    Poll::Pending
                }
                Some(v) => {
                    self.reg.write(ctx, v + 1);
                    Poll::Ready(u128::from(v))
                }
            }
        }
    }

    #[test]
    fn honest_private_registers_commute() {
        let violations = commutation_audit(
            || {
                let mut d = Driver::coop(Runtime::coop(3));
                for pid in 0..3 {
                    let reg = Arc::new(Register::new(0));
                    d.submit_task(pid, OpSpec::custom("rmw", 0), Rmw::new(reg));
                }
                d
            },
            &CommuteConfig::default(),
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn honest_shared_register_has_no_independent_pairs_misjudged() {
        // All steps hit one shared register; only read/read pairs are
        // independent, and reads genuinely commute.
        let violations = commutation_audit(
            || {
                let mut d = Driver::coop(Runtime::coop(4));
                let reg = Arc::new(Register::new(7));
                for pid in 0..4 {
                    d.submit_task(pid, OpSpec::custom("rmw", 0), Rmw::new(reg.clone()));
                }
                d
            },
            &CommuteConfig::default(),
        );
        assert!(violations.is_empty(), "{violations:?}");
    }
}
