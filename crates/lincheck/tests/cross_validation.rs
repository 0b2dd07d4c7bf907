//! Cross-validation of the post-hoc checkers — the `monotone` entry
//! points, sorted feeds into the one engine — against independent
//! oracles on randomized histories.
//!
//! Two layers of evidence:
//!
//! * **vs Wing–Gong** — the counter and max-register checkers must
//!   agree exactly with the exhaustive checker on thousands of small
//!   random histories, dense with both linearizable and
//!   non-linearizable cases (batched increments are expanded into unit
//!   `Inc` events for the exhaustive side).
//! * **vs the `naive` references** (property tests) — on larger random
//!   histories, beyond what Wing–Gong can explore, they must agree with
//!   the retained quadratic transcriptions, including pending
//!   operations and multi-unit increment batches. The driver-record
//!   feeds (`check_*_records`, which key open operations by real pid)
//!   are held to the same references on driver-shaped histories.
//! * **above the counting-sort threshold** — the histories above hold
//!   at most about 60 operations, so their feeds order events with
//!   `sort_unstable`. Driver-shaped histories of about 1 000 operations
//!   on dense tickets take the counting sort instead, and every feed
//!   must agree with the references on them too.

use lincheck::monotone::{check_counter, check_counter_additive, check_maxreg};
use lincheck::wg::{wg_check, WgEvent, WgOp};
use lincheck::{check_counter_records, check_maxreg_records};
use lincheck::{naive, CounterHistory, Interval, MaxRegHistory, TimedInc, TimedRead, TimedWrite};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smr::{History, OpKind, OpRecord};

/// Random operation windows over a small timestamp range so that
/// concurrency (and constraint violations) are frequent.
fn random_window(rng: &mut StdRng, horizon: u64) -> (u64, u64) {
    let a = rng.random_range(0..horizon);
    let b = rng.random_range(0..horizon);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (lo, hi + 1) // ensure inv < resp
}

#[test]
fn counter_engines_agree_on_random_histories() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut disagreements = Vec::new();
    let mut accepted = 0usize;
    let mut rejected = 0usize;

    for trial in 0..4_000 {
        let k = *[1u64, 2, 3].get(rng.random_range(0..3)).unwrap();
        let n_incs = rng.random_range(0..5);
        let n_reads = rng.random_range(1..4);
        let horizon = 12;

        let mut incs = Vec::new();
        let mut events = Vec::new();
        for _ in 0..n_incs {
            let (inv, resp) = random_window(&mut rng, horizon);
            let pending = rng.random_range(0..8) == 0;
            let amount = 1 + rng.random_range(0..2); // occasional batch of 2
            incs.push(TimedInc {
                window: if pending {
                    Interval::pending(inv)
                } else {
                    Interval::done(inv, resp)
                },
                amount,
            });
            // The exhaustive checker sees a batch as `amount` unit
            // increments sharing the window — the semantics of the
            // multiplicity field.
            for _ in 0..amount {
                events.push(WgEvent {
                    op: WgOp::Inc,
                    inv,
                    resp: (!pending).then_some(resp),
                });
            }
        }
        let mut reads = Vec::new();
        for _ in 0..n_reads {
            let (inv, resp) = random_window(&mut rng, horizon);
            let value = u128::from(rng.random_range(0..(n_incs as u64 * 4 + 3)));
            reads.push(TimedRead { inv, resp, value });
            events.push(WgEvent {
                op: WgOp::CounterRead(value),
                inv,
                resp: Some(resp),
            });
        }

        let h = CounterHistory { incs, reads };
        let mono = check_counter(&h, k).is_ok();
        let exhaustive = wg_check(&events, k);
        if mono {
            accepted += 1;
        } else {
            rejected += 1;
        }
        if mono != exhaustive {
            disagreements.push((trial, k, h.clone(), mono, exhaustive));
        }
    }
    assert!(
        disagreements.is_empty(),
        "engines disagree on {} histories; first: {:?}",
        disagreements.len(),
        disagreements.first()
    );
    // Sanity: the generator must exercise both verdicts heavily.
    assert!(
        accepted > 200,
        "only {accepted} accepted — generator too harsh"
    );
    assert!(
        rejected > 200,
        "only {rejected} rejected — generator too lax"
    );
}

#[test]
fn maxreg_engines_agree_on_random_histories() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut disagreements = Vec::new();
    let mut accepted = 0usize;
    let mut rejected = 0usize;

    for trial in 0..4_000 {
        let k = *[1u64, 2, 3].get(rng.random_range(0..3)).unwrap();
        let n_writes = rng.random_range(0..5);
        let n_reads = rng.random_range(1..4);
        let horizon = 12;

        let mut writes = Vec::new();
        let mut events = Vec::new();
        for _ in 0..n_writes {
            let (inv, resp) = random_window(&mut rng, horizon);
            let value = rng.random_range(1..10u64);
            let pending = rng.random_range(0..8) == 0;
            writes.push(TimedWrite {
                window: if pending {
                    Interval::pending(inv)
                } else {
                    Interval::done(inv, resp)
                },
                value,
            });
            events.push(WgEvent {
                op: WgOp::Write(value),
                inv,
                resp: (!pending).then_some(resp),
            });
        }
        let mut reads = Vec::new();
        for _ in 0..n_reads {
            let (inv, resp) = random_window(&mut rng, horizon);
            let value = u128::from(rng.random_range(0..14u64));
            reads.push(TimedRead { inv, resp, value });
            events.push(WgEvent {
                op: WgOp::MaxRead(value),
                inv,
                resp: Some(resp),
            });
        }

        let h = MaxRegHistory { writes, reads };
        let mono = check_maxreg(&h, k).is_ok();
        let exhaustive = wg_check(&events, k);
        if mono {
            accepted += 1;
        } else {
            rejected += 1;
        }
        if mono != exhaustive {
            disagreements.push((trial, k, h.clone(), mono, exhaustive));
        }
    }
    assert!(
        disagreements.is_empty(),
        "engines disagree on {} histories; first: {:?}",
        disagreements.len(),
        disagreements.first()
    );
    assert!(
        accepted > 200,
        "only {accepted} accepted — generator too harsh"
    );
    assert!(
        rejected > 200,
        "only {rejected} rejected — generator too lax"
    );
}

/// Strategy pieces: `(inv, duration, payload, pending-die)` tuples over
/// a small horizon so windows overlap heavily. A `pending-die` of 0
/// (1 in 6) makes the operation pending.
type OpTuple = (u64, u64, u64, u8);

fn counter_history(incs: &[OpTuple], reads: &[(u64, u64, u64)]) -> CounterHistory {
    CounterHistory {
        incs: incs
            .iter()
            .map(|&(inv, dur, amount, die)| TimedInc {
                window: if die == 0 {
                    Interval::pending(inv)
                } else {
                    Interval::done(inv, inv + dur)
                },
                amount,
            })
            .collect(),
        reads: reads
            .iter()
            .map(|&(inv, dur, value)| TimedRead {
                inv,
                resp: inv + dur,
                value: u128::from(value),
            })
            .collect(),
    }
}

/// Per-process operation tuples `(gap, duration, payload, read-die)`;
/// a read-die of 0 makes the operation a read.
type ProcOps = Vec<(u64, u64, u64, u8)>;

/// A driver-shaped history: each process runs its operations one after
/// another (windows disjoint, separated by `gap + 1`), processes overlap
/// freely, and a process whose pending-die is 0 never completes its
/// last operation. Updates are `update(payload)`. A read whose payload
/// is a multiple of 6 returns the payload; every other read returns
/// what the updates completed before its invocation force
/// (`forced(updates, inv)`), which always linearizes — so both verdicts
/// are common.
fn driver_history(
    procs: &[(ProcOps, u8)],
    update: impl Fn(u64) -> OpKind,
    forced: impl Fn(&[OpRecord], u64) -> u128,
) -> History {
    let mut ops = Vec::new();
    for (pid, (proc_ops, pending)) in procs.iter().enumerate() {
        let mut t = 0;
        for (j, &(gap, dur, payload, read_die)) in proc_ops.iter().enumerate() {
            let inv = t + gap;
            let resp = inv + dur;
            let kind = match read_die {
                0 => OpKind::Read {
                    returned: u128::from(payload),
                },
                _ => update(payload),
            };
            let last = j + 1 == proc_ops.len();
            ops.push(OpRecord {
                pid,
                kind,
                inv,
                resp: (!(last && *pending == 0)).then_some(resp),
                steps: 0,
            });
            t = resp + 1;
        }
    }
    let updates: Vec<OpRecord> = ops
        .iter()
        .filter(|r| !matches!(r.kind, OpKind::Read { .. }))
        .cloned()
        .collect();
    for r in &mut ops {
        if let OpKind::Read { returned } = &mut r.kind {
            if *returned % 6 != 0 {
                *returned = forced(&updates, r.inv);
            }
        }
    }
    ops.into_iter().collect()
}

/// Updates completed strictly before `t`.
fn completed_before(updates: &[OpRecord], t: u64) -> impl Iterator<Item = OpKind> + '_ {
    updates
        .iter()
        .filter(move |r| r.resp.is_some_and(|resp| resp < t))
        .map(|r| r.kind)
}

fn procs_strategy() -> impl Strategy<Value = Vec<(ProcOps, u8)>> {
    let op = (0u64..6, 1u64..10, 0u64..12, 0u8..2);
    prop::collection::vec((prop::collection::vec(op, 1..12), 0u8..3), 1..6)
}

/// A driver-shaped history of `procs × per_proc` operations on dense
/// tickets, one per event, as a runtime draws them: processes
/// interleave at random, a third of them leave their last operation
/// pending, and every other operation is an update (`update(j)` for a
/// process's `j`-th operation). Each read returns `forced(state)`, the
/// value the updates completed before its invocation force (`state` is
/// folded over completed updates with `apply`), except that one read in
/// `lie_rate` returns `(forced − 1) / k`, too small for the `k`-relaxed
/// specs once `forced` is positive, so some histories do not linearize.
fn dense_driver_history(
    rng: &mut StdRng,
    (procs, per_proc): (usize, usize),
    (lie_rate, k): (u32, u64),
    update: impl Fn(u64) -> OpKind,
    apply: impl Fn(u128, OpKind) -> u128,
) -> History {
    let mut ops = Vec::new();
    let mut open: Vec<Option<OpRecord>> = vec![None; procs];
    let mut done = vec![0; procs];
    let mut live: Vec<usize> = (0..procs).collect();
    let (mut ticket, mut state) = (0, 0u128);
    while !live.is_empty() {
        let at = rng.random_range(0..live.len());
        let pid = live[at];
        match open[pid].take() {
            None => {
                let j = done[pid] as u64;
                let kind = if j.is_multiple_of(2) {
                    update(j)
                } else {
                    let returned = if rng.random_range(0..lie_rate) == 0 {
                        state.saturating_sub(1) / u128::from(k)
                    } else {
                        state
                    };
                    OpKind::Read { returned }
                };
                let pending = pid.is_multiple_of(3) && done[pid] + 1 == per_proc;
                let rec = OpRecord {
                    pid,
                    kind,
                    inv: ticket,
                    resp: None,
                    steps: 0,
                };
                if pending {
                    ops.push(rec);
                    live.swap_remove(at);
                } else {
                    open[pid] = Some(rec);
                }
            }
            Some(mut rec) => {
                rec.resp = Some(ticket);
                if !matches!(rec.kind, OpKind::Read { .. }) {
                    state = apply(state, rec.kind);
                }
                ops.push(rec);
                done[pid] += 1;
                if done[pid] == per_proc {
                    live.swap_remove(at);
                }
            }
        }
        ticket += 1;
    }
    ops.into_iter().collect()
}

#[test]
fn feeds_agree_with_naive_above_the_counting_sort_threshold() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let (mut accepted, mut rejected) = (0, 0);
    for trial in 0..24 {
        let k = rng.random_range(1..4u64);
        let procs = rng.random_range(4..40);
        let shape = (procs, 1000 / procs);
        // Half the trials tell no lies, so both verdicts are common.
        let lies = (if trial % 2 == 0 { u32::MAX } else { 300 }, k);
        let h = dense_driver_history(
            &mut rng,
            shape,
            lies,
            |j| OpKind::Inc { amount: 1 + j % 3 },
            |sum, kind| sum + u128::from(kind.multiplicity()),
        );
        let typed = CounterHistory::from_records(&h).expect("counter vocabulary");
        let reference = naive::check_counter(&typed, k).is_ok();
        assert_eq!(
            check_counter(&typed, k).is_ok(),
            reference,
            "trial {trial}, k = {k}"
        );
        assert_eq!(
            check_counter_records(&h, k).is_ok(),
            reference,
            "trial {trial}"
        );
        assert_eq!(
            check_counter_additive(&typed, k).is_ok(),
            naive::check_counter_additive(&typed, k).is_ok(),
            "trial {trial}, additive k = {k}"
        );
        if reference {
            accepted += 1;
        } else {
            rejected += 1;
        }

        let h = dense_driver_history(
            &mut rng,
            shape,
            lies,
            |j| OpKind::Write {
                value: 1 + j * 7 % 50,
            },
            |max, kind| match kind {
                OpKind::Write { value } => max.max(u128::from(value)),
                _ => max,
            },
        );
        let typed = MaxRegHistory::from_records(&h).expect("max-register vocabulary");
        let reference = naive::check_maxreg(&typed, k).is_ok();
        assert_eq!(
            check_maxreg(&typed, k).is_ok(),
            reference,
            "trial {trial}, k = {k}"
        );
        assert_eq!(
            check_maxreg_records(&h, k).is_ok(),
            reference,
            "trial {trial}"
        );
        if reference {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        accepted >= 12 && rejected >= 8,
        "{accepted} accepted, {rejected} rejected"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The counter record feed (real pids, several operations per pid,
    /// pending last operations) agrees with the pairwise reference on
    /// the typed extraction of the same records.
    #[test]
    fn counter_records_agree_with_naive_reference(k in 1u64..4, procs in procs_strategy()) {
        let h = driver_history(
            &procs,
            |payload| OpKind::Inc { amount: 1 + payload % 3 },
            |updates, t| completed_before(updates, t).map(|kind| u128::from(kind.multiplicity())).sum(),
        );
        let typed = CounterHistory::from_records(&h).expect("counter vocabulary");
        let feed = check_counter_records(&h, k);
        prop_assert_eq!(
            feed.is_ok(),
            naive::check_counter(&typed, k).is_ok(),
            "k={} feed={:?} records={:?}",
            k,
            feed,
            h.ops()
        );
    }

    /// Same for the max-register record feed.
    #[test]
    fn maxreg_records_agree_with_naive_reference(k in 1u64..4, procs in procs_strategy()) {
        let h = driver_history(
            &procs,
            |payload| OpKind::Write { value: payload },
            |updates, t| {
                let values = completed_before(updates, t).map(|kind| match kind {
                    OpKind::Write { value } => u128::from(value),
                    _ => 0,
                });
                values.max().unwrap_or(0)
            },
        );
        let typed = MaxRegHistory::from_records(&h).expect("max-register vocabulary");
        let feed = check_maxreg_records(&h, k);
        prop_assert_eq!(
            feed.is_ok(),
            naive::check_maxreg(&typed, k).is_ok(),
            "k={} feed={:?} records={:?}",
            k,
            feed,
            h.ops()
        );
    }

    /// The sweep counter checker agrees with the retained pairwise
    /// reference on histories an exhaustive search could never cover:
    /// dozens of overlapping windows, pending increments, and batches.
    #[test]
    fn sweep_counter_agrees_with_naive_reference(
        k in 1u64..4,
        incs in prop::collection::vec((0u64..40, 1u64..15, 1u64..6, 0u8..6), 0..30),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..40), 1..30),
    ) {
        let h = counter_history(&incs, &reads);
        let sweep = check_counter(&h, k);
        let reference = naive::check_counter(&h, k);
        prop_assert_eq!(
            sweep.is_ok(),
            reference.is_ok(),
            "k={} sweep={:?} naive={:?} history={:?}",
            k,
            sweep,
            reference,
            h
        );
    }

    /// Same agreement for the additive relaxation (different window
    /// shape, same engine plumbing).
    #[test]
    fn sweep_additive_counter_agrees_with_naive_reference(
        k in 0u64..5,
        incs in prop::collection::vec((0u64..30, 1u64..12, 1u64..4, 0u8..6), 0..20),
        reads in prop::collection::vec((0u64..30, 1u64..12, 0u64..25), 1..20),
    ) {
        let h = counter_history(&incs, &reads);
        prop_assert_eq!(
            check_counter_additive(&h, k).is_ok(),
            naive::check_counter_additive(&h, k).is_ok(),
            "k={} history={:?}",
            k,
            h
        );
    }

    /// The sweep max-register checker agrees with the quadratic
    /// transcription, pending writes included.
    #[test]
    fn sweep_maxreg_agrees_with_naive_reference(
        k in 1u64..4,
        writes in prop::collection::vec((0u64..40, 1u64..15, 1u64..20, 0u8..6), 0..30),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..30), 1..30),
    ) {
        let h = MaxRegHistory {
            writes: writes
                .iter()
                .map(|&(inv, dur, value, die)| TimedWrite {
                    window: if die == 0 {
                        Interval::pending(inv)
                    } else {
                        Interval::done(inv, inv + dur)
                    },
                    value,
                })
                .collect(),
            reads: reads
                .iter()
                .map(|&(inv, dur, value)| TimedRead {
                    inv,
                    resp: inv + dur,
                    value: u128::from(value),
                })
                .collect(),
        };
        prop_assert_eq!(
            check_maxreg(&h, k).is_ok(),
            naive::check_maxreg(&h, k).is_ok(),
            "k={} history={:?}",
            k,
            h
        );
    }
}
