//! Differential validation of the streaming checker: on any history —
//! pending records, batched increments, crash-truncated runs — the
//! [`OnlineChecker`], fed record by record as a live run feeds it, must
//! accept or reject exactly when the offline `naive` reference does.
//! (`cross_validation.rs` pins the post-hoc sorted feeds in `monotone`
//! the same way.) A deliberately reordered push stream (the seeded
//! mutant) must be *caught*, not silently mis-checked.

use lincheck::{
    naive, CounterHistory, Interval, MaxRegHistory, OnlineChecker, TimedInc, TimedRead, TimedWrite,
    Violation,
};
use proptest::prelude::*;
use smr::{OpKind, OpRecord};

/// `(inv, duration, payload, pending-die)` over a small horizon so
/// windows overlap heavily; a die of 0 makes the operation pending.
type OpTuple = (u64, u64, u64, u8);

fn window(inv: u64, dur: u64, die: u8) -> Interval {
    if die == 0 {
        Interval::pending(inv)
    } else {
        Interval::done(inv, inv + dur)
    }
}

fn counter_history(incs: &[OpTuple], reads: &[(u64, u64, u64)]) -> CounterHistory {
    CounterHistory {
        incs: incs
            .iter()
            .map(|&(inv, dur, amount, die)| TimedInc {
                window: window(inv, dur, die),
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

fn announce(pid: usize, kind: OpKind, inv: u64) -> OpRecord {
    OpRecord {
        pid,
        kind,
        inv,
        resp: None,
        steps: 0,
    }
}

fn complete(pid: usize, kind: OpKind, inv: u64, resp: u64) -> OpRecord {
    OpRecord {
        pid,
        kind,
        inv,
        resp: Some(resp),
        steps: 0,
    }
}

/// One operation of a live run: what it did, its window, and whether
/// its process crashed mid-operation (only meaningful while pending).
#[derive(Clone, Copy)]
struct LiveOp {
    kind: OpKind,
    window: Interval,
    crashed: bool,
}

/// Stream `ops` into `checker` as a live run would: operation `i` runs
/// on pid `i`, announces at its invocation and completes at its
/// response, both in timestamp order (announcements first at ties). A
/// pending operation stays open to the end of the stream, unless its
/// process crashed, which the checker hears right after the
/// announcement.
fn stream(mut checker: OnlineChecker, ops: &[LiveOp]) -> Result<(), Violation> {
    let mut events: Vec<(u64, u8, usize)> = Vec::new();
    for (pid, op) in ops.iter().enumerate() {
        events.push((op.window.inv, 0, pid));
        if let Some(resp) = op.window.resp {
            events.push((resp, 1, pid));
        }
    }
    events.sort_by_key(|&(t, phase, _)| (t, phase));
    for (_, phase, pid) in events {
        let op = ops[pid];
        if phase == 0 {
            checker.push(&announce(pid, op.kind, op.window.inv))?;
            if op.crashed {
                checker.crash(pid);
            }
        } else {
            let resp = op.window.resp.expect("completions have a response");
            checker.push(&complete(pid, op.kind, op.window.inv, resp))?;
        }
    }
    checker.finish()
}

fn live_counter(h: &CounterHistory) -> Vec<LiveOp> {
    let reads = h.reads.iter().map(|r| LiveOp {
        kind: OpKind::Read { returned: r.value },
        window: Interval::done(r.inv, r.resp),
        crashed: false,
    });
    let incs = h.incs.iter().map(|i| LiveOp {
        kind: OpKind::Inc { amount: i.amount },
        window: i.window,
        crashed: false,
    });
    reads.chain(incs).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Online ≡ naive for the multiplicative counter on random
    /// histories with pending increments and batches.
    #[test]
    fn online_counter_matches_offline(
        k in 1u64..4,
        incs in prop::collection::vec((0u64..40, 1u64..15, 1u64..6, 0u8..6), 0..30),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..40), 1..30),
    ) {
        let h = counter_history(&incs, &reads);
        let offline = naive::check_counter(&h, k);
        let online = stream(OnlineChecker::counter(k), &live_counter(&h));
        prop_assert_eq!(
            offline.is_ok(),
            online.is_ok(),
            "k={} naive={:?} online={:?} history={:?}",
            k, offline, online, h
        );
    }

    /// Same for the additive window shape.
    #[test]
    fn online_additive_counter_matches_offline(
        k in 0u64..5,
        incs in prop::collection::vec((0u64..30, 1u64..12, 1u64..4, 0u8..6), 0..20),
        reads in prop::collection::vec((0u64..30, 1u64..12, 0u64..25), 1..20),
    ) {
        let h = counter_history(&incs, &reads);
        prop_assert_eq!(
            naive::check_counter_additive(&h, k).is_ok(),
            stream(OnlineChecker::counter_additive(k), &live_counter(&h)).is_ok(),
            "k={} history={:?}",
            k, h
        );
    }

    /// Online ≡ naive for the max register, pending writes included.
    #[test]
    fn online_maxreg_matches_offline(
        k in 1u64..4,
        writes in prop::collection::vec((0u64..40, 1u64..15, 1u64..20, 0u8..6), 0..30),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..30), 1..30),
    ) {
        let h = MaxRegHistory {
            writes: writes
                .iter()
                .map(|&(inv, dur, value, die)| TimedWrite {
                    window: window(inv, dur, die),
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
        let live: Vec<LiveOp> = h
            .reads
            .iter()
            .map(|r| LiveOp {
                kind: OpKind::Read { returned: r.value },
                window: Interval::done(r.inv, r.resp),
                crashed: false,
            })
            .chain(h.writes.iter().map(|w| LiveOp {
                kind: OpKind::Write { value: w.value },
                window: w.window,
                crashed: false,
            }))
            .collect();
        prop_assert_eq!(
            naive::check_maxreg(&h, k).is_ok(),
            stream(OnlineChecker::maxreg(k), &live).is_ok(),
            "k={} history={:?}",
            k, h
        );
    }

    /// Crash-truncated runs: ops whose process crashes mid-flight are
    /// fed to the online checker as announce-then-`crash(pid)`, and to
    /// the naive reference in its native encoding — a pending increment
    /// (kept, may have taken effect) or a dropped read (imposes no
    /// constraint). Verdicts must agree.
    #[test]
    fn crash_truncated_runs_match_offline(
        k in 1u64..4,
        incs in prop::collection::vec((0u64..40, 1u64..15, 1u64..6, 0u8..6), 0..20),
        reads in prop::collection::vec((0u64..40, 1u64..15, 0u64..40, 0u8..6), 1..20),
    ) {
        let offline_h = CounterHistory {
            incs: incs
                .iter()
                .map(|&(inv, dur, amount, die)| TimedInc {
                    window: window(inv, dur, die),
                    amount,
                })
                .collect(),
            reads: reads
                .iter()
                .filter(|&&(_, _, _, die)| die != 0)
                .map(|&(inv, dur, value, _)| TimedRead {
                    inv,
                    resp: inv + dur,
                    value: u128::from(value),
                })
                .collect(),
        };
        let offline = naive::check_counter(&offline_h, k).is_ok();

        let live: Vec<LiveOp> = reads
            .iter()
            .map(|&(inv, dur, value, die)| LiveOp {
                kind: OpKind::Read { returned: u128::from(value) },
                window: window(inv, dur, die),
                crashed: die == 0,
            })
            .chain(incs.iter().map(|&(inv, dur, amount, die)| LiveOp {
                kind: OpKind::Inc { amount },
                window: window(inv, dur, die),
                crashed: die == 0,
            }))
            .collect();
        let online = stream(OnlineChecker::counter(k), &live);
        prop_assert_eq!(
            offline,
            online.is_ok(),
            "k={} offline_h={:?} online={:?}",
            k, offline_h, online
        );
    }
}

/// The seeded mutant: a valid sequential stream with two records
/// swapped out of timestamp order. The online checker must *catch*
/// the reorder — a sticky "fed out of order" violation — rather than
/// quietly computing a wrong verdict.
#[test]
fn reordered_push_mutant_is_caught() {
    let records = [
        complete(0, OpKind::Inc { amount: 1 }, 0, 1),
        complete(1, OpKind::Read { returned: 1 }, 2, 3),
        complete(2, OpKind::Inc { amount: 1 }, 4, 5),
        complete(3, OpKind::Read { returned: 2 }, 6, 7),
    ];
    // Baseline: in order, the stream is accepted.
    let mut checker = OnlineChecker::counter(1);
    for r in &records {
        checker.push(r).unwrap();
    }
    checker.finish().unwrap();

    // Mutant: swap records 1 and 2 (seeded, deterministic). The read's
    // announcement at timestamp 2 now arrives after the stream already
    // advanced to timestamp 5.
    let mut checker = OnlineChecker::counter(1);
    checker.push(&records[0]).unwrap();
    checker.push(&records[2]).unwrap();
    let err = checker.push(&records[1]).unwrap_err();
    assert!(err.message.contains("fed out of order"), "{}", err.message);
    // And it is sticky: the rest of the stream keeps re-reporting.
    let again = checker.push(&records[3]).unwrap_err();
    assert_eq!(err, again);
    assert!(checker.finish().is_err());
}

/// Retained state on a heavily concurrent but bounded-width stream
/// stays proportional to the concurrency, not the history length.
#[test]
fn retained_state_tracks_concurrency_not_history() {
    let width = 8u64; // concurrent ops per wave
    let mut checker = OnlineChecker::counter(1);
    let mut count: u128 = 0;
    let mut t = 0u64;
    for wave in 0..5_000u64 {
        // `width` increments open together, then all complete, then one
        // read observes the exact count.
        let base = t;
        for i in 0..width {
            checker
                .push(&announce(i as usize, OpKind::Inc { amount: 1 }, base + i))
                .unwrap();
        }
        t += width;
        for i in 0..width {
            checker
                .push(&complete(
                    i as usize,
                    OpKind::Inc { amount: 1 },
                    base + i,
                    t + i,
                ))
                .unwrap();
            count += 1;
        }
        t += width;
        checker
            .push(&complete(100, OpKind::Read { returned: count }, t, t + 1))
            .unwrap();
        t += 2;
        assert!(
            checker.retained() <= 4 * width as usize + 64,
            "wave {wave}: retained {} outgrew the concurrency bound",
            checker.retained()
        );
    }
    assert!(checker.peak_retained() <= 4 * width as usize + 64);
}
