//! The checker's retained gauge (`obs` subsystem `lincheck`, field
//! `retained_entries`) is a high-water mark across checkers: every
//! check, post hoc or streamed, raises it to the check's peak retained
//! state, and several checks leave it at the largest of their peaks,
//! not at their sum.
//!
//! One test in its own binary: it turns metric collection on, which is
//! process-wide, and reads the gauge, which every checker writes.

use lincheck::{check_counter_records, OnlineChecker};
use smr::{History, OpKind, OpRecord};

/// `width` overlapping increments, then a read after all of them.
fn history(width: u64) -> History {
    let mut h: History = (0..width)
        .map(|i| OpRecord {
            pid: i as usize,
            kind: OpKind::Inc { amount: 1 },
            inv: i,
            resp: Some(width + i),
            steps: 1,
        })
        .collect();
    h.push(OpRecord {
        pid: width as usize,
        kind: OpKind::Read {
            returned: u128::from(width),
        },
        inv: 2 * width,
        resp: Some(2 * width + 1),
        steps: 1,
    });
    h
}

/// The peak retained state of `h`'s announcements and completions,
/// pushed one by one in timestamp order.
fn streamed_peak(h: &History) -> usize {
    let mut events: Vec<(u64, OpRecord)> = Vec::new();
    for r in h.ops() {
        let announce = OpRecord {
            resp: None,
            ..r.clone()
        };
        events.push((r.inv, announce));
        events.push((r.resp.expect("completed"), r.clone()));
    }
    events.sort_by_key(|(t, _)| *t);
    let mut checker = OnlineChecker::counter(1);
    for (_, r) in &events {
        checker.push(r).expect("linearizable");
    }
    checker.peak_retained()
}

#[test]
fn the_gauge_holds_the_largest_peak_of_any_check() {
    let (narrow, wide) = (history(2), history(6));
    // Measured while collection is still off, so the gauge is untouched.
    let (small, large) = (streamed_peak(&narrow), streamed_peak(&wide));
    assert!(small < large, "{small} vs {large}");
    let (small, large) = (small as i64, large as i64);

    obs::set_enabled(true);
    let gauge = obs::gauge(obs::names::SUB_LINCHECK, obs::names::LINCHECK_RETAINED);
    gauge.reset();
    check_counter_records(&narrow, 1).unwrap();
    assert_eq!(gauge.get(), small, "a post-hoc check raises it to its peak");
    check_counter_records(&wide, 1).unwrap();
    assert_eq!(gauge.get(), large, "a larger peak raises it");
    check_counter_records(&narrow, 1).unwrap();
    assert_eq!(gauge.get(), large, "a smaller peak leaves it");
    streamed_peak(&narrow);
    assert_eq!(gauge.get(), large, "a streamed check follows the same rule");
    gauge.reset();
    streamed_peak(&wide);
    assert_eq!(gauge.get(), large, "a streamed check raises it to its peak");
}
