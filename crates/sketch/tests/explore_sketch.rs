//! Exhaustive schedule exploration of small sketch configurations: every
//! interleaving (and every crash point) of 3-process × 2-op programs is
//! checked against the `lincheck::sketchlog` envelopes — zero violations,
//! turning the sampled accuracy claims of `exp_sketch` into proofs for
//! these configurations. The programs submit the *machine* forms
//! ([`sketch::tasks`]); the blocking forms drive the same machines, so
//! the coverage transfers.

use lincheck::sketchlog;
use lincheck::SketchEnvelope;
use sketch::{
    specs, QuantileConfig, QuantileObserveTask, QuantileSketch, QuantileValueTask,
    SharedQuantileHandle, SharedTopKHandle, TopKAddTask, TopKConfig, TopKReadTask, TopKSketch,
};
use smr::explore::{explore, ExploreConfig};
use smr::{CoopBackend, Driver, Runtime};
use std::sync::Arc;

/// 2 observers × 2 observations each (colliding buckets) + 1 reader × 2
/// quantile reads — the 3-proc × 2-op quantile program.
fn quantile_program() -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(3));
    let sk = QuantileSketch::new(QuantileConfig {
        n: 3,
        k: 2,
        base: 2,
        max_value: 4, // buckets [1,2), [2,4), [4,8): 3 counter reads per read op
    });
    for pid in 0..2usize {
        let h: SharedQuantileHandle = Arc::new(parking_lot::Mutex::new(sk.handle(pid, 1)));
        // Both observers hit bucket 0 (contended) then bucket 1.
        d.submit_task(
            pid,
            specs::quantile_observe(1, 1),
            QuantileObserveTask::new(h.clone(), 1, 1),
        );
        d.submit_task(
            pid,
            specs::quantile_observe(3, 1),
            QuantileObserveTask::new(h.clone(), 3, 1),
        );
    }
    let r: SharedQuantileHandle = Arc::new(parking_lot::Mutex::new(sk.handle(2, 1)));
    d.submit_task(
        2,
        specs::quantile_read(1, 2),
        QuantileValueTask::new(r.clone(), 1, 2),
    );
    d.submit_task(
        2,
        specs::quantile_read(99, 100),
        QuantileValueTask::new(r.clone(), 99, 100),
    );
    d
}

#[test]
fn quantile_program_passes_on_every_interleaving() {
    let env = SketchEnvelope::new(2, 2); // two observers share the buckets
    let stats = explore(&ExploreConfig::exhaustive(), quantile_program, |h| {
        sketchlog::check_quantile_records(h, &env, 2)
    });
    assert!(
        stats.all_ok(),
        "quantile envelope violated: {:?}",
        stats.violations
    );
    assert!(!stats.capped);
    assert!(
        stats.interleavings > 100,
        "suspiciously few interleavings: {}",
        stats.interleavings
    );
}

#[test]
fn quantile_program_survives_crash_injection() {
    // Every single-crash schedule: pending observations become optional
    // effects and the envelope must still hold on every cut.
    let env = SketchEnvelope::new(2, 2);
    let cfg = ExploreConfig {
        max_crashes: 1,
        ..ExploreConfig::default()
    };
    let stats = explore(&cfg, quantile_program, |h| {
        sketchlog::check_quantile_records(h, &env, 2)
    });
    assert!(
        stats.all_ok(),
        "quantile envelope violated under crashes: {:?}",
        stats.violations
    );
}

/// 2 writers on distinct keys/shards + 1 reader doing top-1 — the
/// pruned-read top-k program (writer 1's key lands in shard 1, writer
/// 0's in shard 0, so the reader's scan order and pruning bound are
/// exercised under every interleaving).
fn topk_program() -> Driver<CoopBackend> {
    let mut d = Driver::coop(Runtime::coop(3));
    let sk = TopKSketch::new(TopKConfig {
        n: 3,
        keys: 2,
        shards: 2,
        k: 3,
        max_accuracy: 2,
        max_bound: 64,
    });
    for pid in 0..2usize {
        let h: SharedTopKHandle = Arc::new(parking_lot::Mutex::new(sk.handle(pid, 1)));
        d.submit_task(
            pid,
            specs::topk_add(pid, 1),
            TopKAddTask::new(h.clone(), pid, 1),
        );
    }
    let r: SharedTopKHandle = Arc::new(parking_lot::Mutex::new(sk.handle(2, 1)));
    d.submit_task(2, specs::topk_read(1), TopKReadTask::new(r, 1));
    d
}

#[test]
fn topk_program_passes_on_every_interleaving() {
    // Commuting-step pruning keeps only one representative per
    // equivalence class — coverage is still exhaustive (every
    // distinguishable history cut is checked).
    let env = SketchEnvelope::new(3, 1); // one writer per key
    let stats = explore(&ExploreConfig::default(), topk_program, |h| {
        sketchlog::check_topk_records(h, &env)
    });
    assert!(
        stats.all_ok(),
        "top-k envelope violated: {:?}",
        stats.violations
    );
    assert!(!stats.capped);
    assert!(
        stats.interleavings > 100,
        "suspiciously few interleavings: {}",
        stats.interleavings
    );
}

#[test]
fn topk_program_survives_crash_injection() {
    let env = SketchEnvelope::new(3, 1);
    let cfg = ExploreConfig {
        max_crashes: 1,
        ..ExploreConfig::default()
    };
    let stats = explore(&cfg, topk_program, |h| {
        sketchlog::check_topk_records(h, &env)
    });
    assert!(
        stats.all_ok(),
        "top-k envelope violated under crashes: {:?}",
        stats.violations
    );
}

#[test]
fn crash_injection_surfaces_a_pending_flush_exactly_once() {
    // One writer, one flushing add, a crash allowed at every prefix:
    // each cut must contain exactly one record for the op — pending
    // while the flush is in flight, completed otherwise — never a
    // duplicate.
    let factory = || {
        let mut d = Driver::coop(Runtime::coop(1));
        let sk = TopKSketch::new(TopKConfig {
            n: 1,
            keys: 2,
            shards: 2,
            k: 2,
            max_accuracy: 2,
            max_bound: 64,
        });
        let h: SharedTopKHandle = Arc::new(parking_lot::Mutex::new(sk.handle(0, 1)));
        d.submit_task(0, specs::topk_add(0, 2), TopKAddTask::new(h, 0, 2));
        d
    };
    let cfg = ExploreConfig {
        max_crashes: 1,
        prune: false,
        ..ExploreConfig::default()
    };
    let mut pending_cuts = 0u64;
    let stats = explore(&cfg, factory, |h| {
        if h.len() != 1 {
            return Err(format!("expected exactly one record, got {}", h.len()));
        }
        if h.ops()[0].resp.is_none() {
            pending_cuts += 1;
        }
        Ok(())
    });
    assert!(stats.all_ok(), "{:?}", stats.violations);
    assert!(
        pending_cuts > 0,
        "some crash point must catch the flush mid-flight"
    );
}
