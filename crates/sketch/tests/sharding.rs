//! Shard-boundary behavior: keys colliding on one stripe, the `S = 1`
//! degenerate sharding against the unsharded reference, and crash
//! injection surfacing a pending flush exactly once.

use sketch::{specs, SharedTopKHandle, TopKAddTask, TopKConfig, TopKSketch};
use smr::sched::RoundRobin;
use smr::{Driver, Runtime};
use std::sync::Arc;

#[test]
fn same_stripe_keys_share_a_shard_and_its_maximum() {
    // Keys 1, 5, 9 all hash to stripe 1 of 4. The shard maximum must
    // dominate every flushed reading of the colliding keys, and top-k
    // must still separate them.
    let rt = Runtime::free_running(1);
    let ctx = rt.ctx(0);
    let sk = TopKSketch::new(TopKConfig {
        n: 1,
        keys: 12,
        shards: 4,
        k: 2,
        ..TopKConfig::default()
    });
    assert_eq!(sk.shard_of(1), sk.shard_of(5));
    assert_eq!(sk.shard_of(1), sk.shard_of(9));
    let mut h = sk.handle(0, 1);
    for (key, units) in [(1usize, 30u64), (5, 10), (9, 3)] {
        for _ in 0..units {
            h.add(&ctx, key, 1);
        }
    }
    let top = h.top_k(&ctx, 3);
    let keys: Vec<u64> = top.entries.iter().map(|&(k, _)| k).collect();
    assert_eq!(keys, vec![1, 5, 9], "heaviest first within one stripe");
    // The shard maximum is one-sided above every per-key reading.
    let m = sk.shard_max(sk.shard_of(1)).read(&ctx);
    let heaviest = top.entries[0].1;
    assert!(
        m >= heaviest,
        "shard max {m} below the heaviest flushed reading {heaviest}"
    );
}

#[test]
fn single_shard_read_path_equals_flat_reference() {
    // With S = 1 the pruned scan degenerates to a full scan: the sketch
    // read and the unsharded reference must return identical entries.
    let rt = Runtime::free_running(1);
    let ctx = rt.ctx(0);
    let sk = TopKSketch::new(TopKConfig {
        n: 1,
        keys: 16,
        shards: 1,
        k: 2,
        ..TopKConfig::default()
    });
    let mut h = sk.handle(0, 1);
    for i in 0..200usize {
        h.add(&ctx, (i * 7) % 16, 1 + (i as u64 % 3));
    }
    for q in [1usize, 3, 8, 16] {
        let sharded = h.top_k(&ctx, q);
        let flat = h.flat_top_k(&ctx, q);
        assert_eq!(sharded.entries, flat.entries, "q = {q}");
    }
}

#[test]
fn sharded_and_unsharded_sketches_agree_on_identical_traces() {
    // The same add sequence against S = 1 and S = 4 sketches: per-key
    // counter traces are identical, so the top-k entries must be too
    // (sharding changes the read path, not the counts).
    let run = |shards: usize| {
        let rt = Runtime::free_running(1);
        let ctx = rt.ctx(0);
        let sk = TopKSketch::new(TopKConfig {
            n: 1,
            keys: 8,
            shards,
            k: 2,
            ..TopKConfig::default()
        });
        let mut h = sk.handle(0, 2);
        for i in 0..100usize {
            h.add(&ctx, (i * 3) % 8, 1);
        }
        h.flush(&ctx);
        h.top_k(&ctx, 4).entries
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn crash_mid_flush_leaves_one_pending_record_in_the_snapshot() {
    // A flushing add suspended by a crash must surface as exactly one
    // pending record in history_snapshot() — never zero, never a
    // duplicate.
    for steps in 0..4 {
        let mut d = Driver::coop(Runtime::coop(1));
        let sk = TopKSketch::new(TopKConfig {
            n: 1,
            keys: 4,
            shards: 2,
            ..TopKConfig::default()
        });
        let handle: SharedTopKHandle = Arc::new(parking_lot::Mutex::new(sk.handle(0, 1)));
        d.submit_task(0, specs::topk_add(1, 2), TopKAddTask::new(handle, 1, 2));
        for _ in 0..steps {
            let _ = d.step(0);
        }
        d.crash(0);
        let h = d.history_snapshot();
        assert_eq!(
            h.len(),
            1,
            "steps={steps}: exactly one record for the one op"
        );
        let rec = &h.ops()[0];
        assert_eq!(rec.resp, None, "steps={steps}: flush pending");
        assert_eq!(rec.steps, steps as u64);
    }
}

#[test]
fn multi_process_writers_and_reader_under_a_gated_schedule() {
    // Three writers with disjoint key sets plus one reader, driven to
    // completion under round-robin on the coop backend; the final top-k
    // must identify the heavy key and pass the envelope checker.
    let rt = Runtime::coop(4);
    let mut d = Driver::coop(rt);
    let sk = TopKSketch::new(TopKConfig {
        n: 4,
        keys: 9,
        shards: 3,
        k: 2,
        ..TopKConfig::default()
    });
    for pid in 0..3usize {
        let h: SharedTopKHandle = Arc::new(parking_lot::Mutex::new(sk.handle(pid, 1)));
        let hot = pid; // writer pid hammers key pid, grazes key pid+3
        for i in 0..6u64 {
            let key = if i % 3 == 0 { hot + 3 } else { hot };
            d.submit_task(
                pid,
                specs::topk_add(key, 1),
                TopKAddTask::new(h.clone(), key, 1),
            );
        }
    }
    let reader: SharedTopKHandle = Arc::new(parking_lot::Mutex::new(sk.handle(3, 1)));
    d.submit_task(3, specs::topk_read(3), sketch::TopKReadTask::new(reader, 3));
    d.run_schedule(&mut RoundRobin::new());
    let env = lincheck::SketchEnvelope::new(2, 1);
    lincheck::check_topk_records(d.history(), &env).expect("envelope holds");
}
