//! [`ThreadBackend`]: one worker thread per process of a free-running
//! runtime.
//!
//! Workers block on a command channel and run each operation to
//! completion at native speed, concurrently with each other — real
//! concurrency for throughput runs and the thread-sanitizer lane.
//! Every operation reaches a worker as one boxed job: a closure from
//! `Driver::submit` as it is, an [`OpTask`] as a closure that polls it
//! to completion. Each completion is sent back as an [`OpRecord`];
//! nothing is announced at invocation, since nothing can suspend a
//! free-running operation.

use super::ExecBackend;
use crate::history::{OpRecord, OpSpec};
use crate::runtime::Runtime;
use crate::task::{OpTask, Poll};
use crate::ProcCtx;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One operation as a worker runs it.
type Job = Box<dyn FnOnce(&ProcCtx) -> u128 + Send>;

/// The thread-per-process execution backend: one worker thread per
/// process of a free-running runtime, each running its operations to
/// completion at native speed.
pub struct ThreadBackend {
    runtime: Arc<Runtime>,
    /// Per-pid command channels; dropping them stops the workers once
    /// their queues are empty.
    cmd_tx: Vec<Sender<(OpSpec, Job)>>,
    evt_rx: Receiver<OpRecord>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadBackend {
    /// Spawn one worker per process of `runtime`.
    ///
    /// # Panics
    /// Panics on a coop runtime — its processes are virtual; use
    /// [`Driver::coop`](crate::Driver::coop) or
    /// [`Driver::coop_free`](crate::Driver::coop_free).
    pub fn new(runtime: Arc<Runtime>) -> Self {
        assert!(
            !runtime.is_coop(),
            "the thread backend cannot drive a coop runtime; \
             use Driver::coop (or Runtime::free_running)"
        );
        let n = runtime.n();
        let (evt_tx, evt_rx) = unbounded();
        let mut cmd_tx = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for pid in 0..n {
            let (tx, rx) = unbounded();
            cmd_tx.push(tx);
            let rt = runtime.clone();
            let etx = evt_tx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("smr-worker-{pid}"))
                    .spawn(move || worker_loop(rt, pid, rx, etx))
                    .expect("spawn worker"),
            );
        }
        ThreadBackend {
            runtime,
            cmd_tx,
            evt_rx,
            workers,
        }
    }

    /// Queue `job` on `pid`'s worker; it starts once the worker is done
    /// with the jobs queued before it.
    pub(crate) fn submit_job(&mut self, pid: usize, spec: OpSpec, job: Job) {
        self.cmd_tx[pid].send((spec, job)).expect("worker alive");
    }

    /// Let every in-flight and queued operation run to completion, then
    /// join the workers. Completions produced here are discarded.
    fn shutdown(&mut self) {
        // Whatever still runs after this point is teardown, not the
        // modelled execution: cut the analysis stream first.
        self.runtime.seal_analysis();
        self.cmd_tx.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl ExecBackend for ThreadBackend {
    fn submit_task<T: OpTask + 'static>(&mut self, pid: usize, spec: OpSpec, mut task: T) {
        let job = move |ctx: &ProcCtx| loop {
            if let Poll::Ready(v) = task.poll(ctx) {
                break v;
            }
        };
        self.submit_job(pid, spec, Box::new(job));
    }

    fn drain(&mut self, sink: &mut dyn FnMut(OpRecord)) {
        while let Ok(rec) = self.evt_rx.try_recv() {
            sink(rec);
        }
    }

    fn wait_event(&mut self) -> OpRecord {
        self.evt_rx.recv().expect("workers alive")
    }
}

impl Drop for ThreadBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    runtime: Arc<Runtime>,
    pid: usize,
    rx: Receiver<(OpSpec, Job)>,
    tx: Sender<OpRecord>,
) {
    let ctx = runtime.ctx(pid);
    while let Ok((spec, job)) = rx.recv() {
        let inv = runtime.ticket();
        let steps_before = ctx.steps_taken();
        let ret = job(&ctx);
        let steps = ctx.steps_taken() - steps_before;
        let resp = runtime.ticket();
        let _ = tx.send(OpRecord {
            pid,
            kind: spec.kind(ret),
            inv,
            resp: Some(resp),
            steps,
        });
    }
}
