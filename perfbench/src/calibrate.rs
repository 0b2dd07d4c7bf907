//! A fixed calibration kernel that prices the host's speed at the time
//! of a measurement.
//!
//! The benchmark shares its cores' caches and memory with other
//! tenants. Their load moves the speed of memory-bound code by up to
//! twofold, over seconds to minutes, even in the thread's own CPU time,
//! while pure arithmetic barely moves. A run's median cannot average
//! out a slow spell that lasts the whole run; a kernel timed in the
//! same spell can. The kernel does the kind of work the workloads do:
//! dispatch through boxed trait objects picked at random, a shared
//! table, an append-only record log, allocation churn, then a sort and
//! a sweep. It is built from this file alone, so no change to the
//! repository's crates changes what it costs.
//!
//! An untraced run times the kernel in a process of its own before the
//! first iteration and after every iteration, and scales each
//! iteration's timings by [`NOMINAL_S`] over the mean of the two kernel
//! times around it: the time the iteration would have taken on a host
//! where the kernel takes [`NOMINAL_S`].

use crate::spans::thread_cpu_ns;

/// The kernel's CPU time on the host the benchmark's bounds were set
/// on (a 2-vCPU Xeon virtual machine): the scale the end-to-end timings
/// are reported at.
pub const NOMINAL_S: f64 = 0.06;

/// Boxed tasks the kernel dispatches to.
const TASKS: usize = 1 << 14;
/// Dispatches per kernel run.
const STEPS: usize = 400_000;
/// Entries of the shared table.
const TABLE: usize = 1 << 16;
/// One task in this many dispatches is replaced by a fresh allocation.
const CHURN_EVERY: usize = 64;

trait Step {
    fn step(&mut self, table: &mut [u64], log: &mut Vec<[u64; 4]>);
}

struct Task {
    state: u64,
    id: u64,
    /// Pads a task to a cache line, as the runtime's tasks are.
    touched: [u64; 6],
}

impl Task {
    fn boxed(state: u64, id: u64) -> Box<dyn Step> {
        Box::new(Task {
            state,
            id,
            touched: [0; 6],
        })
    }
}

impl Step for Task {
    fn step(&mut self, table: &mut [u64], log: &mut Vec<[u64; 4]>) {
        let i = (self.state % table.len() as u64) as usize;
        table[i] = table[i].wrapping_add(self.id | 1);
        self.state = (self.state ^ table[i])
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        self.touched[0] += 1;
        log.push([self.state, self.id, table[i], log.len() as u64]);
    }
}

/// Run the kernel once; returns a digest of its work.
fn kernel() -> u64 {
    let mut rng: u64 = 0x0123_4567_89AB_CDEF;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut tasks: Vec<Box<dyn Step>> = (0..TASKS as u64)
        .map(|id| Task::boxed(id.wrapping_mul(7919), id))
        .collect();
    let mut table = vec![0u64; TABLE];
    let mut log = Vec::new();
    for s in 0..STEPS {
        let t = (next() % TASKS as u64) as usize;
        tasks[t].step(&mut table, &mut log);
        if s % CHURN_EVERY == 0 {
            tasks[t] = Task::boxed(s as u64, t as u64);
        }
    }
    log.sort_unstable_by_key(|r| r[0]);
    let mut max = 0u64;
    log.iter().fold(0u64, |acc, r| {
        max = max.max(r[2]);
        acc.wrapping_add(max ^ r[1])
    })
}

/// CPU seconds one run of the kernel takes on this thread now.
pub fn kernel_s() -> f64 {
    let start = thread_cpu_ns();
    std::hint::black_box(kernel());
    (thread_cpu_ns() - start) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
        assert!(kernel_s() > 0.0);
    }
}
