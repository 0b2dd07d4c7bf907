//! Step-scaled snapshot reporting.
//!
//! A [`Reporter`] is *pumped* by its owner with the runtime's monotone
//! step counter (`Runtime::total_steps()`, an explorer's replay count —
//! any deterministic progress measure) and takes a
//! [`MetricsSnapshot`] each time the counter
//! crosses a multiple of the configured interval. Sampling is keyed to
//! *scaled steps, never wall-clock*: two runs of the same schedule pump
//! the same counter values, so they sample at identical logical instants
//! and produce comparable snapshot sequences — a timer would make every
//! instrumented coop/explore run schedule-dependent on machine speed.

use crate::registry::{snapshot, MetricsSnapshot};

/// Samples the registry every `every` steps of a caller-pumped counter.
pub struct Reporter {
    every: u64,
    next: u64,
    samples: Vec<(u64, MetricsSnapshot)>,
}

impl Reporter {
    /// A reporter sampling at step multiples of `every` (first sample
    /// once the pumped counter reaches `every`).
    ///
    /// # Panics
    /// Panics on a zero interval.
    pub fn new(every: u64) -> Reporter {
        assert!(every >= 1, "sampling interval must be at least one step");
        Reporter {
            every,
            next: every,
            samples: Vec::new(),
        }
    }

    /// Pump the progress counter. Takes at most one snapshot per call
    /// (a burst that crosses several intervals yields one sample,
    /// stamped with the steps actually observed — sampling is lossy by
    /// design, deterministically so for a deterministic pump sequence).
    /// Returns `true` if a snapshot was taken.
    pub fn poll(&mut self, steps_now: u64) -> bool {
        if steps_now < self.next {
            return false;
        }
        self.samples.push((steps_now, snapshot()));
        // Re-arm at the next multiple of `every` above steps_now.
        self.next = (steps_now / self.every + 1) * self.every;
        true
    }

    /// The sampling interval.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// All samples taken, in pump order: `(steps at sample, snapshot)`.
    pub fn samples(&self) -> &[(u64, MetricsSnapshot)] {
        &self.samples
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<&(u64, MetricsSnapshot)> {
        self.samples.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_on_interval_crossings_only() {
        let mut r = Reporter::new(100);
        assert!(!r.poll(1));
        assert!(!r.poll(99));
        assert!(r.poll(100), "exact multiple samples");
        assert!(!r.poll(150), "re-armed at 200");
        assert!(r.poll(250), "burst past 200 samples once");
        assert!(!r.poll(299), "re-armed at 300, not 350");
        assert_eq!(
            r.samples().iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![100, 250]
        );
    }

    #[test]
    fn identical_pump_sequences_sample_identically() {
        // The determinism argument, pinned: the sample points are a
        // pure function of the pumped counter sequence.
        let pump = [7u64, 40, 99, 100, 101, 220, 230, 500];
        let run = || {
            let mut r = Reporter::new(100);
            pump.iter().map(|&s| r.poll(s)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
