//! In-memory spans recorded from the benchmark's side of each layer
//! call.
//!
//! A span has a name, a start, an end and the span that was open when
//! it started. Spans stay in memory until the run ends and are then
//! written out as one tab-separated file. The benchmark is single
//! threaded, so spans nest strictly: a child starts after its parent
//! and ends before it, and siblings never overlap. A span's self time
//! is its duration minus the durations of its children, and the self
//! times of a tree add up to its root's duration exactly.
//!
//! Spans are timed on the thread's CPU clock, not the wall clock. The
//! benchmark runs on a few cores of a shared host: time spent waiting
//! for a core, or stolen by the hypervisor, lands in wall time and
//! varies from run to run by tens of percent, while the work the
//! thread does shows in its CPU time alone. The benchmark does all its
//! work on one thread, so the thread's CPU time is the work's.
//!
//! Every [`Tracer::span`] call measures its duration, traced or not;
//! only the recording is switched off in untraced runs, so the
//! end-to-end numbers and the spans come from the same clock reads.
//! [`Tracer::inner`] is for spans too frequent to time when untraced:
//! untraced, it reads no clock at all.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// CPU time this thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec of the C layout on 64-bit
    // Linux, and the clock id is Linux's thread CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One recorded span. Times are nanoseconds of the thread's CPU time
/// since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Open {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Times closures and, when on, records each as a [`Span`].
pub struct Tracer {
    on: bool,
    origin: u64,
    open: RefCell<Open>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: thread_cpu_ns(),
            open: RefCell::new(Open::default()),
        }
    }

    /// Run `f` as span `name`; returns its result and its duration in
    /// CPU seconds. `f` may open spans of its own (they become children).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = thread_cpu_ns();
        let idx = self.on.then(|| {
            let mut open = self.open.borrow_mut();
            let idx = open.spans.len();
            let parent = open.stack.last().copied();
            open.spans.push(Span {
                name,
                start_ns: start - self.origin,
                end_ns: 0,
                parent,
            });
            open.stack.push(idx);
            idx
        });
        let out = f();
        let end = thread_cpu_ns();
        if let Some(idx) = idx {
            let mut open = self.open.borrow_mut();
            open.stack.pop();
            open.spans[idx].end_ns = end - self.origin;
        }
        (out, (end - start) as f64 * 1e-9)
    }

    /// Run `f` as span `name` if the tracer is on, else just run it.
    pub fn inner<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.on {
            self.span(name, f).0
        } else {
            f()
        }
    }

    /// The spans recorded so far, leaving none behind.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.open.borrow_mut().spans)
    }
}

/// Each span's self time in nanoseconds: its duration minus its
/// children's. Negative only if spans failed to nest, which
/// [`check_nesting`] reports.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.dur_ns());
        }
    }
    own
}

/// `Err` naming the first span whose self time is negative, or if the
/// self times do not add up to the durations of the root spans.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let own = self_times(spans);
    if let Some(i) = own.iter().position(|&t| t < 0) {
        return Err(format!(
            "span {i} ({}) has negative self time {} ns",
            spans[i].name, own[i]
        ));
    }
    let roots: i128 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| i128::from(s.dur_ns()))
        .sum();
    let total: i128 = own.iter().sum();
    if total != roots {
        return Err(format!(
            "self times add up to {total} ns, root spans to {roots} ns"
        ));
    }
    Ok(())
}

/// Per span name: `(self seconds, total seconds, calls)`, by name.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&own) {
        let e = out.entry(s.name).or_default();
        e.0 += t as f64 * 1e-9;
        e.1 += s.dur_ns() as f64 * 1e-9;
        e.2 += 1;
    }
    out
}

/// The spans as tab-separated lines under a header: index, parent
/// (`-` for a root), name, start, end and self time in nanoseconds.
pub fn to_tsv(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("index\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (i, (s, t)) in spans.iter().zip(&own).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{t}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_account_for_their_root() {
        let tr = Tracer::new(true);
        let ((), root_s) = tr.span("root", || {
            tr.span("a", || {
                tr.span("a1", || std::hint::black_box(0u64));
            });
            tr.span("b", || std::hint::black_box(1u64));
        });
        let spans = tr.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        check_nesting(&spans).expect("strictly nested");
        let total: f64 = ledger(&spans).values().map(|v| v.0).sum();
        assert!((total - spans[0].dur_ns() as f64 * 1e-9).abs() < 1e-9);
        assert!(root_s > 0.0);
    }

    #[test]
    fn an_untraced_tracer_times_but_records_nothing() {
        let tr = Tracer::new(false);
        let (v, secs) = tr.span("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(tr.inner("y", || 8), 8);
        assert!(tr.take().is_empty());
    }

    #[test]
    fn a_child_longer_than_its_parent_is_reported() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 10,
                parent: None,
            },
            Span {
                name: "child",
                start_ns: 0,
                end_ns: 20,
                parent: Some(0),
            },
        ];
        assert!(check_nesting(&spans).is_err());
    }
}
