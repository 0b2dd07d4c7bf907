//! The metric catalogue and how each metric is computed from measured
//! iterations.
//!
//! End-to-end metrics come from untraced iterations, each run in a
//! process of its own, with timings scaled to a nominal host speed (see
//! `calibrate`). Per-layer metrics
//! come from one traced repetition: a plain iteration (the untraced
//! reference), a traced one (spans plus an `obs` snapshot), one with
//! `obs` disabled, and one per analysis toggle of the workload. A layer
//! the workload bypasses reports 0.

use crate::spans::{self, Span};
use crate::workloads::{Object, Outcome, Passes, StepHist, Workload};
use obs::names as on;
use obs::MetricsSnapshot;
use std::collections::BTreeMap;

/// A metric's name, unit and the direction that is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const END_TO_END: &[Metric] = &[
    m("checked_ops_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("steps_per_op", "steps/op", "lower"),
    m("op_steps_p99", "steps", "lower"),
    m("op_steps_max", "steps", "lower"),
];

pub const PER_LAYER: &[Metric] = &[
    m("smr.setup_s", "s", "lower"),
    m("smr.submit_per_s", "1/s", "higher"),
    m("smr.exec_s", "s", "lower"),
    m("smr.steps_per_s", "1/s", "higher"),
    m("smr.polls_per_op", "polls/op", "lower"),
    m("smr.arena_bytes", "B", "lower"),
    m("smr.history_records", "count", "lower"),
    m("approx_objects.kcounter.inc_steps_mean", "steps", "lower"),
    m("approx_objects.kcounter.read_steps_mean", "steps", "lower"),
    m("approx_objects.kcounter.read_steps_max", "steps", "lower"),
    m("approx_objects.kmaxreg.read_steps_mean", "steps", "lower"),
    m("approx_objects.kmaxreg.read_steps_max", "steps", "lower"),
    m("approx_objects.kmaxreg.write_steps_mean", "steps", "lower"),
    m("approx_objects.kmaxreg.write_steps_max", "steps", "lower"),
    m("lincheck.extract_s", "s", "lower"),
    m("lincheck.check_s", "s", "lower"),
    m("lincheck.records_per_s", "1/s", "higher"),
    m("lincheck.records_check_s", "s", "lower"),
    m("lincheck.pushes", "count", "lower"),
    m("lincheck.folds", "count", "lower"),
    m("lincheck.peak_retained_entries", "count", "lower"),
    m("lincheck.reorder_occupancy_p99", "count", "lower"),
    m("analysis.passes_s", "s", "lower"),
    m("analysis.lin_pass_s", "s", "lower"),
    m("analysis.hb_pass_s", "s", "lower"),
    m("analysis.finish_s", "s", "lower"),
    m("explore.schedules", "count", "lower"),
    m("explore.steps_per_schedule", "steps", "lower"),
    m("explore.pruned_share", "share", "higher"),
    m("explore.replays", "count", "lower"),
    m("explore.sleep_hits", "count", "higher"),
    m("explore.backtracks", "count", "lower"),
    m("explore.factory_s", "s", "lower"),
    m("explore.self_s", "s", "lower"),
    m("obs.marginal_s", "s", "lower"),
    m("trace.overhead_share", "share", "lower"),
    m("trace.workload_s", "s", "lower"),
    m("trace.spans", "count", "lower"),
    m("span.workload.self_s", "s", "lower"),
    m("span.setup.self_s", "s", "lower"),
    m("span.submit.self_s", "s", "lower"),
    m("span.exec.self_s", "s", "lower"),
    m("span.take_history.self_s", "s", "lower"),
    m("span.extract.self_s", "s", "lower"),
    m("span.check.self_s", "s", "lower"),
    m("span.analyzer_finish.self_s", "s", "lower"),
    m("span.explore.self_s", "s", "lower"),
    m("span.factory.self_s", "s", "lower"),
    m("span.records_check.self_s", "s", "lower"),
    m("failed_op_share", "share", "lower"),
];

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What an untraced run keeps of one iteration. Each untraced iteration
/// runs in a process of its own and hands its sample back as
/// `key value` lines ([`Sample::to_lines`], [`Sample::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub setup_s: f64,
    pub run_s: f64,
    pub checked: u64,
    pub submitted: u64,
    pub failed: u64,
    pub steps_per_op: f64,
    pub op_steps_p99: u64,
    pub op_steps_max: u64,
    /// Peak resident memory of the iteration's process.
    pub rss_kib: u64,
    /// Counts that must repeat exactly for one seed.
    pub fingerprint: Vec<u64>,
    pub breaches: Vec<String>,
}

impl Sample {
    pub fn of(o: &Outcome, rss_kib: u64) -> Self {
        Sample {
            setup_s: o.setup_s,
            run_s: o.run_s,
            checked: o.checked,
            submitted: o.submitted,
            failed: o.failed,
            steps_per_op: o.steps_per_op(),
            op_steps_p99: o.op_steps.all.quantile(99, 100),
            op_steps_max: o.op_steps.all.max(),
            rss_kib,
            fingerprint: o.fingerprint.clone(),
            breaches: o.breaches.clone(),
        }
    }

    /// Checked records per second of measured (post-set-up) time.
    pub fn checked_rate(&self) -> f64 {
        self.checked as f64 / self.run_s.max(1e-12)
    }

    pub fn to_lines(&self) -> String {
        let fp: Vec<String> = self.fingerprint.iter().map(u64::to_string).collect();
        let mut out = format!(
            "setup_s {:?}\nrun_s {:?}\nchecked {}\nsubmitted {}\nfailed {}\n\
             steps_per_op {:?}\nop_steps_p99 {}\nop_steps_max {}\nrss_kib {}\nfingerprint {}\n",
            self.setup_s,
            self.run_s,
            self.checked,
            self.submitted,
            self.failed,
            self.steps_per_op,
            self.op_steps_p99,
            self.op_steps_max,
            self.rss_kib,
            fp.join(",")
        );
        for b in &self.breaches {
            out.push_str(&format!("breach {}\n", b.replace('\n', " ")));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut fields = BTreeMap::new();
        let mut breaches = Vec::new();
        for line in text.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if key == "breach" {
                breaches.push(value.to_string());
            } else {
                fields.insert(key, value);
            }
        }
        let field = |key: &str| {
            fields
                .get(key)
                .copied()
                .ok_or_else(|| format!("iteration printed no {key}"))
        };
        let num = |key: &str| {
            field(key)?
                .parse::<f64>()
                .map_err(|e| format!("iteration {key}: {e}"))
        };
        let int = |key: &str| {
            field(key)?
                .parse::<u64>()
                .map_err(|e| format!("iteration {key}: {e}"))
        };
        let fp = field("fingerprint")?;
        Ok(Sample {
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            checked: int("checked")?,
            submitted: int("submitted")?,
            failed: int("failed")?,
            steps_per_op: num("steps_per_op")?,
            op_steps_p99: int("op_steps_p99")?,
            op_steps_max: int("op_steps_max")?,
            rss_kib: int("rss_kib")?,
            fingerprint: fp
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().map_err(|e| format!("iteration fingerprint: {e}")))
                .collect::<Result<_, _>>()?,
            breaches,
        })
    }
}

/// End-to-end metrics over the untraced iterations of one seed: timings
/// and peak memory are medians over the iterations' processes, step
/// counts come from the first iteration (the gates require every
/// iteration to repeat them). Each iteration's timings are multiplied
/// by its entry of `scales`, the host-speed factor from
/// [`crate::calibrate`].
pub fn end_to_end(samples: &[Sample], scales: &[f64]) -> Vec<(&'static str, f64)> {
    assert_eq!(samples.len(), scales.len(), "one scale per sample");
    let first = &samples[0];
    let of = |f: &dyn Fn(&Sample, f64) -> f64| {
        median(
            &samples
                .iter()
                .zip(scales)
                .map(|(s, &k)| f(s, k))
                .collect::<Vec<f64>>(),
        )
    };
    vec![
        ("checked_ops_per_s", of(&|s, k| s.checked_rate() / k)),
        ("setup_s", of(&|s, k| s.setup_s * k)),
        ("peak_rss_mib", of(&|s, _| s.rss_kib as f64 / 1024.0)),
        ("steps_per_op", first.steps_per_op),
        ("op_steps_p99", first.op_steps_p99 as f64),
        ("op_steps_max", first.op_steps_max as f64),
    ]
}

/// One traced repetition of a workload.
pub struct Repetition {
    /// Untraced, every layer on: the reference the others are priced
    /// against.
    pub plain: Outcome,
    pub traced: Outcome,
    pub spans: Vec<Span>,
    /// `obs` snapshot taken right after the traced iteration (metrics
    /// reset right before it).
    pub snapshot: MetricsSnapshot,
    /// Untraced with `obs` disabled.
    pub obs_off: Outcome,
    /// Untraced under each of the workload's analysis toggles.
    pub toggles: Vec<(Passes, Outcome)>,
}

fn snap(s: &MetricsSnapshot, sub: &str, field: &str) -> f64 {
    s.get(sub, field).unwrap_or(0) as f64
}

impl Repetition {
    fn toggle(&self, p: Passes) -> Option<&Outcome> {
        self.toggles.iter().find(|(q, _)| *q == p).map(|(_, o)| o)
    }

    /// Marginal run time of the configuration `p` over a detached run.
    fn over_detached(&self, p: Passes) -> f64 {
        let Some(detached) = self.toggle(Passes::Detached) else {
            return 0.0;
        };
        let with = if p == Passes::Full {
            Some(&self.plain)
        } else {
            self.toggle(p)
        };
        with.map_or(0.0, |o| o.run_s - detached.run_s)
    }

    /// Failure gates of the traced repetition: span nesting, and every
    /// subsystem the workload exercises must have reported.
    pub fn breaches(&self, w: Workload) -> Vec<String> {
        let mut out = Vec::new();
        if let Err(e) = spans::check_nesting(&self.spans) {
            out.push(format!("spans: {e}"));
        }
        let mut must = Vec::new();
        if w != Workload::ExploreDpor {
            must.push((on::SUB_COOP, on::COOP_POLLS));
        }
        if matches!(w, Workload::KmaxregGated | Workload::KcounterAudit) {
            must.push((on::SUB_LINCHECK, on::LINCHECK_PUSHES));
        }
        if w == Workload::ExploreDpor {
            must.push((on::SUB_EXPLORE, on::EXPLORE_REPLAYS));
        }
        for (sub, field) in must {
            if self.snapshot.get(sub, field).unwrap_or(0) == 0 {
                out.push(format!(
                    "obs: {sub}.{field} is 0 on a workload that exercises it"
                ));
            }
        }
        out
    }

    /// Every per-layer metric of this repetition but `failed_op_share`,
    /// which covers the whole run.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let t = &self.traced;
        let s = &self.snapshot;
        let ledger = spans::ledger(&self.spans);
        let total = |name: &str| ledger.get(name).map_or(0.0, |e| e.1);
        let own = |name: &str| ledger.get(name).map_or(0.0, |e| e.0);
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let ops = t.submitted as f64;
        let (kc, km) = match t.object {
            Object::Kcounter => (Some(&t.op_steps), None),
            Object::Kmaxreg => (None, Some(&t.op_steps)),
        };
        let mean = |h: Option<&StepHist>| h.map_or(0.0, |h| h.mean());
        let max = |h: Option<&StepHist>| h.map_or(0.0, |h| h.max() as f64);
        let ex = t.explore.unwrap_or_default();
        let lincheck_s = total("extract") + total("check") + total("records_check");
        let mut out = vec![
            ("smr.setup_s", t.setup_s),
            ("smr.submit_per_s", per(ops, total("submit"))),
            ("smr.exec_s", total("exec")),
            ("smr.steps_per_s", per(t.steps as f64, total("exec"))),
            (
                "smr.polls_per_op",
                per(snap(s, on::SUB_COOP, on::COOP_POLLS), ops),
            ),
            ("smr.arena_bytes", t.arena_bytes as f64),
            ("smr.history_records", t.history_records as f64),
            (
                "approx_objects.kcounter.inc_steps_mean",
                mean(kc.map(|o| &o.inc)),
            ),
            (
                "approx_objects.kcounter.read_steps_mean",
                mean(kc.map(|o| &o.read)),
            ),
            (
                "approx_objects.kcounter.read_steps_max",
                max(kc.map(|o| &o.read)),
            ),
            (
                "approx_objects.kmaxreg.read_steps_mean",
                mean(km.map(|o| &o.read)),
            ),
            (
                "approx_objects.kmaxreg.read_steps_max",
                max(km.map(|o| &o.read)),
            ),
            (
                "approx_objects.kmaxreg.write_steps_mean",
                mean(km.map(|o| &o.write)),
            ),
            (
                "approx_objects.kmaxreg.write_steps_max",
                max(km.map(|o| &o.write)),
            ),
            ("lincheck.extract_s", total("extract")),
            ("lincheck.check_s", total("check")),
            ("lincheck.records_per_s", per(t.checked as f64, lincheck_s)),
            ("lincheck.records_check_s", total("records_check")),
            (
                "lincheck.pushes",
                snap(s, on::SUB_LINCHECK, on::LINCHECK_PUSHES),
            ),
            (
                "lincheck.folds",
                snap(s, on::SUB_LINCHECK, on::LINCHECK_FOLDS),
            ),
            (
                "lincheck.peak_retained_entries",
                snap(s, on::SUB_LINCHECK, on::LINCHECK_RETAINED),
            ),
            (
                "lincheck.reorder_occupancy_p99",
                snap(
                    s,
                    on::SUB_LINCHECK,
                    &format!("{}_p99", on::LINCHECK_REORDER_OCCUPANCY),
                ),
            ),
            ("analysis.passes_s", self.over_detached(Passes::Full)),
            ("analysis.lin_pass_s", self.over_detached(Passes::LinOnly)),
            ("analysis.hb_pass_s", self.over_detached(Passes::HbOnly)),
            ("analysis.finish_s", total("analyzer_finish")),
            ("explore.schedules", ex.schedules as f64),
            (
                "explore.steps_per_schedule",
                per(ex.steps_replayed as f64, ex.schedules as f64),
            ),
            (
                "explore.pruned_share",
                per(ex.pruned as f64, (ex.pruned + ex.schedules) as f64),
            ),
            (
                "explore.replays",
                snap(s, on::SUB_EXPLORE, on::EXPLORE_REPLAYS),
            ),
            (
                "explore.sleep_hits",
                snap(s, on::SUB_EXPLORE, on::EXPLORE_SLEEP_HITS),
            ),
            (
                "explore.backtracks",
                snap(s, on::SUB_EXPLORE, on::EXPLORE_BACKTRACKS),
            ),
            ("explore.factory_s", total("factory")),
            ("explore.self_s", own("explore")),
            ("obs.marginal_s", self.plain.run_s - self.obs_off.run_s),
            (
                "trace.overhead_share",
                t.run_s / self.plain.run_s.max(1e-12) - 1.0,
            ),
            ("trace.workload_s", total("workload")),
            ("trace.spans", self.spans.len() as f64),
        ];
        // `span.<name>.self_s`: the self time of every span called <name>.
        for m in PER_LAYER {
            if let Some(name) = m
                .name
                .strip_prefix("span.")
                .and_then(|r| r.strip_suffix(".self_s"))
            {
                out.push((m.name, own(name)));
            }
        }
        out
    }
}

/// Render a number for JSON: finite values as Rust prints them (the
/// shortest text that reads back exactly), anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`,
/// each metric with its value and unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|&(name, v)| {
            let unit = find(name).map_or("", |m| m.unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(a.name.len() <= 64 && a.unit.len() <= 16, "{}", a.name);
            assert!(a.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(a
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|b| b.name != a.name), "{}", a.name);
        }
    }

    #[test]
    fn medians_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let line = result_json(true, 5, 0, &[("setup_s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn samples_survive_the_trip_between_processes() {
        let s = Sample {
            setup_s: 0.125,
            run_s: 1.0 / 3.0,
            checked: 10,
            submitted: 12,
            failed: 2,
            steps_per_op: 2.5,
            op_steps_p99: 4,
            op_steps_max: 33,
            rss_kib: 4096,
            fingerprint: vec![7, 0, u64::MAX],
            breaches: vec!["a\nb".into(), "c".into()],
        };
        let back = Sample::parse(&s.to_lines()).expect("parses");
        assert_eq!(back.breaches, ["a b", "c"]);
        assert_eq!(
            back,
            Sample {
                breaches: back.breaches.clone(),
                ..s
            }
        );
        assert!(Sample::parse("setup_s 1.0\n").is_err());
    }
}
