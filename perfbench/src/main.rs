//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--out <dir>]
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) repeats
//! the workload for as many iterations as fit in `--seconds` (at least
//! three), checks every correctness gate and prints the end-to-end
//! metrics. Each untraced iteration runs in a child process of its own,
//! one after another: the speed of allocation-heavy code on a virtual
//! machine varies from process to process with where its heap lands
//! (twofold for a small malloc loop), and a median over many processes
//! averages that out where a median over one process's iterations
//! cannot. The child's peak resident memory is the iteration's. Before
//! the first iteration and after each one, a process of its own times
//! the calibration kernel (see `calibrate`), and each iteration's
//! timings are scaled by the kernel times around it. A traced run
//! (`--trace 1`) repeats a traced repetition (see `metrics::Repetition`)
//! for as long and prints the per-layer metrics. Either prints its
//! provenance as a JSON line first and the result as the last line of
//! standard output, writes both to `<out>` (default `.bench_out`), and
//! exits 1 if a gate was breached.

use perfbench::calibrate;
use perfbench::metrics::{self, json_str, Repetition, Sample};
use perfbench::provenance::{self, Provenance};
use perfbench::spans::{self, Tracer};
use perfbench::workloads::{Options, Outcome, Passes, Size, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Untraced iterations per run, at least, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;
/// Beyond the minimum, no iteration or repetition starts that would
/// end after this many seconds, whatever `--seconds` says.
const HARD_CAP_S: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out: PathBuf,
    /// Internal: run one untraced iteration and print its [`Sample`].
    child: bool,
    /// Internal: time the calibration kernel once and print it.
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out = PathBuf::from(".bench_out");
    let mut child = false;
    let mut calibrate = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--iteration" {
            child = true;
            continue;
        }
        if flag == "--calibrate" {
            calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=HARD_CAP_S).contains(&seconds) {
                    return Err(format!("--seconds must be in [0, {HARD_CAP_S}]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if calibrate {
        // The kernel takes no inputs; the fields below are unused.
        workload.get_or_insert(Workload::ALL[0]);
        seed.get_or_insert(0);
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
        out,
        child,
        calibrate,
    })
}

fn size_name(size: Size) -> &'static str {
    match size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    }
}

/// Everything a run reports.
struct Run {
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    breaches: Vec<String>,
    /// Spans of the last traced repetition.
    spans: Vec<spans::Span>,
    /// Per-iteration timings of an untraced run, as JSON objects.
    iterations: Vec<String>,
    /// The `obs` snapshot of the last traced iteration, as JSON.
    obs_snapshot: String,
}

impl Run {
    fn new() -> Self {
        Run {
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            breaches: Vec::new(),
            spans: Vec::new(),
            iterations: Vec::new(),
            obs_snapshot: "null".into(),
        }
    }

    /// Account an iteration: its operations, failures and breaches.
    fn absorb(&mut self, label: &str, submitted: u64, failed: u64, breaches: &[String]) {
        self.attempted += submitted;
        self.failed += failed;
        if failed == 0 && !breaches.is_empty() {
            self.failed += 1;
        }
        self.breaches
            .extend(breaches.iter().map(|b| format!("{label}: {b}")));
    }

    /// A gate that an iteration's `submitted` operations as a whole
    /// failed.
    fn breach(&mut self, submitted: u64, message: String) {
        self.failed += submitted.max(1);
        self.breaches.push(message);
    }

    /// Breach unless `fingerprint` repeats the reference counts.
    fn check_fingerprint(
        &mut self,
        reference: &[u64],
        label: &str,
        submitted: u64,
        fingerprint: &[u64],
    ) {
        if fingerprint != reference {
            self.breach(
                submitted,
                format!("{label}: deterministic counts {fingerprint:?} differ from {reference:?}"),
            );
        }
    }
}

/// Run one iteration, turning a panic into a breach that loses every
/// operation.
fn iterate(w: Workload, opts: &Options, tr: &Tracer) -> Result<Outcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run(opts, tr))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("iteration panicked: {msg}")
    })
}

/// Whether one more round, as long as the mean of the `done` rounds
/// since `start`, would end within `seconds` (and the hard cap).
fn another_fits(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= seconds.min(HARD_CAP_S)
}

/// The `--iteration` mode: one untraced iteration, printed as a
/// [`Sample`] with this process's peak resident set size.
fn child(a: &Args) -> ExitCode {
    obs::set_enabled(true);
    let opts = Options {
        seed: a.seed,
        size: a.size,
        passes: Passes::Full,
    };
    let o = match iterate(a.workload, &opts, &Tracer::new(false)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(kib) = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
    else {
        eprintln!("no VmHWM in /proc/self/status");
        return ExitCode::FAILURE;
    };
    print!("{}", Sample::of(&o, kib).to_lines());
    ExitCode::SUCCESS
}

/// Run this program with `args` in a child process, wait for it and
/// return its standard output.
fn spawn_self(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{args:?} failed ({}): {stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stdout)
}

/// Run one untraced iteration in a child process.
fn spawn_iteration(a: &Args) -> Result<Sample, String> {
    let seed = a.seed.to_string();
    Sample::parse(&spawn_self(&[
        "--iteration",
        "--workload",
        a.workload.name(),
        "--seed",
        &seed,
        "--size",
        size_name(a.size),
    ])?)
}

/// Time the calibration kernel in a child process.
fn spawn_calibration() -> Result<f64, String> {
    let out = spawn_self(&["--calibrate"])?;
    out.trim()
        .parse()
        .map_err(|e| format!("calibration printed {out:?}: {e}"))
}

fn untraced(a: &Args) -> Run {
    let mut run = Run::new();
    let mut samples: Vec<Sample> = Vec::new();
    // Kernel times: one before the first iteration and one after each.
    let mut kernels: Vec<f64> = Vec::new();
    // Wall time of each iteration's process, for the report: against
    // the CPU times the metrics use, it shows how much the host held
    // the run up.
    let mut walls: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        if kernels.is_empty() {
            match spawn_calibration() {
                Ok(k) => kernels.push(k),
                Err(e) => {
                    run.failed += 1;
                    run.breaches.push(e);
                    return run;
                }
            }
        }
        let label = format!("iteration {}", samples.len());
        let spawned = Instant::now();
        let sample = spawn_iteration(a);
        walls.push(spawned.elapsed().as_secs_f64());
        match sample {
            Ok(s) => {
                run.absorb(&label, s.submitted, s.failed, &s.breaches);
                if let Some(first) = samples.first() {
                    run.check_fingerprint(&first.fingerprint, &label, s.submitted, &s.fingerprint);
                }
                samples.push(s);
            }
            Err(e) => {
                run.failed += 1;
                run.breaches.push(format!("{label}: {e}"));
                return run;
            }
        }
        match spawn_calibration() {
            Ok(k) => kernels.push(k),
            Err(e) => {
                run.failed += 1;
                run.breaches.push(format!("after {label}: {e}"));
                return run;
            }
        }
        if samples.len() >= MIN_ITERATIONS && !another_fits(start, samples.len(), a.seconds) {
            break;
        }
    }
    let scales: Vec<f64> = kernels
        .windows(2)
        .map(|k| calibrate::NOMINAL_S / ((k[0] + k[1]) / 2.0))
        .collect();
    run.values = metrics::end_to_end(&samples, &scales);
    run.iterations = samples
        .iter()
        .zip(&walls)
        .zip(&scales)
        .map(|((s, wall), scale)| {
            format!(
                "{{\"setup_s\": {:?}, \"run_s\": {:?}, \"checked\": {}, \"rss_kib\": {}, \
                 \"process_wall_s\": {wall:?}, \"scale\": {scale:?}}}",
                s.setup_s, s.run_s, s.checked, s.rss_kib
            )
        })
        .collect();
    run
}

fn traced(a: &Args) -> Run {
    let w = a.workload;
    let opts = |passes| Options {
        seed: a.seed,
        size: a.size,
        passes,
    };
    let mut run = Run::new();
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let start = Instant::now();
    let mut reference: Option<Vec<u64>> = None;
    // One iteration of the repetition, held to the first iteration's
    // deterministic counts: analysis, tracing and `obs` must not change
    // the execution.
    let mut step = |run: &mut Run, passes, tr: &Tracer, label: &str| -> Option<Outcome> {
        match iterate(w, &opts(passes), tr) {
            Ok(o) => {
                run.absorb(label, o.submitted, o.failed, &o.breaches);
                let fp = reference.get_or_insert_with(|| o.fingerprint.clone());
                run.check_fingerprint(fp, label, o.submitted, &o.fingerprint);
                Some(o)
            }
            Err(e) => {
                run.failed += 1;
                run.breaches.push(format!("{label}: {e}"));
                None
            }
        }
    };
    loop {
        obs::set_enabled(true);
        let Some(plain) = step(&mut run, Passes::Full, &Tracer::new(false), "plain") else {
            return run;
        };
        obs::registry::reset_all();
        let tr = Tracer::new(true);
        let Some(traced) = step(&mut run, Passes::Full, &tr, "traced") else {
            return run;
        };
        let snapshot = obs::snapshot();
        let spans = tr.take();
        obs::set_enabled(false);
        let obs_off = step(&mut run, Passes::Full, &Tracer::new(false), "obs off");
        obs::set_enabled(true);
        let Some(obs_off) = obs_off else {
            return run;
        };
        let mut toggles = Vec::new();
        for &p in w.toggles() {
            let Some(o) = step(&mut run, p, &Tracer::new(false), &format!("{p:?}")) else {
                return run;
            };
            toggles.push((p, o));
        }
        let rep = Repetition {
            plain,
            traced,
            spans,
            snapshot,
            obs_off,
            toggles,
        };
        for b in rep.breaches(w) {
            run.breach(rep.traced.submitted, format!("traced: {b}"));
        }
        per_rep.push(rep.per_layer());
        run.spans = rep.spans;
        run.obs_snapshot = rep.snapshot.to_json("traced");
        if !another_fits(start, per_rep.len(), a.seconds) {
            break;
        }
    }
    run.values = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let vals: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
            (name, metrics::median(&vals))
        })
        .collect();
    run.values.push((
        "failed_op_share",
        run.failed as f64 / run.attempted.max(1) as f64,
    ));
    run
}

fn write_outputs(a: &Args, prov: &Provenance, run: &Run, result: &str) -> Result<(), String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    );
    let breaches: Vec<String> = run.breaches.iter().map(|b| json_str(b)).collect();
    let report = format!(
        "{{\"provenance\": {},\n \"breaches\": [{}],\n \"iterations\": [{}],\n \"obs_snapshot\": {},\n \"result\": {}}}\n",
        prov.to_json(),
        breaches.join(", "),
        run.iterations.join(", "),
        run.obs_snapshot.trim_end(),
        result
    );
    let write = |path: &Path, body: &str| {
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&a.out.join(format!("{stem}.json")), &report)?;
    if a.trace {
        let tsv = format!("# {}\n{}", prov.to_json(), spans::to_tsv(&run.spans));
        write(&a.out.join(format!("{stem}-spans.tsv")), &tsv)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--size full|tiny] [--out <dir>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if a.child {
        return child(&a);
    }
    if a.calibrate {
        println!("{:?}", calibrate::kernel_s());
        return ExitCode::SUCCESS;
    }
    let prov = Provenance {
        commit: provenance::commit(Path::new(".")),
        source_digest: provenance::source_digest(Path::new(".")),
        rustc: provenance::rustc(),
        nproc: provenance::nproc(),
        workload: a.workload.name().into(),
        seed: a.seed,
        size: size_name(a.size).into(),
        sizes: a.workload.sizes(a.size),
        traced: a.trace,
    };
    println!("{{\"provenance\": {}}}", prov.to_json());
    let run = if a.trace { traced(&a) } else { untraced(&a) };
    let correct = run.breaches.is_empty();
    let result = metrics::result_json(correct, run.attempted.max(1), run.failed, &run.values);
    for b in &run.breaches {
        eprintln!("perfbench: gate breached: {b}");
    }
    if let Err(e) = write_outputs(&a, &prov, &run, &result) {
        eprintln!("perfbench: writing outputs: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
