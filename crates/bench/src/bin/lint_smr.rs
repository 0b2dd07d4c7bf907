//! Repo-specific source lints for the shared-memory model — invariants
//! clippy cannot see (DESIGN.md "Lint invariants"):
//!
//! 1. **`Ordering::Relaxed` is opt-in.** Every non-test `Relaxed` site
//!    must carry a `// relaxed-ok:` comment (same line or one of the two
//!    preceding lines) saying why the weak ordering is sound. The
//!    modelled primitives are `SeqCst` by construction; a stray Relaxed
//!    in runtime bookkeeping is where a real reordering bug would hide.
//! 2. **No wall-clock sleeps outside tests.** `thread::sleep` in
//!    product code either papers over a missing synchronization edge or
//!    makes a benchmark lie; gate handoffs are the one sanctioned
//!    blocking mechanism.
//! 3. **Machines stay wired and verified.** Every `pub struct
//!    *Machine` (a resume-point transcription of a blocking operation)
//!    must be referenced outside its defining file (wrapped by a task,
//!    a handle, or a re-export — not dead), and its crate must carry at
//!    least one blocking-form equivalence or determinism test, the
//!    mechanism that keeps transcriptions primitive-for-primitive
//!    faithful.
//! 4. **Thread creation in `smr` is confined to one place.** The
//!    model's determinism story depends on exactly one place creating
//!    OS threads: the thread backend (`backend/thread.rs`, one worker
//!    per process). A `thread::spawn`/`scope`/`Builder` anywhere else in
//!    non-test `smr` code would put nondeterminism under a component the
//!    coop backend promises is single-threaded.
//! 5. **`lincheck` streams; it does not snapshot.** The online checker
//!    exists so analysis holds O(concurrency) state, not O(history).
//!    Non-test `lincheck` code must never call `history_snapshot()` —
//!    full-history collection inside an analysis pass would silently
//!    reintroduce the unbounded buffering the streaming sweep removed.
//!    (Offline entry points take a caller-built history by argument.)
//! 6. **Metric names are registered constants with unit suffixes.**
//!    Every metric-name constant in `obs/src/names.rs` (the `SUB_*`
//!    subsystem tags excepted) must end in a unit suffix the
//!    `bench::regression` differ can classify (`_total`, `_per_sec`,
//!    `_bytes`, `_entries`), and non-test call sites outside
//!    `crates/obs` must pass those constants to
//!    `obs::counter`/`gauge`/`histogram` — never string literals. A
//!    literal at a call site bypasses the registry's single naming
//!    point, and a suffixless name exports a snapshot field the differ
//!    silently mistakes for row identity.
//!
//! Exit status 0 if clean, 1 with one `file:line: message` finding per
//! violation — shaped like rustc output so CI annotates it. Pass the
//! repo root as the first argument (defaults to `.`).
//!
//! Test code is exempt from rules 1–2: files under `tests/`, and
//! everything from a `#[cfg(test)]` marker to end of file (the repo
//! convention is trailing test modules).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

struct SourceFile {
    path: PathBuf,
    lines: Vec<String>,
    /// Per line: does it fall in a test region?
    in_test: Vec<bool>,
}

fn is_test_path(path: &Path) -> bool {
    path.components()
        .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches")
}

fn load(path: PathBuf) -> Option<SourceFile> {
    let text = fs::read_to_string(&path).ok()?;
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let mut in_test = vec![is_test_path(&path); lines.len()];
    let mut seen_cfg_test = false;
    for (i, line) in lines.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            seen_cfg_test = true;
        }
        if seen_cfg_test {
            in_test[i] = true;
        }
    }
    Some(SourceFile {
        path,
        lines,
        in_test,
    })
}

/// Every `.rs` file under `root`'s source trees, skipping build output
/// and vendored dependencies (their idioms are not ours to lint).
fn collect_sources(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != "vendor" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Some(f) = load(path) {
                    files.push(f);
                }
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

/// `line` (0-based) or one of the three lines above it carries the
/// justification comment (three, so a short comment block or a
/// multi-line method chain still reaches its annotation).
fn has_relaxed_ok(f: &SourceFile, line: usize) -> bool {
    (line.saturating_sub(3)..=line).any(|i| f.lines[i].contains("relaxed-ok:"))
}

/// Extract `Ident` from a `pub struct IdentMachine` declaration line.
fn machine_decl(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub struct ")?;
    let name: &str = rest
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .next()?;
    name.ends_with("Machine").then_some(name)
}

/// The crate (or workspace root) a source file belongs to, for pairing
/// machines with their equivalence tests.
fn crate_root(path: &Path) -> PathBuf {
    let comps: Vec<_> = path.components().collect();
    for (i, c) in comps.iter().enumerate() {
        if c.as_os_str() == "crates" && i + 1 < comps.len() {
            return comps[..=i + 1].iter().collect();
        }
    }
    PathBuf::new() // workspace root: src/, tests/, examples/
}

/// Test-function name fragments that count as a machine-faithfulness
/// test: blocking-form equivalence, cross-backend equivalence, or a
/// determinism signature check.
const PAIRING_MARKERS: &[&str] = &["match_blocking_forms", "determinism", "equivalence"];

/// The unit suffixes `bench::regression` classifies (rule 6); mirrors
/// `UNIT_SUFFIXES` in `obs::registry`, which asserts the same set at
/// registration time.
const UNIT_SUFFIXES: &[&str] = &["_total", "_per_sec", "_bytes", "_entries"];

/// Extract `(NAME, value)` from a `pub const NAME: &str = "value";`
/// metric-name declaration line.
fn metric_const(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_start().strip_prefix("pub const ")?;
    let (name, rest) = rest.split_once(':')?;
    rest.contains("&str")
        .then(|| rest.split('"').nth(1))
        .flatten()
        .map(|value| (name.trim(), value))
}

fn main() {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".into()));
    let files = collect_sources(&root);
    if files.is_empty() {
        eprintln!("lint_smr: no sources found under {}", root.display());
        std::process::exit(2);
    }
    let mut findings: Vec<String> = Vec::new();

    // Rules 1, 2, 4 and 5: line scans over non-test code.
    for f in &files {
        if f.path.file_name().is_some_and(|n| n == "lint_smr.rs") {
            continue; // the linter's own docs name the patterns it flags
        }
        let in_smr = f.path.components().any(|c| c.as_os_str() == "smr") && !is_test_path(&f.path);
        let in_lincheck =
            f.path.components().any(|c| c.as_os_str() == "lincheck") && !is_test_path(&f.path);
        let sanctioned_spawner = f.path.ends_with("src/backend/thread.rs");
        for (i, line) in f.lines.iter().enumerate() {
            if f.in_test[i] {
                continue;
            }
            if line.contains("Ordering::Relaxed") && !has_relaxed_ok(f, i) {
                findings.push(format!(
                    "{}:{}: Ordering::Relaxed without a `// relaxed-ok:` justification",
                    f.path.display(),
                    i + 1
                ));
            }
            if line.contains("thread::sleep") {
                findings.push(format!(
                    "{}:{}: thread::sleep in non-test code (synchronize via the gate instead)",
                    f.path.display(),
                    i + 1
                ));
            }
            let spawns = ["thread::spawn", "thread::scope", "thread::Builder"]
                .iter()
                .any(|p| line.contains(p));
            if in_smr && !sanctioned_spawner && spawns {
                findings.push(format!(
                    "{}:{}: thread creation in smr outside its one place, the thread \
                     backend (the coop model is single-threaded by contract)",
                    f.path.display(),
                    i + 1
                ));
            }
            if in_lincheck && line.contains("history_snapshot") {
                findings.push(format!(
                    "{}:{}: history_snapshot() in lincheck non-test code — checker-side \
                     analysis must stream (OnlineChecker), not buffer the full history",
                    f.path.display(),
                    i + 1
                ));
            }
            // Rule 6a: metric-name constants carry a classifiable unit
            // suffix (subsystem tags exempt).
            if f.path.ends_with("obs/src/names.rs") {
                if let Some((name, value)) = metric_const(line) {
                    if !name.starts_with("SUB_")
                        && !UNIT_SUFFIXES.iter().any(|s| value.ends_with(s))
                    {
                        findings.push(format!(
                            "{}:{}: metric name `{value}` lacks a unit suffix the \
                             regression differ classifies (one of {UNIT_SUFFIXES:?})",
                            f.path.display(),
                            i + 1
                        ));
                    }
                }
            }
            // Rule 6b: registration outside crates/obs goes through the
            // named constants, never ad-hoc string literals.
            let in_obs = f.path.components().any(|c| c.as_os_str() == "obs");
            let registers = ["obs::counter(", "obs::gauge(", "obs::histogram("]
                .iter()
                .any(|p| line.contains(p));
            if !in_obs && registers && line.contains('"') {
                findings.push(format!(
                    "{}:{}: metric registered with a string literal — name metrics \
                     via `obs::names` constants so the unit-suffix scheme stays \
                     enforceable in one place",
                    f.path.display(),
                    i + 1
                ));
            }
        }
    }

    // Rule 3: machine wiring and test pairing.
    for f in &files {
        for (i, line) in f.lines.iter().enumerate() {
            let Some(name) = machine_decl(line) else {
                continue;
            };
            let wired = files
                .iter()
                .filter(|other| other.path != f.path)
                .any(|other| other.lines.iter().any(|l| l.contains(name)));
            if !wired {
                findings.push(format!(
                    "{}:{}: machine `{name}` is not referenced outside its defining \
                     file — wrap it in a task or handle (or remove it)",
                    f.path.display(),
                    i + 1
                ));
            }
            let home = crate_root(&f.path);
            let paired = files
                .iter()
                .filter(|other| crate_root(&other.path) == home)
                .flat_map(|other| other.lines.iter())
                .any(|l| PAIRING_MARKERS.iter().any(|m| l.contains(m)));
            if !paired {
                findings.push(format!(
                    "{}:{}: machine `{name}`'s crate has no blocking-form equivalence \
                     or determinism test (expected a test mentioning one of {PAIRING_MARKERS:?})",
                    f.path.display(),
                    i + 1
                ));
            }
        }
    }

    if findings.is_empty() {
        let sources = files.len();
        println!("lint_smr: {sources} files clean");
        return;
    }
    let mut out = String::new();
    for finding in &findings {
        let _ = writeln!(out, "{finding}");
    }
    eprint!("{out}");
    eprintln!("lint_smr: {} finding(s)", findings.len());
    std::process::exit(1);
}
