//! Where a number came from: commit, toolchain, core count, seed,
//! workload sizes and whether the run was traced.

use crate::metrics::json_str;
use std::fs;
use std::path::Path;
use std::process::Command;

pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the sources the benchmark builds, so a run in a
    /// plain source tree can still be matched to its code.
    pub source_digest: String,
    pub rustc: String,
    pub nproc: usize,
    pub workload: String,
    pub seed: u64,
    pub size: String,
    pub sizes: String,
    pub traced: bool,
}

impl Provenance {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"source_digest\": {}, \"rustc\": {}, \"nproc\": {}, \
             \"workload\": {}, \"seed\": {}, \"size\": {}, \"sizes\": {}, \"traced\": {}}}",
            json_str(&self.commit),
            json_str(&self.source_digest),
            json_str(&self.rustc),
            self.nproc,
            json_str(&self.workload),
            self.seed,
            json_str(&self.size),
            json_str(&self.sizes),
            self.traced
        )
    }
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out at `root`; `unknown` unless `root` is the top
/// of a git work tree (a plain source tree inside some other repository
/// must not borrow that repository's commit).
pub fn commit(root: &Path) -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let is_top = Path::new(&top).canonicalize().ok() == root.canonicalize().ok();
    if is_top {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}

pub fn rustc() -> String {
    command_line("rustc", &["-V"])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source files under `root` that the benchmark is built from.
const SOURCES: &[&str] = &["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"];

/// FNV-1a over the relative path and contents of every source file
/// under `root`, in sorted order. Build outputs and hidden entries are
/// skipped.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for s in SOURCES {
        collect(&root.join(s), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        feed(rel.to_string_lossy().as_bytes());
        feed(&fs::read(f).unwrap_or_default());
    }
    format!("fnv1a64:{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
    if name
        .as_deref()
        .is_some_and(|n| n.starts_with('.') || n == "target")
    {
        return;
    }
    if path.is_dir() {
        if let Ok(entries) = fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}
