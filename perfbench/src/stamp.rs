//! The provenance stamp printed with every result.

use std::path::Path;
use std::process::Command;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Cargo build profile of the benchmark binary.
    pub profile: &'static str,
    /// `rustc --version` of the compiler that built it.
    pub rustc: &'static str,
    /// `git rev-parse HEAD`, or `unknown` when the current directory is
    /// not the root of a git checkout.
    pub commit: String,
    /// FNV-1a 64 over the workspace sources, which identifies the code
    /// when no commit is available.
    pub source_fnv: String,
}

impl Stamp {
    /// Collects the stamp for a run, reading sources relative to the
    /// current directory (the repository root).
    pub fn collect(workload: &str, seed: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            cores: cores(),
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(),
            source_fnv: source_fnv(Path::new(".")),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"cores\":{},\"profile\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"source_fnv\":\"{}\"}}",
            self.workload, self.seed, self.cores, self.profile, self.rustc, self.commit, self.source_fnv
        )
    }
}

/// Worker count the workloads use: the machine's available parallelism.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn commit() -> String {
    // Only this checkout's own repository; git would otherwise report
    // an enclosing one.
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn source_fnv(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        let p = root.join(f);
        if p.is_file() {
            files.push(p);
        }
    }
    if files.is_empty() {
        return "none".to_string();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_files(&path, out);
            }
        } else if path.is_file() {
            out.push(path);
        }
    }
}
