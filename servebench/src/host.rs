//! Host-side gauges read from `/proc`: resident memory, steal time, and
//! an identity for the source tree being measured.

use std::path::Path;

use crate::record::fnv1a;

/// A `Vm*` field of `/proc/self/status`, in kB (`None` off Linux).
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

extern "C" {
    /// glibc: return free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap pages back to the system, then reset the resident-set
/// high-water mark to the current RSS and return that RSS in MiB. Without
/// the trim, a trial would reuse pages an earlier one freed and its peak
/// would read low. Writing `5` to `clear_refs` resets `VmHWM`.
pub fn reset_peak_rss_mb() -> f64 {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    // Best effort: without the reset, VmHWM only overstates the peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_kb("VmRSS").unwrap_or(0) as f64 / 1024.0
}

/// Resident-set high-water mark since the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Aggregate CPU time counters from `/proc/stat`: `(steal, total)` ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().sum::<u64>(),
    )
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The short `git rev-parse HEAD` inside a git checkout, else `unknown`.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of every Rust source and manifest under `root/crates`, in path
/// order: identifies the measured code where git is unavailable.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    fnv1a(
        files
            .iter()
            .flat_map(|f| std::fs::read(f).unwrap_or_default())
            .map(u64::from),
    )
}
