//! What the host was doing during a run, recorded beside its result so a
//! noisy set of runs can be diagnosed: core count, load average and the
//! commit (when the checkout is a git repository). Also the CPU affinity
//! calls with which the untraced run moves its passes across the CPUs.

use std::fs;
use std::path::Path;

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The first three fields of `/proc/loadavg`.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The commit `root/.git/HEAD` points at, or `"none"` outside a git
/// checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None => head.to_string(),
    }
}

/// Words in the CPU mask of the affinity calls (glibc's `cpu_set_t`,
/// 1024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, in ascending order; empty when the
/// mask cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable and exactly as large as the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    Vec::new()
}

/// Restricts this thread to `cpus` (each below 1024). A refused mask
/// leaves the thread where it was.
pub fn pin(cpus: &[usize]) {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is readable and exactly as large as the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpus;
}
