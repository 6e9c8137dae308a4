//! Worker-thread policy for parallel parameter sweeps.
//!
//! A figure in the paper is a sweep over injection rates (and schemes, and
//! traffic patterns); each sweep point is an independent simulation, so the
//! harnesses fan them out across cores on the `pnoc-fleet` work-stealing
//! executor. This module holds only the thread-count policy that executor
//! is sized by: [`default_threads`] resolves the `--threads` override, the
//! `PNOC_THREADS` environment variable, and cgroup-capped hardware
//! parallelism, in that order.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker-thread override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set a process-wide worker-thread override (0 clears it).
///
/// Bench bins call this when handed `--threads N`; it takes precedence over
/// the `PNOC_THREADS` environment variable and hardware detection in every
/// subsequent [`default_threads`] query, including the fleet executor's
/// default pool size.
pub fn set_thread_override(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The current process-wide override, if any.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Parse a cgroup v2 `cpu.max` payload (`"<quota> <period>"` or
/// `"max <period>"`) into an effective whole-core cap, rounding up.
fn parse_cgroup_v2_cpu_max(text: &str) -> Option<usize> {
    let mut parts = text.split_whitespace();
    let quota = parts.next()?;
    let period: u64 = parts.next()?.parse().ok()?;
    if quota == "max" || period == 0 {
        return None; // unlimited
    }
    let quota: u64 = quota.parse().ok()?;
    Some(usize::try_from(quota.div_ceil(period)).ok()?.max(1))
}

/// Parse cgroup v1 `cpu.cfs_quota_us` / `cpu.cfs_period_us` payloads into an
/// effective whole-core cap. A quota of `-1` means unlimited.
fn parse_cgroup_v1_cpu_quota(quota: &str, period: &str) -> Option<usize> {
    let quota: i64 = quota.trim().parse().ok()?;
    let period: i64 = period.trim().parse().ok()?;
    if quota <= 0 || period <= 0 {
        return None; // unlimited or malformed
    }
    let cores = (quota as u64).div_ceil(period as u64);
    Some(usize::try_from(cores).ok()?.max(1))
}

/// Effective CPU cap imposed by the container's cgroup, if any.
///
/// Containers routinely pin a CPU quota while `available_parallelism`
/// reports every core on the host; sizing a thread pool from the host count
/// then just multiplies context-switch overhead inside the quota. Checks
/// cgroup v2 (`/sys/fs/cgroup/cpu.max`) first, then the v1 CFS files.
fn cgroup_cpu_quota() -> Option<usize> {
    if let Ok(text) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        if let Some(cap) = parse_cgroup_v2_cpu_max(&text) {
            return Some(cap);
        }
    }
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    parse_cgroup_v1_cpu_quota(&quota, &period)
}

/// Number of worker threads a sweep runs on.
///
/// Resolution order (first match wins):
///
/// 1. the process-wide [`set_thread_override`] value (`--threads N`),
/// 2. the `PNOC_THREADS` environment variable (a positive integer),
/// 3. `available_parallelism`, capped by the cgroup CPU quota when the
///    process runs in a container whose quota is tighter than the host's
///    core count,
/// 4. `1` when detection fails entirely.
pub fn default_threads() -> usize {
    if let Some(n) = thread_override() {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("PNOC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    match cgroup_cpu_quota() {
        Some(cap) => hw.min(cap).max(1),
        None => hw.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_takes_precedence() {
        // Serialize against other tests touching the global by running the
        // whole check in one test.
        set_thread_override(3);
        assert_eq!(thread_override(), Some(3));
        assert_eq!(default_threads(), 3);
        set_thread_override(0);
        assert_eq!(thread_override(), None);
    }

    #[test]
    fn cgroup_v2_parsing() {
        assert_eq!(parse_cgroup_v2_cpu_max("200000 100000\n"), Some(2));
        assert_eq!(
            parse_cgroup_v2_cpu_max("150000 100000"),
            Some(2),
            "rounds up"
        );
        assert_eq!(parse_cgroup_v2_cpu_max("100000 100000"), Some(1));
        assert_eq!(
            parse_cgroup_v2_cpu_max("50000 100000"),
            Some(1),
            "floor of 1"
        );
        assert_eq!(parse_cgroup_v2_cpu_max("max 100000"), None);
        assert_eq!(parse_cgroup_v2_cpu_max(""), None);
        assert_eq!(parse_cgroup_v2_cpu_max("garbage here"), None);
    }

    #[test]
    fn cgroup_v1_parsing() {
        assert_eq!(parse_cgroup_v1_cpu_quota("400000\n", "100000\n"), Some(4));
        assert_eq!(
            parse_cgroup_v1_cpu_quota("250000", "100000"),
            Some(3),
            "rounds up"
        );
        assert_eq!(parse_cgroup_v1_cpu_quota("-1", "100000"), None, "unlimited");
        assert_eq!(parse_cgroup_v1_cpu_quota("0", "100000"), None);
        assert_eq!(parse_cgroup_v1_cpu_quota("x", "100000"), None);
    }
}
