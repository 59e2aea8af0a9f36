//! What the kernel says about this process: CPU time, context switches,
//! peak memory, and the filesystem a path lives on. Linux `/proc` only.

use std::path::Path;

/// One reading of the process's accumulated resource use.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnapshot {
    /// On-CPU time summed over live threads, nanoseconds.
    pub cpu_ns: u64,
    /// User and system time of the whole process, seconds (clock ticks,
    /// so 10 ms resolution: used for the user/sys split only).
    pub user_s: f64,
    pub sys_s: f64,
    /// Context switches summed over live threads.
    pub vol_ctxsw: u64,
    pub invol_ctxsw: u64,
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Kernel clock ticks per second. `/proc/self/stat` reports in these;
/// Linux has fixed the user-visible value at 100 on every architecture.
const TICKS_PER_S: f64 = 100.0;

impl ProcSnapshot {
    /// Reads the counters now. Per-thread files are summed over the
    /// threads alive at the call, so take both ends of an interval while
    /// the threads being measured are running.
    pub fn take() -> ProcSnapshot {
        let mut snap = ProcSnapshot::default();
        // Fields 14 and 15 of /proc/self/stat, counted after the
        // parenthesised command name (which may itself hold spaces).
        if let Some(stat) = read("/proc/self/stat") {
            if let Some((_, rest)) = stat.rsplit_once(") ") {
                let mut f = rest.split_whitespace().skip(11);
                let mut ticks = || f.next().and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                snap.user_s = ticks() / TICKS_PER_S;
                snap.sys_s = ticks() / TICKS_PER_S;
            }
        }
        let mut schedstat_seen = false;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let dir = task.path();
                if let Some(ns) = read(dir.join("schedstat"))
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                {
                    snap.cpu_ns += ns;
                    schedstat_seen = true;
                }
                if let Some(status) = read(dir.join("status")) {
                    snap.vol_ctxsw +=
                        status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
                    snap.invol_ctxsw +=
                        status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
                }
            }
        }
        if !schedstat_seen {
            // A kernel built without scheduler statistics: fall back to
            // the tick counters.
            snap.cpu_ns = ((snap.user_s + snap.sys_s) * 1e9) as u64;
        }
        snap
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The filesystem type of the mount that holds `path` (longest mount
/// point that prefixes it), e.g. `ext4` or `tmpfs`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(point)
                        .then(|| (point.len(), fstype.to_owned()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fstype)| fstype)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_under_work() {
        let before = ProcSnapshot::take();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = ProcSnapshot::take();
        assert!(
            after.cpu_ns > before.cpu_ns + 20_000_000,
            "{before:?} {after:?}"
        );
        assert!(peak_rss_mib() > 0.0);
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
    }
}
