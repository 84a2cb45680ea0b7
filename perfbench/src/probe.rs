//! Resource probes read from the operating system: process CPU time,
//! per-thread CPU time and context switches, and resident memory.

use std::mem::MaybeUninit;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of the whole process so far, threads that
/// already exited included. Microsecond resolution (procfs `stat`
/// only has clock ticks).
pub fn process_cpu_s() -> f64 {
    let mut ru = MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` has the layout of the 64-bit Linux
    // `struct rusage` (checked by the size assertion below), and
    // getrusage writes only inside the struct it is handed.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // SAFETY: zero-initialised, then filled by a successful getrusage.
    let ru = unsafe { ru.assume_init() };
    let tv = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

/// CPU time and voluntary context switches of one live thread.
#[derive(Debug, Clone)]
pub struct ThreadStat {
    /// Thread name as the kernel keeps it (`comm`, at most 15 bytes).
    pub name: String,
    /// On-CPU seconds (`se.sum_exec_runtime`, nanosecond resolution).
    pub cpu_s: f64,
    /// Times the thread gave up the CPU to wait.
    pub voluntary_switches: u64,
}

/// Every live thread of this process whose name starts with `prefix`.
pub fn threads(prefix: &str) -> Vec<ThreadStat> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let Ok(name) = std::fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let name = name.trim_end().to_string();
        if !name.starts_with(prefix) {
            continue;
        }
        let Ok(sched) = std::fs::read_to_string(path.join("sched")) else {
            continue;
        };
        let field = |key: &str| -> Option<f64> {
            sched
                .lines()
                .find(|l| l.split(':').next().map(str::trim) == Some(key))?
                .split(':')
                .nth(1)?
                .trim()
                .parse()
                .ok()
        };
        out.push(ThreadStat {
            name,
            cpu_s: field("se.sum_exec_runtime").unwrap_or(0.0) / 1e3,
            voluntary_switches: field("nr_voluntary_switches").unwrap_or(0.0) as u64,
        });
    }
    out
}

/// Peak resident set of the process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    obs::proc_mem()
        .map(|m| m.peak_rss_bytes as f64 / (1024.0 * 1024.0))
        .unwrap_or(0.0)
}

/// Current resident set of the process (VmRSS), MB.
pub fn rss_mb() -> f64 {
    obs::proc_mem()
        .map(|m| m.rss_bytes as f64 / (1024.0 * 1024.0))
        .unwrap_or(0.0)
}
