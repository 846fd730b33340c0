//! The two system calls the benchmark needs and the workspace's vendored
//! `libc` stub lacks (`getrusage`, `sched_{get,set}affinity`), plus the
//! machine description stamped on every output.

use crate::json::Value;
use std::process::Command;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of x86-64/aarch64 Linux: two timevals, fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _unused: [i64; 11], // ixrss .. nsignals
    nvcsw: i64,
    nivcsw: i64,
}

/// Words in the kernel's 1024-bit `cpu_set_t`.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Resource usage of this process so far (all threads, finished ones
/// included).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctxsw: u64,
    pub peak_rss_mb: f64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills for RUSAGE_SELF (0); the call touches nothing else.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        ctxsw: (ru.nvcsw + ru.nivcsw) as u64,
        peak_rss_mb: ru.maxrss as f64 / 1024.0, // Linux reports KiB
    }
}

/// Pins this process (and every child it spawns afterwards) to one CPU:
/// the highest-numbered one it is allowed on, which keeps clear of CPU 0's
/// interrupt load. Returns the CPU, or `None` if the kernel refused — the
/// run then continues unpinned and says so in its metadata.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Machine and revision metadata: the fields whose absence makes two
/// recorded benchmark files incomparable. Call before pinning, or `nproc`
/// reads 1.
pub fn machine() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let unknown = || "unknown".to_string();
    Value::obj()
        .with(
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("cpu_model", cpu_model)
        .with(
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        )
        .with(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
}
