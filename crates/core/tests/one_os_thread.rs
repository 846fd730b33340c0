//! `run` runs every application thread as a fiber on its caller's OS
//! thread: it starts no thread, and it leaves the caller's CPU affinity
//! alone. (One test in this binary, so no sibling test's threads come and
//! go in `/proc/self/task` while it counts.)
#![cfg(target_os = "linux")]

use millipage::{run, ClusterConfig};
use std::sync::Mutex;
use std::thread::ThreadId;

/// The CPUs of the calling thread's affinity mask, ascending.
fn cpus() -> Vec<usize> {
    // SAFETY: all-zero bytes are a valid (empty) `cpu_set_t`.
    let mut set: libc::cpu_set_t = unsafe { std::mem::zeroed() };
    // SAFETY: `set` is a writable `cpu_set_t` of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { libc::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    // SAFETY: every index is below the set's bit count.
    (0..8 * std::mem::size_of_val(&set))
        .filter(|&cpu| unsafe { libc::CPU_ISSET(cpu, &set) })
        .collect()
}

/// The threads of this process.
fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_run_stays_on_the_callers_thread() {
    let (me, mask, before) = (std::thread::current().id(), cpus(), tasks());
    // What each application closure of a 4-host, 2-thread run sees, once
    // before and once after a barrier (so every thread has run).
    let seen = Mutex::new(Vec::<(ThreadId, usize, Vec<usize>)>::new());
    run(
        ClusterConfig {
            hosts: 4,
            threads_per_host: 2,
            pages: 64,
            ..ClusterConfig::default()
        },
        |_| (),
        |ctx, ()| {
            let look = || (std::thread::current().id(), tasks(), cpus());
            seen.lock().unwrap().push(look());
            ctx.barrier();
            seen.lock().unwrap().push(look());
        },
    );
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 16);
    for (id, n, m) in &seen {
        assert_eq!(*id, me, "an application closure ran on another thread");
        assert_eq!(*n, before, "the thread count changed during the run");
        assert_eq!(*m, mask, "an application thread's mask moved");
    }
    assert_eq!(tasks(), before);
    assert_eq!(cpus(), mask, "the caller's own mask moved");
}
