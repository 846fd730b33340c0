//! `run` confines the application threads it spawns to the CPU its caller
//! is on — one of them runs at a time, so spread over CPUs every hand-off
//! is a cross-CPU wake-up — and touches no other thread's affinity.
#![cfg(target_os = "linux")]

use millipage::{run, ClusterConfig};
use parking_lot::Mutex;

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

#[test]
fn a_run_confines_its_threads_to_one_cpu_of_the_caller() {
    let before = cpus();
    // The masks the application threads of a 4-host, 2-thread run see.
    let seen = Mutex::new(Vec::new());
    run(
        ClusterConfig {
            hosts: 4,
            threads_per_host: 2,
            pages: 64,
            ..ClusterConfig::default()
        },
        |_| (),
        |ctx, ()| {
            seen.lock().push(cpus());
            ctx.barrier();
        },
    );
    let seen = seen.into_inner();
    assert_eq!(seen.len(), 8);
    assert_eq!(seen[0].len(), 1, "not confined: {:?}", seen[0]);
    assert!(before.contains(&seen[0][0]), "{seen:?} outside {before:?}");
    assert!(seen.iter().all(|m| *m == seen[0]), "hosts differ: {seen:?}");
    assert_eq!(cpus(), before, "the caller's own mask moved");
}
