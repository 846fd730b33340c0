//! What a real-memory run runs on: one application thread per host and a
//! single server thread for all of them. The server inbox is a ring in the
//! process and a blocked thread (the server or an application thread)
//! sleeps on a futex word, so a run opens no socket: its only fds are its
//! hosts' memfds.
//!
//! One `#[test]` in a file of its own (so a process of its own): it counts
//! this process's threads and fds, which a neighbouring run would change.
#![cfg(target_os = "linux")]

use millipage::{run_host, Dsm, HostRunConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Names of this process's threads that belong to a run.
fn run_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("mv-"))
        .collect();
    names.sort();
    names
}

/// How many of this process's fds are sockets, and how many are neither
/// sockets nor memfds.
fn open_fds() -> (usize, usize) {
    let targets: Vec<String> = std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .collect();
    let sockets = targets.iter().filter(|t| t.starts_with("socket:")).count();
    let memfds = targets.iter().filter(|t| t.starts_with("/memfd:")).count();
    (sockets, targets.len() - sockets - memfds)
}

#[test]
fn a_four_host_run_is_four_app_threads_and_one_server() {
    const HOSTS: usize = 4;
    let before = open_fds();
    let census = Mutex::new(None);
    let report = run_host(
        HostRunConfig {
            hosts: HOSTS,
            ..Default::default()
        },
        |s| s.alloc_vec_init(&[0u64; HOSTS]),
        |ctx, sv| {
            let me = ctx.host().index();
            ctx.write_range(sv, me, &[me as u64 + 1]);
            // Every thread of the run is up and none has left yet.
            ctx.barrier();
            if me == 0 {
                *census.lock().expect("census") = Some((run_threads(), open_fds()));
            }
            ctx.barrier();
            assert_eq!(ctx.read_range(sv, 0..HOSTS), [1, 2, 3, 4]);
        },
    )
    .expect("run");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let (threads, fds) = census.into_inner().expect("census").expect("taken");
    let mut want: Vec<String> = (0..HOSTS).map(|h| format!("mv-host-{h}")).collect();
    want.push("mv-server".to_string());
    assert_eq!(threads, want);
    assert_eq!(fds, before, "(sockets, other fds) beside the memfds");
    assert_eq!(open_fds(), before);
    let left = threads_after_exit(Duration::from_secs(2));
    assert!(left.is_empty(), "threads outlived the run: {left:?}");
}

/// The run's threads still listed after waiting up to `limit` for them to
/// go. A joined thread can linger in `/proc/self/task` for a moment: the
/// join returns when the kernel clears the thread's tid word, which it
/// does before it removes the task.
fn threads_after_exit(limit: Duration) -> Vec<String> {
    let start = Instant::now();
    loop {
        let left = run_threads();
        if left.is_empty() || start.elapsed() >= limit {
            return left;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
