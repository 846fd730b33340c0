//! What a real-memory run runs on: one application thread per host and a
//! single server thread for all of them, and one shared server inbox — its
//! 2 socket fds, given back when the run returns. A blocked application
//! thread sleeps on a futex word, which takes no fd.
//!
//! One `#[test]` in a file of its own (so a process of its own): it counts
//! this process's threads and sockets, which a neighbouring run would
//! change.
#![cfg(target_os = "linux")]

use millipage::{run_host, Dsm, HostRunConfig};
use std::sync::Mutex;

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

fn open_sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

#[test]
fn a_four_host_run_is_four_app_threads_and_one_server() {
    const HOSTS: usize = 4;
    let before = open_sockets();
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
                *census.lock().expect("census") = Some((run_threads(), open_sockets()));
            }
            ctx.barrier();
            assert_eq!(ctx.read_range(sv, 0..HOSTS), [1, 2, 3, 4]);
        },
    )
    .expect("run");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let (threads, sockets) = census.into_inner().expect("census").expect("taken");
    let mut want: Vec<String> = (0..HOSTS).map(|h| format!("mv-host-{h}")).collect();
    want.push("mv-server".to_string());
    assert_eq!(threads, want);
    assert_eq!(sockets - before, 2);
    assert_eq!(open_sockets(), before);
    assert_eq!(run_threads(), Vec::<String>::new());
}
