//! Host-backend failure path (Linux only): a request the protocol cannot
//! serve must *nack its requester*, exactly as on the simulator.
//!
//! The faulting thread sleeps on its completion word inside the SIGSEGV
//! resolver; if the failed handler tells nobody, that wait never returns
//! and `run_host` hangs. Told, the resolver declines the fault and the process dies of
//! SIGSEGV (the resolver's documented Nack path) — so each case runs in a
//! forked child, and "terminates by SIGSEGV within 10 s" is the assertion.

#![cfg(target_os = "linux")]

use millipage::{run_host, Dsm, HostDsmCtx, HostId, HostRunConfig, SetupCtx, SharedVec, VAddr};

/// Forks, runs `run_host(setup, app)` on 2 hosts in the child under a
/// 10 s alarm, and returns the signal that killed the child (0: it exited).
fn child_death_signal<T: Send + Sync>(
    setup: impl FnOnce(&mut SetupCtx) -> T + Send,
    app: impl Fn(&mut HostDsmCtx, &T) + Send + Sync,
) -> libc::c_int {
    // SAFETY: this binary holds one test, so the forking thread is the
    // only one running: no lock is held across the fork, and the child may
    // allocate and spawn threads like any fresh process. The parent only
    // calls waitpid.
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            libc::alarm(10); // A hang dies of SIGALRM instead.
            let _ = run_host(HostRunConfig::default(), setup, app);
            libc::_exit(0);
        }
        let mut status = 0;
        assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
        if libc::WIFSIGNALED(status) {
            libc::WTERMSIG(status)
        } else {
            0
        }
    }
}

fn read_first_on_host_1(ctx: &mut HostDsmCtx, sv: &SharedVec<f32>) {
    if ctx.host() == HostId(1) {
        let _ = ctx.read_range(sv, 0..1);
    }
    ctx.barrier();
}

#[test]
fn failed_requests_nack_the_faulting_thread_instead_of_hanging_it() {
    // (a) A mapped address nothing was allocated at: the manager's
    // translation fails (`BadTranslation`).
    let stray = VAddr(sim_core::DEFAULT_BASE + 5 * 4096);
    let died = child_death_signal(
        |_| SharedVec::<f32>::from_raw(stray, 1),
        read_first_on_host_1,
    );
    assert_eq!(died, libc::SIGSEGV, "stray read: child must be nacked");
    // A server send that fails (the inbox ring is full) nacks the request
    // it serves too: `hostrun`'s `a_full_inbox_fails_one_request` drives
    // that path, which no whole run can reach on purpose.
}
