//! Multithreaded hosts (§3.4): "millipage is multithreaded and its
//! architecture supports multithreaded applications ... only a single
//! instance of the application should be executed on each host, even if
//! this host is a multi-processor (SMP) machine."

use millipage::{run, AllocMode, ClusterConfig, CostModel, HostId};
use std::sync::Mutex;

fn cfg(hosts: usize, threads: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 8,
        pages: 64,
        cost: CostModel::default(),
        alloc_mode: AllocMode::FINE,
        threads_per_host: threads,
        seed: 31,
        ..ClusterConfig::default()
    }
}

#[test]
fn threads_have_distinct_identities() {
    let seen = Mutex::new(Vec::new());
    let report = run(
        cfg(2, 3),
        |_| (),
        |ctx, ()| {
            seen.lock().unwrap().push((ctx.host(), ctx.thread()));
            ctx.barrier();
        },
    );
    let mut ids = seen.into_inner().unwrap();
    ids.sort();
    let want: Vec<(HostId, usize)> = (0..2)
        .flat_map(|h| (0..3).map(move |t| (HostId(h as u16), t)))
        .collect();
    assert_eq!(ids, want);
    assert_eq!(report.per_host.len(), 6);
    assert_eq!(report.barriers, 1, "barrier quorum covers all threads");
}

#[test]
fn smp_threads_share_their_host_memory_without_faults() {
    // Two threads on the manager host write different elements: same
    // address space, no protocol traffic at all.
    let report = run(
        cfg(1, 2),
        |s| s.alloc_vec_init::<u64>(&[0; 8]),
        |ctx, sv| {
            let t = ctx.thread();
            ctx.set(sv, t, (t + 1) as u64);
            ctx.barrier();
            assert_eq!(ctx.get(sv, 0), 1);
            assert_eq!(ctx.get(sv, 1), 2);
        },
    );
    assert!(report.coherence_violations.is_empty());
    assert_eq!(report.read_faults + report.write_faults, 0);
}

#[test]
fn lock_protected_counter_across_hosts_and_threads() {
    const PER_THREAD: u64 = 15;
    let report = run(
        cfg(2, 2),
        |s| s.alloc_cell_init::<u64>(0),
        |ctx, c| {
            for _ in 0..PER_THREAD {
                ctx.lock(3);
                let v = ctx.cell_get(c);
                ctx.compute(1_000);
                ctx.cell_set(c, v + 1);
                ctx.unlock(3);
            }
            ctx.barrier();
            assert_eq!(ctx.cell_get(c), 4 * PER_THREAD);
        },
    );
    assert!(report.coherence_violations.is_empty());
    assert_eq!(report.lock_acquires, 4 * PER_THREAD);
}

#[test]
fn concurrent_same_host_faults_on_one_minipage_resolve() {
    // Both threads of a remote host touch the same absent minipage at
    // once: one fault fetches it, the competing request queues at the
    // manager, and both threads proceed.
    let report = run(
        cfg(2, 2),
        |s| s.alloc_vec_init::<u32>(&[7; 16]),
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                assert_eq!(ctx.get(sv, ctx.thread()), 7);
            }
            ctx.barrier();
        },
    );
    assert!(report.coherence_violations.is_empty());
    assert!(report.read_faults >= 1);
}

#[test]
fn breakdown_reports_are_per_thread() {
    let report = run(
        cfg(2, 2),
        |_| (),
        |ctx, ()| {
            // Thread 1 of each host computes twice as long.
            ctx.compute(1_000_000 * (ctx.thread() as u64 + 1));
            ctx.barrier();
        },
    );
    for rep in &report.per_host {
        let comp = rep.breakdown.get(millipage::Category::Comp);
        let want = 1_000_000 * (rep.thread as u64 + 1);
        assert_eq!(comp, want, "host {} thread {}", rep.host, rep.thread);
    }
}
