//! What a real-memory run takes from the process, it gives back: view
//! mappings, memfds, fault-handler registry slots and its runtime —
//! whether it finished or failed half-assembled.
//!
//! One `#[test]` in a file of its own (so a process of its own): it
//! counts this process's fds and shared-memory pages and fills the
//! process-wide registry, none of which survives a neighbour.
#![cfg(target_os = "linux")]

use hostmv::{free_slots, install_handler, FaultCounters, MultiViewRegion};
use millipage::{run_host, Dsm, HostRunConfig, HostRunReport, ProtocolError};
use std::sync::Arc;

/// Sixteen 64 KB vectors (one minipage each). Every host
/// writes its share of them and reads the rest, so each run leaves 1 MB of
/// touched shared memory per host behind — if it leaves anything.
fn one_run(hosts: usize) -> Result<HostRunReport, ProtocolError> {
    const VECS: usize = 16;
    const LEN: usize = 16 * 4096 / 8;
    run_host(
        HostRunConfig {
            hosts,
            views: 2,
            pages: 2 * VECS * 16,
            ..Default::default()
        },
        |s| {
            let vecs = (0..VECS).map(|_| s.alloc_vec_init(&[1u64; LEN]));
            vecs.collect::<Vec<_>>()
        },
        |ctx, vecs| {
            let (me, hosts) = (ctx.host().index(), ctx.hosts());
            for sv in vecs.iter().skip(me).step_by(hosts) {
                ctx.write_range(sv, 0, &[me as u64 + 2; LEN]);
            }
            ctx.barrier();
            for (i, sv) in vecs.iter().enumerate() {
                let got = ctx.read_range(sv, 0..LEN);
                assert!(got == [(i % hosts) as u64 + 2; LEN], "vector {i}");
            }
        },
    )
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// Resident shared-memory pages of this process, in kB (`RssShmem`): what
/// the regions' memfd pages count as while they are mapped.
fn rss_shmem_kb() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("RssShmem:"))
        .expect("RssShmem line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("kB")
}

#[test]
fn runs_give_back_their_regions_fds_and_registry_slots() {
    let (fds, slots) = (open_fds(), free_slots());

    // 40 two-host runs register 80 regions in a 64-slot registry.
    let mut shmem_after_first = 0;
    for run in 0..40 {
        let report = one_run(2).unwrap_or_else(|e| panic!("run {run}: {e}"));
        assert!(report.errors.is_empty(), "run {run}: {:?}", report.errors);
        assert!(report.total_faults() > 0, "run {run}: no faults");
        if run == 0 {
            shmem_after_first = rss_shmem_kb();
        }
    }
    assert_eq!((open_fds(), free_slots()), (fds, slots));
    let shmem = rss_shmem_kb();
    assert!(
        shmem <= shmem_after_first * 3 / 2 + 256,
        "RssShmem {shmem_after_first} kB after run 1, {shmem} kB after run 40"
    );

    // A failed assembly releases what it took: with one slot left, the
    // second host's registration fails after the first host's succeeded
    // and after every region of the run was created.
    let tiny = || Arc::new(MultiViewRegion::new(1, 1).expect("mmap views"));
    let fillers: Vec<FaultCounters> = (1..slots)
        .map(|_| install_handler(tiny()).expect("install handler"))
        .collect();
    let fds_filled = open_fds();
    assert_eq!(free_slots(), 1);
    match one_run(2) {
        Err(ProtocolError::Backend { what, .. }) => assert_eq!(what, "fault handler registration"),
        other => panic!("expected a registration failure, got {other:?}"),
    }
    assert_eq!((open_fds(), free_slots()), (fds_filled, 1));
    // The slot it gave back is enough for a one-host run.
    let report = one_run(1).expect("one slot, one host");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    for f in &fillers {
        f.retire();
    }
    assert_eq!((open_fds(), free_slots()), (fds, slots));
}
