//! Edge-case integration tests of the cluster API surface.

use millipage::{
    run, AllocMode, Category, ClusterConfig, Consistency, CostModel, FaultPlane, HomePolicyKind,
    HostId, SchedMode, ScriptedFault, SharedVec, VAddr,
};
use parking_lot::Mutex;

fn cfg(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 8,
        pages: 128,
        cost: CostModel::default(),
        alloc_mode: AllocMode::FINE,
        seed: 77,
        ..ClusterConfig::default()
    }
}

#[test]
fn runtime_allocation_from_non_manager_host() {
    // §3.2's malloc-like API is callable mid-run from any host.
    let addr_box = Mutex::new(None);
    let report = run(
        cfg(3),
        |_| (),
        |ctx, ()| {
            if ctx.host() == HostId(2) {
                let sv = ctx.alloc_vec::<u64>(4);
                ctx.set(&sv, 0, 99);
                *addr_box.lock() = Some(sv);
            }
            ctx.barrier();
            if ctx.host() == HostId(0) {
                let sv = addr_box.lock().expect("allocated");
                assert_eq!(ctx.get(&sv, 0), 99);
            }
            ctx.barrier();
        },
    );
    assert!(report.coherence_violations.is_empty());
    // The remote host had to claim the fresh minipage from the manager.
    assert!(report.write_faults >= 1);
}

#[test]
fn minipage_spanning_multiple_pages_transfers_whole() {
    // A large allocation is one spanning minipage (§2.4): a single fault
    // moves all of it.
    let report = run(
        cfg(2),
        |s| s.alloc_vec_init::<u8>(&vec![7u8; 3 * 4096 + 128]),
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                assert_eq!(ctx.get(sv, 0), 7);
                // The far end is present without another fault.
                assert_eq!(ctx.get(sv, 3 * 4096 + 127), 7);
            }
            ctx.barrier();
        },
    );
    assert!(report.coherence_violations.is_empty());
    assert_eq!(
        report.read_faults, 1,
        "one fault covers the spanning minipage"
    );
}

#[test]
fn writes_crossing_minipage_boundaries_fault_each() {
    // Page-grain mode: an allocation crossing a page boundary spans two
    // whole-page minipages; a write covering the seam takes two faults.
    let report = run(
        ClusterConfig {
            alloc_mode: AllocMode::PageGrain,
            ..cfg(2)
        },
        |s| {
            let _pad = s.alloc_bytes(4000);
            s.alloc_vec_init::<u8>(&[1u8; 200]) // Crosses into page 1.
        },
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                ctx.write_range(sv, 0, &[9u8; 200]);
            }
            ctx.barrier();
            assert_eq!(ctx.get(sv, 0), 9);
            assert_eq!(ctx.get(sv, 199), 9);
            ctx.barrier();
        },
    );
    assert!(report.coherence_violations.is_empty());
    assert_eq!(report.write_faults, 2, "one fault per covered minipage");
}

#[test]
fn timer_reset_scopes_the_breakdown() {
    let out = Mutex::new((0u64, 0u64));
    run(
        cfg(1),
        |_| (),
        |ctx, ()| {
            ctx.compute(5_000_000);
            ctx.timer_reset();
            ctx.compute(1_000_000);
            *out.lock() = (ctx.timed(), ctx.timed_breakdown().get(Category::Comp));
        },
    );
    let (timed, comp) = out.into_inner();
    assert_eq!(timed, 1_000_000);
    assert_eq!(comp, 1_000_000);
}

#[test]
fn fetch_group_overlaps_fetches() {
    // Composed-view group fetch (§5): pulling 24 minipages as a group
    // must cost far less than 24 serial fault round trips.
    let serial = Mutex::new(0u64);
    let grouped = Mutex::new(0u64);
    let report = run(
        ClusterConfig {
            sched: SchedMode::deterministic(),
            ..cfg(2)
        },
        |s| {
            let a: Vec<_> = (0..24).map(|_| s.alloc_vec_init::<u64>(&[1; 8])).collect();
            let b: Vec<_> = (0..24).map(|_| s.alloc_vec_init::<u64>(&[2; 8])).collect();
            (a, b)
        },
        |ctx, (a, b)| {
            if ctx.host() == HostId(1) {
                let t0 = ctx.now();
                for sv in a {
                    let _ = ctx.get(sv, 0); // Serial faulting.
                }
                *serial.lock() = ctx.now() - t0;
                let t1 = ctx.now();
                ctx.fetch_group(b);
                for sv in b {
                    assert_eq!(ctx.get(sv, 0), 2);
                }
                *grouped.lock() = ctx.now() - t1;
            }
            ctx.barrier();
        },
    );
    assert!(report.coherence_violations.is_empty());
    let (s, g) = (serial.into_inner(), grouped.into_inner());
    assert!(
        g * 2 < s,
        "group fetch must overlap latencies: serial={s} grouped={g}"
    );
    assert!(report.prefetches >= 24);
}

#[test]
fn sixteen_hosts_work() {
    // The paper stops at 8; the implementation supports more.
    let report = run(
        cfg(16),
        |s| s.alloc_cell_init::<u64>(0),
        |ctx, c| {
            ctx.lock(1);
            let v = ctx.cell_get(c);
            ctx.cell_set(c, v + 1);
            ctx.unlock(1);
            ctx.barrier();
            assert_eq!(ctx.cell_get(c), 16);
        },
    );
    assert!(report.coherence_violations.is_empty());
    assert_eq!(report.lock_acquires, 16);
}

#[test]
fn crossing_writes_do_not_deadlock() {
    // Regression: a write range spanning two page-grain minipages holds
    // minipage A's service window while faulting on minipage B; two hosts
    // with interleaved grants used to deadlock (each queued behind the
    // other's un-acked window). The fault path now closes its windows
    // before requesting the next minipage, like the real system's
    // instruction-grained faults.
    let report = run(
        ClusterConfig {
            alloc_mode: AllocMode::PageGrain,
            ..cfg(4)
        },
        |s| {
            let _pad = s.alloc_bytes(4000);
            s.alloc_vec_init::<u8>(&[0u8; 200]) // Straddles a page boundary.
        },
        |ctx, sv| {
            let me = ctx.host().index() as u8;
            for round in 0..60u8 {
                ctx.write_range(sv, 0, &[me.wrapping_add(round); 200]);
                let back = ctx.read_range(sv, 0..200);
                // Coherent per page: every byte equals SOME host's write.
                assert!(back
                    .iter()
                    .all(|&b| b.wrapping_sub(back[0]).min(back[0].wrapping_sub(b)) < 64));
            }
            ctx.barrier();
        },
    );
    assert!(report.coherence_violations.is_empty());
    assert!(report.write_faults > 10, "the test must actually contend");
}

#[test]
#[should_panic(expected = "application bug on h1")]
fn early_app_panic_terminates_cleanly() {
    // Regression: an application thread that dies early (here: an assert
    // firing before the barrier) used to leave its siblings parked on
    // protocol waits nobody would ever fulfill — the scope join hung the
    // whole cluster. The failing thread now cancels every host's pending
    // waiters before anyone joins, the servers shut down, and the original
    // panic resumes (siblings' cancellations become typed protocol errors,
    // not panics). This test must *fail fast*, never hang.
    run(
        cfg(3),
        |_| (),
        |ctx, ()| {
            if ctx.host() == HostId(1) {
                panic!("application bug on h1");
            }
            ctx.barrier(); // h0/h2 park here until the cancel sweep.
        },
    );
}

#[test]
#[should_panic(expected = "shared allocation failed")]
fn handler_panic_ends_the_run_with_its_own_message() {
    // A handler runs on whichever application thread holds the schedule
    // — here h1's, inside its wait
    // for the allocation reply. The manager's allocator panicking (the
    // request exceeds the whole region) must neither be reported as h1's
    // failure nor leave the other hosts parked: the scheduler catches it,
    // poisons the run, and `run` re-raises that very panic after teardown.
    let started = std::time::Instant::now();
    let outcome = std::panic::catch_unwind(|| {
        run(
            ClusterConfig {
                sched: SchedMode::deterministic(),
                ..cfg(3)
            },
            |_| (),
            |ctx, ()| {
                if ctx.host() == HostId(1) {
                    ctx.alloc_bytes(1 << 30);
                }
                ctx.barrier();
            },
        )
    });
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    match outcome {
        Ok(report) => panic!("run survived: {:?}", report.protocol_errors),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[test]
fn blackholed_request_surfaces_as_protocol_error() {
    // A scripted blackhole eats every transmission of h1's first request
    // to the manager (the read-fault request and all its retransmits). The
    // send exhausts its retransmit budget, surfaces as a typed timeout on
    // the faulting thread, and the cluster shuts down cleanly with the
    // error reported on the run — no hang, no propagated panic.
    let report = run(
        ClusterConfig {
            faults: FaultPlane {
                scripted: vec![ScriptedFault::blackhole_nth(HostId(1), HostId(0), 1)],
                ..FaultPlane::disabled()
            },
            ..cfg(2)
        },
        |s| s.alloc_vec_init::<u64>(&[7; 8]),
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                let _ = ctx.get(sv, 0); // First h1 -> h0 packet: blackholed.
            }
            ctx.barrier();
        },
    );
    assert!(
        report
            .protocol_errors
            .iter()
            .any(|e| e.contains("timed out")),
        "expected a surfaced timeout, got {:?}",
        report.protocol_errors
    );
    let nf = report.net_faults.expect("fault plane was active");
    assert_eq!(nf.expired, 1, "exactly the blackholed send expired");
}

/// A read of a mapped address nothing was allocated at: the translation
/// fails, under every home policy the request reaches the manager's shard,
/// and the shared server error path must *tell the requester* (a `Nack`)
/// rather than leave it blocked — the same guarantee
/// `host_request_nack.rs` pins on the real-memory backend.
fn stray_read_nacks(policy: HomePolicyKind) {
    let stray = VAddr(sim_core::DEFAULT_BASE + 5 * 4096);
    let report = run(
        ClusterConfig {
            home_policy: policy,
            ..cfg(2)
        },
        |_| SharedVec::<f32>::from_raw(stray, 1),
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                let _ = ctx.get(sv, 0);
            }
            ctx.barrier();
        },
    );
    let errs = &report.protocol_errors;
    assert!(
        errs.iter().any(|e| e.contains("hits no minipage"))
            && errs
                .iter()
                .any(|e| e.starts_with("h1") && e.contains("nacked")),
        "{policy:?}: expected a BadTranslation/Nacked pair, got {errs:?}"
    );
}

#[test]
fn stray_read_nacks_the_requester() {
    for policy in [
        HomePolicyKind::Centralized,
        HomePolicyKind::Interleaved,
        HomePolicyKind::FirstTouch,
    ] {
        stray_read_nacks(policy);
    }
}

#[test]
fn hlrc_and_page_grain_compose() {
    // Release consistency over page-grain allocation: heavy false sharing
    // becomes concurrent-writer merging.
    let report = run(
        ClusterConfig {
            alloc_mode: AllocMode::PageGrain,
            consistency: Consistency::HomeEagerRc,
            ..cfg(4)
        },
        |s| {
            let cells: Vec<_> = (0..4).map(|_| s.alloc_cell_init::<u64>(0)).collect();
            cells
        },
        |ctx, cells| {
            let me = ctx.host().index();
            for round in 1..=10u64 {
                ctx.cell_set(&cells[me], round);
                ctx.barrier();
            }
            for (h, c) in cells.iter().enumerate() {
                assert_eq!(ctx.cell_get(c), 10, "cell {h}");
            }
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert!(report.rc_diffs > 0);
}

/// Copysets are `u64` bitmasks: both backends refuse a host count outside
/// `1..=HostId::MAX_HOSTS` up front, before building anything.
#[test]
#[should_panic(expected = "host count 0 out of range")]
fn run_rejects_zero_hosts() {
    run(cfg(0), |_| (), |_, ()| {});
}

#[test]
#[should_panic(expected = "host count 65 out of range")]
fn run_rejects_sixty_five_hosts() {
    run(cfg(HostId::MAX_HOSTS + 1), |_| (), |_, ()| {});
}

#[cfg(target_os = "linux")]
fn host_cfg(hosts: usize) -> millipage::HostRunConfig {
    millipage::HostRunConfig {
        hosts,
        ..Default::default()
    }
}

#[cfg(target_os = "linux")]
#[test]
#[should_panic(expected = "host count 0 out of range")]
fn run_host_rejects_zero_hosts() {
    let _ = millipage::run_host(host_cfg(0), |_| (), |_, ()| {});
}

#[cfg(target_os = "linux")]
#[test]
#[should_panic(expected = "host count 65 out of range")]
fn run_host_rejects_sixty_five_hosts() {
    let _ = millipage::run_host(host_cfg(HostId::MAX_HOSTS + 1), |_| (), |_, ()| {});
}
