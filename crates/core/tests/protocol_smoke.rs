//! End-to-end protocol smoke tests for the Millipage cluster.

use millipage::explore::{race_config, race_workload};
use millipage::{
    run, AllocMode, Category, ClusterConfig, CostModel, FaultPlane, HostId, SchedMode,
};

fn cfg(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 8,
        pages: 64,
        cost: CostModel::default(),
        alloc_mode: AllocMode::FINE,
        seed: 1,
        ..ClusterConfig::default()
    }
}

#[test]
fn single_host_allocates_reads_writes() {
    let report = run(
        cfg(1),
        |setup| setup.alloc_vec::<u64>(16),
        |ctx, sv| {
            for i in 0..16 {
                ctx.set(sv, i, (i * i) as u64);
            }
            for i in 0..16 {
                assert_eq!(ctx.get(sv, i), (i * i) as u64);
            }
        },
    );
    assert_eq!(report.hosts, 1);
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    // Manager host owns fresh allocations: no faults at all.
    assert_eq!(report.read_faults, 0);
    assert_eq!(report.write_faults, 0);
}

#[test]
fn remote_host_faults_data_in() {
    let report = run(
        cfg(2),
        |setup| setup.alloc_vec_init::<u32>(&[10, 20, 30, 40]),
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                // First touch on host 1: a read fault fetches the minipage.
                assert_eq!(ctx.get(sv, 2), 30);
                // Second read: no further fault.
                assert_eq!(ctx.get(sv, 3), 40);
            }
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert_eq!(report.read_faults, 1);
    assert_eq!(report.write_faults, 0);
    assert_eq!(report.barriers, 1);
    assert!(report.virtual_time > 0);
}

#[test]
fn write_invalidates_read_copies() {
    let report = run(
        cfg(4),
        |setup| setup.alloc_vec_init::<u32>(&[0; 8]),
        |ctx, sv| {
            // Everyone reads (read copies everywhere).
            let _ = ctx.get(sv, 0);
            ctx.barrier();
            // Host 3 writes: all other copies must be invalidated.
            if ctx.host() == HostId(3) {
                ctx.set(sv, 0, 99);
            }
            ctx.barrier();
            // Everyone re-reads the new value (sequential consistency).
            assert_eq!(ctx.get(sv, 0), 99);
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert_eq!(report.write_faults, 1);
    assert!(
        report.invalidations >= 3,
        "invalidations = {}",
        report.invalidations
    );
    assert_eq!(report.barriers, 3);
}

#[test]
fn false_sharing_is_absent_with_fine_grain() {
    // Two variables that would share a page get independent minipages:
    // ping-pong writes to one never invalidate the other.
    let report = run(
        cfg(2),
        |setup| {
            let a = setup.alloc_vec_init::<u64>(&[0]);
            let b = setup.alloc_vec_init::<u64>(&[0]);
            (a, b)
        },
        |ctx, (a, b)| {
            // Barrier-paced so the interleaving is deterministic.
            let mine = if ctx.host() == HostId(0) { a } else { b };
            for _ in 0..20 {
                let v = ctx.get(mine, 0);
                ctx.set(mine, 0, v + 1);
                ctx.barrier();
            }
            if ctx.host() == HostId(0) {
                assert_eq!(ctx.get(a, 0), 20);
                assert_eq!(ctx.get(b, 0), 20);
            }
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    // Host 1 write-faults once on b; host 0 reads b once at the end.
    // Steady-state iterations cause no further protocol traffic.
    assert!(
        report.write_faults <= 2,
        "write faults = {}",
        report.write_faults
    );
    assert!(
        report.read_faults <= 3,
        "read faults = {}",
        report.read_faults
    );
}

#[test]
fn page_grain_baseline_false_shares() {
    // The same program under the page-grain baseline ping-pongs: the two
    // u64s share one page-size minipage.
    let report = run(
        ClusterConfig {
            alloc_mode: AllocMode::PageGrain,
            ..cfg(2)
        },
        |setup| {
            let a = setup.alloc_vec_init::<u64>(&[0]);
            let b = setup.alloc_vec_init::<u64>(&[0]);
            (a, b)
        },
        |ctx, (a, b)| {
            // Identical barrier-paced program as the fine-grain test above.
            let mine = if ctx.host() == HostId(0) { a } else { b };
            for _ in 0..20 {
                let v = ctx.get(mine, 0);
                ctx.set(mine, 0, v + 1);
                ctx.barrier();
            }
            if ctx.host() == HostId(0) {
                assert_eq!(ctx.get(a, 0), 20);
                assert_eq!(ctx.get(b, 0), 20);
            }
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert!(
        report.write_faults + report.read_faults > 20,
        "expected heavy false sharing, got r={} w={}",
        report.read_faults,
        report.write_faults
    );
}

#[test]
fn locks_provide_mutual_exclusion() {
    const N: usize = 40;
    let report = run(
        cfg(4),
        |setup| setup.alloc_vec_init::<u64>(&[0]),
        |ctx, sv| {
            for _ in 0..N {
                ctx.lock(1);
                let v = ctx.get(sv, 0);
                ctx.compute(1_000);
                ctx.set(sv, 0, v + 1);
                ctx.unlock(1);
            }
            ctx.barrier();
            assert_eq!(ctx.get(sv, 0), (4 * N) as u64);
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert_eq!(report.lock_acquires, (4 * N) as u64);
    assert!(report.breakdown.get(Category::Synch) > 0);
}

/// One host computes for 50 ms before the barrier; nobody may leave it
/// earlier than that.
fn slow_host_barrier(cfg: ClusterConfig) {
    let report = run(
        cfg,
        |_| (),
        |ctx, ()| {
            if ctx.host() == HostId(2) {
                ctx.compute(50_000_000); // 50 ms of work on one host.
            }
            ctx.barrier();
            // After the barrier everyone's clock passed the slow host's.
            assert!(ctx.now() >= 50_000_000);
        },
    );
    assert!(report.virtual_time >= 50_000_000);
    assert_eq!(report.barriers, 1);
}

#[test]
fn barrier_synchronizes_virtual_time() {
    slow_host_barrier(cfg(3));
}

/// Regression: when the manager serves the slow host's enter *before* a
/// fast host's (exploration schedules do it readily), the fast enter is
/// served "back then" and the releases used to carry its stamp.
#[test]
fn barrier_waits_for_the_slowest_arrival_under_seeded_schedules() {
    for seed in 0..64 {
        slow_host_barrier(ClusterConfig {
            sched: SchedMode::random(seed),
            ..cfg(3)
        });
    }
}

#[test]
fn push_distributes_read_copies() {
    let report = run(
        cfg(4),
        |setup| setup.alloc_cell_init::<u64>(7),
        |ctx, c| {
            if ctx.host() == HostId(0) {
                ctx.cell_set(c, 123);
                ctx.push_cell(c);
            }
            ctx.barrier();
            // Readers find a pushed local copy; only hosts that missed the
            // push window fault.
            assert_eq!(ctx.cell_get(c), 123);
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert_eq!(report.pushes, 1);
    assert_eq!(report.read_faults, 0, "push should pre-populate all hosts");
}

#[test]
fn competing_requests_are_counted() {
    let report = run(
        cfg(8),
        |setup| setup.alloc_vec_init::<u64>(&[0]),
        |ctx, sv| {
            // Everyone hammers the same minipage with writes.
            for _ in 0..5 {
                let h = ctx.host().0 as u64;
                ctx.set(sv, 0, h);
            }
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert!(
        report.competing_requests > 0,
        "8 hosts hammering one minipage must queue at the manager"
    );
}

#[test]
fn prefetch_avoids_read_fault_category() {
    let report = run(
        cfg(2),
        |setup| setup.alloc_vec_init::<u64>(&[1, 2, 3, 4]),
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                ctx.prefetch_vec(sv);
                ctx.compute(10_000_000); // Plenty of time for data to land.
                assert_eq!(ctx.get(sv, 0), 1);
            }
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert_eq!(report.prefetches, 1);
    assert_eq!(report.read_faults, 0);
}

#[test]
fn virtual_time_reflects_fault_latency() {
    // One remote read on otherwise idle hosts: the paper's ballpark is
    // ~200-300 µs for a small minipage (Table 1 / §4.2). Accept a broad
    // window but reject wildly wrong accounting.
    let report = run(
        cfg(2),
        |setup| setup.alloc_vec_init::<u32>(&[5; 32]),
        |ctx, sv| {
            if ctx.host() == HostId(1) {
                assert_eq!(ctx.get(sv, 0), 5);
            }
        },
    );
    let t = report.virtual_time;
    assert!(
        (100_000..1_000_000).contains(&t),
        "one idle-host remote read took {t} ns"
    );
    assert!(report.per_host[1].breakdown.get(Category::ReadFault) > 0);
}

/// Hosts 0 and 1 take turns incrementing one shared counter under a
/// lock; every other host's application thread exits at once and its
/// server idles. Returns the scheduler steps the whole run took (the
/// sequential scheduler logs one decision per step) and the write faults
/// served.
fn two_host_ping_pong_in(hosts: usize) -> (u64, u64) {
    let cfg = ClusterConfig {
        sched: SchedMode::deterministic(),
        ..cfg(hosts)
    };
    let sched = cfg.sched.clone();
    let report = run(
        cfg,
        |setup| setup.alloc_vec_init::<u64>(&[0]),
        |ctx, sv| {
            if ctx.host().index() < 2 {
                for _ in 0..50 {
                    ctx.lock(1);
                    let v = ctx.get(sv, 0);
                    ctx.set(sv, 0, v + 1);
                    ctx.unlock(1);
                }
            }
        },
    );
    assert!(
        report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
        "{:?} {:?}",
        report.coherence_violations,
        report.protocol_errors
    );
    (sched.decisions().len() as u64, report.write_faults)
}

/// Wake-ups name a host, so an idle host costs scheduler steps when it
/// starts and when it stops, not once per message someone else exchanges:
/// the same two-host exchange takes the same number of steps in a 4-host
/// and a 32-host cluster, give or take the 28 extra hosts' start-up and
/// teardown (a finishing thread wakes every host once, so that part is
/// some tens of steps per extra host). Counted, not timed: 686 extra
/// steps when written, against 63 070 with wake-ups broadcast to every
/// blocked thread on every message.
#[test]
fn idle_hosts_cost_no_scheduler_steps_per_message() {
    let (steps4, faults4) = two_host_ping_pong_in(4);
    let (steps32, faults32) = two_host_ping_pong_in(32);
    assert_eq!(faults4, faults32, "the exchange itself must not change");
    assert!(faults4 >= 50, "the two hosts must actually take turns");
    let extra = steps32 - steps4;
    assert!(
        extra <= 28 * 40,
        "{steps4} steps on 4 hosts, {steps32} on 32: {extra} extra steps for 28 idle hosts \
         over {faults4} faults"
    );
}

/// Exploration over a reordering wire: the one case whose reorder-held
/// packets a receiving server used to rescue by itself, now rescued at
/// the scheduler's quiet point like every other policy's. The racy HLRC
/// workload under random-walk and PCT schedules, on the acceptance fault
/// mix (1% drop, 0.5% duplicate, 2% reorder), ends with no protocol error
/// (a deadlock verdict is one), no coherence violation and its own
/// asserts holding — and packets were held.
#[test]
fn exploration_over_a_reordering_wire_ends_clean() {
    let mut reorders = 0;
    for seed in 0..4 {
        for sched in [SchedMode::random(seed), SchedMode::pct(seed, 3)] {
            let label = format!("{} seed {seed}", sched.policy_name());
            let report = race_workload(ClusterConfig {
                sched,
                faults: FaultPlane::lossy(13, 0.01, 0.005, 0.02),
                ..race_config()
            });
            assert!(
                report.protocol_errors.is_empty() && report.coherence_violations.is_empty(),
                "{label}: {:?} {:?}",
                report.protocol_errors,
                report.coherence_violations
            );
            reorders += report.net_faults.as_ref().map_or(0, |f| f.reorders);
        }
    }
    assert!(reorders > 0, "no packet was held back");
}
