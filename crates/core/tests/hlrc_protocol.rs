//! Tests of the §5 release-consistency extension (`Consistency::HomeEagerRc`).

use millipage::{run, AllocMode, ClusterConfig, Consistency, CostModel, HostId};
use std::sync::Mutex;

fn cfg(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 8,
        pages: 64,
        cost: CostModel::default(),
        alloc_mode: AllocMode::FINE,
        consistency: Consistency::HomeEagerRc,
        seed: 9,
        ..ClusterConfig::default()
    }
}

#[test]
fn rc_single_host_reads_and_writes() {
    let report = run(
        cfg(1),
        |s| s.alloc_vec_init::<u64>(&[0; 8]),
        |ctx, sv| {
            for i in 0..8 {
                ctx.set(sv, i, i as u64 * 3);
            }
            ctx.barrier();
            for i in 0..8 {
                assert_eq!(ctx.get(sv, i), i as u64 * 3);
            }
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    // The manager host writes through the twin path even at home.
    assert!(report.write_faults >= 1);
    assert!(report.rc_diffs >= 1, "the flush must ship a diff home");
}

#[test]
fn rc_barrier_publishes_writes() {
    let report = run(
        cfg(4),
        |s| s.alloc_vec_init::<u64>(&[0; 4]),
        |ctx, sv| {
            let me = ctx.host().index();
            ctx.set(sv, me, (me + 1) as u64 * 100);
            ctx.barrier();
            // Everyone observes everyone's barrier-published write.
            for h in 0..4 {
                assert_eq!(ctx.get(sv, h), (h + 1) as u64 * 100);
            }
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
}

#[test]
fn rc_concurrent_writers_on_one_minipage_merge() {
    // The point of the extension: four hosts write DISJOINT elements of
    // the SAME (chunked) minipage concurrently. SW/MR would ping-pong the
    // single writable copy; HLRC lets everyone write locally and merges
    // the diffs at the barrier.
    let report = run(
        ClusterConfig {
            alloc_mode: AllocMode::FineGrain { chunking: 4 },
            ..cfg(4)
        },
        |s| {
            // Four 128-byte allocations chunked into one 512-byte minipage.
            let parts: Vec<_> = (0..4).map(|_| s.alloc_vec::<u64>(16)).collect();
            for p in &parts {
                s.write_vec(p, 0, &[0u64; 16]);
            }
            parts
        },
        |ctx, parts| {
            let me = ctx.host().index();
            ctx.barrier();
            for i in 0..16 {
                ctx.set(&parts[me], i, (me * 1000 + i) as u64);
            }
            ctx.barrier();
            for h in 0..4 {
                for i in 0..16 {
                    assert_eq!(
                        ctx.get(&parts[h], i),
                        (h * 1000 + i) as u64,
                        "host {me} sees host {h}'s writes merged"
                    );
                }
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
        report.rc_diffs >= 3,
        "each writer ships a diff: {}",
        report.rc_diffs
    );
}

#[test]
fn rc_concurrent_writers_do_not_serialize() {
    // Four hosts write disjoint quarters of ONE chunked minipage in every
    // phase. Under SW/MR the single writable copy must visit all four
    // hosts serially (each transfer queueing behind the previous service
    // window); under HLRC all four fetch in parallel, write locally, and
    // merge diffs at the barrier. The parallel-writer protocol must win
    // on virtual time — that is §5's claim.
    // Host 0 (manager/home) only computes and synchronizes; hosts 1..4
    // write and are busy computing between phases, so under SW/MR every
    // steal is served by a *busy* host's sweeper (§3.5.1's ~500 µs
    // delay), serially — while under HLRC the responsive home serves all
    // fetches and merges all diffs.
    let program = |consistency: Consistency| {
        let r = run(
            ClusterConfig {
                alloc_mode: AllocMode::FineGrain { chunking: 4 },
                consistency,
                ..cfg(5)
            },
            |s| {
                let parts: Vec<_> = (0..4).map(|_| s.alloc_vec_init::<u64>(&[0; 16])).collect();
                parts
            },
            |ctx, parts| {
                let me = ctx.host().index();
                for round in 0..15u64 {
                    if me > 0 {
                        for i in 0..16 {
                            ctx.set(&parts[me - 1], i, round * 100 + i as u64);
                        }
                    }
                    ctx.compute(3_000_000); // Stay busy: starve the poller.
                    ctx.barrier();
                }
            },
        );
        assert!(
            r.coherence_violations.is_empty(),
            "{:?}",
            r.coherence_violations
        );
        r.virtual_time
    };
    let sc = program(Consistency::SequentialSwMr);
    let rc = program(Consistency::HomeEagerRc);
    assert!(
        rc < sc,
        "concurrent disjoint writers must be faster under HLRC: rc={rc} sc={sc}"
    );
}

#[test]
fn rc_lock_release_publishes_to_next_acquirer() {
    let report = run(
        cfg(4),
        |s| s.alloc_cell_init::<u64>(0),
        |ctx, c| {
            for _ in 0..12 {
                ctx.lock(7);
                let v = ctx.cell_get(c);
                ctx.compute(2_000);
                ctx.cell_set(c, v + 1);
                ctx.unlock(7); // Release: flushes the dirty cell home.
            }
            ctx.barrier();
            assert_eq!(ctx.cell_get(c), 48);
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert_eq!(report.lock_acquires, 48);
}

#[test]
fn rc_reads_always_one_hop_from_home() {
    // Three hosts; host 2 writes and flushes; host 1 reads. Under HLRC
    // the read is served by the home directly (no forwarding).
    let out = Mutex::new(0u64);
    let report = run(
        cfg(3),
        |s| s.alloc_cell_init::<u64>(5),
        |ctx, c| {
            if ctx.host() == HostId(2) {
                ctx.cell_set(c, 77);
            }
            ctx.barrier();
            if ctx.host() == HostId(1) {
                *out.lock().unwrap() = ctx.cell_get(c);
            }
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert_eq!(out.into_inner().unwrap(), 77);
}

#[test]
fn rc_mid_phase_invalidation_preserves_dirty_writes() {
    // Host 1 dirties minipage M and, before reaching its barrier, host 2's
    // flush of the same minipage invalidates host 1's copy. Host 1's
    // writes-so-far must be diffed home by the invalidation handler, not
    // lost. Disjoint bytes (DRF at byte level).
    let report = run(
        ClusterConfig {
            alloc_mode: AllocMode::FineGrain { chunking: 2 },
            ..cfg(3)
        },
        |s| {
            let a = s.alloc_vec_init::<u64>(&[0; 4]);
            let b = s.alloc_vec_init::<u64>(&[0; 4]);
            (a, b)
        },
        |ctx, (a, b)| {
            match ctx.host().index() {
                1 => {
                    ctx.set(a, 0, 111); // Dirty the chunked minipage.
                    ctx.compute(20_000_000); // Stay mid-phase a long time.
                }
                2 => {
                    ctx.set(b, 0, 222);
                    ctx.barrier(); // Early flush → invalidates host 1.
                    return;
                }
                _ => {}
            }
            ctx.barrier();
        },
    );
    // Ordering note: host 2 hits the barrier early; hosts 0/1 arrive
    // later. After the final quiesce both writes must be in the home copy.
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
}
