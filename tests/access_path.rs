//! The one checked access path, end to end: a shared access is cut at
//! page (and, after a reshape, minipage) ends, and each segment is
//! checked, faulted in if its protection does not allow the access, and
//! copied on its own. These tests pin what that promises through the
//! public API: a range access takes one fault per sharing unit it finds
//! absent, not one per call or per byte; a range or an element that
//! straddles a page end comes back bit-exact on every host; an access
//! the protocol revoked is checked again; and an empty access touches
//! nothing.

use millipage::{run, AllocMode, ClusterConfig, Consistency, HostCtx, RunReport, SharedVec};

/// The simulator's page size at the default geometry.
const PAGE: usize = 4096;

fn cfg(alloc_mode: AllocMode, consistency: Consistency) -> ClusterConfig {
    ClusterConfig {
        hosts: 2,
        views: 4,
        pages: 16,
        alloc_mode,
        consistency,
        ..ClusterConfig::default()
    }
}

fn swmr(alloc_mode: AllocMode) -> ClusterConfig {
    cfg(alloc_mode, Consistency::SequentialSwMr)
}

/// Runs `body` on two hosts over a three-page byte arena that host 0
/// (the allocator) holds writable at the start.
fn run_arena(
    cfg: ClusterConfig,
    body: impl Fn(&mut HostCtx, &SharedVec<u8>) + Send + Sync,
) -> RunReport {
    let report = run(cfg, |s| s.alloc_vec::<u8>(3 * PAGE), body);
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert!(
        report.protocol_errors.is_empty(),
        "{:?}",
        report.protocol_errors
    );
    report
}

fn faults(report: &RunReport, host: usize) -> (u64, u64) {
    let h = &report.per_host[host];
    (h.read_faults, h.write_faults)
}

/// Byte `i` of the pattern host 0 writes in round `round`.
fn pattern(round: u8, i: usize) -> u8 {
    (i as u8).wrapping_mul(31).wrapping_add(round)
}

/// Under page grain every page is its own minipage: a read of three
/// pages faults three times, once per page as the walk reaches it, and
/// reading them again faults no more.
#[test]
fn a_page_grain_range_read_faults_once_per_page() {
    let report = run_arena(swmr(AllocMode::PageGrain), |ctx, sv| {
        let all: Vec<u8> = (0..3 * PAGE).map(|i| pattern(1, i)).collect();
        if ctx.host().index() == 0 {
            ctx.write_range(sv, 0, &all);
        }
        ctx.barrier();
        if ctx.host().index() == 1 {
            assert_eq!(ctx.read_range(sv, 0..3 * PAGE), all);
            assert_eq!(ctx.read_range(sv, 0..3 * PAGE), all);
        }
    });
    assert_eq!(faults(&report, 0), (0, 0));
    assert_eq!(faults(&report, 1), (3, 0));
}

/// A large fine-grain allocation is one minipage spanning its pages: the
/// fault on its first page brings all of them, so the walk over the
/// rest finds them readable.
#[test]
fn a_spanning_minipage_faults_once_for_all_its_pages() {
    let report = run_arena(swmr(AllocMode::FINE), |ctx, sv| {
        let all: Vec<u8> = (0..3 * PAGE).map(|i| pattern(2, i)).collect();
        if ctx.host().index() == 0 {
            ctx.write_range(sv, 0, &all);
        }
        ctx.barrier();
        if ctx.host().index() == 1 {
            assert_eq!(ctx.read_range(sv, 0..3 * PAGE), all);
        }
    });
    assert_eq!(faults(&report, 1), (1, 0));
}

/// A write that straddles a page end takes a write fault on each page,
/// and the other host reads back exactly the bytes written on both
/// sides of the end.
#[test]
fn a_range_write_straddling_a_page_end_faults_on_both_pages() {
    let report = run_arena(swmr(AllocMode::PageGrain), |ctx, sv| {
        let at = PAGE - 8;
        let bytes: Vec<u8> = (0..16).map(|i| pattern(3, i)).collect();
        if ctx.host().index() == 1 {
            ctx.write_range(sv, at, &bytes);
        }
        ctx.barrier();
        if ctx.host().index() == 0 {
            assert_eq!(ctx.read_range(sv, at..at + 16), bytes);
            assert_eq!(ctx.read_range(sv, at - 1..at), [0]);
            assert_eq!(ctx.read_range(sv, at + 16..at + 17), [0]);
        }
    });
    assert_eq!(faults(&report, 1), (0, 2));
    assert_eq!(faults(&report, 0), (2, 0));
}

/// One typed element cut by a page end is written and read in two
/// segments, each checked on its own page, and keeps its bits.
#[test]
fn an_element_straddling_a_page_end_round_trips() {
    let v = 0x0123_4567_89AB_CDEF_u64;
    let report = run_arena(swmr(AllocMode::PageGrain), move |ctx, sv| {
        let x = SharedVec::<u64>::from_raw(sv.base().add(PAGE - 3), 1);
        if ctx.host().index() == 1 {
            ctx.set(&x, 0, v);
        }
        ctx.barrier();
        assert_eq!(ctx.get(&x, 0), v);
        let low = ctx.read_range(sv, PAGE - 3..PAGE);
        let high = ctx.read_range(sv, PAGE..PAGE + 5);
        assert_eq!([low, high].concat(), v.to_le_bytes());
    });
    assert_eq!(faults(&report, 1), (0, 2));
    assert_eq!(faults(&report, 0), (2, 0));
}

/// After the other host writes one page, a read of the whole range
/// faults again on that page only: the walk checks each page's
/// protection afresh, and only that page's was revoked. The read sees
/// the new bytes there and the old ones elsewhere.
#[test]
fn a_read_after_an_invalidation_refetches_only_the_invalidated_page() {
    let report = run_arena(swmr(AllocMode::PageGrain), |ctx, sv| {
        let mut all: Vec<u8> = (0..3 * PAGE).map(|i| pattern(4, i)).collect();
        if ctx.host().index() == 0 {
            ctx.write_range(sv, 0, &all);
        }
        ctx.barrier();
        if ctx.host().index() == 1 {
            assert_eq!(ctx.read_range(sv, 0..3 * PAGE), all);
        }
        ctx.barrier();
        let fresh: Vec<u8> = (0..PAGE).map(|i| pattern(5, i)).collect();
        if ctx.host().index() == 0 {
            ctx.write_range(sv, PAGE, &fresh);
        }
        ctx.barrier();
        if ctx.host().index() == 1 {
            all[PAGE..2 * PAGE].copy_from_slice(&fresh);
            assert_eq!(ctx.read_range(sv, 0..3 * PAGE), all);
        }
    });
    // Host 0's write to page 1 is an upgrade: host 1's read left it a
    // read-only copy.
    assert_eq!(faults(&report, 0), (0, 1));
    assert_eq!(faults(&report, 1), (4, 0));
}

/// Many accesses to a page the host already holds take no fault after
/// the first read and the first write (an upgrade), however many there
/// are.
#[test]
fn repeated_accesses_to_a_held_page_fault_once_per_right() {
    let report = run_arena(swmr(AllocMode::FINE), |ctx, sv| {
        ctx.barrier();
        if ctx.host().index() == 1 {
            let mut sum = 0u64;
            for i in 0..1000 {
                sum += ctx.get(sv, i % 64) as u64;
            }
            assert_eq!(sum, 0);
            for i in 0..1000 {
                ctx.set(sv, i % 64, i as u8);
            }
            assert_eq!(ctx.get(sv, 999 % 64), (999 % 256) as u8);
        }
    });
    assert_eq!(faults(&report, 1), (1, 1));
}

/// Under home-based release consistency a range written across page
/// ends by one host is seen whole by the other after a barrier, and the
/// writer's own later reads see it too.
#[test]
fn hlrc_range_writes_across_page_ends_are_seen_after_a_barrier() {
    run_arena(
        cfg(AllocMode::PageGrain, Consistency::HomeEagerRc),
        |ctx, sv| {
            for round in 1..=3u8 {
                let writer = round as usize % 2;
                let at = PAGE / 2 + round as usize;
                let bytes: Vec<u8> = (0..2 * PAGE).map(|i| pattern(round, i)).collect();
                if ctx.host().index() == writer {
                    ctx.write_range(sv, at, &bytes);
                }
                ctx.barrier();
                assert_eq!(
                    ctx.read_range(sv, at..at + 2 * PAGE),
                    bytes,
                    "round {round}"
                );
                ctx.barrier();
            }
        },
    );
}

/// An empty range read or write touches no page: the run is the same,
/// byte for byte, as one that never made those calls.
#[test]
fn empty_range_accesses_touch_nothing() {
    let plain = |ctx: &mut HostCtx, sv: &SharedVec<u8>| {
        ctx.barrier();
        if ctx.host().index() == 1 {
            ctx.set(sv, 7, 7);
        }
        ctx.barrier();
    };
    let with_empty = |ctx: &mut HostCtx, sv: &SharedVec<u8>| {
        if ctx.host().index() == 1 {
            assert!(ctx.read_range(sv, PAGE..PAGE).is_empty());
            ctx.write_range(sv, 2 * PAGE, &[]);
            ctx.read_into(sv, 3 * PAGE, &mut []);
        }
        plain(ctx, sv);
    };
    let c = swmr(AllocMode::PageGrain);
    let a = run_arena(c.clone(), plain);
    let b = run_arena(c, with_empty);
    assert_eq!(faults(&b, 1), (0, 1));
    assert_eq!(a.to_json(), b.to_json());
}

/// One range read and the same bytes read one element at a time take
/// the same faults: the walk's segments fault per page, not per call.
#[test]
fn a_range_read_and_element_reads_take_the_same_faults() {
    let by_range = run_arena(swmr(AllocMode::PageGrain), |ctx, sv| {
        ctx.barrier();
        if ctx.host().index() == 1 {
            assert!(ctx
                .read_range(sv, 100..2 * PAGE + 100)
                .iter()
                .all(|&b| b == 0));
        }
    });
    let by_element = run_arena(swmr(AllocMode::PageGrain), |ctx, sv| {
        ctx.barrier();
        if ctx.host().index() == 1 {
            assert!((100..2 * PAGE + 100).all(|i| ctx.get(sv, i) == 0));
        }
    });
    assert_eq!(faults(&by_range, 1), (3, 0));
    assert_eq!(faults(&by_element, 1), faults(&by_range, 1));
}
