//! The access path against the coherence protocol: two protocol
//! properties that hold whatever the access path caches. No read after
//! an invalidation returns the old data, and no write after a downgrade
//! lands without a fresh write fault (a write the protocol revoked).

use millipage::{run, ClusterConfig, Consistency};

fn cfg(hosts: usize, consistency: Consistency) -> ClusterConfig {
    ClusterConfig {
        hosts,
        consistency,
        ..ClusterConfig::default()
    }
}

/// Two hosts alternate writes to the same element with barriers between.
/// Each write invalidates the peer's copy; every read afterwards must see
/// the latest value, never the pre-invalidation copy.
#[test]
fn alternating_writers_never_read_stale_data() {
    let report = run(
        cfg(2, Consistency::SequentialSwMr),
        |s| s.alloc_vec_init(&[0u64; 8]),
        |ctx, sv| {
            let me = ctx.host().0 as u64;
            for round in 1..=20u64 {
                let writer = round % 2;
                if me == writer {
                    // Repeated accesses within the round to the same page.
                    for i in 0..8 {
                        ctx.set(sv, i, round * 100 + i as u64);
                    }
                }
                ctx.barrier();
                for i in 0..8 {
                    let v = ctx.get(sv, i);
                    assert_eq!(
                        v,
                        round * 100 + i as u64,
                        "host {me} read stale element {i} in round {round}"
                    );
                }
                ctx.barrier();
            }
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert!(report.protocol_errors.is_empty());
}

/// Same shape under HLRC: release/acquire at the barrier must invalidate
/// cached read mappings so the next round's reads refetch the home copy.
#[test]
fn alternating_writers_never_read_stale_data_hlrc() {
    let report = run(
        cfg(2, Consistency::HomeEagerRc),
        |s| s.alloc_vec_init(&[0u64; 8]),
        |ctx, sv| {
            let me = ctx.host().0 as u64;
            for round in 1..=10u64 {
                let writer = round % 2;
                if me == writer {
                    for i in 0..8 {
                        ctx.set(sv, i, round * 100 + i as u64);
                    }
                }
                ctx.barrier();
                for i in 0..8 {
                    let v = ctx.get(sv, i);
                    assert_eq!(
                        v,
                        round * 100 + i as u64,
                        "host {me} read stale element {i} in round {round}"
                    );
                }
                ctx.barrier();
            }
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert!(report.protocol_errors.is_empty());
}

/// A downgraded writer (peer read forced ReadOnly) must fault on its next
/// write instead of writing through its old ReadWrite access — that
/// write-through would bypass the single-writer protocol entirely.
#[test]
fn downgraded_writer_refaults_instead_of_writing_through() {
    let report = run(
        cfg(2, Consistency::SequentialSwMr),
        |s| s.alloc_vec_init(&[0u64; 4]),
        |ctx, sv| {
            let me = ctx.host().0;
            if me == 0 {
                ctx.set(sv, 0, 1); // own it writable
                ctx.barrier();
                // Host 1 reads between these two barriers; that read
                // downgraded our copy to ReadOnly. The next write must
                // take a fresh write fault (ownership round trip), not
                // write through the old ReadWrite protection.
                ctx.barrier();
                ctx.set(sv, 0, 2);
                ctx.barrier();
            } else {
                ctx.barrier();
                assert_eq!(ctx.get(sv, 0), 1);
                ctx.barrier();
                ctx.barrier();
                assert_eq!(ctx.get(sv, 0), 2);
            }
        },
    );
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    // Host 0 allocated the vector so its first write hits an already
    // writable copy (no fault). The second write lands after host 1's
    // read downgraded the copy, so it must fault — had it written
    // through the old ReadWrite protection, no write fault at all would
    // be recorded.
    assert!(
        report.per_host[0].write_faults >= 1,
        "downgrade did not force a refault: {} write faults",
        report.per_host[0].write_faults
    );
}
