//! The quiet point, end to end. When no thread can run, the scheduler
//! first delivers every packet the wire's reorder fault holds back — under
//! the deterministic schedule nothing else ever releases the last one on a
//! link — and only then rules the run idle, or deadlocked if an application
//! thread still waits.

use millipage::{run, ClusterConfig, Consistency, FaultPlane, HostId, RunReport, SchedMode};

/// Every packet is a reorder candidate: each link's holdback slot keeps
/// one packet until the next one on that link pushes it out, and the last
/// one until the run goes quiet.
fn holdback_wire() -> FaultPlane {
    FaultPlane::lossy(5, 0.0, 0.0, 1.0)
}

fn cfg(hosts: usize, consistency: Consistency) -> ClusterConfig {
    ClusterConfig {
        hosts,
        pages: 32,
        consistency,
        faults: holdback_wire(),
        sched: SchedMode::deterministic(),
        ..ClusterConfig::default()
    }
}

fn reorders(report: &RunReport) -> u64 {
    report.net_faults.as_ref().map_or(0, |f| f.reorders)
}

/// Locks, barriers and write sharing on a wire that holds back packets:
/// every held request, grant and invalidation is delivered at some quiet
/// point, so the run completes with the right sum and no verdict.
#[test]
fn held_packets_are_delivered_before_the_idle_verdict() {
    const ROUNDS: u64 = 3;
    for consistency in [Consistency::SequentialSwMr, Consistency::HomeEagerRc] {
        let hosts = 4;
        let sum = std::sync::Mutex::new(None);
        let report = run(
            cfg(hosts, consistency),
            |s| (s.alloc_cell_init::<u64>(0), s.alloc_vec_init(&[0u64; 4])),
            |ctx, (counter, cells)| {
                let me = ctx.host().0 as usize;
                for round in 0..ROUNDS {
                    ctx.lock(1);
                    let v = ctx.cell_get(counter);
                    ctx.cell_set(counter, v + 1);
                    ctx.unlock(1);
                    ctx.set(cells, me, round + 1);
                    ctx.barrier();
                }
                if ctx.host() == HostId(0) {
                    ctx.lock(1);
                    let total = ctx.cell_get(counter);
                    ctx.unlock(1);
                    let written: u64 = (0..4).map(|i| ctx.get(cells, i)).sum();
                    *sum.lock().unwrap() = Some((total, written));
                }
                ctx.barrier();
            },
        );
        assert!(
            report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
            "{consistency:?}: {:?} {:?}",
            report.coherence_violations,
            report.protocol_errors
        );
        assert!(reorders(&report) > 0, "{consistency:?}: nothing was held");
        assert_eq!(
            sum.into_inner().unwrap(),
            Some((hosts as u64 * ROUNDS, hosts as u64 * ROUNDS)),
            "{consistency:?}"
        );
    }
}

/// Hosts 1 and 2 each take a lock host 0 manages and never release it, on
/// the same wire: both requests sit in holdback slots when the run first
/// goes quiet. The flush delivers them, one host gets the lock, and the
/// verdict reaches the other alone — not both, as it would if the run were
/// judged with the requests still held.
#[test]
fn deadlock_verdict_follows_the_flush_of_held_packets() {
    let report = run(
        cfg(3, Consistency::SequentialSwMr),
        |_| (),
        |ctx, ()| {
            if ctx.host() != HostId(0) {
                ctx.compute(ctx.host().0 as u64 * 1_000_000);
                ctx.lock(7);
            }
        },
    );
    assert!(reorders(&report) > 0, "nothing was held");
    let errors = &report.protocol_errors;
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains(": lock grant deadlocked"), "{errors:?}");
}
