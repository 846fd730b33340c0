//! One park per request, end to end.
//!
//! Under the deterministic scheduler a blocked application thread is
//! re-checked by whichever thread is dispatching and a request (send +
//! wait) is one park, so the OS-level hand-offs of a run are bounded by
//! its blocking waits — not by its wake-ups, which are several per wait.
//! The gate here counts switches ([`SchedMode::hand_offs`]), not seconds,
//! on the protocol-dense workload (WATER: locks, barriers, write faults
//! with invalidations), and checks that the schedule it is measured on is
//! still the deterministic one.

use millipage::{run, ChromeTrace, ClusterConfig, HostId, SchedMode, Tracer};
use millipage_apps::{close, water};

/// WATER on 4 hosts, checked against the sequential reference: trace +
/// report as bytes, and the run's hand-offs per blocking wait.
fn water_run(p: water::WaterParams, tracer: Tracer) -> (String, f64) {
    let mode = SchedMode::deterministic();
    let cfg = ClusterConfig {
        hosts: 4,
        tracer: tracer.clone(),
        sched: mode.clone(),
        ..ClusterConfig::default()
    };
    let r = water::run_water(cfg, p);
    let rep = &r.report;
    assert!(rep.coherence_violations.is_empty() && rep.protocol_errors.is_empty());
    assert!(close(r.checksum, water::reference(p), 1e-9));
    let log = tracer.drain();
    assert_eq!(log.dropped, 0, "ring overflow");
    let mut chrome = ChromeTrace::new();
    chrome.add_run("water", 0, &log.events);
    let waits =
        rep.read_faults + rep.write_faults + rep.lock_acquires + rep.barriers * rep.hosts as u64;
    (
        format!("{}\n{}", chrome.finish(), rep.to_json()),
        mode.hand_offs() as f64 / waits as f64,
    )
}

#[test]
fn water_small_is_deterministic_and_parks_once_per_wait() {
    let p = water::WaterParams::small();
    let (a, ratio) = water_run(p, Tracer::enabled(1 << 14));
    let (b, _) = water_run(p, Tracer::enabled(1 << 14));
    assert!(a == b, "two runs of one schedule differ");
    assert!(ratio <= 1.5, "{ratio:.2} hand-offs per blocking wait");
}

/// The paper input mvbench's `water4_seq` runs: 1.42 hand-offs per wait —
/// one to leave each wait, the rest plain yields that found an earlier
/// thread — where 4.15 were needed while a woken thread ran its own
/// re-check and a request parked twice.
#[test]
fn water_paper_input_parks_once_per_wait() {
    let (_, ratio) = water_run(water::WaterParams::paper(), Tracer::disabled());
    assert!(ratio <= 1.5, "{ratio:.2} hand-offs per blocking wait");
}

/// A lock nobody releases: the waiter's condition sits published in its
/// slot when the schedule runs dry, and the verdict still reaches it as a
/// typed error, sequential or partitioned.
#[test]
fn deadlock_verdict_reaches_a_published_condition() {
    for workers in [None, Some(2)] {
        let report = run(
            ClusterConfig {
                hosts: 2,
                sched: SchedMode::deterministic(),
                parallel: workers.map(millipage::ParallelConfig::workers),
                ..ClusterConfig::default()
            },
            |_| (),
            |ctx, ()| {
                if ctx.host() == HostId(1) {
                    ctx.compute(1_000_000);
                }
                ctx.lock(7);
            },
        );
        let errors = &report.protocol_errors;
        assert_eq!(errors.len(), 1, "{workers:?} workers: {errors:?}");
        assert!(
            errors[0].starts_with("h1: lock grant deadlocked"),
            "{errors:?}"
        );
    }
}
