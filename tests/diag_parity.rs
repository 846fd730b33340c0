//! Host/sim telemetry parity: the per-`(minipage, host)` fault and
//! invalidation counters the real-memory backend records from inside its
//! SIGSEGV handler must equal — exactly, not approximately — the counts
//! the simulator derives for the same application at the same geometry,
//! both from its own stats table and from a full event trace.
#![cfg(target_os = "linux")]

use millipage::{trace_counts, AdaptConfig, AllocMode, ClusterConfig, SchedMode, Tracer};
use millipage_apps::close;
use millipage_apps::is::{self, IsParams};
use millipage_apps::sor::{self, SorParams};

/// Large enough that these small workloads never drop an event — parity
/// against a truncated trace would be meaningless.
const RING: usize = 1 << 16;

/// Runs the checks shared by both apps: checksums agree, no trace drops,
/// and all three counter sources — host stats table, sim stats table,
/// sim trace — are identical maps.
fn assert_parity(
    name: &str,
    host: &millipage_apps::HostAppRun,
    sim: &millipage_apps::AppRun,
    tracer: &Tracer,
) {
    assert!(
        close(host.checksum, sim.checksum, 1e-9),
        "{name}: checksum host {} vs sim {}",
        host.checksum,
        sim.checksum
    );
    let log = tracer.drain();
    assert_eq!(log.dropped, 0, "{name}: sim trace dropped events");

    let hd = host.report.diag.as_ref().expect("host diagnostics");
    let sd = sim.report.diag.as_ref().expect("sim diagnostics");
    let host_table = hd.counts();
    let sim_table = sd.counts();
    let sim_trace = trace_counts(&log.events);
    assert!(!sim_trace.is_empty(), "{name}: empty trace-derived counts");
    assert_eq!(
        sim_table, sim_trace,
        "{name}: sim stats table disagrees with its own trace"
    );
    assert_eq!(
        host_table, sim_trace,
        "{name}: real-memory counters disagree with the sim trace"
    );
}

/// SOR at 4 hosts: red/black relaxation with boundary-row exchange. The
/// sim config mirrors the host runner's geometry (views/pages 1 are maxed
/// up to the same formulas), so minipage ids align across backends.
#[test]
fn sor_host_counters_match_sim_exactly_at_four_hosts() {
    let p = SorParams::small();
    let host = sor::run_sor_host_with(4, p, true, AdaptConfig::default()).expect("host run");
    let tracer = Tracer::enabled(RING);
    let sim = sor::run_sor(
        ClusterConfig {
            hosts: 4,
            views: 1,
            pages: 1,
            alloc_mode: AllocMode::FINE,
            diag: true,
            tracer: tracer.clone(),
            sched: SchedMode::deterministic(),
            ..ClusterConfig::default()
        },
        p,
    );
    assert_parity("SOR", &host, &sim, &tracer);
}

/// IS at 4 hosts: the rotated key-merge ping-pongs region minipages
/// between hosts, so invalidation counts are exercised, not just faults.
#[test]
fn is_host_counters_match_sim_exactly_at_four_hosts() {
    let p = IsParams::small();
    let host = is::run_is_host(4, p, true).expect("host run");
    let tracer = Tracer::enabled(RING);
    let sim = is::run_is(
        ClusterConfig {
            hosts: 4,
            views: 1,
            pages: 64,
            diag: true,
            tracer: tracer.clone(),
            sched: SchedMode::deterministic(),
            ..ClusterConfig::default()
        },
        p,
    );
    assert_parity("IS", &host, &sim, &tracer);
}
