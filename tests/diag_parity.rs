//! Host/sim telemetry parity: the per-`(minipage, host)` fault and
//! invalidation counters the real-memory backend records from inside its
//! SIGSEGV handler must equal — exactly, not approximately — the ones the
//! simulator's stats table records for the same application at the same
//! geometry. Both backends record them through the same probe call per
//! protocol fact.
#![cfg(target_os = "linux")]

use millipage::{AdaptConfig, AllocMode, ClusterConfig, SchedMode};
use millipage_apps::close;
use millipage_apps::is::{self, IsParams};
use millipage_apps::sor::{self, SorParams};

/// Runs the checks shared by both apps: checksums agree, and the host and
/// sim stats tables are identical, non-empty maps.
fn assert_parity(name: &str, host: &millipage_apps::HostAppRun, sim: &millipage_apps::AppRun) {
    assert!(
        close(host.checksum, sim.checksum, 1e-9),
        "{name}: checksum host {} vs sim {}",
        host.checksum,
        sim.checksum
    );
    let hd = host.report.diag.as_ref().expect("host diagnostics");
    let sd = sim.report.diag.as_ref().expect("sim diagnostics");
    let sim_table = sd.counts();
    assert!(!sim_table.is_empty(), "{name}: empty sim counters");
    assert_eq!(
        hd.counts(),
        sim_table,
        "{name}: real-memory counters disagree with the sim's"
    );
}

/// SOR at 4 hosts: red/black relaxation with boundary-row exchange. The
/// sim config mirrors the host runner's geometry (views/pages 1 are maxed
/// up to the same formulas), so minipage ids align across backends.
#[test]
fn sor_host_counters_match_sim_exactly_at_four_hosts() {
    let p = SorParams::small();
    let host = sor::run_sor_host_with(4, p, true, AdaptConfig::default()).expect("host run");
    let sim = sor::run_sor(
        ClusterConfig {
            hosts: 4,
            views: 1,
            pages: 1,
            alloc_mode: AllocMode::FINE,
            diag: true,
            sched: SchedMode::deterministic(),
            ..ClusterConfig::default()
        },
        p,
    );
    assert_parity("SOR", &host, &sim);
}

/// IS at 4 hosts: the rotated key-merge ping-pongs region minipages
/// between hosts, so invalidation counts are exercised, not just faults.
#[test]
fn is_host_counters_match_sim_exactly_at_four_hosts() {
    let p = IsParams::small();
    let host = is::run_is_host(4, p, true).expect("host run");
    let sim = is::run_is(
        ClusterConfig {
            hosts: 4,
            views: 1,
            pages: 64,
            diag: true,
            sched: SchedMode::deterministic(),
            ..ClusterConfig::default()
        },
        p,
    );
    assert_parity("IS", &host, &sim);
}
