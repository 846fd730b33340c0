//! End-to-end tests of the real-memory (hostmv) backend: the same
//! protocol core the simulator runs, on real `mmap`ed pages behind a real
//! SIGSEGV handler, with the ported benchmarks checked against both the
//! sequential reference and the simulator's checksum.
#![cfg(target_os = "linux")]

use millipage::{AllocMode, ClusterConfig};
use millipage_apps::close;
use millipage_apps::is::{self, IsParams};
use millipage_apps::sor::{self, SorParams};

#[test]
fn sor_runs_on_real_memory_and_matches_the_simulator() {
    let p = SorParams::small();
    let host = sor::run_sor_host(2, p).expect("host run");
    // Same numerics as the sequential reference…
    assert!(
        close(host.checksum, sor::reference(p), 1e-6),
        "host {} vs reference {}",
        host.checksum,
        sor::reference(p)
    );
    // …and as the simulator backend.
    let sim = sor::run_sor(
        ClusterConfig {
            hosts: 2,
            views: 16,
            pages: 256,
            alloc_mode: AllocMode::FINE,
            ..ClusterConfig::default()
        },
        p,
    );
    assert!(
        close(host.checksum, sim.checksum, 1e-9),
        "host {} vs sim {}",
        host.checksum,
        sim.checksum
    );
    // Real faults were taken: the boundary-row exchange cannot happen
    // without SIGSEGVs on a two-host run.
    assert!(host.report.total_faults() > 0, "no real faults recorded");
}

#[test]
fn is_runs_on_real_memory_and_matches_the_simulator() {
    let p = IsParams::small();
    let host = is::run_is_host(4, p, false).expect("host run");
    assert!(
        close(host.checksum, is::reference(p, 4), 1e-9),
        "host {} vs reference {}",
        host.checksum,
        is::reference(p, 4)
    );
    let sim = is::run_is(
        ClusterConfig {
            hosts: 4,
            views: 8,
            pages: 64,
            ..ClusterConfig::default()
        },
        p,
    );
    assert!(
        close(host.checksum, sim.checksum, 1e-9),
        "host {} vs sim {}",
        host.checksum,
        sim.checksum
    );
    assert!(host.report.total_faults() > 0, "no real faults recorded");
    // The rotated merge invalidates region copies as they travel between
    // hosts — a multi-host IS run with zero invalidations means the write
    // path never revoked anything.
    assert!(
        host.report.invalidations.iter().sum::<u64>() > 0,
        "no invalidations on a 4-host IS run"
    );
}

/// The smallest coherence round-trip on real signals: two OS threads
/// ping-pong one u32 minipage. Host 0's store faults (SIGSEGV), the
/// manager invalidates host 1's copy via a real mprotect on its view,
/// and vice versa — every handoff is observable in the fault and
/// invalidation counters.
#[test]
fn two_hosts_round_trip_one_minipage_through_real_invalidations() {
    use millipage::Dsm;
    const ROUNDS: u32 = 8;
    let final_seen = std::sync::Mutex::new([0u32; 2]);
    let report = millipage::run_host(
        millipage::HostRunConfig {
            hosts: 2,
            views: 2,
            pages: 8,
            ..Default::default()
        },
        |s| s.alloc_vec_init(&[0u32]),
        |ctx, cell| {
            let me = ctx.host().index();
            for round in 0..ROUNDS {
                // Alternating writer: the other host's copy (if any) must
                // be revoked before the store may retire.
                if round as usize % 2 == me {
                    ctx.write_range(cell, 0, &[round + 1]);
                }
                ctx.barrier();
                // Both hosts read the round's value back.
                assert_eq!(ctx.read_range(cell, 0..1), vec![round + 1]);
                ctx.barrier();
            }
            final_seen.lock().unwrap()[me] = ctx.read_range(cell, 0..1)[0];
        },
    )
    .expect("host run");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(*final_seen.lock().unwrap(), [ROUNDS, ROUNDS]);
    // Each ownership handoff costs the new writer a real write fault and
    // the old holder a real invalidation. The allocation's home (host 0)
    // starts with the page ReadWrite, so its first store is fault-free.
    assert!(
        report.write_faults.iter().sum::<u64>() >= (ROUNDS - 1) as u64,
        "write faults {:?}",
        report.write_faults
    );
    let invs: u64 = report.invalidations.iter().sum();
    assert!(
        invs >= (ROUNDS - 1) as u64,
        "expected an invalidation per handoff, got {invs}"
    );
}

#[test]
fn single_host_run_faults_but_never_invalidates() {
    let p = SorParams::small();
    let host = sor::run_sor_host(1, p).expect("host run");
    assert!(close(host.checksum, sor::reference(p), 1e-6));
    assert_eq!(
        host.report.invalidations.iter().sum::<u64>(),
        0,
        "single host has nobody to invalidate"
    );
}

/// One `write_range` and one `read_range` over a vector of 3 pages + 8
/// bytes, so each is cut into four page-spans. The bytes survive the
/// cuts, and the faults are the simulator's for the same closure: one per
/// minipage, not one per page-span and not one per byte.
#[test]
fn a_multi_page_range_copies_in_spans_and_faults_like_the_simulator() {
    use millipage::{Dsm, SharedVec};
    use std::sync::Mutex;
    const LEN: usize = 3 * 4096 / 8 + 1;
    const FROM: usize = 5;

    fn app<D: Dsm>(ctx: &mut D, sv: &SharedVec<u64>, sum: &Mutex<u64>) {
        let vals: Vec<u64> = (FROM..LEN).map(|i| i as u64 * 0x9e37_79b9 + 1).collect();
        if ctx.host().index() == 1 {
            ctx.write_range(sv, FROM, &vals);
        }
        ctx.barrier();
        if ctx.host().index() == 0 {
            let got = ctx.read_range(sv, 0..LEN);
            assert_eq!(got[..FROM], [0; FROM], "elements below the write");
            assert_eq!(got[FROM..], vals[..], "elements written by host 1");
            *sum.lock().unwrap() = got.iter().fold(0, |a, &v| a.wrapping_add(v));
        }
        ctx.barrier();
    }

    let host_sum = Mutex::new(0);
    let host = millipage::run_host(
        millipage::HostRunConfig {
            hosts: 2,
            views: 2,
            pages: 16,
            ..Default::default()
        },
        |s| s.alloc_vec_init(&[0u64; LEN]),
        |ctx, sv| app(ctx, sv, &host_sum),
    )
    .expect("host run");
    assert!(host.errors.is_empty(), "{:?}", host.errors);

    let sim_sum = Mutex::new(0);
    let sim = millipage::run(
        ClusterConfig {
            hosts: 2,
            views: 2,
            pages: 16,
            alloc_mode: AllocMode::FINE,
            sched: millipage::SchedMode::deterministic(),
            ..ClusterConfig::default()
        },
        |s| s.alloc_vec_init(&[0u64; LEN]),
        |ctx, sv| app(ctx, sv, &sim_sum),
    );
    assert!(sim.protocol_errors.is_empty(), "{:?}", sim.protocol_errors);

    assert_eq!(*host_sum.lock().unwrap(), *sim_sum.lock().unwrap());
    let sim_faults =
        |f: fn(&millipage::HostReport) -> u64| -> Vec<u64> { sim.per_host.iter().map(f).collect() };
    assert_eq!(host.read_faults, sim_faults(|h| h.read_faults));
    assert_eq!(host.write_faults, sim_faults(|h| h.write_faults));
    // The vector is one minipage: host 1's store and host 0's load are the
    // only two misses there are.
    assert_eq!(
        (host.read_faults, host.write_faults),
        (vec![1, 0], vec![0, 1])
    );
}

/// `run_host` fails like `run`: host 0's application panics while host 1
/// waits in a barrier. The failure nacks host 1's completion word, host 1
/// unwinds with a typed error, the server shuts down, and host 0's panic
/// is what `run_host` re-raises — within seconds, not never. A watchdog
/// turns a hang into a failure.
#[test]
fn an_application_panic_is_re_raised_while_a_sibling_waits() {
    use millipage::{run_host, Dsm, HostDsmCtx, HostId, HostRunConfig};
    use std::time::Duration;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = || {
            let app = |ctx: &mut HostDsmCtx, _: &()| {
                if ctx.host() == HostId(0) {
                    panic!("host 0 gives up");
                }
                ctx.barrier();
            };
            run_host(HostRunConfig::default(), |_| (), app)
        };
        let outcome = std::panic::catch_unwind(run).err();
        let message = outcome.and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
        let _ = tx.send(message);
    });
    let reraised = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("run_host hung after an application panic");
    assert_eq!(reraised.as_deref(), Some("host 0 gives up"));
}
