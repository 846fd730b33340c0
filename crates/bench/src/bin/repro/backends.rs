//! Backend comparison: `repro sor|is --backend {sim,host}` and
//! `repro table2 --backend host`. With `--backend host` the sim run
//! happens too, so real SIGSEGV fault counts print next to simulated ones
//! and the checksums are cross-checked.

use millipage_apps::AppRun;
use millipage_bench::apps::{cmp_apps, CmpApp};
use millipage_bench::cli::{Backend, Flags, Gate, UsageError};
use millipage_bench::{header, Table};

pub fn sor(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    app_backend(0, f, gate)
}

pub fn is(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    app_backend(1, f, gate)
}

/// One application (`which` indexes [`cmp_apps`]) on one or both backends.
fn app_backend(which: usize, f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = f.switch("--quick");
    let hosts = f.hosts(4)?;
    let backend = f.value("--backend")?.unwrap_or(Backend::Sim);
    f.finish()?;
    let app = &cmp_apps(quick)[which];
    let hosts = hosts.min(app.max_hosts);
    header(&format!(
        "{} — {backend} backend, {hosts} hosts, {}",
        app.name, app.detail
    ));
    let sim = (app.sim)(app.sim_cfg(hosts, false));
    gate.clean(&sim.report, app.name);
    let mut table = Table::default();
    let mut backend_row = |name: &str, checksum: f64, [r, w, inv]: [u64; 3], time: String| {
        table.row([
            ("backend", &name),
            ("checksum", &format!("{checksum:.6}")),
            ("read flt", &r),
            ("write flt", &w),
            ("invalidations", &inv),
            ("time ms", &time),
        ]);
    };
    let rep = &sim.report;
    backend_row(
        "sim",
        sim.checksum,
        [rep.read_faults, rep.write_faults, rep.invalidations],
        format!("{:.2} (virtual)", rep.virtual_time as f64 / 1e6),
    );
    match backend {
        Backend::Sim => table.print(),
        #[cfg(target_os = "linux")]
        Backend::Host => {
            let Some(h) = host_run(gate, app, hosts, false) else {
                return Ok(());
            };
            let rep = &h.report;
            backend_row(
                "host",
                h.checksum,
                [&rep.read_faults, &rep.write_faults, &rep.invalidations].map(|c| c.iter().sum()),
                format!("{:.2} (wall)", rep.wall.as_secs_f64() * 1e3),
            );
            table.print();
            println!("per-host real faults (SIGSEGV):");
            for (i, (r, w)) in rep.read_faults.iter().zip(&rep.write_faults).enumerate() {
                println!(
                    "  host {i}: {r} read, {w} write, {} invalidations",
                    rep.invalidations[i]
                );
            }
            if checksums_match(gate, app.name, &sim, &h) {
                println!(
                    "checksums match: sim {} == host {} (tol {CHECKSUM_TOL})",
                    sim.checksum, h.checksum
                );
            }
        }
    }
    Ok(())
}

/// Sim and host run the same arithmetic in the same order.
#[cfg(target_os = "linux")]
const CHECKSUM_TOL: f64 = 1e-9;

/// Runs `app` on real memory; a failed run fails the gate.
#[cfg(target_os = "linux")]
pub fn host_run(
    gate: &mut Gate,
    app: &CmpApp,
    hosts: usize,
    diag: bool,
) -> Option<millipage_apps::HostAppRun> {
    gate.ok(
        &format!("{} host run failed", app.name),
        (app.host)(hosts, diag),
    )
}

/// The cross-backend check every host subcommand makes.
#[cfg(target_os = "linux")]
pub fn checksums_match(
    gate: &mut Gate,
    name: &str,
    sim: &AppRun,
    host: &millipage_apps::HostAppRun,
) -> bool {
    gate.check(
        millipage_apps::close(sim.checksum, host.checksum, CHECKSUM_TOL),
        || {
            format!(
                "{name}: CHECKSUM MISMATCH sim {} vs host {} (tol {CHECKSUM_TOL})",
                sim.checksum, host.checksum
            )
        },
    )
}

/// Table 2's host-capable subset (SOR and IS) on the real-memory backend:
/// both backends' checksums side by side with real SIGSEGV fault counts
/// next to the simulated ones.
#[cfg(target_os = "linux")]
pub fn table2_host(quick: bool, gate: &mut Gate) {
    let hosts = 4usize;
    header(&format!(
        "Table 2 (host backend) — SOR and IS on real memory ({hosts} hosts)"
    ));
    let mut table = Table::default();
    for app in &cmp_apps(quick) {
        let sim = (app.sim)(app.sim_cfg(hosts, false));
        gate.clean(&sim.report, app.name);
        let Some(h) = host_run(gate, app, hosts, false) else {
            continue;
        };
        checksums_match(gate, app.name, &sim, &h);
        let (sr, hr) = (&sim.report, &h.report);
        let host_faults = [&hr.read_faults, &hr.write_faults].map(|c| c.iter().sum::<u64>());
        table.row([
            ("app", &app.name),
            ("input set", &app.input),
            ("sim checksum", &format!("{:.6}", sim.checksum)),
            ("host checksum", &format!("{:.6}", h.checksum)),
            (
                "sim R/W flt",
                &format!("{}/{}", sr.read_faults, sr.write_faults),
            ),
            (
                "host R/W flt",
                &format!("{}/{}", host_faults[0], host_faults[1]),
            ),
            (
                "host wall ms",
                &format!("{:.2}", hr.wall.as_secs_f64() * 1e3),
            ),
        ]);
    }
    table.print();
    println!("WATER/LU/TSP need locks and prefetch — sim backend only.");
    gate.pass(format_args!(
        "host checksums match the simulator on both apps"
    ));
}
