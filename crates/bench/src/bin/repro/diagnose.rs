//! `repro diagnose` runs each application twice under the deterministic
//! scheduler — once with the tracer on, once stats-only (the production
//! configuration of the diagnostics plane) — and requires the detector
//! rankings of the two runs to agree. The stats table and the trace need
//! no cross-check: one probe call feeds both (`core::probe`). It prints
//! the ranked ping-pong / false-sharing / hot-home findings and the
//! per-link wire traffic, writes the vpage×host fault heatmap to
//! `diagnose-heatmap.csv` and per-host cumulative fault counter tracks to
//! `diagnose-trace.json` (Perfetto), and exits nonzero on any detector
//! divergence, audit violation or dropped trace ring. `--backend host`
//! instead runs SOR and IS on the real-memory backend (Linux) and
//! requires the per-minipage counters recorded by the SIGSEGV path to
//! match the simulator's stats table exactly.

use millipage::{
    json, AuditMode, ChromeTrace, ClusterConfig, Finding, Ns, SchedMode, TraceEvent, TraceKind,
};
use millipage_bench::apps::{app_cfg, select_specs};
use millipage_bench::cli::{traced_run, write_artifact, Backend, Flags, Gate, UsageError};
use millipage_bench::{header, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Output files of `repro diagnose` (see the module docs of `main.rs`).
const DIAG_HEATMAP_PATH: &str = "diagnose-heatmap.csv";
const DIAG_TRACE_PATH: &str = "diagnose-trace.json";

/// How many findings per detector the console table shows.
const DIAG_TOP_N: usize = 5;

/// `(minipage, host)` → `[read faults, write faults, invalidations]`.
type Counts = BTreeMap<(u32, u16), [u64; 3]>;

/// Per-host cumulative fault counts as Perfetto counter points, sampled
/// down to ~256 points per host (the final cumulative value always kept).
fn fault_counter_points(events: &[TraceEvent], host: u16) -> Vec<(Ns, u64)> {
    let mut vts: Vec<Ns> = events
        .iter()
        .filter(|e| {
            e.host == host
                && matches!(
                    e.kind,
                    TraceKind::ReadFaultBegin | TraceKind::WriteFaultBegin
                )
        })
        .map(|e| e.vt)
        .collect();
    vts.sort_unstable();
    let n = vts.len();
    let stride = (n / 256).max(1);
    vts.iter()
        .enumerate()
        .filter(|(j, _)| j % stride == 0 || j + 1 == n)
        .map(|(j, &vt)| (vt, j as u64 + 1))
        .collect()
}

/// Fails the gate, listing the first differing lanes, unless the two
/// counter maps agree exactly.
fn counts_match(gate: &mut Gate, what: &str, lhs: &Counts, rhs: &Counts) {
    if lhs == rhs {
        return;
    }
    let keys: BTreeSet<_> = lhs.keys().chain(rhs.keys()).collect();
    let mut msg = format!("  COUNTER MISMATCH {what}");
    for &&k in keys.iter().filter(|k| lhs.get(k) != rhs.get(k)).take(5) {
        let (l, r) = (lhs.get(&k), rhs.get(&k));
        let _ = write!(msg, "\n    mp{} h{}: {l:?} vs {r:?}", k.0, k.1);
    }
    gate.fail(msg);
}

/// Sum of a `[reads, writes, invalidations]` lane selection over `counts`.
fn total(counts: &Counts, lanes: &[usize]) -> u64 {
    counts
        .values()
        .map(|c| lanes.iter().map(|&l| c[l]).sum::<u64>())
        .sum()
}

pub fn diagnose(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = f.switch("--quick");
    let backend = f.value("--backend")?.unwrap_or(Backend::Sim);
    let json_path: Option<String> = f.value("--json")?;
    let scenario = f.positional().unwrap_or_else(|| "table2".into());
    f.finish()?;
    let specs = select_specs(quick, Some(&scenario))?;
    match backend {
        Backend::Sim => {}
        #[cfg(target_os = "linux")]
        Backend::Host => {
            diagnose_host(quick, gate);
            return Ok(());
        }
    }
    header(&format!(
        "Diagnose — per-minipage sharing stats + detectors ({scenario}, 4 hosts, deterministic)"
    ));
    let mut chrome = ChromeTrace::with_os_names();
    let mut heatmap = String::from("app,mp,vpage,host,read_faults,write_faults\n");
    let mut diags = Vec::new();
    let mut table = Table::default();
    let mut findings_out = String::new();
    for (i, spec) in specs.iter().enumerate() {
        // Deterministic schedule, so the stats-only run below replays the
        // execution the traced run recorded.
        let cfg = || ClusterConfig {
            diag: true,
            sched: SchedMode::deterministic(),
            ..app_cfg(4)
        };
        let (traced, log, violations) = traced_run(cfg(), AuditMode::SwMr, &spec.run);
        // Stats-only: tracer off — the production configuration of the
        // diagnostics plane.
        let stats = (spec.run)(cfg());
        gate.audit(spec.name, &log, &violations);
        gate.check(traced.report.trace_dropped.is_empty(), || {
            format!("  {}: the report counts dropped trace events", spec.name)
        });
        let (Some(diag), Some(diag2)) = (traced.report.diag.as_ref(), stats.report.diag.as_ref())
        else {
            gate.fail(format!("  {}: run produced no diagnostics", spec.name));
            continue;
        };
        // Detector output must not depend on whether the tracer ran
        // alongside the stats table.
        gate.check(
            diag.findings_fingerprint() == diag2.findings_fingerprint(),
            || {
                format!(
                    "  {}: DETECTOR MISMATCH between traced and stats-only runs",
                    spec.name
                )
            },
        );
        table.row([
            ("app", &spec.name),
            ("active mp", &diag.minipages.len()),
            ("faults", &total(&diag.counts(), &[0, 1])),
            ("inv recv", &total(&diag.counts(), &[2])),
            ("ping-pong", &diag.ping_pong.len()),
            ("false-sharing", &diag.false_sharing.len()),
            ("hot-home", &diag.hot_home.len()),
            ("dropped", &log.dropped),
        ]);
        let mut push = |title: &str, fs: &[Finding]| {
            for finding in fs.iter().take(DIAG_TOP_N) {
                let _ = writeln!(
                    findings_out,
                    "  {} [{title}] mp{} h{} score={}: {}",
                    spec.name, finding.mp, finding.host, finding.score, finding.evidence
                );
            }
            if fs.len() > DIAG_TOP_N {
                let _ = writeln!(
                    findings_out,
                    "  {} [{title}] ... and {} more",
                    spec.name,
                    fs.len() - DIAG_TOP_N
                );
            }
        };
        push("ping-pong", &diag.ping_pong);
        push("false-sharing", &diag.false_sharing);
        push("hot-home", &diag.hot_home);
        let wire: u64 = diag.links.iter().map(|l| l.bytes).sum();
        if let Some(l) = diag.links.iter().max_by_key(|l| l.bytes) {
            let _ = writeln!(
                findings_out,
                "  {} [wire] {} links, {wire} payload bytes; busiest h{}->h{} \
                 ({} msgs, {} bytes)",
                spec.name,
                diag.links.len(),
                l.from,
                l.to,
                l.messages,
                l.bytes
            );
        }
        diag.heatmap_csv(spec.name, &mut heatmap);
        // One Chrome "process" block of 64 pids per app, as `repro trace`
        // lays runs out, plus one cumulative-fault counter track per host.
        chrome.add_run(spec.name, (i as u32) * 64, &log.events);
        for h in 0..4u16 {
            let points = fault_counter_points(&log.events, h);
            if !points.is_empty() {
                chrome.add_counter(
                    &format!("{} h{h} faults", spec.name),
                    (i as u32) * 64 + h as u32,
                    &points,
                );
            }
        }
        diags.push((spec.name, diag.clone()));
    }
    table.print();
    print!("{findings_out}");
    write_artifact(
        gate,
        DIAG_HEATMAP_PATH,
        &heatmap,
        format_args!("wrote vpage x host fault heatmap to {DIAG_HEATMAP_PATH}"),
    );
    write_artifact(
        gate,
        DIAG_TRACE_PATH,
        chrome.finish(),
        format_args!("wrote Perfetto trace + counter tracks to {DIAG_TRACE_PATH}"),
    );
    if let Some(p) = &json_path {
        write_artifact(
            gate,
            p,
            json::document(|w| {
                w.array(|w| {
                    for (app, diag) in &diags {
                        w.object(|w| _ = w.field("app", app).field("diag", diag));
                    }
                });
            }),
            format_args!("wrote per-app diagnostics JSON to {p}"),
        );
    }
    gate.pass(format_args!(
        "diagnose passed: detectors agree between traced and stats-only runs \
         across {} app(s)",
        specs.len()
    ));
    Ok(())
}

/// `repro diagnose --backend host`: SOR and IS on the real-memory backend
/// with the diagnostics table recorded on the SIGSEGV path, cross-checked
/// per minipage against the simulator's stats table. The two
/// backends share the protocol core and the barrier-phased apps make the
/// fault pattern structural, so the counters must match *exactly*.
#[cfg(target_os = "linux")]
fn diagnose_host(quick: bool, gate: &mut Gate) {
    use crate::backends::{checksums_match, host_run};
    let hosts = 4usize;
    header(&format!(
        "Diagnose (host backend) — per-minipage counter parity vs sim ({hosts} hosts)"
    ));
    for app in &millipage_bench::apps::cmp_apps(quick) {
        let Some(h) = host_run(gate, app, hosts, true) else {
            continue;
        };
        let cfg = ClusterConfig {
            diag: true,
            sched: SchedMode::deterministic(),
            ..app.sim_cfg(hosts, true)
        };
        let (sim, log, violations) = traced_run(cfg, AuditMode::SwMr, &app.sim);
        let before = gate.failures().len();
        gate.audit(app.name, &log, &violations);
        checksums_match(gate, app.name, &sim, &h);
        let (Some(hd), Some(sd)) = (h.report.diag.as_ref(), sim.report.diag.as_ref()) else {
            gate.fail(format!("{}: a backend produced no diagnostics", app.name));
            continue;
        };
        let host_counts = hd.counts();
        let label = format!("{}: host table vs sim table", app.name);
        counts_match(gate, &label, &host_counts, &sd.counts());
        if gate.failures().len() == before {
            println!(
                "{}: {} active minipages, {} real faults, {} invalidations \
                 received — per-minipage counters match the sim exactly",
                app.name,
                hd.minipages.len(),
                total(&host_counts, &[0, 1]),
                total(&host_counts, &[2]),
            );
        }
    }
    gate.pass(format_args!(
        "host/sim per-minipage counters and checksums match on SOR and IS"
    ));
}
