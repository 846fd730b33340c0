//! `repro trace` runs the Table 2 applications (or one of them:
//! `sor`/`is`/`water`/`lu`/`tsp`) at 4 hosts with the protocol tracer on,
//! replays every trace through the SW/MR invariant auditor, and writes a
//! combined Chrome-trace/Perfetto JSON (`--out`, default `trace.json`) —
//! load it at <https://ui.perfetto.dev>. `--json <path>` additionally
//! dumps the per-app `RunReport`s (histograms included) as JSON. Exits
//! nonzero on any audit violation or any dropped trace ring (a full ring
//! means the analysis ran on an incomplete event stream).

use millipage::{json, AuditMode, ChromeTrace, Ns};
use millipage_bench::apps::{app_cfg, select_specs};
use millipage_bench::cli::{traced_run, write_artifact, Flags, Gate, UsageError};
use millipage_bench::{header, us, Table};

pub fn trace(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = f.switch("--quick");
    let out_path: String = f.value("--out")?.unwrap_or_else(|| "trace.json".into());
    let json_path: Option<String> = f.value("--json")?;
    let scenario = f.positional().unwrap_or_else(|| "table2".into());
    f.finish()?;
    let specs = select_specs(quick, Some(&scenario))?;
    header(&format!(
        "Trace — protocol events, latency histograms, invariant audit ({scenario}, 4 hosts)"
    ));
    let mut chrome = ChromeTrace::new();
    let mut reports = Vec::new();
    let mut table = Table::default();
    let q = |v: Option<Ns>| v.map(us).unwrap_or_else(|| "-".into());
    for (i, spec) in specs.iter().enumerate() {
        // The Table 2 apps run under sequential consistency, so the
        // replay checks the Single-Writer/Multiple-Readers invariants.
        let (r, log, violations) = traced_run(app_cfg(4), AuditMode::SwMr, &spec.run);
        gate.audit(spec.name, &log, &violations);
        table.row([
            ("app", &spec.name),
            ("events", &log.events.len()),
            ("dropped", &log.dropped),
            ("violations", &violations.len()),
            ("fault p50", &q(r.report.fault_latency_p50())),
            ("fault p95", &q(r.report.fault_latency_p95())),
            ("fault p99", &q(r.report.fault_latency_p99())),
            ("queue p95", &q(r.report.server_queue_delay.quantile(0.95))),
            ("inv-rt p95", &q(r.report.inv_round_trip.quantile(0.95))),
        ]);
        // One Chrome "process" block of 64 pids per app keeps the runs
        // visually separate in the Perfetto UI.
        chrome.add_run(spec.name, (i as u32) * 64, &log.events);
        reports.push((spec.name, r.report.to_json()));
    }
    table.print();
    write_artifact(
        gate,
        &out_path,
        chrome.finish(),
        format_args!("wrote Chrome/Perfetto trace to {out_path} (open at ui.perfetto.dev)"),
    );
    if let Some(p) = &json_path {
        write_artifact(
            gate,
            p,
            // Each report is its whole `to_json` document, so its
            // trailing newline stays inside the app's object.
            json::document(|w| {
                w.array(|w| {
                    for (app, report) in &reports {
                        w.object(|w| _ = w.field("app", app).key("report").raw(report));
                    }
                });
            }),
            format_args!("wrote per-app RunReport JSON to {p}"),
        );
    }
    gate.pass(format_args!(
        "audit passed: 0 invariant violations, 0 dropped events across {} app(s)",
        specs.len()
    ));
    Ok(())
}
