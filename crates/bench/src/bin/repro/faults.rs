//! `repro faults` sweeps packet-loss rates (0 / 0.1% / 1% / 5%; `--quick`
//! keeps 0 and 1%) across the Table 2 applications and all three home
//! policies with the seeded fault plane active (duplicates at half the
//! drop rate, reorders at twice it). Every run is traced and audited —
//! SW/MR invariants *plus* exactly-once FIFO delivery — and the table
//! reports retransmissions, suppressed duplicates, repaired reorders and
//! the added fault latency. Exits nonzero on any audit violation, any
//! exhausted retransmit budget, or any surfaced protocol error. The 1%
//! Centralized runs are exported as a Perfetto trace (`--out`, default
//! `faults-trace.json`).

use millipage::{AuditMode, ChromeTrace, ClusterConfig, FaultPlane, HomePolicyKind, NetFaultStats};
use millipage_bench::apps::{app_cfg, select_specs};
use millipage_bench::cli::{traced_run, write_artifact, Flags, Gate, UsageError};
use millipage_bench::{header, us, Table};

/// Drop probabilities swept by `repro faults`. Duplicates run at half the
/// drop rate and reorders at twice it, so the 1% point exercises the
/// acceptance mix (1% drop + 0.5% dup + 2% reorder).
const LOSS_SWEEP_FULL: &[f64] = &[0.0, 0.001, 0.01, 0.05];
const LOSS_SWEEP_QUICK: &[f64] = &[0.0, 0.01];

pub fn faults(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = f.switch("--quick");
    let seed: u64 = f.value("--seed")?.unwrap_or(7);
    let out_path: String = f
        .value("--out")?
        .unwrap_or_else(|| "faults-trace.json".into());
    let scenario = f.positional().unwrap_or_else(|| "table2".into());
    f.finish()?;
    let specs = select_specs(quick, Some(&scenario))?;
    header(&format!(
        "Faults — loss sweep under the reliable channel ({scenario}, 4 hosts, seed {seed})"
    ));
    let losses = if quick {
        LOSS_SWEEP_QUICK
    } else {
        LOSS_SWEEP_FULL
    };
    let mut chrome = ChromeTrace::new();
    let mut chrome_runs = 0u32;
    let mut table = Table::default();
    let mut runs = 0usize;
    for spec in &specs {
        for policy in [
            HomePolicyKind::Centralized,
            HomePolicyKind::Interleaved,
            HomePolicyKind::FirstTouch,
        ] {
            for &loss in losses {
                let what = format!("{} {policy:?} {loss}", spec.name);
                let cfg = ClusterConfig {
                    home_policy: policy,
                    faults: FaultPlane::lossy(seed, loss, loss / 2.0, loss * 2.0),
                    ..app_cfg(4)
                };
                // SW/MR invariants plus the transport's exactly-once FIFO
                // check (the Table 2 apps run under SC).
                let (r, log, violations) = traced_run(cfg, AuditMode::SwMr, &spec.run);
                gate.audit(&what, &log, &violations);
                gate.clean(&r.report, &what);
                let nf = r.report.net_faults.as_ref();
                let expired = nf.map_or(0, |n| n.expired);
                gate.check(expired == 0, || {
                    format!("  {what}: {expired} unacked retransmit(s) (budget exhausted)")
                });
                let stat =
                    |get: fn(&NetFaultStats) -> u64| nf.map_or("-".into(), |n| get(n).to_string());
                let delay_p95 = nf.and_then(|n| n.delay.quantile(0.95)).map(us);
                runs += 1;
                table.row([
                    ("app", &spec.name),
                    ("policy", &format!("{policy:?}")),
                    ("drop %", &format!("{:.1}", loss * 100.0)),
                    ("drops", &stat(|n| n.drops)),
                    ("retx", &stat(|n| n.retransmits)),
                    ("dup-sup", &stat(|n| n.dups_suppressed)),
                    ("reorder", &stat(|n| n.reorders)),
                    ("expired", &stat(|n| n.expired)),
                    ("fault-delay p95", &delay_p95.unwrap_or_else(|| "-".into())),
                    ("errors", &r.report.protocol_errors.len()),
                    ("violations", &violations.len()),
                ]);
                // Export the acceptance-mix runs (1% loss, Centralized)
                // so the retransmit/timeout events are inspectable in
                // Perfetto next to the protocol events they delayed.
                if policy == HomePolicyKind::Centralized && loss == 0.01 {
                    chrome.add_run(&format!("{} @1%", spec.name), chrome_runs * 64, &log.events);
                    chrome_runs += 1;
                }
            }
        }
    }
    table.print();
    write_artifact(
        gate,
        &out_path,
        chrome.finish(),
        format_args!("wrote Chrome/Perfetto trace of the 1% Centralized runs to {out_path}"),
    );
    gate.pass(format_args!(
        "faults sweep passed: 0 violations, 0 unacked retransmits, 0 protocol \
         errors across {runs} run(s)"
    ));
    Ok(())
}
