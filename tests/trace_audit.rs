//! End-to-end protocol tracing: a 4-host workload runs with the tracer
//! on, and the recorded event stream must (a) be complete (no ring
//! overwrites), (b) replay cleanly through the invariant auditor under
//! every home policy and both consistency modes — with the wire perfect
//! *and* under the acceptance fault mix (1% drop + 0.5% dup + 2%
//! reorder) — and (c) export to well-formed Chrome-trace/Perfetto JSON.

use millipage::json::{self, Value};
use millipage::{
    audit, run, AllocMode, AuditMode, ChromeTrace, ClusterConfig, Consistency, HomePolicyKind,
    HostId, RunReport, TraceLog, Tracer, WireFaults,
};

/// A workload touching every traced protocol path: barrier-separated
/// writer rotation (read/write faults, invalidation fan-out), a
/// lock-protected counter (lock grant/release), and a final prefetch +
/// push round (bulk transfers).
fn traced_workload(
    policy: HomePolicyKind,
    consistency: Consistency,
    faults: WireFaults,
) -> (RunReport, TraceLog) {
    let tracer = Tracer::enabled(1 << 14);
    let cfg = ClusterConfig {
        hosts: 4,
        views: 8,
        pages: 64,
        alloc_mode: AllocMode::FINE,
        consistency,
        home_policy: policy,
        tracer: tracer.clone(),
        seed: 13,
        faults,
        ..ClusterConfig::default()
    };
    let report = run(
        cfg,
        |s| {
            let cells = (0..8)
                .map(|_| s.alloc_vec_init(&[0u64; 2]))
                .collect::<Vec<_>>();
            let counter = s.alloc_cell_init::<u64>(0);
            (cells, counter)
        },
        |ctx, (cells, counter)| {
            for phase in 0..3u64 {
                if ctx.host() == HostId((phase as usize % ctx.hosts()) as u16) {
                    for (i, c) in cells.iter().enumerate() {
                        let v = ctx.get(c, 0);
                        ctx.set(c, 0, v + phase + i as u64);
                    }
                }
                ctx.barrier();
            }
            ctx.lock(1);
            let v = ctx.cell_get(counter);
            ctx.cell_set(counter, v + 1);
            ctx.unlock(1);
            ctx.barrier();
            ctx.prefetch_vec(&cells[0]);
            let _ = ctx.get(&cells[0], 1);
            ctx.barrier();
        },
    );
    (report, tracer.drain())
}

const POLICIES: [HomePolicyKind; 3] = [
    HomePolicyKind::Centralized,
    HomePolicyKind::Interleaved,
    HomePolicyKind::FirstTouch,
];

/// The acceptance fault mix: 1% drop, 0.5% duplicate, 2% reorder.
fn lossy_plane() -> WireFaults {
    WireFaults::lossy(13, 0.01, 0.005, 0.02)
}

/// Runs the workload and holds its trace to the full invariant set; with
/// the fault plane active additionally requires that no send exhausted
/// its retransmit budget and no protocol error surfaced — the reliable
/// channel hid every injected fault from the DSM protocol.
fn assert_audits_clean(policy: HomePolicyKind, consistency: Consistency, faults: WireFaults) {
    let fault_run = faults.is_active();
    let (report, log) = traced_workload(policy, consistency, faults);
    assert!(
        report.coherence_violations.is_empty(),
        "{policy:?}/{consistency:?}: {:?}",
        report.coherence_violations
    );
    assert!(
        report.protocol_errors.is_empty(),
        "{policy:?}/{consistency:?}: {:?}",
        report.protocol_errors
    );
    assert_eq!(log.dropped, 0, "{policy:?}: ring overflow");
    assert!(!log.events.is_empty(), "{policy:?}: empty trace");
    let mode = match consistency {
        Consistency::SequentialSwMr => AuditMode::SwMr,
        Consistency::HomeEagerRc => AuditMode::Hlrc,
    };
    let violations = audit(&log.events, mode);
    assert!(
        violations.is_empty(),
        "{policy:?}/{consistency:?}: {} violations, first: {:?}",
        violations.len(),
        violations.first()
    );
    if fault_run {
        let nf = report.net_faults.expect("fault plane was active");
        assert_eq!(nf.expired, 0, "{policy:?}: a send exhausted its budget");
    } else {
        assert!(
            report.net_faults.is_none(),
            "inactive plane must report no fault stats"
        );
    }
}

/// The tentpole acceptance check: under all three home policies the
/// 4-host SW/MR trace is complete and replays with zero violations.
#[test]
fn swmr_trace_audits_clean_under_every_home_policy() {
    for policy in POLICIES {
        assert_audits_clean(policy, Consistency::SequentialSwMr, WireFaults::disabled());
    }
}

/// The HLRC protocol's traces replay cleanly too (diff acks before
/// barrier release, no negative invalidation counters).
#[test]
fn hlrc_trace_audits_clean_under_every_home_policy() {
    for policy in POLICIES {
        assert_audits_clean(policy, Consistency::HomeEagerRc, WireFaults::disabled());
    }
}

/// At 1% loss the reliable channel must make the wire look perfect: the
/// SW/MR replay — including the exactly-once FIFO delivery check on the
/// wire sequence numbers — finds nothing, for every home policy.
#[test]
fn swmr_trace_audits_clean_at_one_percent_loss() {
    for policy in POLICIES {
        assert_audits_clean(policy, Consistency::SequentialSwMr, lossy_plane());
    }
}

/// Same bar for HLRC: release diffs, their acks and the barrier protocol
/// survive drops, duplicates and reordering without a visible trace.
#[test]
fn hlrc_trace_audits_clean_at_one_percent_loss() {
    for policy in POLICIES {
        assert_audits_clean(policy, Consistency::HomeEagerRc, lossy_plane());
    }
}

/// Traced runs feed the latency histograms: the fault-latency quantiles
/// are available and ordered, every fault lands in the histogram, and
/// the server-queueing histogram stays consistent with its count.
#[test]
fn traced_run_populates_histograms() {
    let (traced, log) = traced_workload(
        HomePolicyKind::Centralized,
        Consistency::SequentialSwMr,
        WireFaults::disabled(),
    );
    let p50 = traced.fault_latency_p50().expect("faults were recorded");
    let p95 = traced.fault_latency_p95().expect("faults were recorded");
    let p99 = traced.fault_latency_p99().expect("faults were recorded");
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    assert_eq!(
        traced.fault_latency.count(),
        traced.read_faults + traced.write_faults
    );
    assert!(log.events.len() > 100, "suspiciously small trace");
    // Every message the servers received was queued for some time ≥ 0.
    assert!(traced.server_queue_delay.count() > 0);
    if let (Some(lo), Some(hi)) = (
        traced.server_queue_delay.quantile(0.0),
        traced.server_queue_delay.quantile(1.0),
    ) {
        assert!(lo <= hi);
    }
}

/// The Chrome-trace exporter and the report dump emit documents the
/// workspace's JSON reader accepts, with the expected members.
#[test]
fn chrome_trace_export_is_well_formed_json() {
    let (_, log) = traced_workload(
        HomePolicyKind::Interleaved,
        Consistency::SequentialSwMr,
        WireFaults::disabled(),
    );
    let mut ct = ChromeTrace::new();
    ct.add_run("audit-test", 0, &log.events);
    let trace = json::parse(ct.finish().as_bytes()).expect("valid trace JSON");
    let events = trace.get("traceEvents").and_then(Value::as_array);
    assert!(events.is_some_and(|e| e.len() > log.events.len() / 2));
    assert_eq!(
        events
            .and_then(|e| e[0].get("name"))
            .and_then(Value::as_str),
        Some("process_name")
    );
    assert_eq!(
        trace.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );

    let (report, _) = traced_workload(
        HomePolicyKind::Centralized,
        Consistency::SequentialSwMr,
        WireFaults::disabled(),
    );
    let rj = json::parse(report.to_json().as_bytes()).expect("valid report JSON");
    let p99 = rj.get("fault_latency").and_then(|h| h.get("p99_ns"));
    assert_eq!(p99.and_then(Value::as_u64), report.fault_latency_p99());
}
