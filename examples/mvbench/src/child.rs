//! One workload in one process: set-up, then either the timed
//! repetitions (tracing off) or the traced run with the layer drivers.
//! The parent re-executes the benchmark into this for every measurement,
//! so each starts cold, owns its peak RSS, and gets a fresh fault-handler
//! registry (hostmv's 64 permanent slots bound a process at 32 two-host
//! runs).

use crate::calib;
use crate::json::Value;
use crate::layers;
use crate::metrics::{median, quantile, Values};
use crate::spans::Spans;
use crate::sys;
use crate::workloads::{Exact, Rep, Spec};
use millipage::{audit, AuditMode, Category, Consistency, TraceEvent, TraceKind, Tracer};
use std::collections::HashMap;
use std::time::Instant;

/// Fewest timed repetitions, however long one takes (`--quick`: one).
const MIN_REPS: usize = 3;
/// Most repetitions one process may run on the real-memory backend:
/// (warm-up + repetitions) x 2 hosts must fit the 64-slot registry.
const MAX_HOST_REPS: usize = 30;
/// Per-thread trace ring capacity; WATER's busiest thread records well
/// under a tenth of this, so nothing is dropped.
const TRACE_CAPACITY: usize = 1 << 22;

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Set-up only: one more `setup_s` sample for the parent's median.
    SetupOnly,
    /// Tracing off: repetitions back to back for `seconds`.
    Timed,
    /// The traced run: per-layer metrics of this workload, then the layer
    /// drivers.
    Traced,
}

struct Child<'a> {
    spec: &'a Spec,
    reference: f64,
    warmup: Exact,
    spans: Spans,
    attempted: usize,
    failures: Vec<String>,
}

impl Child<'_> {
    /// One repetition, counted and checked: its own problems, plus any
    /// difference from the warm-up's counts and virtual time (the
    /// deterministic scheduler promises none).
    fn rep(&mut self, label: &str, tracer: Tracer) -> Rep {
        let (spec, reference) = (self.spec, self.reference);
        let rep = self.spans.time(label, || spec.run(reference, tracer));
        self.attempted += 1;
        let mut problems = rep.problems.clone();
        if problems.is_empty() && label != "warmup" && rep.exact != self.warmup {
            problems.push(format!(
                "not deterministic: {:?} vs warm-up {:?}",
                rep.exact, self.warmup
            ));
        }
        if !problems.is_empty() {
            self.failures
                .push(format!("{label}: {}", problems.join("; ")));
        }
        rep
    }
}

/// Runs the child and returns the JSON it reports to its parent.
/// `started` is when the process began; `quick` takes K = 1 and a
/// sixteenth of the layer drivers' work.
pub fn run(spec: &Spec, mode: Mode, seconds: f64, quick: bool, started: Instant) -> Value {
    let t = Instant::now();
    let before = calib::calibrate();
    let calibrating_s = t.elapsed().as_secs_f64();
    let mut spans = Spans::new(mode == Mode::Traced);
    let t = Instant::now();
    let reference = spans.time("reference", || spec.reference());
    let ref_s = t.elapsed().as_secs_f64();
    let mut c = Child {
        spec,
        reference,
        warmup: Exact::default(),
        spans,
        attempted: 0,
        failures: Vec::new(),
    };
    c.warmup = c.rep("warmup", Tracer::disabled()).exact;
    let setup_raw_s = started.elapsed().as_secs_f64() - calibrating_s;
    // Closes the set-up's bracket and opens the first repetition's.
    let mut bracket = calib::calibrate();

    let mut out = Value::obj()
        .with(
            "setup_s",
            calib::at_reference_speed(setup_raw_s, before, bracket),
        )
        .with("setup_raw_s", setup_raw_s);
    match mode {
        Mode::SetupOnly => {}
        Mode::Timed => {
            let min_reps = if quick { 1 } else { MIN_REPS };
            let max_reps = if spec.is_host() {
                MAX_HOST_REPS
            } else {
                usize::MAX
            };
            let t = Instant::now();
            let (mut walls, mut raw) = (Vec::new(), Vec::new());
            while walls.len() < min_reps
                || (t.elapsed().as_secs_f64() < seconds && walls.len() < max_reps)
            {
                let label = format!("rep.{}", walls.len());
                let wall_s = c.rep(&label, Tracer::disabled()).wall_s;
                let after = calib::calibrate();
                walls.push(calib::at_reference_speed(wall_s, bracket, after));
                raw.push(wall_s);
                bracket = after;
                if walls.len() == min_reps {
                    // Read here, not at exit: K follows the machine's
                    // speed, and the real-memory backend keeps every run's
                    // regions mapped, so its peak grows with K.
                    out.set("peak_rss_mb", sys::usage().peak_rss_mb);
                }
            }
            out.set("wall_s", walls);
            out.set("wall_raw_s", raw);
        }
        Mode::Traced => {
            let mut values = Values::new();
            values.insert("apps.ref_s", ref_s);
            traced_run(&mut c, &mut values, seconds);
            layers::run_all(&mut values, &mut c.spans, quick);
            let values = values.into_iter().map(|(k, v)| (k.to_string(), v.into()));
            out.set("values", Value::Obj(values.collect()));
            out.set("spans", c.spans.to_json());
        }
    }
    out.set("attempted", c.attempted);
    out.set("failures", c.failures);
    out
}

/// Untraced and traced repetitions in alternation for 0.4 x `seconds`
/// (one pair at least), then every per-workload layer metric from them.
fn traced_run(c: &mut Child, v: &mut Values, seconds: f64) {
    let spec = c.spec;
    let t = Instant::now();
    let mut used = sys::Usage::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut plain, mut log) = (None, None);
    while plain_walls.is_empty() || t.elapsed().as_secs_f64() < 0.4 * seconds {
        let u0 = sys::usage();
        let rep = c.rep("rep", Tracer::disabled());
        let u1 = sys::usage();
        used.user_s += u1.user_s - u0.user_s;
        used.sys_s += u1.sys_s - u0.sys_s;
        used.ctxsw += u1.ctxsw - u0.ctxsw;
        plain_walls.push(rep.wall_s);
        plain = Some(rep);

        let tracer = Tracer::enabled(TRACE_CAPACITY);
        let rep = c.rep("traced_rep", tracer.clone());
        traced_walls.push(rep.wall_s);
        log = Some(tracer.drain());
    }
    let reps = plain_walls.len() as f64;
    let plain = plain.expect("one pair ran");
    let log = log.expect("one pair ran");
    let wall_s = median(&plain_walls);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    v.insert("apps.dsm_overhead_x", ratio(wall_s, v["apps.ref_s"]));
    v.insert(
        "sim-core.trace.overhead",
        ratio(median(&traced_walls), wall_s),
    );
    v.insert("sim-core.trace.events", log.events.len() as f64);
    v.insert("sim-core.trace.dropped", log.dropped as f64);
    v.insert(
        "sim-core.sched.sys_share",
        ratio(used.sys_s, used.user_s + used.sys_s),
    );
    if log.dropped > 0 {
        c.failures
            .push(format!("traced_rep: {} trace events dropped", log.dropped));
    }

    // Simulator counters; all zero on the real-memory workload.
    let (msgs, faults) = (
        plain.exact.messages as f64,
        (plain.exact.read_faults + plain.exact.write_faults) as f64,
    );
    let sim = plain.sim.as_ref();
    let report = sim.map(|s| &s.report);
    let count = |f: fn(&millipage::RunReport) -> u64| report.map_or(0.0, |r| f(r) as f64);
    v.insert("sim-core.sched.event_us", ratio(wall_s * 1e6, msgs));
    v.insert(
        "sim-core.sched.ctxsw_per_event",
        ratio(used.ctxsw as f64, msgs * reps),
    );
    v.insert("sim-net.msgs", msgs);
    v.insert("sim-net.payload_bytes", count(|r| r.payload_bytes));
    v.insert(
        "sim-net.bytes_per_msg",
        ratio(count(|r| r.payload_bytes), msgs),
    );
    v.insert("multiview.minipages", count(|r| r.alloc.minipages));
    v.insert("multiview.views", count(|r| r.alloc.views_used as u64));
    v.insert("core.diff.rc_diffs", count(|r| r.rc_diffs));
    v.insert("core.proto.read_faults", count(|r| r.read_faults));
    v.insert("core.proto.write_faults", count(|r| r.write_faults));
    v.insert("core.proto.invalidations", count(|r| r.invalidations));
    v.insert(
        "core.proto.competing_requests",
        count(|r| r.competing_requests),
    );
    v.insert("core.proto.barriers", count(|r| r.barriers));
    v.insert("core.proto.lock_acquires", count(|r| r.lock_acquires));
    v.insert(
        "core.proto.msgs_per_fault",
        if sim.is_some() {
            ratio(msgs, faults)
        } else {
            0.0
        },
    );
    let virt_us = |ns: Option<u64>| ns.map_or(0.0, |ns| ns as f64 / 1e3);
    v.insert(
        "core.proto.queue_delay_us.p50",
        virt_us(report.and_then(|r| r.server_queue_delay.p50())),
    );
    v.insert(
        "core.proto.queue_delay_us.p99",
        virt_us(report.and_then(|r| r.server_queue_delay.p99())),
    );
    v.insert(
        "core.proto.inv_rtt_us.p50",
        virt_us(report.and_then(|r| r.inv_round_trip.p50())),
    );
    let bd = sim.map(|s| s.timed_breakdown).unwrap_or_default();
    let fault_ns = bd.get(Category::ReadFault) + bd.get(Category::WriteFault);
    v.insert("core.proto.virt_ms", plain.exact.virt_ns as f64 / 1e6);
    v.insert(
        "core.proto.fault_mean_us",
        if sim.is_some() {
            ratio(fault_ns as f64 / 1e3, faults)
        } else {
            0.0
        },
    );
    for (name, cat) in [
        ("core.proto.vt_share.comp", Category::Comp),
        ("core.proto.vt_share.read_fault", Category::ReadFault),
        ("core.proto.vt_share.write_fault", Category::WriteFault),
        ("core.proto.vt_share.synch", Category::Synch),
    ] {
        v.insert(name, bd.fraction(cat));
    }

    // The traced repetition: exact fault latencies, counts by event kind,
    // and the protocol auditor.
    let kind_count = |k: TraceKind| log.events.iter().filter(|e| e.kind == k).count() as f64;
    let fault_us = fault_latencies_us(&log.events);
    v.insert("core.proto.fault_virt_us.p50", quantile(&fault_us, 0.5));
    v.insert("core.proto.fault_virt_us.p99", quantile(&fault_us, 0.99));
    v.insert("core.proto.forwards", kind_count(TraceKind::Forward));
    v.insert("core.proto.serves", kind_count(TraceKind::Serve));
    v.insert("core.proto.installs", kind_count(TraceKind::Install));
    v.insert("core.proto.inv_sends", kind_count(TraceKind::InvSend));
    v.insert("core.proto.req_queued", kind_count(TraceKind::ReqQueued));
    let mode = match spec.consistency {
        Consistency::SequentialSwMr => AuditMode::SwMr,
        Consistency::HomeEagerRc => AuditMode::Hlrc,
    };
    let violations = audit(&log.events, mode);
    v.insert("core.proto.audit_violations", violations.len() as f64);
    if let Some(first) = violations.first() {
        c.failures.push(format!(
            "traced_rep: {} audit violations, first: {first}",
            violations.len()
        ));
    }

    // Real-memory counters; all zero on the simulator workloads.
    let host = plain.host.as_ref();
    let host_faults = host.map_or(0.0, |h| h.total_faults() as f64);
    v.insert("core.hostrun.faults", host_faults);
    v.insert(
        "core.hostrun.invalidations",
        host.map_or(0.0, |h| h.invalidations.iter().sum::<u64>() as f64),
    );
    v.insert(
        "core.hostrun.us_per_fault",
        ratio(wall_s * 1e6, host_faults),
    );
    v.insert(
        "core.hostrun.ctxsw_per_fault",
        ratio(used.ctxsw as f64, host_faults * reps),
    );
}

/// Virtual microseconds from each `*FaultBegin` to the same thread's
/// matching `*FaultEnd`, exact (the report's histogram buckets are powers
/// of two).
fn fault_latencies_us(events: &[TraceEvent]) -> Vec<f64> {
    let mut open = HashMap::new();
    let mut out = Vec::new();
    let mut by_seq: Vec<&TraceEvent> = events.iter().collect();
    by_seq.sort_by_key(|e| e.seq);
    for e in by_seq {
        match e.kind {
            TraceKind::ReadFaultBegin | TraceKind::WriteFaultBegin => {
                open.insert((e.host, e.track), e.vt);
            }
            TraceKind::ReadFaultEnd | TraceKind::WriteFaultEnd => {
                if let Some(begin) = open.remove(&(e.host, e.track)) {
                    out.push(e.vt.saturating_sub(begin) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
    out
}
