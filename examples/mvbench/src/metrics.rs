//! Every metric the benchmark emits, by name, with its unit. The README
//! glossary documents them; `BENCHMARK.json` repeats name, unit and
//! direction, and `selftest` checks the two lists agree both ways.

use crate::json::Value;
use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_better: bool,
    /// Repeats bit-for-bit at the same seed (a count, or virtual time
    /// under the deterministic scheduler): `compare` flags any change.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_better: false,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_better: false,
        exact: true,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Def] = &[
    wall("wall_s", "s"),
    wall("setup_s", "s"),
    wall("peak_rss_mb", "MB"),
];

/// Single layers, measured from outside, in the traced run.
pub const PER_LAYER: &[Def] = &[
    // sim-core scheduler
    wall("sim-core.sched.yield_us.t8", "us"),
    wall("sim-core.sched.yield_us.t32", "us"),
    wall("sim-core.sched.yield_us.t128", "us"),
    wall("sim-core.sched.wake_us.t8", "us"),
    wall("sim-core.sched.wake_us.t32", "us"),
    wall("sim-core.sched.wake_us.t128", "us"),
    wall("sim-core.sched.event_us", "us"),
    wall("sim-core.sched.ctxsw_per_event", "sw/event"),
    wall("sim-core.sched.sys_share", "share"),
    // sim-core trace
    wall("sim-core.trace.record_ns", "ns"),
    wall("sim-core.trace.disabled_ns", "ns"),
    wall("sim-core.trace.overhead", "x"),
    exact("sim-core.trace.events", "count"),
    exact("sim-core.trace.dropped", "count"),
    // sim-net
    wall("sim-net.send_recv_ns.hdr", "ns"),
    wall("sim-net.send_recv_ns.4k", "ns"),
    exact("sim-net.msgs", "count"),
    exact("sim-net.payload_bytes", "bytes"),
    exact("sim-net.bytes_per_msg", "B/msg"),
    // sim-mem
    wall("sim-mem.get8_ns", "ns"),
    wall("sim-mem.set8_ns", "ns"),
    wall("sim-mem.read_range4k_ns", "ns"),
    wall("sim-mem.write_range4k_ns", "ns"),
    wall("sim-mem.slow_read8_ns", "ns"),
    wall("sim-mem.set_prot_ns", "ns"),
    // multiview
    wall("multiview.translate_ns", "ns"),
    wall("multiview.alloc_ns", "ns"),
    exact("multiview.minipages", "count"),
    exact("multiview.views", "count"),
    // core: diff
    wall("core.diff.compute_ns.16-dense", "ns"),
    wall("core.diff.compute_ns.256-dense", "ns"),
    wall("core.diff.compute_ns.4k-sparse", "ns"),
    wall("core.diff.compute_ns.4k-dense", "ns"),
    wall("core.diff.compute_ns.4k-straddle", "ns"),
    wall("core.diff.apply_ns.4k-dense", "ns"),
    wall("core.diff.encode_ns.4k-dense", "ns"),
    wall("core.diff.decode_ns.4k-dense", "ns"),
    exact("core.diff.rc_diffs", "count"),
    // core: protocol on the simulator
    wall("core.proto.read_fault_wall_us.p50", "us"),
    wall("core.proto.read_fault_wall_us.p99", "us"),
    wall("core.proto.write_fault_wall_us.p50", "us"),
    wall("core.proto.write_fault_wall_us.p99", "us"),
    wall("core.proto.barrier_wall_us.p50", "us"),
    exact("core.proto.virt_ms", "virt_ms"),
    exact("core.proto.fault_mean_us", "virt_us"),
    exact("core.proto.read_faults", "count"),
    exact("core.proto.write_faults", "count"),
    exact("core.proto.invalidations", "count"),
    exact("core.proto.competing_requests", "count"),
    exact("core.proto.barriers", "count"),
    exact("core.proto.lock_acquires", "count"),
    exact("core.proto.msgs_per_fault", "msg/fault"),
    Def {
        higher_better: true,
        ..exact("core.proto.vt_share.comp", "share")
    },
    exact("core.proto.vt_share.read_fault", "share"),
    exact("core.proto.vt_share.write_fault", "share"),
    exact("core.proto.vt_share.synch", "share"),
    exact("core.proto.queue_delay_us.p50", "virt_us"),
    exact("core.proto.queue_delay_us.p99", "virt_us"),
    exact("core.proto.inv_rtt_us.p50", "virt_us"),
    exact("core.proto.fault_virt_us.p50", "virt_us"),
    exact("core.proto.fault_virt_us.p99", "virt_us"),
    exact("core.proto.forwards", "count"),
    exact("core.proto.serves", "count"),
    exact("core.proto.installs", "count"),
    exact("core.proto.inv_sends", "count"),
    exact("core.proto.req_queued", "count"),
    exact("core.proto.audit_violations", "count"),
    // core: protocol on real memory
    wall("core.hostrun.read_fault_us.p50", "us"),
    wall("core.hostrun.read_fault_us.p99", "us"),
    wall("core.hostrun.write_fault_us.p50", "us"),
    wall("core.hostrun.write_fault_us.p99", "us"),
    wall("core.hostrun.barrier_us.p50", "us"),
    exact("core.hostrun.faults", "count"),
    exact("core.hostrun.invalidations", "count"),
    wall("core.hostrun.us_per_fault", "us"),
    wall("core.hostrun.ctxsw_per_fault", "sw/fault"),
    // hostmv
    wall("hostmv.protect_ns", "ns"),
    wall("hostmv.prot_get_ns", "ns"),
    wall("hostmv.fault_us.p50", "us"),
    wall("hostmv.fault_us.p99", "us"),
    wall("hostmv.priv_write4k_ns", "ns"),
    // apps
    wall("apps.ref_s", "s"),
    wall("apps.dsm_overhead_x", "x"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The contract's `metrics` object: every metric of `defs`, in order.
///
/// # Panics
///
/// Panics if a value is missing — a metric the table promises and the
/// code never measured is a bug in the benchmark.
pub fn metrics_json(defs: &[Def], values: &Values) -> Value {
    let mut out = Value::obj();
    for d in defs {
        let v = values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was never measured", d.name));
        out.set(d.name, Value::obj().with("value", *v).with("unit", d.unit));
    }
    out
}

/// (smallest, largest) sample.
pub fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)))
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Exact sample quantile (nearest rank on the sorted samples, the midpoint
/// of the two middle ones for an even-sized median); 0 with no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if p == 0.5 && n % 2 == 0 => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        n => s[((n as f64 * p).ceil() as usize).clamp(1, n) - 1],
    }
}
