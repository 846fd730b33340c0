//! `repro adapt` drives the online adaptation engine. The three planted
//! pathology workloads (a false-sharing pair, a ping-ponging sibling
//! pair, a skewed-home hammer) run once statically and once with the
//! engine armed, under the deterministic scheduler: the matching action
//! (split / merge / home migration) must apply, the triggering detector
//! finding must clear, faults+invalidations must drop ≥ 25% in aggregate
//! (migration is judged on cross-host wire bytes — fault counts are
//! placement-independent), the adapted runs must replay byte-identically
//! and their traces must pass the invariant audit. The Table 2 apps (or
//! one of them) then re-run with the engine armed and must keep their
//! checksums. `--json <path>` dumps the per-workload before/after
//! metrics and action logs. `--backend host` instead runs a planted
//! remote hammer and SOR on the real-memory backend (Linux,
//! migration-only — granularity rewrites are sim-only on raw
//! application memory) and requires the host engine's action log to
//! match the sim's fingerprint exactly.

use millipage::json;
use millipage::{
    run, AdaptConfig, AdaptReport, AuditMode, ClusterConfig, Consistency, DiagReport,
    HomePolicyKind, RunReport, SchedMode,
};
use millipage_apps::close;
use millipage_bench::apps::{app_cfg, select_specs};
use millipage_bench::cli::{traced_run, write_artifact, Backend, Flags, Gate, UsageError};
use millipage_bench::planted::{
    adapt_base, false_sharing_run, faults_plus_inv, ping_pong_pair_run, skewed_home_run,
};
use millipage_bench::{header, Table};

/// Payload bytes that actually crossed the network. Loopback delivery to
/// a host's own shard is a local handler call either way, so it is
/// excluded — migration's win is exactly this number.
fn cross_host_bytes(r: &RunReport) -> u64 {
    r.diag.as_ref().map_or(0, |d| {
        d.links
            .iter()
            .filter(|l| l.from != l.to)
            .map(|l| l.bytes)
            .sum()
    })
}

/// What adaptation is judged on, static vs adapted.
struct Delta {
    /// Faults + invalidations `[static, adapted]`.
    fi: [u64; 2],
    /// Cross-host wire bytes `[static, adapted]`.
    wire: [u64; 2],
}

impl Delta {
    fn of(stat: &RunReport, adapted: &RunReport) -> Self {
        Self {
            fi: [stat, adapted].map(faults_plus_inv),
            wire: [stat, adapted].map(cross_host_bytes),
        }
    }
}

/// One `--json` entry: a workload's static and adapted metrics and the
/// adapted run's action log.
fn json_entry(w: &mut json::Writer, (kind, name, d, a): &(&str, &str, Delta, AdaptReport)) {
    w.object(|w| {
        w.field("kind", kind).field("name", name);
        for (side, i) in [("static", 0), ("adapted", 1)] {
            w.key(side).object(|w| {
                w.field("faults_plus_inv", d.fi[i])
                    .field("cross_host_bytes", d.wire[i]);
            });
        }
        w.field("adapt", a);
    });
}

/// One planted pathology: the workload, the action that must answer it,
/// and the check that its triggering finding cleared.
struct PlantedAdapt {
    name: &'static str,
    action: &'static str,
    hosts: usize,
    /// The migration workload runs under HLRC (home-based diffs make the
    /// skew visible on the wire); the granularity pair runs under SW/MR.
    hlrc: bool,
    run: fn(ClusterConfig) -> RunReport,
    applied: fn(&AdaptReport) -> u64,
    cleared: fn(&DiagReport) -> Result<(), String>,
}

const PLANTED: [PlantedAdapt; 3] = [
    PlantedAdapt {
        name: "false-sharing pair",
        action: "split",
        hosts: 2,
        hlrc: false,
        run: false_sharing_run,
        applied: |a| a.splits,
        cleared: |d| match d.false_sharing.len() {
            0 => Ok(()),
            n => Err(format!("{n} false-sharing finding(s) survive the split")),
        },
    },
    PlantedAdapt {
        name: "ping-pong pair",
        action: "merge",
        hosts: 2,
        hlrc: false,
        run: ping_pong_pair_run,
        applied: |a| a.merges,
        // The merged unit still ping-pongs by design (one fault per
        // handoff instead of two); the retired siblings must not be
        // flagged.
        cleared: |d| {
            if d.ping_pong.iter().any(|f| f.mp <= 1) {
                return Err("retired siblings still flagged as ping-pong".into());
            }
            Ok(())
        },
    },
    PlantedAdapt {
        name: "skewed-home hammer",
        action: "migrate",
        hosts: 4,
        hlrc: true,
        run: skewed_home_run,
        applied: |a| a.migrations,
        cleared: |d| match d.hot_home.len() {
            0 => Ok(()),
            n => Err(format!("{n} hot-home finding(s) survive the migration")),
        },
    },
];

pub fn adapt(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = f.switch("--quick");
    let backend = f.value("--backend")?.unwrap_or(Backend::Sim);
    let json_path: Option<String> = f.value("--json")?;
    let scenario = f.positional();
    f.finish()?;
    let specs = select_specs(quick, scenario.as_deref())?;
    match backend {
        Backend::Sim => {}
        #[cfg(target_os = "linux")]
        Backend::Host => {
            adapt_host(quick, gate);
            return Ok(());
        }
    }
    header("Adapt — online split/merge/home-migration vs static (deterministic)");
    let mut json_out = Vec::new();
    let mut table = Table::default();
    let (mut total_before, mut total_after) = (0u64, 0u64);
    for spec in &PLANTED {
        let base = |adapt: AdaptConfig| {
            let mut c = adapt_base(spec.hosts, adapt);
            if spec.hlrc {
                c.consistency = Consistency::HomeEagerRc;
                c.home_policy = HomePolicyKind::Centralized;
            }
            c
        };
        let audit_mode = if spec.hlrc {
            AuditMode::Hlrc
        } else {
            AuditMode::SwMr
        };
        let stat = (spec.run)(base(AdaptConfig::default()));
        // Adapted twice: once traced (for the audit), once stats-only —
        // the pair must agree byte-for-byte, proving the engine neither
        // depends on the tracer nor on wall-clock state.
        let (adapted, log, violations) =
            traced_run(base(AdaptConfig::enabled()), audit_mode, spec.run);
        let replay = (spec.run)(base(AdaptConfig::enabled()));
        gate.clean(&stat, &format!("{} static", spec.name));
        gate.clean(&adapted, &format!("{} adapted", spec.name));
        gate.audit(spec.name, &log, &violations);
        let (Some(a), Some(a2), Some(diag), Some(diag2)) = (
            adapted.adapt.as_ref(),
            replay.adapt.as_ref(),
            adapted.diag.as_ref(),
            replay.diag.as_ref(),
        ) else {
            gate.fail(format!(
                "  {}: adapted run produced no adapt report or no diagnostics",
                spec.name
            ));
            continue;
        };
        let identity = |a: &AdaptReport, d: &DiagReport, r: &RunReport| {
            (
                a.fingerprint(),
                d.findings_fingerprint(),
                faults_plus_inv(r),
            )
        };
        gate.check(
            identity(a, diag, &adapted) == identity(a2, diag2, &replay),
            || {
                format!(
                    "  {}: NONDETERMINISTIC adaptation between replays",
                    spec.name
                )
            },
        );
        let applied = (spec.applied)(a);
        gate.check(applied > 0, || {
            format!(
                "  {}: no {} applied; actions: {:?}",
                spec.name, spec.action, a.actions
            )
        });
        let finding = match (spec.cleared)(diag) {
            Ok(()) => "cleared",
            Err(e) => {
                gate.fail(format!("  {}: {e}", spec.name));
                "SURVIVES"
            }
        };
        let d = Delta::of(&stat, &adapted);
        let ([fi_before, fi_after], [wb, wa]) = (d.fi, d.wire);
        total_before += fi_before;
        total_after += fi_after;
        // Migration leaves fault counts alone (they are placement
        // independent) but must cut the wire; the granularity actions
        // must cut faults+invalidations outright.
        if spec.action == "migrate" {
            gate.check(wa * 4 <= wb * 3, || {
                format!(
                    "  {}: migration saved too little wire traffic: {wb} -> {wa} cross-host bytes",
                    spec.name
                )
            });
            gate.check(fi_after <= fi_before + fi_before / 20, || {
                format!(
                    "  {}: migration regressed faults: {fi_before} -> {fi_after}",
                    spec.name
                )
            });
        } else {
            gate.check(fi_after * 4 <= fi_before * 3, || {
                format!(
                    "  {}: {} saved too little: {fi_before} -> {fi_after} faults+invalidations",
                    spec.name, spec.action
                )
            });
        }
        table.row([
            ("workload", &spec.name),
            ("action", &spec.action),
            ("applied", &applied),
            ("faults+inv", &fi_before),
            ("adapted", &fi_after),
            ("x-host B", &wb),
            ("adapted", &wa),
            ("finding", &finding),
        ]);
        json_out.push(("planted", spec.name, d, a.clone()));
    }
    table.print();
    if gate.check(total_after * 4 <= total_before * 3, || {
        format!(
            "planted workloads reduced faults+invalidations by < 25%: {total_before} -> {total_after}"
        )
    }) {
        println!(
            "planted total faults+invalidations: {total_before} -> {total_after} \
             (-{}%)",
            (total_before - total_after) * 100 / total_before.max(1)
        );
    }

    // The real applications, static vs adapted: the engine may or may not
    // find something to do, but it must never change a checksum or
    // surface a violation.
    let mut table = Table::default();
    for spec in &specs {
        let cfg = |adapt| ClusterConfig {
            diag: true,
            sched: SchedMode::deterministic(),
            adapt,
            ..app_cfg(4)
        };
        let stat = (spec.run)(cfg(AdaptConfig::default()));
        let adapted = (spec.run)(cfg(AdaptConfig::enabled()));
        gate.clean(&stat.report, &format!("{} static", spec.name));
        gate.clean(&adapted.report, &format!("{} adapted", spec.name));
        let same = gate.check(close(stat.checksum, adapted.checksum, 1e-9), || {
            format!(
                "  {}: CHECKSUM CHANGED under adaptation: {} vs {}",
                spec.name, stat.checksum, adapted.checksum
            )
        });
        let Some(a) = adapted.report.adapt.as_ref() else {
            gate.fail(format!(
                "  {}: adapted run produced no adapt report",
                spec.name
            ));
            continue;
        };
        let d = Delta::of(&stat.report, &adapted.report);
        table.row([
            ("app", &spec.name),
            (
                "split/merge/migrate",
                &format!("{}/{}/{}", a.splits, a.merges, a.migrations),
            ),
            ("deferred", &a.deferred),
            ("faults+inv", &d.fi[0]),
            ("adapted", &d.fi[1]),
            ("x-host B", &d.wire[0]),
            ("adapted", &d.wire[1]),
            ("checksum", &if same { "ok" } else { "MISMATCH" }),
        ]);
        json_out.push(("app", spec.name, d, a.clone()));
    }
    table.print();
    if let Some(p) = &json_path {
        write_artifact(
            gate,
            p,
            json::document(|w| {
                w.array(|w| json_out.iter().for_each(|e| json_entry(w, e)));
            }),
            format_args!("wrote adaptation report JSON to {p}"),
        );
    }
    gate.pass(format_args!(
        "adapt passed: planted pathologies answered and cleared, {} app(s) \
         unchanged under the engine",
        specs.len()
    ));
    Ok(())
}

/// Shared-handle shape of the planted host-backend migration workload.
#[cfg(target_os = "linux")]
type RemoteHammerShared = (millipage::SharedVec<u32>, Vec<millipage::SharedVec<u32>>);

/// A hot minipage homed at the manager (host 0), written by host 1 on
/// even rounds and read by host 2 on odd rounds: under SW/MR every round
/// takes exactly one remote fault at the home, so the engine must move
/// the home to the dominant writer. Runs unchanged on both backends.
#[cfg(target_os = "linux")]
fn remote_hammer_setup(s: &mut millipage::SetupCtx) -> RemoteHammerShared {
    let hot = s.alloc_vec_init(&[0u32; 8]);
    let cold = (0..6).map(|_| s.alloc_vec_init(&[0u32])).collect();
    (hot, cold)
}

#[cfg(target_os = "linux")]
fn remote_hammer_worker<D: millipage::Dsm>(ctx: &mut D, sh: &RemoteHammerShared) {
    let (hot, cold) = sh;
    let me = ctx.host().index();
    let _ = ctx.read_range(&cold[me % cold.len()], 0..1);
    ctx.barrier();
    for round in 0..24u32 {
        if round % 2 == 0 && me == 1 {
            ctx.write_range(hot, 0, &[round; 8]);
        }
        if round % 2 == 1 && me == 2 {
            let _ = ctx.read_range(hot, 0..8);
        }
        ctx.barrier();
    }
}

/// The host engine's action log must fingerprint identically to the sim
/// mirror's — same actions, same barriers, same targets; `Some(host log)`
/// when it does.
#[cfg(target_os = "linux")]
fn actions_match<'a>(
    gate: &mut Gate,
    name: &str,
    host: Option<&'a AdaptReport>,
    sim: Option<&AdaptReport>,
) -> Option<&'a AdaptReport> {
    let (Some(h), Some(s)) = (host, sim) else {
        gate.fail(format!("{name}: a backend produced no adapt report"));
        return None;
    };
    gate.check(h.fingerprint() == s.fingerprint(), || {
        format!(
            "{name}: ACTION MISMATCH\n  host {:?}\n  sim  {:?}",
            h.fingerprint(),
            s.fingerprint()
        )
    })
    .then_some(h)
}

/// `repro adapt --backend host`: the planted remote hammer and SOR with
/// the engine armed on real memory. The host backend only migrates
/// (granularity rewrites are sim-only on raw application memory), so the
/// sim mirror runs with split/merge disabled and the two action logs
/// must fingerprint identically, while SOR's checksum must survive the
/// armed engine.
#[cfg(target_os = "linux")]
fn adapt_host(quick: bool, gate: &mut Gate) {
    use millipage_apps::sor;
    use millipage_bench::apps::{cmp_apps, sor_cmp_params};
    let hosts = 4usize;
    header(&format!(
        "Adapt (host backend) — home migration on real memory, action parity vs sim ({hosts} hosts)"
    ));
    let migrate_only = AdaptConfig {
        allow_split: false,
        allow_merge: false,
        ..AdaptConfig::enabled()
    };
    let host_cfg = millipage::HostRunConfig {
        hosts,
        views: 16,
        pages: 64,
        diag: true,
        adapt: AdaptConfig::enabled(), // the runner masks split/merge itself
    };
    let hammer = gate.ok(
        "remote-hammer host run failed",
        millipage::run_host(host_cfg, remote_hammer_setup, remote_hammer_worker),
    );
    if let Some(hammer) = hammer {
        gate.check(hammer.errors.is_empty(), || {
            format!("remote hammer: host errors: {:?}", hammer.errors)
        });
        let sim = run(
            adapt_base(hosts, migrate_only.clone()),
            remote_hammer_setup,
            remote_hammer_worker,
        );
        gate.clean(&sim, "remote hammer (sim)");
        if let Some(h) = actions_match(
            gate,
            "remote hammer",
            hammer.adapt.as_ref(),
            sim.adapt.as_ref(),
        ) {
            if gate.check(h.migrations >= 1, || {
                format!(
                    "remote hammer: host engine applied no migration: {:?}",
                    h.actions
                )
            }) {
                println!(
                    "remote hammer: {} migration(s), host/sim action logs identical",
                    h.migrations
                );
            }
        }
    }

    let sp = sor_cmp_params(quick);
    let Some(h) = gate.ok(
        "SOR host run failed",
        sor::run_sor_host_with(hosts, sp, true, AdaptConfig::enabled()),
    ) else {
        return;
    };
    let sor_app = &cmp_apps(quick)[0];
    let s = (sor_app.sim)(ClusterConfig {
        diag: true,
        sched: SchedMode::deterministic(),
        adapt: migrate_only,
        ..sor_app.sim_cfg(hosts, true)
    });
    gate.clean(&s.report, "SOR (sim, adapted)");
    let same = crate::backends::checksums_match(gate, "SOR", &s, &h);
    if let Some(ha) = actions_match(
        gate,
        "SOR",
        h.report.adapt.as_ref(),
        s.report.adapt.as_ref(),
    ) {
        if same {
            println!(
                "SOR: checksum matches; host/sim action logs identical \
                 ({} migration(s))",
                ha.migrations
            );
        }
    }
    gate.pass(format_args!(
        "host/sim adaptation actions and checksums match"
    ));
}
