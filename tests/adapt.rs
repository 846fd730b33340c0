//! End-to-end tests for the online adaptation engine: each planted
//! pathology from the diagnostics plane (false-sharing pair, ping-pong
//! pair, skewed-home hammer) is run once statically and once with the
//! adaptation engine armed, under the deterministic scheduler. The
//! adapted run must apply the matching action, clear the triggering
//! finding, improve the planted metric, stay audit-clean, and replay
//! byte-identically.

use millipage::{
    audit, run, AdaptConfig, AuditMode, ClusterConfig, Consistency, HomePolicyKind, RunReport,
    SharedVec, Tracer,
};
use millipage_bench::planted::{
    adapt_base, false_sharing_run, faults_plus_inv, ping_pong_pair_run, skewed_home_run,
};
use std::sync::Mutex;

const TRACE_RING: usize = 1 << 16;

/// The planted workloads' base config with the engine armed or not.
fn cfg(hosts: usize, adapt: bool) -> ClusterConfig {
    adapt_base(
        hosts,
        if adapt {
            AdaptConfig::enabled()
        } else {
            AdaptConfig::default()
        },
    )
}

fn assert_clean(r: &RunReport, what: &str) {
    assert!(
        r.coherence_violations.is_empty(),
        "{what}: coherence violations: {:?}",
        r.coherence_violations
    );
    assert!(
        r.protocol_errors.is_empty(),
        "{what}: protocol errors: {:?}",
        r.protocol_errors
    );
}

#[test]
fn split_clears_false_sharing_and_cuts_faults() {
    let stat = false_sharing_run(cfg(2, false));
    let adapted = false_sharing_run(cfg(2, true));
    assert_clean(&stat, "static");
    assert_clean(&adapted, "adapted");
    let a = adapted.adapt.as_ref().expect("adapt report present");
    assert!(a.splits >= 1, "no split applied: {:?}", a.actions);
    // The triggering finding is gone: the parent is retired and each
    // child is single-writer.
    let diag = adapted.diag.as_ref().expect("diagnostics enabled");
    assert!(
        diag.false_sharing.is_empty(),
        "false sharing survived the split: {:?}",
        diag.false_sharing
    );
    let (before, after) = (faults_plus_inv(&stat), faults_plus_inv(&adapted));
    assert!(
        after * 4 <= before * 3,
        "split saved too little: {before} -> {after} faults+invalidations"
    );
}

#[test]
fn merge_coalesces_ping_pong_pair() {
    let stat = ping_pong_pair_run(cfg(2, false));
    let adapted = ping_pong_pair_run(cfg(2, true));
    assert_clean(&stat, "static");
    assert_clean(&adapted, "adapted");
    let a = adapted.adapt.as_ref().expect("adapt report present");
    assert!(a.merges >= 1, "no merge applied: {:?}", a.actions);
    let diag = adapted.diag.as_ref().expect("diagnostics enabled");
    // The planted pair (mp0, mp1) is retired; neither may still be
    // flagged. The merged unit still ping-pongs (the workload alternates
    // by design) but takes one fault per handoff instead of two.
    assert!(
        !diag.ping_pong.iter().any(|f| f.mp == 0 || f.mp == 1),
        "retired siblings still flagged: {:?}",
        diag.ping_pong
    );
    let (before, after) = (faults_plus_inv(&stat), faults_plus_inv(&adapted));
    assert!(
        after * 4 <= before * 3,
        "merge saved too little: {before} -> {after} faults+invalidations"
    );
}

#[test]
fn migration_rehomes_hammered_minipage() {
    let base = ClusterConfig {
        consistency: Consistency::HomeEagerRc,
        home_policy: HomePolicyKind::Centralized,
        ..cfg(4, false)
    };
    let adapted_cfg = ClusterConfig {
        adapt: AdaptConfig::enabled(),
        ..base.clone()
    };
    let stat = skewed_home_run(base);
    let adapted = skewed_home_run(adapted_cfg);
    assert_clean(&stat, "static");
    assert_clean(&adapted, "adapted");
    let a = adapted.adapt.as_ref().expect("adapt report present");
    assert!(a.migrations >= 1, "no migration applied: {:?}", a.actions);
    assert!(
        a.actions
            .iter()
            .any(|e| e.kind == "migrate" && e.mp == 0 && e.detail.contains("h1")),
        "hot minipage not migrated to its writer: {:?}",
        a.actions
    );
    // The hot-home finding clears: the hammering host now serves its own
    // faults locally, so the old home's remote load is gone.
    let diag = adapted.diag.as_ref().expect("diagnostics enabled");
    assert!(
        diag.hot_home.is_empty(),
        "hot-home finding survived migration: {:?}",
        diag.hot_home
    );
    // Fault counts are placement-independent; the win is wire traffic —
    // diffs and fetches stop crossing the network once the writer is its
    // own home. Measured over the inter-host links: loopback delivery to
    // a host's own shard is a local handler call either way.
    let cross_host_bytes = |r: &RunReport| {
        r.diag
            .as_ref()
            .expect("diagnostics enabled")
            .links
            .iter()
            .filter(|l| l.from != l.to)
            .map(|l| l.bytes)
            .sum::<u64>()
    };
    let (wire_before, wire_after) = (cross_host_bytes(&stat), cross_host_bytes(&adapted));
    assert!(
        wire_after * 4 <= wire_before * 3,
        "migration saved too little wire traffic: {wire_before} -> {wire_after} cross-host bytes"
    );
    assert!(
        faults_plus_inv(&adapted) <= faults_plus_inv(&stat) + faults_plus_inv(&stat) / 20,
        "migration regressed faults: {} -> {}",
        faults_plus_inv(&stat),
        faults_plus_inv(&adapted)
    );
}

/// Satellite regression: migration resets the last-writer/alternation
/// lanes. Two hosts alternate on a minipage long enough to build up
/// alternations (with host 1 writing the strict majority), the engine
/// migrates it to host 1, then only host 1 keeps writing. With stale
/// lanes the pre-migration alternations would keep the minipage flagged
/// as ping-pong forever; with the reset the final report is clean.
#[test]
fn migrated_minipage_starts_alternation_clean() {
    let go = || {
        let base = ClusterConfig {
            consistency: Consistency::HomeEagerRc,
            home_policy: HomePolicyKind::Centralized,
            // Hold the planner until phase 1 completes (barrier 9: one
            // cold barrier + eight rounds), so the migration finds the
            // accumulated alternations in the lanes it must reset.
            adapt: AdaptConfig {
                start_barrier: 9,
                ..AdaptConfig::enabled()
            },
            ..cfg(3, false)
        };
        run(
            base,
            |s| {
                let hot = s.alloc_vec_init(&[0u32; 8]);
                let cold: Vec<_> = (0..6).map(|_| s.alloc_vec_init(&[0u32])).collect();
                (hot, cold)
            },
            |ctx, (hot, cold)| {
                let me = ctx.host().index();
                let _ = ctx.read_range(&cold[me % cold.len()], 0..1);
                ctx.barrier();
                // Phase 1: hosts 1 and 2 alternate, host 1 writing three
                // rounds of every four — alternations build up while
                // host 1 stays the dominant writer.
                for round in 0..8u32 {
                    if (round % 4 == 3 && me == 2) || (round % 4 != 3 && me == 1) {
                        ctx.write_range(hot, 0, &[round; 8]);
                    }
                    ctx.barrier();
                }
                // Phase 2: host 1 alone.
                for round in 8..16u32 {
                    if me == 1 {
                        ctx.write_range(hot, 0, &[round; 8]);
                    }
                    ctx.barrier();
                }
            },
        )
    };
    let adapted = go();
    let a = adapted.adapt.as_ref().expect("adapt report present");
    assert!(
        a.actions.iter().any(|e| e.kind == "migrate" && e.mp == 0),
        "hot minipage was not migrated: {:?}",
        a.actions
    );
    let diag = adapted.diag.as_ref().expect("diagnostics enabled");
    let hot = diag
        .minipages
        .iter()
        .find(|d| d.mp == 0)
        .expect("hot minipage reported");
    // Phase 1 produced 4 handoffs; a missed reset would carry them into
    // the final report and re-flag the freshly migrated minipage.
    assert!(
        hot.alternations <= 1,
        "alternation lane not reset on migration: {} handoffs survive",
        hot.alternations
    );
    assert!(
        !diag.ping_pong.iter().any(|f| f.mp == 0),
        "migrated minipage re-flagged as ping-pong: {:?}",
        diag.ping_pong
    );
}

/// The adaptation plane is deterministic: identical configs produce
/// byte-identical action fingerprints, findings and fault counters.
#[test]
fn adaptation_is_deterministic() {
    let fp = |r: &RunReport| {
        (
            r.adapt.as_ref().expect("adapt report").fingerprint(),
            r.diag.as_ref().expect("diag").findings_fingerprint(),
            r.read_faults,
            r.write_faults,
            r.invalidations,
        )
    };
    let a = false_sharing_run(cfg(2, true));
    let b = false_sharing_run(cfg(2, true));
    assert_eq!(fp(&a), fp(&b), "false-sharing adaptation diverged");
    let c = ping_pong_pair_run(cfg(2, true));
    let d = ping_pong_pair_run(cfg(2, true));
    assert_eq!(fp(&c), fp(&d), "ping-pong adaptation diverged");
}

/// With the engine disabled the report carries no adapt section and the
/// run matches a plain static run exactly (the default stays byte-stable).
#[test]
fn disabled_engine_changes_nothing() {
    let plain = false_sharing_run(cfg(2, false));
    let off = false_sharing_run(ClusterConfig {
        adapt: AdaptConfig {
            enabled: false,
            ..AdaptConfig::enabled()
        },
        ..cfg(2, false)
    });
    assert!(plain.adapt.is_none() && off.adapt.is_none());
    assert_eq!(faults_plus_inv(&plain), faults_plus_inv(&off));
    assert_eq!(plain.to_json(), off.to_json());
}

/// Every planted adapted run replays through the trace auditor clean:
/// the SW/MR and HLRC invariants hold across splits, merges and
/// migrations, and the new adaptation invariants (quiesced window, reset
/// state, exactly-once forwarding) hold too.
#[test]
fn adapted_runs_stay_audit_clean() {
    let audit_of = |r: fn(ClusterConfig) -> RunReport, base: ClusterConfig, mode: AuditMode| {
        let tracer = Tracer::enabled(TRACE_RING);
        let report = r(ClusterConfig {
            tracer: tracer.clone(),
            ..base
        });
        assert_clean(&report, "traced adapted run");
        assert!(
            report.adapt.as_ref().is_some_and(|a| !a.actions.is_empty()),
            "adapted run applied no actions"
        );
        let log = tracer.drain();
        assert_eq!(log.dropped, 0, "trace ring overflowed");
        let v = audit(&log.events, mode);
        assert!(v.is_empty(), "audit violations: {v:?}");
    };
    audit_of(false_sharing_run, cfg(2, true), AuditMode::SwMr);
    audit_of(ping_pong_pair_run, cfg(2, true), AuditMode::SwMr);
    audit_of(
        skewed_home_run,
        ClusterConfig {
            consistency: Consistency::HomeEagerRc,
            home_policy: HomePolicyKind::Centralized,
            ..cfg(4, true)
        },
        AuditMode::Hlrc,
    );
}

/// Adaptation holds up under every home policy, not just the default:
/// the planted split still applies and the run stays violation-free.
#[test]
fn split_applies_under_every_home_policy() {
    for policy in [
        HomePolicyKind::Centralized,
        HomePolicyKind::Interleaved,
        HomePolicyKind::FirstTouch,
    ] {
        let adapted = false_sharing_run(ClusterConfig {
            home_policy: policy,
            ..cfg(2, true)
        });
        assert_clean(&adapted, "adapted");
        let a = adapted.adapt.as_ref().expect("adapt report present");
        assert!(
            a.splits >= 1,
            "{policy:?}: no split applied: {:?}",
            a.actions
        );
    }
}

/// Allocating after a split or a merge: the allocator places into the
/// table adaptation rewrote, so the fresh vector takes the next id and a
/// view no replacement holds. Runs the planted false-sharing pattern
/// (split) or ping-pong pair (merge), then host 0 allocates a vector after
/// the adapted barrier and writes it, and host 1 reads it back.
fn allocate_after_adaptation(policy: HomePolicyKind, merge: bool) -> RunReport {
    let fresh: Mutex<Option<SharedVec<u32>>> = Mutex::new(None);
    run(
        ClusterConfig {
            home_policy: policy,
            ..cfg(2, true)
        },
        |s| {
            if merge {
                vec![s.alloc_vec_init(&[0u32]), s.alloc_vec_init(&[0u32])]
            } else {
                vec![s.alloc_vec_init(&[0u32; 16])]
            }
        },
        |ctx, vs| {
            let me = ctx.host().index();
            for round in 0..16u32 {
                if !merge {
                    ctx.write_range(&vs[0], me * 8, &[round; 8]);
                } else if round as usize % 2 == me {
                    for v in vs {
                        ctx.write_range(v, 0, &[round]);
                    }
                }
                ctx.barrier();
            }
            if me == 0 {
                let v = ctx.alloc_vec::<u32>(4);
                ctx.write_range(&v, 0, &[1, 2, 3, 4]);
                *fresh.lock().unwrap() = Some(v);
            }
            ctx.barrier();
            if me == 1 {
                let v = fresh.lock().unwrap().expect("allocated by host 0");
                assert_eq!(ctx.read_range(&v, 0..4), [1, 2, 3, 4]);
            }
            ctx.barrier();
        },
    )
}

/// Every policy, both actions: the values arrive, and the run has no
/// protocol error and no coherence violation (`coherence_violations`
/// also carries the post-run `geometry_violations` of an adapted table).
#[test]
fn allocation_after_adaptation_places_around_it() {
    for policy in [
        HomePolicyKind::Centralized,
        HomePolicyKind::Interleaved,
        HomePolicyKind::FirstTouch,
    ] {
        for merge in [false, true] {
            let r = allocate_after_adaptation(policy, merge);
            let what = format!("{policy:?}, {}", if merge { "merge" } else { "split" });
            assert_clean(&r, &what);
            // Interleaved homes the pair on two hosts, so no merge is
            // planned there; every other case must have adapted first.
            let a = r.adapt.as_ref().expect("adapt report present");
            let applied = if merge { a.merges } else { a.splits };
            let planned = !(merge && policy == HomePolicyKind::Interleaved);
            assert!(
                applied >= 1 || !planned,
                "{what}: no action applied: {:?}",
                a.actions
            );
        }
    }
}
