//! Distributed minipage management: home-policy equivalence and
//! directory-invariant properties.
//!
//! Two families of checks:
//!
//! 1. **Centralized == the paper's original protocol.** The refactor
//!    behind [`HomePolicyKind`] must be invisible when every minipage is
//!    homed at the manager: the golden counters below were captured from
//!    the pre-refactor single-manager implementation on a deterministic
//!    barrier-separated workload and must keep reproducing exactly.
//! 2. **Every policy preserves the protocol invariants.** Random
//!    barrier-paced programs run under each policy; afterwards the
//!    readers-XOR-one-writer (SW/MR) invariant, the drained-directory
//!    invariant and memory correctness must all hold, and the app-side
//!    counters (faults, invalidations, messages) must not depend on
//!    *where* minipages are homed — only latencies may.

use millipage::{
    run, AllocMode, ClusterConfig, Consistency, CostModel, HomePolicyKind, HostId, RunReport,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// The deterministic workload the golden counters were captured on:
/// 16 one-cell u64 vectors, 4 barrier-separated phases, one writer per
/// phase rotating over the hosts, every writer touching every cell.
fn golden_workload(hosts: usize, policy: HomePolicyKind) -> RunReport {
    let cfg = ClusterConfig {
        hosts,
        views: 16,
        pages: 64,
        cost: CostModel::default(),
        alloc_mode: AllocMode::FINE,
        threads_per_host: 1,
        consistency: Consistency::SequentialSwMr,
        home_policy: policy,
        seed: 7,
        ..ClusterConfig::default()
    };
    run(
        cfg,
        |s| {
            (0..16)
                .map(|_| s.alloc_vec_init(&[0u64; 4]))
                .collect::<Vec<_>>()
        },
        move |ctx, cells| {
            for phase in 0..4u64 {
                if ctx.host() == HostId((phase as usize % ctx.hosts()) as u16) {
                    for (i, c) in cells.iter().enumerate() {
                        let v = ctx.get(c, 0);
                        ctx.set(c, 0, v + phase + i as u64);
                    }
                }
                ctx.barrier();
            }
        },
    )
}

/// Centralized reproduces the pre-refactor manager bit-for-bit: the
/// golden counters below are the seed implementation's output.
#[test]
fn centralized_matches_seed_counters() {
    for (hosts, messages) in [(2, 498u64), (4, 516), (8, 552)] {
        let r = golden_workload(hosts, HomePolicyKind::Centralized);
        assert_eq!(r.policy, "centralized");
        assert_eq!(
            (r.read_faults, r.write_faults, r.messages),
            (48, 48, messages),
            "hosts={hosts}"
        );
        assert_eq!(r.competing_requests, 0, "hosts={hosts}");
        assert_eq!(r.invalidations, 48, "hosts={hosts}");
        assert_eq!(r.barriers, 4, "hosts={hosts}");
        assert_eq!(r.payload_bytes, 3072, "hosts={hosts}");
        assert!(r.coherence_violations.is_empty(), "hosts={hosts}");
        // Every directory entry lives at the manager shard.
        assert!(r.shards[1..].iter().all(|s| s.directory_entries == 0));
    }
}

/// With every allocation issued from the setup phase (which runs on the
/// manager host), first-touch degenerates to centralized placement: the
/// same homes, hence the same faults, invalidations and messages — the
/// routing machinery itself adds no traffic.
#[test]
fn first_touch_on_setup_allocations_matches_centralized_counters() {
    for hosts in [2usize, 4, 8] {
        let base = golden_workload(hosts, HomePolicyKind::Centralized);
        let r = golden_workload(hosts, HomePolicyKind::FirstTouch);
        assert!(r.coherence_violations.is_empty(), "hosts={hosts}");
        assert_eq!(
            (
                r.read_faults,
                r.write_faults,
                r.invalidations,
                r.messages,
                r.barriers
            ),
            (
                base.read_faults,
                base.write_faults,
                base.invalidations,
                base.messages,
                base.barriers
            ),
            "hosts={hosts}"
        );
    }
}

/// Interleaved homing spreads the directory over every shard, stays
/// deterministic run-to-run, and pays only the expected extra faults:
/// the initial writable copy now starts at each minipage's home, so the
/// phase-0 writer faults on exactly the minipages homed elsewhere.
#[test]
fn interleaved_spreads_directories_and_stays_deterministic() {
    for hosts in [2usize, 4, 8] {
        let base = golden_workload(hosts, HomePolicyKind::Centralized);
        let r = golden_workload(hosts, HomePolicyKind::Interleaved);
        assert_eq!(r.policy, "interleaved");
        assert!(r.coherence_violations.is_empty(), "hosts={hosts}");
        // 16 minipages round-robined: 16/hosts homed per shard, and the
        // phase-0 writer (host 0) faults on the 16 - 16/hosts remote ones.
        let extra = 16 - 16 / hosts as u64;
        assert_eq!(r.read_faults, base.read_faults + extra, "hosts={hosts}");
        assert_eq!(r.write_faults, base.write_faults + extra, "hosts={hosts}");
        assert_eq!(r.barriers, base.barriers, "hosts={hosts}");
        assert!(
            r.shards.iter().all(|s| s.directory_entries > 0),
            "hosts={hosts}: {:?}",
            r.shards
        );
        let again = golden_workload(hosts, HomePolicyKind::Interleaved);
        assert_eq!(
            (
                r.read_faults,
                r.write_faults,
                r.invalidations,
                r.messages,
                r.payload_bytes
            ),
            (
                again.read_faults,
                again.write_faults,
                again.invalidations,
                again.messages,
                again.payload_bytes
            ),
            "hosts={hosts}: nondeterministic counters"
        );
    }
}

proptest! {
    // Cluster-spawning properties are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random barrier-paced programs behave like one flat memory under
    /// every home policy and consistency mode, and the post-run
    /// readers-XOR-one-writer + drained-directory checks stay clean.
    #[test]
    fn random_programs_hold_invariants_under_every_policy(
        script in proptest::collection::vec(
            (0usize..4, 0usize..8, any::<u32>()),
            1..20,
        ),
        hlrc in any::<bool>(),
    ) {
        let consistency = if hlrc {
            Consistency::HomeEagerRc
        } else {
            Consistency::SequentialSwMr
        };
        for policy in [
            HomePolicyKind::Centralized,
            HomePolicyKind::Interleaved,
            HomePolicyKind::FirstTouch,
        ] {
            let cfg = ClusterConfig {
                hosts: 4,
                views: 8,
                pages: 64,
                cost: CostModel::default(),
                alloc_mode: AllocMode::FINE,
                consistency,
                home_policy: policy,
                seed: 11,
                ..ClusterConfig::default()
            };
            let script_ref = &script;
            let mismatch = Mutex::new(None);
            let report = run(
                cfg,
                |s| (0..8).map(|_| s.alloc_cell_init::<u32>(0)).collect::<Vec<_>>(),
                |ctx, cells| {
                    for &(writer, cell, val) in script_ref {
                        if ctx.host().index() == writer {
                            ctx.cell_set(&cells[cell], val);
                        }
                        ctx.barrier();
                    }
                    let mut model = [0u32; 8];
                    for &(_, cl, v) in script_ref {
                        model[cl] = v;
                    }
                    for (i, c) in cells.iter().enumerate() {
                        let got = ctx.cell_get(c);
                        if got != model[i] {
                            *mismatch.lock().unwrap() = Some((ctx.host(), i, got, model[i]));
                        }
                    }
                    ctx.barrier();
                },
            );
            prop_assert!(
                report.coherence_violations.is_empty(),
                "{policy:?} {consistency:?}: {:?}",
                report.coherence_violations
            );
            let m = mismatch.into_inner().unwrap();
            prop_assert!(m.is_none(), "{policy:?} {consistency:?} mismatch: {m:?}");
        }
    }
}
