//! The planted sharing pathologies the adaptation engine must answer —
//! one per action (split, merge, home migration). `repro adapt` and
//! `tests/adapt.rs` both run exactly these.

use millipage::{run, AdaptConfig, ClusterConfig, RunReport, SchedMode};

/// Baseline config for the planted workloads: small geometry,
/// diagnostics on, deterministic scheduler so static and adapted runs are
/// directly comparable.
pub fn adapt_base(hosts: usize, adapt: AdaptConfig) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 16,
        pages: 64,
        diag: true,
        sched: SchedMode::deterministic(),
        adapt,
        ..ClusterConfig::default()
    }
}

/// Two hosts write pairwise-disjoint halves of one minipage — the
/// canonical false-sharing pair the engine must split.
pub fn false_sharing_run(cfg: ClusterConfig) -> RunReport {
    run(
        cfg,
        |s| s.alloc_vec_init(&[0u32; 16]),
        |ctx, v| {
            let me = ctx.host().index();
            for round in 0..16u32 {
                ctx.write_range(v, me * 8, &[round; 8]);
                ctx.barrier();
            }
        },
    )
}

/// Two physically adjacent minipages always written together by the
/// round-holding host — a ping-ponging pair the engine must merge.
pub fn ping_pong_pair_run(cfg: ClusterConfig) -> RunReport {
    run(
        cfg,
        |s| (s.alloc_vec_init(&[0u32]), s.alloc_vec_init(&[0u32])),
        |ctx, (a, b)| {
            let me = ctx.host().index();
            for round in 0..16u32 {
                if round as usize % 2 == me {
                    ctx.write_range(a, 0, &[round]);
                    ctx.write_range(b, 0, &[round]);
                }
                ctx.barrier();
            }
        },
    )
}

/// Host 1 hammers one remotely homed minipage under HLRC while the rest
/// of the heap sees one cold touch per host — the home must migrate to
/// the writer.
pub fn skewed_home_run(cfg: ClusterConfig) -> RunReport {
    run(
        cfg,
        |s| {
            let hot = s.alloc_vec_init(&[0u32; 8]);
            let cold: Vec<_> = (0..6).map(|_| s.alloc_vec_init(&[0u32])).collect();
            (hot, cold)
        },
        |ctx, (hot, cold)| {
            let me = ctx.host().index();
            let _ = ctx.read_range(&cold[me % cold.len()], 0..1);
            ctx.barrier();
            for round in 0..24u32 {
                if me == 1 {
                    ctx.write_range(hot, 0, &[round; 8]);
                }
                ctx.barrier();
            }
        },
    )
}

/// The metric the granularity actions are judged on.
pub fn faults_plus_inv(r: &RunReport) -> u64 {
    r.read_faults + r.write_faults + r.invalidations
}
