//! Shape tests: the qualitative claims behind each figure must hold on
//! moderate workloads (the `repro` binary regenerates the full-size runs).

use millipage::{AllocMode, ClusterConfig, CostModel};
use millipage_apps::{is, sor, water};

fn cfg(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        ..ClusterConfig::default()
    }
}

/// Figure 6 shape: SOR speeds up with host count (near-linear in the
/// paper) because row-granularity sharing confines traffic to band
/// boundaries.
#[test]
fn sor_speedup_grows_with_hosts() {
    let p = sor::SorParams {
        rows: 8192,
        cols: 64,
        iters: 6,
    };
    let timed = |hosts: usize| sor::run_sor(cfg(hosts), p).timed_ns;
    let t1 = timed(1);
    let t2 = timed(2);
    let t8 = timed(8);
    let s2 = t1 as f64 / t2 as f64;
    let s8 = t1 as f64 / t8 as f64;
    assert!(s2 > 1.4, "2-host speedup {s2:.2}");
    assert!(s8 > s2, "speedup must grow: s2={s2:.2} s8={s8:.2}");
    assert!(s8 > 3.0, "8-host speedup {s8:.2}");
}

/// Figure 6 shape: IS also scales (the histogram is tiny; compute
/// dominates).
#[test]
fn is_speedup_grows_with_hosts() {
    let p = is::IsParams {
        keys: 1 << 21,
        max_key: 1 << 9,
        iters: 3,
        regions: 8,
        seed: 0x15AB,
    };
    let t1 = is::run_is(cfg(1), p).timed_ns;
    let t8 = is::run_is(cfg(8), p).timed_ns;
    let s8 = t1 as f64 / t8 as f64;
    assert!(s8 > 3.0, "8-host IS speedup {s8:.2}");
}

/// Figure 7 shape, fault side: chunking aggregates transfers, so total
/// faults drop monotonically-ish from level 1 to level 6.
#[test]
fn water_chunking_cuts_faults() {
    let p = water::WaterParams {
        molecules: 96,
        ..water::WaterParams::paper()
    };
    let faults = |mode: AllocMode| {
        let r = water::run_water(
            ClusterConfig {
                alloc_mode: mode,
                ..cfg(8)
            },
            p,
        );
        assert!(r.report.coherence_violations.is_empty());
        r.report.read_faults + r.report.write_faults
    };
    let f1 = faults(AllocMode::FINE);
    let f3 = faults(AllocMode::FineGrain { chunking: 3 });
    let f6 = faults(AllocMode::FineGrain { chunking: 6 });
    assert!(f3 < f1, "chunk 3 ({f3}) must beat chunk 1 ({f1})");
    assert!(f6 < f1, "chunk 6 ({f6}) must beat chunk 1 ({f1})");
}

/// Figure 7 shape, competing side: from the low-chunking trough, losing
/// false-sharing control (the `none` point) drives competing requests
/// back up (the paper reports 21 at level 1 rising to 601 at none; our
/// level-1 count carries extra read-read queueing, so the trough sits at
/// level 2-4 — see EXPERIMENTS.md).
#[test]
fn page_grain_raises_competing_requests_over_chunked() {
    let p = water::WaterParams {
        molecules: 192,
        ..water::WaterParams::paper()
    };
    let competing = |mode: AllocMode| {
        water::run_water(
            ClusterConfig {
                alloc_mode: mode,
                ..cfg(8)
            },
            p,
        )
        .report
        .competing_requests
    };
    let trough = (2..=4)
        .map(|c| competing(AllocMode::FineGrain { chunking: c }))
        .min()
        .expect("nonempty");
    let none = competing(AllocMode::PageGrain);
    assert!(
        none > trough,
        "page grain must contend more than chunked: trough={trough} none={none}"
    );
}

/// §3.5 what-if: solving the polling/timer problem shortens runs.
#[test]
fn fast_polling_speeds_water_up() {
    let p = water::WaterParams {
        molecules: 96,
        ..water::WaterParams::paper()
    };
    let slow = water::run_water(cfg(8), p).timed_ns;
    let fast = water::run_water(
        ClusterConfig {
            cost: CostModel::fast_polling(),
            ..cfg(8)
        },
        p,
    )
    .timed_ns;
    assert!(fast < slow, "fast polling must help: {fast} !< {slow}");
}

/// §4.4 headline: chunked WATER beats both extremes (the efficiency curve
/// has an interior optimum).
#[test]
fn water_interior_chunking_beats_extremes() {
    let p = water::WaterParams {
        molecules: 192,
        ..water::WaterParams::paper()
    };
    let t = |mode: AllocMode| {
        water::run_water(
            ClusterConfig {
                alloc_mode: mode,
                ..cfg(8)
            },
            p,
        )
        .timed_ns
    };
    let fine = t(AllocMode::FINE);
    let best_mid = (3..=6)
        .map(|c| t(AllocMode::FineGrain { chunking: c }))
        .min()
        .expect("nonempty");
    assert!(
        best_mid < fine,
        "some interior chunking level ({best_mid}) must beat fine grain ({fine})"
    );
}
