//! WATER — the SPLASH-2 n-squared molecular dynamics kernel.
//!
//! §4.3: "In the original code for WATER, all the molecules are stored in
//! a single array (VAR) and are referenced via pointers. We altered the
//! main function so that each molecule will be allocated separately." Each
//! molecule is 672 bytes (Table 2), so six molecules share a physical page
//! through six views.
//!
//! The phase structure reproduces the behaviour the paper analyses:
//!
//! * a **read phase** at the start of every step in which each host brings
//!   in *all* molecules ("each processor brings in the entire molecules'
//!   structure") — the phase that makes fine-grain allocation expensive
//!   and chunking (§4.4) attractive;
//! * a pairwise **force phase** over the half shell, with per-molecule
//!   locked updates of foreign molecules' force fields;
//! * an unprotected read path racing the locked writers — the Write-Read
//!   data race of Perkovic & Keleher that the paper identifies as the
//!   source of its 21 competing requests at chunking level 1.
//!
//! Floating-point note: foreign force contributions arrive in a
//! host-count- and timing-dependent order, so checksums are compared with
//! a relative tolerance.

use crate::{band, cal, run_app, AppRun};
use millipage::{ClusterConfig, HostCtx, SetupCtx, SharedVec};

/// Doubles per molecule: 84 × 8 = 672 bytes (Table 2).
pub const MOL_F64S: usize = 84;
/// Offset of the position triple.
const POS: usize = 0;
/// Offset of the velocity triple.
const VEL: usize = 3;
/// Offset of the force triple.
const FRC: usize = 6;

/// Lock-id base for per-molecule force locks.
const MOL_LOCK_BASE: u64 = 1000;
/// The global kinetic-energy reduction lock.
const KINETIC_LOCK: u64 = 1;

/// WATER workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct WaterParams {
    /// Number of molecules (the paper: 512).
    pub molecules: usize,
    /// Timesteps.
    pub steps: usize,
    /// Integration step.
    pub dt: f64,
    /// Run the read phase through the §5 composed-view group fetch
    /// (pipelined prefetches) instead of serial faulting — the paper's
    /// own suggested use of composed views. Off by default (the paper's
    /// measured configuration).
    pub grouped_read: bool,
    /// Workload seed (initial positions / velocities).
    pub seed: u64,
}

impl WaterParams {
    /// The paper's input set: 512 molecules.
    pub fn paper() -> Self {
        Self {
            molecules: 512,
            steps: 3,
            dt: 1e-3,
            grouped_read: false,
            seed: 0xAA7E4,
        }
    }

    /// A test-sized instance.
    pub fn small() -> Self {
        Self {
            molecules: 24,
            steps: 2,
            dt: 1e-3,
            grouped_read: false,
            seed: 0xAA7E4,
        }
    }
}

/// Deterministic initial state of molecule `i`: position on a skewed
/// lattice, small velocity, zero force.
fn initial(i: usize, seed: u64) -> [f64; MOL_F64S] {
    let mut m = [0.0; MOL_F64S];
    let s = (seed as f64).sin().abs() + 1.0;
    m[POS] = (i % 8) as f64 * 1.7 + s;
    m[POS + 1] = ((i / 8) % 8) as f64 * 1.3;
    m[POS + 2] = (i / 64) as f64 * 2.1;
    m[VEL] = ((i * 37 + 11) % 17) as f64 * 0.01 - 0.08;
    m[VEL + 1] = ((i * 53 + 7) % 19) as f64 * 0.01 - 0.09;
    m[VEL + 2] = ((i * 71 + 3) % 23) as f64 * 0.01 - 0.11;
    m
}

/// The pairwise force kernel: a smooth short-range attraction/repulsion of
/// the displacement (standing in for the water potential).
fn pair_force(pi: &[f64; 3], pj: &[f64; 3]) -> [f64; 3] {
    let dx = pj[0] - pi[0];
    let dy = pj[1] - pi[1];
    let dz = pj[2] - pi[2];
    let r2 = dx * dx + dy * dy + dz * dz;
    let w = 1.0 / (1.0 + r2) - 0.05 / (1.0 + r2 * r2);
    [dx * w, dy * w, dz * w]
}

/// Half-shell partner list of molecule `i`: `i+1 ..= i+n/2` (mod n), the
/// SPLASH-2 assignment that computes each pair exactly once.
fn half_shell(i: usize, n: usize) -> impl Iterator<Item = usize> {
    (1..=n / 2).map(move |d| (i + d) % n)
}

/// Sequential reference: accumulated kinetic energy + final position sum.
pub fn reference(p: WaterParams) -> f64 {
    let n = p.molecules;
    let mut mols: Vec<[f64; MOL_F64S]> = (0..n).map(|i| initial(i, p.seed)).collect();
    let mut kinetic = 0.0f64;
    for _ in 0..p.steps {
        let snapshot: Vec<[f64; 3]> = mols
            .iter()
            .map(|m| [m[POS], m[POS + 1], m[POS + 2]])
            .collect();
        let mut acc = vec![[0.0f64; 3]; n];
        for (i, si) in snapshot.iter().enumerate() {
            for j in half_shell(i, n) {
                let f = pair_force(si, &snapshot[j]);
                for d in 0..3 {
                    acc[i][d] += f[d];
                    acc[j][d] -= f[d];
                }
            }
        }
        for (i, m) in mols.iter_mut().enumerate() {
            for d in 0..3 {
                let f = m[FRC + d] + acc[i][d];
                m[VEL + d] += f * p.dt;
                m[POS + d] += m[VEL + d] * p.dt;
                m[FRC + d] = 0.0;
            }
        }
        kinetic += mols
            .iter()
            .map(|m| m[VEL] * m[VEL] + m[VEL + 1] * m[VEL + 1] + m[VEL + 2] * m[VEL + 2])
            .sum::<f64>();
    }
    let possum: f64 = mols.iter().map(|m| m[POS] + m[POS + 1] + m[POS + 2]).sum();
    kinetic + possum
}

/// Shared handles: one `SharedVec<f64>` per molecule plus the kinetic sum.
pub struct WaterShared {
    mols: Vec<SharedVec<f64>>,
    kinetic: millipage::SharedCell<f64>,
    params: WaterParams,
}

/// Allocates each molecule separately (the paper's modification);
/// molecule contents are written by their owners in the claim phase.
pub fn setup(s: &mut SetupCtx, p: WaterParams) -> WaterShared {
    let mols = (0..p.molecules).map(|_| s.alloc_vec(MOL_F64S)).collect();
    s.new_page();
    let kinetic = s.alloc_cell_init(0.0f64);
    WaterShared {
        mols,
        kinetic,
        params: p,
    }
}

/// The per-host program.
pub fn worker(ctx: &mut HostCtx, sh: &WaterShared) {
    let p = sh.params;
    let n = p.molecules;
    let hosts = ctx.hosts();
    let my = band(n, hosts, ctx.host().index());
    // Claim phase: each host initializes (and owns) its molecules.
    for i in my.clone() {
        ctx.write_range(&sh.mols[i], 0, &initial(i, p.seed));
    }
    ctx.barrier();
    ctx.timer_reset();
    for _ in 0..p.steps {
        // Read phase: bring in the entire molecules' structure. Foreign
        // molecules fault in at the sharing granularity. Deliberately NOT
        // barrier-separated from the force scatter below: fast hosts start
        // writing force fields while slow hosts still read — the paper's
        // Write-Read race, observed as competing requests at the manager.
        // With `grouped_read` the fetches pipeline through the composed-
        // view group API (§5's suggested coarse-grain read phase).
        if p.grouped_read {
            ctx.fetch_group(&sh.mols);
        }
        // Each host starts its sweep at its own band (hosts fetching the
        // same molecule at the same instant would needlessly queue at the
        // manager; the original's interaction loops have the same skew).
        let mut snapshot = vec![[0.0f64; 3]; n];
        let mut m = [0.0f64; MOL_F64S];
        for jj in 0..n {
            let j = (my.start + jj) % n;
            ctx.read_into(&sh.mols[j], 0, &mut m);
            snapshot[j] = [m[POS], m[POS + 1], m[POS + 2]];
        }
        // Force phase over the half shell of owned molecules; private
        // accumulation first.
        let mut acc = vec![[0.0f64; 3]; n];
        let mut pairs = 0u64;
        for i in my.clone() {
            for j in half_shell(i, n) {
                let f = pair_force(&snapshot[i], &snapshot[j]);
                for d in 0..3 {
                    acc[i][d] += f[d];
                    acc[j][d] -= f[d];
                }
                pairs += 1;
            }
        }
        ctx.compute(cal::WATER_PAIR_NS * pairs);
        // Locked scatter of foreign contributions (per-molecule locks).
        // Contributions to *owned* molecules stay private and merge in the
        // barrier-separated correction phase, like SPLASH-2's local force
        // arrays — an unlocked owner merge here would race the foreign
        // read-modify-writes and lose updates.
        for (j, a) in acc.iter().enumerate() {
            if *a == [0.0; 3] || my.contains(&j) {
                continue;
            }
            ctx.lock(MOL_LOCK_BASE + j as u64);
            let mut frc = [0.0f64; 3];
            ctx.read_into(&sh.mols[j], FRC, &mut frc);
            for d in 0..3 {
                frc[d] += a[d];
            }
            ctx.write_range(&sh.mols[j], FRC, &frc);
            ctx.unlock(MOL_LOCK_BASE + j as u64);
        }
        ctx.barrier();
        // Correction phase: integrate owned molecules (shared force field
        // holds the foreign contributions, `acc` the local ones), clear
        // forces for the next step.
        let mut ke = 0.0f64;
        for i in my.clone() {
            ctx.read_into(&sh.mols[i], 0, &mut m);
            for d in 0..3 {
                let f = m[FRC + d] + acc[i][d];
                m[VEL + d] += f * p.dt;
                m[POS + d] += m[VEL + d] * p.dt;
                m[FRC + d] = 0.0;
            }
            ke += m[VEL] * m[VEL] + m[VEL + 1] * m[VEL + 1] + m[VEL + 2] * m[VEL + 2];
            ctx.write_range(&sh.mols[i], 0, &m);
        }
        ctx.barrier();
        // Kinetic-energy reduction under the global lock.
        ctx.lock(KINETIC_LOCK);
        let k = ctx.cell_get(&sh.kinetic);
        ctx.cell_set(&sh.kinetic, k + ke);
        ctx.unlock(KINETIC_LOCK);
        ctx.barrier();
    }
}

/// Checksum (host 0, after the final barrier): kinetic + position sum.
pub fn checksum(ctx: &mut HostCtx, sh: &WaterShared) -> f64 {
    let mut possum = 0.0;
    let mut v = [0.0f64; 3];
    for m in &sh.mols {
        ctx.read_into(m, POS, &mut v);
        possum += v[0] + v[1] + v[2];
    }
    ctx.cell_get(&sh.kinetic) + possum
}

/// Runs WATER on a cluster configured by `cfg` (whose `alloc_mode` sets
/// the chunking level — the Figure 7 experiment).
pub fn run_water(mut cfg: ClusterConfig, p: WaterParams) -> AppRun {
    let bytes = p.molecules * MOL_F64S * 8;
    cfg.pages = cfg.pages.max(bytes / 4096 * 3 + 64);
    cfg.views = cfg.views.max(6);
    run_app(cfg, |s| setup(s, p), worker, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;
    use millipage::AllocMode;

    fn cfg(hosts: usize, mode: AllocMode) -> ClusterConfig {
        ClusterConfig {
            hosts,
            views: 8,
            pages: 128,
            alloc_mode: mode,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn water_matches_reference_single_host() {
        let p = WaterParams::small();
        let r = run_water(cfg(1, AllocMode::FINE), p);
        assert!(r.report.coherence_violations.is_empty());
        assert!(
            close(r.checksum, reference(p), 1e-9),
            "{} vs {}",
            r.checksum,
            reference(p)
        );
    }

    #[test]
    fn water_matches_reference_four_hosts() {
        let p = WaterParams::small();
        let r = run_water(cfg(4, AllocMode::FINE), p);
        assert!(r.report.coherence_violations.is_empty());
        assert!(
            close(r.checksum, reference(p), 1e-9),
            "{} vs {}",
            r.checksum,
            reference(p)
        );
        assert!(r.report.lock_acquires > 0);
    }

    #[test]
    fn water_matches_reference_with_chunking() {
        let p = WaterParams::small();
        for chunk in [2usize, 5] {
            let r = run_water(cfg(4, AllocMode::FineGrain { chunking: chunk }), p);
            assert!(r.report.coherence_violations.is_empty());
            assert!(
                close(r.checksum, reference(p), 1e-9),
                "chunk {chunk}: {} vs {}",
                r.checksum,
                reference(p)
            );
        }
    }

    #[test]
    fn water_matches_reference_page_grain() {
        // The "none" point of Figure 7: traditional page-size sharing.
        let p = WaterParams::small();
        let r = run_water(cfg(4, AllocMode::PageGrain), p);
        assert!(r.report.coherence_violations.is_empty());
        assert!(close(r.checksum, reference(p), 1e-9));
    }

    #[test]
    fn chunking_reduces_faults() {
        let p = WaterParams::small();
        let fine = run_water(cfg(4, AllocMode::FINE), p);
        let chunked = run_water(cfg(4, AllocMode::FineGrain { chunking: 6 }), p);
        let f1 = fine.report.read_faults + fine.report.write_faults;
        let f6 = chunked.report.read_faults + chunked.report.write_faults;
        assert!(
            f6 < f1,
            "chunking must reduce fault count: chunk1={f1} chunk6={f6}"
        );
    }

    #[test]
    fn molecules_use_6_views_at_fine_grain() {
        let p = WaterParams::small();
        let r = run_water(cfg(2, AllocMode::FINE), p);
        // 672-byte molecules → 6 per page → 6 views (Table 2). The
        // kinetic-energy cell lives on its own page in view 0, so the
        // dominant granularity is the molecule size.
        assert_eq!(r.report.alloc.views_used, 6);
        assert_eq!(r.report.alloc.max_granularity, 672);
    }
}
