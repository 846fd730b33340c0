//! IS — the NAS Integer Sort kernel (bucket-ranking core).
//!
//! §4.3: "IS allocates a shared portion of memory where the keys reside.
//! The array is relatively small and is divided into regions of equal size
//! where each host is in charge of another region. We modified the
//! allocation routine to have these regions allocated separately and thus
//! reside in different minipages."
//!
//! The shared state is the 2 KB bucket histogram (2⁹ buckets of `u32`),
//! split into `regions` separately-allocated 256-byte minipages (Table 2:
//! 8 views). Each iteration every host counts its private keys and then
//! merges its private histogram into the shared one region by region in a
//! rotated schedule with a barrier per step, so hosts always touch
//! disjoint regions — 9 barriers per iteration on 8 hosts, matching the
//! paper's 90 barriers for 10 iterations.

use crate::{band, cal, run_app, AppRun};
use millipage::{ClusterConfig, Dsm, SetupCtx, SharedVec};
use sim_core::SplitMix64;

/// IS workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct IsParams {
    /// Total keys (the paper: 2²³).
    pub keys: usize,
    /// Key value range / bucket count (the paper: 2⁹ = 512).
    pub max_key: usize,
    /// Ranking iterations (the paper's class sizes use 10).
    pub iters: usize,
    /// Histogram regions (the paper: 8 regions of 64 buckets = 256 B).
    pub regions: usize,
    /// Workload seed.
    pub seed: u64,
}

impl IsParams {
    /// The paper's input set: 2²³ keys, 2⁹ values, 10 iterations,
    /// 8 × 256 B regions.
    pub fn paper() -> Self {
        Self {
            keys: 1 << 23,
            max_key: 1 << 9,
            iters: 10,
            regions: 8,
            seed: 0x15AB,
        }
    }

    /// A test-sized instance.
    pub fn small() -> Self {
        Self {
            keys: 1 << 12,
            max_key: 1 << 7,
            iters: 3,
            regions: 8,
            seed: 0x15AB,
        }
    }

    fn buckets_per_region(&self) -> usize {
        self.max_key / self.regions
    }
}

/// The private keys of one host (deterministic per host and iteration
/// independent, like the NAS generator's per-process streams).
fn host_keys(p: IsParams, hosts: usize, host: usize) -> Vec<u32> {
    let r = band(p.keys, hosts, host);
    let mut rng = SplitMix64::new(p.seed ^ (host as u64) << 32);
    (r.start..r.end)
        .map(|_| rng.next_range(p.max_key as u64) as u32)
        .collect()
}

/// Sequential reference: the final histogram checksum
/// (Σ bucket · count · iters-invariant form).
pub fn reference(p: IsParams, hosts: usize) -> f64 {
    let mut hist = vec![0u64; p.max_key];
    for h in 0..hosts {
        for k in host_keys(p, hosts, h) {
            hist[k as usize] += 1;
        }
    }
    // Each iteration adds the same counts into the shared array.
    hist.iter()
        .enumerate()
        .map(|(b, &c)| (b as f64 + 1.0) * (c * p.iters as u64) as f64)
        .sum()
}

/// Shared handles: one `SharedVec<u32>` per histogram region.
pub struct IsShared {
    regions: Vec<SharedVec<u32>>,
    params: IsParams,
}

/// Allocates the region-split histogram.
pub fn setup(s: &mut SetupCtx, p: IsParams) -> IsShared {
    assert_eq!(p.max_key % p.regions, 0, "regions must divide max_key");
    let bpr = p.buckets_per_region();
    let regions = (0..p.regions)
        .map(|_| s.alloc_vec_init(&vec![0u32; bpr]))
        .collect();
    IsShared { regions, params: p }
}

/// The per-host program.
pub fn worker<D: Dsm>(ctx: &mut D, sh: &IsShared) {
    let p = sh.params;
    let hosts = ctx.hosts();
    let me = ctx.host().index();
    let keys = host_keys(p, hosts, me);
    let bpr = p.buckets_per_region();
    // Claim phase: host h owns region h (zero it), then start timing.
    if me < p.regions {
        ctx.write_range(&sh.regions[me], 0, &vec![0u32; bpr]);
    }
    ctx.barrier();
    ctx.timer_reset();
    for _ in 0..p.iters {
        // Local counting phase.
        let mut private = vec![0u32; p.max_key];
        for &k in &keys {
            private[k as usize] += 1;
        }
        ctx.compute(cal::IS_KEY_NS * keys.len() as u64);
        // Rotated merge: step s gives host h region (h + s) mod R, so all
        // hosts update disjoint regions between consecutive barriers.
        for s in 0..p.regions {
            let r = (me + s) % p.regions;
            let mut reg = ctx.read_range(&sh.regions[r], 0..bpr);
            for (b, slot) in reg.iter_mut().enumerate() {
                *slot += private[r * bpr + b];
            }
            ctx.compute(cal::IS_BUCKET_NS * bpr as u64);
            ctx.write_range(&sh.regions[r], 0, &reg);
            ctx.barrier();
        }
        ctx.barrier();
    }
}

/// Checksum over the shared histogram (host 0, after the final barrier).
pub fn checksum<D: Dsm>(ctx: &mut D, sh: &IsShared) -> f64 {
    let p = sh.params;
    let bpr = p.buckets_per_region();
    let mut sum = 0.0;
    for (r, reg) in sh.regions.iter().enumerate() {
        for (b, c) in ctx.read_range(reg, 0..bpr).into_iter().enumerate() {
            sum += ((r * bpr + b) as f64 + 1.0) * c as f64;
        }
    }
    sum
}

/// Runs IS on a cluster configured by `cfg`.
pub fn run_is(mut cfg: ClusterConfig, p: IsParams) -> AppRun {
    assert!(
        cfg.hosts <= p.regions,
        "the rotated merge needs at least as many regions as hosts"
    );
    cfg.views = cfg.views.max(p.regions);
    run_app(cfg, |s| setup(s, p), worker, checksum)
}

/// Runs IS on the real-memory backend (Linux): same workers, same
/// checksum, real SIGSEGV faults. `diag` records per-minipage sharing
/// diagnostics (the counters `repro diagnose --backend host` cross-checks
/// against the sim).
#[cfg(target_os = "linux")]
pub fn run_is_host(hosts: usize, p: IsParams, diag: bool) -> Result<crate::HostAppRun, String> {
    assert!(
        hosts <= p.regions,
        "the rotated merge needs at least as many regions as hosts"
    );
    let cfg = millipage::HostRunConfig {
        hosts,
        views: p.regions.max(4),
        pages: 64,
        diag,
        adapt: millipage::AdaptConfig::default(),
    };
    crate::run_app_host(cfg, |s| setup(s, p), worker, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;

    fn cfg(hosts: usize) -> ClusterConfig {
        ClusterConfig {
            hosts,
            views: 8,
            pages: 64,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn is_matches_reference_single_host() {
        let p = IsParams::small();
        let r = run_is(cfg(1), p);
        assert!(r.report.coherence_violations.is_empty());
        assert!(close(r.checksum, reference(p, 1), 1e-9));
    }

    #[test]
    fn is_matches_reference_eight_hosts() {
        let p = IsParams::small();
        let r = run_is(cfg(8), p);
        assert!(r.report.coherence_violations.is_empty());
        assert!(
            close(r.checksum, reference(p, 8), 1e-9),
            "{} vs {}",
            r.checksum,
            reference(p, 8)
        );
    }

    #[test]
    fn is_barrier_count_matches_table_2_shape() {
        // (regions + 1) barriers per iteration: Table 2 reports 90 for 10
        // iterations on 8 regions.
        let p = IsParams::small();
        let r = run_is(cfg(4), p);
        // Plus the untimed initialization barrier.
        assert_eq!(r.report.barriers, ((p.regions + 1) * p.iters + 1) as u64);
    }

    #[test]
    fn is_uses_8_views_and_2kb_shared() {
        let p = IsParams::small();
        let r = run_is(cfg(8), p);
        // 128 buckets in 8 regions of 64 B each → 8 views, one per region.
        assert_eq!(r.report.alloc.views_used, 8);
        assert_eq!(r.report.alloc.bytes_requested, (p.max_key * 4) as u64);
    }

    #[test]
    fn host_keys_are_deterministic_and_partitioned() {
        let p = IsParams::small();
        let a = host_keys(p, 4, 2);
        let b = host_keys(p, 4, 2);
        assert_eq!(a, b);
        let total: usize = (0..4).map(|h| host_keys(p, 4, h).len()).sum();
        assert_eq!(total, p.keys);
        assert!(a.iter().all(|&k| (k as usize) < p.max_key));
    }
}
