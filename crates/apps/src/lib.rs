//! The paper's application suite (§4.3, Table 2) on the Millipage DSM.
//!
//! | App   | Input set (paper)              | Sharing granularity    |
//! |-------|--------------------------------|------------------------|
//! | SOR   | 32768×64 matrices              | a row, 256 bytes       |
//! | IS    | 2²³ numbers, 2⁹ values         | 256 bytes              |
//! | WATER | 512 molecules                  | a molecule, 672 bytes  |
//! | LU    | 1024×1024 matrix, 32×32 blocks | a block, 4 KB          |
//! | TSP   | 19 cities, recursion level 12  | a tour, 148 bytes      |
//!
//! Every application follows the paper's allocation discipline ("the code
//! for memory allocation ... was slightly modified in order to equate the
//! allocations and the sharing units"): SOR allocates row by row, IS
//! allocates its histogram region by region, WATER allocates each molecule
//! separately, LU allocates 4 KB blocks, and TSP allocates each tour
//! element separately.
//!
//! Each module exposes a `Params` type (with `paper()` and `small()`
//! presets), a per-host `worker`, a `checksum` host 0 computes after the
//! final barrier, and a deterministic sequential reference used by the
//! tests to validate the parallel result. Its `run_*` entry point sizes
//! the cluster for the input and hands all three to one driver, which
//! times the region the paper measures (§4.3): each thread's timed region
//! is taken when its worker returns, so the checksum falls outside it.
//! The simulator's driver returns an [`AppRun`]; SOR and IS also run on
//! the real-memory backend through its driver, returning a
//! [`HostAppRun`].

pub mod is;
pub mod lu;
pub mod sor;
pub mod tsp;
pub mod water;

use millipage::{ClusterConfig, HostCtx, Ns, RunReport, SetupCtx, TimeBreakdown};
use std::sync::Mutex;

/// Calibration of application compute charges, approximating the paper's
/// 300 MHz Pentium II (§4): a handful of dependent ALU/FPU operations plus
/// cache traffic per abstract "work unit".
pub mod cal {
    use millipage::Ns;

    /// One SOR stencil element update (4 loads, 3 adds, 1 mul, 1 store —
    /// roughly 18 cycles at 300 MHz with cache traffic).
    pub const SOR_ELEM_NS: Ns = 60;
    /// Counting one IS key into the private histogram (load, index,
    /// increment, store, loop — random-access cache misses included).
    pub const IS_KEY_NS: Ns = 100;
    /// Merging one histogram bucket into the shared array.
    pub const IS_BUCKET_NS: Ns = 50;
    /// One WATER pairwise interaction: the water-water potential
    /// evaluates nine site-site distances with square roots and the
    /// polynomial terms — several hundred FLOPs, i.e. mid-single-digit
    /// microseconds on the 300 MHz testbed.
    pub const WATER_PAIR_NS: Ns = 8_000;
    /// One fused multiply-add in an LU block kernel.
    pub const LU_FLOP_NS: Ns = 7;
    /// Evaluating one TSP search node (bound computation over the
    /// remaining cities).
    pub const TSP_NODE_NS: Ns = 1_000;
}

/// Result of one parallel application run.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// The cluster run report (timings, faults, protocol counters).
    pub report: RunReport,
    /// An application-defined checksum of the computed result, comparable
    /// against the sequential reference.
    pub checksum: f64,
    /// Virtual time of the timed region (max over hosts): initialization
    /// and data distribution excluded, the way the paper's benchmarks
    /// measure.
    pub timed_ns: Ns,
    /// Figure 6 breakdown of the timed region.
    pub timed_breakdown: TimeBreakdown,
}

impl AppRun {
    /// Speedup of this run's timed region over a 1-host timed region.
    pub fn speedup(&self, t1_timed: Ns) -> f64 {
        t1_timed as f64 / self.timed_ns.max(1) as f64
    }
}

/// Result of one application run on the real-memory backend (Linux):
/// real SIGSEGV fault counts instead of simulated ones.
#[cfg(target_os = "linux")]
#[derive(Clone, Debug)]
pub struct HostAppRun {
    /// The host-backend run report (real fault counters, wall time).
    pub report: millipage::HostRunReport,
    /// The application checksum, comparable against both the sequential
    /// reference and the simulator run's checksum.
    pub checksum: f64,
}

/// Runs an application on a simulated cluster: `worker` on every
/// application thread, whose timed region is taken when it returns, then
/// `checksum` on host 0.
pub(crate) fn run_app<S: Send + Sync>(
    cfg: ClusterConfig,
    setup: impl FnOnce(&mut SetupCtx) -> S,
    worker: impl Fn(&mut HostCtx, &S) + Send + Sync,
    checksum: impl Fn(&mut HostCtx, &S) -> f64 + Send + Sync,
) -> AppRun {
    let out = Mutex::new((0, TimeBreakdown::new(), 0.0));
    let report = millipage::run(cfg, setup, |ctx, sh| {
        worker(ctx, sh);
        let (timed, breakdown) = (ctx.timed(), ctx.timed_breakdown());
        let sum = (ctx.host().index() == 0).then(|| checksum(ctx, sh));
        let mut out = out.lock().expect("run result poisoned");
        out.0 = out.0.max(timed);
        out.1.merge(&breakdown);
        out.2 = sum.unwrap_or(out.2);
    });
    let (timed_ns, timed_breakdown, checksum) = out.into_inner().expect("run result poisoned");
    AppRun {
        report,
        checksum,
        timed_ns,
        timed_breakdown,
    }
}

/// [`run_app`] on the real-memory backend: `worker` on every application
/// thread, then `checksum` on host 0. A report that carries errors is an
/// `Err` naming them.
#[cfg(target_os = "linux")]
pub(crate) fn run_app_host<S: Send + Sync>(
    cfg: millipage::HostRunConfig,
    setup: impl FnOnce(&mut SetupCtx) -> S + Send,
    worker: impl Fn(&mut millipage::HostDsmCtx, &S) + Send + Sync,
    checksum: impl Fn(&mut millipage::HostDsmCtx, &S) -> f64 + Send + Sync,
) -> Result<HostAppRun, String> {
    use millipage::Dsm;
    let sum = Mutex::new(0.0);
    let report = millipage::run_host(cfg, setup, |ctx, sh| {
        worker(ctx, sh);
        if ctx.host().index() == 0 {
            *sum.lock().expect("checksum poisoned") = checksum(ctx, sh);
        }
    })
    .map_err(|e| e.to_string())?;
    if !report.errors.is_empty() {
        return Err(report.errors.join("; "));
    }
    let checksum = sum.into_inner().expect("checksum poisoned");
    Ok(HostAppRun { report, checksum })
}

/// Relative comparison for checksums (LU/SOR accumulate rounding in a
/// host-count-dependent order).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-12);
    (a - b).abs() / scale <= rel
}

/// Splits `n` items into `parts` contiguous chunks; returns the half-open
/// range owned by `part`.
pub fn band(n: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    let base = n / parts;
    let extra = n % parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_partitions_exactly() {
        for n in [0usize, 1, 7, 64, 100] {
            for p in [1usize, 2, 3, 8] {
                let mut total = 0;
                let mut next = 0;
                for h in 0..p {
                    let r = band(n, p, h);
                    assert_eq!(r.start, next, "bands must be contiguous");
                    next = r.end;
                    total += r.len();
                }
                assert_eq!(total, n);
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn band_balance_is_within_one() {
        let sizes: Vec<usize> = (0..8).map(|h| band(100, 8, h).len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    /// The timed region ends where the worker returns: a checksum that
    /// charges compute moves the run's virtual time, not its timed region.
    #[test]
    fn the_checksum_is_outside_the_timed_region() {
        let p = sor::SorParams::small();
        let cfg = ClusterConfig {
            hosts: 2,
            views: 32,
            pages: 256,
            ..ClusterConfig::default()
        };
        let plain = run_app(
            cfg.clone(),
            |s| sor::setup(s, p),
            sor::worker,
            sor::checksum,
        );
        let slow = run_app(
            cfg,
            |s| sor::setup(s, p),
            sor::worker,
            |ctx, sh| {
                ctx.compute(1_000_000);
                sor::checksum(ctx, sh)
            },
        );
        assert_eq!(plain.timed_ns, slow.timed_ns);
        assert_eq!(plain.timed_breakdown, slow.timed_breakdown);
        assert_ne!(plain.report.virtual_time, slow.report.virtual_time);
        assert_eq!(plain.checksum, slow.checksum);
    }

    #[test]
    fn close_tolerates_relative_error() {
        assert!(close(100.0, 100.0 + 1e-7, 1e-8));
        assert!(!close(100.0, 101.0, 1e-6));
        assert!(close(0.0, 0.0, 1e-12));
    }
}
