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
//! presets), a parallel `run_*` entry point returning an [`AppRun`], and a
//! deterministic sequential reference used by the tests to validate the
//! parallel result.

pub mod is;
pub mod lu;
pub mod sor;
pub mod tsp;
pub mod water;

use millipage::{HostCtx, Ns, RunReport, TimeBreakdown};
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

/// Aggregates the timed regions of all application threads of a run.
#[derive(Default)]
pub struct TimedAgg {
    inner: Mutex<(Ns, TimeBreakdown)>,
}

impl TimedAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one thread's timed region (call right after the final
    /// barrier).
    pub fn record(&self, ctx: &HostCtx) {
        let mut a = self.inner.lock().expect("accumulator poisoned");
        a.0 = a.0.max(ctx.timed());
        a.1.merge(&ctx.timed_breakdown());
    }

    /// The aggregate (max time, merged breakdown).
    pub fn take(self) -> (Ns, TimeBreakdown) {
        self.inner.into_inner().expect("accumulator poisoned")
    }
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

    #[test]
    fn close_tolerates_relative_error() {
        assert!(close(100.0, 100.0 + 1e-7, 1e-8));
        assert!(!close(100.0, 101.0, 1e-6));
        assert!(close(0.0, 0.0, 1e-12));
    }
}
