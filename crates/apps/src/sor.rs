//! SOR — red/black successive over-relaxation (TreadMarks suite).
//!
//! The matrix is allocated **row by row**; §4.3: "There was no need to
//! modify SOR, as it uses a matrix which is allocated row by row. The
//! granularity of a row is suitable as the sharing unit." With the paper's
//! 64-column `f32` rows each row is a 256-byte minipage (Table 2), so the
//! band-partitioned solver only communicates its two boundary rows per
//! phase and false sharing is absent.

use crate::{band, cal, AppRun, TimedAgg};
use millipage::{run, ClusterConfig, Dsm, SetupCtx, SharedVec};

/// SOR workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct SorParams {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns (row bytes = 4·cols).
    pub cols: usize,
    /// Red/black iterations (each is two phases + two barriers).
    pub iters: usize,
}

impl SorParams {
    /// The paper's input set: 32768×64, 8 MB shared, 10 iterations
    /// (Table 2 reports 21 barriers: 2 per iteration plus the final one).
    pub fn paper() -> Self {
        Self {
            rows: 32768,
            cols: 64,
            iters: 10,
        }
    }

    /// A test-sized instance.
    pub fn small() -> Self {
        Self {
            rows: 64,
            cols: 16,
            iters: 4,
        }
    }

    /// Shared bytes.
    pub fn shared_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }
}

/// Deterministic initial value of element `(i, j)`: hot left edge, cold
/// interior.
fn initial(i: usize, j: usize, cols: usize) -> f32 {
    if j == 0 {
        1.0 + (i % 7) as f32 * 0.125
    } else if j == cols - 1 {
        -1.0
    } else {
        0.0
    }
}

/// One red/black phase over `rows_of_parity` on plain storage (the
/// sequential reference kernel; the parallel version runs the same
/// arithmetic in the same order per row).
fn relax_row(above: &[f32], row: &mut [f32], below: &[f32]) {
    let cols = row.len();
    for j in 1..cols - 1 {
        row[j] = 0.25 * (above[j] + below[j] + row[j - 1] + row[j + 1]);
    }
}

/// Sequential reference: returns the checksum (sum of all elements).
pub fn reference(p: SorParams) -> f64 {
    let mut m: Vec<Vec<f32>> = (0..p.rows)
        .map(|i| (0..p.cols).map(|j| initial(i, j, p.cols)).collect())
        .collect();
    for _ in 0..p.iters {
        for parity in [0usize, 1] {
            for i in 1..p.rows - 1 {
                if i % 2 == parity {
                    let (a, rest) = m.split_at_mut(i);
                    let (r, b) = rest.split_at_mut(1);
                    relax_row(&a[i - 1], &mut r[0], &b[0]);
                }
            }
        }
    }
    m.iter().flatten().map(|&x| x as f64).sum()
}

/// Handles shared by all hosts: one `SharedVec` per matrix row.
pub struct SorShared {
    rows: Vec<SharedVec<f32>>,
    params: SorParams,
}

/// Allocates the matrix row by row (values are written by the workers'
/// parallel initialization, which also claims row ownership).
pub fn setup(setup: &mut SetupCtx, p: SorParams) -> SorShared {
    let rows = (0..p.rows).map(|_| setup.alloc_vec(p.cols)).collect();
    SorShared { rows, params: p }
}

/// The per-host program, portable across backends: written against the
/// [`Dsm`] trait, it runs identically on the simulator's `HostCtx` and on
/// the real-memory backend's `HostDsmCtx`.
pub fn worker<D: Dsm>(ctx: &mut D, sh: &SorShared) {
    let p = sh.params;
    let hosts = ctx.hosts();
    let my = band(p.rows, hosts, ctx.host().index());
    // Parallel initialization: each host writes (and thereby owns) its
    // band, like the original benchmark; the timed region starts after.
    // The three rows a relaxation reads, in buffers the sweep keeps.
    let (mut above, mut row, mut below) = (vec![0.0; p.cols], vec![0.0; p.cols], vec![0.0; p.cols]);
    for i in my.clone() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = initial(i, j, p.cols);
        }
        ctx.write_range(&sh.rows[i], 0, &row);
    }
    ctx.barrier();
    ctx.timer_reset();
    for _ in 0..p.iters {
        for parity in [0usize, 1] {
            for i in my.clone() {
                if i % 2 != parity || i == 0 || i == p.rows - 1 {
                    continue;
                }
                // Boundary rows of neighbouring bands arrive by read fault;
                // interior neighbours are local after the first iteration.
                ctx.read_into(&sh.rows[i - 1], 0, &mut above);
                ctx.read_into(&sh.rows[i + 1], 0, &mut below);
                ctx.read_into(&sh.rows[i], 0, &mut row);
                relax_row(&above, &mut row, &below);
                ctx.compute(cal::SOR_ELEM_NS * (p.cols as u64 - 2));
                ctx.write_range(&sh.rows[i], 0, &row);
            }
            ctx.barrier();
        }
    }
    ctx.barrier();
}

/// Checksum as computed by host 0 after the final barrier.
pub fn checksum<D: Dsm>(ctx: &mut D, sh: &SorShared) -> f64 {
    let p = sh.params;
    let mut sum = 0.0f64;
    let mut buf = vec![0.0f32; p.cols];
    for row in &sh.rows {
        ctx.read_into(row, 0, &mut buf);
        for &v in &buf {
            sum += v as f64;
        }
    }
    sum
}

/// Runs SOR on a cluster configured by `cfg`.
pub fn run_sor(mut cfg: ClusterConfig, p: SorParams) -> AppRun {
    cfg.pages = cfg.pages.max(p.shared_bytes() / 4096 * 2 + 64);
    cfg.views = cfg.views.max((4096 / (p.cols * 4)).clamp(1, 32));
    let sum = std::sync::Mutex::new(0.0f64);
    let timed = TimedAgg::new();
    let report = run(
        cfg,
        |s| setup(s, p),
        |ctx, sh| {
            worker(ctx, sh);
            timed.record(ctx);
            if ctx.host().index() == 0 {
                *sum.lock().expect("checksum poisoned") = checksum(ctx, sh);
            }
        },
    );
    let (timed_ns, timed_breakdown) = timed.take();
    AppRun {
        report,
        checksum: sum.into_inner().expect("checksum poisoned"),
        timed_ns,
        timed_breakdown,
    }
}

/// Runs SOR on the real-memory backend (Linux): same workers, same
/// checksum, real SIGSEGV faults. The geometry mirrors [`run_sor`]'s
/// sizing with the real page size.
#[cfg(target_os = "linux")]
pub fn run_sor_host(hosts: usize, p: SorParams) -> Result<crate::HostAppRun, String> {
    run_sor_host_with(hosts, p, false, millipage::AdaptConfig::default())
}

/// [`run_sor_host`] with per-minipage sharing diagnostics recorded (the
/// counters `repro diagnose --backend host` cross-checks against the sim)
/// and the online adaptation engine configured by `adapt` (the run `repro
/// adapt --backend host` compares against the sim's actions).
#[cfg(target_os = "linux")]
pub fn run_sor_host_with(
    hosts: usize,
    p: SorParams,
    diag: bool,
    adapt: millipage::AdaptConfig,
) -> Result<crate::HostAppRun, String> {
    let page_size = 4096; // MultiViewRegion uses the system page size.
    let pages = p.shared_bytes() / page_size * 2 + 64;
    let views = (page_size / (p.cols * 4)).clamp(1, 32);
    let cfg = millipage::HostRunConfig {
        hosts,
        views,
        pages,
        diag,
        adapt,
    };
    let sum = std::sync::Mutex::new(0.0f64);
    let report = millipage::run_host(
        cfg,
        |s| setup(s, p),
        |ctx, sh| {
            worker(ctx, sh);
            if ctx.host().index() == 0 {
                *sum.lock().expect("checksum poisoned") = checksum(ctx, sh);
            }
        },
    )
    .map_err(|e| e.to_string())?;
    if !report.errors.is_empty() {
        return Err(report.errors.join("; "));
    }
    Ok(crate::HostAppRun {
        report,
        checksum: sum.into_inner().expect("checksum poisoned"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;
    use millipage::AllocMode;

    fn cfg(hosts: usize) -> ClusterConfig {
        ClusterConfig {
            hosts,
            views: 16,
            pages: 256,
            alloc_mode: AllocMode::FINE,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn sor_matches_reference_on_one_host() {
        let p = SorParams::small();
        let run = run_sor(cfg(1), p);
        assert!(run.report.coherence_violations.is_empty());
        assert!(
            close(run.checksum, reference(p), 1e-6),
            "{} vs {}",
            run.checksum,
            reference(p)
        );
    }

    #[test]
    fn sor_matches_reference_on_four_hosts() {
        let p = SorParams::small();
        let run = run_sor(cfg(4), p);
        assert!(run.report.coherence_violations.is_empty());
        assert!(
            close(run.checksum, reference(p), 1e-6),
            "{} vs {}",
            run.checksum,
            reference(p)
        );
        // Row-granularity sharing: only band-boundary rows move. For 4
        // hosts that is a handful of rows per phase, not the whole matrix.
        let phases = 2 * p.iters as u64;
        let boundary_budget = 8 * phases * 4;
        assert!(
            run.report.read_faults < boundary_budget,
            "read faults {} exceed boundary traffic budget {}",
            run.report.read_faults,
            boundary_budget
        );
    }

    #[test]
    fn sor_barrier_count_matches_table_2_shape() {
        // 2 barriers per iteration plus the final one (Table 2: 21 for
        // 10 iterations), plus the untimed initialization barrier.
        let p = SorParams::small();
        let run = run_sor(cfg(2), p);
        assert_eq!(run.report.barriers, 2 * p.iters as u64 + 2);
    }

    #[test]
    fn reference_is_deterministic() {
        let p = SorParams::small();
        assert_eq!(reference(p), reference(p));
    }
}
