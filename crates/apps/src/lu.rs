//! LU — the SPLASH-2 contiguous-blocks LU factorization.
//!
//! §4.3: "it was not necessary to modify LU, as it builds a matrix by
//! allocating sub-blocks, each of size 32×32×|int| = 4 KB. Since the
//! granularity of these sub-blocks is suitable as the sharing unit, the
//! size of a minipage may be set equal to that of a 4 KB page" — hence
//! Table 2's single view.
//!
//! §4.3.1: "in order to minimize the large minipage service delays ... we
//! inserted two prefetch calls during the LU computation": before each
//! interior block update the worker prefetches the pivot-column and
//! pivot-row blocks it will need next, overlapping the fetch with the
//! current block kernel.
//!
//! The factorization is right-looking blocked LU without pivoting on a
//! diagonally dominant matrix; every block kernel runs a fixed arithmetic
//! order, so the parallel result is bitwise equal to the sequential
//! reference.

use crate::{cal, run_app, AppRun};
use millipage::{ClusterConfig, HostCtx, SetupCtx, SharedVec};
use sim_core::SplitMix64;

/// LU workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct LuParams {
    /// Matrix dimension (the paper: 1024).
    pub n: usize,
    /// Block dimension (the paper: 32 → 4 KB `f32` blocks).
    pub block: usize,
    /// Workload seed.
    pub seed: u64,
}

impl LuParams {
    /// The paper's input set: 1024×1024, 32×32 blocks.
    pub fn paper() -> Self {
        Self {
            n: 1024,
            block: 32,
            seed: 0x10,
        }
    }

    /// A test-sized instance.
    pub fn small() -> Self {
        Self {
            n: 96,
            block: 16,
            seed: 0x10,
        }
    }

    /// Blocks per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not divide `n`: the blocked algorithm has no
    /// ragged edge, and would drop the remainder rows without saying so.
    pub fn nb(&self) -> usize {
        assert_eq!(self.n % self.block, 0, "block must divide n");
        self.n / self.block
    }
}

/// Element `(i, j)` of the input, given the generator positioned at draw
/// `i·n + j` (every element consumes one draw, the diagonal's unused).
fn entry(rng: &mut SplitMix64, n: usize, i: usize, j: usize) -> f32 {
    let noise = (rng.next_f64() - 0.5) as f32;
    if i == j {
        n as f32
    } else {
        noise
    }
}

/// Deterministic, diagonally dominant input: `A = n·I + noise`.
fn initial(p: LuParams) -> Vec<f32> {
    let mut rng = SplitMix64::new(p.seed);
    let n = p.n;
    let mut a = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = entry(&mut rng, n, i, j);
        }
    }
    a
}

/// Block `(bi, bj)` of [`initial`] without the matrix around it: the
/// generator is counter-based, so each block row starts at its own draw.
fn initial_block(p: LuParams, bi: usize, bj: usize) -> Vec<f32> {
    let (n, b) = (p.n, p.block);
    let mut out = Vec::with_capacity(b * b);
    for i in bi * b..(bi + 1) * b {
        let mut rng = SplitMix64::new(p.seed);
        rng.skip((i * n + bj * b) as u64);
        out.extend((bj * b..(bj + 1) * b).map(|j| entry(&mut rng, n, i, j)));
    }
    out
}

/// Extracts block `(bi, bj)` from a row-major matrix (block-contiguous
/// copy-in, like SPLASH's layout transformation).
fn extract_block(a: &[f32], p: LuParams, bi: usize, bj: usize) -> Vec<f32> {
    let (n, b) = (p.n, p.block);
    let mut out = vec![0.0f32; b * b];
    for r in 0..b {
        let src = (bi * b + r) * n + bj * b;
        out[r * b..(r + 1) * b].copy_from_slice(&a[src..src + b]);
    }
    out
}

/// `out[j] -= xs[k]·rows[k·stride + j]` for every column `j` of `out` and
/// every `k`, ascending in `k` for each element: the inner product all four
/// block kernels are made of. `SKIP` passes over a zero `xs[k]`, which is
/// not the same as subtracting its products (`-0.0`, or a non-finite
/// `rows` entry), so a kernel either always skips or never does.
///
/// The row is cut into column strips and a strip stays in a local array
/// from the first `k` to the last, so the `k` loop neither stores nor
/// reloads it. Each strip is the widest that still fits: 32 `f32`s are
/// half the vector registers of baseline x86-64, enough independent
/// subtractions in flight to hide their latency.
fn row_sub<const SKIP: bool>(out: &mut [f32], xs: &[f32], rows: &[f32], stride: usize) {
    let widths = [
        strips::<32, SKIP>,
        strips::<16, SKIP>,
        strips::<8, SKIP>,
        strips::<4, SKIP>,
        strips::<2, SKIP>,
        strips::<1, SKIP>,
    ];
    let mut done = 0;
    for strips_of_width in widths {
        done = strips_of_width(out, xs, rows, stride, done);
    }
}

/// [`row_sub`] on every `W`-wide strip that fits from column `j0` on;
/// returns the first column left over.
fn strips<const W: usize, const SKIP: bool>(
    out: &mut [f32],
    xs: &[f32],
    rows: &[f32],
    stride: usize,
    mut j0: usize,
) -> usize {
    while j0 + W <= out.len() {
        let strip = &mut out[j0..j0 + W];
        let mut acc: [f32; W] = (&*strip).try_into().expect("W columns");
        for (k, &x) in xs.iter().enumerate() {
            if SKIP && x == 0.0 {
                continue;
            }
            let u: &[f32; W] = rows[k * stride + j0..][..W].try_into().expect("W columns");
            for (a, &u) in acc.iter_mut().zip(u) {
                *a -= x * u;
            }
        }
        strip.copy_from_slice(&acc);
        j0 += W;
    }
    j0
}

/// Columns [`eliminate`] finishes at a time: wide enough for a strip of
/// [`row_sub`], narrow enough that most of a row's steps lie left of it.
const SOLVE_COLS: usize = 8;

/// The first `steps` steps of a forward elimination of `row` against the
/// upper triangle in `upper` (rows of `b`): step `k` scales `row[k]` by
/// `1/upper(k,k)` and subtracts its multiple of `upper(k, k+1..)` from the
/// rest of the row. A tile of columns takes the steps left of it through
/// [`row_sub`], then its own triangle in place.
fn eliminate(row: &mut [f32], upper: &[f32], b: usize, steps: usize) {
    for j0 in (0..b).step_by(SOLVE_COLS) {
        let (left, rest) = row.split_at_mut(j0);
        let tile = &mut rest[..SOLVE_COLS.min(b - j0)];
        row_sub::<false>(tile, &left[..j0.min(steps)], &upper[j0..], b);
        for k in j0..(j0 + tile.len()).min(steps) {
            let t = k - j0;
            let x = tile[t] / upper[k * b + k];
            tile[t] = x;
            for s in t + 1..tile.len() {
                tile[s] -= x * upper[k * b + j0 + s];
            }
        }
    }
}

/// In-place unblocked LU of the diagonal block (fixed order, no pivot):
/// row `i` is eliminated against the finished rows above it.
fn factor_diag(d: &mut [f32], b: usize) {
    for i in 1..b {
        let (upper, rest) = d.split_at_mut(i * b);
        eliminate(&mut rest[..b], upper, b, i);
    }
}

/// Solves `L·X = A` in place for a block below the diagonal (column
/// panel): `A(i,k) ← A(i,k)·U(k,k)⁻¹`.
fn update_col(blk: &mut [f32], diag: &[f32], b: usize) {
    for row in blk.chunks_exact_mut(b) {
        eliminate(row, diag, b, b);
    }
}

/// Solves for a block right of the diagonal (row panel):
/// `A(k,j) ← L(k,k)⁻¹·A(k,j)` with unit lower-triangular `L`.
fn update_row(blk: &mut [f32], diag: &[f32], b: usize) {
    for i in 1..b {
        let (above, rest) = blk.split_at_mut(i * b);
        row_sub::<false>(&mut rest[..b], &diag[i * b..i * b + i], above, b);
    }
}

/// Interior update: `A(i,j) -= L(i,k)·U(k,j)`.
fn update_interior(blk: &mut [f32], l: &[f32], u: &[f32], b: usize) {
    for (row, xs) in blk.chunks_exact_mut(b).zip(l.chunks_exact(b)) {
        row_sub::<true>(row, xs, u, b);
    }
}

/// The blocked factorization of `a` on plain memory: the algorithm of
/// [`worker`], one block at a time.
fn factor_blocks(a: &[f32], p: LuParams) -> Vec<Vec<f32>> {
    let nb = p.nb();
    let b = p.block;
    let mut blocks: Vec<Vec<f32>> = (0..nb * nb)
        .map(|idx| extract_block(a, p, idx / nb, idx % nb))
        .collect();
    // A block being written is lifted out of the grid, so its operands
    // are read where they lie.
    for k in 0..nb {
        let mut diag = std::mem::take(&mut blocks[k * nb + k]);
        factor_diag(&mut diag, b);
        for i in k + 1..nb {
            update_col(&mut blocks[i * nb + k], &diag, b);
            update_row(&mut blocks[k * nb + i], &diag, b);
        }
        blocks[k * nb + k] = diag;
        for i in k + 1..nb {
            for j in k + 1..nb {
                let mut blk = std::mem::take(&mut blocks[i * nb + j]);
                update_interior(&mut blk, &blocks[i * nb + k], &blocks[k * nb + j], b);
                blocks[i * nb + j] = blk;
            }
        }
    }
    blocks
}

/// Sequential reference: runs the identical blocked algorithm on plain
/// memory and returns the checksum (sum of the factored matrix).
pub fn reference(p: LuParams) -> f64 {
    // Declared first, freed last: freeing the matrix before the blocks
    // raises glibc's trim threshold past them and they stay resident.
    let a = initial(p);
    let blocks = factor_blocks(&a, p);
    blocks.iter().flatten().map(|&x| x as f64).sum()
}

/// Shared handles: the nb×nb grid of 4 KB blocks.
pub struct LuShared {
    blocks: Vec<SharedVec<f32>>,
    params: LuParams,
}

/// Owner of block `(i, j)`: 2-D scatter, the SPLASH assignment.
fn owner(i: usize, j: usize, nb: usize, hosts: usize) -> usize {
    (i + j * nb) % hosts
}

/// Allocates the matrix block by block (4 KB allocations, view 0 only);
/// block contents are written by their owners in the claim phase.
pub fn setup(s: &mut SetupCtx, p: LuParams) -> LuShared {
    let nb = p.nb();
    let blocks = (0..nb * nb)
        .map(|_| s.alloc_vec(p.block * p.block))
        .collect();
    LuShared { blocks, params: p }
}

/// The per-host program.
pub fn worker(ctx: &mut HostCtx, sh: &LuShared) {
    let p = sh.params;
    let nb = p.nb();
    let b = p.block;
    let bb = b * b;
    let hosts = ctx.hosts();
    let me = ctx.host().index();
    let flops_panel = (bb * b) as u64;
    // Claim phase: every owner initializes its blocks from the
    // deterministic input matrix, then the factorization is timed.
    for bi in 0..nb {
        for bj in 0..nb {
            if owner(bi, bj, nb, hosts) == me {
                ctx.write_range(&sh.blocks[bi * nb + bj], 0, &initial_block(p, bi, bj));
            }
        }
    }
    ctx.barrier();
    ctx.timer_reset();
    // Operand buffers, read into again at every block update.
    let [mut diag, mut l, mut u, mut blk] = [(); 4].map(|()| vec![0.0f32; bb]);
    for k in 0..nb {
        let kk = &sh.blocks[k * nb + k];
        // Factor the diagonal block (its owner only).
        if owner(k, k, nb, hosts) == me {
            ctx.read_into(kk, 0, &mut diag);
            factor_diag(&mut diag, b);
            ctx.compute(cal::LU_FLOP_NS * flops_panel / 3);
            ctx.write_range(kk, 0, &diag);
        }
        ctx.barrier();
        // Perimeter panels; the first one this host owns fetches the
        // factored diagonal.
        let mut have_diag = false;
        for i in k + 1..nb {
            for (bi, bj, col) in [(i, k, true), (k, i, false)] {
                if owner(bi, bj, nb, hosts) != me {
                    continue;
                }
                if !have_diag {
                    ctx.read_into(kk, 0, &mut diag);
                    have_diag = true;
                }
                let panel = &sh.blocks[bi * nb + bj];
                ctx.read_into(panel, 0, &mut blk);
                if col {
                    update_col(&mut blk, &diag, b);
                } else {
                    update_row(&mut blk, &diag, b);
                }
                ctx.compute(cal::LU_FLOP_NS * flops_panel);
                ctx.write_range(panel, 0, &blk);
            }
        }
        ctx.barrier();
        // Interior updates: collect my blocks first so the next update's
        // operands can be prefetched while the current kernel runs — the
        // paper's "two prefetch calls" (§4.3.1).
        let mine: Vec<(usize, usize)> = (k + 1..nb)
            .flat_map(|i| (k + 1..nb).map(move |j| (i, j)))
            .filter(|&(i, j)| owner(i, j, nb, hosts) == me)
            .collect();
        if let Some(&(i0, j0)) = mine.first() {
            ctx.prefetch_vec(&sh.blocks[i0 * nb + k]);
            ctx.prefetch_vec(&sh.blocks[k * nb + j0]);
        }
        for (t, &(i, j)) in mine.iter().enumerate() {
            if let Some(&(ni, nj)) = mine.get(t + 1) {
                ctx.prefetch_vec(&sh.blocks[ni * nb + k]);
                ctx.prefetch_vec(&sh.blocks[k * nb + nj]);
            }
            ctx.read_into(&sh.blocks[i * nb + k], 0, &mut l);
            ctx.read_into(&sh.blocks[k * nb + j], 0, &mut u);
            ctx.read_into(&sh.blocks[i * nb + j], 0, &mut blk);
            update_interior(&mut blk, &l, &u, b);
            ctx.compute(cal::LU_FLOP_NS * 2 * flops_panel);
            ctx.write_range(&sh.blocks[i * nb + j], 0, &blk);
        }
        ctx.barrier();
    }
}

/// Checksum (host 0, after the final barrier): sum of the factored matrix.
pub fn checksum(ctx: &mut HostCtx, sh: &LuShared) -> f64 {
    let mut vals = vec![0.0f32; sh.params.block * sh.params.block];
    let mut sum = 0.0f64;
    for blk in &sh.blocks {
        ctx.read_into(blk, 0, &mut vals);
        for &v in &vals {
            sum += v as f64;
        }
    }
    sum
}

/// Runs LU on a cluster configured by `cfg`.
pub fn run_lu(mut cfg: ClusterConfig, p: LuParams) -> AppRun {
    let bytes = p.n * p.n * 4;
    cfg.pages = cfg.pages.max(bytes / 4096 + 128);
    run_app(cfg, |s| setup(s, p), worker, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;
    use proptest::prelude::*;

    /// The block kernels as the triple loops they were written as: the
    /// specification — which operations reach each element, in which
    /// order — that the strip kernels are held to, bit for bit.
    mod spec {
        pub fn factor_diag(d: &mut [f32], b: usize) {
            for k in 0..b {
                let pivot = d[k * b + k];
                for i in k + 1..b {
                    d[i * b + k] /= pivot;
                    let l = d[i * b + k];
                    for j in k + 1..b {
                        d[i * b + j] -= l * d[k * b + j];
                    }
                }
            }
        }

        pub fn update_col(blk: &mut [f32], diag: &[f32], b: usize) {
            for i in 0..b {
                for k in 0..b {
                    let x = blk[i * b + k] / diag[k * b + k];
                    blk[i * b + k] = x;
                    for j in k + 1..b {
                        blk[i * b + j] -= x * diag[k * b + j];
                    }
                }
            }
        }

        pub fn update_row(blk: &mut [f32], diag: &[f32], b: usize) {
            for k in 0..b {
                for i in k + 1..b {
                    let l = diag[i * b + k];
                    for j in 0..b {
                        blk[i * b + j] -= l * blk[k * b + j];
                    }
                }
            }
        }

        pub fn update_interior(blk: &mut [f32], l: &[f32], u: &[f32], b: usize) {
            for i in 0..b {
                for k in 0..b {
                    let x = l[i * b + k];
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..b {
                        blk[i * b + j] -= x * u[k * b + j];
                    }
                }
            }
        }
    }

    /// A `b`×`b` block of noise in (-0.5, 0.5) with one entry in five a
    /// zero of either sign; `dominant` puts 2 + noise on the diagonal, so
    /// it can be divided by.
    fn noise_block(rng: &mut SplitMix64, b: usize, dominant: bool) -> Vec<f32> {
        (0..b * b)
            .map(|at| {
                let x = (rng.next_f64() - 0.5) as f32;
                match rng.next_u64() % 10 {
                    _ if dominant && at / b == at % b => 2.0 + x,
                    0 => 0.0,
                    1 => -0.0,
                    _ => x,
                }
            })
            .collect()
    }

    fn bits(block: &[f32]) -> Vec<u32> {
        block.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every block size from one column to more than the widest strip
        /// — all strip widths, with and without a remainder — and zeros
        /// of both signs among the multipliers and the operands.
        #[test]
        fn the_strip_kernels_are_the_triple_loops_bit_for_bit(seed in any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            for b in 1..=40 {
                let blk = noise_block(&mut rng, b, false);
                let l = noise_block(&mut rng, b, false);
                let u = noise_block(&mut rng, b, false);
                let diag = noise_block(&mut rng, b, true);
                type Kernel<'a> = &'a dyn Fn(&mut [f32]);
                let kernels: [(&str, &[f32], Kernel, Kernel); 4] = [
                    ("factor_diag", &diag,
                        &|d| factor_diag(d, b), &|d| spec::factor_diag(d, b)),
                    ("update_col", &blk,
                        &|x| update_col(x, &diag, b), &|x| spec::update_col(x, &diag, b)),
                    ("update_row", &blk,
                        &|x| update_row(x, &diag, b), &|x| spec::update_row(x, &diag, b)),
                    ("update_interior", &blk,
                        &|x| update_interior(x, &l, &u, b), &|x| spec::update_interior(x, &l, &u, b)),
                ];
                for (name, input, strips, loops) in kernels {
                    let (mut got, mut want) = (input.to_vec(), input.to_vec());
                    strips(&mut got);
                    loops(&mut want);
                    prop_assert_eq!(bits(&got), bits(&want), "{}, b = {}", name, b);
                }
            }
        }
    }

    /// The checksums as recorded at PR 21's commit, before the kernels
    /// were rewritten: the reference and the DSM run, at any host count,
    /// add the same numbers in the same order.
    #[test]
    fn checksums_are_pinned_to_the_bit() {
        for (p, pin) in [
            (LuParams::small(), 0x40c2_14dd_cf77_3dbc_u64),
            (LuParams::paper(), 0x4130_0005_53a5_f6f8),
        ] {
            assert_eq!(reference(p).to_bits(), pin, "reference, n = {}", p.n);
            for hosts in [1, 4] {
                let r = run_lu(cfg(hosts), p);
                assert_eq!(r.checksum.to_bits(), pin, "n = {}, {hosts} hosts", p.n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "block must divide n")]
    fn a_ragged_matrix_is_refused() {
        reference(LuParams {
            n: 100,
            block: 16,
            seed: 1,
        });
    }

    fn cfg(hosts: usize) -> ClusterConfig {
        ClusterConfig {
            hosts,
            views: 4,
            pages: 256,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn a_block_generated_alone_is_the_block_of_the_whole_matrix() {
        let small = LuParams::small();
        let all = (0..small.nb()).flat_map(|bi| (0..small.nb()).map(move |bj| (bi, bj)));
        let last = LuParams::paper().nb() - 1;
        let corners = [(0, 0), (0, last), (last, 0), (last, last)];
        for (p, blocks) in [
            (small, all.collect::<Vec<_>>()),
            (LuParams::paper(), corners.to_vec()),
        ] {
            let a = initial(p);
            for (bi, bj) in blocks {
                assert_eq!(
                    initial_block(p, bi, bj),
                    extract_block(&a, p, bi, bj),
                    "n = {}, block ({bi}, {bj})",
                    p.n
                );
            }
        }
    }

    #[test]
    fn lu_matches_reference_single_host() {
        let p = LuParams::small();
        let r = run_lu(cfg(1), p);
        assert!(r.report.coherence_violations.is_empty());
        assert!(
            close(r.checksum, reference(p), 1e-9),
            "{} vs {}",
            r.checksum,
            reference(p)
        );
    }

    #[test]
    fn lu_matches_reference_four_hosts() {
        let p = LuParams::small();
        let r = run_lu(cfg(4), p);
        assert!(r.report.coherence_violations.is_empty());
        // Identical per-block arithmetic order: bitwise-equal result.
        assert_eq!(r.checksum, reference(p), "blocked LU must be exact");
    }

    #[test]
    fn lu_factorization_is_correct() {
        // L·U must reproduce the original matrix (small dense check).
        let p = LuParams {
            n: 32,
            block: 16,
            seed: 7,
        };
        let r = run_lu(cfg(2), p);
        assert!(r.report.coherence_violations.is_empty());
        // Reference check: rebuild A from the reference factorization.
        let a = initial(p);
        let nb = p.nb();
        let b = p.block;
        let blocks = factor_blocks(&a, p);
        // Dense L and U.
        let n = p.n;
        let get = |bi: usize, bj: usize, r: usize, c: usize| blocks[bi * nb + bj][r * b + c];
        let mut prod = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0f64;
                for k in 0..=i.min(j) {
                    let l = if k == i {
                        1.0
                    } else if k < i {
                        get(i / b, k / b, i % b, k % b) as f64
                    } else {
                        0.0
                    };
                    let u = if k <= j {
                        get(k / b, j / b, k % b, j % b) as f64
                    } else {
                        0.0
                    };
                    s += l * u;
                }
                prod[i * n + j] = s;
            }
        }
        for i in 0..n {
            for j in 0..n {
                let want = a[i * n + j] as f64;
                let got = prod[i * n + j];
                assert!(
                    (want - got).abs() < 1e-2,
                    "A[{i}][{j}]: {want} vs L·U {got}"
                );
            }
        }
    }

    #[test]
    fn lu_uses_single_view_and_page_granularity() {
        let p = LuParams {
            n: 64,
            block: 32,
            seed: 3,
        };
        let r = run_lu(cfg(2), p);
        // 32×32 f32 blocks are 4 KB: whole-page minipages in view 0.
        assert_eq!(r.report.alloc.views_used, 1);
        assert_eq!(r.report.alloc.min_granularity, 4096);
        assert_eq!(r.report.alloc.max_granularity, 4096);
    }

    #[test]
    fn lu_issues_prefetches_on_multiple_hosts() {
        let p = LuParams::small();
        let r = run_lu(cfg(4), p);
        assert!(r.report.prefetches > 0, "LU must prefetch pivot panels");
    }

    #[test]
    fn lu_barriers_are_three_per_step() {
        let p = LuParams::small();
        let r = run_lu(cfg(2), p);
        // Three per elimination step plus the initialization barrier.
        assert_eq!(r.report.barriers, 3 * p.nb() as u64 + 1);
    }
}
