//! TSP — branch-and-bound traveling salesperson (TreadMarks suite).
//!
//! §4.3: "TSP allocates a global memory structure that contains an array
//! of tours. Each tour (TourElement) is of size 148 bytes and each tour is
//! manipulated exclusively by one of the tasks. We extracted the array out
//! of the global memory structure ... and allocated each tour
//! independently so that each one resides in a separate minipage" —
//! 148-byte minipages, 27 per page, 27 views (Table 2).
//!
//! "False sharing was resolved in TSP, except for a single data race for
//! updating the minimal tour found so far. Although the modification of
//! this variable is protected by means of mutual exclusion, it is
//! frequently read through an unprotected section. We changed a single
//! code line ... so that it pushes readable copies of the new value to all
//! hosts" — reproduced here with [`HostCtx::push_cell`].
//!
//! Workers expand partial tours from a shared stack (one queue lock
//! covering pop + child pushes) down to `recursion_limit` cities, then
//! solve the remaining suffix exactly with a local depth-first search.

use crate::{cal, run_app, AppRun};
use millipage::{ClusterConfig, HostCtx, SetupCtx, SharedCell, SharedVec};
use sim_core::SplitMix64;

/// `i32`s per tour element: 37 × 4 = 148 bytes (Table 2).
pub const TOUR_I32S: usize = 37;
/// Tour layout: `[len, cost, visited_mask, cities[19], pad…]`.
const T_LEN: usize = 0;
const T_COST: usize = 1;
const T_MASK: usize = 2;
const T_CITIES: usize = 3;

/// The queue lock (pop + push under one acquisition, TreadMarks-style).
const QUEUE_LOCK: u64 = 1;
/// The best-bound lock.
const BOUND_LOCK: u64 = 2;

/// TSP workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct TspParams {
    /// Number of cities (the paper: 19).
    pub cities: usize,
    /// Queue recursion level: prefixes longer than this are solved locally
    /// (the paper: 12).
    pub recursion_limit: usize,
    /// Tour-pool capacity (the paper's shared size, 785 KB, corresponds to
    /// roughly 5000 tour elements).
    pub max_tours: usize,
    /// Coordinate seed.
    pub seed: u64,
}

impl TspParams {
    /// The paper's input set: 19 cities, recursion level 12.
    pub fn paper() -> Self {
        Self {
            cities: 19,
            recursion_limit: 12,
            max_tours: 5000,
            seed: 0x75,
        }
    }

    /// A test-sized instance.
    pub fn small() -> Self {
        Self {
            cities: 10,
            recursion_limit: 6,
            max_tours: 1200,
            seed: 0x75,
        }
    }
}

/// Deterministic city distance matrix: integer Euclidean distances of
/// seeded points on a 1000×1000 grid.
pub fn distances(p: TspParams) -> Vec<Vec<i32>> {
    let mut rng = SplitMix64::new(p.seed);
    let pts: Vec<(f64, f64)> = (0..p.cities)
        .map(|_| (rng.next_f64() * 1000.0, rng.next_f64() * 1000.0))
        .collect();
    (0..p.cities)
        .map(|i| {
            (0..p.cities)
                .map(|j| {
                    let dx = pts[i].0 - pts[j].0;
                    let dy = pts[i].1 - pts[j].1;
                    (dx * dx + dy * dy).sqrt().round() as i32
                })
                .collect()
        })
        .collect()
}

/// A greedy nearest-neighbour tour improved by 2-opt: the initial upper
/// bound. A tight starting bound is what keeps the branch-and-bound
/// queue small (Table 2's 681 locks imply a few hundred queue
/// operations for the whole 19-city run).
fn greedy_bound(d: &[Vec<i32>]) -> i32 {
    let n = d.len();
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut tour = vec![0usize];
    let mut at = 0;
    for _ in 1..n {
        let next = (0..n)
            .filter(|&c| !visited[c])
            .min_by_key(|&c| d[at][c])
            .expect("unvisited city exists");
        visited[next] = true;
        tour.push(next);
        at = next;
    }
    // 2-opt until no improving exchange remains.
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n - 1 {
            for j in i + 2..n {
                let (a, b) = (tour[i], tour[i + 1]);
                let (c, e) = (tour[j], tour[(j + 1) % n]);
                if a == e {
                    continue;
                }
                let delta = d[a][c] + d[b][e] - d[a][b] - d[c][e];
                if delta < 0 {
                    tour[i + 1..=j].reverse();
                    improved = true;
                }
            }
        }
    }
    (0..n).map(|i| d[tour[i]][tour[(i + 1) % n]]).sum()
}

/// Admissible lower bound on completing a partial tour: every city still
/// to be visited (and the final return) must leave over its cheapest
/// usable edge. Standard branch-and-bound pruning; keeps the 19-city
/// paper input tractable exactly like the TreadMarks original.
fn lower_bound(d: &[Vec<i32>], mask: u32, at: usize) -> i32 {
    let n = d.len();
    let mut lb = 0;
    // The current city must leave toward an unvisited city.
    let mut out_min = i32::MAX;
    for c in 0..n {
        if mask & (1 << c) == 0 && c != at {
            out_min = out_min.min(d[at][c]);
        }
    }
    if out_min == i32::MAX {
        return d[at][0]; // Everything visited: only the return remains.
    }
    lb += out_min;
    // Every unvisited city must be left toward another unvisited city or
    // back to the start.
    for c in 0..n {
        if mask & (1 << c) != 0 {
            continue;
        }
        let mut m = d[c][0];
        for k in 0..n {
            if k != c && (mask & (1 << k) == 0 || k == 0) {
                m = m.min(d[c][k]);
            }
        }
        lb += m;
    }
    lb
}

/// Exact DFS over the remaining suffix; returns the best completion of
/// `(path, cost)` and the number of nodes visited (for compute charging).
fn solve_suffix(
    d: &[Vec<i32>],
    path: &mut Vec<usize>,
    mask: u32,
    cost: i32,
    best: &mut i32,
    nodes: &mut u64,
) {
    *nodes += 1;
    let n = d.len();
    if cost >= *best {
        return;
    }
    if path.len() < n && cost + lower_bound(d, mask, *path.last().expect("non-empty")) >= *best {
        return;
    }
    if path.len() == n {
        let total = cost + d[*path.last().expect("non-empty")][path[0]];
        if total < *best {
            *best = total;
        }
        return;
    }
    let at = *path.last().expect("non-empty");
    for c in 0..n {
        if mask & (1 << c) != 0 {
            continue;
        }
        path.push(c);
        solve_suffix(d, path, mask | (1 << c), cost + d[at][c], best, nodes);
        path.pop();
    }
}

/// Sequential reference: the optimal tour cost.
pub fn reference(p: TspParams) -> f64 {
    let d = distances(p);
    let mut best = greedy_bound(&d);
    let mut path = vec![0usize];
    let mut nodes = 0u64;
    solve_suffix(&d, &mut path, 1, 0, &mut best, &mut nodes);
    best as f64
}

/// Shared handles for TSP.
pub struct TspShared {
    /// The tour pool, one 148-byte element per allocation.
    tours: Vec<SharedVec<i32>>,
    /// Stack of tour-pool indices.
    stack: SharedVec<i32>,
    /// Stack depth.
    top: SharedCell<i32>,
    /// Free-list of recycled pool slots (stack of indices).
    free: SharedVec<i32>,
    /// Free-list depth.
    free_top: SharedCell<i32>,
    /// Tours popped but not yet fully expanded (termination detection).
    outstanding: SharedCell<i32>,
    /// The minimal tour found so far (read unprotected, pushed on update).
    best: SharedCell<i32>,
    params: TspParams,
}

/// Allocates the tour pool (each tour separately), the work stack, and the
/// bound cell; seeds the stack with the root tour.
pub fn setup(s: &mut SetupCtx, p: TspParams) -> TspShared {
    assert!(p.cities <= 19, "tour layout holds at most 19 cities");
    assert!(p.recursion_limit < p.cities);
    let tours: Vec<SharedVec<i32>> = (0..p.max_tours)
        .map(|_| s.alloc_vec::<i32>(TOUR_I32S))
        .collect();
    s.new_page();
    let stack = s.alloc_vec::<i32>(p.max_tours);
    let top = s.alloc_cell_init(1i32);
    let free = s.alloc_vec::<i32>(p.max_tours);
    let free_top = s.alloc_cell_init(0i32);
    let outstanding = s.alloc_cell_init(0i32);
    let d = distances(p);
    let best = s.alloc_cell_init(greedy_bound(&d));
    // Root tour: city 0 visited, zero cost.
    let mut root = [0i32; TOUR_I32S];
    root[T_LEN] = 1;
    root[T_COST] = 0;
    root[T_MASK] = 1;
    root[T_CITIES] = 0;
    s.write_vec(&tours[0], 0, &root);
    s.write_vec(&stack, 0, &[0i32]);
    TspShared {
        tours,
        stack,
        top,
        free,
        free_top,
        outstanding,
        best,
        params: p,
    }
}

/// Pops a work item; returns its pool slot, or `None` when the stack is
/// empty. Must run under `QUEUE_LOCK`.
fn pop(ctx: &mut HostCtx, sh: &TspShared) -> Option<usize> {
    let t = ctx.cell_get(&sh.top);
    if t == 0 {
        return None;
    }
    let slot = ctx.get(&sh.stack, (t - 1) as usize);
    ctx.cell_set(&sh.top, t - 1);
    Some(slot as usize)
}

/// Takes a pool slot for a child tour. Must run under `QUEUE_LOCK`.
fn take_slot(ctx: &mut HostCtx, sh: &TspShared, next_fresh: &mut usize) -> usize {
    let ft = ctx.cell_get(&sh.free_top);
    if ft > 0 {
        let slot = ctx.get(&sh.free, (ft - 1) as usize);
        ctx.cell_set(&sh.free_top, ft - 1);
        return slot as usize;
    }
    let slot = *next_fresh;
    assert!(
        slot < sh.params.max_tours,
        "tour pool exhausted ({} slots)",
        sh.params.max_tours
    );
    *next_fresh += 1;
    slot
}

/// The per-host program.
pub fn worker(ctx: &mut HostCtx, sh: &TspShared) {
    let p = sh.params;
    let d = distances(p);
    let mut idle_backoff: u64 = 100_000;
    ctx.barrier();
    ctx.timer_reset();
    loop {
        // Unprotected read of the pushed bound (the paper's data race).
        let mut best_seen = ctx.cell_get(&sh.best);
        ctx.lock(QUEUE_LOCK);
        let item = pop(ctx, sh);
        if item.is_some() {
            let o = ctx.cell_get(&sh.outstanding);
            ctx.cell_set(&sh.outstanding, o + 1);
        }
        let outstanding = ctx.cell_get(&sh.outstanding);
        let stack_len = ctx.cell_get(&sh.top) as usize;
        ctx.unlock(QUEUE_LOCK);
        let Some(slot) = item else {
            if outstanding == 0 {
                break; // Stack empty and nobody expanding: done.
            }
            // Exponential idle back-off: idle workers must not drown the
            // manager in queue polls.
            ctx.compute(idle_backoff);
            idle_backoff = (idle_backoff * 2).min(2_000_000);
            continue;
        };
        idle_backoff = 100_000;
        // Read the popped tour element (exclusively manipulated by us).
        let mut pending_children: Vec<[i32; TOUR_I32S]> = Vec::new();
        let tour = ctx.read_range(&sh.tours[slot], 0..TOUR_I32S);
        let len = tour[T_LEN] as usize;
        let cost = tour[T_COST];
        let mask = tour[T_MASK] as u32;
        let at = tour[T_CITIES + len - 1] as usize;
        // Expand into the shared queue only while it is short (work
        // starvation looms) and the prefix is shallow; otherwise solve
        // the whole subtree locally. This is how the TreadMarks TSP keeps
        // its queue traffic to a few hundred lock acquisitions.
        let solve_locally = len + p.recursion_limit >= p.cities
            || len > 4
            || outstanding as usize + stack_len >= 3 * ctx.hosts();
        if cost < best_seen {
            if solve_locally {
                // Solve the suffix locally and exactly.
                let mut path: Vec<usize> = tour[T_CITIES..T_CITIES + len]
                    .iter()
                    .map(|&c| c as usize)
                    .collect();
                let mut local_best = best_seen;
                let mut nodes = 0u64;
                solve_suffix(&d, &mut path, mask, cost, &mut local_best, &mut nodes);
                ctx.compute(cal::TSP_NODE_NS * nodes.max(1));
                if local_best < best_seen {
                    // Locked update + push of the new bound (§4.3).
                    ctx.lock(BOUND_LOCK);
                    let cur = ctx.cell_get(&sh.best);
                    if local_best < cur {
                        ctx.cell_set(&sh.best, local_best);
                        ctx.push_cell(&sh.best);
                    }
                    ctx.unlock(BOUND_LOCK);
                    best_seen = local_best;
                }
            } else {
                // Expand one level; children queue under the single lock
                // section below.
                let mut children: Vec<[i32; TOUR_I32S]> = Vec::new();
                for c in 0..p.cities {
                    if mask & (1 << c) != 0 {
                        continue;
                    }
                    let ncost = cost + d[at][c];
                    if ncost >= best_seen
                        || ncost + lower_bound(&d, mask | (1 << c), c) >= best_seen
                    {
                        continue; // Prune (bound or admissible lower bound).
                    }
                    let mut child = [0i32; TOUR_I32S];
                    child[..T_CITIES + len].copy_from_slice(&tour[..T_CITIES + len]);
                    child[T_LEN] = (len + 1) as i32;
                    child[T_COST] = ncost;
                    child[T_MASK] = (mask | (1 << c)) as i32;
                    child[T_CITIES + len] = c as i32;
                    children.push(child);
                }
                ctx.compute(cal::TSP_NODE_NS * p.cities as u64);
                pending_children = children;
            }
        }
        // One lock section: push children, recycle the slot, retire the
        // work item (TreadMarks batches its queue manipulation the same
        // way — Table 2's lock count stays in the hundreds).
        ctx.lock(QUEUE_LOCK);
        if !pending_children.is_empty() {
            let mut t = ctx.cell_get(&sh.top);
            let mut fresh = fresh_cursor_read(ctx, sh);
            for child in &pending_children {
                let cslot = take_slot(ctx, sh, &mut fresh);
                ctx.write_range(&sh.tours[cslot], 0, child);
                ctx.set(&sh.stack, t as usize, cslot as i32);
                t += 1;
            }
            fresh_cursor_write(ctx, sh, fresh);
            ctx.cell_set(&sh.top, t);
        }
        let ft = ctx.cell_get(&sh.free_top);
        assert!(
            (ft as usize) < sh.params.max_tours - 1,
            "free list overflow into the fresh-slot cursor"
        );
        ctx.set(&sh.free, ft as usize, slot as i32);
        ctx.cell_set(&sh.free_top, ft + 1);
        let o = ctx.cell_get(&sh.outstanding);
        ctx.cell_set(&sh.outstanding, o - 1);
        ctx.unlock(QUEUE_LOCK);
    }
    ctx.barrier();
}

/// The shared fresh-slot cursor lives in the last element of the free
/// array (slot indices never reach it: the pool keeps one spare).
fn fresh_cursor_read(ctx: &mut HostCtx, sh: &TspShared) -> usize {
    ctx.get(&sh.free, sh.params.max_tours - 1) as usize
}

fn fresh_cursor_write(ctx: &mut HostCtx, sh: &TspShared, v: usize) {
    ctx.set(&sh.free, sh.params.max_tours - 1, v as i32);
}

/// Runs TSP on a cluster configured by `cfg`; the checksum is the optimal
/// tour cost.
pub fn run_tsp(mut cfg: ClusterConfig, p: TspParams) -> AppRun {
    let bytes = p.max_tours * (TOUR_I32S * 4 + 8) + 64;
    cfg.pages = cfg.pages.max(bytes / 4096 * 2 + 64);
    cfg.views = cfg.views.max(27);
    run_app(
        cfg,
        |s| {
            let sh = setup(s, p);
            // Initialize the fresh-slot cursor to 1 (root occupies slot 0).
            s.write_vec(&sh.free, p.max_tours - 1, &[1i32]);
            sh
        },
        worker,
        |ctx, sh| ctx.cell_get(&sh.best) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(hosts: usize) -> ClusterConfig {
        ClusterConfig {
            hosts,
            views: 27,
            pages: 512,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn tsp_finds_the_optimum_single_host() {
        let p = TspParams::small();
        let r = run_tsp(cfg(1), p);
        assert!(r.report.coherence_violations.is_empty());
        assert_eq!(r.checksum, reference(p));
    }

    #[test]
    fn tsp_finds_the_optimum_four_hosts() {
        let p = TspParams::small();
        let r = run_tsp(cfg(4), p);
        assert!(r.report.coherence_violations.is_empty());
        assert_eq!(r.checksum, reference(p));
        assert!(r.report.lock_acquires > 0);
        // Note: the 2-opt starting bound often IS the optimum on small
        // instances, in which case no improved bound is ever pushed — the
        // push path itself is covered by the protocol smoke tests.
    }

    #[test]
    fn tsp_tours_are_148_bytes_in_27_views() {
        let p = TspParams::small();
        let r = run_tsp(cfg(2), p);
        // The 4-byte control cells share a separate page; the tour pool
        // dominates the view count: 148-byte tours pack 27 to a page.
        assert_eq!(r.report.alloc.views_used, 27);
        assert_eq!(r.report.alloc.min_granularity, 4);
    }

    #[test]
    fn lower_bound_is_admissible() {
        // The lower bound from the root must not exceed the optimum.
        let p = TspParams::small();
        let d = distances(p);
        let lb = lower_bound(&d, 1, 0);
        assert!(lb as f64 <= reference(p), "lb {lb} vs opt {}", reference(p));
    }

    #[test]
    fn greedy_bound_is_a_valid_upper_bound() {
        let p = TspParams::small();
        let d = distances(p);
        assert!(greedy_bound(&d) as f64 >= reference(p));
    }

    #[test]
    fn distances_are_symmetric_with_zero_diagonal() {
        let d = distances(TspParams::small());
        for i in 0..d.len() {
            assert_eq!(d[i][i], 0);
            for j in 0..d.len() {
                assert_eq!(d[i][j], d[j][i]);
            }
        }
    }
}
