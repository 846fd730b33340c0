//! Property-based tests over the core data structures and the cluster.

use millipage::diff::Diff;
use millipage::{
    run, AllocMode, ClusterConfig, CostModel, Dsm, HostId, Ns, Pod, SchedMode, SharedVec,
};
use multiview::{AllocMode as MvMode, Allocator};
use proptest::prelude::*;
use sim_mem::Geometry;
use std::ops::Range;
use std::sync::Mutex;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Diff/apply is an identity: applying the diff of (twin → current)
    /// to the twin reproduces current, for arbitrary buffers.
    #[test]
    fn diff_apply_roundtrip(twin in proptest::collection::vec(any::<u8>(), 1..2048)) {
        let mut current = twin.clone();
        // Mutate a pseudo-random subset.
        for (i, b) in current.iter_mut().enumerate() {
            if i % 7 == 3 || i % 31 == 0 {
                *b = b.wrapping_add(13);
            }
        }
        let d = Diff::compute(&twin, &current);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, current.clone());
        prop_assert!(d.changed_bytes() <= current.len());
        prop_assert!(d.wire_bytes() >= d.changed_bytes());
    }

    /// The dynamic-layout allocator never double-books: every vpage hosts
    /// at most one minipage (enforced), every allocation stays inside its
    /// minipage, and the view budget is respected.
    #[test]
    fn allocator_geometry_invariants(
        sizes in proptest::collection::vec(1usize..6000, 1..120),
        views in 1usize..32,
        chunking in 1usize..7,
    ) {
        let geo = Geometry::new(512, views);
        let mut a = Allocator::new(geo.clone(), MvMode::FineGrain { chunking });
        for &size in &sizes {
            let Ok((addr, id)) = a.alloc_traced(size) else {
                break; // Out of memory is a legal outcome.
            };
            let mp = a.mpt().get(id);
            // The allocation's bytes sit inside the minipage.
            prop_assert!(mp.contains(&geo, addr));
            prop_assert!(mp.contains(&geo, addr.add(size - 1)));
            prop_assert!(mp.view < views || mp.view == 0);
        }
        prop_assert!(a.stats().views_used <= views);
        // Re-translate every minipage from its base: identity.
        for mp in a.mpt().iter() {
            let hit = a.mpt().translate(&geo, mp.base).expect("translates");
            prop_assert_eq!(hit.id, mp.id);
        }
    }

    /// Page-grain allocation covers every allocated byte with exactly one
    /// whole-page minipage.
    #[test]
    fn page_grain_covers_allocations(
        sizes in proptest::collection::vec(1usize..9000, 1..60),
    ) {
        let geo = Geometry::new(256, 4);
        let mut a = Allocator::new(geo.clone(), MvMode::PageGrain);
        for &size in &sizes {
            let Ok(addr) = a.alloc(size) else { break };
            for probe in [0, size / 2, size - 1] {
                let mp = a.mpt().translate(&geo, addr.add(probe));
                prop_assert!(mp.is_some(), "byte {probe} of {size} uncovered");
                prop_assert_eq!(mp.expect("covered").len, geo.page_size());
            }
        }
    }

    /// Pod encode/decode is an identity for every primitive value.
    #[test]
    fn pod_roundtrip(x in any::<f64>(), y in any::<i64>(), z in any::<u32>()) {
        let mut b8 = [0u8; 8];
        x.to_bytes(&mut b8);
        let x2 = f64::from_bytes(&b8);
        prop_assert!(x2 == x || (x.is_nan() && x2.is_nan()));
        y.to_bytes(&mut b8);
        prop_assert_eq!(i64::from_bytes(&b8), y);
        let mut b4 = [0u8; 4];
        z.to_bytes(&mut b4);
        prop_assert_eq!(u32::from_bytes(&b4), z);
    }

    /// Geometry address arithmetic: decode inverts addr_of everywhere.
    #[test]
    fn geometry_roundtrip(
        pages in 1usize..64,
        views in 1usize..16,
        page_sel in any::<u64>(),
        view_sel in any::<u64>(),
        off_sel in any::<u64>(),
    ) {
        let geo = Geometry::new(pages, views);
        let view = (view_sel % geo.total_views() as u64) as usize;
        let page = (page_sel % pages as u64) as usize;
        let off = (off_sel % geo.page_size() as u64) as usize;
        let a = geo.addr_of(view, page, off);
        let loc = geo.decode(a).expect("in range");
        prop_assert_eq!((loc.view, loc.page, loc.offset), (view, page, off));
        prop_assert_eq!(geo.vpage_of(a), Some(geo.vpage_index(view, page)));
    }
}

proptest! {
    // Cluster-spawning properties are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Barrier-paced random programs behave like a single shared memory:
    /// a scripted sequence of (host, cell, value) writes with barriers
    /// between steps reads back exactly like a flat array.
    #[test]
    fn barrier_paced_program_equals_flat_memory(
        script in proptest::collection::vec(
            (0usize..4, 0usize..6, any::<u32>()),
            1..24,
        ),
        page_grain in any::<bool>(),
    ) {
        let mode = if page_grain { AllocMode::PageGrain } else { AllocMode::FINE };
        let cfg = ClusterConfig {
            hosts: 4,
            views: 8,
            pages: 64,
            cost: CostModel::default(),
            alloc_mode: mode,
            seed: 5,
            ..ClusterConfig::default()
        };
        // The reference model: a plain array receiving the same writes.
        let mut model = [0u32; 6];
        for &(_, cell, val) in &script {
            model[cell] = val;
        }
        let script_ref = &script;
        let mismatch = Mutex::new(None);
        let report = run(
            cfg,
            |s| (0..6).map(|_| s.alloc_cell_init::<u32>(0)).collect::<Vec<_>>(),
            |ctx, cells| {
                for &(writer, cell, val) in script_ref {
                    if ctx.host().index() == writer {
                        ctx.cell_set(&cells[cell], val);
                    }
                    ctx.barrier();
                }
                // Every host verifies the whole memory.
                for (i, c) in cells.iter().enumerate() {
                    let got = ctx.cell_get(c);
                    let want = {
                        let mut m = [0u32; 6];
                        for &(_, cl, v) in script_ref {
                            m[cl] = v;
                        }
                        m[i]
                    };
                    if got != want {
                        *mismatch.lock().unwrap() = Some((ctx.host(), i, got, want));
                    }
                }
                ctx.barrier();
            },
        );
        prop_assert!(report.coherence_violations.is_empty());
        let m = mismatch.into_inner().unwrap();
        prop_assert!(m.is_none(), "mismatch: {m:?}, model {model:?}");
    }

    /// A range access is a bit-exact copy: what `write_range` stored,
    /// `read_range` returns — on the writing host and, after the minipages
    /// travelled, on another — for every `Pod` type and whatever the
    /// bytes spell (NaN payloads, signalling NaNs). The typed handles sit
    /// at every byte skew over one three-page arena and the ranges start
    /// around a page end, so they straddle it; page-grain allocation
    /// makes every page end a minipage end too. On both backends, each
    /// once more reading through `Dsm::read_into` into a junk-filled
    /// buffer, which must come back holding the same bits — on the
    /// simulator for the same virtual time and counts too (the two
    /// schedules are deterministic, so the two reports are comparable
    /// whole).
    #[test]
    fn range_access_is_a_bit_exact_copy(
        raw in proptest::collection::vec(any::<u8>(), 0..700),
        skew in 0usize..9,
        before_page_end in 0usize..300,
        page_grain in any::<bool>(),
    ) {
        let from = 2 * PAGE - before_page_end;
        let mismatches = Mutex::new(Vec::new());
        let setup = |s: &mut millipage::SetupCtx| s.alloc_vec::<u8>(3 * PAGE);
        let cfg = ClusterConfig {
            hosts: 2,
            views: 4,
            pages: 16,
            alloc_mode: if page_grain { AllocMode::PageGrain } else { AllocMode::FINE },
            sched: SchedMode::deterministic(),
            ..ClusterConfig::default()
        };
        let report = run(cfg.clone(), setup, |ctx, arena| {
            all_pods_roundtrip(ctx, arena, skew, from, &raw, &mismatches);
        });
        prop_assert!(report.coherence_violations.is_empty());
        let through_read_into = run(cfg, setup, |ctx, arena| {
            all_pods_roundtrip(&mut ReadsInto(ctx), arena, skew, from, &raw, &mismatches);
        });
        prop_assert_eq!(through_read_into.to_json(), report.to_json());
        #[cfg(target_os = "linux")]
        {
            let cfg = millipage::HostRunConfig { hosts: 2, views: 4, pages: 16, ..Default::default() };
            let report = millipage::run_host(cfg.clone(), setup, |ctx, arena| {
                all_pods_roundtrip(ctx, arena, skew, from, &raw, &mismatches);
            });
            let errors = report.expect("host run").errors;
            prop_assert!(errors.is_empty(), "{errors:?}");
            let report = millipage::run_host(cfg, setup, |ctx, arena| {
                all_pods_roundtrip(&mut ReadsInto(ctx), arena, skew, from, &raw, &mismatches);
            });
            let errors = report.expect("host run through read_into").errors;
            prop_assert!(errors.is_empty(), "{errors:?}");
        }
        let m = mismatches.into_inner().unwrap();
        prop_assert!(m.is_empty(), "not the bytes written: {m:?}");
    }
}

/// Both backends' page size on the machines the suite runs on.
const PAGE: usize = 4096;

/// Host 1 writes `raw` as a `[T]` at byte `skew + from` of the arena (cut
/// to whole elements) and reads it back; then host 0 does the reading.
/// Each type in turn; a readback that is not `raw` is pushed to `bad`.
fn all_pods_roundtrip<D: Dsm>(
    ctx: &mut D,
    arena: &SharedVec<u8>,
    skew: usize,
    from: usize,
    raw: &[u8],
    bad: &Mutex<Vec<(&'static str, usize)>>,
) {
    fn one<T: Pod, D: Dsm>(
        ctx: &mut D,
        arena: &SharedVec<u8>,
        skew: usize,
        from: usize,
        raw: &[u8],
        bad: &Mutex<Vec<(&'static str, usize)>>,
    ) {
        let sv = SharedVec::<T>::from_raw(arena.base().add(skew), (arena.len() - skew) / T::SIZE);
        let xs: Vec<T> = raw.chunks_exact(T::SIZE).map(T::from_bytes).collect();
        let at = from / T::SIZE;
        for reader in [1, 0] {
            if ctx.host().index() == 1 && reader == 1 {
                ctx.write_range(&sv, at, &xs);
            }
            if ctx.host().index() == reader {
                let back = ctx.read_range(&sv, at..at + xs.len());
                let mut bits = vec![0u8; back.len() * T::SIZE];
                for (x, chunk) in back.iter().zip(bits.chunks_exact_mut(T::SIZE)) {
                    x.to_bytes(chunk);
                }
                if bits != raw[..xs.len() * T::SIZE] {
                    bad.lock()
                        .unwrap()
                        .push((std::any::type_name::<T>(), reader));
                }
            }
            ctx.barrier();
        }
    }
    one::<u8, D>(ctx, arena, skew, from, raw, bad);
    one::<i8, D>(ctx, arena, skew, from, raw, bad);
    one::<u16, D>(ctx, arena, skew, from, raw, bad);
    one::<i16, D>(ctx, arena, skew, from, raw, bad);
    one::<u32, D>(ctx, arena, skew, from, raw, bad);
    one::<i32, D>(ctx, arena, skew, from, raw, bad);
    one::<u64, D>(ctx, arena, skew, from, raw, bad);
    one::<i64, D>(ctx, arena, skew, from, raw, bad);
    one::<f32, D>(ctx, arena, skew, from, raw, bad);
    one::<f64, D>(ctx, arena, skew, from, raw, bad);
}

/// A context of either backend whose `read_range` goes through its
/// [`Dsm::read_into`], into a buffer that held something else.
struct ReadsInto<'a, D>(&'a mut D);

impl<D: Dsm> Dsm for ReadsInto<'_, D> {
    fn host(&self) -> HostId {
        self.0.host()
    }

    fn hosts(&self) -> usize {
        self.0.hosts()
    }

    fn read_range<T: Pod>(&mut self, sv: &SharedVec<T>, range: Range<usize>) -> Vec<T> {
        let mut out = vec![T::from_bytes(&[0xa5; 8][..T::SIZE]); range.len()];
        self.read_into(sv, range.start, &mut out);
        out
    }

    fn read_into<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, out: &mut [T]) {
        self.0.read_into(sv, start, out);
    }

    fn write_range<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, vals: &[T]) {
        self.0.write_range(sv, start, vals);
    }

    fn barrier(&mut self) {
        self.0.barrier();
    }

    fn timer_reset(&mut self) {
        self.0.timer_reset();
    }

    fn compute(&mut self, ns: Ns) {
        self.0.compute(ns);
    }
}

/// The wire format, pinned: shared memory holds a `u32` lowest byte first
/// on both backends — RC diffs, goldens and the host wire all hash these
/// bytes, so a typed range and a byte range over one address must agree.
#[test]
fn a_typed_range_is_little_endian_in_shared_memory() {
    fn check<D: Dsm>(ctx: &mut D, words: &SharedVec<u32>) {
        ctx.write_range(words, 1, &[0x0102_0304u32]);
        let bytes = SharedVec::<u8>::from_raw(words.addr_of(1), 4);
        assert_eq!(ctx.read_range(&bytes, 0..4), [4, 3, 2, 1]);
        ctx.write_range(&bytes, 0, &[0xdd, 0xcc, 0xbb, 0xaa]);
        assert_eq!(ctx.read_range(words, 1..2), [0xaabb_ccddu32]);
    }
    let setup = |s: &mut millipage::SetupCtx| s.alloc_vec_init(&[0u32, 0, 7]);
    let cfg = ClusterConfig {
        hosts: 1,
        ..ClusterConfig::default()
    };
    run(cfg, setup, check);
    #[cfg(target_os = "linux")]
    {
        let cfg = millipage::HostRunConfig {
            hosts: 1,
            ..Default::default()
        };
        let report = millipage::run_host(cfg, setup, check);
        assert!(report.expect("host run").errors.is_empty());
    }
}
