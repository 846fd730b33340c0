//! The shared-memory allocator (§2.4, §3.2, §4.4).
//!
//! "When the application issues an allocation request, the DSM searches for
//! a suitable region in the memory object, and defines it as a minipage (or
//! a set of consecutive minipages). The DSM associates the newly defined
//! minipage with one of the application views."
//!
//! The allocator implements the paper's **dynamic layout**:
//!
//! * every allocation defines a minipage sized to the allocation
//!   ([`AllocMode::FineGrain`] with `chunking == 1`);
//! * with a **chunking level** `c > 1` (§4.4), up to `c` consecutive
//!   equal-size allocations are aggregated into one larger minipage;
//! * in the **page-grain baseline** ([`AllocMode::PageGrain`]) allocations
//!   are packed contiguously disregarding minipage boundaries and sharing
//!   happens in whole pages — the classical page-based DSM arrangement the
//!   paper calls "no false-sharing control" (the `none` point of Figure 7).
//!
//! Small allocations on the same physical page are associated with
//! *different* views (that is MultiView); the k-th minipage on a page lives
//! in view k. Large allocations occupy dedicated consecutive pages as one
//! spanning minipage in view 0 ("Large allocations should still reside in a
//! contiguous region of addresses", §2.3).

use crate::minipage::{Minipage, MinipageId};
use crate::mpt::Mpt;
use sim_mem::{Geometry, VAddr};

/// Allocation policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocMode {
    /// Fine-grain dynamic layout; `chunking` consecutive equal-size
    /// allocations share one minipage (`1` = one minipage per allocation).
    FineGrain {
        /// The chunking level of §4.4 (must be ≥ 1).
        chunking: usize,
    },
    /// Page-granularity baseline: allocations packed contiguously, sharing
    /// unit = one page, single view.
    PageGrain,
}

impl AllocMode {
    /// Fine grain without chunking — the default Millipage behaviour.
    pub const FINE: AllocMode = AllocMode::FineGrain { chunking: 1 };
}

/// Allocator failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// Zero-size allocation.
    ZeroSize,
    /// The memory object is exhausted.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::ZeroSize => write!(f, "zero-size allocation"),
            AllocError::OutOfMemory { requested } => {
                write!(f, "shared memory exhausted allocating {requested} bytes")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Aggregate allocator statistics (feeds Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocStats {
    /// Number of `alloc` calls.
    pub allocations: u64,
    /// Total bytes requested.
    pub bytes_requested: u64,
    /// Number of minipages created.
    pub minipages: u64,
    /// Highest view index used + 1 (Table 2's "Num. views").
    pub views_used: usize,
    /// Physical pages consumed.
    pub pages_used: usize,
    /// Smallest minipage created (bytes); 0 when none.
    pub min_granularity: usize,
    /// Largest minipage created (bytes).
    pub max_granularity: usize,
}

#[derive(Clone, Copy, Debug)]
struct OpenChunk {
    id: MinipageId,
    base: VAddr,
    slot_size: usize,
    slots_used: usize,
    slots_cap: usize,
}

/// The dynamic-layout allocator over one memory object.
pub struct Allocator {
    geo: Geometry,
    mode: AllocMode,
    align: usize,
    mpt: Mpt,
    /// Page currently being filled with small minipages.
    cur_page: usize,
    cur_off: usize,
    /// First view of `cur_page` not yet tried; `geo.views()` when there is
    /// no page to fill (before the first small alloc, after a retire).
    cur_views: usize,
    /// First never-touched page.
    next_page: usize,
    open_chunk: Option<OpenChunk>,
    /// PageGrain: linear bump offset and last page that got a minipage.
    linear_off: usize,
    linear_minipaged: usize,
    stats: AllocStats,
}

impl Allocator {
    /// Creates an allocator for `geo` with the given mode and natural
    /// 4-byte alignment (the paper's 32-bit testbed; TSP's 148-byte tours
    /// pack 27 to a page exactly as Table 2 reports).
    pub fn new(geo: Geometry, mode: AllocMode) -> Self {
        Self::with_align(geo, mode, 4)
    }

    /// Creates an allocator with explicit alignment (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a positive power of two, or if a
    /// `FineGrain` mode has `chunking == 0`.
    pub fn with_align(geo: Geometry, mode: AllocMode, align: usize) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        if let AllocMode::FineGrain { chunking } = mode {
            assert!(chunking >= 1, "chunking level must be >= 1");
        }
        Self {
            cur_views: geo.views(),
            geo,
            mode,
            align,
            mpt: Mpt::new(),
            cur_page: 0,
            cur_off: 0,
            next_page: 0,
            open_chunk: None,
            linear_off: 0,
            linear_minipaged: 0,
            stats: AllocStats::default(),
        }
    }

    /// The minipage table this allocator maintains.
    pub fn mpt(&self) -> &Mpt {
        &self.mpt
    }

    /// The table for adaptation to rewrite: splits and merges retire
    /// entries and insert their replacements here, and later allocations
    /// place around them.
    pub fn mpt_mut(&mut self) -> &mut Mpt {
        &mut self.mpt
    }

    /// The shared geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Allocator statistics so far.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// The malloc-like entry point (§3.2): returns the address of `size`
    /// fresh bytes in one of the application views.
    pub fn alloc(&mut self, size: usize) -> Result<VAddr, AllocError> {
        let (addr, _) = self.alloc_traced(size)?;
        Ok(addr)
    }

    /// Like [`alloc`](Self::alloc) but also reports which minipage the
    /// allocation landed in (several allocations share one when chunking).
    pub fn alloc_traced(&mut self, size: usize) -> Result<(VAddr, MinipageId), AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        self.stats.allocations += 1;
        self.stats.bytes_requested += size as u64;
        let rounded = size.div_ceil(self.align) * self.align;
        match self.mode {
            AllocMode::PageGrain => self.alloc_page_grain(rounded),
            AllocMode::FineGrain { chunking } => {
                if rounded > self.geo.page_size() {
                    self.alloc_large(rounded)
                } else {
                    self.alloc_small(rounded, chunking)
                }
            }
        }
    }

    /// Closes the open chunk so the next allocation starts a new minipage
    /// even if it has the same size (used between logically distinct data
    /// structures).
    pub fn finish_chunk(&mut self) {
        self.open_chunk = None;
    }

    /// Retires the partially-filled small page: the next small allocation
    /// starts on a fresh page (and therefore in view 0). Keeps logically
    /// distinct structures from sharing pages — and thus from inflating
    /// the view count of the structure that matters.
    pub fn retire_page(&mut self) {
        self.finish_chunk();
        self.cur_views = self.geo.views();
    }

    fn alloc_small(
        &mut self,
        size: usize,
        chunking: usize,
    ) -> Result<(VAddr, MinipageId), AllocError> {
        // Continue an open chunk when the size matches and a slot is free.
        if let Some(chunk) = &mut self.open_chunk {
            if chunk.slot_size == size && chunk.slots_used < chunk.slots_cap {
                let addr = chunk.base.add(chunk.slots_used * size);
                chunk.slots_used += 1;
                return Ok((addr, chunk.id));
            }
        }
        self.open_chunk = None;

        let psz = self.geo.page_size();
        let slots = chunking.min(psz / size).max(1);
        let mp_len = slots * size;
        // The next view of the current page whose vpage is free: a split
        // child or a merge result may already have taken one.
        let view = (self.cur_off + mp_len <= psz)
            .then(|| {
                (self.cur_views..self.geo.views())
                    .find(|&v| self.mpt.is_free(self.geo.vpage_index(v, self.cur_page)))
            })
            .flatten();
        // Retire the current page when the minipage no longer fits, either
        // by space or because the page's views are all taken.
        let view = match view {
            Some(view) => view,
            None => {
                if self.next_page >= self.geo.pages() {
                    return Err(AllocError::OutOfMemory { requested: size });
                }
                self.cur_page = self.next_page;
                self.next_page += 1;
                self.cur_off = 0;
                self.stats.pages_used += 1;
                0
            }
        };
        let base = self.geo.addr_of(view, self.cur_page, self.cur_off);
        let mp = Minipage {
            id: self.mpt.next_id(),
            base,
            len: mp_len,
            view,
            first_page: self.cur_page,
            offset: self.cur_off,
        };
        let id = self.mpt.insert(&self.geo, mp);
        self.record_minipage(mp_len, view);
        self.cur_off += mp_len;
        self.cur_views = view + 1;
        if slots > 1 {
            self.open_chunk = Some(OpenChunk {
                id,
                base,
                slot_size: size,
                slots_used: 1,
                slots_cap: slots,
            });
        }
        Ok((base, id))
    }

    fn alloc_large(&mut self, size: usize) -> Result<(VAddr, MinipageId), AllocError> {
        self.open_chunk = None;
        let psz = self.geo.page_size();
        let pages = size.div_ceil(psz);
        if self.next_page + pages > self.geo.pages() {
            return Err(AllocError::OutOfMemory { requested: size });
        }
        let first_page = self.next_page;
        self.next_page += pages;
        self.stats.pages_used += pages;
        let base = self.geo.addr_of(0, first_page, 0);
        let mp = Minipage {
            id: self.mpt.next_id(),
            base,
            len: size,
            view: 0,
            first_page,
            offset: 0,
        };
        let id = self.mpt.insert(&self.geo, mp);
        self.record_minipage(size, 0);
        Ok((base, id))
    }

    fn alloc_page_grain(&mut self, size: usize) -> Result<(VAddr, MinipageId), AllocError> {
        let psz = self.geo.page_size();
        let start = self.linear_off;
        let end = start + size;
        if end > self.geo.pages() * psz {
            return Err(AllocError::OutOfMemory { requested: size });
        }
        self.linear_off = end;
        // Lazily give every touched page a whole-page minipage in view 0.
        let last_page = (end - 1) / psz;
        while self.linear_minipaged <= last_page {
            let page = self.linear_minipaged;
            let mp = Minipage {
                id: self.mpt.next_id(),
                base: self.geo.addr_of(0, page, 0),
                len: psz,
                view: 0,
                first_page: page,
                offset: 0,
            };
            self.mpt.insert(&self.geo, mp);
            self.record_minipage(psz, 0);
            self.stats.pages_used += 1;
            self.linear_minipaged += 1;
        }
        let first_page = start / psz;
        let addr = self.geo.addr_of(0, first_page, start % psz);
        let id = self
            .mpt
            .translate(&self.geo, addr)
            .expect("page just received a minipage")
            .id;
        Ok((addr, id))
    }

    fn record_minipage(&mut self, len: usize, view: usize) {
        self.stats.minipages += 1;
        self.stats.views_used = self.stats.views_used.max(view + 1);
        if self.stats.min_granularity == 0 || len < self.stats.min_granularity {
            self.stats.min_granularity = len;
        }
        self.stats.max_granularity = self.stats.max_granularity.max(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(pages: usize, views: usize) -> Geometry {
        Geometry::new(pages, views)
    }

    #[test]
    fn fine_grain_spreads_same_page_allocations_across_views() {
        let mut a = Allocator::new(geo(8, 4), AllocMode::FINE);
        let addrs: Vec<_> = (0..4).map(|_| a.alloc(256).unwrap()).collect();
        let g = a.geometry().clone();
        let locs: Vec<_> = addrs.iter().map(|&x| g.decode(x).unwrap()).collect();
        // All on the same physical page, consecutive offsets, distinct views.
        assert!(locs.iter().all(|l| l.page == locs[0].page));
        for (i, l) in locs.iter().enumerate() {
            assert_eq!(l.view, i);
            assert_eq!(l.offset, i * 256);
        }
        assert_eq!(a.stats().views_used, 4);
        assert_eq!(a.stats().minipages, 4);
    }

    #[test]
    fn view_budget_exhaustion_moves_to_fresh_page() {
        let mut a = Allocator::new(geo(8, 2), AllocMode::FINE);
        let g = a.geometry().clone();
        let x = a.alloc(64).unwrap();
        let y = a.alloc(64).unwrap();
        let z = a.alloc(64).unwrap();
        assert_eq!(g.decode(x).unwrap().page, g.decode(y).unwrap().page);
        assert_ne!(g.decode(x).unwrap().page, g.decode(z).unwrap().page);
        assert_eq!(g.decode(z).unwrap().view, 0);
    }

    #[test]
    fn tsp_sized_tours_pack_27_per_page() {
        // Table 2: TSP tours are 148 bytes and need 27 views.
        let mut a = Allocator::new(geo(64, 32), AllocMode::FINE);
        for _ in 0..60 {
            a.alloc(148).unwrap();
        }
        assert_eq!(a.stats().views_used, 27);
    }

    #[test]
    fn water_sized_molecules_pack_6_per_page() {
        // Table 2: WATER molecules are 672 bytes and need 6 views.
        let mut a = Allocator::new(geo(128, 32), AllocMode::FINE);
        for _ in 0..50 {
            a.alloc(672).unwrap();
        }
        assert_eq!(a.stats().views_used, 6);
    }

    #[test]
    fn large_allocation_spans_dedicated_pages_in_view_0() {
        let mut a = Allocator::new(geo(16, 4), AllocMode::FINE);
        let small = a.alloc(100).unwrap();
        let big = a.alloc(4096 * 2 + 10).unwrap();
        let g = a.geometry().clone();
        let bl = g.decode(big).unwrap();
        assert_eq!(bl.view, 0);
        assert_eq!(bl.offset, 0);
        assert_ne!(bl.page, g.decode(small).unwrap().page);
        let mp = a.mpt().translate(&g, big).unwrap();
        assert_eq!(mp.len, 4096 * 2 + 12); // Rounded to 4-byte alignment.
        assert_eq!(mp.vpages(&g).len(), 3);
        // A following small allocation keeps packing the earlier partially
        // filled small page (no space is wasted by the large allocation).
        let after = a.alloc(8).unwrap();
        let al = g.decode(after).unwrap();
        assert_eq!(al.page, g.decode(small).unwrap().page);
        assert_eq!(al.view, 1);
    }

    #[test]
    fn chunking_groups_consecutive_equal_allocations() {
        // Chunking level 5 on 672-byte molecules: 5 molecules per minipage
        // (3360 bytes), the optimum the paper finds for 8 hosts.
        let mut a = Allocator::new(geo(128, 32), AllocMode::FineGrain { chunking: 5 });
        let mut ids = Vec::new();
        for _ in 0..10 {
            let (_, id) = a.alloc_traced(672).unwrap();
            ids.push(id);
        }
        assert!(ids[..5].iter().all(|&i| i == ids[0]));
        assert!(ids[5..].iter().all(|&i| i == ids[5]));
        assert_ne!(ids[0], ids[5]);
        let g = a.geometry().clone();
        assert_eq!(a.mpt().get(ids[0]).len, 3360);
        assert_eq!(a.mpt().get(ids[0]).vpages(&g).len(), 1);
        // Chunked minipages use far fewer views.
        assert_eq!(a.stats().views_used, 1);
    }

    #[test]
    fn chunk_breaks_on_size_change_and_finish() {
        let mut a = Allocator::new(geo(64, 8), AllocMode::FineGrain { chunking: 4 });
        let (_, c1) = a.alloc_traced(100).unwrap();
        let (_, c2) = a.alloc_traced(200).unwrap();
        assert_ne!(c1, c2);
        let (_, c3) = a.alloc_traced(200).unwrap();
        assert_eq!(c2, c3);
        a.finish_chunk();
        let (_, c4) = a.alloc_traced(200).unwrap();
        assert_ne!(c3, c4);
    }

    #[test]
    fn chunking_clips_to_page_size() {
        // 672 * 7 > 4096, so a chunk level of 7 clips to 6 slots.
        let mut a = Allocator::new(geo(64, 8), AllocMode::FineGrain { chunking: 7 });
        let (_, id) = a.alloc_traced(672).unwrap();
        assert_eq!(a.mpt().get(id).len, 672 * 6);
    }

    /// A split placing its children in views the allocator has not
    /// reached yet: the next allocation on the page steps over them (and
    /// over the parent's retired vpage) instead of colliding.
    #[test]
    fn allocation_skips_views_adaptation_took() {
        let mut a = Allocator::new(geo(8, 6), AllocMode::FINE);
        let g = a.geometry().clone();
        let (_, parent) = a.alloc_traced(64).unwrap();
        let mpt = a.mpt_mut();
        let va = mpt.free_view_for(&g, 0, 1, &[]).unwrap();
        let vb = mpt.free_view_for(&g, 0, 1, &[va]).unwrap();
        let child = |id, view, offset| Minipage {
            id: MinipageId(id),
            base: g.addr_of(view, 0, offset),
            len: 32,
            view,
            first_page: 0,
            offset,
        };
        mpt.retire_and_insert(&g, &[parent], vec![child(1, va, 0), child(2, vb, 32)]);
        let (addr, id) = a.alloc_traced(64).unwrap();
        assert_eq!(id, MinipageId(3));
        let loc = g.decode(addr).unwrap();
        assert_eq!((loc.page, loc.view, loc.offset), (0, 3, 64));
        assert!(a.mpt().geometry_violations(&g).is_empty());
    }

    #[test]
    fn page_grain_packs_contiguously_and_shares_pages() {
        let mut a = Allocator::new(geo(8, 4), AllocMode::PageGrain);
        let g = a.geometry().clone();
        let x = a.alloc(1000).unwrap();
        let y = a.alloc(1000).unwrap();
        // Contiguous: false sharing on the same page-size minipage.
        assert_eq!(y.0 - x.0, 1000);
        let mx = a.mpt().translate(&g, x).unwrap().id;
        let my = a.mpt().translate(&g, y).unwrap().id;
        assert_eq!(mx, my, "both land on the same whole-page minipage");
        assert_eq!(a.mpt().get(mx).len, 4096);
        // An allocation crossing a page boundary spans two minipages.
        let z = a.alloc(3000).unwrap();
        let z_end = z.add(2999);
        let mz0 = a.mpt().translate(&g, z).unwrap().id;
        let mz1 = a.mpt().translate(&g, z_end).unwrap().id;
        assert_ne!(mz0, mz1);
        assert_eq!(a.stats().views_used, 1);
    }

    #[test]
    fn out_of_memory_and_zero_size_errors() {
        let mut a = Allocator::new(geo(1, 2), AllocMode::FINE);
        assert_eq!(a.alloc(0), Err(AllocError::ZeroSize));
        a.alloc(4096).unwrap();
        // The reported size is the alignment-rounded one (1 → 4).
        assert!(matches!(
            a.alloc(1),
            Err(AllocError::OutOfMemory { requested: 4 })
        ));
    }

    #[test]
    fn sor_row_granularity_uses_16_views() {
        // Table 2: SOR rows are 256 bytes → 16 minipages per 4 KB page.
        let mut a = Allocator::new(geo(1024, 16), AllocMode::FINE);
        for _ in 0..64 {
            a.alloc(256).unwrap();
        }
        assert_eq!(a.stats().views_used, 16);
        assert_eq!(a.stats().pages_used, 4);
    }

    #[test]
    fn stats_track_granularity_extremes() {
        let mut a = Allocator::new(geo(64, 8), AllocMode::FINE);
        a.alloc(64).unwrap();
        a.alloc(4096).unwrap();
        let s = a.stats();
        assert_eq!(s.min_granularity, 64);
        assert_eq!(s.max_granularity, 4096);
        assert_eq!(s.allocations, 2);
        assert_eq!(s.bytes_requested, 64 + 4096);
    }
}
