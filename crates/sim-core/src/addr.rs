//! Virtual addresses and the shared view geometry.

use std::fmt;

/// Default base virtual address of view 0.
pub const DEFAULT_BASE: u64 = 0x1000_0000;

/// Default page size (the paper's testbed: 4 KB Pentium pages).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A virtual address in the shared region.
///
/// Addresses are plain numbers — they carry no lifetime or provenance —
/// because simulated hosts exchange them in protocol messages exactly like
/// the real system exchanges raw pointers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Byte offset addition (pointer-arithmetic naming on purpose: these
    /// are addresses, not numbers).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, delta: usize) -> VAddr {
        VAddr(self.0 + delta as u64)
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#x})", self.0)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A decoded virtual address: which view, which page of the memory object,
/// and the offset within that page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Loc {
    /// View index; `geometry.priv_view()` is the privileged view.
    pub view: usize,
    /// Physical page index within the memory object.
    pub page: usize,
    /// Byte offset within the page.
    pub offset: usize,
}

/// The layout shared by every host: one memory object of `pages` physical
/// pages, mapped `views + 1` times (application views plus the privileged
/// view) at consecutive spans starting at `base`.
///
/// §2.4: "Suppose the maximal number of minipages that reside on the same
/// page of the memory object is n. We thus need n+1 different views."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Geometry {
    base: u64,
    page_size: usize,
    pages: usize,
    views: usize,
}

impl Geometry {
    /// Creates a geometry with `views` application views over a memory
    /// object of `pages` pages of [`DEFAULT_PAGE_SIZE`] at [`DEFAULT_BASE`].
    ///
    /// # Panics
    ///
    /// Panics if `pages` or `views` is zero.
    pub fn new(pages: usize, views: usize) -> Self {
        Self::with_layout(DEFAULT_BASE, DEFAULT_PAGE_SIZE, pages, views)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics if `pages`, `views` or `page_size` is zero, or if `page_size`
    /// is not a power of two.
    pub fn with_layout(base: u64, page_size: usize, pages: usize, views: usize) -> Self {
        assert!(pages > 0, "memory object needs at least one page");
        assert!(views > 0, "need at least one application view");
        assert!(
            page_size > 0 && page_size.is_power_of_two(),
            "page size must be a positive power of two"
        );
        Self {
            base,
            page_size,
            pages,
            views,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of physical pages in the memory object.
    #[inline]
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Number of application views (excluding the privileged view).
    #[inline]
    pub fn views(&self) -> usize {
        self.views
    }

    /// Index of the privileged view (one past the last application view).
    #[inline]
    pub fn priv_view(&self) -> usize {
        self.views
    }

    /// Total views including the privileged one.
    #[inline]
    pub fn total_views(&self) -> usize {
        self.views + 1
    }

    /// Bytes covered by one view (= memory object size).
    #[inline]
    pub fn view_span(&self) -> u64 {
        (self.pages * self.page_size) as u64
    }

    /// Total number of vpages across all views (including privileged).
    #[inline]
    pub fn total_vpages(&self) -> usize {
        self.total_views() * self.pages
    }

    /// The virtual address of (`view`, `page`, `offset`).
    ///
    /// # Panics
    ///
    /// Panics if any component is out of range.
    pub fn addr_of(&self, view: usize, page: usize, offset: usize) -> VAddr {
        assert!(view < self.total_views(), "view {view} out of range");
        assert!(page < self.pages, "page {page} out of range");
        assert!(offset < self.page_size, "offset {offset} out of range");
        VAddr(self.base + view as u64 * self.view_span() + (page * self.page_size + offset) as u64)
    }

    /// Decodes a virtual address, or `None` if it lies outside every view.
    ///
    /// The page size is a power of two, so the offset is a mask and the
    /// global page index a shift; one division by the page count splits
    /// that index into view and page.
    #[inline]
    pub fn decode(&self, addr: VAddr) -> Option<Loc> {
        let off = addr.0.checked_sub(self.base)?;
        let global = off >> self.page_size.trailing_zeros();
        if global >= self.total_vpages() as u64 {
            return None;
        }
        let global = global as usize;
        let view = global / self.pages;
        Some(Loc {
            view,
            page: global - view * self.pages,
            offset: off as usize & (self.page_size - 1),
        })
    }

    /// Rebases `addr` into another view of the same memory (same page and
    /// offset, different view) — the `addr2priv` operation of Figure 3 when
    /// `view` is the privileged view.
    ///
    /// Returns `None` when `addr` is not a shared address.
    pub fn rebase(&self, addr: VAddr, view: usize) -> Option<VAddr> {
        let loc = self.decode(addr)?;
        Some(self.addr_of(view, loc.page, loc.offset))
    }

    /// `addr` translated to the privileged view (Figure 3's `addr2priv`).
    pub fn to_priv(&self, addr: VAddr) -> Option<VAddr> {
        self.rebase(addr, self.priv_view())
    }

    /// Global vpage index of (`view`, `page`): a dense index over all
    /// vpages of all views, used to store protections.
    #[inline]
    pub fn vpage_index(&self, view: usize, page: usize) -> usize {
        debug_assert!(view < self.total_views() && page < self.pages);
        view * self.pages + page
    }

    /// Global vpage index containing `addr`, or `None` if out of range.
    pub fn vpage_of(&self, addr: VAddr) -> Option<usize> {
        self.decode(addr).map(|l| self.vpage_index(l.view, l.page))
    }

    /// The global vpage indices covering `[addr, addr + len)`, along with
    /// the decoded start location. Returns `None` when the range starts
    /// outside the shared region, spills out of its view, or `len` is zero.
    pub fn vpages_covering(
        &self,
        addr: VAddr,
        len: usize,
    ) -> Option<(Loc, std::ops::Range<usize>)> {
        if len == 0 {
            return None;
        }
        let loc = self.decode(addr)?;
        // Pages past the first that the range reaches into.
        let more = loc.offset.checked_add(len - 1)? >> self.page_size.trailing_zeros();
        if more >= self.pages - loc.page {
            return None;
        }
        let first = self.vpage_index(loc.view, loc.page);
        Some((loc, first..first + more + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::with_layout(0x1000, 4096, 8, 3)
    }

    #[test]
    fn addr_roundtrips_through_decode() {
        let g = geo();
        for view in 0..g.total_views() {
            for page in [0usize, 3, 7] {
                for off in [0usize, 1, 4095] {
                    let a = g.addr_of(view, page, off);
                    assert_eq!(
                        g.decode(a),
                        Some(Loc {
                            view,
                            page,
                            offset: off
                        })
                    );
                }
            }
        }
    }

    #[test]
    fn decode_rejects_outside_addresses() {
        let g = geo();
        assert_eq!(g.decode(VAddr(0)), None);
        let beyond = g.addr_of(g.priv_view(), 7, 4095).add(1);
        assert_eq!(g.decode(beyond), None);
    }

    #[test]
    fn views_do_not_overlap() {
        let g = geo();
        let end_v0 = g.addr_of(0, 7, 4095);
        let start_v1 = g.addr_of(1, 0, 0);
        assert_eq!(end_v0.add(1), start_v1);
    }

    #[test]
    fn rebase_changes_only_the_view() {
        let g = geo();
        let a = g.addr_of(1, 5, 123);
        let b = g.rebase(a, 2).unwrap();
        assert_eq!(
            g.decode(b),
            Some(Loc {
                view: 2,
                page: 5,
                offset: 123
            })
        );
        let p = g.to_priv(a).unwrap();
        assert_eq!(
            g.decode(p),
            Some(Loc {
                view: g.priv_view(),
                page: 5,
                offset: 123
            })
        );
    }

    #[test]
    fn vpage_indices_are_dense_and_unique() {
        let g = geo();
        let mut seen = std::collections::HashSet::new();
        for view in 0..g.total_views() {
            for page in 0..g.pages() {
                assert!(seen.insert(g.vpage_index(view, page)));
            }
        }
        assert_eq!(seen.len(), g.total_vpages());
        assert_eq!(*seen.iter().max().unwrap(), g.total_vpages() - 1);
    }

    #[test]
    fn vpages_covering_spans_pages() {
        let g = geo();
        let a = g.addr_of(1, 2, 4000);
        // 200 bytes starting at offset 4000 cross into page 3.
        let (loc, range) = g.vpages_covering(a, 200).unwrap();
        assert_eq!(loc.page, 2);
        assert_eq!(range, g.vpage_index(1, 2)..g.vpage_index(1, 3) + 1);
        // Exactly one page.
        let (_, r1) = g.vpages_covering(a, 96).unwrap();
        assert_eq!(r1.len(), 1);
        // Zero length is rejected.
        assert!(g.vpages_covering(a, 0).is_none());
        // Spilling past the last page is rejected.
        let last = g.addr_of(0, 7, 4090);
        assert!(g.vpages_covering(last, 100).is_none());
    }

    /// The division-based decode the shift-based one replaced.
    fn decode_by_division(g: &Geometry, addr: VAddr) -> Option<Loc> {
        let off = addr.0.checked_sub(g.base)?;
        let span = g.view_span();
        let view = (off / span) as usize;
        if view >= g.total_views() {
            return None;
        }
        let within = (off % span) as usize;
        Some(Loc {
            view,
            page: within / g.page_size,
            offset: within % g.page_size,
        })
    }

    /// The division-based `vpages_covering` the shift-based one replaced.
    fn covering_by_division(
        g: &Geometry,
        addr: VAddr,
        len: usize,
    ) -> Option<(Loc, std::ops::Range<usize>)> {
        if len == 0 {
            return None;
        }
        let loc = decode_by_division(g, addr)?;
        let end_byte = loc.page * g.page_size + loc.offset + len - 1;
        let last_page = end_byte / g.page_size;
        if last_page >= g.pages {
            return None;
        }
        let first = g.vpage_index(loc.view, loc.page);
        Some((loc, first..g.vpage_index(loc.view, last_page) + 1))
    }

    proptest::proptest! {
        /// Shift-and-mask decoding names the same (view, page, offset)
        /// and the same vpage range as division on random layouts: page
        /// sizes 1 B..8 KB, page counts mostly not powers of two, any
        /// base; probes in every view, at both ends of every view and of
        /// the region, around them, and lengths that end a view exactly or
        /// spill one byte past it.
        #[test]
        fn shift_decode_matches_division(
            shift in 0u32..14,
            pages in 1usize..70,
            views in 1usize..6,
            base in 0u64..(1 << 40),
            probe in proptest::prelude::any::<u64>(),
            len_seed in proptest::prelude::any::<u64>(),
        ) {
            let g = Geometry::with_layout(base, 1 << shift, pages, views);
            let ps = g.page_size() as u64;
            let end = base + g.total_vpages() as u64 * ps;
            let mut addrs = vec![0, u64::MAX, base.wrapping_sub(1), base, end - 1, end, end + ps];
            addrs.push(base.wrapping_sub(ps).wrapping_add(probe % (end - base + 2 * ps)));
            for view in 0..g.total_views() {
                let (page, off) = (probe as usize % pages, (probe >> 32) as usize % g.page_size());
                addrs.push(g.addr_of(view, page, off).0);
                addrs.push(g.addr_of(view, 0, 0).0);
                addrs.push(g.addr_of(view, pages - 1, g.page_size() - 1).0);
            }
            for &a in &addrs {
                let a = VAddr(a);
                let loc = decode_by_division(&g, a);
                proptest::prop_assert_eq!(g.decode(a), loc, "decode {}", a);
                let mut lens = vec![0, 1, 1 + len_seed as usize % (2 * g.view_span() as usize)];
                if let Some(l) = loc {
                    let to_view_end = (pages - l.page) * g.page_size() - l.offset;
                    lens.extend([to_view_end, to_view_end + 1]);
                }
                for len in lens {
                    proptest::prop_assert_eq!(
                        g.vpages_covering(a, len),
                        covering_by_division(&g, a, len),
                        "covering {} + {}", a, len
                    );
                }
                proptest::prop_assert_eq!(g.vpages_covering(a, usize::MAX), None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "view")]
    fn addr_of_rejects_bad_view() {
        let g = geo();
        let _ = g.addr_of(4, 0, 0);
    }
}
