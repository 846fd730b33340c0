//! Per-host address space: protections + page storage + checked access.

use sim_core::{Access, Fault, Geometry, MemFault, Prot, VAddr};
use std::cell::{Cell, OnceCell, RefCell, RefMut};

/// Why a checked access did not complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessError {
    /// Hard error: address outside the shared region (a program bug).
    Mem(MemFault),
    /// An access fault to be resolved by the DSM protocol.
    Fault(Fault),
}

impl From<MemFault> for AccessError {
    fn from(e: MemFault) -> Self {
        AccessError::Mem(e)
    }
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::Mem(e) => write!(f, "{e}"),
            AccessError::Fault(a) => write!(f, "{a}"),
        }
    }
}

impl std::error::Error for AccessError {}

/// One simulated host's mapping of the shared memory object.
///
/// Holds the host's local copy of every physical page it has written plus
/// the protection of every application vpage it has had granted, in
/// chunks made on first touch: a protection chunk (512 consecutive
/// vpages) on the first grant of one of its vpages, a page chunk (64
/// slots) on the first write to one of its pages. An absent protection
/// chunk reads `NoAccess`; the privileged view has no entries and reads
/// `ReadWrite`. A page nobody wrote yet is *unbacked*: it reads as zeros
/// and owns no storage until its first write — a host pays for the part
/// of the shared object it touches, not for the object (views alias
/// pages; hosts do not each copy the region). Application access goes through
/// [`read`](AddressSpace::read) / [`write`](AddressSpace::write), which
/// enforce protections like the MMU would; DSM server turns use the
/// `priv_*` methods, which model the privileged view (§2.3.1) and ignore
/// application protections.
///
/// # One thread
///
/// A simulated run is fibers on one OS thread, so a space is used by one
/// thread and takes no lock: page storage is a `RefCell` per page,
/// protections are `Cell`s, chunks are `OnceCell`s, and the type is
/// not `Sync`. Two facts make that enough. An application copy never
/// spans a yield point: it decodes, checks the vpage protection and
/// moves bytes without calling the scheduler, and each page's borrow
/// ends before the copy returns. Server turns — the only code that changes protections
/// under a running application — run between yields. So an invalidation
/// never lands inside an in-flight copy: either the copy completes first
/// (and serializes before the remote write, which is legal under
/// sequential consistency because the writer is still blocked waiting for
/// the invalidation ack) or the protection change lands first and the
/// access faults.
pub struct AddressSpace {
    geo: Geometry,
    /// The privileged view's first vpage; every vpage below it is an
    /// application vpage.
    priv_start: usize,
    /// Application vpage protections, `PROT_CHUNK` to a chunk; an absent
    /// chunk is all `NoAccess`.
    prots: Box<[OnceCell<Box<ProtChunk>>]>,
    /// Page storage, `PAGE_CHUNK` slots to a chunk; an absent chunk or an
    /// empty slot is an unbacked (all-zero) page.
    pages: Box<[OnceCell<Box<PageChunk>>]>,
    /// Where [`snapshot_and_protect`](AddressSpace::snapshot_and_protect)
    /// gathers a range that is not one backed page's bytes.
    gathered: RefCell<Vec<u8>>,
}

/// Protections per chunk: a power of two.
const PROT_CHUNK: usize = 512;
/// Page slots per chunk: a power of two.
const PAGE_CHUNK: usize = 64;

type ProtChunk = [Cell<Prot>; PROT_CHUNK];
type PageChunk = [RefCell<Box<[u8]>>; PAGE_CHUNK];

/// `n` absent chunks of `per` entries each.
fn absent<T>(n: usize, per: usize) -> Box<[OnceCell<T>]> {
    (0..n.div_ceil(per)).map(|_| OnceCell::new()).collect()
}

impl AddressSpace {
    /// Creates an address space: all application vpages `NoAccess`, the
    /// privileged view `ReadWrite`, all pages zero and unbacked. Only the
    /// two chunk tables are allocated.
    pub fn new(geo: Geometry) -> Self {
        let priv_start = geo.vpage_index(geo.priv_view(), 0);
        Self {
            prots: absent(priv_start, PROT_CHUNK),
            pages: absent(geo.pages(), PAGE_CHUNK),
            priv_start,
            geo,
            gathered: RefCell::default(),
        }
    }

    /// Number of pages that own storage (were written at least once).
    pub fn backed_pages(&self) -> usize {
        let slots = self
            .pages
            .iter()
            .filter_map(OnceCell::get)
            .flat_map(|c| c.iter());
        slots.filter(|p| !p.borrow().is_empty()).count()
    }

    /// Page `page`'s slot, if its chunk exists.
    #[inline]
    fn slot(&self, page: usize) -> Option<&RefCell<Box<[u8]>>> {
        let chunk = self.pages[page / PAGE_CHUNK].get()?;
        Some(&chunk[page % PAGE_CHUNK])
    }

    /// Copies bytes `off..off + out.len()` of page `page` into `out`.
    #[inline]
    fn copy_out(&self, page: usize, off: usize, out: &mut [u8]) {
        match self.slot(page).map(RefCell::borrow).as_deref() {
            Some(bytes) if !bytes.is_empty() => out.copy_from_slice(&bytes[off..off + out.len()]),
            _ => out.fill(0),
        }
    }

    /// Page `page`'s storage to write, backed first if this is its first
    /// write.
    #[inline]
    fn page_mut(&self, page: usize) -> RefMut<'_, Box<[u8]>> {
        let chunk = match self.pages[page / PAGE_CHUNK].get() {
            Some(chunk) => chunk,
            None => self.new_page_chunk(page),
        };
        let mut bytes = chunk[page % PAGE_CHUNK].borrow_mut();
        if bytes.is_empty() {
            *bytes = self.zero_page();
        }
        bytes
    }

    #[cold]
    #[inline(never)]
    fn new_page_chunk(&self, page: usize) -> &PageChunk {
        self.pages[page / PAGE_CHUNK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| RefCell::default())))
    }

    #[cold]
    #[inline(never)]
    fn zero_page(&self) -> Box<[u8]> {
        vec![0; self.geo.page_size()].into_boxed_slice()
    }

    /// The shared geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Current protection of a global vpage.
    ///
    /// # Panics
    ///
    /// Panics if `vpage` is out of range.
    #[inline]
    pub fn prot(&self, vpage: usize) -> Prot {
        if vpage < self.priv_start {
            return self.app_prot(vpage);
        }
        assert!(
            vpage < self.geo.total_vpages(),
            "vpage {vpage} is out of range"
        );
        Prot::ReadWrite
    }

    /// The protection of application vpage `vp`: a shift, a mask and two
    /// loads.
    #[inline]
    fn app_prot(&self, vp: usize) -> Prot {
        match self.prots[vp / PROT_CHUNK].get() {
            Some(chunk) => chunk[vp % PROT_CHUNK].get(),
            None => Prot::NoAccess,
        }
    }

    /// Sets application vpage `vp` to `prot`. `NoAccess` on an absent
    /// chunk is what it reads already, so it materializes nothing.
    #[inline]
    fn put_prot(&self, vp: usize, prot: Prot) {
        let chunk = match self.prots[vp / PROT_CHUNK].get() {
            Some(chunk) => chunk,
            None if prot == Prot::NoAccess => return,
            None => self.new_prot_chunk(vp),
        };
        chunk[vp % PROT_CHUNK].set(prot);
    }

    #[cold]
    #[inline(never)]
    fn new_prot_chunk(&self, vp: usize) -> &ProtChunk {
        self.prots[vp / PROT_CHUNK]
            .get_or_init(|| Box::new([const { Cell::new(Prot::NoAccess) }; PROT_CHUNK]))
    }

    /// Sets the protection of a global vpage.
    ///
    /// Returns [`MemFault::Privileged`] for privileged vpages,
    /// whose protection is fixed (§2.3.1).
    #[inline]
    pub fn set_prot(&self, vpage: usize, prot: Prot) -> Result<(), MemFault> {
        if vpage >= self.priv_start {
            return Err(if vpage < self.geo.total_vpages() {
                MemFault::Privileged { vpage }
            } else {
                MemFault::OutOfRange {
                    addr: VAddr(0),
                    len: 0,
                }
            });
        }
        self.put_prot(vpage, prot);
        Ok(())
    }

    /// Checks whether `[addr, addr+len)` is accessible for `access`
    /// through the view `addr` belongs to, without touching data.
    ///
    /// The privileged view always passes.
    pub fn check(&self, addr: VAddr, len: usize, access: Access) -> Result<(), AccessError> {
        let (view, segs) = self.segments(addr, len)?;
        if view != self.geo.priv_view() {
            for s in segs {
                self.allow(addr, view, s.vpage, access)?;
            }
        }
        Ok(())
    }

    /// The protection check of one vpage of an application access.
    #[inline]
    fn allow(
        &self,
        addr: VAddr,
        view: usize,
        vp: usize,
        access: Access,
    ) -> Result<(), AccessError> {
        if self.app_prot(vp).allows(access) {
            return Ok(());
        }
        Err(AccessError::Fault(Fault {
            addr: self.fault_addr(addr, view, vp),
            vpage: vp,
            access,
        }))
    }

    /// Application read: copies `buf.len()` bytes starting at `addr` into
    /// `buf`, enforcing protections page by page.
    pub fn read(&self, addr: VAddr, buf: &mut [u8]) -> Result<(), AccessError> {
        let (view, segs) = self.segments(addr, buf.len())?;
        let privileged = view == self.geo.priv_view();
        for s in segs {
            if !privileged {
                self.allow(addr, view, s.vpage, Access::Read)?;
            }
            self.copy_out(s.page, s.off, &mut buf[s.at..s.at + s.take]);
        }
        Ok(())
    }

    /// Application write: copies `data` to `addr`, enforcing protections
    /// page by page (the pages before a faulting one are written).
    pub fn write(&self, addr: VAddr, data: &[u8]) -> Result<(), AccessError> {
        let (view, segs) = self.segments(addr, data.len())?;
        let privileged = view == self.geo.priv_view();
        for s in segs {
            if !privileged {
                self.allow(addr, view, s.vpage, Access::Write)?;
            }
            self.page_mut(s.page)[s.off..s.off + s.take]
                .copy_from_slice(&data[s.at..s.at + s.take]);
        }
        Ok(())
    }

    /// Privileged read (server turns, §2.3.1): ignores application
    /// protections. `addr` may be expressed through any view.
    pub fn priv_read(&self, addr: VAddr, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = vec![0u8; len];
        self.priv_read_into(addr, &mut out)?;
        Ok(out)
    }

    /// [`priv_read`](AddressSpace::priv_read) into `out`, filling all of
    /// it: a reply's bytes land in the buffer the message carries.
    pub fn priv_read_into(&self, addr: VAddr, out: &mut [u8]) -> Result<(), MemFault> {
        for s in self.segments(addr, out.len())?.1 {
            self.copy_out(s.page, s.off, &mut out[s.at..s.at + s.take]);
        }
        Ok(())
    }

    /// Privileged write (zero-copy receive path of §3.5): ignores
    /// application protections.
    pub fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemFault> {
        self.priv_patch(addr, data.len(), |at, bytes| {
            bytes.copy_from_slice(&data[at..at + bytes.len()]);
        })
    }

    /// Privileged in-place update of `[addr, addr+len)`: one decode for
    /// the range, then `f(at, bytes)` once per page it covers, with
    /// `bytes` that page's part of the range (backed first if the page is
    /// unbacked) and `at` its offset within the range. A release diff is
    /// applied through it with one borrow per page, not one write per run.
    pub fn priv_patch(
        &self,
        addr: VAddr,
        len: usize,
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), MemFault> {
        for s in self.segments(addr, len)?.1 {
            f(s.at, &mut self.page_mut(s.page)[s.off..s.off + s.take]);
        }
        Ok(())
    }

    /// Sets the vpages covering `[addr, addr+len)` to `prot` and hands `f`
    /// the range's bytes as they were, in one step: no application write
    /// can land between the two. Used by the release-consistency
    /// extension, which diffs a dirty copy's final contents. A range on
    /// one backed page is that page's own bytes; any other range is
    /// gathered into a buffer the space keeps for the purpose.
    pub fn snapshot_and_protect<R>(
        &self,
        addr: VAddr,
        len: usize,
        prot: Prot,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemFault> {
        let (view, segs) = self.segments(addr, len)?;
        if view == self.geo.priv_view() {
            return Err(MemFault::Privileged { vpage: segs.vpage });
        }
        let (first, off) = (segs.page, segs.off);
        for s in segs {
            self.put_prot(s.vpage, prot);
        }
        if off + len <= self.geo.page_size() {
            let page = self.slot(first).map(RefCell::borrow);
            if let Some(bytes) = page.as_deref().filter(|b| !b.is_empty()) {
                return Ok(f(&bytes[off..off + len]));
            }
        }
        let mut gathered = self.gathered.borrow_mut();
        gathered.resize(len, 0);
        self.priv_read_into(addr, &mut gathered)?;
        Ok(f(&gathered))
    }

    /// Decodes `[addr, addr+len)` once: its view, and the page segments
    /// it covers.
    #[inline]
    fn segments(&self, addr: VAddr, len: usize) -> Result<(usize, Segments), MemFault> {
        let (loc, vpages) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemFault::OutOfRange { addr, len })?;
        let segs = Segments {
            page_size: self.geo.page_size(),
            vpage: vpages.start,
            page: loc.page,
            off: loc.offset,
            at: 0,
            len,
        };
        Ok((loc.view, segs))
    }

    /// The address to report in a [`Fault`] for vpage `vp`: the
    /// original address if it lies on that vpage, otherwise the vpage base.
    fn fault_addr(&self, addr: VAddr, view: usize, vp: usize) -> VAddr {
        let page = vp % self.geo.pages();
        match self.geo.decode(addr) {
            Some(l) if l.page == page && l.view == view => addr,
            _ => self.geo.addr_of(view, page, 0),
        }
    }
}

/// One page's part of a decoded range: `take` bytes at offset `off` of
/// physical page `page` (vpage `vpage` of the range's view), which are
/// bytes `at..at + take` of the range.
struct Segment {
    vpage: usize,
    page: usize,
    off: usize,
    at: usize,
    take: usize,
}

/// The [`Segment`]s of a range, in address order.
struct Segments {
    page_size: usize,
    vpage: usize,
    page: usize,
    off: usize,
    at: usize,
    len: usize,
}

impl Iterator for Segments {
    type Item = Segment;

    #[inline]
    fn next(&mut self) -> Option<Segment> {
        if self.at >= self.len {
            return None;
        }
        let take = (self.len - self.at).min(self.page_size - self.off);
        let s = Segment {
            vpage: self.vpage,
            page: self.page,
            off: self.off,
            at: self.at,
            take,
        };
        self.at += take;
        self.off = 0;
        self.vpage += 1;
        self.page += 1;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(Geometry::with_layout(0x1000, 4096, 4, 2))
    }

    #[test]
    fn fresh_space_has_noaccess_app_views_and_rw_priv() {
        // The small test layout, and the default one a simulated host
        // gets: 32 application views + the privileged one × 4 096 pages.
        let default_layout = AddressSpace::new(Geometry::new(4096, 32));
        for s in [space(), default_layout] {
            let g = s.geometry().clone();
            for view in 0..g.views() {
                for page in 0..g.pages() {
                    assert_eq!(s.prot(g.vpage_index(view, page)), Prot::NoAccess);
                }
            }
            for page in 0..g.pages() {
                assert_eq!(s.prot(g.vpage_index(g.priv_view(), page)), Prot::ReadWrite);
            }
        }
    }

    #[test]
    fn an_absent_chunk_reads_its_views_default_protection() {
        // 700 pages × 2 application views: three protection chunks, the
        // last one partial, and eleven page chunks.
        let s = AddressSpace::new(Geometry::new(700, 2));
        let g = s.geometry().clone();
        let priv_start = g.vpage_index(g.priv_view(), 0);
        assert_eq!((s.prots.len(), s.pages.len()), (3, 11));
        s.set_prot(600, Prot::ReadOnly).unwrap();
        // Closing a vpage of an absent chunk is what it reads already.
        s.set_prot(1300, Prot::NoAccess).unwrap();
        let present: Vec<bool> = s.prots.iter().map(|c| c.get().is_some()).collect();
        assert_eq!(present, [false, true, false]);
        for vp in 0..g.total_vpages() {
            let want = match vp {
                600 => Prot::ReadOnly,
                vp if vp >= priv_start => Prot::ReadWrite,
                _ => Prot::NoAccess,
            };
            assert_eq!(s.prot(vp), want, "vpage {vp}");
        }
        // Out of range and privileged vpages are still errors, and touch
        // no chunk.
        let out = MemFault::OutOfRange {
            addr: VAddr(0),
            len: 0,
        };
        assert_eq!(s.set_prot(g.total_vpages(), Prot::ReadWrite), Err(out));
        assert_eq!(s.set_prot(usize::MAX, Prot::ReadWrite), Err(out));
        assert_eq!(
            s.set_prot(priv_start, Prot::NoAccess),
            Err(MemFault::Privileged { vpage: priv_start })
        );
        assert_eq!(s.prots.iter().filter(|c| c.get().is_some()).count(), 1);
        assert!(s.pages.iter().all(|c| c.get().is_none()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reading_an_out_of_range_protection_panics() {
        let s = space();
        s.prot(s.geometry().total_vpages());
    }

    #[test]
    fn app_access_faults_on_noaccess() {
        let s = space();
        let a = s.geometry().addr_of(0, 0, 16);
        let mut buf = [0u8; 4];
        match s.read(a, &mut buf) {
            Err(AccessError::Fault(f)) => {
                assert_eq!(f.access, Access::Read);
                assert_eq!(f.addr, a);
            }
            other => panic!("expected fault, got {other:?}"),
        }
        match s.write(a, &buf) {
            Err(AccessError::Fault(f)) => assert_eq!(f.access, Access::Write),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn readonly_allows_read_but_not_write() {
        let s = space();
        let g = s.geometry().clone();
        let vp = g.vpage_index(0, 1);
        s.set_prot(vp, Prot::ReadOnly).unwrap();
        let a = g.addr_of(0, 1, 0);
        let mut buf = [0u8; 8];
        s.read(a, &mut buf).unwrap();
        assert!(matches!(
            s.write(a, &buf),
            Err(AccessError::Fault(Fault {
                access: Access::Write,
                ..
            }))
        ));
    }

    #[test]
    fn data_is_shared_across_views_but_protection_is_not() {
        let s = space();
        let g = s.geometry().clone();
        // View 0 page 2 writable; view 1 page 2 stays NoAccess.
        s.set_prot(g.vpage_index(0, 2), Prot::ReadWrite).unwrap();
        let a0 = g.addr_of(0, 2, 100);
        s.write(a0, b"multiview").unwrap();
        // Same physical bytes visible through view 1... but protected.
        let a1 = g.addr_of(1, 2, 100);
        let mut buf = [0u8; 9];
        assert!(matches!(s.read(a1, &mut buf), Err(AccessError::Fault(_))));
        // ...and readable once view 1 is opened: the storage is shared.
        s.set_prot(g.vpage_index(1, 2), Prot::ReadOnly).unwrap();
        s.read(a1, &mut buf).unwrap();
        assert_eq!(&buf, b"multiview");
    }

    #[test]
    fn privileged_view_bypasses_protection() {
        let s = space();
        let g = s.geometry().clone();
        let ap = g.addr_of(g.priv_view(), 0, 0);
        s.priv_write(ap, b"server").unwrap();
        let got = s.priv_read(ap, 6).unwrap();
        assert_eq!(got, b"server");
        // Even read/write through the privileged view addresses succeed.
        let mut buf = [0u8; 6];
        s.read(ap, &mut buf).unwrap();
        assert_eq!(&buf, b"server");
    }

    #[test]
    fn privileged_protection_cannot_change() {
        let s = space();
        let g = s.geometry().clone();
        let vp = g.vpage_index(g.priv_view(), 0);
        assert!(matches!(
            s.set_prot(vp, Prot::NoAccess),
            Err(MemFault::Privileged { .. })
        ));
    }

    #[test]
    fn priv_write_then_app_read_after_grant() {
        let s = space();
        let g = s.geometry().clone();
        // Server receives a minipage into the privileged view, then grants.
        let app_addr = g.addr_of(1, 3, 200);
        let priv_addr = g.to_priv(app_addr).unwrap();
        s.priv_write(priv_addr, &[7u8; 64]).unwrap();
        s.set_prot(g.vpage_index(1, 3), Prot::ReadOnly).unwrap();
        let mut buf = [0u8; 64];
        s.read(app_addr, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
    }

    #[test]
    fn multi_page_priv_roundtrip() {
        let s = space();
        let g = s.geometry().clone();
        let a = g.addr_of(0, 0, 4000);
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        s.priv_write(a, &data).unwrap();
        assert_eq!(s.priv_read(a, 600).unwrap(), data);
    }

    #[test]
    fn multi_page_app_write_requires_all_vpages() {
        let s = space();
        let g = s.geometry().clone();
        s.set_prot(g.vpage_index(0, 0), Prot::ReadWrite).unwrap();
        // Page 1 in view 0 stays NoAccess; a write crossing into it faults.
        let a = g.addr_of(0, 0, 4090);
        let err = s.write(a, &[1u8; 20]).unwrap_err();
        match err {
            AccessError::Fault(f) => assert_eq!(f.vpage, g.vpage_index(0, 1)),
            other => panic!("unexpected {other:?}"),
        }
        // Open page 1 and it goes through.
        s.set_prot(g.vpage_index(0, 1), Prot::ReadWrite).unwrap();
        s.write(a, &[1u8; 20]).unwrap();
        assert_eq!(s.priv_read(a, 20).unwrap(), vec![1u8; 20]);
    }

    #[test]
    fn snapshot_and_protect_is_atomic_per_page() {
        let s = space();
        let g = s.geometry().clone();
        s.set_prot(g.vpage_index(0, 1), Prot::ReadWrite).unwrap();
        let a = g.addr_of(0, 1, 100);
        s.write(a, b"dirty-bytes").unwrap();
        let snap = s
            .snapshot_and_protect(a, 11, Prot::NoAccess, <[u8]>::to_vec)
            .unwrap();
        assert_eq!(snap, b"dirty-bytes");
        assert_eq!(s.prot(g.vpage_index(0, 1)), Prot::NoAccess);
        let mut buf = [0u8; 1];
        assert!(matches!(s.read(a, &mut buf), Err(AccessError::Fault(_))));
        // Privileged-view targets are rejected.
        let p = g.to_priv(a).unwrap();
        assert!(s
            .snapshot_and_protect(p, 4, Prot::NoAccess, |_| ())
            .is_err());
    }

    #[test]
    fn fresh_space_reads_zeros_and_stays_unbacked() {
        let s = space();
        let g = s.geometry().clone();
        for page in 0..g.pages() {
            s.set_prot(g.vpage_index(0, page), Prot::ReadWrite).unwrap();
        }
        let a = g.addr_of(0, 1, 40);
        let mut buf = [0xffu8; 16];
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        // Across a page boundary, too.
        let mut wide = [0xffu8; 64];
        s.read(g.addr_of(0, 0, 4080), &mut wide).unwrap();
        assert_eq!(wide, [0u8; 64]);
        assert_eq!(
            s.priv_read(g.to_priv(a).unwrap(), 5000).unwrap(),
            vec![0u8; 5000]
        );
        let snap = s
            .snapshot_and_protect(a, 16, Prot::ReadOnly, <[u8]>::to_vec)
            .unwrap();
        assert_eq!(snap, vec![0u8; 16]);
        // A write that faults is not a write.
        assert!(matches!(s.write(a, &[1]), Err(AccessError::Fault(_))));
        assert_eq!(s.backed_pages(), 0);
    }

    #[test]
    fn first_write_backs_exactly_its_page() {
        type WritePath = fn(&AddressSpace, VAddr);
        let paths: [(&str, WritePath); 2] = [
            ("write", |s, a| s.write(a, &[7; 8]).unwrap()),
            ("priv_write", |s, a| {
                let p = s.geometry().to_priv(a).unwrap();
                s.priv_write(p, &[7; 8]).unwrap()
            }),
        ];
        for (name, write) in paths {
            let s = space();
            let g = s.geometry().clone();
            s.set_prot(g.vpage_index(1, 2), Prot::ReadWrite).unwrap();
            let a = g.addr_of(1, 2, 24);
            write(&s, a);
            assert_eq!(s.backed_pages(), 1, "{name}");
            // The rest of the page is zero, the written bytes are there,
            // and the neighbours are still unbacked zeros.
            let page = s.priv_read(g.addr_of(g.priv_view(), 2, 0), 4096).unwrap();
            assert!(page[24..32].iter().all(|&b| b == 7), "{name}");
            assert_eq!(page.iter().filter(|&&b| b != 0).count(), 8, "{name}");
            assert_eq!(
                s.priv_read(g.addr_of(g.priv_view(), 1, 0), 4096).unwrap(),
                vec![0u8; 4096],
                "{name}"
            );
            assert_eq!(s.backed_pages(), 1, "{name}: reads must not back");
        }
    }

    #[test]
    fn out_of_range_is_mem_error() {
        let s = space();
        let mut buf = [0u8; 1];
        assert!(matches!(
            s.read(VAddr(0x10), &mut buf),
            Err(AccessError::Mem(MemFault::OutOfRange { .. }))
        ));
    }
}
