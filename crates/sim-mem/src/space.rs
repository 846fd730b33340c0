//! Per-host address space: protections + page storage + checked access.

use crate::fault::MemError;
use sim_core::{Access, Fault, Geometry, Prot, VAddr};
use std::cell::{Cell, RefCell};

/// Why a checked access did not complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessError {
    /// Hard error: address outside the shared region (a program bug).
    Mem(MemError),
    /// An access fault to be resolved by the DSM protocol.
    Fault(Fault),
}

impl From<MemError> for AccessError {
    fn from(e: MemError) -> Self {
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
/// the protection of every vpage of every view. A page nobody wrote yet is
/// *unbacked*: it reads as zeros and owns no storage until its first write
/// — a host pays for the part of the shared object it touches, not for
/// the object (views alias pages; hosts do not each copy the region). Application access goes through
/// [`read`](AddressSpace::read) / [`write`](AddressSpace::write), which
/// enforce protections like the MMU would; DSM server turns use the
/// `priv_*` methods, which model the privileged view (§2.3.1) and ignore
/// application protections.
///
/// # One thread
///
/// A simulated run is fibers on one OS thread, so a space is used by one
/// thread and takes no lock: page storage is a `RefCell` per page,
/// protections and the generation are `Cell`s, and the type is not
/// `Sync`. Two facts make that enough. An application copy never spans a
/// yield point: it decodes, checks the vpage protection and moves bytes
/// without calling the scheduler, and each page's borrow ends before the
/// copy returns. Server turns — the only code that changes protections
/// under a running application — run between yields. So an invalidation
/// never lands inside an in-flight copy: either the copy completes first
/// (and serializes before the remote write, which is legal under
/// sequential consistency because the writer is still blocked waiting for
/// the invalidation ack) or the protection change lands first and the
/// access faults.
///
/// # The software TLB
///
/// The non-faulting common case is the one MultiView's protection trick is
/// supposed to make near-free, so threads may cache `(vpage → protection,
/// page)` resolutions in a per-thread [`AccessTlb`] and take the
/// [`tlb_read`](AddressSpace::tlb_read) / [`tlb_write`](AddressSpace::tlb_write)
/// fast path, which skips the address decode and the protection load.
/// Safety rests on a single generation counter: every protection change
/// ([`set_prot`](AddressSpace::set_prot),
/// [`snapshot_and_protect`](AddressSpace::snapshot_and_protect)) bumps
/// the space's `prot_gen` field, and the fast path compares the cached
/// generation before touching bytes. A server turn between two accesses
/// may change protections, so the check stays: a matching generation
/// proves no protection anywhere changed since the entry was filled, so
/// the cached protection is still exact; a mismatch falls back to the
/// slow path (at worst a spurious miss for an unrelated vpage's change).
/// The TLB therefore changes wall-clock cost only — never which accesses
/// fault.
pub struct AddressSpace {
    geo: Geometry,
    prots: Vec<Cell<Prot>>,
    /// Per-page storage; an empty box is an unbacked (all-zero) page.
    pages: Vec<RefCell<Box<[u8]>>>,
    /// What reads of an unbacked page see.
    zeros: Box<[u8]>,
    /// Bumped by every protection change; validates [`TlbEntry`]s.
    prot_gen: Cell<u64>,
    /// Where [`snapshot_and_protect`](AddressSpace::snapshot_and_protect)
    /// gathers a range that spans pages.
    gathered: RefCell<Vec<u8>>,
}

/// One cached vpage resolution: the fields a checked access needs, minus
/// anything that requires a decode or a protection load.
#[derive(Clone, Copy, Debug)]
pub struct TlbEntry {
    /// The space's `prot_gen` at fill time.
    gen: u64,
    /// Global vpage index (identifies the entry for eviction).
    vpage: usize,
    /// Physical page index (the storage to use).
    page: usize,
    /// First address of the vpage.
    base: u64,
    /// One past the last address of the vpage.
    limit: u64,
    /// Protection at fill time (exact while `gen` is current).
    prot: Prot,
}

/// A tiny per-thread cache of [`TlbEntry`]s (fully associative, round
/// robin replacement — big enough for a stencil's neighbor rows, small
/// enough to probe in a few compares).
#[derive(Debug, Default)]
pub struct AccessTlb {
    entries: [Option<TlbEntry>; 4],
    victim: usize,
}

impl AccessTlb {
    /// An empty TLB.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cached entry whose vpage covers `[addr, addr+len)` with a
    /// protection allowing `access`. The returned entry must still be
    /// generation-validated by
    /// [`AddressSpace::tlb_read`] / [`AddressSpace::tlb_write`].
    #[inline]
    pub fn lookup(&self, addr: VAddr, len: usize, access: Access) -> Option<TlbEntry> {
        self.entries
            .iter()
            .flatten()
            .copied()
            .find(|e| addr.0 >= e.base && addr.0 + len as u64 <= e.limit && e.prot.allows(access))
    }

    /// Caches `e`, replacing any entry for the same vpage, else a round
    /// robin victim.
    pub fn insert(&mut self, e: TlbEntry) {
        let slot = self
            .entries
            .iter()
            .position(|s| s.is_some_and(|s| s.vpage == e.vpage))
            .unwrap_or_else(|| {
                let v = self.victim;
                self.victim = (v + 1) % self.entries.len();
                v
            });
        self.entries[slot] = Some(e);
    }

    /// Drops the entry for `vpage` (after a failed generation check).
    pub fn evict(&mut self, vpage: usize) {
        for s in self.entries.iter_mut() {
            if s.is_some_and(|e| e.vpage == vpage) {
                *s = None;
            }
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries = [None; 4];
    }
}

impl TlbEntry {
    /// The global vpage this entry resolves (for [`AccessTlb::evict`]).
    pub fn vpage(&self) -> usize {
        self.vpage
    }
}

impl AddressSpace {
    /// Creates an address space: all application vpages `NoAccess`, the
    /// privileged view `ReadWrite`, all pages zero and unbacked.
    pub fn new(geo: Geometry) -> Self {
        let prots = vec![Cell::new(Prot::NoAccess); geo.total_vpages()];
        for p in &prots[geo.vpage_index(geo.priv_view(), 0)..] {
            p.set(Prot::ReadWrite);
        }
        let pages = (0..geo.pages()).map(|_| RefCell::default()).collect();
        Self {
            zeros: vec![0u8; geo.page_size()].into_boxed_slice(),
            geo,
            prots,
            pages,
            prot_gen: Cell::new(0),
            gathered: RefCell::default(),
        }
    }

    /// Number of pages that own storage (were written at least once).
    pub fn backed_pages(&self) -> usize {
        self.pages.iter().filter(|p| !p.borrow().is_empty()).count()
    }

    /// The bytes of a borrowed page.
    #[inline]
    fn bytes<'a>(&'a self, page: &'a [u8]) -> &'a [u8] {
        if page.is_empty() {
            &self.zeros
        } else {
            page
        }
    }

    /// The bytes of a mutably borrowed page, backing it first if this is
    /// its first write.
    #[inline]
    fn bytes_mut<'a>(&self, page: &'a mut Box<[u8]>) -> &'a mut [u8] {
        if page.is_empty() {
            *page = self.zeros.clone();
        }
        page
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
        self.prots[vpage].get()
    }

    /// Sets the protection of a global vpage and invalidates every cached
    /// [`TlbEntry`].
    ///
    /// Returns [`MemError::PrivilegedViewProtection`] for privileged vpages,
    /// whose protection is fixed (§2.3.1).
    pub fn set_prot(&self, vpage: usize, prot: Prot) -> Result<(), MemError> {
        if vpage >= self.prots.len() {
            return Err(MemError::OutOfRange {
                addr: VAddr(0),
                len: 0,
            });
        }
        if vpage >= self.geo.vpage_index(self.geo.priv_view(), 0) {
            return Err(MemError::PrivilegedViewProtection { vpage });
        }
        self.prots[vpage].set(prot);
        self.bump_gen();
        Ok(())
    }

    #[inline]
    fn bump_gen(&self) {
        self.prot_gen.set(self.prot_gen.get() + 1);
    }

    /// Resolves `addr`'s vpage into a cacheable [`TlbEntry`] (page index,
    /// vpage bounds, current protection, current generation). Returns
    /// `None` outside the shared region or for the privileged view, which
    /// bypasses protections and stays on the slow path.
    pub fn tlb_fill(&self, addr: VAddr) -> Option<TlbEntry> {
        let (loc, vpages) = self.geo.vpages_covering(addr, 1)?;
        if loc.view == self.geo.priv_view() {
            return None;
        }
        let vpage = vpages.start;
        let base = addr.0 - loc.offset as u64;
        Some(TlbEntry {
            gen: self.prot_gen.get(),
            vpage,
            page: loc.page,
            base,
            limit: base + self.geo.page_size() as u64,
            prot: self.prot(vpage),
        })
    }

    /// Fast-path read through a cached [`TlbEntry`]: no address decode,
    /// no protection load — one generation compare, one copy. Returns
    /// `false` (without touching `buf`) if any protection changed since
    /// the entry was filled; the caller falls back to the checked slow
    /// path.
    ///
    /// The caller must have matched `addr`/`buf.len()` against the entry
    /// via [`AccessTlb::lookup`], which also checked the cached
    /// protection allows reads.
    #[inline]
    pub fn tlb_read(&self, e: &TlbEntry, addr: VAddr, buf: &mut [u8]) -> bool {
        if self.prot_gen.get() != e.gen {
            return false;
        }
        let off = (addr.0 - e.base) as usize;
        let page = self.pages[e.page].borrow();
        buf.copy_from_slice(&self.bytes(&page)[off..off + buf.len()]);
        true
    }

    /// Fast-path write through a cached [`TlbEntry`]; see
    /// [`tlb_read`](AddressSpace::tlb_read).
    #[inline]
    pub fn tlb_write(&self, e: &TlbEntry, addr: VAddr, data: &[u8]) -> bool {
        if self.prot_gen.get() != e.gen {
            return false;
        }
        let off = (addr.0 - e.base) as usize;
        let mut page = self.pages[e.page].borrow_mut();
        self.bytes_mut(&mut page)[off..off + data.len()].copy_from_slice(data);
        true
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
        if self.prot(vp).allows(access) {
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
            let page = self.pages[s.page].borrow();
            buf[s.at..s.at + s.take].copy_from_slice(&self.bytes(&page)[s.off..s.off + s.take]);
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
            let mut page = self.pages[s.page].borrow_mut();
            self.bytes_mut(&mut page)[s.off..s.off + s.take]
                .copy_from_slice(&data[s.at..s.at + s.take]);
        }
        Ok(())
    }

    /// Privileged read (server turns, §2.3.1): ignores application
    /// protections. `addr` may be expressed through any view.
    pub fn priv_read(&self, addr: VAddr, len: usize) -> Result<Vec<u8>, MemError> {
        let mut out = vec![0u8; len];
        self.priv_read_into(addr, &mut out)?;
        Ok(out)
    }

    /// [`priv_read`](AddressSpace::priv_read) into `out`, filling all of
    /// it: a reply's bytes land in the buffer the message carries.
    pub fn priv_read_into(&self, addr: VAddr, out: &mut [u8]) -> Result<(), MemError> {
        for s in self.segments(addr, out.len())?.1 {
            let page = self.pages[s.page].borrow();
            out[s.at..s.at + s.take].copy_from_slice(&self.bytes(&page)[s.off..s.off + s.take]);
        }
        Ok(())
    }

    /// Privileged write (zero-copy receive path of §3.5): ignores
    /// application protections.
    pub fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemError> {
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
    ) -> Result<(), MemError> {
        for s in self.segments(addr, len)?.1 {
            let mut page = self.pages[s.page].borrow_mut();
            f(s.at, &mut self.bytes_mut(&mut page)[s.off..s.off + s.take]);
        }
        Ok(())
    }

    /// Sets the vpages covering `[addr, addr+len)` to `prot` and hands `f`
    /// the range's bytes as they were, in one step: no application write
    /// can land between the two. Used by the release-consistency
    /// extension, which diffs a dirty copy's final contents. A range on
    /// one page is that page's own bytes; a range spanning pages is
    /// gathered into a buffer the space keeps for the purpose.
    pub fn snapshot_and_protect<R>(
        &self,
        addr: VAddr,
        len: usize,
        prot: Prot,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemError> {
        let (view, segs) = self.segments(addr, len)?;
        if view == self.geo.priv_view() {
            return Err(MemError::PrivilegedViewProtection { vpage: segs.vpage });
        }
        let (first, off) = (segs.page, segs.off);
        for s in segs {
            self.prots[s.vpage].set(prot);
        }
        self.bump_gen();
        if off + len <= self.geo.page_size() {
            let page = self.pages[first].borrow();
            return Ok(f(&self.bytes(&page)[off..off + len]));
        }
        let mut gathered = self.gathered.borrow_mut();
        gathered.resize(len, 0);
        self.priv_read_into(addr, &mut gathered)?;
        Ok(f(&gathered))
    }

    /// Decodes `[addr, addr+len)` once: its view, and the page segments
    /// it covers.
    #[inline]
    fn segments(&self, addr: VAddr, len: usize) -> Result<(usize, Segments), MemError> {
        let (loc, vpages) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemError::OutOfRange { addr, len })?;
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
            Err(MemError::PrivilegedViewProtection { .. })
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
    fn tlb_fast_path_reads_and_writes() {
        let s = space();
        let g = s.geometry().clone();
        let vp = g.vpage_index(0, 1);
        s.set_prot(vp, Prot::ReadWrite).unwrap();
        let a = g.addr_of(0, 1, 100);
        let mut tlb = AccessTlb::new();
        assert!(tlb.lookup(a, 4, Access::Read).is_none());
        let e = s.tlb_fill(a).unwrap();
        assert_eq!(e.vpage(), vp);
        tlb.insert(e);
        let e = tlb.lookup(a, 4, Access::Write).expect("cached entry");
        assert!(s.tlb_write(&e, a, &[1, 2, 3, 4]));
        let mut buf = [0u8; 4];
        let e = tlb.lookup(a, 4, Access::Read).expect("cached entry");
        assert!(s.tlb_read(&e, a, &mut buf));
        assert_eq!(buf, [1, 2, 3, 4]);
        // An access past the vpage, or without the needed protection,
        // never matches the cache.
        assert!(tlb.lookup(g.addr_of(0, 2, 0), 4, Access::Read).is_none());
        s.set_prot(vp, Prot::ReadOnly).unwrap();
        let e = s.tlb_fill(a).unwrap();
        tlb.insert(e);
        assert!(tlb.lookup(a, 4, Access::Write).is_none());
        assert!(tlb.lookup(a, 4, Access::Read).is_some());
    }

    #[test]
    fn tlb_entry_is_invalidated_by_protection_change() {
        // write → invalidate → read must fault (miss), not hit the stale
        // cached entry: the generation bumped by set_prot defeats the
        // cached ReadWrite resolution.
        let s = space();
        let g = s.geometry().clone();
        let vp = g.vpage_index(0, 1);
        s.set_prot(vp, Prot::ReadWrite).unwrap();
        let a = g.addr_of(0, 1, 0);
        let mut tlb = AccessTlb::new();
        tlb.insert(s.tlb_fill(a).unwrap());
        let e = tlb.lookup(a, 8, Access::Write).expect("cached entry");
        assert!(s.tlb_write(&e, a, &[9u8; 8]));
        // The invalidation (e.g. a remote writer taking ownership).
        s.set_prot(vp, Prot::NoAccess).unwrap();
        // The stale entry still matches the lookup — but the generation
        // check rejects it...
        let stale = tlb.lookup(a, 8, Access::Read).expect("stale entry");
        let mut buf = [0u8; 8];
        assert!(!s.tlb_read(&stale, a, &mut buf));
        tlb.evict(stale.vpage());
        assert!(tlb.lookup(a, 8, Access::Read).is_none());
        // ...and the slow path faults, exactly as without a TLB.
        assert!(matches!(s.read(a, &mut buf), Err(AccessError::Fault(_))));
        // A refill after a re-grant works again.
        s.set_prot(vp, Prot::ReadOnly).unwrap();
        tlb.insert(s.tlb_fill(a).unwrap());
        let e = tlb.lookup(a, 8, Access::Read).expect("refilled");
        assert!(s.tlb_read(&e, a, &mut buf));
        assert_eq!(buf, [9u8; 8]);
    }

    #[test]
    fn tlb_is_invalidated_by_snapshot_and_protect() {
        let s = space();
        let g = s.geometry().clone();
        let vp = g.vpage_index(0, 1);
        s.set_prot(vp, Prot::ReadWrite).unwrap();
        let a = g.addr_of(0, 1, 0);
        let mut tlb = AccessTlb::new();
        tlb.insert(s.tlb_fill(a).unwrap());
        s.snapshot_and_protect(a, 16, Prot::ReadOnly, |_| ())
            .unwrap();
        let stale = tlb.lookup(a, 8, Access::Write).expect("stale entry");
        assert!(!s.tlb_write(&stale, a, &[1u8; 8]));
    }

    #[test]
    fn tlb_replacement_keeps_recent_entries() {
        let s = space();
        let g = s.geometry().clone();
        let mut tlb = AccessTlb::new();
        for page in 0..4 {
            s.set_prot(g.vpage_index(0, page), Prot::ReadWrite).unwrap();
            tlb.insert(s.tlb_fill(g.addr_of(0, page, 0)).unwrap());
        }
        // All four resident; a fifth (same vpage refreshed) replaces in
        // place, not a victim.
        for page in 0..4 {
            assert!(
                tlb.lookup(g.addr_of(0, page, 10), 1, Access::Read)
                    .is_some(),
                "page {page} evicted prematurely"
            );
        }
        tlb.insert(s.tlb_fill(g.addr_of(0, 2, 0)).unwrap());
        assert!(tlb.lookup(g.addr_of(0, 0, 0), 1, Access::Read).is_some());
        tlb.clear();
        assert!(tlb.lookup(g.addr_of(0, 0, 0), 1, Access::Read).is_none());
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
        let e = s.tlb_fill(a).unwrap();
        let mut buf = [0xffu8; 16];
        assert!(s.tlb_read(&e, a, &mut buf));
        assert_eq!(buf, [0u8; 16]);
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
        let paths: [(&str, WritePath); 3] = [
            ("write", |s, a| s.write(a, &[7; 8]).unwrap()),
            ("tlb_write", |s, a| {
                let e = s.tlb_fill(a).unwrap();
                assert!(s.tlb_write(&e, a, &[7; 8]));
            }),
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
            Err(AccessError::Mem(MemError::OutOfRange { .. }))
        ));
    }
}
