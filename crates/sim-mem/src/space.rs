//! Per-host address space: protections + page storage + checked access.

use crate::fault::{Access, AccessFault, MemError, Prot};
use parking_lot::RwLock;
use sim_core::{Geometry, VAddr};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Why a checked access did not complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessError {
    /// Hard error: address outside the shared region (a program bug).
    Mem(MemError),
    /// An access fault to be resolved by the DSM protocol.
    Fault(AccessFault),
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
/// enforce protections like the MMU would; DSM server threads use the
/// `priv_*` methods, which model the privileged view (§2.3.1) and ignore
/// application protections.
///
/// # Concurrency
///
/// Application copies hold the underlying physical page lock while they
/// re-check the vpage protection and move bytes, and protection *changes*
/// ([`set_prot`](AddressSpace::set_prot)) take the same lock exclusively.
/// An invalidation therefore cannot interleave with an in-flight
/// application access: either the access completes first (and serializes
/// before the remote write, which is legal under sequential consistency
/// because the writer is still blocked waiting for the invalidation ack) or
/// the protection change lands first and the access faults.
///
/// # The software TLB
///
/// The non-faulting common case is the one MultiView's protection trick is
/// supposed to make near-free, so threads may cache `(vpage → protection,
/// page)` resolutions in a per-thread [`AccessTlb`] and take the
/// [`tlb_read`](AddressSpace::tlb_read) / [`tlb_write`](AddressSpace::tlb_write)
/// fast path, which skips the address decode (divisions) and the
/// protection re-load. Safety rests on a single generation counter: every
/// protection change ([`set_prot`](AddressSpace::set_prot),
/// [`snapshot_and_protect`](AddressSpace::snapshot_and_protect)) bumps
/// [`prot_generation`](AddressSpace::prot_generation) *while holding the
/// page's exclusive lock*, and the fast path re-validates the cached
/// generation *under the page lock* before touching bytes. A matching
/// generation proves no protection anywhere changed since the entry was
/// filled, so the cached protection is still exact; a mismatch falls back
/// to the slow path (at worst a spurious miss for an unrelated vpage's
/// change). The TLB therefore changes wall-clock cost only — never which
/// accesses fault.
pub struct AddressSpace {
    geo: Geometry,
    prots: Vec<AtomicU8>,
    /// Per-page storage; an empty box is an unbacked (all-zero) page.
    pages: Vec<RwLock<Box<[u8]>>>,
    /// What reads of an unbacked page see.
    zeros: Box<[u8]>,
    /// Bumped (under the affected page's exclusive lock) by every
    /// protection change; validates [`TlbEntry`]s.
    prot_gen: AtomicU64,
}

/// One cached vpage resolution: the fields a checked access needs, minus
/// anything that requires a division or a map probe.
#[derive(Clone, Copy, Debug)]
pub struct TlbEntry {
    /// [`AddressSpace::prot_generation`] at fill time.
    gen: u64,
    /// Global vpage index (identifies the entry for eviction).
    vpage: usize,
    /// Physical page index (the lock + storage to use).
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
    /// generation-validated under the page lock by
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
        let mut prots = Vec::new();
        prots.resize_with(geo.total_vpages(), || AtomicU8::new(Prot::NoAccess as u8));
        // The privileged view is the last one; nobody shares the table yet.
        for p in &mut prots[geo.vpage_index(geo.priv_view(), 0)..] {
            *p.get_mut() = Prot::ReadWrite as u8;
        }
        let pages = (0..geo.pages()).map(|_| RwLock::default()).collect();
        Self {
            zeros: vec![0u8; geo.page_size()].into_boxed_slice(),
            geo,
            prots,
            pages,
            prot_gen: AtomicU64::new(0),
        }
    }

    /// Number of pages that own storage (were written at least once).
    pub fn backed_pages(&self) -> usize {
        self.pages.iter().filter(|p| !p.read().is_empty()).count()
    }

    /// The bytes of a page held under (at least) its read lock.
    #[inline]
    fn bytes<'a>(&'a self, page: &'a [u8]) -> &'a [u8] {
        if page.is_empty() {
            &self.zeros
        } else {
            page
        }
    }

    /// The bytes of a page held under its exclusive lock, backing it first
    /// if this is its first write.
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
    pub fn prot(&self, vpage: usize) -> Prot {
        let raw = self.prots[vpage].load(Ordering::Acquire);
        Prot::from_u8(raw).expect("protection bytes are only written from Prot values")
    }

    /// Sets the protection of a global vpage, serializing against in-flight
    /// application copies of the same physical page.
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
        if vpage / self.geo.pages() == self.geo.priv_view() {
            return Err(MemError::PrivilegedViewProtection { vpage });
        }
        let page = vpage % self.geo.pages();
        // Exclusive page lock: no application copy of this physical page is
        // in flight while the protection changes. The generation bump under
        // the same lock invalidates every cached TlbEntry before any fast
        // path can next validate one against this page.
        let _guard = self.pages[page].write();
        self.prots[vpage].store(prot as u8, Ordering::Release);
        self.prot_gen.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// The protection-change generation; a [`TlbEntry`] is valid only
    /// while this still equals the value read at fill time.
    pub fn prot_generation(&self) -> u64 {
        self.prot_gen.load(Ordering::Acquire)
    }

    /// Resolves `addr`'s vpage into a cacheable [`TlbEntry`] (page index,
    /// vpage bounds, current protection, current generation — read
    /// consistently under the page lock). Returns `None` outside the
    /// shared region or for the privileged view, which bypasses
    /// protections and stays on the slow path.
    pub fn tlb_fill(&self, addr: VAddr) -> Option<TlbEntry> {
        let (loc, vpages) = self.geo.vpages_covering(addr, 1)?;
        if loc.view == self.geo.priv_view() {
            return None;
        }
        let vpage = vpages.start;
        let guard = self.pages[loc.page].read();
        // Under the page's read lock no protection change for *this* page
        // can interleave; reading the generation before the protection is
        // merely conservative for concurrent changes to other pages.
        let gen = self.prot_gen.load(Ordering::Acquire);
        let prot = self.prot(vpage);
        drop(guard);
        let base = addr.0 - loc.offset as u64;
        Some(TlbEntry {
            gen,
            vpage,
            page: loc.page,
            base,
            limit: base + self.geo.page_size() as u64,
            prot,
        })
    }

    /// Fast-path read through a cached [`TlbEntry`]: no address decode,
    /// no protection load — one page read lock, one generation compare,
    /// one copy. Returns `false` (without touching `buf`) if any
    /// protection changed since the entry was filled; the caller falls
    /// back to the checked slow path.
    ///
    /// The caller must have matched `addr`/`buf.len()` against the entry
    /// via [`AccessTlb::lookup`], which also checked the cached
    /// protection allows reads.
    #[inline]
    pub fn tlb_read(&self, e: &TlbEntry, addr: VAddr, buf: &mut [u8]) -> bool {
        let guard = self.pages[e.page].read();
        if self.prot_gen.load(Ordering::Acquire) != e.gen {
            return false;
        }
        let off = (addr.0 - e.base) as usize;
        buf.copy_from_slice(&self.bytes(&guard)[off..off + buf.len()]);
        true
    }

    /// Fast-path write through a cached [`TlbEntry`]; see
    /// [`tlb_read`](AddressSpace::tlb_read).
    #[inline]
    pub fn tlb_write(&self, e: &TlbEntry, addr: VAddr, data: &[u8]) -> bool {
        let mut guard = self.pages[e.page].write();
        if self.prot_gen.load(Ordering::Acquire) != e.gen {
            return false;
        }
        let off = (addr.0 - e.base) as usize;
        self.bytes_mut(&mut guard)[off..off + data.len()].copy_from_slice(data);
        true
    }

    /// Checks whether `[addr, addr+len)` is accessible for `access`
    /// through the view `addr` belongs to, without touching data.
    ///
    /// The privileged view always passes.
    pub fn check(&self, addr: VAddr, len: usize, access: Access) -> Result<(), AccessError> {
        let (loc, vpages) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        if loc.view == self.geo.priv_view() {
            return Ok(());
        }
        for vp in vpages {
            if !self.prot(vp).allows(access) {
                return Err(AccessError::Fault(AccessFault {
                    addr: self.fault_addr(addr, loc.view, vp),
                    access,
                    vpage: vp,
                }));
            }
        }
        Ok(())
    }

    /// Application read: copies `buf.len()` bytes starting at `addr` into
    /// `buf`, enforcing protections.
    pub fn read(&self, addr: VAddr, buf: &mut [u8]) -> Result<(), AccessError> {
        let (loc, vpages) =
            self.geo
                .vpages_covering(addr, buf.len())
                .ok_or(MemError::OutOfRange {
                    addr,
                    len: buf.len(),
                })?;
        let privileged = loc.view == self.geo.priv_view();
        let mut page = loc.page;
        let mut off = loc.offset;
        let mut dst = &mut buf[..];
        let mut vp_iter = vpages;
        while !dst.is_empty() {
            let take = dst.len().min(self.geo.page_size() - off);
            let guard = self.pages[page].read();
            if !privileged {
                let vp = vp_iter.next().expect("vpages cover the whole range");
                if !self.prot(vp).allows(Access::Read) {
                    return Err(AccessError::Fault(AccessFault {
                        addr: self.fault_addr(addr, loc.view, vp),
                        access: Access::Read,
                        vpage: vp,
                    }));
                }
            }
            dst[..take].copy_from_slice(&self.bytes(&guard)[off..off + take]);
            dst = &mut dst[take..];
            off = 0;
            page += 1;
        }
        Ok(())
    }

    /// Application write: copies `data` to `addr`, enforcing protections.
    pub fn write(&self, addr: VAddr, data: &[u8]) -> Result<(), AccessError> {
        let (loc, vpages) =
            self.geo
                .vpages_covering(addr, data.len())
                .ok_or(MemError::OutOfRange {
                    addr,
                    len: data.len(),
                })?;
        let privileged = loc.view == self.geo.priv_view();
        let mut page = loc.page;
        let mut off = loc.offset;
        let mut src = data;
        let mut vp_iter = vpages;
        while !src.is_empty() {
            let take = src.len().min(self.geo.page_size() - off);
            let mut guard = self.pages[page].write();
            if !privileged {
                let vp = vp_iter.next().expect("vpages cover the whole range");
                if !self.prot(vp).allows(Access::Write) {
                    return Err(AccessError::Fault(AccessFault {
                        addr: self.fault_addr(addr, loc.view, vp),
                        access: Access::Write,
                        vpage: vp,
                    }));
                }
            }
            self.bytes_mut(&mut guard)[off..off + take].copy_from_slice(&src[..take]);
            src = &src[take..];
            off = 0;
            page += 1;
        }
        Ok(())
    }

    /// Application read that hands the caller a borrowed slice, avoiding a
    /// copy. The range must lie within a single page.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a page boundary (use
    /// [`read`](AddressSpace::read) for multi-page ranges).
    pub fn with_read<R>(
        &self,
        addr: VAddr,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, AccessError> {
        let (loc, vpages) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        assert!(
            vpages.len() == 1,
            "with_read range must not cross a page boundary"
        );
        let guard = self.pages[loc.page].read();
        if loc.view != self.geo.priv_view() {
            let vp = vpages.start;
            if !self.prot(vp).allows(Access::Read) {
                return Err(AccessError::Fault(AccessFault {
                    addr,
                    access: Access::Read,
                    vpage: vp,
                }));
            }
        }
        Ok(f(&self.bytes(&guard)[loc.offset..loc.offset + len]))
    }

    /// Application in-place update of a single-page range: the closure gets
    /// a mutable slice. Checked like a write.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a page boundary.
    pub fn with_write<R>(
        &self,
        addr: VAddr,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, AccessError> {
        let (loc, vpages) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        assert!(
            vpages.len() == 1,
            "with_write range must not cross a page boundary"
        );
        let mut guard = self.pages[loc.page].write();
        if loc.view != self.geo.priv_view() {
            let vp = vpages.start;
            if !self.prot(vp).allows(Access::Write) {
                return Err(AccessError::Fault(AccessFault {
                    addr,
                    access: Access::Write,
                    vpage: vp,
                }));
            }
        }
        Ok(f(
            &mut self.bytes_mut(&mut guard)[loc.offset..loc.offset + len]
        ))
    }

    /// Privileged read (server threads, §2.3.1): ignores application
    /// protections. `addr` may be expressed through any view.
    pub fn priv_read(&self, addr: VAddr, len: usize) -> Result<Vec<u8>, MemError> {
        let mut out = vec![0u8; len];
        let mut filled = 0usize;
        self.for_each_segment(addr, len, |page, off, take| {
            let guard = self.pages[page].read();
            out[filled..filled + take].copy_from_slice(&self.bytes(&guard)[off..off + take]);
            filled += take;
        })?;
        Ok(out)
    }

    /// Privileged write (zero-copy receive path of §3.5): ignores
    /// application protections.
    pub fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemError> {
        let mut used = 0usize;
        self.for_each_segment(addr, data.len(), |page, off, take| {
            let mut guard = self.pages[page].write();
            self.bytes_mut(&mut guard)[off..off + take].copy_from_slice(&data[used..used + take]);
            used += take;
        })?;
        Ok(())
    }

    /// Atomically (per page) snapshots `[addr, addr+len)` and sets the
    /// covered vpages to `prot`: each page's copy and protection change
    /// happen under one exclusive page lock, so an application write to a
    /// page either completes before the snapshot (and is captured) or
    /// faults after the protection change. Used by the release-consistency
    /// extension's invalidation path, which must capture a dirty copy's
    /// final contents.
    pub fn snapshot_and_protect(
        &self,
        addr: VAddr,
        len: usize,
        prot: Prot,
    ) -> Result<Vec<u8>, MemError> {
        let (loc, vpages) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        if loc.view == self.geo.priv_view() {
            return Err(MemError::PrivilegedViewProtection {
                vpage: vpages.start,
            });
        }
        let mut out = vec![0u8; len];
        let mut filled = 0usize;
        let mut page = loc.page;
        let mut off = loc.offset;
        let mut vp_iter = vpages;
        while filled < len {
            let take = (len - filled).min(self.geo.page_size() - off);
            let guard = self.pages[page].write();
            out[filled..filled + take].copy_from_slice(&self.bytes(&guard)[off..off + take]);
            let vp = vp_iter.next().expect("vpages cover the range");
            self.prots[vp].store(prot as u8, Ordering::Release);
            self.prot_gen.fetch_add(1, Ordering::Release);
            drop(guard);
            filled += take;
            off = 0;
            page += 1;
        }
        Ok(out)
    }

    fn for_each_segment(
        &self,
        addr: VAddr,
        len: usize,
        mut f: impl FnMut(usize, usize, usize),
    ) -> Result<(), MemError> {
        let (loc, _) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        let mut page = loc.page;
        let mut off = loc.offset;
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(self.geo.page_size() - off);
            f(page, off, take);
            remaining -= take;
            off = 0;
            page += 1;
        }
        Ok(())
    }

    /// The address to report in an [`AccessFault`] for vpage `vp`: the
    /// original address if it lies on that vpage, otherwise the vpage base.
    fn fault_addr(&self, addr: VAddr, view: usize, vp: usize) -> VAddr {
        let page = vp % self.geo.pages();
        match self.geo.decode(addr) {
            Some(l) if l.page == page && l.view == view => addr,
            _ => self.geo.addr_of(view, page, 0),
        }
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
            Err(AccessError::Fault(AccessFault {
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
    fn with_read_and_with_write_in_place() {
        let s = space();
        let g = s.geometry().clone();
        s.set_prot(g.vpage_index(0, 1), Prot::ReadWrite).unwrap();
        let a = g.addr_of(0, 1, 8);
        s.with_write(a, 4, |sl| sl.copy_from_slice(&[1, 2, 3, 4]))
            .unwrap();
        let sum = s.with_read(a, 4, |sl| sl.iter().map(|&b| b as u32).sum::<u32>());
        assert_eq!(sum.unwrap(), 10);
    }

    #[test]
    fn snapshot_and_protect_is_atomic_per_page() {
        let s = space();
        let g = s.geometry().clone();
        s.set_prot(g.vpage_index(0, 1), Prot::ReadWrite).unwrap();
        let a = g.addr_of(0, 1, 100);
        s.write(a, b"dirty-bytes").unwrap();
        let snap = s.snapshot_and_protect(a, 11, Prot::NoAccess).unwrap();
        assert_eq!(snap, b"dirty-bytes");
        assert_eq!(s.prot(g.vpage_index(0, 1)), Prot::NoAccess);
        let mut buf = [0u8; 1];
        assert!(matches!(s.read(a, &mut buf), Err(AccessError::Fault(_))));
        // Privileged-view targets are rejected.
        let p = g.to_priv(a).unwrap();
        assert!(s.snapshot_and_protect(p, 4, Prot::NoAccess).is_err());
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
        // check under the page lock rejects it...
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
        s.snapshot_and_protect(a, 16, Prot::ReadOnly).unwrap();
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
        let all_zero = s.with_read(a, 16, |sl| sl.len() == 16 && sl.iter().all(|&b| b == 0));
        assert!(all_zero.unwrap());
        let e = s.tlb_fill(a).unwrap();
        let mut buf = [0xffu8; 16];
        assert!(s.tlb_read(&e, a, &mut buf));
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(
            s.priv_read(g.to_priv(a).unwrap(), 5000).unwrap(),
            vec![0u8; 5000]
        );
        let snap = s.snapshot_and_protect(a, 16, Prot::ReadOnly).unwrap();
        assert_eq!(snap, vec![0u8; 16]);
        // A write that faults is not a write.
        assert!(matches!(s.write(a, &[1]), Err(AccessError::Fault(_))));
        assert!(s.with_write(a, 1, |sl| sl[0] = 1).is_err());
        assert_eq!(s.backed_pages(), 0);
    }

    #[test]
    fn first_write_backs_exactly_its_page() {
        type WritePath = fn(&AddressSpace, VAddr);
        let paths: [(&str, WritePath); 4] = [
            ("write", |s, a| s.write(a, &[7; 8]).unwrap()),
            ("with_write", |s, a| {
                s.with_write(a, 8, |sl| sl.fill(7)).unwrap()
            }),
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
