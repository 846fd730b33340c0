//! The multi-view mapping: one memfd, many views, per-vpage protection —
//! set one page at a time or, during set-up, staged and landed in runs.

use crate::error::HostMvError;
use sim_core::{Geometry, Loc, Prot, VAddr, DEFAULT_BASE};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// The `mprotect` flags of a vpage protection.
fn prot_flags(prot: Prot) -> libc::c_int {
    match prot {
        Prot::NoAccess => libc::PROT_NONE,
        Prot::ReadOnly => libc::PROT_READ,
        Prot::ReadWrite => libc::PROT_READ | libc::PROT_WRITE,
    }
}

/// Where a region's views sit: all it takes to decode an address.
/// Immutable, so the fault handler's registry keeps a copy of its own and
/// a slot scan never dereferences the region itself.
#[derive(Clone)]
pub(crate) struct ViewLayout {
    /// Base address of each view's mapping (len = views + 1, privileged
    /// view last).
    bases: Box<[usize]>,
    /// The same views at the canonical addresses: [`DEFAULT_BASE`] and the
    /// system page size, so a decoded fault means what it means in the
    /// simulator (§2.4).
    pub(crate) geo: Geometry,
}

impl ViewLayout {
    /// The canonical address of the mapped address `addr`: same view, page
    /// and offset, or `None` outside every view.
    pub(crate) fn canonical(&self, addr: usize) -> Option<VAddr> {
        let span = self.geo.view_span() as usize;
        self.bases.iter().enumerate().find_map(|(view, &base)| {
            let off = addr.checked_sub(base).filter(|&off| off < span)?;
            Some(self.geo.addr_of(view, 0, 0).add(off))
        })
    }
}

/// One memory object mapped through `views + 1` views (§2.4): application
/// views 0..views with mutable per-vpage protection, plus a privileged
/// view fixed at read-write.
///
/// Dropping the region unmaps every view and closes the memfd. A region
/// registered with the fault handler is held alive by the registry (via
/// `Arc`) until its registration is retired.
///
/// A region created [*staged*](MultiViewRegion::new_staged) takes its
/// set-up protections in the shadow table only, and
/// [`apply_staged`](MultiViewRegion::apply_staged) lands them with one
/// `mprotect` per run of equal protection instead of one per page; from
/// then on it is like any other region.
pub struct MultiViewRegion {
    fd: libc::c_int,
    pub(crate) layout: ViewLayout,
    /// Shadow protections, vpage-indexed (`view * pages + page`), kept for
    /// the fault handler's upgrade decision. Only meaningful for
    /// application views.
    prots: Vec<AtomicU8>,
    /// Until `apply_staged`: `protect` writes only `prots`.
    staged: AtomicBool,
}

// SAFETY: the raw base addresses are plain integers; all mutation of the
// mapping goes through the kernel (`mprotect`) or atomics. Cross-thread
// data access through the mapping carries the same aliasing obligations as
// any shared memory and is mediated by volatile accessors.
unsafe impl Send for MultiViewRegion {}
// SAFETY: see above — interior mutability is via atomics and syscalls.
unsafe impl Sync for MultiViewRegion {}

impl MultiViewRegion {
    /// Creates a memory object of `pages` pages mapped through `views`
    /// application views plus the privileged view.
    ///
    /// Application views start `NoAccess`; the privileged view is
    /// read-write forever.
    pub fn new(pages: usize, views: usize) -> Result<MultiViewRegion, HostMvError> {
        Self::create(pages, views, false)
    }

    /// [`new`](Self::new), staged: until
    /// [`apply_staged`](Self::apply_staged), [`protect`](Self::protect)
    /// records a protection in the shadow table and makes no syscall, so
    /// no access may touch the application views in between (and the
    /// fault handler refuses to register the region).
    pub fn new_staged(pages: usize, views: usize) -> Result<MultiViewRegion, HostMvError> {
        Self::create(pages, views, true)
    }

    fn create(pages: usize, views: usize, staged: bool) -> Result<MultiViewRegion, HostMvError> {
        if pages == 0 || views == 0 {
            return Err(HostMvError::BadTarget {
                what: "degenerate region (zero pages or views)",
            });
        }
        // SAFETY: sysconf is always safe to call.
        let page_size = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
        let bytes = pages * page_size;
        // SAFETY: memfd_create with a static name; the fd is owned below.
        let fd = unsafe {
            libc::syscall(
                libc::SYS_memfd_create,
                c"multiview".as_ptr(),
                libc::MFD_CLOEXEC as libc::c_ulong,
            )
        } as libc::c_int;
        if fd < 0 {
            return Err(HostMvError::last_os("memfd_create"));
        }
        // SAFETY: freshly created fd, sized before any mapping exists.
        if unsafe { libc::ftruncate(fd, bytes as libc::off_t) } != 0 {
            let e = HostMvError::last_os("ftruncate");
            // SAFETY: fd was created above and is not yet shared.
            unsafe { libc::close(fd) };
            return Err(e);
        }
        let mut bases = Vec::with_capacity(views + 1);
        for view in 0..=views {
            let prot = if view == views {
                libc::PROT_READ | libc::PROT_WRITE
            } else {
                libc::PROT_NONE
            };
            // SAFETY: mapping a valid fd with kernel-chosen placement;
            // len > 0; offset 0. MAP_SHARED makes every view window the
            // same physical pages — the MultiView property.
            let p = unsafe { libc::mmap(ptr::null_mut(), bytes, prot, libc::MAP_SHARED, fd, 0) };
            if p == libc::MAP_FAILED {
                let e = HostMvError::last_os("mmap");
                for &b in &bases {
                    // SAFETY: unmapping regions this constructor mapped.
                    unsafe { libc::munmap(b as *mut libc::c_void, bytes) };
                }
                // SAFETY: fd owned by this constructor.
                unsafe { libc::close(fd) };
                return Err(e);
            }
            bases.push(p as usize);
        }
        let prots = (0..(views + 1) * pages)
            .map(|i| {
                let v = if i / pages == views {
                    Prot::ReadWrite
                } else {
                    Prot::NoAccess
                };
                AtomicU8::new(v as u8)
            })
            .collect();
        Ok(MultiViewRegion {
            fd,
            layout: ViewLayout {
                bases: bases.into(),
                geo: Geometry::with_layout(DEFAULT_BASE, page_size, pages, views),
            },
            prots,
            staged: AtomicBool::new(staged),
        })
    }

    /// The region's views at their canonical addresses: pages, views,
    /// the system page size, and the addresses a [`Fault`] reports.
    ///
    /// [`Fault`]: sim_core::Fault
    pub fn geometry(&self) -> &Geometry {
        &self.layout.geo
    }

    /// Address of `(view, page, offset)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn addr(&self, view: usize, page: usize, offset: usize) -> usize {
        self.span_addr(view, page, offset, 1)
    }

    /// Address of the `len`-byte span at `(view, page, offset)`; panics
    /// unless the span lies inside that one page.
    fn span_addr(&self, view: usize, page: usize, offset: usize, len: usize) -> usize {
        let g = &self.layout.geo;
        let ps = g.page_size();
        assert!(
            view < g.total_views() && page < g.pages() && offset <= ps && len <= ps - offset,
            "span ({view}, {page}, {offset}) + {len} leaves its page"
        );
        self.layout.bases[view] + page * ps + offset
    }

    /// Decodes an address within the region to its view, page and offset.
    pub fn decode(&self, addr: usize) -> Option<Loc> {
        self.layout.geo.decode(self.layout.canonical(addr)?)
    }

    /// Shadow protection of a vpage.
    pub fn prot(&self, view: usize, page: usize) -> Prot {
        let v = self.prots[self.layout.geo.vpage_index(view, page)].load(Ordering::Acquire);
        Prot::from_u8(v).unwrap_or(Prot::ReadWrite)
    }

    /// Sets the real protection of one vpage of one application view.
    ///
    /// Targeting the privileged view (its protection is fixed) or an
    /// out-of-range page is a [`HostMvError::BadTarget`].
    pub fn protect(&self, view: usize, page: usize, prot: Prot) -> Result<(), HostMvError> {
        if view >= self.layout.geo.priv_view() {
            return Err(HostMvError::BadTarget {
                what: "privileged view protection is fixed",
            });
        }
        if page >= self.layout.geo.pages() {
            return Err(HostMvError::BadTarget {
                what: "page out of range",
            });
        }
        if self.is_staged() {
            self.prots[self.layout.geo.vpage_index(view, page)]
                .store(prot as u8, Ordering::Release);
            return Ok(());
        }
        self.protect_raw(view, page, prot)
    }

    /// Whether protections are still staged (see
    /// [`new_staged`](Self::new_staged)).
    pub(crate) fn is_staged(&self) -> bool {
        // Pairs with the Release store in `apply_staged`: who sees the
        // region live sees the protections landed.
        self.staged.load(Ordering::Acquire)
    }

    /// Lands the staged protections: per application view, one `mprotect`
    /// per maximal run of pages with equal protection — none for a
    /// `NoAccess` run, which is how the views were mapped. From then on
    /// [`protect`](Self::protect) is immediate. Returns the `mprotect`
    /// calls made: 0 on a region that was not staged.
    pub fn apply_staged(&self) -> Result<usize, HostMvError> {
        if !self.is_staged() {
            return Ok(0);
        }
        let (pages, views) = (self.layout.geo.pages(), self.layout.geo.views());
        let mut calls = 0;
        for view in 0..views {
            let mut page = 0;
            while page < pages {
                let prot = self.prot(view, page);
                let run = (page..pages)
                    .take_while(|&p| self.prot(view, p) == prot)
                    .count();
                if prot != Prot::NoAccess {
                    self.mprotect(view, page, run, prot)?;
                    calls += 1;
                }
                page += run;
            }
        }
        self.staged.store(false, Ordering::Release);
        Ok(calls)
    }

    /// `mprotect` + shadow update; used by both [`protect`] and the
    /// SIGSEGV handler (async-signal-safe: one syscall + one atomic).
    ///
    /// [`protect`]: MultiViewRegion::protect
    pub(crate) fn protect_raw(
        &self,
        view: usize,
        page: usize,
        prot: Prot,
    ) -> Result<(), HostMvError> {
        self.mprotect(view, page, 1, prot)?;
        self.prots[self.layout.geo.vpage_index(view, page)].store(prot as u8, Ordering::Release);
        Ok(())
    }

    /// Sets the real protection of `pages` pages of `view` from `page` on.
    fn mprotect(
        &self,
        view: usize,
        page: usize,
        pages: usize,
        prot: Prot,
    ) -> Result<(), HostMvError> {
        let ps = self.layout.geo.page_size();
        let addr = self.layout.bases[view] + page * ps;
        // SAFETY: addr and the length describe whole pages of a mapping
        // this region owns; changing their protection cannot create memory
        // unsafety by itself (accesses are checked by the MMU).
        let rc = unsafe { libc::mprotect(addr as *mut libc::c_void, pages * ps, prot_flags(prot)) };
        if rc != 0 {
            return Err(HostMvError::last_os("mprotect"));
        }
        Ok(())
    }

    /// Volatile read of one byte through a view. May raise SIGSEGV when
    /// the vpage protection forbids reads — which is the mechanism under
    /// test; install the fault handler first.
    pub fn read_u8(&self, view: usize, page: usize, offset: usize) -> u8 {
        let a = self.addr(view, page, offset) as *const u8;
        // SAFETY: `a` lies inside a live mapping of this region; volatile
        // keeps the access an actual load (the MMU check is the point).
        unsafe { ptr::read_volatile(a) }
    }

    /// Volatile write of one byte through a view (may raise SIGSEGV, as
    /// above).
    pub fn write_u8(&self, view: usize, page: usize, offset: usize, v: u8) {
        let a = self.addr(view, page, offset) as *mut u8;
        // SAFETY: in-bounds address of a live MAP_SHARED mapping; races
        // on the shared bytes are defused by volatile byte-sized accesses.
        unsafe { ptr::write_volatile(a, v) }
    }

    /// Copies the span at `(view, page, offset)` into `out` through that
    /// view: one bounds check (panics if the span would cross the page
    /// end), then volatile loads in ascending address order — bytes up to
    /// the first 8-byte boundary, whole words, bytes again. The first
    /// access is the span's lowest byte, so a fault — resolved by the
    /// handler before the load restarts, as for
    /// [`read_u8`](Self::read_u8) — reports the first byte asked for.
    pub fn read_span(&self, view: usize, page: usize, offset: usize, out: &mut [u8]) {
        let base = self.span_addr(view, page, offset, out.len());
        let (head, body) = split_at_words(base, out.len());
        let (head, rest) = out.split_at_mut(head);
        let (body, tail) = rest.split_at_mut(body);
        let mut a = base as *const u8;
        // SAFETY: `a` walks the span checked against a live mapping of this
        // region, one step per byte of `out`, and is 8-aligned at every
        // wide load; volatile keeps every access an actual load, in
        // program order (the MMU check is the point).
        unsafe {
            for b in head {
                *b = ptr::read_volatile(a);
                a = a.add(1);
            }
            for word in body.chunks_exact_mut(8) {
                word.copy_from_slice(&ptr::read_volatile(a.cast::<u64>()).to_ne_bytes());
                a = a.add(8);
            }
            for b in tail {
                *b = ptr::read_volatile(a);
                a = a.add(1);
            }
        }
    }

    /// Stores `data` at the span at `(view, page, offset)` through that
    /// view: [`read_span`](Self::read_span)'s mirror image.
    pub fn write_span(&self, view: usize, page: usize, offset: usize, data: &[u8]) {
        let base = self.span_addr(view, page, offset, data.len());
        let (head, body) = split_at_words(base, data.len());
        let (head, rest) = data.split_at(head);
        let (body, tail) = rest.split_at(body);
        let mut a = base as *mut u8;
        // SAFETY: as in `read_span`; races on the shared bytes are defused
        // by volatile accesses, as for `write_u8`.
        unsafe {
            for &b in head {
                ptr::write_volatile(a, b);
                a = a.add(1);
            }
            for word in body.chunks_exact(8) {
                let word = u64::from_ne_bytes(word.try_into().expect("8 bytes"));
                ptr::write_volatile(a.cast::<u64>(), word);
                a = a.add(8);
            }
            for &b in tail {
                ptr::write_volatile(a, b);
                a = a.add(1);
            }
        }
    }

    /// Copies `data` into the region through the privileged view — the
    /// paper's zero-copy receive path (works regardless of application
    /// view protections).
    pub fn priv_write(&self, page: usize, offset: usize, data: &[u8]) {
        let g = &self.layout.geo;
        assert!(offset + data.len() <= (g.pages() - page) * g.page_size());
        let a = self.addr(g.priv_view(), page, offset) as *mut u8;
        // SAFETY: bounds asserted above; the privileged view is always
        // PROT_READ|PROT_WRITE.
        unsafe { ptr::copy_nonoverlapping(data.as_ptr(), a, data.len()) }
    }

    /// Reads `len` bytes through the privileged view.
    pub fn priv_read(&self, page: usize, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.priv_read_into(page, offset, &mut out);
        out
    }

    /// Fills `out` from the privileged view, starting at `(page, offset)`.
    pub fn priv_read_into(&self, page: usize, offset: usize, out: &mut [u8]) {
        let g = &self.layout.geo;
        assert!(offset + out.len() <= (g.pages() - page) * g.page_size());
        let a = self.addr(g.priv_view(), page, offset) as *const u8;
        // SAFETY: bounds asserted; privileged view always readable.
        unsafe { ptr::copy_nonoverlapping(a, out.as_mut_ptr(), out.len()) }
    }

    /// Whether `addr` falls inside any view of this region.
    pub fn contains(&self, addr: usize) -> bool {
        self.layout.canonical(addr).is_some()
    }
}

/// Where the `len` bytes at address `base` split for a word-wide copy:
/// the bytes before the first 8-byte boundary, then the bytes of the whole
/// aligned words after it (`head + body <= len`; the rest is the tail).
fn split_at_words(base: usize, len: usize) -> (usize, usize) {
    let head = (base.wrapping_neg() & 7).min(len);
    (head, (len - head) & !7)
}

impl Drop for MultiViewRegion {
    fn drop(&mut self) {
        let bytes = self.layout.geo.view_span() as usize;
        for &b in self.layout.bases.iter() {
            // SAFETY: unmapping mappings this region created and owns.
            unsafe { libc::munmap(b as *mut libc::c_void, bytes) };
        }
        // SAFETY: closing the fd this region created and owns.
        unsafe { libc::close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_physical_storage() {
        let r = MultiViewRegion::new(2, 3).unwrap();
        r.priv_write(0, 10, b"shared!");
        // Open view 1 for reading and observe the privileged write.
        r.protect(1, 0, Prot::ReadOnly).unwrap();
        assert_eq!(r.read_u8(1, 0, 10), b's');
        assert_eq!(r.read_u8(1, 0, 16), b'!');
        // Write through view 2 after opening it; visible in view 1.
        r.protect(2, 0, Prot::ReadWrite).unwrap();
        r.write_u8(2, 0, 10, b'S');
        assert_eq!(r.read_u8(1, 0, 10), b'S');
        assert_eq!(r.priv_read(0, 10, 7), b"Shared!");
    }

    #[test]
    fn per_view_protection_is_independent() {
        let r = MultiViewRegion::new(1, 2).unwrap();
        r.protect(0, 0, Prot::ReadWrite).unwrap();
        assert_eq!(r.prot(0, 0), Prot::ReadWrite);
        assert_eq!(r.prot(1, 0), Prot::NoAccess);
        assert_eq!(r.prot(r.geometry().priv_view(), 0), Prot::ReadWrite);
    }

    #[test]
    fn decode_roundtrips() {
        let r = MultiViewRegion::new(4, 2).unwrap();
        let a = r.addr(1, 3, 17);
        assert_eq!(
            r.decode(a),
            Some(Loc {
                view: 1,
                page: 3,
                offset: 17
            })
        );
        assert!(r.contains(a));
        assert!(!r.contains(0x10));
    }

    #[test]
    fn spans_copy_every_alignment_and_length() {
        let r = MultiViewRegion::new(2, 1).unwrap();
        r.protect(0, 0, Prot::ReadWrite).unwrap();
        let data: Vec<u8> = (0..40).map(|i| i as u8 ^ 0x5a).collect();
        let page = r.geometry().page_size();
        let blank = vec![0u8; 2 * page];
        // Every misalignment of the start against the 8-byte words, every
        // length from empty to several words — byte head, wide body, byte
        // tail, and each of them absent — at the start of the page and
        // flush against its end.
        for offset in (0..9).chain(page - 24..page) {
            for len in 0..=data.len().min(page - offset) {
                r.priv_write(0, 0, &blank);
                r.write_span(0, 0, offset, &data[..len]);
                assert_eq!(r.priv_read(0, offset, len), data[..len]);
                let end = offset + len;
                assert_eq!(r.priv_read(end / page, end % page, 8), [0u8; 8], "overrun");
                if offset >= 8 {
                    assert_eq!(r.priv_read(0, offset - 8, 8), [0u8; 8], "underrun");
                }
                let mut back = vec![0u8; len];
                r.read_span(0, 0, offset, &mut back);
                assert_eq!(back, data[..len]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaves its page")]
    fn a_span_across_the_page_end_is_refused() {
        let r = MultiViewRegion::new(2, 1).unwrap();
        r.protect(0, 0, Prot::ReadWrite).unwrap();
        r.protect(0, 1, Prot::ReadWrite).unwrap();
        // Both pages are mapped and writable: only the bounds check stands
        // between this store and the next page.
        r.write_span(0, 0, r.geometry().page_size() - 4, &[1u8; 8]);
    }

    #[test]
    fn privileged_protection_is_a_typed_error() {
        let r = MultiViewRegion::new(1, 1).unwrap();
        assert_eq!(
            r.protect(1, 0, Prot::NoAccess),
            Err(HostMvError::BadTarget {
                what: "privileged view protection is fixed"
            })
        );
        assert!(matches!(
            r.protect(0, 9, Prot::NoAccess),
            Err(HostMvError::BadTarget { .. })
        ));
        assert!(matches!(
            MultiViewRegion::new(0, 1),
            Err(HostMvError::BadTarget { .. })
        ));
    }
}
