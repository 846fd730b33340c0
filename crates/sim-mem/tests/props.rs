//! Property-based tests of the simulated virtual memory.

use proptest::prelude::*;
use sim_mem::{
    Access, AccessError, AddressSpace, Fault, Geometry, MemFault, Prot, VAddr, DEFAULT_BASE,
};

fn space(pages: usize, views: usize) -> AddressSpace {
    AddressSpace::new(Geometry::new(pages, views))
}

proptest! {
    /// Privileged write/read round-trips at arbitrary in-range offsets and
    /// lengths, through arbitrary views (shared physical storage).
    #[test]
    fn priv_roundtrip(
        page in 0usize..8,
        offset in 0usize..4096,
        len in 1usize..8192,
        view_w in 0usize..4,
        view_r in 0usize..4,
        seed in any::<u8>(),
    ) {
        let s = space(8, 3); // 3 app views + privileged = indices 0..=3.
        let geo = s.geometry().clone();
        let start = page * 4096 + offset;
        prop_assume!(start + len <= 8 * 4096);
        let addr_w = geo.addr_of(view_w, page, offset);
        let addr_r = geo.addr_of(view_r, page, offset);
        let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(seed)).collect();
        s.priv_write(addr_w, &data).expect("in range");
        prop_assert_eq!(s.priv_read(addr_r, len).expect("in range"), data);
    }

    /// Protection changes through one view never affect any other view's
    /// protections.
    #[test]
    fn protection_isolation(
        ops in proptest::collection::vec((0usize..3, 0usize..8, 0u8..3), 1..60),
    ) {
        let s = space(8, 3);
        let geo = s.geometry().clone();
        let mut shadow = [[Prot::NoAccess; 8]; 3];
        for &(view, page, p) in &ops {
            let prot = Prot::from_u8(p).expect("0..3");
            s.set_prot(geo.vpage_index(view, page), prot).expect("app vpage");
            shadow[view][page] = prot;
        }
        for view in 0..3 {
            for page in 0..8 {
                prop_assert_eq!(s.prot(geo.vpage_index(view, page)), shadow[view][page]);
            }
        }
        // The privileged view never moved.
        for page in 0..8 {
            prop_assert_eq!(s.prot(geo.vpage_index(geo.priv_view(), page)), Prot::ReadWrite);
        }
    }

    /// The MMU model: an application access succeeds iff every covered
    /// vpage allows it.
    #[test]
    fn access_checks_match_protections(
        offset in 0usize..4096,
        len in 1usize..6000,
        p0 in 0u8..3,
        p1 in 0u8..3,
        write in any::<bool>(),
    ) {
        let s = space(4, 2);
        let geo = s.geometry().clone();
        prop_assume!(offset + len <= 2 * 4096);
        s.set_prot(geo.vpage_index(0, 0), Prot::from_u8(p0).expect("valid")).expect("ok");
        s.set_prot(geo.vpage_index(0, 1), Prot::from_u8(p1).expect("valid")).expect("ok");
        let addr = geo.addr_of(0, 0, offset);
        let access = if write { Access::Write } else { Access::Read };
        let covered_second_page = offset + len > 4096;
        let allowed = {
            let a0 = Prot::from_u8(p0).expect("valid").allows(access);
            let a1 = Prot::from_u8(p1).expect("valid").allows(access);
            a0 && (!covered_second_page || a1)
        };
        let got = s.check(addr, len, access);
        if allowed {
            prop_assert!(got.is_ok(), "{got:?}");
        } else {
            prop_assert!(matches!(got, Err(AccessError::Fault(_))), "{got:?}");
        }
    }

    /// snapshot_and_protect returns exactly what an app could have read,
    /// and afterwards the range is sealed.
    #[test]
    fn snapshot_and_protect_roundtrip(
        offset in 0usize..4096,
        len in 1usize..6000,
        seed in any::<u8>(),
    ) {
        let s = space(4, 2);
        let geo = s.geometry().clone();
        prop_assume!(offset + len <= 2 * 4096);
        let addr = geo.addr_of(1, 0, offset);
        let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ seed).collect();
        s.priv_write(addr, &data).expect("in range");
        let snap = s
            .snapshot_and_protect(addr, len, Prot::NoAccess, <[u8]>::to_vec)
            .expect("app view");
        prop_assert_eq!(snap, data);
        prop_assert!(matches!(
            s.check(addr, len, Access::Read),
            Err(AccessError::Fault(_))
        ));
    }
}

/// The geometry the model test runs on: 70 pages and 9 application views
/// (630 application vpages) of 256 bytes, so neither count is a multiple
/// of a chunk (512 protections, 64 page slots) and both the last
/// protection chunk and the last page chunk are partial.
fn model_geometry() -> Geometry {
    Geometry::with_layout(DEFAULT_BASE, 256, 70, 9)
}

/// A dense model of an address space: every byte, every application
/// vpage's protection and every page's backed flag in a plain `Vec`.
struct Model {
    geo: Geometry,
    bytes: Vec<u8>,
    prots: Vec<Prot>,
    backed: Vec<bool>,
}

impl Model {
    fn new(geo: Geometry) -> Self {
        Model {
            bytes: vec![0; geo.pages() * geo.page_size()],
            prots: vec![Prot::NoAccess; geo.views() * geo.pages()],
            backed: vec![false; geo.pages()],
            geo,
        }
    }

    fn prot(&self, vpage: usize) -> Prot {
        self.prots.get(vpage).copied().unwrap_or(Prot::ReadWrite)
    }

    fn set_prot(&mut self, vpage: usize, prot: Prot) -> Result<(), MemFault> {
        if vpage >= self.geo.total_vpages() {
            return Err(MemFault::OutOfRange {
                addr: VAddr(0),
                len: 0,
            });
        }
        if vpage >= self.prots.len() {
            return Err(MemFault::Privileged { vpage });
        }
        self.prots[vpage] = prot;
        Ok(())
    }

    /// The pages `[page*ps + off, +len)` covers, or the error a range
    /// past the object's end is.
    fn pages(
        &self,
        addr: VAddr,
        page: usize,
        off: usize,
        len: usize,
    ) -> Result<Vec<usize>, MemFault> {
        let ps = self.geo.page_size();
        if page * ps + off + len > self.bytes.len() {
            return Err(MemFault::OutOfRange { addr, len });
        }
        Ok((page..=(page * ps + off + len - 1) / ps).collect())
    }

    /// An application access through `view`: the first covered vpage
    /// that does not allow it faults, and a write lands on the pages
    /// before it.
    fn access(
        &mut self,
        (view, page, off): (usize, usize, usize),
        len: usize,
        write: Option<&[u8]>,
    ) -> Result<Vec<u8>, AccessError> {
        let geo = self.geo.clone();
        let addr = geo.addr_of(view, page, off);
        let access = if write.is_some() {
            Access::Write
        } else {
            Access::Read
        };
        let start = page * geo.page_size() + off;
        for p in self.pages(addr, page, off, len)? {
            let vpage = geo.vpage_index(view, p);
            if view != geo.priv_view() && !self.prot(vpage).allows(access) {
                let addr = if p == page {
                    addr
                } else {
                    geo.addr_of(view, p, 0)
                };
                return Err(AccessError::Fault(Fault {
                    addr,
                    vpage,
                    access,
                }));
            }
            if let Some(data) = write {
                let lo = (p * geo.page_size()).max(start);
                let hi = ((p + 1) * geo.page_size()).min(start + len);
                self.bytes[lo..hi].copy_from_slice(&data[lo - start..hi - start]);
                self.backed[p] = true;
            }
        }
        Ok(self.bytes[start..start + len].to_vec())
    }
}

/// What one generated operation's numbers pick: a view (the privileged
/// one included), a page and an offset in it. Half the picks land on six
/// vpages, so accesses meet the protection changes that close them.
fn place(geo: &Geometry, view: usize, page: usize, off: usize) -> (usize, usize, usize) {
    let off = off % geo.page_size();
    match view & 1 {
        0 => ((view >> 1) % 2, page % 3, off),
        _ => ((view >> 1) % geo.total_views(), page % geo.pages(), off),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sparse space against the dense model, over random sequences
    /// of every operation: protection changes (in range, privileged and
    /// past the end), checked reads and writes, privileged reads and
    /// patches, and snapshots. Bytes, protections, faults, errors and the
    /// backed-page count must agree after every step.
    #[test]
    fn the_sparse_space_matches_a_dense_model(
        ops in proptest::collection::vec(
            (0u8..6, 0usize..1 << 16, 0usize..1 << 16, 0usize..1 << 16, 0usize..1 << 16),
            1..120,
        ),
    ) {
        let geo = model_geometry();
        let s = AddressSpace::new(geo.clone());
        let mut m = Model::new(geo.clone());
        let ps = geo.page_size();
        for (op, a, b, c, d) in ops {
            let prot = Prot::from_u8((d % 3) as u8).expect("0..3");
            let (view, page, off) = place(&geo, a, b, c);
            let addr = geo.addr_of(view, page, off);
            let len = 1 + d % (3 * ps);
            let data: Vec<u8> = (0..len).map(|i| (i + d) as u8 | 1).collect();
            match op {
                0 => {
                    // The picked vpage, or any, or one past the end.
                    let vpage = match c % 3 {
                        0 => geo.vpage_index(view, page),
                        _ => a % (geo.total_vpages() + 8),
                    };
                    prop_assert_eq!(s.set_prot(vpage, prot), m.set_prot(vpage, prot));
                }
                1 => {
                    let mut buf = vec![0xee; len];
                    let got = s.read(addr, &mut buf).map(|()| buf);
                    prop_assert_eq!(got, m.access((view, page, off), len, None));
                }
                2 => {
                    let want = m.access((view, page, off), len, Some(&data)).map(drop);
                    prop_assert_eq!(s.write(addr, &data), want);
                }
                3 => {
                    let mut buf = vec![0xee; len];
                    let got = s.priv_read_into(addr, &mut buf).map(|()| buf);
                    let want = m.pages(addr, page, off, len).map(|_| {
                        let start = page * ps + off;
                        m.bytes[start..start + len].to_vec()
                    });
                    prop_assert_eq!(got, want);
                }
                4 => {
                    // An in-place update that reads what it changes.
                    let mut seen = 0;
                    let got = s.priv_patch(addr, len, |at, bytes| {
                        assert_eq!(at, seen, "segments in order, none skipped");
                        seen += bytes.len();
                        for (i, b) in bytes.iter_mut().enumerate() {
                            *b = b.wrapping_mul(3).wrapping_add(data[at + i]);
                        }
                    });
                    let want = m.pages(addr, page, off, len).map(|pages| {
                        let start = page * ps + off;
                        for (i, b) in m.bytes[start..start + len].iter_mut().enumerate() {
                            *b = b.wrapping_mul(3).wrapping_add(data[i]);
                        }
                        for p in pages {
                            m.backed[p] = true;
                        }
                    });
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let got = s.snapshot_and_protect(addr, len, prot, <[u8]>::to_vec);
                    let want = m.pages(addr, page, off, len).and_then(|pages| {
                        let first = geo.vpage_index(view, page);
                        if view == geo.priv_view() {
                            return Err(MemFault::Privileged { vpage: first });
                        }
                        for p in pages {
                            m.set_prot(geo.vpage_index(view, p), prot).expect("application vpage");
                        }
                        let start = page * ps + off;
                        Ok(m.bytes[start..start + len].to_vec())
                    });
                    prop_assert_eq!(got, want);
                }
            }
            for vpage in 0..geo.total_vpages() {
                prop_assert_eq!(s.prot(vpage), m.prot(vpage), "vpage {}", vpage);
            }
            let backed = m.backed.iter().filter(|&&b| b).count();
            prop_assert_eq!(s.backed_pages(), backed);
        }
        prop_assert_eq!(s.priv_read(geo.addr_of(geo.priv_view(), 0, 0), m.bytes.len()), Ok(m.bytes.clone()));
    }
}
