//! Property-based tests of the simulated virtual memory.

use proptest::prelude::*;
use sim_mem::{Access, AccessError, AddressSpace, Geometry, Prot};

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
