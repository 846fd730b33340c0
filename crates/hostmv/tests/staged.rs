//! Staged protections (Linux only): a region whose set-up protections are
//! staged and then applied in runs ends up with exactly the real
//! protections a region protected page by page has, and is live after.
//!
//! The fault test installs the process-wide SIGSEGV handler, so it has
//! this test binary to itself.

#![cfg(target_os = "linux")]

use hostmv::{install_handler, HostMvError, MultiViewRegion};
use sim_core::{Loc, Prot};
use std::sync::Arc;

const VIEWS: usize = 3;
const PAGES: usize = 64;

/// The real protection of every page of every application view of `r`,
/// as `/proc/self/maps` reports it.
fn real_prots(r: &MultiViewRegion) -> Vec<Prot> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    let ps = r.geometry().page_size();
    let mut prots = vec![None; VIEWS * PAGES];
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let (range, perms) = (fields.next().expect("range"), fields.next().expect("perms"));
        let (lo, hi) = range.split_once('-').expect("lo-hi");
        let lo = usize::from_str_radix(lo, 16).expect("hex");
        let hi = usize::from_str_radix(hi, 16).expect("hex");
        let prot = match &perms[..2] {
            "--" => Prot::NoAccess,
            "r-" => Prot::ReadOnly,
            "rw" => Prot::ReadWrite,
            other => panic!("unexpected permissions {other}"),
        };
        for a in (lo..hi).step_by(ps) {
            if let Some(Loc {
                view,
                page,
                offset: 0,
            }) = r.decode(a)
            {
                if view < VIEWS {
                    prots[view * PAGES + page] = Some(prot);
                }
            }
        }
    }
    prots
        .into_iter()
        .map(|p| p.expect("every page is mapped"))
        .collect()
}

/// Maximal runs of equal protection, counted per view.
fn runs(prots: &[Prot]) -> usize {
    prots
        .chunks(PAGES)
        .map(|view| 1 + view.windows(2).filter(|w| w[0] != w[1]).count())
        .sum()
}

#[test]
fn staged_protections_land_as_immediate_ones_do() {
    let staged = Arc::new(MultiViewRegion::new_staged(PAGES, VIEWS).expect("mmap views"));
    let immediate = MultiViewRegion::new(PAGES, VIEWS).expect("mmap views");
    // Runs of a few pages, the shape an allocator leaves, and strays.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n) as usize
    };
    for _ in 0..200 {
        let prot = [Prot::NoAccess, Prot::ReadOnly, Prot::ReadWrite][next(3)];
        let (view, first) = (next(VIEWS as u64), next(PAGES as u64));
        for page in first..(first + 1 + next(4)).min(PAGES) {
            staged.protect(view, page, prot).expect("shadow");
            immediate.protect(view, page, prot).expect("mprotect");
        }
    }
    assert_eq!(
        install_handler(Arc::clone(&staged)).err(),
        Some(HostMvError::BadTarget {
            what: "staged protections not yet applied"
        }),
        "a staged region registered with the fault handler"
    );
    assert!(
        real_prots(&staged).iter().all(|&p| p == Prot::NoAccess),
        "a staged protect made a syscall"
    );

    let calls = staged.apply_staged().expect("mprotect");
    let shadow: Vec<Prot> = (0..VIEWS * PAGES)
        .map(|vp| staged.prot(vp / PAGES, vp % PAGES))
        .collect();
    assert_eq!(real_prots(&staged), real_prots(&immediate));
    assert_eq!(real_prots(&staged), shadow);
    assert!(
        calls <= runs(&shadow),
        "{calls} calls for {} runs",
        runs(&shadow)
    );
    assert_eq!(staged.apply_staged(), Ok(0), "applied twice");

    // Live now: a protection takes effect at once, as a fault shows.
    let counters = install_handler(Arc::clone(&staged)).expect("install handler");
    staged.protect(0, 5, Prot::NoAccess).expect("mprotect");
    assert_eq!(staged.read_u8(0, 5, 0), 0);
    staged.protect(1, 9, Prot::ReadOnly).expect("mprotect");
    staged.write_u8(1, 9, 0, 1);
    assert_eq!((counters.read_faults(), counters.write_faults()), (1, 1));
    counters.retire();
}
