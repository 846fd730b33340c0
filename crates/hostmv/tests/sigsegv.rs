//! Real SIGSEGV-driven MultiView tests (Linux only).
//!
//! These tests install a process-wide SIGSEGV handler, so they live in one
//! integration-test binary and serialize on a mutex: the handler itself is
//! thread-safe, but keeping the fault sequences disjoint makes the counter
//! assertions exact.

#![cfg(target_os = "linux")]

use hostmv::{install_handler, FaultCounters, MultiViewRegion};
use sim_core::Prot;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn fixture() -> (&'static Arc<MultiViewRegion>, &'static FaultCounters) {
    static FIX: OnceLock<(Arc<MultiViewRegion>, FaultCounters)> = OnceLock::new();
    let (r, c) = FIX.get_or_init(|| {
        let r = Arc::new(MultiViewRegion::new(8, 3).expect("mmap views"));
        let c = install_handler(Arc::clone(&r)).expect("install handler");
        (r, c)
    });
    (r, c)
}

#[test]
fn read_fault_upgrades_to_readonly() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, c) = fixture();
    r.priv_write(0, 0, b"A");
    let before = c.read_faults();
    assert_eq!(r.prot(0, 0), Prot::NoAccess);
    // This load faults; the handler upgrades to ReadOnly and retries.
    assert_eq!(r.read_u8(0, 0, 0), b'A');
    assert_eq!(c.read_faults(), before + 1);
    assert_eq!(r.prot(0, 0), Prot::ReadOnly);
    // Second read: no further fault.
    assert_eq!(r.read_u8(0, 0, 0), b'A');
    assert_eq!(c.read_faults(), before + 1);
}

#[test]
fn write_fault_upgrades_to_readwrite() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, c) = fixture();
    let before_w = c.write_faults();
    assert_eq!(r.prot(1, 1), Prot::NoAccess);
    r.write_u8(1, 1, 5, 42);
    assert_eq!(c.write_faults(), before_w + 1);
    assert_eq!(r.prot(1, 1), Prot::ReadWrite);
    assert_eq!(r.read_u8(1, 1, 5), 42);
    // The same byte through the privileged view: shared storage.
    assert_eq!(r.priv_read(1, 5, 1), vec![42]);
}

#[test]
fn same_page_different_views_fault_independently() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, c) = fixture();
    // Page 2 through view 0 and view 1: distinct protections over the
    // same physical page — the MultiView core property, on a real MMU.
    r.priv_write(2, 100, b"xy");
    let before = c.read_faults();
    assert_eq!(r.read_u8(0, 2, 100), b'x'); // Fault + upgrade in view 0.
    assert_eq!(c.read_faults(), before + 1);
    assert_eq!(r.prot(0, 2), Prot::ReadOnly);
    assert_eq!(r.prot(1, 2), Prot::NoAccess, "view 1 stays sealed");
    assert_eq!(r.read_u8(1, 2, 101), b'y'); // Independent fault in view 1.
    assert_eq!(c.read_faults(), before + 2);
}

#[test]
fn privileged_updates_while_views_sealed_then_downgrade() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, c) = fixture();
    // §2.3.1: atomic minipage update in user mode — the server thread
    // writes through the privileged view while application views are
    // sealed, then opens the protection.
    assert_eq!(r.prot(2, 3), Prot::NoAccess);
    r.priv_write(3, 0, b"update-in-flight");
    r.protect(2, 3, Prot::ReadOnly).unwrap();
    let before = c.read_faults();
    assert_eq!(r.read_u8(2, 3, 0), b'u');
    assert_eq!(c.read_faults(), before, "no fault after explicit grant");
}

#[test]
fn write_after_read_takes_a_second_fault() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, c) = fixture();
    let (br, bw) = (c.read_faults(), c.write_faults());
    assert_eq!(r.read_u8(0, 4, 0), 0); // Read fault → ReadOnly.
    r.write_u8(0, 4, 0, 7); // Write fault → ReadWrite.
    assert_eq!(c.read_faults(), br + 1);
    assert_eq!(c.write_faults(), bw + 1);
    assert_eq!(r.read_u8(0, 4, 0), 7);
}

#[test]
fn downgrade_reprotects_for_real() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, c) = fixture();
    r.write_u8(0, 5, 0, 1); // Upgrade to ReadWrite.
    let bw = c.write_faults();
    // Downgrade (what an invalidation does) and touch again.
    r.protect(0, 5, Prot::NoAccess).unwrap();
    r.write_u8(0, 5, 0, 2);
    assert_eq!(
        c.write_faults(),
        bw + 1,
        "downgrade made the page fault again"
    );
    assert_eq!(r.priv_read(5, 0, 1), vec![2]);
}

#[test]
fn fault_cost_microbenchmark_smoke() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, _c) = fixture();
    // Not a benchmark, but exercise a burst: seal page 6 in view 0 and
    // take 50 fault→upgrade→downgrade cycles.
    let t0 = std::time::Instant::now();
    for i in 0..50u8 {
        r.protect(0, 6, Prot::NoAccess).unwrap();
        r.write_u8(0, 6, 0, i);
    }
    let per = t0.elapsed().as_nanos() / 50;
    // A fault + two mprotects should be microseconds, not milliseconds.
    assert!(per < 5_000_000, "fault cycle took {per} ns");
}

#[test]
fn a_span_takes_one_fault_however_many_bytes_it_copies() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r, c) = fixture();
    let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
    r.protect(1, 7, Prot::NoAccess).unwrap();
    r.protect(2, 7, Prot::NoAccess).unwrap();
    let (br, bw) = (c.read_faults(), c.write_faults());
    // One write fault for 600 bytes through view 1 (NoAccess → ReadWrite)…
    r.write_span(1, 7, 13, &data);
    assert_eq!((c.read_faults(), c.write_faults()), (br, bw + 1));
    assert_eq!(r.priv_read(7, 13, data.len()), data);
    // …and one read fault for the same bytes through view 2, which the
    // ladder only opens for reading.
    let mut back = vec![0u8; data.len()];
    r.read_span(2, 7, 13, &mut back);
    assert_eq!((c.read_faults(), c.write_faults()), (br + 1, bw + 1));
    assert_eq!(back, data);
    assert_eq!(r.prot(2, 7), Prot::ReadOnly);
}
