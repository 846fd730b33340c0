//! DSM-resolver fault-decoding tests (Linux only).
//!
//! Where `sigsegv.rs` exercises the built-in upgrade ladder, these tests
//! check what a DSM backend actually consumes: the canonical `Fault`
//! handed to an [`install_dsm_handler`] resolver — decoded through the
//! region's geometry, the right view, page and offset, and read-vs-write
//! intent from the signal context — plus the rejection paths: addresses
//! outside any region never decode, and a genuinely unmapped access or a
//! fault the resolver leaves [`Unserved`] still crashes instead of being
//! swallowed.
//!
//! The resolver runs in signal context, so it records the fault through
//! static atomics only.

#![cfg(target_os = "linux")]

use hostmv::{install_dsm_handler, MultiViewRegion, Unserved};
use sim_core::{Access, Fault, Loc, Prot, VAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

// The resolver is a plain `fn` (no captures): the last fault is published
// through statics. `LAST_SEQ` increments once per resolved fault so tests
// can wait for "a new fault arrived".
static LAST_ADDR: AtomicU64 = AtomicU64::new(0);
static LAST_VPAGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LAST_WRITE: AtomicBool = AtomicBool::new(false);
static LAST_SEQ: AtomicUsize = AtomicUsize::new(0);
/// Set by a forked child that wants its fault left unserved.
static DECLINE: AtomicBool = AtomicBool::new(false);

fn recording_resolver(
    region: &MultiViewRegion,
    fault: &Fault,
    _token: usize,
) -> Result<(), Unserved> {
    if DECLINE.load(Ordering::Relaxed) {
        return Err(Unserved {
            reason: "declined by the test",
        });
    }
    LAST_ADDR.store(fault.addr.0, Ordering::Relaxed);
    LAST_VPAGE.store(fault.vpage, Ordering::Relaxed);
    LAST_WRITE.store(fault.access == Access::Write, Ordering::Relaxed);
    LAST_SEQ.fetch_add(1, Ordering::Release);
    // Open the page so the faulting instruction can retry — the same
    // mprotect a real protocol round-trip ends with.
    let loc = region.geometry().decode(fault.addr).ok_or(Unserved {
        reason: "outside the region",
    })?;
    region
        .protect(loc.view, loc.page, Prot::ReadWrite)
        .map_err(|_| Unserved { reason: "mprotect" })
}

fn fixture() -> &'static Arc<MultiViewRegion> {
    static FIX: OnceLock<Arc<MultiViewRegion>> = OnceLock::new();
    FIX.get_or_init(|| {
        let r = Arc::new(MultiViewRegion::new(8, 3).expect("mmap views"));
        install_dsm_handler(Arc::clone(&r), recording_resolver, 0).expect("install handler");
        r
    })
}

/// The last fault as `(view, page, offset, write)`, decoded through the
/// region's geometry; its vpage must agree with the decoded address.
fn last() -> (usize, usize, usize, bool) {
    let geo = fixture().geometry();
    let addr = VAddr(LAST_ADDR.load(Ordering::Relaxed));
    let loc = geo.decode(addr).expect("a fault address is canonical");
    assert_eq!(
        LAST_VPAGE.load(Ordering::Relaxed),
        geo.vpage_index(loc.view, loc.page)
    );
    (
        loc.view,
        loc.page,
        loc.offset,
        LAST_WRITE.load(Ordering::Relaxed),
    )
}

#[test]
fn read_fault_decodes_view_page_offset_and_read_intent() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let r = fixture();
    r.priv_write(0, 13, b"Z");
    let seq = LAST_SEQ.load(Ordering::Acquire);
    assert_eq!(r.read_u8(1, 0, 13), b'Z');
    assert_eq!(LAST_SEQ.load(Ordering::Acquire), seq + 1);
    assert_eq!(last(), (1, 0, 13, false), "read fault in view 1, page 0");
}

#[test]
fn write_fault_decodes_write_intent() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let r = fixture();
    let seq = LAST_SEQ.load(Ordering::Acquire);
    r.write_u8(2, 3, 77, 9);
    assert_eq!(LAST_SEQ.load(Ordering::Acquire), seq + 1);
    assert_eq!(last(), (2, 3, 77, true), "write fault in view 2, page 3");
    // The resolver's grant stuck and the store retried.
    assert_eq!(r.priv_read(3, 77, 1), vec![9]);
}

#[test]
fn read_then_write_on_readonly_page_faults_again_as_write() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let r = fixture();
    // Seal, read (grants ReadWrite via the resolver), downgrade to
    // ReadOnly — the protocol's invalidate-to-shared — then store.
    r.protect(0, 5, Prot::NoAccess).unwrap();
    let _ = r.read_u8(0, 5, 0);
    r.protect(0, 5, Prot::ReadOnly).unwrap();
    let seq = LAST_SEQ.load(Ordering::Acquire);
    r.write_u8(0, 5, 4, 3);
    assert_eq!(LAST_SEQ.load(Ordering::Acquire), seq + 1);
    assert_eq!(
        last(),
        (0, 5, 4, true),
        "a store to a ReadOnly page decodes as a write fault"
    );
}

#[test]
fn a_span_faults_once_at_its_lowest_offset() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let r = fixture();
    let data: Vec<u8> = (0..300).map(|i| (i % 199) as u8 + 1).collect();
    // Offsets chosen off the 8-byte grid: the first access is a byte of
    // the unaligned head, not the first whole word and not the tail.
    r.protect(1, 6, Prot::NoAccess).unwrap();
    let seq = LAST_SEQ.load(Ordering::Acquire);
    r.write_span(1, 6, 1003, &data);
    assert_eq!(LAST_SEQ.load(Ordering::Acquire), seq + 1, "one fault");
    assert_eq!(last(), (1, 6, 1003, true), "write span: first byte");
    assert_eq!(r.priv_read(6, 1003, data.len()), data);

    r.protect(1, 6, Prot::NoAccess).unwrap();
    let mut back = vec![0u8; data.len()];
    r.read_span(1, 6, 1003, &mut back);
    assert_eq!(LAST_SEQ.load(Ordering::Acquire), seq + 2, "one fault");
    assert_eq!(last(), (1, 6, 1003, false), "read span: first byte");
    assert_eq!(back, data);
}

#[test]
fn addresses_outside_the_region_do_not_decode() {
    let r = fixture();
    // In-region addresses decode exactly.
    let loc = |view, page, offset| Some(Loc { view, page, offset });
    assert_eq!(r.decode(r.addr(0, 0, 0)), loc(0, 0, 0));
    assert_eq!(r.decode(r.addr(2, 7, 15)), loc(2, 7, 15));
    // The privileged view decodes too (the handler crashes on it, but the
    // decode itself must identify it).
    let priv_view = r.geometry().priv_view();
    assert_eq!(r.decode(r.addr(priv_view, 1, 2)), loc(priv_view, 1, 2));
    // A near-null address can never belong to a view (mmap won't place
    // a mapping there); one-past-the-end is NOT tested because the
    // kernel may place another view's mapping adjacently.
    assert_eq!(r.decode(0x10), None);
    // An unrelated heap address never decodes.
    let heap = Box::new(0u8);
    assert_eq!(r.decode(&*heap as *const u8 as usize), None);
}

/// Forks a child that runs `touch`, reaps it and asserts that it died of
/// SIGSEGV instead of spinning or corrupting memory. A child that retries
/// its fault forever dies of its alarm instead, which fails the check.
fn child_dies_of_sigsegv(touch: impl FnOnce()) {
    // SAFETY: the child only runs `touch` (a load or a store; the handler
    // and the resolvers are async-signal-safe) before dying; the parent
    // only calls waitpid.
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            libc::alarm(10);
            touch();
            libc::_exit(0); // Unreachable when the crash path works.
        }
        let mut status = 0;
        assert_eq!(libc::waitpid(pid, &mut status, 0), pid);
        assert!(
            libc::WIFSIGNALED(status) && libc::WTERMSIG(status) == libc::SIGSEGV,
            "child should die of SIGSEGV, status {status:#x}"
        );
    }
}

#[test]
fn unmapped_fault_still_crashes_the_process() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Handler installed: it must decline foreign faults. The child touches
    // an address no region owns; the handler restores SIG_DFL.
    fixture();
    child_dies_of_sigsegv(|| {
        // SAFETY: deliberately faulting load (near-null, never mapped).
        unsafe { std::ptr::read_volatile(0x10usize as *const u8) };
    });
}

#[test]
fn an_unserved_fault_crashes_the_process() {
    let _g = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let r = fixture();
    r.protect(0, 2, Prot::NoAccess).unwrap();
    // The fault is the region's, but its resolver declines it: the
    // handler restores SIG_DFL and the retried store kills the child.
    child_dies_of_sigsegv(|| {
        DECLINE.store(true, Ordering::Relaxed);
        r.write_u8(0, 2, 9, 1);
    });
}
