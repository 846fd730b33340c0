//! DSM-resolver fault-decoding tests (Linux only).
//!
//! Where `sigsegv.rs` exercises the built-in upgrade ladder, these tests
//! check what a DSM backend actually consumes: the decoded `RawFault`
//! handed to an [`install_dsm_handler`] resolver — correct view, page,
//! offset, and read-vs-write intent from the signal context — plus the
//! two rejection paths: addresses outside any region never decode, and a
//! genuinely unmapped access still crashes instead of being swallowed.
//!
//! The resolver runs in signal context, so it records the fault through
//! static atomics only.

#![cfg(target_os = "linux")]

use hostmv::{install_dsm_handler, HostProt, MultiViewRegion, RawFault};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static SERIAL: Mutex<()> = Mutex::new(());

// The resolver is a plain `fn` (no captures): the last decoded fault is
// published through statics. `LAST_SEQ` increments once per resolved
// fault so tests can wait for "a new fault arrived".
static LAST_VIEW: AtomicUsize = AtomicUsize::new(usize::MAX);
static LAST_PAGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LAST_OFFSET: AtomicUsize = AtomicUsize::new(usize::MAX);
static LAST_WRITE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LAST_SEQ: AtomicUsize = AtomicUsize::new(0);

fn recording_resolver(region: &MultiViewRegion, fault: &RawFault, _token: usize) -> bool {
    LAST_VIEW.store(fault.view, Ordering::Relaxed);
    LAST_PAGE.store(fault.page, Ordering::Relaxed);
    LAST_OFFSET.store(fault.offset, Ordering::Relaxed);
    LAST_WRITE.store(fault.write as usize, Ordering::Relaxed);
    LAST_SEQ.fetch_add(1, Ordering::Release);
    // Open the page so the faulting instruction can retry — the same
    // mprotect a real protocol round-trip ends with.
    region
        .protect(fault.view, fault.page, HostProt::ReadWrite)
        .is_ok()
}

fn fixture() -> &'static Arc<MultiViewRegion> {
    static FIX: OnceLock<Arc<MultiViewRegion>> = OnceLock::new();
    FIX.get_or_init(|| {
        let r = Arc::new(MultiViewRegion::new(8, 3).expect("mmap views"));
        install_dsm_handler(Arc::clone(&r), recording_resolver, 0).expect("install handler");
        r
    })
}

fn last() -> (usize, usize, usize, bool) {
    (
        LAST_VIEW.load(Ordering::Relaxed),
        LAST_PAGE.load(Ordering::Relaxed),
        LAST_OFFSET.load(Ordering::Relaxed),
        LAST_WRITE.load(Ordering::Relaxed) == 1,
    )
}

#[test]
fn read_fault_decodes_view_page_offset_and_read_intent() {
    let _g = SERIAL.lock().unwrap();
    let r = fixture();
    r.priv_write(0, 13, b"Z");
    let seq = LAST_SEQ.load(Ordering::Acquire);
    assert_eq!(r.read_u8(1, 0, 13), b'Z');
    assert_eq!(LAST_SEQ.load(Ordering::Acquire), seq + 1);
    assert_eq!(last(), (1, 0, 13, false), "read fault in view 1, page 0");
}

#[test]
fn write_fault_decodes_write_intent() {
    let _g = SERIAL.lock().unwrap();
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
    let _g = SERIAL.lock().unwrap();
    let r = fixture();
    // Seal, read (grants ReadWrite via the resolver), downgrade to
    // ReadOnly — the protocol's invalidate-to-shared — then store.
    r.protect(0, 5, HostProt::NoAccess).unwrap();
    let _ = r.read_u8(0, 5, 0);
    r.protect(0, 5, HostProt::ReadOnly).unwrap();
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
    let _g = SERIAL.lock().unwrap();
    let r = fixture();
    let data: Vec<u8> = (0..300).map(|i| (i % 199) as u8 + 1).collect();
    // Offsets chosen off the 8-byte grid: the first access is a byte of
    // the unaligned head, not the first whole word and not the tail.
    r.protect(1, 6, HostProt::NoAccess).unwrap();
    let seq = LAST_SEQ.load(Ordering::Acquire);
    r.write_span(1, 6, 1003, &data);
    assert_eq!(LAST_SEQ.load(Ordering::Acquire), seq + 1, "one fault");
    assert_eq!(last(), (1, 6, 1003, true), "write span: first byte");
    assert_eq!(r.priv_read(6, 1003, data.len()), data);

    r.protect(1, 6, HostProt::NoAccess).unwrap();
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
    assert_eq!(r.decode(r.addr(0, 0, 0)), Some((0, 0, 0)));
    assert_eq!(r.decode(r.addr(2, 7, 15)), Some((2, 7, 15)));
    // The privileged view decodes too (the handler crashes on it, but the
    // decode itself must identify it).
    assert_eq!(
        r.decode(r.addr(r.priv_view(), 1, 2)),
        Some((r.priv_view(), 1, 2))
    );
    // A near-null address can never belong to a view (mmap won't place
    // a mapping there); one-past-the-end is NOT tested because the
    // kernel may place another view's mapping adjacently.
    assert_eq!(r.decode(0x10), None);
    // An unrelated heap address never decodes.
    let heap = Box::new(0u8);
    assert_eq!(r.decode(&*heap as *const u8 as usize), None);
}

#[test]
fn unmapped_fault_still_crashes_the_process() {
    let _g = SERIAL.lock().unwrap();
    // Handler installed: it must decline foreign faults.
    fixture();
    // Fork: the child touches an address no region owns; the handler
    // restores SIG_DFL and the child dies of SIGSEGV instead of spinning
    // or corrupting memory. The parent just reaps and checks the signal.
    // SAFETY: the child only executes async-signal-safe code (one load)
    // before dying; the parent only calls waitpid.
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            let p = 0x10usize as *const u8;
            std::ptr::read_volatile(p);
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
