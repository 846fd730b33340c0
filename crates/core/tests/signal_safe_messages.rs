//! The host backend's SIGSEGV resolver builds, sends and drops header-only
//! messages (a fault's request and the previous fault's window-closing
//! `Ack`) in signal context, where allocating is not allowed: the
//! interrupted thread may hold the allocator's lock. This file's allocator
//! counts the calling thread's allocations, and a header-only `Pmsg`'s
//! whole life must make none.

use millipage::{HostId, MsgKind, Pmsg, VAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialized with no
    /// destructor, so counting takes no lazy path that could allocate.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting only bumps a
// thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_header_only_message_allocates_nothing() {
    let before = allocs();
    for kind in [MsgKind::ReadRequest, MsgKind::WriteRequest, MsgKind::Ack] {
        let m = Pmsg::new(kind, HostId(1), 1).with_addr(VAddr(0x4000));
        let copy = std::hint::black_box(m.clone());
        drop(std::hint::black_box(m));
        drop(copy);
    }
    assert_eq!(allocs() - before, 0);
    // The counter counts: a message with data allocates.
    let mut m = Pmsg::new(MsgKind::ReadReply, HostId(0), 1);
    m.data = vec![0u8; 64].into();
    drop(std::hint::black_box(m));
    assert!(allocs() > before);
}
