//! An address space costs the chunks it touches, counted in live heap
//! bytes: a new space holds its two chunk tables and nothing else, and a
//! first write materializes its own chunk and page, no other.

use sim_mem::{AddressSpace, Geometry, Prot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds. Const-initialized with no destructor, so
    /// counting takes no lazy path that could allocate.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting only updates
// a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns, and the live bytes it added on this thread
/// (negative: freed).
fn grown<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = LIVE.with(Cell::get) as isize;
    let r = f();
    (r, LIVE.with(Cell::get) as isize - before)
}

#[test]
fn a_new_space_holds_only_its_chunk_tables() {
    // The geometry a simulated host gets by default: 4 096 pages, 32
    // application views and the privileged one. A protection byte per
    // vpage and a 24-byte slot per page, up front, were ≈ 237 KB.
    let (space, bytes) = grown(|| AddressSpace::new(Geometry::new(4096, 32)));
    assert!(bytes <= 3 << 10, "a new space holds {bytes} bytes");
    assert_eq!(grown(|| drop(space)).1, -bytes);
}

#[test]
fn a_first_write_materializes_only_its_own_chunk() {
    let geo = Geometry::new(4096, 32);
    let ps = geo.page_size() as isize;
    let (space, tables) = grown(|| AddressSpace::new(geo.clone()));
    let open = |view, page| {
        let vpage = geo.vpage_index(view, page);
        grown(|| space.set_prot(vpage, Prot::ReadWrite).unwrap()).1
    };
    let write = |view, page| {
        let addr = geo.addr_of(view, page, 8);
        grown(|| space.write(addr, &[1; 8]).unwrap()).1
    };

    // Opening a vpage materializes its protection chunk; its neighbour
    // in the chunk costs nothing more.
    let prot_chunk = open(3, 100);
    assert!(prot_chunk > 0 && prot_chunk <= 1024, "{prot_chunk}");
    assert_eq!(open(3, 101), 0);
    // The first write to a page materializes its page chunk and backs
    // the page...
    let first = write(3, 100);
    let page_chunk = first - ps;
    assert!(page_chunk > 0 && page_chunk <= 2048, "{first}");
    // ...a second page of the same chunk costs just its page...
    assert_eq!(write(3, 101), ps);
    // ...and a write to a backed page costs nothing.
    assert_eq!(write(3, 100), 0);
    // A page far away materializes chunks of its own, the same sizes.
    assert_eq!(open(3, 4000), prot_chunk);
    assert_eq!(write(3, 4000), first);
    assert_eq!(space.backed_pages(), 3);
    // Reads, privileged or not, and closing a vpage that was never open
    // allocate nothing.
    let (_, more) = grown(|| {
        let mut buf = [0u8; 64];
        space.read(geo.addr_of(3, 100, 0), &mut buf).unwrap();
        let far = geo.addr_of(geo.priv_view(), 2000, 0);
        space.priv_read_into(far, &mut buf).unwrap();
        space
            .set_prot(geo.vpage_index(7, 2000), Prot::NoAccess)
            .unwrap();
    });
    assert_eq!(more, 0);
    // Dropping the space gives back every byte it took.
    let held = tables + 2 * prot_chunk + 2 * page_chunk + 3 * ps;
    assert_eq!(grown(|| drop(space)).1, -held);
}
