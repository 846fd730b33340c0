//! A release diff is one buffer from `Diff::compute` to the home's patch:
//! computing it makes at most two allocations (the worst-case buffer it is
//! written into and the `Bytes` it becomes), whatever its run count, and
//! encoding, decoding, walking and applying it allocate nothing. This
//! file's allocator counts the calling thread's allocations.

use bytes::Bytes;
use millipage::diff::Diff;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// The allocations `f` makes on this thread, and what it returns.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// A 256-byte row of 64 `f32`s, each changed in its three low bytes (the
/// mantissa) and not in its sign/exponent byte: 64 runs of 3 bytes, the
/// shape of an SOR row's release diff.
fn f32_row() -> (Vec<u8>, Vec<u8>) {
    let bits = (0..64).map(|i| (1.0 + i as f32 / 64.0).to_bits());
    let twin = bits.clone().flat_map(u32::to_le_bytes).collect();
    let cur = bits.flat_map(|x| (x ^ 0x0001_0101).to_le_bytes()).collect();
    (twin, cur)
}

/// A 4 KB buffer with every other byte changed: 2,048 one-byte runs, the
/// most runs a 4 KB diff can have.
fn alternating_4k() -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..4096).map(|i| (i * 7 % 251) as u8).collect();
    let mut cur = twin.clone();
    cur.iter_mut().step_by(2).for_each(|b| *b ^= 0x01);
    (twin, cur)
}

#[test]
fn compute_allocates_at_most_twice_whatever_the_run_count() {
    for ((twin, cur), runs, run_len) in [(f32_row(), 64, 3), (alternating_4k(), 2048, 1)] {
        let (n, d) = allocations(|| Diff::compute(black_box(&twin), black_box(&cur)));
        assert_eq!((d.runs(), d.changed_bytes()), (runs, runs * run_len));
        assert!(n <= 2, "{runs} runs: compute made {n} allocations");
    }
}

#[test]
fn encode_decode_walk_and_apply_allocate_nothing() {
    for (twin, cur) in [f32_row(), alternating_4k()] {
        let d = Diff::compute(&twin, &cur);
        let (n, wire) = allocations(|| d.encode());
        assert_eq!(n, 0, "encode");
        let (n, _) = allocations(|| Bytes::from(d.encode()));
        assert_eq!(n, 0, "encode into a message's Bytes");
        let (n, decoded) = allocations(|| Diff::decode(black_box(&wire)));
        assert_eq!(n, 0, "decode");
        let decoded = decoded.expect("own encoding is valid");
        let (n, changed) = allocations(|| decoded.iter_runs().map(|(_, b)| b.len()).sum::<usize>());
        assert_eq!((n, changed), (0, d.changed_bytes()), "iter_runs");
        let mut target = twin.clone();
        let (n, ()) = allocations(|| decoded.apply(black_box(&mut target)));
        assert_eq!((n, &target), (0, &cur), "apply");
        let mut half = twin[100..].to_vec();
        let (n, ()) = allocations(|| decoded.apply_at(100, black_box(&mut half)));
        assert_eq!((n, &half[..]), (0, &cur[100..]), "apply_at");
    }
}
