//! A simulated host's memory costs what it touches: the peak of live
//! heap bytes over a 32-host SOR run — the benchmark's `sor32_seq` input
//! — stays under a recorded bound. Counted in bytes, not seconds, so the
//! bound holds on any machine.
//!
//! A simulated run is fibers on the calling thread, so this file's
//! allocator, which counts the calling thread's live bytes, sees every
//! host's address space, servers and wire.

use millipage::{ClusterConfig, SchedMode};
use millipage_apps::sor::{self, SorParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds, and the most it held since the last
    /// [`peak_of`] began. Const-initialized with no destructor, so
    /// counting takes no lazy path that could allocate.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting only updates
// thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The most bytes `f` held live on this thread at once, above what the
/// thread held when it began.
fn peak_of(f: impl FnOnce()) -> usize {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    f();
    PEAK.with(Cell::get) - before
}

#[test]
fn a_32_host_sor_run_peaks_under_its_recorded_bound() {
    let cfg = ClusterConfig {
        hosts: 32,
        seed: 7,
        sched: SchedMode::deterministic(),
        ..ClusterConfig::default()
    };
    let p = SorParams {
        rows: 1024,
        cols: 64,
        iters: 4,
    };
    let peak = peak_of(|| {
        let run = sor::run_sor(cfg, p);
        assert!(run.report.coherence_violations.is_empty());
    });
    // Recorded at 2.17 MB. With every host's space holding a protection
    // byte per vpage of every view and a slot per page from the start
    // (≈ 237 KB a host here), the same run peaks at 9.64 MB.
    assert!(peak < 3 << 20, "peak of {peak} live bytes");
}
