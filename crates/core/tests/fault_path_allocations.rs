//! A simulated fault allocates nothing but the reply that carries its
//! minipage: once a cluster has served one fault of a kind, serving the
//! next one — request, forward, invalidation round, reply, install, wake,
//! ack — allocates at most one buffer, and a release under release
//! consistency at most its diff. Header-only traffic allocates nothing.
//!
//! A simulated run is fibers on the calling thread, so this file's
//! allocator, which counts the calling thread's allocations, sees every
//! host's application threads, servers and wire. Each step is one host's
//! operation while every other host waits in the barrier that follows
//! it; the acting host counts what it measures, from an operation's start
//! to its return, which for a fault is after its reply was served and
//! installed and its invalidation round, if any, confirmed. (Under release
//! consistency that barrier is itself a release, so a step that measures
//! a release dirties its minipage first.) Every step is done in four
//! rounds on four minipages of one page: the first warms the pools, the
//! maps and the page's storage, and a step's count is the least of the
//! other three, because the scheduler's decision log, which grows for the
//! whole run, doubles its buffer now and then.

use millipage::{run, AllocMode, ClusterConfig, Consistency, HostCtx, HostId, SharedVec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

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

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn cfg(hosts: usize, consistency: Consistency) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 8,
        pages: 16,
        alloc_mode: AllocMode::FINE,
        consistency,
        seed: 7,
        ..ClusterConfig::default()
    }
}

/// One step: its name, the host that acts, and the operation, which
/// returns the allocations it counted.
type Step = (
    &'static str,
    u16,
    fn(&mut HostCtx, &SharedVec<u64>) -> usize,
);

/// Runs `steps` in every round on the cluster `cfg` and returns each
/// step's least count over the rounds after the first.
fn counted(cfg: ClusterConfig, steps: &[Step]) -> Vec<(&'static str, usize)> {
    // One 512-byte minipage per round, all on one page.
    let setup = |s: &mut millipage::SetupCtx| [(); 4].map(|()| s.alloc_vec_init(&[5u64; 64]));
    let least = Mutex::new(vec![usize::MAX; steps.len()]);
    let report = run(cfg, setup, |ctx, rounds| {
        for (round, v) in rounds.iter().enumerate() {
            for (i, &(_, actor, op)) in steps.iter().enumerate() {
                if ctx.host() == HostId(actor) {
                    let n = op(ctx, v);
                    if round > 0 {
                        let mut least = least.lock().unwrap();
                        least[i] = least[i].min(n);
                    }
                }
                ctx.barrier();
            }
        }
    });
    assert!(
        report.coherence_violations.is_empty(),
        "{:?}",
        report.coherence_violations
    );
    assert!(
        report.protocol_errors.is_empty(),
        "{:?}",
        report.protocol_errors
    );
    let names = steps.iter().map(|s| s.0);
    names.zip(least.into_inner().unwrap()).collect()
}

#[test]
fn a_sequential_consistency_fault_allocates_only_its_reply() {
    // Host 2 also reads the minipage before host 1 writes it, so the write
    // fault's request fans an invalidation out to hosts 0 and 2.
    let steps: &[Step] = &[
        ("read fault", 1, |ctx, v| {
            allocations(|| assert_eq!(ctx.get(v, 3), 5))
        }),
        ("a second reader's read fault", 2, |ctx, v| {
            allocations(|| assert_eq!(ctx.get(v, 3), 5))
        }),
        ("lock and unlock", 1, |ctx, _| {
            allocations(|| {
                ctx.lock(7);
                ctx.unlock(7);
            })
        }),
        ("write fault with an invalidation round", 1, |ctx, v| {
            allocations(|| ctx.set(v, 3, 9))
        }),
    ];
    let got = counted(cfg(3, Consistency::SequentialSwMr), steps);
    let want = [
        ("read fault", 1),
        ("a second reader's read fault", 1),
        ("lock and unlock", 0),
        ("write fault with an invalidation round", 1),
    ];
    assert!(got.iter().zip(want).all(|(g, w)| g.1 <= w.1), "{got:?}");
}

#[test]
fn a_release_of_one_dirty_minipage_allocates_only_its_diff() {
    let steps: &[Step] = &[
        // A read copy comes from home (its reply) and the write twins it.
        ("write fault", 1, |ctx, v| allocations(|| ctx.set(v, 3, 9))),
        ("release", 1, |ctx, v| {
            ctx.lock(7);
            ctx.set(v, 4, 9);
            allocations(|| ctx.unlock(7))
        }),
    ];
    let got = counted(cfg(2, Consistency::HomeEagerRc), steps);
    let want = [("write fault", 1), ("release", 1)];
    assert!(got.iter().zip(want).all(|(g, w)| g.1 <= w.1), "{got:?}");
}
