//! The application-facing DSM surface, abstracted over backends.
//!
//! The paper's applications see one API — allocate, read, write, barrier —
//! regardless of whether the protocol underneath runs on the simulator's
//! checked address space or on real `mmap`ed memory behind a SIGSEGV
//! handler. [`Dsm`] captures exactly the subset of [`HostCtx`] that the
//! ported benchmarks (SOR, IS) use, so a worker written as
//! `fn worker<D: Dsm>(ctx: &mut D, …)` runs unchanged on either backend.
//!
//! Deliberately excluded: prefetch, push, and lock operations. Those are
//! simulator-side protocol extensions that the real-memory backend does
//! not implement (yet); keeping them off the trait means a portable worker
//! cannot accidentally depend on them.

use crate::host::HostCtx;
use crate::shared::{zeroed, Pod, SharedVec};
use sim_core::{HostId, Ns};
use std::ops::Range;

/// Backend-independent view of one application thread's DSM context.
///
/// Implemented by the simulator's [`HostCtx`] and by the real-memory
/// backend's run context ([`hostrun`](crate::hostrun), Linux only).
pub trait Dsm {
    /// This thread's host.
    fn host(&self) -> HostId;

    /// Number of hosts in the cluster.
    fn hosts(&self) -> usize;

    /// Reads `sv[range]` into a fresh vector: [`read_into`](Self::read_into)
    /// on a zeroed one.
    fn read_range<T: Pod>(&mut self, sv: &SharedVec<T>, range: Range<usize>) -> Vec<T> {
        let mut out = zeroed(range.len());
        self.read_into(sv, range.start, &mut out);
        out
    }

    /// Reads the `out.len()` elements from `start` into `out`, faulting
    /// pages in as needed: one copy, page to the caller's buffer.
    fn read_into<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, out: &mut [T]);

    /// Writes `vals` over `sv[start..start + vals.len()]`.
    fn write_range<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, vals: &[T]);

    /// Global barrier across every application thread.
    fn barrier(&mut self);

    /// Restarts the timed region (used after untimed initialization).
    fn timer_reset(&mut self);

    /// Accounts `ns` of local computation. The simulator advances virtual
    /// time; a real-memory backend only tallies it for reporting.
    fn compute(&mut self, ns: Ns);
}

impl Dsm for HostCtx {
    fn host(&self) -> HostId {
        HostCtx::host(self)
    }

    fn hosts(&self) -> usize {
        HostCtx::hosts(self)
    }

    fn read_into<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, out: &mut [T]) {
        HostCtx::read_into(self, sv, start, out)
    }

    fn write_range<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, vals: &[T]) {
        HostCtx::write_range(self, sv, start, vals)
    }

    fn barrier(&mut self) {
        HostCtx::barrier(self)
    }

    fn timer_reset(&mut self) {
        HostCtx::timer_reset(self)
    }

    fn compute(&mut self, ns: Ns) {
        HostCtx::compute(self, ns)
    }
}
