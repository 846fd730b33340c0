//! Virtual-time kernel for the Millipage reproduction.
//!
//! The reproduction runs the Millipage protocol for real (real threads, real
//! blocking, real data movement between simulated hosts) but accounts *time*
//! virtually: every simulated thread owns a nanosecond [`Clock`], application
//! work and protocol steps charge costs from a [`CostModel`], and messages
//! carry virtual send timestamps so that latency-derived results (speedups,
//! breakdowns) reproduce the shape of the paper's measurements.
//!
//! This crate holds the pieces shared by every other crate in the workspace:
//!
//! * [`addr`] — virtual addresses and the shared MultiView geometry (the
//!   vocabulary every backend, simulated or real, speaks),
//! * [`clock`] — virtual clocks and time algebra,
//! * [`cost`] — the calibrated cost model (Table 1 and §3.5 of the paper),
//! * [`rng`] — a small deterministic PRNG (SplitMix64),
//! * [`account`] — per-category time accounting (the Figure 6 breakdown),
//! * [`stats`] — counters and the latency histogram used by the harnesses,
//! * [`trace`] — virtual-time protocol event tracing (per-thread rings,
//!   Chrome-trace export),
//! * [`json`] — the one JSON writer and reader every report, trace and
//!   reproducer goes through,
//! * [`sched`] — the cooperative deterministic scheduler (one seed, one
//!   interleaving) backing schedule exploration, and the fibers (stackful
//!   user-level threads on the calling OS thread) it runs application
//!   threads as.

pub mod account;
pub mod addr;
pub mod clock;
pub mod cost;
pub(crate) mod fiber;
pub mod json;
pub mod rng;
pub mod sched;
mod sha256;
pub mod stats;
pub mod trace;

pub use account::{Category, TimeBreakdown};
pub use addr::{Geometry, Loc, VAddr, DEFAULT_BASE, DEFAULT_PAGE_SIZE};
pub use clock::{BusyWindow, Clock, Ns};
pub use cost::{CostModel, ServiceDelayModel};
pub use rng::SplitMix64;
pub use sched::{
    BlockOutcome, DeliveryGate, FiberBody, SchedMode, SchedPolicy, SchedThread, Scheduler,
    ThreadClass, ThreadKey, Turn, TurnFn,
};
#[doc(hidden)]
pub use sha256::sha256_hex;
pub use stats::{Counter, LinkStat, LinkTraffic, LogHistogram};
pub use trace::{ChromeTrace, TraceEvent, TraceKind, TraceLog, TraceRecorder, Tracer, Track};

/// Identifier of a simulated host (0-based, dense).
///
/// The paper's testbed has eight hosts; the reproduction supports up to 64
/// (copysets are stored as `u64` bitmasks).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u16);

impl HostId {
    /// Maximum number of hosts supported by the copyset bitmask encoding
    /// (and the delivery gate's moved-heads mask).
    pub const MAX_HOSTS: usize = 64;

    /// Returns the host id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

// Copysets and the moved-heads mask give every host one bit of a `u64`.
const _: () = assert!(HostId::MAX_HOSTS <= u64::BITS as usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_id_roundtrip_and_display() {
        let h = HostId(7);
        assert_eq!(h.index(), 7);
        assert_eq!(h.to_string(), "h7");
        assert!(HostId(3) < HostId(4));
    }
}
