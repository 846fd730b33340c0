//! Home-based eager release consistency (§5, "Reduced-Consistency
//! Protocols").
//!
//! "When the minipages defined for a certain application are larger than
//! the sharing unit, i.e., the chunking level is set higher than one,
//! performance may benefit from employing reduced-consistency protocols
//! ... Thus, chunking reduces the overhead involved in fine-grain
//! operation, while false-sharing is eliminated through the reduced
//! consistency protocol."
//!
//! The implemented protocol (selected with
//! [`Consistency::HomeEagerRc`] in [`ClusterConfig`]) is a Munin-style
//! eager, home-based release consistency on top of the twin/diff machinery
//! of [`crate::diff`]:
//!
//! * every minipage has a *home* (the manager host) whose copy is always
//!   current at synchronization points;
//! * a read miss fetches a read copy from the home (always one hop);
//! * a write miss **upgrades locally**: the host twins its copy and opens
//!   the protection itself — no ownership transfer, so several hosts can
//!   write disjoint parts of one (chunked) minipage concurrently;
//! * at every release (barrier entry, lock release) the host diffs its
//!   dirty minipages against their twins and ships the run-length diffs to
//!   the home, which patches its copy and invalidates the other copies;
//! * ordering needs no extra acknowledgements: diffs precede the
//!   `BarrierEnter`/`LockRelease` on the same FIFO channel, and the
//!   invalidations precede the barrier release / next lock grant on the
//!   manager's FIFO channels to each host, so a data-race-free program
//!   never observes a stale byte after synchronizing.
//!
//! Cost-wise this is exactly the §4.2 trade the paper measures: each
//! flushed page pays the diff-creation time (250 µs per 4 KB) that the
//! thin sequential-consistency protocol avoids.
//!
//! [`ClusterConfig`]: crate::ClusterConfig

use multiview::MinipageId;
use sim_core::IntMap;
use sim_mem::VAddr;

/// Which coherence protocol the cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Consistency {
    /// Figure 3's Single-Writer/Multiple-Readers sequential consistency —
    /// the paper's Millipage protocol.
    #[default]
    SequentialSwMr,
    /// The §5 extension: home-based eager release consistency with twins
    /// and run-length diffs.
    HomeEagerRc,
}

/// Minipage boundary information a host caches from manager-translated
/// replies (non-manager hosts have no MPT; this cache is their window
/// into it).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MpInfo {
    pub id: MinipageId,
    pub base: VAddr,
    pub len: usize,
    pub priv_base: VAddr,
}

/// A locally writable (twinned) minipage awaiting its release flush.
pub(crate) struct RcDirty {
    pub info: MpInfo,
    /// The minipage's bytes when the write fault opened it: the copy its
    /// release diff is computed against.
    pub twin: Vec<u8>,
}

/// Per-host release-consistency state.
#[derive(Default)]
pub(crate) struct RcState {
    /// Boundary cache: every covered global vpage → minipage info.
    pub boundaries: IntMap<usize, MpInfo>,
    /// Twinned dirty minipages by minipage id.
    pub dirty: IntMap<u32, RcDirty>,
    /// The twins of flushed minipages, kept for the next write faults.
    spare_twins: Vec<Vec<u8>>,
}

impl RcState {
    /// Records a minipage's boundaries for all its vpages.
    pub fn learn(&mut self, vpages: std::ops::Range<usize>, info: MpInfo) {
        for vp in vpages {
            self.boundaries.insert(vp, info);
        }
    }

    /// A `len`-byte buffer for a twin, reusing a flushed minipage's (its
    /// old bytes stay until the twin is read into it).
    pub fn twin_buffer(&mut self, len: usize) -> Vec<u8> {
        let mut twin = self.spare_twins.pop().unwrap_or_default();
        twin.resize(len, 0);
        twin
    }

    /// Keeps a flushed minipage's twin for [`twin_buffer`](Self::twin_buffer).
    pub fn recycle(&mut self, twin: Vec<u8>) {
        self.spare_twins.push(twin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_consistency_is_sw_mr() {
        assert_eq!(Consistency::default(), Consistency::SequentialSwMr);
    }

    #[test]
    fn learn_covers_every_vpage() {
        let mut rc = RcState::default();
        let info = MpInfo {
            id: MinipageId(3),
            base: VAddr(0x1000),
            len: 8192,
            priv_base: VAddr(0x9000),
        };
        rc.learn(10..13, info);
        assert_eq!(rc.boundaries.len(), 3);
        assert_eq!(rc.boundaries[&11].id, MinipageId(3));
    }
}
