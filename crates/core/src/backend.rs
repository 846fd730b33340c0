//! The backend trait pair: one protocol core, many memory/transport
//! substrates.
//!
//! The server/manager/HLRC protocol in this crate is written against two
//! small traits instead of concrete sim types:
//!
//! * [`MemoryBackend`] — map/protect views and read/write minipage bytes
//!   through the privileged view. The simulator implements it with
//!   [`sim_mem::AddressSpace`]; the Linux host backend implements it with
//!   `hostmv::MultiViewRegion` (real `mmap`/`mprotect`).
//! * [`Transport`] — typed message send with delivery accounting, and
//!   the clock its sends are stamped with. The simulator implements it
//!   with [`SimWire`]: a [`sim_net::Endpoint`] (virtual-time arrival
//!   stamps, fault plane, retransmission) and the [`ServerTimeline`] that
//!   charges handler work in virtual nanoseconds from the cost model. The
//!   host backend implements it with one in-process inbox ring (a futex
//!   doorbell, no socket) that a single OS thread serves for every host;
//!   its clock is the wall time the server read when the message in hand
//!   arrived, and a charge is a no-op (real work takes real time).
//!
//! One companion completes the pair: [`LocalWake`], how the server
//! releases the local application thread blocked on an event — a waiter
//! map in the sim, a futex word per application thread on the host
//! backend.
//!
//! A manager shard reaches *every* host's memory (fresh minipages are
//! initialized directly at their home host before any application can
//! reach them — setup, not protocol traffic — and a home patches release
//! diffs into its own copy) through the per-host [`HostState`]s of
//! whichever substrate is running ([`Cluster`]), held by `Rc`: on either
//! backend one OS thread builds, serves and checks a run's states and
//! shards, so neither is `Send` and none takes a lock.
//!
//! The sim implementations monomorphize to exactly the pre-refactor code:
//! the determinism tests and the goldens under `tests/goldens/` hold the
//! sim backend to byte-identical traces and reports.

use crate::diff::Diff;
use crate::error::ProtocolError;
use crate::host::{HostState, Waiters};
use crate::msg::Pmsg;
use bytes::{Bytes, BytesMut};
use sim_core::{Geometry, HostId, MemFault, Ns, VAddr};
use sim_mem::{AddressSpace, Prot};
use sim_net::{Endpoint, ServerTimeline};
use std::ops::Range;
use std::rc::Rc;

/// One host's view of the shared memory object, as the protocol sees it:
/// per-vpage protections plus privileged-view byte access.
///
/// Contract: `set_prot` on an application vpage takes effect before the
/// call returns (a racing application access observes either the old or
/// the new protection, never garbage); `priv_read_into`/`priv_write`
/// bypass protections entirely (the privileged view is permanently
/// `ReadWrite`, §2.3.1) and may span pages but not views.
pub trait MemoryBackend {
    /// The shared address-space geometry (same on every host, §2.4).
    fn geometry(&self) -> &Geometry;
    /// Current protection of a global vpage.
    fn prot(&self, vpage: usize) -> Prot;
    /// Changes the protection of an application vpage.
    fn set_prot(&self, vpage: usize, prot: Prot) -> Result<(), MemFault>;
    /// Fills `out` through the privileged view, from `addr` on: a reply's
    /// bytes land straight in the buffer its message carries.
    fn priv_read_into(&self, addr: VAddr, out: &mut [u8]) -> Result<(), MemFault>;
    /// Writes bytes through the privileged view (zero-copy receive).
    fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemFault>;
    /// Patches a release diff into the `diff.source_len()` bytes at
    /// `priv_base` through the privileged view: the range is checked
    /// whole, then only the diff's runs are written, so a local write to
    /// other bytes of the range is never clobbered.
    fn apply_diff(&self, priv_base: VAddr, diff: &Diff) -> Result<(), MemFault>;
    /// Atomically diffs the `twin.len()` bytes at application address
    /// `addr` against `twin` and sets the protection of the covering
    /// vpages — the HLRC eviction step (no write may slip between the
    /// diff and the protection change).
    fn diff_and_protect(&self, addr: VAddr, twin: &[u8], prot: Prot) -> Result<Diff, MemFault>;
}

impl MemoryBackend for AddressSpace {
    fn geometry(&self) -> &Geometry {
        AddressSpace::geometry(self)
    }

    fn prot(&self, vpage: usize) -> Prot {
        AddressSpace::prot(self, vpage)
    }

    fn set_prot(&self, vpage: usize, prot: Prot) -> Result<(), MemFault> {
        AddressSpace::set_prot(self, vpage, prot)
    }

    fn priv_read_into(&self, addr: VAddr, out: &mut [u8]) -> Result<(), MemFault> {
        AddressSpace::priv_read_into(self, addr, out)
    }

    fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemFault> {
        AddressSpace::priv_write(self, addr, data)
    }

    /// One decode for the range and one page borrow per page it covers.
    fn apply_diff(&self, priv_base: VAddr, diff: &Diff) -> Result<(), MemFault> {
        AddressSpace::priv_patch(self, priv_base, diff.source_len(), |at, bytes| {
            diff.apply_at(at, bytes)
        })
    }

    /// The diff reads the page where it lies (a range spanning pages is
    /// gathered once, into the space's own buffer).
    fn diff_and_protect(&self, addr: VAddr, twin: &[u8], prot: Prot) -> Result<Diff, MemFault> {
        AddressSpace::snapshot_and_protect(self, addr, twin.len(), prot, |current| {
            Diff::compute(twin, current)
        })
    }
}

/// Typed message send with delivery accounting, on the host's service
/// timeline.
///
/// Contract: `send` either hands the message to a reliable channel and
/// returns its (virtual or wall) arrival stamp, or surfaces the loss as a
/// typed [`ProtocolError::Timeout`] tagged `what`. It stamps the message
/// with [`now`](Transport::now). Ordering is FIFO per (sender,
/// destination) pair — the protocol's correctness arguments (eviction
/// diffs before invalidate confirmations, HLRC fire-and-forget to the
/// centralized manager) rely on it.
pub trait Transport {
    /// Current time on this host's service timeline.
    fn now(&self) -> Ns;
    /// Accounts `dt` of handler work; returns the completion time.
    fn charge(&mut self, dt: Ns) -> Ns;
    /// Sends `msg` (accounting `payload` data bytes) at time `now()`.
    fn send(
        &mut self,
        to: HostId,
        msg: Pmsg,
        payload: usize,
        what: &'static str,
    ) -> Result<Ns, ProtocolError>;
}

/// The simulator's wire: a host's endpoint and the timeline its server's
/// handler work is charged to (`now()` stamps every trace event and
/// reply).
pub(crate) struct SimWire {
    pub(crate) ep: Endpoint<Pmsg>,
    pub(crate) timeline: ServerTimeline,
}

impl Transport for SimWire {
    fn now(&self) -> Ns {
        self.timeline.now()
    }

    fn charge(&mut self, dt: Ns) -> Ns {
        self.timeline.charge(dt)
    }

    fn send(
        &mut self,
        to: HostId,
        msg: Pmsg,
        payload: usize,
        what: &'static str,
    ) -> Result<Ns, ProtocolError> {
        // An exhausted retransmit budget surfaces as a typed timeout.
        let event = msg.event;
        let receipt = self.ep.send_receipt(to, msg, payload, self.timeline.now());
        if receipt.delivered {
            Ok(receipt.arrival)
        } else {
            Err(ProtocolError::Timeout {
                host: self.ep.host(),
                what,
                event,
            })
        }
    }
}

/// The one substrate-specific act of the server engine: releasing the
/// local application thread blocked on a protocol event (Figure 3's "signal
/// the event"). The sim resolves a [`Waiter`](crate::host::Waiter) in the
/// host's waiter map; the host backend posts the completing kind to the
/// futex word its application thread sleeps on.
pub(crate) trait LocalWake {
    /// Resolves the thread blocked on `m.event`: `Ok(t)` completes its
    /// request at time `t`, `Err` fails it. `what` names the message in
    /// the [`ProtocolError::NoWaiter`] returned when nobody is blocked.
    fn wake(
        &self,
        host: HostId,
        m: &Pmsg,
        what: &'static str,
        outcome: Result<Ns, ProtocolError>,
    ) -> Result<(), ProtocolError>;
}

/// Every host's [`HostState`], in host order: the cluster's memory on
/// either substrate. The defaults are the simulator's.
pub(crate) type Cluster<M = AddressSpace, W = Waiters> = Vec<Rc<HostState<M, W>>>;

/// The global vpages covered by the translated minipage range named in a
/// message.
pub(crate) fn vpage_range<M: MemoryBackend>(
    mem: &M,
    host: HostId,
    base: VAddr,
    len: usize,
) -> Result<Range<usize>, ProtocolError> {
    mem.geometry()
        .vpages_covering(base, len)
        .map(|(_, r)| r)
        .ok_or(ProtocolError::BadTranslation {
            host,
            addr: base.0 as usize,
            what: "translated minipage range",
        })
}

/// Sets every vpage of the minipage range to `prot`; returns how many
/// protection changes were issued (for cost accounting).
pub(crate) fn protect_range<M: MemoryBackend>(
    mem: &M,
    host: HostId,
    base: VAddr,
    len: usize,
    prot: Prot,
) -> Result<usize, ProtocolError> {
    let range = vpage_range(mem, host, base, len)?;
    let n = range.len();
    for vp in range {
        mem.set_prot(vp, prot).map_err(|_| bad_vpage(host, vp))?;
    }
    Ok(n)
}

/// Downgrades any `ReadWrite` vpage of the range to `ReadOnly` (Figure 3
/// "Handle Read Request"); returns how many were downgraded.
pub(crate) fn downgrade_range<M: MemoryBackend>(
    mem: &M,
    host: HostId,
    base: VAddr,
    len: usize,
) -> Result<usize, ProtocolError> {
    let mut downgraded = 0;
    for vp in vpage_range(mem, host, base, len)? {
        if mem.prot(vp) == Prot::ReadWrite {
            mem.set_prot(vp, Prot::ReadOnly)
                .map_err(|_| bad_vpage(host, vp))?;
            downgraded += 1;
        }
    }
    Ok(downgraded)
}

/// Reads minipage bytes through the privileged view into the buffer a
/// message carries: one allocation, one copy.
pub(crate) fn read_priv<M: MemoryBackend>(
    mem: &M,
    host: HostId,
    priv_base: VAddr,
    len: usize,
    what: &'static str,
) -> Result<Bytes, ProtocolError> {
    let mut buf = BytesMut::zeroed(len);
    mem.priv_read_into(priv_base, &mut buf)
        .map_err(|_| bad_priv(host, priv_base, what))?;
    Ok(buf.freeze())
}

/// Writes minipage bytes through the privileged view for an install.
pub(crate) fn write_priv<M: MemoryBackend>(
    mem: &M,
    host: HostId,
    priv_base: VAddr,
    data: &[u8],
    what: &'static str,
) -> Result<(), ProtocolError> {
    mem.priv_write(priv_base, data)
        .map_err(|_| bad_priv(host, priv_base, what))
}

/// A vpage-protection change failed: the message named a page outside the
/// application view.
pub(crate) fn bad_vpage(host: HostId, vp: usize) -> ProtocolError {
    ProtocolError::BadTranslation {
        host,
        addr: vp,
        what: "protection change",
    }
}

/// A privileged-view access failed: the message's translation lied.
pub(crate) fn bad_priv(host: HostId, priv_base: VAddr, what: &'static str) -> ProtocolError {
    ProtocolError::BadTranslation {
        host,
        addr: priv_base.0 as usize,
        what,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_ops_drive_a_sim_address_space() {
        let geo = Geometry::new(4, 2);
        let space = AddressSpace::new(geo.clone());
        let host = HostId(0);
        let base = geo.addr_of(0, 1, 0);
        let priv_base = geo.to_priv(base).unwrap();
        let n = protect_range(&space, host, base, 64, Prot::ReadWrite).unwrap();
        assert_eq!(n, 1);
        write_priv(&space, host, priv_base, &[7u8; 64], "install").unwrap();
        assert_eq!(
            read_priv(&space, host, priv_base, 64, "serve").unwrap(),
            Bytes::from(vec![7u8; 64])
        );
        assert_eq!(downgrade_range(&space, host, base, 64).unwrap(), 1);
        // Second downgrade is a no-op: already read-only.
        assert_eq!(downgrade_range(&space, host, base, 64).unwrap(), 0);
        assert_eq!(
            MemoryBackend::prot(&space, geo.vpage_of(base).unwrap()),
            Prot::ReadOnly
        );
        // Ranges outside the region surface as typed errors.
        assert!(protect_range(&space, host, VAddr(1), 8, Prot::NoAccess).is_err());
    }
}
