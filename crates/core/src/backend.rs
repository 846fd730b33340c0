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
//! * [`Transport`] — typed message send with delivery accounting. The
//!   simulator implements it with [`sim_net::Endpoint`] (virtual-time
//!   arrival stamps, fault plane, retransmission); the host backend with
//!   one in-process inbox ring (a futex doorbell, no socket) that a single
//!   OS thread serves for every host.
//!
//! Two companions complete the pair:
//!
//! * [`ProtoClock`] — how handler work is accounted. The sim's
//!   [`ServerTimeline`] charges virtual nanoseconds from the cost model;
//!   the host backend reads a wall clock and charges nothing (real time
//!   passes by itself).
//! * [`LocalWake`] — how the server releases the local application thread
//!   blocked on an event: a waiter map in the sim, a futex word per
//!   application thread on the host backend. It is the only thing the
//!   server engine ([`server::dispatch`](crate::server)) does differently
//!   per substrate.
//!
//! [`ClusterMemory`] is the manager shard's alloc-time access to *every*
//! host's memory (fresh minipages are initialized directly at their home
//! host before any application can reach them — setup, not protocol
//! traffic). It has one implementation, over the per-host
//! [`HostState`]s of whichever substrate is running.
//!
//! The sim implementations monomorphize to exactly the pre-refactor code:
//! the determinism tests and the goldens under `tests/goldens/` hold the
//! sim backend to byte-identical traces and reports.

use crate::error::ProtocolError;
use crate::hlrc::MpInfo;
use crate::host::HostState;
use crate::msg::Pmsg;
use sim_core::{Geometry, HostId, Ns, VAddr};
use sim_mem::{Access, AddressSpace, Prot};
use sim_net::{Endpoint, ServerTimeline};
use std::ops::Range;
use std::sync::Arc;

/// The kind of memory access an application performed when it faulted.
///
/// Core-owned mirror of the backends' fault decodings: the sim derives it
/// from a simulated protection check, the host backend from the SIGSEGV
/// signal context (error-code write bit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl From<Access> for AccessKind {
    fn from(a: Access) -> Self {
        match a {
            Access::Read => AccessKind::Read,
            Access::Write => AccessKind::Write,
        }
    }
}

/// Per-vpage protection, the three states of §2.2. Core-owned so protocol
/// code does not speak any one backend's protection vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
#[repr(u8)]
pub enum PageProt {
    /// The minipage is not present on this host.
    #[default]
    NoAccess = 0,
    /// A read copy is present.
    ReadOnly = 1,
    /// The (single) writable copy is present.
    ReadWrite = 2,
}

impl From<PageProt> for Prot {
    fn from(p: PageProt) -> Prot {
        match p {
            PageProt::NoAccess => Prot::NoAccess,
            PageProt::ReadOnly => Prot::ReadOnly,
            PageProt::ReadWrite => Prot::ReadWrite,
        }
    }
}

impl From<Prot> for PageProt {
    fn from(p: Prot) -> PageProt {
        match p {
            Prot::NoAccess => PageProt::NoAccess,
            Prot::ReadOnly => PageProt::ReadOnly,
            Prot::ReadWrite => PageProt::ReadWrite,
        }
    }
}

/// Why a backend memory operation failed. The protocol layer converts
/// this into a [`ProtocolError`] carrying the message context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// Address, range, or vpage outside the shared region.
    OutOfRange,
    /// A protection change targeted the (fixed `ReadWrite`) privileged
    /// view.
    Privileged,
}

/// One host's view of the shared memory object, as the protocol sees it:
/// per-vpage protections plus privileged-view byte access.
///
/// Contract: `set_prot` on an application vpage takes effect before the
/// call returns (a racing application access observes either the old or
/// the new protection, never garbage); `priv_read`/`priv_write` bypass
/// protections entirely (the privileged view is permanently `ReadWrite`,
/// §2.3.1) and may span pages but not views.
pub trait MemoryBackend {
    /// The shared address-space geometry (same on every host, §2.4).
    fn geometry(&self) -> &Geometry;
    /// Current protection of a global vpage.
    fn prot(&self, vpage: usize) -> PageProt;
    /// Changes the protection of an application vpage.
    fn set_prot(&self, vpage: usize, prot: PageProt) -> Result<(), MemFault>;
    /// Reads bytes through the privileged view.
    fn priv_read(&self, addr: VAddr, len: usize) -> Result<Vec<u8>, MemFault>;
    /// Writes bytes through the privileged view (zero-copy receive).
    fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemFault>;
    /// Atomically snapshots `[addr, addr+len)` and sets the protection of
    /// the covering vpages — the HLRC eviction step (no write may slip
    /// between the copy and the protection change).
    fn snapshot_and_protect(
        &self,
        addr: VAddr,
        len: usize,
        prot: PageProt,
    ) -> Result<Vec<u8>, MemFault>;
}

impl MemoryBackend for AddressSpace {
    fn geometry(&self) -> &Geometry {
        AddressSpace::geometry(self)
    }

    fn prot(&self, vpage: usize) -> PageProt {
        AddressSpace::prot(self, vpage).into()
    }

    fn set_prot(&self, vpage: usize, prot: PageProt) -> Result<(), MemFault> {
        AddressSpace::set_prot(self, vpage, prot.into()).map_err(|e| match e {
            sim_mem::MemError::OutOfRange { .. } => MemFault::OutOfRange,
            sim_mem::MemError::PrivilegedViewProtection { .. } => MemFault::Privileged,
        })
    }

    fn priv_read(&self, addr: VAddr, len: usize) -> Result<Vec<u8>, MemFault> {
        AddressSpace::priv_read(self, addr, len).map_err(|_| MemFault::OutOfRange)
    }

    fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemFault> {
        AddressSpace::priv_write(self, addr, data).map_err(|_| MemFault::OutOfRange)
    }

    fn snapshot_and_protect(
        &self,
        addr: VAddr,
        len: usize,
        prot: PageProt,
    ) -> Result<Vec<u8>, MemFault> {
        AddressSpace::snapshot_and_protect(self, addr, len, prot.into())
            .map_err(|_| MemFault::OutOfRange)
    }
}

/// Typed message send with delivery accounting.
///
/// Contract: `send` either hands the message to a reliable channel and
/// returns its (virtual or wall) arrival stamp, or surfaces the loss as a
/// typed [`ProtocolError::Timeout`] tagged `what`. Ordering is FIFO per
/// (sender, destination) pair — the protocol's correctness arguments
/// (eviction diffs before invalidate confirmations, HLRC fire-and-forget
/// to the centralized manager) rely on it.
pub trait Transport {
    /// The host this endpoint belongs to.
    fn me(&self) -> HostId;
    /// Sends `msg` (accounting `payload` data bytes) at time `now`.
    fn send(
        &self,
        to: HostId,
        msg: Pmsg,
        payload: usize,
        now: Ns,
        what: &'static str,
    ) -> Result<Ns, ProtocolError>;
}

impl Transport for Endpoint<Pmsg> {
    fn me(&self) -> HostId {
        self.host()
    }

    fn send(
        &self,
        to: HostId,
        msg: Pmsg,
        payload: usize,
        now: Ns,
        what: &'static str,
    ) -> Result<Ns, ProtocolError> {
        // An exhausted retransmit budget surfaces as a typed timeout.
        let event = msg.event;
        let receipt = self.send_receipt(to, msg, payload, now);
        if receipt.delivered {
            Ok(receipt.arrival)
        } else {
            Err(ProtocolError::Timeout {
                host: self.host(),
                what,
                event,
            })
        }
    }
}

/// How protocol handler work is accounted.
///
/// The sim's [`ServerTimeline`] *is* the clock: handlers charge modeled
/// costs and `now()` stamps every trace event and reply. The host backend
/// cannot charge anything — real work takes real time — so its clock is
/// the monotonic wall time its server read when the message arrived, and
/// `charge` is a no-op.
pub trait ProtoClock {
    /// Current time on this host's service timeline.
    fn now(&self) -> Ns;
    /// Accounts `dt` of handler work; returns the completion time.
    fn charge(&mut self, dt: Ns) -> Ns;
}

impl ProtoClock for ServerTimeline {
    fn now(&self) -> Ns {
        ServerTimeline::now(self)
    }

    fn charge(&mut self, dt: Ns) -> Ns {
        ServerTimeline::charge(self, dt)
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

/// The manager shard's cross-host memory access, used only at allocation
/// time: fresh minipages are initialized directly in their home host's
/// space before the allocation reply makes them reachable.
pub(crate) trait ClusterMemory: Send + Sync {
    /// Changes the protection of `vpage` on `host`.
    fn set_prot(&self, host: HostId, vpage: usize, prot: PageProt) -> Result<(), MemFault>;
    /// Reads bytes from `host`'s privileged view.
    fn priv_read(&self, host: HostId, addr: VAddr, len: usize) -> Result<Vec<u8>, MemFault>;
    /// Writes bytes into `host`'s privileged view.
    fn priv_write(&self, host: HostId, addr: VAddr, data: &[u8]) -> Result<(), MemFault>;
    /// Caches a minipage translation in `host`'s release-consistency
    /// state (HLRC bookkeeping; backends without HLRC ignore it).
    fn learn_rc(&self, host: HostId, vpages: Range<usize>, info: MpInfo);
}

/// Every host's [`HostState`] *is* the cluster's memory, on either
/// substrate: the shards reach a host's space and release-consistency
/// cache through the same state its server thread works on.
impl<M: MemoryBackend + Send + Sync, W: Send + Sync> ClusterMemory for Vec<Arc<HostState<M, W>>> {
    fn set_prot(&self, host: HostId, vpage: usize, prot: PageProt) -> Result<(), MemFault> {
        self[host.index()].space.set_prot(vpage, prot)
    }

    fn priv_read(&self, host: HostId, addr: VAddr, len: usize) -> Result<Vec<u8>, MemFault> {
        self[host.index()].space.priv_read(addr, len)
    }

    fn priv_write(&self, host: HostId, addr: VAddr, data: &[u8]) -> Result<(), MemFault> {
        self[host.index()].space.priv_write(addr, data)
    }

    fn learn_rc(&self, host: HostId, vpages: Range<usize>, info: MpInfo) {
        self[host.index()].rc.lock().learn(vpages, info);
    }
}

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
    prot: PageProt,
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
        if mem.prot(vp) == PageProt::ReadWrite {
            mem.set_prot(vp, PageProt::ReadOnly)
                .map_err(|_| bad_vpage(host, vp))?;
            downgraded += 1;
        }
    }
    Ok(downgraded)
}

/// Reads minipage bytes through the privileged view for a serve.
pub(crate) fn read_priv<M: MemoryBackend>(
    mem: &M,
    host: HostId,
    priv_base: VAddr,
    len: usize,
    what: &'static str,
) -> Result<Vec<u8>, ProtocolError> {
    mem.priv_read(priv_base, len)
        .map_err(|_| bad_priv(host, priv_base, what))
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
    fn page_prot_roundtrips_through_sim_prot() {
        for p in [PageProt::NoAccess, PageProt::ReadOnly, PageProt::ReadWrite] {
            assert_eq!(PageProt::from(Prot::from(p)), p);
        }
        assert_eq!(AccessKind::from(Access::Read), AccessKind::Read);
        assert_eq!(AccessKind::from(Access::Write), AccessKind::Write);
    }

    #[test]
    fn engine_ops_drive_a_sim_address_space() {
        let geo = Geometry::new(4, 2);
        let space = AddressSpace::new(geo.clone());
        let host = HostId(0);
        let base = geo.addr_of(0, 1, 0);
        let priv_base = geo.to_priv(base).unwrap();
        let n = protect_range(&space, host, base, 64, PageProt::ReadWrite).unwrap();
        assert_eq!(n, 1);
        write_priv(&space, host, priv_base, &[7u8; 64], "install").unwrap();
        assert_eq!(
            read_priv(&space, host, priv_base, 64, "serve").unwrap(),
            vec![7u8; 64]
        );
        assert_eq!(downgrade_range(&space, host, base, 64).unwrap(), 1);
        // Second downgrade is a no-op: already read-only.
        assert_eq!(downgrade_range(&space, host, base, 64).unwrap(), 0);
        assert_eq!(
            MemoryBackend::prot(&space, geo.vpage_of(base).unwrap()),
            PageProt::ReadOnly
        );
        // Ranges outside the region surface as typed errors.
        assert!(protect_range(&space, host, VAddr(1), 8, PageProt::NoAccess).is_err());
    }
}
