//! The manager, sharded per host (§3.3 + the §5 distribution).
//!
//! §3.3's manager keeps the MPT and the directory, translates faulting
//! addresses, forwards requests to copy holders, fans out invalidations,
//! queues competing requests, and hosts the synchronization services
//! (barriers, queue locks) and the shared allocator. "The manager's role
//! is essentially to mark and forward requests to hosts, and to maintain
//! the MPT."
//!
//! §5 observes that this single manager "may become a bottleneck" and that
//! "this problem can be solved by distributing the minipage management
//! among several managers". This module is that distribution: every host
//! runs a [`ManagerShard`], and each minipage's directory entry, service
//! window and (under release consistency) master copy live at the shard of
//! its *home* host, chosen by the cluster's
//! [`HomePolicyKind`](crate::HomePolicyKind). Every shard translates
//! through the run's one MPT, which the [`HomeTable`] holds: the shared
//! allocator places into it and adaptation rewrites it. Allocation and
//! the synchronization services stay on the single manager host — they
//! are not per-minipage state. Under the `Centralized` policy every
//! minipage is homed at the manager host and the protocol is bit-for-bit
//! the paper's original.

use crate::adapt::{AdaptAction, AdaptConfig, AdaptEngine, AdaptReport};
use crate::backend::{bad_priv, bad_vpage, read_priv, Cluster, MemoryBackend, Transport};
use crate::cluster::SetupShard;
use crate::diff::Diff;
use crate::directory::{hosts_in, Directory};
use crate::error::ProtocolError;
use crate::hlrc::{Consistency, MpInfo};
use crate::home::{HomeTable, MANAGER};
use crate::host::{HostState, Waiters};
use crate::msg::{MsgKind, Pmsg};
use crate::probe::{Fact, Probe};
use multiview::{Minipage, MinipageId};
use sim_core::trace::TraceKind;
use sim_core::IntMap;
use sim_core::{HostId, LogHistogram, Ns, VAddr};
use sim_mem::{AddressSpace, Prot};
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<HostId>,
    queue: VecDeque<Pmsg>,
}

/// One host's slice of the distributed manager: runs inside the DSM
/// server thread and owns the directory entries of the minipages homed
/// here. The manager host's shard additionally serves allocations and
/// the synchronization services.
pub(crate) struct ManagerShard<M = AddressSpace, W = Waiters> {
    me: HostId,
    /// Total application threads (barrier quorum; ≥ hosts under §3.4
    /// multithreading).
    barrier_quorum: usize,
    home: Rc<HomeTable>,
    dir: Directory,
    locks: IntMap<u64, LockState>,
    barrier_waiters: Vec<Pmsg>,
    /// Latest service time over the open barrier's enters. Enters served
    /// out of virtual-time order rewind the timeline
    /// (`ServerTimeline::begin_service`'s inversion branch), so the last
    /// *served* enter is not necessarily the last to *arrive*.
    barrier_high: Ns,
    /// Every host's memory, behind the backend boundary. The allocating
    /// shard initializes freshly allocated minipages directly in their
    /// home host's space — an alloc-time setup step, not protocol
    /// traffic: the minipage is unreachable by applications until the
    /// allocation reply delivers its address.
    cluster: Rc<Cluster<M, W>>,
    /// Where shard-side facts go: this host's counters, the home-side
    /// diagnostics lanes (fan-outs, write-ownership alternations, diff
    /// extents) and the shard's trace.
    probe: Probe,
    /// Invalidation round-trips observed at this shard: fan-out to last
    /// reply, per completed round.
    inv_rt: LogHistogram,
    /// Online adaptation engine: plans at barrier quiesce points (on the
    /// shard that collects the barrier quorum) and records every action
    /// this shard applies.
    adapt: AdaptEngine,
    /// Barrier waiters parked while remotely homed adaptation actions are
    /// outstanding: `(parked releases, acks still expected)`.
    adapt_pending: Option<(Vec<Pmsg>, usize)>,
}

impl<M: MemoryBackend, W> ManagerShard<M, W> {
    /// Creates the shard for host `me` of `cluster`, which runs under its
    /// host's cost model and protocol.
    pub(crate) fn new(
        me: HostId,
        barrier_quorum: usize,
        home: Rc<HomeTable>,
        cluster: Rc<Cluster<M, W>>,
        probe: Probe,
        adapt: AdaptConfig,
    ) -> Self {
        Self {
            me,
            barrier_quorum,
            dir: Directory::new(me),
            locks: IntMap::default(),
            barrier_waiters: Vec::new(),
            barrier_high: 0,
            home,
            cluster,
            probe,
            inv_rt: LogHistogram::new(),
            adapt: AdaptEngine::new(adapt),
            adapt_pending: None,
        }
    }

    /// The host this shard runs on.
    pub fn me(&self) -> HostId {
        self.me
    }

    /// Host `h`'s memory.
    fn space(&self, h: HostId) -> &M {
        &self.cluster[h.index()].space
    }

    /// This shard's host: the cost model and protocol it runs under.
    fn local(&self) -> &HostState<M, W> {
        &self.cluster[self.me.index()]
    }

    /// Competing requests observed at this shard (Figure 7).
    pub fn competing_requests(&self) -> u64 {
        self.dir.competing_requests()
    }

    /// Invalidation round-trip times (fan-out to last reply) observed at
    /// this shard.
    pub fn inv_round_trip(&self) -> &LogHistogram {
        &self.inv_rt
    }

    /// Read-only directory access (tests, validation).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Whether a request waits behind an open service window here, so the
    /// `Ack` that closes the window must reach this shard without delay.
    pub fn awaits_ack(&self) -> bool {
        self.dir.waiting() != 0
    }

    /// Adaptation actions this shard applied (merged cluster-wide into
    /// [`RunReport::adapt`](crate::RunReport)).
    pub fn adapt_report(&self) -> &AdaptReport {
        self.adapt.report()
    }

    /// Allocates shared memory and initializes its directory state: each
    /// new minipage enters the home table and starts at its home host
    /// with a writable copy. Runs on the manager host only.
    /// `now` is the virtual time of the grant (0 during pre-run setup).
    pub(crate) fn do_alloc(&mut self, size: usize, requester: HostId, now: Ns) -> VAddr {
        assert_eq!(self.me, MANAGER, "allocations go to the manager host");
        let (addr, placed) = self
            .home
            .alloc(size, requester)
            .unwrap_or_else(|e| panic!("shared allocation failed: {e}"));
        let geo = self.home.geometry();
        // Fresh minipages live at their home host. Under SW/MR the home
        // copy starts writable; under release consistency it starts
        // read-only so the home host's own writes twin and flush like
        // everyone else's.
        let home_prot = match self.local().consistency {
            Consistency::SequentialSwMr => Prot::ReadWrite,
            Consistency::HomeEagerRc => Prot::ReadOnly,
        };
        for (mp, home) in placed {
            // aux 1 = the home copy starts writable (SW/MR), 0 = read-only
            // (HLRC); peer = the home host the copy lands on.
            self.probe.trace(now, TraceKind::AllocGrant, |e| {
                e.with_mp(mp.id.0)
                    .with_peer(home)
                    .with_aux(u32::from(home_prot == Prot::ReadWrite))
            });
            let state = &self.cluster[home.index()];
            for vp in mp.vpages(geo) {
                state
                    .space
                    .set_prot(vp, home_prot)
                    .expect("application vpage");
            }
            state.learn_rc(
                mp.vpages(geo),
                MpInfo {
                    id: mp.id,
                    base: mp.base,
                    len: mp.len,
                    priv_base: mp.priv_base(geo),
                },
            );
        }
        addr
    }

    /// Handles one shard-addressed message. `wire` is this host's server
    /// wire, whose clock every charge and stamp here goes to (on the sim,
    /// service start already charged by the server). A failed handler
    /// degrades the one request (the server records the error and nacks
    /// the requester).
    pub(crate) fn handle<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        match m.kind {
            MsgKind::ReadRequest => self.handle_read_request(m, wire),
            MsgKind::WriteRequest => self.handle_write_request(m, wire),
            MsgKind::InvalidateReply => self.handle_invalidate_reply(m, wire),
            MsgKind::Ack => self.handle_ack(m, wire),
            MsgKind::AllocRequest => self.handle_alloc(m, wire),
            MsgKind::BarrierEnter => self.handle_barrier_enter(m, wire),
            MsgKind::LockAcquire => self.handle_lock_acquire(m, wire),
            MsgKind::LockRelease => self.handle_lock_release(m, wire),
            MsgKind::PushRequest => self.handle_push(m, wire),
            MsgKind::RcDiff => self.handle_rc_diff(m, wire),
            MsgKind::AdaptApply => self.handle_adapt_apply(m, wire),
            MsgKind::AdaptAck => self.handle_adapt_ack(m, wire),
            other => Err(ProtocolError::Unroutable {
                host: self.me,
                kind: other.name(),
            }),
        }
    }

    /// Figure 3 `Translate`: fills the translation fields from the MPT.
    /// Returns `None` after forwarding a stale-homed request: the minipage
    /// migrated while the message was in flight (the sender routed with an
    /// older epoch of the home table), so the request is re-sent verbatim
    /// to the current home and local processing stops.
    fn translate<T: Transport>(
        &mut self,
        m: &mut Pmsg,
        wire: &mut T,
    ) -> Result<Option<MinipageId>, ProtocolError> {
        wire.charge(self.local().cost.mpt_lookup);
        let mp = self
            .home
            .translate(m.addr)
            .ok_or(ProtocolError::BadTranslation {
                host: self.me,
                addr: m.addr.0 as usize,
                what: "faulting address",
            })?;
        m.base = mp.base;
        m.len = mp.len;
        m.priv_base = mp.priv_base(self.home.geometry());
        m.minipage = mp.id;
        let home = self.home.home(mp.id);
        if home != self.me {
            self.forward_stale(mp.id, m.clone(), home, wire)?;
            return Ok(None);
        }
        Ok(Some(mp.id))
    }

    /// Forwards a request that reached a shard no longer homing its
    /// minipage. The `AdaptForward` record carries the request's event so
    /// the auditor can check exactly-once forwarding per request.
    fn forward_stale<T: Transport>(
        &mut self,
        id: MinipageId,
        m: Pmsg,
        home: HostId,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let epoch = self.home.epoch();
        self.probe.trace(wire.now(), TraceKind::AdaptForward, |e| {
            e.with_mp(id.0)
                .with_peer(home)
                .with_event(m.event)
                .with_aux(epoch.min(u32::MAX as u64) as u32)
        });
        let payload = m.payload_bytes();
        wire.send(home, m, payload, "stale-home forward")?;
        Ok(())
    }

    /// [`Directory::begin_service`] with tracing: `WindowOpen` when the
    /// window opens, `ReqQueued` when the request queues behind one.
    /// `aux`: 0 = read, 1 = write, 2 = push, 3 = rc diff.
    fn open_window(&mut self, id: MinipageId, m: &Pmsg, now: Ns, aux: u32) -> bool {
        let opened = self.dir.begin_service(id.index(), m.clone());
        let kind = if opened {
            TraceKind::WindowOpen
        } else {
            TraceKind::ReqQueued
        };
        let peer = m.from;
        self.probe
            .trace(now, kind, |e| e.with_mp(id.0).with_peer(peer).with_aux(aux));
        opened
    }

    /// [`Directory::end_service`] with a `WindowClose` trace record, then
    /// the competing request queued behind the window, if any, is served.
    /// An ack can arrive for a windowless transfer (an HLRC home-served
    /// read); closing is a no-op then and records nothing.
    fn close_window<T: Transport>(
        &mut self,
        id: MinipageId,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let was_open = self.dir.entry(id.index()).in_service;
        let next = self.dir.end_service(id.index());
        if was_open {
            let now = wire.now();
            self.probe
                .trace(now, TraceKind::WindowClose, |e| e.with_mp(id.0));
        }
        next.map_or(Ok(()), |next| self.dispatch_queued(next, wire))
    }

    fn handle_read_request<T: Transport>(
        &mut self,
        mut m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let Some(id) = self.translate(&mut m, wire)? else {
            return Ok(());
        };
        if self.local().consistency == Consistency::HomeEagerRc {
            // The home copy is always current at synchronization points:
            // serve directly, one hop, no service window.
            wire.charge(self.local().cost.dsm_overhead);
            let e = self.dir.entry(id.index());
            e.add(m.from);
            let data = read_priv(
                self.space(self.me),
                self.me,
                m.priv_base,
                m.len,
                "home copy read",
            )?;
            let mut reply = m;
            reply.kind = MsgKind::ReadReply;
            reply.data = data;
            let to = reply.from;
            let payload = reply.payload_bytes();
            self.probe.trace(wire.now(), TraceKind::Serve, |e| {
                e.with_mp(id.0).with_peer(to).with_aux(0)
            });
            wire.send(to, reply, payload, "home read reply")?;
            return Ok(());
        }
        if !self.open_window(id, &m, wire.now(), 0) {
            return Ok(()); // Queued as a competing request.
        }
        let e = self.dir.entry(id.index());
        let src = e.find_replica().ok_or(ProtocolError::MissingReplica {
            host: self.me,
            minipage: id.0,
        })?;
        // Serving a read downgrades any writable copy (Figure 3's "Handle
        // Read Request"); the directory forgets the writer now.
        e.owner = None;
        e.add(m.from);
        m.kind = MsgKind::ServeRead;
        self.probe.trace(wire.now(), TraceKind::Forward, |e| {
            e.with_mp(id.0).with_peer(src).with_aux(0)
        });
        wire.send(src, m, 0, "read forward")?;
        Ok(())
    }

    fn handle_write_request<T: Transport>(
        &mut self,
        mut m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        if self.local().consistency != Consistency::SequentialSwMr {
            return Err(ProtocolError::BadState {
                host: self.me,
                what: "write request under release consistency",
            });
        }
        let Some(id) = self.translate(&mut m, wire)? else {
            return Ok(());
        };
        if !self.open_window(id, &m, wire.now(), 1) {
            return Ok(());
        }
        let e = self.dir.entry(id.index());
        // Prefer upgrading in place when the requester already holds a
        // read copy; otherwise Figure 3's find_replica.
        let src = if e.holds(m.from) {
            m.from
        } else {
            e.find_replica().ok_or(ProtocolError::MissingReplica {
                host: self.me,
                minipage: id.0,
            })?
        };
        let targets = e.copyset & !(1u64 << src.index());
        if targets == 0 {
            Self::forward_write(e, &mut self.probe, src, m, wire)?;
        } else {
            e.inv_pending = targets.count_ones();
            e.inv_sent_vt = wire.now();
            e.pending_write = Some(m.clone());
            self.invalidate(&m, targets, wire, "invalidate fan-out")?;
        }
        Ok(())
    }

    /// Fans an invalidation of `m`'s minipage out to the hosts of the
    /// copyset mask `targets`, in ascending host order.
    fn invalidate<T: Transport>(
        &mut self,
        m: &Pmsg,
        targets: u64,
        wire: &mut T,
        what: &'static str,
    ) -> Result<(), ProtocolError> {
        for to in hosts_in(targets) {
            let inv = Pmsg {
                kind: MsgKind::InvalidateRequest,
                data: bytes::Bytes::new(),
                ..*m
            };
            let (mp, event) = (m.minipage.0, m.event);
            self.probe.on(wire.now(), Fact::InvSend { mp, to, event });
            wire.send(to, inv, 0, what)?;
        }
        Ok(())
    }

    fn handle_invalidate_reply<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let id = m.minipage;
        let from = m.from;
        self.probe.trace(wire.now(), TraceKind::InvReplyRecv, |e| {
            e.with_mp(id.0).with_peer(from).with_event(m.event)
        });
        let rc = self.local().consistency == Consistency::HomeEagerRc;
        let pending = {
            let e = self.dir.entry(id.index());
            e.remove(m.from);
            // Distributed release consistency confirms every invalidation,
            // including untracked ones sent on the fire-and-forget eviction
            // path; those echo event 0 and only update the copyset. Tracked
            // invalidations echo the waiting request's (nonzero) event.
            if rc && m.event == 0 {
                return Ok(());
            }
            if e.inv_pending == 0 {
                return Err(ProtocolError::BadState {
                    host: self.me,
                    what: "invalidate reply without pending invalidations",
                });
            }
            e.inv_pending -= 1;
            // Figure 3: "if got less than (#replicas - 1) replies then
            // return".
            if e.inv_pending == 0 {
                self.inv_rt.record(wire.now().saturating_sub(e.inv_sent_vt));
                Some(e.pending_write.take().ok_or(ProtocolError::BadState {
                    host: self.me,
                    what: "no request pending on these invalidations",
                })?)
            } else {
                None
            }
        };
        let Some(w) = pending else { return Ok(()) };
        if rc {
            // The pending request is a flushed diff: every stale copy is
            // now gone, release the flusher.
            self.ack_rc_diff(&w, wire)
        } else {
            let e = self.dir.entry(id.index());
            let src = e.find_replica().ok_or(ProtocolError::MissingReplica {
                host: self.me,
                minipage: id.0,
            })?;
            Self::forward_write(e, &mut self.probe, src, w, wire)
        }
    }

    /// Hands `m.from` the writable copy: the directory names it sole
    /// owner, and `src` serves the write.
    fn forward_write<T: Transport>(
        e: &mut crate::directory::DirectoryEntry,
        probe: &mut Probe,
        src: HostId,
        mut m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let (mp, writer) = (m.minipage.0, m.from);
        probe.on(wire.now(), Fact::WriteForward { mp, src, writer });
        e.copyset = 1u64 << m.from.index();
        e.owner = Some(m.from);
        m.kind = MsgKind::ServeWrite;
        wire.send(src, m, 0, "write forward")?;
        Ok(())
    }

    /// Releases the flusher of the diff `m`: its diff is applied and every
    /// stale copy gone. Closes the window and serves what queued behind it.
    fn ack_rc_diff<T: Transport>(&mut self, m: &Pmsg, wire: &mut T) -> Result<(), ProtocolError> {
        let id = m.minipage;
        let ack = Pmsg::new(MsgKind::RcDiffAck, self.me, m.event).with_addr(m.addr);
        self.probe.trace(wire.now(), TraceKind::RcDiffAckSend, |e| {
            e.with_mp(id.0).with_peer(m.from).with_event(m.event)
        });
        wire.send(m.from, ack, 0, "rc diff ack")?;
        self.close_window(id, wire)
    }

    fn handle_ack<T: Transport>(&mut self, mut m: Pmsg, wire: &mut T) -> Result<(), ProtocolError> {
        let Some(id) = self.translate(&mut m, wire)? else {
            return Ok(());
        };
        let from = m.from;
        self.probe.trace(wire.now(), TraceKind::AckRecv, |e| {
            e.with_mp(id.0).with_peer(from)
        });
        self.close_window(id, wire)
    }

    fn dispatch_queued<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        match m.kind {
            MsgKind::ReadRequest => self.handle_read_request(m, wire),
            MsgKind::WriteRequest => self.handle_write_request(m, wire),
            MsgKind::PushRequest => self.handle_push(m, wire),
            MsgKind::RcDiff => self.handle_rc_diff(m, wire),
            other => Err(ProtocolError::Unroutable {
                host: self.me,
                kind: other.name(),
            }),
        }
    }

    fn handle_alloc<T: Transport>(&mut self, m: Pmsg, wire: &mut T) -> Result<(), ProtocolError> {
        wire.charge(self.local().cost.mpt_lookup);
        let addr = self.do_alloc(m.aux as usize, m.from, wire.now());
        let mut reply = Pmsg::new(MsgKind::AllocReply, self.me, m.event);
        reply.addr = addr;
        wire.send(m.from, reply, 0, "alloc reply")?;
        Ok(())
    }

    fn handle_barrier_enter<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        self.barrier_waiters.push(m);
        self.barrier_high = self.barrier_high.max(wire.now());
        if self.barrier_waiters.len() == self.barrier_quorum {
            // No release may leave before the slowest arrival: make up
            // the shortfall when this enter was served "back then" (zero
            // whenever enters are served in virtual-time order).
            let high = std::mem::take(&mut self.barrier_high);
            wire.charge(high.saturating_sub(wire.now()));
            wire.charge(self.local().cost.barrier_base);
            self.probe.on(wire.now(), Fact::BarrierDone);
            let mut waiters = std::mem::take(&mut self.barrier_waiters);
            // The quiesce point: every application thread is parked here,
            // so the adaptation engine may rewrite granularity and homing
            // before the releases go out. Remotely homed actions park the
            // releases until their acks arrive.
            let outstanding = self.run_adaptation(wire)?;
            if outstanding > 0 {
                self.adapt_pending = Some((waiters, outstanding));
            } else {
                self.release_barrier(&mut waiters, wire)?;
                // The next barrier's enters reuse the emptied list.
                self.barrier_waiters = waiters;
            }
        }
        Ok(())
    }

    /// Sends the parked barrier releases, emptying `waiters`.
    fn release_barrier<T: Transport>(
        &mut self,
        waiters: &mut Vec<Pmsg>,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        for w in waiters.drain(..) {
            wire.charge(self.local().cost.barrier_per_host);
            let mut rel = Pmsg::new(MsgKind::BarrierRelease, self.me, w.event);
            rel.addr = w.addr;
            self.probe
                .trace(wire.now(), TraceKind::BarrierReleaseSend, |e| {
                    e.with_peer(w.from).with_event(w.event)
                });
            wire.send(w.from, rel, 0, "barrier release")?;
        }
        Ok(())
    }

    fn handle_lock_acquire<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let st = self.locks.entry(m.aux).or_default();
        if st.held_by.is_none() {
            wire.charge(self.local().cost.lock_service);
            self.grant_lock(m, wire)?;
        } else {
            st.queue.push_back(m);
        }
        Ok(())
    }

    /// Hands lock `m.aux` to its requester `m.from`.
    fn grant_lock<T: Transport>(&mut self, m: Pmsg, wire: &mut T) -> Result<(), ProtocolError> {
        let (lock, to) = (m.aux, m.from);
        self.locks.entry(lock).or_default().held_by = Some(to);
        self.probe.on(wire.now(), Fact::LockGrant { lock, to });
        let grant = Pmsg::new(MsgKind::LockGrant, self.me, m.event).with_aux(lock);
        wire.send(to, grant, 0, "lock grant")?;
        Ok(())
    }

    fn handle_lock_release<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        wire.charge(self.local().cost.lock_service);
        let st = self.locks.get_mut(&m.aux).ok_or(ProtocolError::BadState {
            host: self.me,
            what: "release of an unknown lock",
        })?;
        if st.held_by != Some(m.from) {
            return Err(ProtocolError::BadState {
                host: self.me,
                what: "lock released by a non-holder",
            });
        }
        st.held_by = None;
        if let Some(next) = st.queue.pop_front() {
            self.grant_lock(next, wire)?;
        }
        Ok(())
    }

    fn handle_push<T: Transport>(
        &mut self,
        mut m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let Some(id) = self.translate(&mut m, wire)? else {
            return Ok(());
        };
        if !self.open_window(id, &m, wire.now(), 2) {
            return Ok(()); // Queued behind an in-flight transfer.
        }
        let hosts = self.cluster.len();
        let e = self.dir.entry(id.index());
        // A push from a host that no longer owns the minipage is stale:
        // ownership moved since it was issued, and it is dropped.
        if e.owner == Some(m.from) {
            // Publish read copies everywhere (§4.3, the TSP bound).
            e.owner = None;
            e.copyset = all_hosts_mask(hosts);
            self.probe.on(wire.now(), Fact::Push);
            for h in 0..hosts {
                let h = HostId(h as u16);
                if h == m.from {
                    continue;
                }
                let mut push = m.clone();
                push.kind = MsgKind::PushData;
                let payload = push.payload_bytes();
                wire.send(h, push, payload, "push data")?;
            }
        }
        // Pushes hold no service window (no ack follows).
        self.close_window(id, wire)
    }
}

impl<M: MemoryBackend, W> ManagerShard<M, W> {
    /// Applies a release-point diff to the home copy and invalidates the
    /// other copies.
    ///
    /// Under the centralized policy the diff is fire-and-forget
    /// (`event == 0`): FIFO ordering to the single manager makes the
    /// invalidations land before any later barrier release or lock grant
    /// (see the `hlrc` module docs). With distributed homes that ordering
    /// argument breaks — the diff and the barrier travel on different
    /// channels — so flushed diffs carry an event, are serialized through
    /// the service window, and are acknowledged with [`MsgKind::RcDiffAck`]
    /// only once every stale copy has confirmed its invalidation. The
    /// flusher blocks on that ack before entering the barrier or
    /// releasing the lock.
    fn handle_rc_diff<T: Transport>(&mut self, m: Pmsg, wire: &mut T) -> Result<(), ProtocolError> {
        if self.local().consistency != Consistency::HomeEagerRc {
            return Err(ProtocolError::BadState {
                host: self.me,
                what: "RcDiff under the SW/MR protocol",
            });
        }
        // A diff routed with a pre-migration home table lands at the old
        // home; forward it to the current one.
        let home = self.home.home(m.minipage);
        if home != self.me {
            let id = m.minipage;
            return self.forward_stale(id, m, home, wire);
        }
        let acked = m.event != 0;
        if acked && !self.open_window(m.minipage, &m, wire.now(), 3) {
            return Ok(()); // A concurrent flush of this minipage is mid-window.
        }
        let diff = Diff::decode(&m.data).ok_or(ProtocolError::Malformed {
            host: self.me,
            what: "undecodable release diff",
        })?;
        // The diff covers its minipage exactly, so no run can reach
        // privileged bytes outside it.
        if diff.source_len() != m.len {
            return Err(ProtocolError::Malformed {
                host: self.me,
                what: "release diff sized unlike its minipage",
            });
        }
        let fact = Fact::RcDiff {
            mp: m.minipage.0,
            from: m.from,
            event: m.event,
            bytes: m.data.len(),
            diff: &diff,
        };
        self.probe.on(wire.now(), fact);
        // Only the runs' bytes are written, so a local write to *other*
        // bytes of the minipage is never clobbered.
        self.space(self.me)
            .apply_diff(m.priv_base, &diff)
            .map_err(|_| ProtocolError::BadTranslation {
                host: self.me,
                addr: m.priv_base.0 as usize,
                what: "diff patch target",
            })?;
        wire.charge((self.local().cost.patch_per_byte_ns * m.len as f64) as sim_core::Ns);
        let me = 1u64 << self.me.index();
        let e = self.dir.entry(m.minipage.index());
        let targets = e.copyset & !me;
        e.copyset = me;
        e.owner = None;
        self.invalidate(&m, targets, wire, "rc invalidate fan-out")?;
        if !acked {
            return Ok(());
        }
        if targets == 0 {
            return self.ack_rc_diff(&m, wire);
        }
        // Ack once the last invalidation is confirmed.
        let e = self.dir.entry(m.minipage.index());
        e.inv_pending = targets.count_ones();
        e.inv_sent_vt = wire.now();
        e.pending_write = Some(m);
        Ok(())
    }
}

impl<M: MemoryBackend, W> ManagerShard<M, W> {
    /// The barrier-quiesce adaptation hook. Plans from a fresh
    /// diagnostics snapshot; applies locally homed actions directly and
    /// ships remotely homed ones as [`MsgKind::AdaptApply`]. Returns the
    /// number of remote applications whose acks the caller must await
    /// before releasing the barrier.
    fn run_adaptation<T: Transport>(&mut self, wire: &mut T) -> Result<usize, ProtocolError> {
        let barrier = self.adapt.note_barrier();
        if !self.adapt.should_act(barrier) {
            return Ok(0);
        }
        let Some(table) = self.probe.table().cloned() else {
            return Ok(0); // No diagnostics, nothing to plan from.
        };
        let geo = self.home.geometry().clone();
        let active: Vec<Minipage> = self
            .home
            .table
            .borrow()
            .mpt()
            .iter_active()
            .copied()
            .collect();
        let report = crate::diag::build_report(&table, &active, &geo, &self.home, Vec::new());
        let actions = self.adapt.plan(&report, &active, geo.page_size());
        let mut outstanding = 0usize;
        for a in actions {
            let target = self.home.home(a.target());
            if target == self.me {
                self.apply_action(&a, barrier, wire)?;
            } else {
                let mut msg = Pmsg::new(MsgKind::AdaptApply, self.me, self.adapt.next_event());
                msg.minipage = a.target();
                msg.aux = barrier;
                msg.data = bytes::Bytes::from(a.encode());
                let payload = msg.payload_bytes();
                wire.send(target, msg, payload, "adapt apply")?;
                outstanding += 1;
            }
        }
        Ok(outstanding)
    }

    /// A remotely planned action arriving at the shard homing its target.
    /// Any apply failure defers the action (`aux = 0` in the ack) rather
    /// than stranding the sender's parked barrier.
    fn handle_adapt_apply<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        let action = AdaptAction::decode(&m.data).ok_or(ProtocolError::Malformed {
            host: self.me,
            what: "undecodable adaptation action",
        })?;
        let applied = self.apply_action(&action, m.aux, wire).unwrap_or(false);
        let ack = Pmsg::new(MsgKind::AdaptAck, self.me, m.event).with_aux(u64::from(applied));
        wire.send(m.from, ack, 0, "adapt ack")?;
        Ok(())
    }

    /// One remote application finished; the last ack releases the parked
    /// barrier.
    fn handle_adapt_ack<T: Transport>(
        &mut self,
        m: Pmsg,
        wire: &mut T,
    ) -> Result<(), ProtocolError> {
        if m.aux == 0 {
            self.adapt.record_deferred();
        }
        let Some((mut waiters, left)) = self.adapt_pending.take() else {
            return Err(ProtocolError::BadState {
                host: self.me,
                what: "adapt ack with no parked barrier",
            });
        };
        if left > 1 {
            self.adapt_pending = Some((waiters, left - 1));
            Ok(())
        } else {
            self.release_barrier(&mut waiters, wire)
        }
    }

    /// Whether `id`'s directory entry has protocol state in flight that
    /// an adaptation action must not race (the quiesce makes this rare,
    /// but a prefetch issued just before the barrier can still be
    /// mid-window).
    fn adapt_busy(&self, id: MinipageId) -> bool {
        self.dir.entry_ref(id.index()).is_some_and(|e| {
            e.in_service || e.inv_pending > 0 || e.pending_write.is_some() || !e.queue.is_empty()
        })
    }

    /// `id`'s descriptor, unless an earlier action retired it.
    fn live(&self, id: MinipageId) -> Option<Minipage> {
        let t = self.home.table.borrow();
        (!t.mpt().is_retired(id)).then(|| *t.mpt().get(id))
    }

    /// Ensures this home's physical copy of `mp` is current: under SW/MR
    /// the latest bytes may live at a remote owner. Control-plane copy —
    /// no protocol messages, the cluster is quiesced.
    fn pull_master_copy(&mut self, mp: &Minipage) -> Result<(), ProtocolError> {
        let pb = mp.priv_base(self.home.geometry());
        let src = {
            let e = self.dir.entry(mp.id.index());
            e.owner.or_else(|| e.find_replica()).unwrap_or(self.me)
        };
        if src == self.me {
            return Ok(());
        }
        let data = read_priv(
            self.space(src),
            self.me,
            pb,
            mp.len,
            "adaptation master read",
        )?;
        self.space(self.me)
            .priv_write(pb, &data)
            .map_err(|_| bad_priv(self.me, pb, "adaptation master write"))?;
        Ok(())
    }

    /// Revokes every host's application-view access to `mp`.
    fn revoke_everywhere(&self, mp: &Minipage) -> Result<(), ProtocolError> {
        let geo = self.home.geometry();
        for st in self.cluster.iter() {
            for vp in mp.vpages(geo) {
                st.space
                    .set_prot(vp, Prot::NoAccess)
                    .map_err(|_| bad_vpage(st.host, vp))?;
            }
        }
        Ok(())
    }

    /// Applies one action at the shard homing its target. Returns `false`
    /// (and records a deferral) when the action cannot apply safely:
    /// busy directory state, a retired target, exhausted views, or a
    /// consistency/backend gate. The caller treats errors like deferrals
    /// where a hang would otherwise result.
    fn apply_action<T: Transport>(
        &mut self,
        a: &AdaptAction,
        barrier: u64,
        wire: &mut T,
    ) -> Result<bool, ProtocolError> {
        wire.charge(self.local().cost.mpt_lookup);
        let geo = self.home.geometry().clone();
        let ps = geo.page_size();
        match a {
            AdaptAction::Split { mp, cuts } => {
                // Splitting rewrites protections per new vpage; only the
                // SW/MR protocol's directory state survives that rewrite
                // as "one writable copy at home".
                let parent = self.live(*mp).filter(|_| {
                    self.local().consistency == Consistency::SequentialSwMr && !self.adapt_busy(*mp)
                });
                let Some(parent) = parent else {
                    self.adapt.record_deferred();
                    return Ok(false);
                };
                let mut bounds = vec![0usize];
                bounds.extend(cuts.iter().map(|&c| c as usize));
                bounds.push(parent.len);
                if bounds.windows(2).any(|w| w[0] >= w[1]) {
                    self.adapt.record_deferred();
                    return Ok(false);
                }
                // Place each child in a fresh view over the parent's
                // physical bytes: the data never moves.
                let phys = parent.phys_range(ps);
                let t = self.home.table.borrow();
                let next = t.mpt().next_id().0;
                let mut children = Vec::new();
                let mut used_views = Vec::new();
                for (k, w) in bounds.windows(2).enumerate() {
                    let start = phys.start + w[0];
                    let len = w[1] - w[0];
                    let (first_page, offset) = (start / ps, start % ps);
                    let pages = (offset + len).div_ceil(ps);
                    let view = t.mpt().free_view_for(&geo, first_page, pages, &used_views);
                    let Some(view) = view else {
                        self.adapt.record_deferred();
                        return Ok(false); // View space exhausted: skip.
                    };
                    used_views.push(view);
                    children.push(Minipage {
                        id: MinipageId(next + k as u32),
                        base: geo.addr_of(view, first_page, offset),
                        len,
                        view,
                        first_page,
                        offset,
                    });
                }
                drop(t);
                self.pull_master_copy(&parent)?;
                self.revoke_everywhere(&parent)?;
                let n = children.len() as u32;
                let first = children[0].id.0;
                self.home.replace(&[parent.id], children.clone(), self.me);
                for child in &children {
                    for vp in child.vpages(&geo) {
                        self.space(self.me)
                            .set_prot(vp, Prot::ReadWrite)
                            .map_err(|_| bad_vpage(self.me, vp))?;
                    }
                }
                self.dir.forget(parent.id.index());
                let parent = parent.id.0;
                self.probe.on(wire.now(), Fact::Split { parent, first, n });
                self.adapt.record_split(barrier, parent, cuts);
                Ok(true)
            }
            AdaptAction::Merge { group } => {
                let members: Option<Vec<Minipage>> =
                    group.iter().map(|&id| self.live(id)).collect();
                let members = members.filter(|_| {
                    self.local().consistency == Consistency::SequentialSwMr
                        && group.len() >= 2
                        && !group.iter().any(|&id| self.adapt_busy(id))
                });
                let Some(mut members) = members else {
                    self.adapt.record_deferred();
                    return Ok(false);
                };
                members.sort_by_key(|m| m.phys_range(ps).start);
                let contiguous = members
                    .windows(2)
                    .all(|w| w[0].phys_range(ps).end == w[1].phys_range(ps).start);
                let start = members[0].phys_range(ps).start;
                let len: usize = members.iter().map(|m| m.len).sum();
                let (first_page, offset) = (start / ps, start % ps);
                let pages = (offset + len).div_ceil(ps);
                let merged = {
                    let t = self.home.table.borrow();
                    let view = t.mpt().free_view_for(&geo, first_page, pages, &[]);
                    view.filter(|_| contiguous && first_page + pages <= geo.pages())
                        .map(|view| Minipage {
                            id: t.mpt().next_id(),
                            base: geo.addr_of(view, first_page, offset),
                            len,
                            view,
                            first_page,
                            offset,
                        })
                };
                let Some(merged) = merged else {
                    self.adapt.record_deferred();
                    return Ok(false);
                };
                for m in &members {
                    self.pull_master_copy(m)?;
                }
                for m in &members {
                    self.revoke_everywhere(m)?;
                }
                let old: Vec<MinipageId> = members.iter().map(|m| m.id).collect();
                self.home.replace(&old, vec![merged], self.me);
                for vp in merged.vpages(&geo) {
                    self.space(self.me)
                        .set_prot(vp, Prot::ReadWrite)
                        .map_err(|_| bad_vpage(self.me, vp))?;
                }
                for id in &old {
                    self.dir.forget(id.index());
                }
                // Anti-oscillation: never split the merge result again.
                self.adapt.forbid_split(merged.id.0);
                let fact = Fact::Merge {
                    old: &old,
                    merged: merged.id.0,
                };
                self.probe.on(wire.now(), fact);
                self.adapt.record_merge(barrier, &old, merged.id.0);
                Ok(true)
            }
            AdaptAction::Migrate { mp, to } => {
                let desc = self.live(*mp).filter(|_| {
                    *to != self.me && to.index() < self.cluster.len() && !self.adapt_busy(*mp)
                });
                let Some(desc) = desc else {
                    self.adapt.record_deferred();
                    return Ok(false);
                };
                self.pull_master_copy(&desc)?;
                let pb = desc.priv_base(&geo);
                let data = read_priv(self.space(self.me), self.me, pb, desc.len, "migration read")?;
                self.revoke_everywhere(&desc)?;
                self.space(*to)
                    .priv_write(pb, &data)
                    .map_err(|_| bad_priv(*to, pb, "migration write"))?;
                // The new home starts exactly like a fresh allocation:
                // writable under SW/MR, read-only (twin-on-write) under
                // HLRC.
                let writable = self.local().consistency == Consistency::SequentialSwMr;
                let prot = if writable {
                    Prot::ReadWrite
                } else {
                    Prot::ReadOnly
                };
                for vp in desc.vpages(&geo) {
                    self.space(*to)
                        .set_prot(vp, prot)
                        .map_err(|_| bad_vpage(*to, vp))?;
                }
                self.cluster[to.index()].learn_rc(
                    desc.vpages(&geo),
                    MpInfo {
                        id: desc.id,
                        base: desc.base,
                        len: desc.len,
                        priv_base: pb,
                    },
                );
                self.dir.forget(mp.index());
                self.home.migrate(*mp, *to);
                let (mp, to) = (mp.0, *to);
                self.probe
                    .on(wire.now(), Fact::Migrate { mp, to, writable });
                self.adapt.record_migrate(barrier, mp, to.0);
                Ok(true)
            }
        }
    }
}

impl<M: MemoryBackend, W> SetupShard for ManagerShard<M, W> {
    fn alloc(&mut self, bytes: usize) -> VAddr {
        let me = self.me;
        self.do_alloc(bytes, me, 0)
    }

    fn finish_chunk(&mut self) {
        self.home.table.borrow_mut().alloc.finish_chunk();
    }

    fn retire_page(&mut self) {
        self.home.table.borrow_mut().alloc.retire_page();
    }

    fn init_write(&self, addr: VAddr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let cur = addr.add(off);
            let mp = self
                .home
                .translate(cur)
                .unwrap_or_else(|| panic!("init write at {cur} hits no minipage"));
            let take = ((mp.base.0 + mp.len as u64 - cur.0) as usize).min(data.len() - off);
            let home = self.home.home(mp.id);
            self.space(home)
                .priv_write(cur, &data[off..off + take])
                .expect("in range");
            off += take;
        }
    }
}

fn all_hosts_mask(hosts: usize) -> u64 {
    debug_assert!((1..=64).contains(&hosts));
    if hosts == 64 {
        u64::MAX
    } else {
        (1u64 << hosts) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, Stack};
    use sim_mem::Geometry;
    use std::ops::Range;

    /// The wire of a handler that must not send; its clock stands still.
    struct NoSends;

    impl Transport for NoSends {
        fn now(&self) -> Ns {
            0
        }

        fn charge(&mut self, _: Ns) -> Ns {
            0
        }

        fn send(&mut self, to: HostId, m: Pmsg, _: usize, _: &str) -> Result<Ns, ProtocolError> {
            panic!("unexpected {:?} to {to}", m.kind)
        }
    }

    /// A home patches a release diff only if the diff covers its minipage
    /// exactly: a longer one could write privileged bytes past the
    /// minipage, a shorter one was not made from it. Neither touches a
    /// byte; a well-formed one still writes exactly its runs.
    #[test]
    fn a_release_diff_sized_unlike_its_minipage_is_malformed() {
        let cfg = ClusterConfig {
            hosts: 2,
            pages: 4,
            views: 2,
            consistency: Consistency::HomeEagerRc,
            ..ClusterConfig::default()
        };
        let geo = Geometry::new(cfg.pages, cfg.views);
        let space = |_| (AddressSpace::new(geo.clone()), Waiters::default());
        let (stack, mut shards, base) = Stack::new(&cfg, geo.clone(), space, |s| s.alloc_bytes(64));
        let mp = stack.home.translate(base).expect("allocated");
        let (n, priv_base) = (mp.len, mp.priv_base(&geo));
        let home = &stack.states[MANAGER.index()].space;
        let before = vec![0xAA; n + 64];
        home.priv_write(priv_base, &before).unwrap();
        // The diff of a `source_len`-byte copy of `before` whose `run`
        // bytes became 7, shipped as the minipage's release diff.
        let rc_diff = |source_len: usize, run: Range<usize>| {
            let twin = &before[..source_len];
            let mut current = twin.to_vec();
            current[run].fill(7);
            let mut m = Pmsg::new(MsgKind::RcDiff, HostId(1), 0).with_addr(base);
            (m.minipage, m.base, m.len, m.priv_base) = (mp.id, base, n, priv_base);
            m.data = Diff::compute(twin, &current).encode().into();
            m
        };
        for m in [rc_diff(n + 64, n - 4..n + 8), rc_diff(n / 2, 0..4)] {
            assert!(matches!(
                shards[0].handle(m, &mut NoSends),
                Err(ProtocolError::Malformed {
                    what: "release diff sized unlike its minipage",
                    ..
                })
            ));
        }
        assert_eq!(home.priv_read(priv_base, n + 64).unwrap(), before);
        shards[0]
            .handle(rc_diff(n, n - 4..n), &mut NoSends)
            .expect("a well-formed diff applies");
        let mut after = before.clone();
        after[n - 4..n].fill(7);
        assert_eq!(home.priv_read(priv_base, n + 64).unwrap(), after);
    }

    #[test]
    fn all_hosts_mask_covers_exactly_n_hosts() {
        assert_eq!(all_hosts_mask(1), 0b1);
        assert_eq!(all_hosts_mask(8), 0xFF);
        assert_eq!(all_hosts_mask(64), u64::MAX);
    }
}
