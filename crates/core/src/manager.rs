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
//! [`HomePolicyKind`](crate::HomePolicyKind). The MPT is replicated
//! read-only to all hosts through the [`HomeTable`], so every shard
//! translates locally. The shared allocator and the synchronization
//! services stay on the single manager host — they are not per-minipage
//! state. Under the `Centralized` policy every minipage is homed at the
//! manager host and the protocol is bit-for-bit the paper's original.

use crate::adapt::{AdaptAction, AdaptConfig, AdaptEngine, AdaptReport};
use crate::backend::{ClusterMemory, ProtoClock, Transport};
use crate::diag::DiagSink;
use crate::diff::Diff;
use crate::directory::Directory;
use crate::error::ProtocolError;
use crate::hlrc::{Consistency, MpInfo};
use crate::home::HomeTable;
use crate::msg::{MsgKind, Pmsg};
use multiview::{AllocStats, Allocator, Minipage, MinipageId};
use sim_core::trace::{TraceKind, TraceRecorder};
use sim_core::{CostModel, HostId, LogHistogram, Ns, VAddr};
use sim_mem::Prot;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<HostId>,
    queue: VecDeque<Pmsg>,
}

/// Aggregated manager-side statistics for a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ManagerStats {
    /// Barriers completed.
    pub barriers: u64,
    /// Lock acquisitions granted.
    pub lock_acquires: u64,
    /// Invalidation requests fanned out.
    pub invalidations_sent: u64,
    /// Push broadcasts performed.
    pub pushes: u64,
    /// Pushes dropped because ownership moved before processing.
    pub stale_pushes: u64,
    /// Release-consistency diffs applied at the home.
    pub rc_diffs: u64,
}

/// One host's slice of the distributed manager: runs inside the DSM
/// server thread and owns the directory entries of the minipages homed
/// here. The manager host's shard additionally carries the shared
/// allocator and the synchronization services.
pub struct ManagerShard {
    me: HostId,
    hosts: usize,
    /// Total application threads (barrier quorum; ≥ hosts under §3.4
    /// multithreading).
    barrier_quorum: usize,
    cost: CostModel,
    consistency: Consistency,
    home: Arc<HomeTable>,
    /// The shared allocator; present only on the manager host.
    allocator: Option<Allocator>,
    dir: Directory,
    locks: HashMap<u64, LockState>,
    barrier_waiters: Vec<Pmsg>,
    /// Latest service time over the open barrier's enters. Enters served
    /// out of virtual-time order rewind the timeline
    /// (`ServerTimeline::begin_service`'s inversion branch), so the last
    /// *served* enter is not necessarily the last to *arrive*.
    barrier_high: Ns,
    stats: ManagerStats,
    /// Every host's memory, behind the backend boundary. The allocating
    /// shard initializes freshly allocated minipages directly in their
    /// home host's space — an alloc-time setup step, not protocol
    /// traffic: the minipage is unreachable by applications until the
    /// allocation reply delivers its address.
    cluster: Arc<dyn ClusterMemory>,
    /// Protocol tracer for shard-side events (inert unless tracing is on).
    trace: TraceRecorder,
    /// Sharing-diagnostics sink for home-side accounting: invalidation
    /// fan-outs, write-ownership alternations, diff extents. Inert unless
    /// diagnostics are on.
    diag: DiagSink,
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

impl ManagerShard {
    /// Creates the shard for host `me` in a cluster of `hosts` hosts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: HostId,
        hosts: usize,
        barrier_quorum: usize,
        cost: CostModel,
        consistency: Consistency,
        allocator: Option<Allocator>,
        home: Arc<HomeTable>,
        cluster: Arc<dyn ClusterMemory>,
        trace: TraceRecorder,
        diag: DiagSink,
        adapt: AdaptConfig,
    ) -> Self {
        Self {
            me,
            hosts,
            barrier_quorum,
            cost,
            consistency,
            allocator,
            dir: Directory::new(me),
            locks: HashMap::new(),
            barrier_waiters: Vec::new(),
            barrier_high: 0,
            stats: ManagerStats::default(),
            home,
            cluster,
            trace,
            diag,
            inv_rt: LogHistogram::new(),
            adapt: AdaptEngine::new(adapt),
            adapt_pending: None,
        }
    }

    /// The host this shard runs on.
    pub fn me(&self) -> HostId {
        self.me
    }

    /// Allocator statistics (Table 2's shared-memory size, views,
    /// granularity). Only the manager host's shard has them.
    pub fn alloc_stats(&self) -> AllocStats {
        self.allocator
            .as_ref()
            .expect("the allocator lives on the manager host")
            .stats()
    }

    /// Manager statistics accumulated at this shard.
    pub fn stats(&self) -> ManagerStats {
        self.stats
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
    /// new minipage is published to the home table and starts at its home
    /// host with a writable copy. Runs on the manager host only.
    /// `now` is the virtual time of the grant (0 during pre-run setup).
    pub(crate) fn do_alloc(&mut self, size: usize, requester: HostId, now: Ns) -> VAddr {
        let allocator = self
            .allocator
            .as_mut()
            .expect("allocations are served by the manager host");
        let before = allocator.mpt().len();
        let addr = allocator
            .alloc(size)
            .unwrap_or_else(|e| panic!("shared allocation failed: {e}"));
        let geo = allocator.geometry().clone();
        let new_mps: Vec<Minipage> = (before..allocator.mpt().len())
            .map(|idx| *allocator.mpt().get(MinipageId(idx as u32)))
            .collect();
        // Fresh minipages live at their home host. Under SW/MR the home
        // copy starts writable; under release consistency it starts
        // read-only so the home host's own writes twin and flush like
        // everyone else's.
        let home_prot = match self.consistency {
            Consistency::SequentialSwMr => Prot::ReadWrite,
            Consistency::HomeEagerRc => Prot::ReadOnly,
        };
        for mp in new_mps {
            let home = self.home.publish(mp, requester);
            // aux 1 = the home copy starts writable (SW/MR), 0 = read-only
            // (HLRC); peer = the home host the copy lands on.
            self.trace.emit(now, TraceKind::AllocGrant, |e| {
                e.with_mp(mp.id.0)
                    .with_peer(home)
                    .with_aux(u32::from(home_prot == Prot::ReadWrite))
            });
            for vp in mp.vpages(&geo) {
                self.cluster
                    .set_prot(home, vp, home_prot)
                    .expect("application vpage");
            }
            if self.consistency == Consistency::HomeEagerRc {
                self.cluster.learn_rc(
                    home,
                    mp.vpages(&geo),
                    MpInfo {
                        id: mp.id,
                        base: mp.base,
                        len: mp.len,
                        priv_base: mp.priv_base(&geo),
                    },
                );
            }
        }
        addr
    }

    /// Closes the current chunk (see
    /// [`Allocator::finish_chunk`](multiview::Allocator::finish_chunk)).
    pub(crate) fn finish_chunk(&mut self) {
        self.allocator
            .as_mut()
            .expect("the allocator lives on the manager host")
            .finish_chunk();
    }

    /// See [`Allocator::retire_page`](multiview::Allocator::retire_page).
    pub(crate) fn retire_page(&mut self) {
        self.allocator
            .as_mut()
            .expect("the allocator lives on the manager host")
            .retire_page();
    }

    /// Pre-run initialization write (free): lands in the home host's
    /// memory of every minipage the range crosses, so the fresh master
    /// copies carry the data.
    pub(crate) fn init_write(&self, addr: VAddr, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let cur = addr.add(off);
            let mp = self
                .home
                .translate(cur)
                .unwrap_or_else(|| panic!("init write at {cur} hits no minipage"));
            let take = ((mp.base.0 + mp.len as u64 - cur.0) as usize).min(data.len() - off);
            let home = self.home.home(mp.id);
            self.cluster
                .priv_write(home, cur, &data[off..off + take])
                .expect("in range");
            off += take;
        }
    }

    /// Handles one shard-addressed message. `tl` is this host's server
    /// timeline (service-start already charged by the server loop); `ep`
    /// is its endpoint. A failed handler degrades the one request (the
    /// server loop records the error and nacks the requester).
    pub(crate) fn handle<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        match m.kind {
            MsgKind::ReadRequest => self.handle_read_request(m, tl, ep),
            MsgKind::WriteRequest => self.handle_write_request(m, tl, ep),
            MsgKind::InvalidateReply => self.handle_invalidate_reply(m, tl, ep),
            MsgKind::Ack => self.handle_ack(m, tl, ep),
            MsgKind::AllocRequest => self.handle_alloc(m, tl, ep),
            MsgKind::BarrierEnter => self.handle_barrier_enter(m, tl, ep),
            MsgKind::LockAcquire => self.handle_lock_acquire(m, tl, ep),
            MsgKind::LockRelease => self.handle_lock_release(m, tl, ep),
            MsgKind::PushRequest => self.handle_push(m, tl, ep),
            MsgKind::RcDiff => self.handle_rc_diff(m, tl, ep),
            MsgKind::AdaptApply => self.handle_adapt_apply(m, tl, ep),
            MsgKind::AdaptAck => self.handle_adapt_ack(m, tl, ep),
            other => Err(ProtocolError::Unroutable {
                host: self.me,
                kind: other.name(),
            }),
        }
    }

    /// Figure 3 `Translate`: fills the translation fields from the MPT
    /// replica. Returns `None` after forwarding a stale-homed request:
    /// the minipage migrated while the message was in flight (the sender
    /// routed with an older epoch of the home table), so the request is
    /// re-sent verbatim to the current home and local processing stops.
    fn translate<C: ProtoClock, T: Transport>(
        &mut self,
        m: &mut Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<Option<MinipageId>, ProtocolError> {
        tl.charge(self.cost.mpt_lookup);
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
            self.forward_stale(mp.id, m.clone(), home, tl, ep)?;
            return Ok(None);
        }
        Ok(Some(mp.id))
    }

    /// Forwards a request that reached a shard no longer homing its
    /// minipage. The `AdaptForward` record carries the request's event so
    /// the auditor can check exactly-once forwarding per request.
    fn forward_stale<C: ProtoClock, T: Transport>(
        &mut self,
        id: MinipageId,
        m: Pmsg,
        home: HostId,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        let epoch = self.home.epoch();
        self.trace.emit(tl.now(), TraceKind::AdaptForward, |e| {
            e.with_mp(id.0)
                .with_peer(home)
                .with_event(m.event)
                .with_aux(epoch.min(u32::MAX as u64) as u32)
        });
        let payload = m.payload_bytes();
        ep.send(home, m, payload, tl.now(), "stale-home forward")?;
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
        self.trace
            .emit(now, kind, |e| e.with_mp(id.0).with_peer(peer).with_aux(aux));
        opened
    }

    /// [`Directory::end_service`] with a `WindowClose` trace record. An
    /// ack can arrive for a windowless transfer (an HLRC home-served
    /// read); closing is a no-op then and records nothing.
    fn close_window(&mut self, id: MinipageId, now: Ns) -> Option<Pmsg> {
        let was_open = self.dir.entry(id.index()).in_service;
        let next = self.dir.end_service(id.index());
        if was_open {
            self.trace
                .emit(now, TraceKind::WindowClose, |e| e.with_mp(id.0));
        }
        next
    }

    fn handle_read_request<C: ProtoClock, T: Transport>(
        &mut self,
        mut m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        let Some(id) = self.translate(&mut m, tl, ep)? else {
            return Ok(());
        };
        if self.consistency == Consistency::HomeEagerRc {
            // The home copy is always current at synchronization points:
            // serve directly, one hop, no service window.
            tl.charge(self.cost.dsm_overhead);
            let e = self.dir.entry(id.index());
            e.add(m.from);
            let data = self
                .cluster
                .priv_read(self.me, m.priv_base, m.len)
                .map_err(|_| ProtocolError::BadTranslation {
                    host: self.me,
                    addr: m.priv_base.0 as usize,
                    what: "home copy read",
                })?;
            let mut reply = m;
            reply.kind = MsgKind::ReadReply;
            reply.data = bytes::Bytes::from(data);
            let to = reply.from;
            let payload = reply.payload_bytes();
            self.trace.emit(tl.now(), TraceKind::Serve, |e| {
                e.with_mp(id.0).with_peer(to).with_aux(0)
            });
            ep.send(to, reply, payload, tl.now(), "home read reply")?;
            return Ok(());
        }
        if !self.open_window(id, &m, tl.now(), 0) {
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
        self.trace.emit(tl.now(), TraceKind::Forward, |e| {
            e.with_mp(id.0).with_peer(src).with_aux(0)
        });
        ep.send(src, m, 0, tl.now(), "read forward")?;
        Ok(())
    }

    fn handle_write_request<C: ProtoClock, T: Transport>(
        &mut self,
        mut m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        if self.consistency != Consistency::SequentialSwMr {
            return Err(ProtocolError::BadState {
                host: self.me,
                what: "write request under release consistency",
            });
        }
        let Some(id) = self.translate(&mut m, tl, ep)? else {
            return Ok(());
        };
        if !self.open_window(id, &m, tl.now(), 1) {
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
        let targets: Vec<HostId> = e.holders().filter(|&h| h != src).collect();
        if targets.is_empty() {
            self.trace.emit(tl.now(), TraceKind::Forward, |e| {
                e.with_mp(id.0).with_peer(src).with_aux(1)
            });
            self.diag.writer(id.0, m.from.0);
            Self::forward_write(e, src, m, tl, ep)?;
        } else {
            e.inv_pending = targets.len() as u32;
            e.inv_sent_vt = tl.now();
            e.pending_write = Some(m.clone());
            self.stats.invalidations_sent += targets.len() as u64;
            self.diag.inv_sent(id.0, targets.len() as u64);
            for t in targets {
                let mut inv = m.clone();
                inv.kind = MsgKind::InvalidateRequest;
                inv.data = bytes::Bytes::new();
                self.trace.emit(tl.now(), TraceKind::InvSend, |e| {
                    e.with_mp(id.0).with_peer(t).with_event(inv.event)
                });
                ep.send(t, inv, 0, tl.now(), "invalidate fan-out")?;
            }
        }
        Ok(())
    }

    fn handle_invalidate_reply<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        let id = m.minipage;
        let from = m.from;
        self.trace.emit(tl.now(), TraceKind::InvReplyRecv, |e| {
            e.with_mp(id.0).with_peer(from).with_event(m.event)
        });
        let pending = {
            let e = self.dir.entry(id.index());
            e.remove(m.from);
            // Distributed release consistency confirms every invalidation,
            // including untracked ones sent on the fire-and-forget eviction
            // path; those echo event 0 and only update the copyset. Tracked
            // invalidations echo the waiting request's (nonzero) event.
            if self.consistency == Consistency::HomeEagerRc && m.event == 0 {
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
                self.inv_rt.record(tl.now().saturating_sub(e.inv_sent_vt));
                Some(e.pending_write.take().ok_or(ProtocolError::BadState {
                    host: self.me,
                    what: "no request pending on these invalidations",
                })?)
            } else {
                None
            }
        };
        let Some(w) = pending else { return Ok(()) };
        if self.consistency == Consistency::HomeEagerRc {
            // The pending request is a flushed diff: every stale copy is
            // now gone, release the flusher.
            let ack = Pmsg::new(MsgKind::RcDiffAck, self.me, w.event).with_addr(w.addr);
            self.trace.emit(tl.now(), TraceKind::RcDiffAckSend, |e| {
                e.with_mp(id.0).with_peer(w.from).with_event(w.event)
            });
            ep.send(w.from, ack, 0, tl.now(), "rc diff ack")?;
            if let Some(next) = self.close_window(id, tl.now()) {
                self.dispatch_queued(next, tl, ep)?;
            }
        } else {
            let e = self.dir.entry(id.index());
            let src = e.find_replica().ok_or(ProtocolError::MissingReplica {
                host: self.me,
                minipage: id.0,
            })?;
            self.trace.emit(tl.now(), TraceKind::Forward, |e| {
                e.with_mp(id.0).with_peer(src).with_aux(1)
            });
            self.diag.writer(id.0, w.from.0);
            Self::forward_write(e, src, w, tl, ep)?;
        }
        Ok(())
    }

    fn forward_write<C: ProtoClock, T: Transport>(
        e: &mut crate::directory::DirectoryEntry,
        src: HostId,
        mut m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        e.copyset = 1u64 << m.from.index();
        e.owner = Some(m.from);
        m.kind = MsgKind::ServeWrite;
        ep.send(src, m, 0, tl.now(), "write forward")?;
        Ok(())
    }

    fn handle_ack<C: ProtoClock, T: Transport>(
        &mut self,
        mut m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        let Some(id) = self.translate(&mut m, tl, ep)? else {
            return Ok(());
        };
        let from = m.from;
        self.trace.emit(tl.now(), TraceKind::AckRecv, |e| {
            e.with_mp(id.0).with_peer(from)
        });
        if let Some(next) = self.close_window(id, tl.now()) {
            // The queued competing request is serviced now.
            self.dispatch_queued(next, tl, ep)?;
        }
        Ok(())
    }

    fn dispatch_queued<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        match m.kind {
            MsgKind::ReadRequest => self.handle_read_request(m, tl, ep),
            MsgKind::WriteRequest => self.handle_write_request(m, tl, ep),
            MsgKind::PushRequest => self.handle_push(m, tl, ep),
            MsgKind::RcDiff => self.handle_rc_diff(m, tl, ep),
            other => Err(ProtocolError::Unroutable {
                host: self.me,
                kind: other.name(),
            }),
        }
    }

    fn handle_alloc<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        tl.charge(self.cost.mpt_lookup);
        let addr = self.do_alloc(m.aux as usize, m.from, tl.now());
        let mut reply = Pmsg::new(MsgKind::AllocReply, self.me, m.event);
        reply.addr = addr;
        ep.send(m.from, reply, 0, tl.now(), "alloc reply")?;
        Ok(())
    }

    fn handle_barrier_enter<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        self.barrier_waiters.push(m);
        self.barrier_high = self.barrier_high.max(tl.now());
        if self.barrier_waiters.len() == self.barrier_quorum {
            // No release may leave before the slowest arrival: make up
            // the shortfall when this enter was served "back then" (zero
            // whenever enters are served in virtual-time order).
            let high = std::mem::take(&mut self.barrier_high);
            tl.charge(high.saturating_sub(tl.now()));
            tl.charge(self.cost.barrier_base);
            self.stats.barriers += 1;
            let waiters = std::mem::take(&mut self.barrier_waiters);
            // The quiesce point: every application thread is parked here,
            // so the adaptation engine may rewrite granularity and homing
            // before the releases go out. Remotely homed actions park the
            // releases until their acks arrive.
            let outstanding = self.run_adaptation(tl, ep)?;
            if outstanding > 0 {
                self.adapt_pending = Some((waiters, outstanding));
            } else {
                self.release_barrier(waiters, tl, ep)?;
            }
        }
        Ok(())
    }

    /// Sends the parked barrier releases.
    fn release_barrier<C: ProtoClock, T: Transport>(
        &mut self,
        waiters: Vec<Pmsg>,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        for w in waiters {
            tl.charge(self.cost.barrier_per_host);
            let mut rel = Pmsg::new(MsgKind::BarrierRelease, self.me, w.event);
            rel.addr = w.addr;
            self.trace
                .emit(tl.now(), TraceKind::BarrierReleaseSend, |e| {
                    e.with_peer(w.from).with_event(w.event)
                });
            ep.send(w.from, rel, 0, tl.now(), "barrier release")?;
        }
        Ok(())
    }

    fn handle_lock_acquire<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        let st = self.locks.entry(m.aux).or_default();
        if st.held_by.is_none() {
            st.held_by = Some(m.from);
            self.stats.lock_acquires += 1;
            tl.charge(self.cost.lock_service);
            let grant = Pmsg::new(MsgKind::LockGrant, self.me, m.event).with_aux(m.aux);
            self.trace.emit(tl.now(), TraceKind::LockGrantSend, |e| {
                e.with_peer(m.from).with_event(m.aux)
            });
            ep.send(m.from, grant, 0, tl.now(), "lock grant")?;
        } else {
            st.queue.push_back(m);
        }
        Ok(())
    }

    fn handle_lock_release<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        tl.charge(self.cost.lock_service);
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
            st.held_by = Some(next.from);
            self.stats.lock_acquires += 1;
            let grant = Pmsg::new(MsgKind::LockGrant, self.me, next.event).with_aux(next.aux);
            self.trace.emit(tl.now(), TraceKind::LockGrantSend, |e| {
                e.with_peer(next.from).with_event(next.aux)
            });
            ep.send(next.from, grant, 0, tl.now(), "lock grant")?;
        }
        Ok(())
    }

    fn handle_push<C: ProtoClock, T: Transport>(
        &mut self,
        mut m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        let Some(id) = self.translate(&mut m, tl, ep)? else {
            return Ok(());
        };
        if !self.open_window(id, &m, tl.now(), 2) {
            return Ok(()); // Queued behind an in-flight transfer.
        }
        {
            let hosts = self.hosts;
            let e = self.dir.entry(id.index());
            if e.owner == Some(m.from) {
                // Publish read copies everywhere (§4.3, the TSP bound).
                e.owner = None;
                e.copyset = all_hosts_mask(hosts);
                self.stats.pushes += 1;
                for h in 0..hosts {
                    let h = HostId(h as u16);
                    if h == m.from {
                        continue;
                    }
                    let mut push = m.clone();
                    push.kind = MsgKind::PushData;
                    let payload = push.payload_bytes();
                    ep.send(h, push, payload, tl.now(), "push data")?;
                }
            } else {
                // Ownership moved since the push was issued: stale, drop.
                self.stats.stale_pushes += 1;
            }
        }
        // Pushes hold no service window (no ack follows).
        if let Some(next) = self.close_window(id, tl.now()) {
            self.dispatch_queued(next, tl, ep)?;
        }
        Ok(())
    }
}

impl ManagerShard {
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
    fn handle_rc_diff<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        if self.consistency != Consistency::HomeEagerRc {
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
            return self.forward_stale(id, m, home, tl, ep);
        }
        let acked = m.event != 0;
        if acked && !self.open_window(m.minipage, &m, tl.now(), 3) {
            return Ok(()); // A concurrent flush of this minipage is mid-window.
        }
        let diff = Diff::decode(&m.data).ok_or(ProtocolError::Malformed {
            host: self.me,
            what: "undecodable release diff",
        })?;
        let (mp, diff_bytes, diff_event) = (m.minipage.0, m.data.len(), m.event);
        self.trace.emit(tl.now(), TraceKind::RcDiffApply, |e| {
            e.with_mp(mp)
                .with_bytes(diff_bytes)
                .with_event(diff_event)
                .with_peer(m.from)
        });
        // Patch run by run: only changed bytes are written, so a racing
        // local write to *other* bytes of the page is never clobbered.
        self.diag.writer(mp, m.from.0);
        self.diag.diff_bytes(mp, diff_bytes as u64);
        for (off, bytes) in diff.iter_runs() {
            self.diag
                .write_extent(mp, m.from.0, off as u64, bytes.len() as u64);
            self.cluster
                .priv_write(self.me, m.priv_base.add(off), bytes)
                .map_err(|_| ProtocolError::BadTranslation {
                    host: self.me,
                    addr: m.priv_base.add(off).0 as usize,
                    what: "diff patch target",
                })?;
        }
        tl.charge((self.cost.patch_per_byte_ns * m.len as f64) as sim_core::Ns);
        self.stats.rc_diffs += 1;
        let me = self.me;
        let id = m.minipage;
        let e = self.dir.entry(id.index());
        let targets: Vec<HostId> = e.holders().filter(|&h| h != me).collect();
        self.stats.invalidations_sent += targets.len() as u64;
        self.diag.inv_sent(id.0, targets.len() as u64);
        for t in &targets {
            let mut inv = m.clone();
            inv.kind = MsgKind::InvalidateRequest;
            inv.data = bytes::Bytes::new();
            let t = *t;
            self.trace.emit(tl.now(), TraceKind::InvSend, |e| {
                e.with_mp(id.0).with_peer(t).with_event(inv.event)
            });
            ep.send(t, inv, 0, tl.now(), "rc invalidate fan-out")?;
        }
        e.copyset = 1u64 << me.index();
        e.owner = None;
        if acked {
            if targets.is_empty() {
                let ack = Pmsg::new(MsgKind::RcDiffAck, me, m.event).with_addr(m.addr);
                self.trace.emit(tl.now(), TraceKind::RcDiffAckSend, |e| {
                    e.with_mp(id.0).with_peer(m.from).with_event(m.event)
                });
                ep.send(m.from, ack, 0, tl.now(), "rc diff ack")?;
                if let Some(next) = self.close_window(id, tl.now()) {
                    self.dispatch_queued(next, tl, ep)?;
                }
            } else {
                // Ack once the last invalidation is confirmed.
                e.inv_pending = targets.len() as u32;
                e.inv_sent_vt = tl.now();
                e.pending_write = Some(m);
            }
        }
        Ok(())
    }
}

impl ManagerShard {
    /// The barrier-quiesce adaptation hook. Plans from a fresh
    /// diagnostics snapshot; applies locally homed actions directly and
    /// ships remotely homed ones as [`MsgKind::AdaptApply`]. Returns the
    /// number of remote applications whose acks the caller must await
    /// before releasing the barrier.
    fn run_adaptation<C: ProtoClock, T: Transport>(
        &mut self,
        tl: &mut C,
        ep: &T,
    ) -> Result<usize, ProtocolError> {
        let barrier = self.adapt.note_barrier();
        if !self.adapt.should_act(barrier) {
            return Ok(0);
        }
        let Some(table) = self.diag.table().cloned() else {
            return Ok(0); // No diagnostics, nothing to plan from.
        };
        let geo = self.home.geometry().clone();
        let active = self.home.mpt().snapshot_active();
        let report = crate::diag::build_report(&table, &active, &geo, &self.home, Vec::new());
        let actions = self.adapt.plan(&report, &active, geo.page_size());
        let mut outstanding = 0usize;
        for a in actions {
            let target = self.home.home(a.target());
            if target == self.me {
                self.apply_action(&a, barrier, tl)?;
            } else {
                let mut msg = Pmsg::new(MsgKind::AdaptApply, self.me, self.adapt.next_event());
                msg.minipage = a.target();
                msg.aux = barrier;
                msg.data = bytes::Bytes::from(a.encode());
                let payload = msg.payload_bytes();
                ep.send(target, msg, payload, tl.now(), "adapt apply")?;
                outstanding += 1;
            }
        }
        Ok(outstanding)
    }

    /// A remotely planned action arriving at the shard homing its target.
    /// Any apply failure defers the action (`aux = 0` in the ack) rather
    /// than stranding the sender's parked barrier.
    fn handle_adapt_apply<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        let action = AdaptAction::decode(&m.data).ok_or(ProtocolError::Malformed {
            host: self.me,
            what: "undecodable adaptation action",
        })?;
        let applied = self.apply_action(&action, m.aux, tl).unwrap_or(false);
        let ack = Pmsg::new(MsgKind::AdaptAck, self.me, m.event).with_aux(u64::from(applied));
        ep.send(m.from, ack, 0, tl.now(), "adapt ack")?;
        Ok(())
    }

    /// One remote application finished; the last ack releases the parked
    /// barrier.
    fn handle_adapt_ack<C: ProtoClock, T: Transport>(
        &mut self,
        m: Pmsg,
        tl: &mut C,
        ep: &T,
    ) -> Result<(), ProtocolError> {
        if m.aux == 0 {
            self.adapt.record_deferred();
        }
        let Some((waiters, left)) = self.adapt_pending.take() else {
            return Err(ProtocolError::BadState {
                host: self.me,
                what: "adapt ack with no parked barrier",
            });
        };
        if left > 1 {
            self.adapt_pending = Some((waiters, left - 1));
            Ok(())
        } else {
            self.release_barrier(waiters, tl, ep)
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
        let data = self
            .cluster
            .priv_read(src, pb, mp.len)
            .map_err(|_| crate::backend::bad_priv(self.me, pb, "adaptation master read"))?;
        self.cluster
            .priv_write(self.me, pb, &data)
            .map_err(|_| crate::backend::bad_priv(self.me, pb, "adaptation master write"))?;
        Ok(())
    }

    /// Revokes every host's application-view access to `mp`.
    fn revoke_everywhere(&self, mp: &Minipage) -> Result<(), ProtocolError> {
        let geo = self.home.geometry();
        for h in 0..self.hosts {
            for vp in mp.vpages(geo) {
                self.cluster
                    .set_prot(HostId(h as u16), vp, Prot::NoAccess)
                    .map_err(|_| crate::backend::bad_vpage(HostId(h as u16), vp))?;
            }
        }
        Ok(())
    }

    /// Applies one action at the shard homing its target. Returns `false`
    /// (and records a deferral) when the action cannot apply safely:
    /// busy directory state, a retired target, exhausted views, or a
    /// consistency/backend gate. The caller treats errors like deferrals
    /// where a hang would otherwise result.
    fn apply_action<C: ProtoClock>(
        &mut self,
        a: &AdaptAction,
        barrier: u64,
        tl: &mut C,
    ) -> Result<bool, ProtocolError> {
        tl.charge(self.cost.mpt_lookup);
        let geo = self.home.geometry().clone();
        let ps = geo.page_size();
        match a {
            AdaptAction::Split { mp, cuts } => {
                // Splitting rewrites protections per new vpage; only the
                // SW/MR protocol's directory state survives that rewrite
                // as "one writable copy at home".
                if self.consistency != Consistency::SequentialSwMr
                    || self.home.mpt().is_retired(*mp)
                    || self.adapt_busy(*mp)
                {
                    self.adapt.record_deferred();
                    return Ok(false);
                }
                let parent = self.home.mpt().get(*mp);
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
                let next = self.home.mpt().next_id().0;
                let mut children = Vec::new();
                let mut used_views = Vec::new();
                for (k, w) in bounds.windows(2).enumerate() {
                    let start = phys.start + w[0];
                    let len = w[1] - w[0];
                    let (first_page, offset) = (start / ps, start % ps);
                    let pages = (offset + len).div_ceil(ps);
                    let view = self
                        .home
                        .mpt()
                        .free_view_for(&geo, first_page, pages, &used_views);
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
                self.pull_master_copy(&parent)?;
                self.revoke_everywhere(&parent)?;
                let n = children.len() as u32;
                let first_child = children[0].id.0;
                self.home
                    .mpt()
                    .retire_and_insert(&geo, &[parent.id], children.clone());
                for child in &children {
                    self.home.publish_at(*child, self.me);
                    for vp in child.vpages(&geo) {
                        self.cluster
                            .set_prot(self.me, vp, Prot::ReadWrite)
                            .map_err(|_| crate::backend::bad_vpage(self.me, vp))?;
                    }
                    self.diag.reset_slot(child.id.0);
                }
                self.dir.forget(parent.id.index());
                self.diag.reset_slot(parent.id.0);
                self.trace.emit(tl.now(), TraceKind::AdaptSplit, |e| {
                    e.with_mp(parent.id.0)
                        .with_aux(n)
                        .with_event(first_child as u64)
                });
                self.adapt.record_split(barrier, parent.id.0, cuts);
                Ok(true)
            }
            AdaptAction::Merge { group } => {
                if self.consistency != Consistency::SequentialSwMr
                    || group.len() < 2
                    || group.iter().any(|&id| self.home.mpt().is_retired(id))
                    || group.iter().any(|&id| self.adapt_busy(id))
                {
                    self.adapt.record_deferred();
                    return Ok(false);
                }
                let mut members: Vec<Minipage> =
                    group.iter().map(|&id| self.home.mpt().get(id)).collect();
                members.sort_by_key(|m| m.phys_range(ps).start);
                let contiguous = members
                    .windows(2)
                    .all(|w| w[0].phys_range(ps).end == w[1].phys_range(ps).start);
                let start = members[0].phys_range(ps).start;
                let len: usize = members.iter().map(|m| m.len).sum();
                let (first_page, offset) = (start / ps, start % ps);
                let pages = (offset + len).div_ceil(ps);
                let view = self
                    .home
                    .mpt()
                    .free_view_for(&geo, first_page, pages, &[])
                    .filter(|_| contiguous && first_page + pages <= geo.pages());
                let Some(view) = view else {
                    self.adapt.record_deferred();
                    return Ok(false);
                };
                for m in &members {
                    self.pull_master_copy(m)?;
                }
                for m in &members {
                    self.revoke_everywhere(m)?;
                }
                let merged = Minipage {
                    id: self.home.mpt().next_id(),
                    base: geo.addr_of(view, first_page, offset),
                    len,
                    view,
                    first_page,
                    offset,
                };
                let old: Vec<MinipageId> = members.iter().map(|m| m.id).collect();
                self.home.mpt().retire_and_insert(&geo, &old, vec![merged]);
                self.home.publish_at(merged, self.me);
                for vp in merged.vpages(&geo) {
                    self.cluster
                        .set_prot(self.me, vp, Prot::ReadWrite)
                        .map_err(|_| crate::backend::bad_vpage(self.me, vp))?;
                }
                for id in &old {
                    self.dir.forget(id.index());
                    self.diag.reset_slot(id.0);
                }
                self.diag.reset_slot(merged.id.0);
                // Anti-oscillation: never split the merge result again.
                self.adapt.forbid_split(merged.id.0);
                self.trace.emit(tl.now(), TraceKind::AdaptMerge, |e| {
                    e.with_mp(old[0].0)
                        .with_aux(old.len() as u32)
                        .with_event(merged.id.0 as u64)
                });
                self.adapt.record_merge(barrier, &old, merged.id.0);
                Ok(true)
            }
            AdaptAction::Migrate { mp, to } => {
                if *to == self.me
                    || to.index() >= self.hosts
                    || self.home.mpt().is_retired(*mp)
                    || self.adapt_busy(*mp)
                {
                    self.adapt.record_deferred();
                    return Ok(false);
                }
                let desc = self.home.mpt().get(*mp);
                self.pull_master_copy(&desc)?;
                let pb = desc.priv_base(&geo);
                let data = self
                    .cluster
                    .priv_read(self.me, pb, desc.len)
                    .map_err(|_| crate::backend::bad_priv(self.me, pb, "migration read"))?;
                self.revoke_everywhere(&desc)?;
                self.cluster
                    .priv_write(*to, pb, &data)
                    .map_err(|_| crate::backend::bad_priv(*to, pb, "migration write"))?;
                // The new home starts exactly like a fresh allocation:
                // writable under SW/MR, read-only (twin-on-write) under
                // HLRC.
                let writable = self.consistency == Consistency::SequentialSwMr;
                let prot = if writable {
                    Prot::ReadWrite
                } else {
                    Prot::ReadOnly
                };
                for vp in desc.vpages(&geo) {
                    self.cluster
                        .set_prot(*to, vp, prot)
                        .map_err(|_| crate::backend::bad_vpage(*to, vp))?;
                }
                if !writable {
                    self.cluster.learn_rc(
                        *to,
                        desc.vpages(&geo),
                        MpInfo {
                            id: desc.id,
                            base: desc.base,
                            len: desc.len,
                            priv_base: pb,
                        },
                    );
                }
                self.dir.forget(mp.index());
                self.home.migrate(*mp, *to);
                self.diag.reset_slot(mp.0);
                let peer = *to;
                self.trace.emit(tl.now(), TraceKind::AdaptMigrate, |e| {
                    e.with_mp(mp.0)
                        .with_peer(peer)
                        .with_aux(u32::from(writable))
                });
                self.adapt.record_migrate(barrier, mp.0, to.0);
                Ok(true)
            }
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

    #[test]
    fn all_hosts_mask_covers_exactly_n_hosts() {
        assert_eq!(all_hosts_mask(1), 0b1);
        assert_eq!(all_hosts_mask(8), 0xFF);
        assert_eq!(all_hosts_mask(64), u64::MAX);
    }
}
