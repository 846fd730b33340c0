//! The per-host DSM server (§3.5.1).
//!
//! Each host runs one server standing in for the paper's poller +
//! sweeper + timer trio: it receives protocol messages, models the polling
//! delay through its wire's [`ServerTimeline`](sim_net::ServerTimeline),
//! serves data requests through the privileged view, installs replies
//! (zero-copy receive straight into the privileged view), and wakes
//! blocked application threads. Every server
//! also carries its host's [`ManagerShard`]: requests for minipages homed
//! here are handled in place, and protocol replies are routed to the
//! responsible home shard through the cluster's
//! [`HomeTable`](crate::HomeTable).
//!
//! Handlers return `Result<(), ProtocolError>` rather than asserting the
//! wire is reliable: a failed handler is recorded on the run report, the
//! blocked requester is nacked (or its local waiter failed), and the
//! server keeps serving — a lossy link degrades one request, not the
//! whole host.
//!
//! [`Server`] is one type on both backends: [`Server::dispatch`] and every
//! handler behind it are generic over the backend traits, and the wire
//! `T` keeps the handler clock. The simulator's server adds a per-packet
//! body, [`Server::serve`], behind a scheduler turn; the host backend's
//! (`hostrun`) only puts a pop off its inbox in front of `dispatch`.

use crate::backend::{
    bad_priv, bad_vpage, protect_range, read_priv, vpage_range, write_priv, LocalWake,
    MemoryBackend, SimWire, Transport,
};
use crate::error::ProtocolError;
use crate::hlrc::{Consistency, MpInfo};
use crate::home::HomePolicyKind;
use crate::host::{HostState, Waiter, Waiters};
use crate::manager::ManagerShard;
use crate::msg::{Completion, MsgKind, Pmsg};
use crate::probe::{Fact, Probe};
use sim_core::clock::Ns;
use sim_core::sched::Turn;
use sim_core::trace::TraceKind;
use sim_core::{HostId, LogHistogram, VAddr};
use sim_mem::{AddressSpace, Prot};
use sim_net::Packet;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// What a server hands back when it has stopped.
pub(crate) struct ServerOutcome {
    /// This host's manager shard (directory slice, counters).
    pub shard: ManagerShard,
    /// Arrival→service-start delays of every packet this server handled.
    pub queue_delay: LogHistogram,
    /// Protocol errors this server degraded through (empty on a clean
    /// wire), in occurrence order.
    pub errors: Vec<String>,
}

/// Whether a server goes on receiving after a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Served {
    /// Keep receiving.
    Continue,
    /// The packet was the cluster's `Shutdown`: the server is done.
    Stop,
}

/// One host's DSM server, over the host's memory `M`, wake-up `W` and
/// wire `T` (whose clock every charge and stamp goes to). The defaults are
/// the simulator's, where it is not tied to a thread: it is a passive
/// scheduler slot whose [`Server::turn`] runs on whichever simulated thread
/// holds the schedule (§3.5: handlers are upcalls of the thread that finds
/// the message, and run to completion).
pub(crate) struct Server<M = AddressSpace, W = Waiters, T = SimWire> {
    pub(crate) state: Rc<HostState<M, W>>,
    pub(crate) shard: ManagerShard<M, W>,
    pub(crate) wire: T,
    probe: Probe,
    /// Protocol errors this server degraded through, in occurrence order.
    pub(crate) errors: Vec<String>,
}

impl Server {
    /// One scheduling step of the server as a passive scheduler slot: at
    /// most one handler dispatch (the dispatch boundary is the server's
    /// yield point — handlers themselves run atomically, as in the real
    /// system), or parked on an empty inbox.
    pub(crate) fn turn(&mut self) -> Turn {
        match self.wire.ep.recv() {
            Some(pkt) => match self.serve(pkt) {
                // The handler may have fulfilled or failed a waiter —
                // always one of this host's, which is exactly what `Ran`
                // wakes: this host's blocked application threads re-check
                // their rendezvous.
                Served::Continue => Turn::Ran {
                    vt: self.wire.timeline.now(),
                },
                Served::Stop => Turn::Done,
            },
            None => Turn::Idle {
                vt: self.wire.timeline.now(),
            },
        }
    }

    /// Serves one packet: the whole per-packet body of the simulator's
    /// server, however the packet was received.
    pub(crate) fn serve(&mut self, pkt: Packet<Pmsg>) -> Served {
        if matches!(pkt.msg.kind, MsgKind::Shutdown) {
            // Under an active fault plane the reliable channel can
            // resequence a window-closing `Ack` *behind* the controller's
            // `Shutdown` (they travel on different links). Drain the inbox
            // so those stragglers still close their directory windows.
            if self.wire.ep.network().fault_active() {
                while let Some(late) = self.wire.ep.recv() {
                    if !matches!(late.msg.kind, MsgKind::Shutdown) {
                        self.serve(late);
                    }
                }
            }
            return Served::Stop;
        }
        // Under the conservative delivery gate a packet only becomes
        // visible at its release stamp (the link-FIFO cumulative maximum
        // of arrivals); service must not start before it. `release_vt` is
        // 0 whenever the gate is inactive, so this is the plain arrival
        // stamp under the exploration policies.
        let seen_vt = pkt.arrival_vt.max(pkt.release_vt);
        // §3.5.1: if the application threads were computing at the
        // message's (virtual) arrival, only the (jittery) sweeper sees
        // it. Hosts parked in barriers/locks/faults record no busy burst
        // and read as idle; self-addressed messages (a shard forwarding
        // to its own server) find the server already running.
        let busy = pkt.from != self.state.host && self.state.busy.busy_at(seen_vt);
        self.probe.trace(pkt.arrival_vt, TraceKind::MsgRecv, |e| {
            e.with_peer(pkt.from)
                .with_event(pkt.msg.event)
                .with_mp(pkt.msg.minipage.0)
                .with_bytes(pkt.payload_bytes)
                .with_aux(pkt.wire_seq as u32)
        });
        let timeline = &mut self.wire.timeline;
        let clamps_before = timeline.clamp_events();
        timeline.begin_service(seen_vt, busy);
        // A clamp means the virtual-time model produced a negative queue
        // delay (arrival after service start); it is silently floored to
        // zero but no longer silently *uncounted*.
        if timeline.clamp_events() > clamps_before {
            self.probe
                .trace(pkt.arrival_vt, TraceKind::DelayClamped, |e| {
                    e.with_peer(pkt.from).with_event(pkt.msg.event)
                });
        }
        self.dispatch(pkt.msg, pkt.from);
        Served::Continue
    }

    /// Stops the server for good and hands back what the report needs.
    /// The endpoint dies here, so callers collect every server of a run
    /// before finishing any: late messages from still-draining peers must
    /// never hit a closed channel.
    pub(crate) fn finish(mut self) -> ServerOutcome {
        let clamped = &self.wire.ep.network().stats().clamped_delays;
        clamped.set(clamped.get() + self.wire.timeline.clamp_events());
        ServerOutcome {
            shard: self.shard,
            queue_delay: self.wire.timeline.take_queue_delay(),
            errors: self.errors,
        }
    }
}

impl<M: MemoryBackend, W: LocalWake, T: Transport> Server<M, W, T> {
    /// The server of `state`'s host: its shard, its wire and its probe.
    pub(crate) fn new(
        state: Rc<HostState<M, W>>,
        shard: ManagerShard<M, W>,
        wire: T,
        probe: Probe,
    ) -> Self {
        Self {
            state,
            shard,
            wire,
            probe,
            errors: Vec::new(),
        }
    }

    /// Serves one received message on either backend: routes it to its
    /// handler and, when the handler fails, records the error and tells
    /// whoever is blocked on the outcome. This is the whole per-message
    /// engine — the sim's [`Server::serve`] and the host backend's receive
    /// loop differ only in how they obtain `m`.
    pub(crate) fn dispatch(&mut self, m: Pmsg, wire_from: HostId) {
        use MsgKind::*;
        let (kind, from, event, addr) = (m.kind, m.from, m.event, m.addr);
        let served = match kind {
            ReadRequest | WriteRequest | InvalidateReply | Ack | AllocRequest | BarrierEnter
            | LockAcquire | LockRelease | PushRequest | RcDiff | AdaptApply | AdaptAck => {
                self.shard.handle(m, &mut self.wire)
            }
            ServeRead => self.serve_read(m),
            ServeWrite => self.serve_write(m),
            InvalidateRequest => self.handle_invalidate(m),
            ReadReply | WriteReply => self.handle_data_reply(m, wire_from),
            AllocReply | BarrierRelease | LockGrant | RcDiffAck => self.fulfill_simple(m),
            PushData => self.install_push(&m),
            Nack => self.handle_nack(m),
            Shutdown => unreachable!("handled by the loop"),
        };
        if let Err(e) = served {
            self.errors.push(e.to_string());
            if matches!(e, ProtocolError::Timeout { .. }) {
                let now = self.wire.now();
                self.probe
                    .trace(now, TraceKind::TimeoutFired, |ev| ev.with_event(event));
            }
            self.surface_error(kind, from, event, addr, e);
        }
    }

    /// Routes a failed handler's error to whoever is blocked on the message:
    /// a request kind earns the (remote) requester a `Nack`, a reply kind
    /// fails the local waiter directly. Fire-and-forget kinds have nobody to
    /// tell — the recorded error is their only trace.
    fn surface_error(
        &mut self,
        kind: MsgKind,
        from: HostId,
        event: u64,
        addr: VAddr,
        e: ProtocolError,
    ) {
        use MsgKind::*;
        let nack = Pmsg::new(Nack, self.state.host, event).with_addr(addr);
        match kind {
            ReadRequest | WriteRequest | ServeRead | ServeWrite | AllocRequest | BarrierEnter
            | LockAcquire | RcDiff
                if event != 0 =>
            {
                // Best-effort: if the nack itself exhausts its retransmit
                // budget the simulator ends the requester's wait with the
                // scheduler's deadlock verdict.
                let _ = self.wire.send(from, nack, 0, "nack");
            }
            ReadReply | WriteReply | AllocReply | BarrierRelease | LockGrant | RcDiffAck => {
                // Nobody blocked on it (a prefetch reply): nobody to fail.
                let _ = self.state.wake(&nack, "failed reply", Err(e));
            }
            _ => {}
        }
    }

    /// A peer could not serve our request: fail the blocked thread with a
    /// typed error instead of letting it wait for a reply that never comes.
    fn handle_nack(&mut self, m: Pmsg) -> Result<(), ProtocolError> {
        let state = &*self.state;
        self.wire.charge(state.cost.event_signal);
        let nacked = ProtocolError::Nacked {
            host: state.host,
            event: m.event,
        };
        let woken = state.wake(&m, "Nack", Err(nacked.clone()));
        if woken.is_ok() {
            return woken;
        }
        // A nacked prefetch registers no event waiter; resolve (and unlink)
        // the vpage waiters so a later fault retries the normal path rather
        // than parking on a request that already failed.
        if let Some(vp) = state.space.geometry().vpage_of(m.addr) {
            let mut pf = state.prefetch_waiters.borrow_mut();
            if let Some(w) = pf.remove(&vp) {
                pf.retain(|_, x| !Arc::ptr_eq(x, &w));
                w.fail(nacked);
                return Ok(());
            }
        }
        woken
    }

    /// Figure 3 "Handle Read Request": downgrade a writable copy to read-only
    /// and send the minipage straight out of the privileged view.
    fn serve_read(&mut self, m: Pmsg) -> Result<(), ProtocolError> {
        let (mem, host, cost) = (&self.state.space, self.state.host, &self.state.cost);
        let wire = &mut self.wire;
        wire.charge(cost.dsm_overhead);
        wire.charge(cost.get_protection);
        let downgraded = crate::backend::downgrade_range(mem, host, m.base, m.len)?;
        wire.charge(downgraded as Ns * cost.set_protection);
        if downgraded > 0 {
            self.probe.trace(wire.now(), TraceKind::Downgrade, |e| {
                e.with_mp(m.minipage.0)
            });
        }
        self.probe.trace(wire.now(), TraceKind::Serve, |e| {
            e.with_mp(m.minipage.0).with_peer(m.from).with_aux(0)
        });
        let data = read_priv(mem, host, m.priv_base, m.len, "serve-read source")?;
        let mut reply = m;
        reply.kind = MsgKind::ReadReply;
        reply.data = data;
        let to = reply.from;
        let payload = reply.payload_bytes();
        wire.send(to, reply, payload, "read reply")?;
        Ok(())
    }

    /// Figure 3 "Handle Write Request": invalidate the local copy, then send
    /// the minipage to the writer.
    fn serve_write(&mut self, m: Pmsg) -> Result<(), ProtocolError> {
        let (mem, host, cost) = (&self.state.space, self.state.host, &self.state.cost);
        let wire = &mut self.wire;
        wire.charge(cost.dsm_overhead);
        // NoAccess first: once the bytes leave, local threads must fault.
        let n = protect_range(mem, host, m.base, m.len, Prot::NoAccess)?;
        wire.charge(n as Ns * cost.set_protection);
        self.probe
            .trace(wire.now(), TraceKind::InvalidateLocal, |e| {
                e.with_mp(m.minipage.0)
            });
        self.probe.trace(wire.now(), TraceKind::Serve, |e| {
            e.with_mp(m.minipage.0).with_peer(m.from).with_aux(1)
        });
        let data = read_priv(mem, host, m.priv_base, m.len, "serve-write source")?;
        let mut reply = m;
        reply.kind = MsgKind::WriteReply;
        reply.data = data;
        let to = reply.from;
        let payload = reply.payload_bytes();
        wire.send(to, reply, payload, "write reply")?;
        Ok(())
    }

    /// The install step of Figure 3 "Handle Read or Write Reply": install
    /// the minipage bytes through the privileged view, open the protection,
    /// and return the covered vpage range for the caller's wake-up
    /// bookkeeping.
    ///
    /// A self-addressed reply (this host served its own request — it homes
    /// the minipage) carries bytes read from the very page it would install
    /// them into. Writing them back is not just redundant: the snapshot was
    /// taken at serve time, and a diff applied to the home page between the
    /// serve and this install (another host's release flush) would be
    /// silently reverted by the stale write-back, losing that host's
    /// release for good. The protection change is still required.
    /// The `stale-reinstall` mutant (`mutants`) brings the fixed bug back
    /// so the schedule-exploration harness can prove it would catch it.
    fn install_reply(
        &mut self,
        m: &Pmsg,
        wire_from: HostId,
    ) -> Result<Range<usize>, ProtocolError> {
        let (mem, host, cost) = (&self.state.space, self.state.host, &self.state.cost);
        let wire = &mut self.wire;
        wire.charge(cost.dsm_overhead);
        if wire_from != host || mutant!(StaleReinstall) {
            write_priv(mem, host, m.priv_base, &m.data, "reply install")?;
        }
        // aux 1 = read-only copy installed, aux 2 = writable copy installed.
        let aux = if m.kind == MsgKind::ReadReply { 1 } else { 2 };
        self.probe.trace(wire.now(), TraceKind::Install, |e| {
            e.with_mp(m.minipage.0).with_event(m.event).with_aux(aux)
        });
        let prot = if m.kind == MsgKind::ReadReply {
            Prot::ReadOnly
        } else {
            Prot::ReadWrite
        };
        let range = vpage_range(mem, host, m.base, m.len)?;
        for vp in range.clone() {
            mem.set_prot(vp, prot).map_err(|_| bad_vpage(host, vp))?;
        }
        wire.charge(range.len() as Ns * cost.set_protection);
        wire.charge(cost.event_signal);
        Ok(range)
    }

    /// Installs a pushed read copy (§4.3): write the pushed bytes and grant
    /// read access.
    fn install_push(&mut self, m: &Pmsg) -> Result<(), ProtocolError> {
        let (mem, host) = (&self.state.space, self.state.host);
        write_priv(mem, host, m.priv_base, &m.data, "push install")?;
        self.probe.trace(self.wire.now(), TraceKind::Install, |e| {
            e.with_mp(m.minipage.0).with_aux(1)
        });
        let n = protect_range(mem, host, m.base, m.len, Prot::ReadOnly)?;
        self.wire.charge(n as Ns * self.state.cost.set_protection);
        Ok(())
    }

    /// Figure 3 "Handle Invalidate Request".
    ///
    /// Under release consistency there is a twist: if the invalidated
    /// minipage is locally dirty (twinned, mid-phase), its writes-so-far are
    /// diffed out and shipped to the minipage's home *before* the copy dies,
    /// so no update is lost. Under the centralized policy no reply is sent
    /// (HLRC invalidations ride FIFO ordering to the single manager); with
    /// distributed homes the home shard counts replies before acknowledging
    /// the flusher, so one is sent either way.
    fn handle_invalidate(&mut self, m: Pmsg) -> Result<(), ProtocolError> {
        let state = &*self.state;
        let (cost, home, wire) = (&state.cost, &state.home, &mut self.wire);
        let hlrc = state.consistency == Consistency::HomeEagerRc;
        // A received invalidation, apart from the copy drops of a write serve
        // and of a release flush: its trace record carries aux 1.
        let (mp, event) = (m.minipage.0, m.event);
        self.probe.on(wire.now(), Fact::InvRecv { mp, event });
        // Under HLRC a dirty copy leaves the dirty set and its eviction diff
        // goes on the wire in this one handler, which runs to completion: the
        // owner's release flush either shipped the copy already or finds it
        // gone, and so never enqueues its barrier-enter *ahead* of the
        // eviction diff on the host→home FIFO.
        let dirty = hlrc.then(|| state.rc.borrow_mut().dirty.remove(&mp));
        if let Some(d) = dirty.flatten() {
            let diff = state
                .space
                .diff_and_protect(d.info.base, &d.twin, Prot::NoAccess)
                .map_err(|_| bad_priv(state.host, m.priv_base, "eviction snapshot"))?;
            state.rc.borrow_mut().recycle(d.twin);
            wire.charge(cost.diff_time(d.info.len));
            wire.charge(cost.set_protection);
            if !diff.is_empty() {
                let mut out = Pmsg::new(MsgKind::RcDiff, state.host, 0).with_addr(d.info.base);
                out.minipage = d.info.id;
                out.base = d.info.base;
                out.len = d.info.len;
                out.priv_base = d.info.priv_base;
                out.data = diff.encode().into();
                let payload = out.payload_bytes();
                // Eviction diff: event 0, fire-and-forget (aux 0 marks it as
                // not awaiting an RcDiffAck).
                self.probe.trace(wire.now(), TraceKind::RcDiffSend, |e| {
                    e.with_mp(d.info.id.0).with_bytes(payload).with_aux(0)
                });
                let to = home.home(d.info.id);
                wire.send(to, out, payload, "eviction diff")?;
            }
        } else {
            let n = protect_range(&state.space, state.host, m.base, m.len, Prot::NoAccess)?;
            wire.charge(n as Ns * cost.set_protection);
        }
        if !hlrc || home.kind() != HomePolicyKind::Centralized {
            // The reply goes to the shard homing the minipage — the one that
            // sent the invalidation. Under HLRC with distributed homes it is
            // counting confirmations before it releases the flusher; FIFO on
            // this channel puts the confirmation behind any eviction diff
            // sent above.
            let mut reply = Pmsg::new(MsgKind::InvalidateReply, state.host, m.event);
            reply.minipage = m.minipage;
            reply.addr = m.addr;
            wire.send(home.home(m.minipage), reply, 0, "invalidate reply")?;
        }
        Ok(())
    }

    /// Figure 3 "Handle Read or Write Reply": receive the minipage contents
    /// directly into the privileged view (no buffer copy), open the
    /// protection, and wake the faulting thread.
    fn handle_data_reply(&mut self, m: Pmsg, wire_from: HostId) -> Result<(), ProtocolError> {
        let range = self.install_reply(&m, wire_from)?;
        let state = &*self.state;
        // Cache the manager's translation: the host-side minipage boundary
        // knowledge that the release-consistency write path relies on.
        state.learn_rc(
            range.clone(),
            MpInfo {
                id: m.minipage,
                base: m.base,
                len: m.len,
                priv_base: m.priv_base,
            },
        );
        if m.prefetch {
            // Nobody blocks on a prefetch; wake opportunistic sleepers and
            // close the service window ourselves.
            let mut sleepers: Vec<Arc<Waiter>> = Vec::new();
            {
                let mut pf = state.prefetch_waiters.borrow_mut();
                for vp in range {
                    if let Some(w) = pf.remove(&vp) {
                        if !sleepers.iter().any(|s| Arc::ptr_eq(s, &w)) {
                            sleepers.push(w);
                        }
                    }
                }
            }
            for w in sleepers {
                w.fulfill(Completion {
                    resume_vt: self.wire.now(),
                    addr: m.addr,
                });
            }
            let ack = Pmsg::new(MsgKind::Ack, state.host, 0).with_addr(m.addr);
            let home = state.home.home(m.minipage);
            self.wire.send(home, ack, 0, "prefetch ack")?;
            Ok(())
        } else {
            let what = if m.kind == MsgKind::ReadReply {
                "ReadReply"
            } else {
                "WriteReply"
            };
            state.wake(&m, what, Ok(self.wire.now()))
        }
    }

    /// Wakes the thread blocked on an allocation, barrier, lock, or
    /// diff-flush event.
    fn fulfill_simple(&mut self, m: Pmsg) -> Result<(), ProtocolError> {
        self.wire.charge(self.state.cost.event_signal);
        self.state.wake(&m, "completion", Ok(self.wire.now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, Stack};
    use crate::home::MANAGER;
    use sim_core::trace::{Tracer, Track};
    use sim_core::SplitMix64;
    use sim_mem::Geometry;
    use sim_net::{Network, ServerTimeline};

    /// Only the release-consistency write path reads a host's boundary
    /// cache, so only a release-consistency run fills it: an allocation
    /// teaches the home host, a data reply the requester. Under SW/MR
    /// neither learns anything.
    #[test]
    fn only_release_consistency_learns_minipage_boundaries() {
        for consistency in [Consistency::SequentialSwMr, Consistency::HomeEagerRc] {
            let cfg = ClusterConfig {
                hosts: 2,
                pages: 4,
                views: 2,
                consistency,
                ..ClusterConfig::default()
            };
            let geo = Geometry::new(cfg.pages, cfg.views);
            let space = |_| (AddressSpace::new(geo.clone()), Waiters::default());
            let (stack, mut shards, base) =
                Stack::new(&cfg, geo.clone(), space, |s| s.alloc_bytes(64));
            let mp = stack.home.translate(base).expect("allocated");
            // Host 1's read fault, served by the manager: the reply lands.
            let reader = &stack.states[1];
            let waiter = reader.register_waiter(1, Waiter::new());
            let mut reply = Pmsg::new(MsgKind::ReadReply, reader.host, 1).with_addr(base);
            (reply.minipage, reply.base, reply.len) = (mp.id, base, mp.len);
            reply.priv_base = mp.priv_base(&geo);
            reply.data = vec![0u8; mp.len].into();
            let (_net, mut endpoints) = Network::<Pmsg>::new(2, cfg.cost.clone());
            let timeline = ServerTimeline::new(cfg.cost.clone(), SplitMix64::new(1));
            let wire = SimWire {
                ep: endpoints.remove(1),
                timeline,
            };
            let probe = reader.probe(&Tracer::disabled(), Track::Server);
            let mut server = Server::new(Rc::clone(reader), shards.remove(1), wire, probe);
            server.dispatch(reply, MANAGER);
            assert_eq!(server.errors, Vec::<String>::new());
            assert!(matches!(waiter.try_result(), Some(Ok(_))));

            let learned = stack.states.iter().map(|s| s.rc.borrow().boundaries.len());
            let want = match consistency {
                Consistency::SequentialSwMr => 0,
                Consistency::HomeEagerRc => mp.vpages(&geo).len(),
            };
            assert_eq!(learned.collect::<Vec<_>>(), [want; 2], "{consistency:?}");
        }
    }
}
