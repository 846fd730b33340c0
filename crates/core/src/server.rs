//! The per-host DSM server (§3.5.1).
//!
//! Each host runs one server standing in for the paper's poller +
//! sweeper + timer trio: it receives protocol messages, models the polling
//! delay through [`ServerTimeline`], serves data requests through the
//! privileged view, installs replies (zero-copy receive straight into the
//! privileged view), and wakes blocked application threads. Every server
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
//! [`Server`] is the simulator's server — one per-packet body,
//! [`Server::serve`], behind a scheduler turn. Everything from [`dispatch`]
//! down is generic over the backend traits and is the host backend's
//! server too (`hostrun` only puts a pop off its inbox in front).

use crate::backend::{
    bad_priv, bad_vpage, protect_range, read_priv, vpage_range, write_priv, LocalWake,
    MemoryBackend, ProtoClock, Transport,
};
use crate::error::ProtocolError;
use crate::hlrc::{Consistency, MpInfo};
use crate::home::HomePolicyKind;
use crate::host::{HostState, Waiter};
use crate::manager::ManagerShard;
use crate::msg::{Completion, MsgKind, Pmsg};
use crate::probe::{Fact, Probe};
use bytes::Bytes;
use sim_core::clock::Ns;
use sim_core::sched::Turn;
use sim_core::trace::TraceKind;
use sim_core::{CostModel, HostId, LogHistogram, VAddr};
use sim_mem::Prot;
use sim_net::{Endpoint, Packet, ServerTimeline};
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

/// One host's DSM server: the state its per-packet body owns. It is not
/// tied to a thread: it is a passive scheduler slot whose [`Server::turn`]
/// runs on whichever simulated thread holds the schedule (§3.5: handlers
/// are upcalls of the thread that finds the message, and run to
/// completion).
pub(crate) struct Server {
    ep: Endpoint<Pmsg>,
    state: Arc<HostState>,
    timeline: ServerTimeline,
    shard: ManagerShard,
    probe: Probe,
    errors: Vec<String>,
}

impl Server {
    pub(crate) fn new(
        ep: Endpoint<Pmsg>,
        state: Arc<HostState>,
        timeline: ServerTimeline,
        shard: ManagerShard,
        probe: Probe,
    ) -> Self {
        Self {
            ep,
            state,
            timeline,
            shard,
            probe,
            errors: Vec::new(),
        }
    }

    /// One scheduling step of the server as a passive scheduler slot: at
    /// most one handler dispatch (the dispatch boundary is the server's
    /// yield point — handlers themselves run atomically, as in the real
    /// system), or parked on an empty inbox.
    pub(crate) fn turn(&mut self) -> Turn {
        match self.ep.recv() {
            Some(pkt) => match self.serve(pkt) {
                // The handler may have fulfilled or failed a waiter —
                // always one of this host's, which is exactly what `Ran`
                // wakes: this host's blocked application threads re-check
                // their rendezvous.
                Served::Continue => Turn::Ran {
                    vt: self.timeline.now(),
                },
                Served::Stop => Turn::Done,
            },
            None => Turn::Idle {
                vt: self.timeline.now(),
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
            if self.ep.network().fault_active() {
                while let Some(late) = self.ep.recv() {
                    if !matches!(late.msg.kind, MsgKind::Shutdown) {
                        self.serve(late);
                    }
                }
            }
            return Served::Stop;
        }
        let Self {
            ep,
            state,
            timeline,
            shard,
            probe,
            errors,
        } = self;
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
        let busy = pkt.from != ep.host() && state.busy.busy_at(seen_vt);
        probe.trace(pkt.arrival_vt, TraceKind::MsgRecv, |e| {
            e.with_peer(pkt.from)
                .with_event(pkt.msg.event)
                .with_mp(pkt.msg.minipage.0)
                .with_bytes(pkt.payload_bytes)
                .with_aux(pkt.wire_seq as u32)
        });
        let clamps_before = timeline.clamp_events();
        timeline.begin_service(seen_vt, busy);
        // A clamp means the virtual-time model produced a negative queue
        // delay (arrival after service start); it is silently floored to
        // zero but no longer silently *uncounted*.
        if timeline.clamp_events() > clamps_before {
            probe.trace(pkt.arrival_vt, TraceKind::DelayClamped, |e| {
                e.with_peer(pkt.from).with_event(pkt.msg.event)
            });
        }
        dispatch(pkt.msg, pkt.from, state, shard, timeline, ep, probe, errors);
        Served::Continue
    }

    /// Stops the server for good and hands back what the report needs.
    /// The endpoint dies here, so callers collect every server of a run
    /// before finishing any: late messages from still-draining peers must
    /// never hit a closed channel.
    pub(crate) fn finish(mut self) -> ServerOutcome {
        self.ep
            .network()
            .stats()
            .clamped_delays
            .add(self.timeline.clamp_events());
        ServerOutcome {
            shard: self.shard,
            queue_delay: self.timeline.take_queue_delay(),
            errors: self.errors,
        }
    }
}

/// Serves one received message on either substrate: routes it to its
/// handler and, when the handler fails, records the error and tells
/// whoever is blocked on the outcome. This is the whole per-message engine
/// — the sim's [`Server::serve`] and the host backend's receive loop differ
/// only in how they obtain `m`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch<M: MemoryBackend, W: LocalWake, C: ProtoClock, T: Transport>(
    m: Pmsg,
    wire_from: HostId,
    state: &HostState<M, W>,
    shard: &mut ManagerShard,
    tl: &mut C,
    ep: &T,
    probe: &mut Probe,
    errors: &mut Vec<String>,
) {
    use MsgKind::*;
    let (kind, from, event, addr) = (m.kind, m.from, m.event, m.addr);
    let (mem, host, cost) = (&state.space, state.host, &state.cost);
    let served = match kind {
        ReadRequest | WriteRequest | InvalidateReply | Ack | AllocRequest | BarrierEnter
        | LockAcquire | LockRelease | PushRequest | RcDiff | AdaptApply | AdaptAck => {
            shard.handle(m, tl, ep)
        }
        ServeRead => serve_read(m, mem, host, cost, tl, ep, probe),
        ServeWrite => serve_write(m, mem, host, cost, tl, ep, probe),
        InvalidateRequest => handle_invalidate(m, state, tl, ep, probe),
        ReadReply | WriteReply => handle_data_reply(m, wire_from, state, tl, ep, probe),
        AllocReply | BarrierRelease | LockGrant | RcDiffAck => fulfill_simple(m, state, tl),
        PushData => install_push(&m, &state.space, state.host, &state.cost, tl, probe),
        Nack => handle_nack(m, state, tl),
        Shutdown => unreachable!("handled by the loop"),
    };
    if let Err(e) = served {
        errors.push(e.to_string());
        if matches!(e, ProtocolError::Timeout { .. }) {
            probe.trace(tl.now(), TraceKind::TimeoutFired, |ev| ev.with_event(event));
        }
        surface_error(kind, from, event, addr, e, state, ep, tl);
    }
}

/// Routes a failed handler's error to whoever is blocked on the message:
/// a request kind earns the (remote) requester a `Nack`, a reply kind
/// fails the local waiter directly. Fire-and-forget kinds have nobody to
/// tell — the recorded error is their only trace.
#[allow(clippy::too_many_arguments)]
fn surface_error<M, W: LocalWake, C: ProtoClock, T: Transport>(
    kind: MsgKind,
    from: HostId,
    event: u64,
    addr: VAddr,
    e: ProtocolError,
    state: &HostState<M, W>,
    ep: &T,
    tl: &mut C,
) {
    use MsgKind::*;
    let nack = Pmsg::new(Nack, ep.me(), event).with_addr(addr);
    match kind {
        ReadRequest | WriteRequest | ServeRead | ServeWrite | AllocRequest | BarrierEnter
        | LockAcquire | RcDiff
            if event != 0 =>
        {
            // Best-effort: if the nack itself exhausts its retransmit
            // budget the simulator ends the requester's wait with the
            // scheduler's deadlock verdict.
            let _ = ep.send(from, nack, 0, tl.now(), "nack");
        }
        ReadReply | WriteReply | AllocReply | BarrierRelease | LockGrant | RcDiffAck => {
            // Nobody blocked on it (a prefetch reply): nobody to fail.
            let _ = state.wake(&nack, "failed reply", Err(e));
        }
        _ => {}
    }
}

/// A peer could not serve our request: fail the blocked thread with a
/// typed error instead of letting it wait for a reply that never comes.
fn handle_nack<M: MemoryBackend, W: LocalWake, C: ProtoClock>(
    m: Pmsg,
    state: &HostState<M, W>,
    tl: &mut C,
) -> Result<(), ProtocolError> {
    tl.charge(state.cost.event_signal);
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
        let mut pf = state.prefetch_waiters.lock();
        if let Some(w) = pf.remove(&vp) {
            pf.retain(|_, x| !Arc::ptr_eq(x, &w));
            w.fail(nacked);
            return Ok(());
        }
    }
    woken
}

/// Figure 3 "Handle Read Request": downgrade a writable copy to read-only
/// and send the minipage straight out of the privileged view. Generic over
/// the backend pair — both the simulator and the host runtime serve reads
/// through this function.
pub(crate) fn serve_read<M: MemoryBackend, C: ProtoClock, T: Transport>(
    m: Pmsg,
    mem: &M,
    host: HostId,
    cost: &CostModel,
    tl: &mut C,
    ep: &T,
    probe: &mut Probe,
) -> Result<(), ProtocolError> {
    tl.charge(cost.dsm_overhead);
    tl.charge(cost.get_protection);
    let downgraded = crate::backend::downgrade_range(mem, host, m.base, m.len)?;
    tl.charge(downgraded as Ns * cost.set_protection);
    if downgraded > 0 {
        probe.trace(tl.now(), TraceKind::Downgrade, |e| e.with_mp(m.minipage.0));
    }
    probe.trace(tl.now(), TraceKind::Serve, |e| {
        e.with_mp(m.minipage.0).with_peer(m.from).with_aux(0)
    });
    let data = read_priv(mem, host, m.priv_base, m.len, "serve-read source")?;
    let mut reply = m;
    reply.kind = MsgKind::ReadReply;
    reply.data = Bytes::from(data);
    let to = reply.from;
    let payload = reply.payload_bytes();
    ep.send(to, reply, payload, tl.now(), "read reply")?;
    Ok(())
}

/// Figure 3 "Handle Write Request": invalidate the local copy, then send
/// the minipage to the writer. Generic over the backend pair.
pub(crate) fn serve_write<M: MemoryBackend, C: ProtoClock, T: Transport>(
    m: Pmsg,
    mem: &M,
    host: HostId,
    cost: &CostModel,
    tl: &mut C,
    ep: &T,
    probe: &mut Probe,
) -> Result<(), ProtocolError> {
    tl.charge(cost.dsm_overhead);
    // NoAccess first: once the bytes leave, local threads must fault.
    let n = protect_range(mem, host, m.base, m.len, Prot::NoAccess)?;
    tl.charge(n as Ns * cost.set_protection);
    probe.trace(tl.now(), TraceKind::InvalidateLocal, |e| {
        e.with_mp(m.minipage.0)
    });
    probe.trace(tl.now(), TraceKind::Serve, |e| {
        e.with_mp(m.minipage.0).with_peer(m.from).with_aux(1)
    });
    let data = read_priv(mem, host, m.priv_base, m.len, "serve-write source")?;
    let mut reply = m;
    reply.kind = MsgKind::WriteReply;
    reply.data = Bytes::from(data);
    let to = reply.from;
    let payload = reply.payload_bytes();
    ep.send(to, reply, payload, tl.now(), "write reply")?;
    Ok(())
}

/// The backend-neutral core of Figure 3 "Handle Read or Write Reply":
/// install the minipage bytes through the privileged view (unless
/// `skip_write` — a self-addressed reply would stale-revert the page),
/// open the protection, and return the covered vpage range for the
/// caller's wake-up bookkeeping.
pub(crate) fn install_reply<M: MemoryBackend, C: ProtoClock>(
    m: &Pmsg,
    mem: &M,
    host: HostId,
    cost: &CostModel,
    tl: &mut C,
    probe: &mut Probe,
    skip_write: bool,
) -> Result<std::ops::Range<usize>, ProtocolError> {
    tl.charge(cost.dsm_overhead);
    if !skip_write {
        write_priv(mem, host, m.priv_base, &m.data, "reply install")?;
    }
    // aux 1 = read-only copy installed, aux 2 = writable copy installed.
    let aux = if m.kind == MsgKind::ReadReply { 1 } else { 2 };
    probe.trace(tl.now(), TraceKind::Install, |e| {
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
    tl.charge(range.len() as Ns * cost.set_protection);
    tl.charge(cost.event_signal);
    Ok(range)
}

/// Installs a pushed read copy (§4.3): write the pushed bytes and grant
/// read access.
fn install_push<M: MemoryBackend, C: ProtoClock>(
    m: &Pmsg,
    mem: &M,
    host: HostId,
    cost: &CostModel,
    tl: &mut C,
    probe: &mut Probe,
) -> Result<(), ProtocolError> {
    write_priv(mem, host, m.priv_base, &m.data, "push install")?;
    probe.trace(tl.now(), TraceKind::Install, |e| {
        e.with_mp(m.minipage.0).with_aux(1)
    });
    let n = protect_range(mem, host, m.base, m.len, Prot::ReadOnly)?;
    tl.charge(n as Ns * cost.set_protection);
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
fn handle_invalidate<M: MemoryBackend, W, C: ProtoClock, T: Transport>(
    m: Pmsg,
    state: &HostState<M, W>,
    tl: &mut C,
    ep: &T,
    probe: &mut Probe,
) -> Result<(), ProtocolError> {
    let (cost, home) = (&state.cost, &state.home);
    let hlrc = state.consistency == Consistency::HomeEagerRc;
    // A received invalidation, apart from the copy drops of a write serve
    // and of a release flush: its trace record carries aux 1.
    let (mp, event) = (m.minipage.0, m.event);
    probe.on(tl.now(), Fact::InvRecv { mp, event });
    // Under HLRC, hold the release-state lock from the dirty-set removal
    // until the eviction diff is on the wire. Released earlier, the
    // owner's in-progress release flush could observe the emptied dirty
    // set, skip flushing, and enqueue its barrier-enter *ahead* of the
    // eviction diff on the host→home FIFO — the home would then count the
    // release (and serve post-barrier reads) with this copy's final writes
    // still in flight.
    let mut rc = hlrc.then(|| state.rc.lock());
    if let Some(d) = rc.as_mut().and_then(|rc| rc.dirty.remove(&mp)) {
        let data = state
            .space
            .snapshot_and_protect(d.info.base, d.info.len, Prot::NoAccess)
            .map_err(|_| bad_priv(state.host, m.priv_base, "eviction snapshot"))?;
        let diff = d.twin.diff(&data);
        tl.charge(cost.diff_time(d.info.len));
        tl.charge(cost.set_protection);
        if !diff.is_empty() {
            let mut out = Pmsg::new(MsgKind::RcDiff, ep.me(), 0).with_addr(d.info.base);
            out.minipage = d.info.id;
            out.base = d.info.base;
            out.len = d.info.len;
            out.priv_base = d.info.priv_base;
            out.data = Bytes::from(diff.encode());
            let payload = out.payload_bytes();
            // Eviction diff: event 0, fire-and-forget (aux 0 marks it as
            // not awaiting an RcDiffAck).
            probe.trace(tl.now(), TraceKind::RcDiffSend, |e| {
                e.with_mp(d.info.id.0).with_bytes(payload).with_aux(0)
            });
            let to = home.home(d.info.id);
            ep.send(to, out, payload, tl.now(), "eviction diff")?;
        }
        drop(rc);
    } else {
        drop(rc);
        let n = protect_range(&state.space, state.host, m.base, m.len, Prot::NoAccess)?;
        tl.charge(n as Ns * cost.set_protection);
    }
    if !hlrc || home.kind() != HomePolicyKind::Centralized {
        // The reply goes to the shard homing the minipage — the one that
        // sent the invalidation. Under HLRC with distributed homes it is
        // counting confirmations before it releases the flusher; FIFO on
        // this channel puts the confirmation behind any eviction diff
        // sent above.
        let mut reply = Pmsg::new(MsgKind::InvalidateReply, ep.me(), m.event);
        reply.minipage = m.minipage;
        reply.addr = m.addr;
        ep.send(
            home.home(m.minipage),
            reply,
            0,
            tl.now(),
            "invalidate reply",
        )?;
    }
    Ok(())
}

/// Figure 3 "Handle Read or Write Reply": receive the minipage contents
/// directly into the privileged view (no buffer copy), open the
/// protection, and wake the faulting thread.
fn handle_data_reply<M: MemoryBackend, W: LocalWake, C: ProtoClock, T: Transport>(
    m: Pmsg,
    wire_from: HostId,
    state: &HostState<M, W>,
    tl: &mut C,
    ep: &T,
    probe: &mut Probe,
) -> Result<(), ProtocolError> {
    // A self-addressed reply (this host served its own request — it homes
    // the minipage) carries bytes read from the very page it would install
    // them into. Writing them back is not just redundant: the snapshot was
    // taken at serve time, and a diff applied to the home page between the
    // serve and this install (another host's release flush) would be
    // silently reverted by the stale write-back, losing that host's
    // release for good. The protection change is still required.
    // `bug_stale_reinstall` re-introduces the fixed bug on purpose so the
    // schedule-exploration harness can prove it would catch it.
    let skip_write = wire_from == state.host && !state.bug_stale_reinstall;
    let (mem, cost) = (&state.space, &state.cost);
    let range = install_reply(&m, mem, state.host, cost, tl, probe, skip_write)?;
    // Cache the manager's translation: the host-side minipage boundary
    // knowledge that the release-consistency write path relies on.
    state.rc.lock().learn(
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
            let mut pf = state.prefetch_waiters.lock();
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
                resume_vt: tl.now(),
                addr: m.addr,
            });
        }
        let ack = Pmsg::new(MsgKind::Ack, ep.me(), 0).with_addr(m.addr);
        let home = state.home.home(m.minipage);
        ep.send(home, ack, 0, tl.now(), "prefetch ack")?;
        Ok(())
    } else {
        let what = if m.kind == MsgKind::ReadReply {
            "ReadReply"
        } else {
            "WriteReply"
        };
        state.wake(&m, what, Ok(tl.now()))
    }
}

/// Wakes the thread blocked on an allocation, barrier, lock, or
/// diff-flush event.
fn fulfill_simple<M, W: LocalWake, C: ProtoClock>(
    m: Pmsg,
    state: &HostState<M, W>,
    tl: &mut C,
) -> Result<(), ProtocolError> {
    tl.charge(state.cost.event_signal);
    state.wake(&m, "completion", Ok(tl.now()))
}
