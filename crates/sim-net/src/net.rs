//! The message fabric: one mailbox per host, reliable FIFO per link.
//!
//! A Millipage host receives by polling one FastMessages queue (§3.5.1).
//! Here every packet addressed to a host lands in that host's mailbox: one
//! mutex over the per-sender delivery-gate stamps, the packets parked for
//! the gate, and the ready FIFO its [`Endpoint`] polls — [`Endpoint::recv`]
//! is the one receive, and it never waits. Under a gating scheduler (the
//! canonical virtual-time policy) a cross-host packet is *parked*, sorted
//! by `(release_vt, from, seq)`, until the scheduler releases it into the
//! ready FIFO (see [`DeliveryGate`]); every other delivery — ungated
//! fabrics, self-sends, shutdown-era external sends — goes straight to the
//! ready FIFO, in call order. Every send also counts into the fabric's
//! per-link [`LinkTraffic`].
//!
//! With the [`FaultPlane`] inactive (the default) the fabric is the
//! reliable, FIFO-ordered wire FM promises. With an active plane the raw
//! wire drops, duplicates, jitters and reorders packets, and this module
//! layers the reliable channel FM builds over Myrinet on top of it:
//!
//! * per-link **wire sequence numbers**, stamped at send,
//! * **virtual-time retransmission** with exponential backoff: each lost
//!   transmission adds `rto·2^retry` virtual ns to the arrival stamp of
//!   the copy that finally arrives (accounted, not re-executed),
//! * **receive-side dedup and resequencing**: exactly-once FIFO per sender,
//! * a **cumulative-ack watermark** per link, so a run can prove every
//!   assigned sequence number was delivered.
//!
//! A reordered packet waits in its link's one-deep holdback slot until the
//! link's next send overtakes it. A link that goes quiet leaves it there
//! for its one rescue, [`DeliveryGate::flush_held`]: the scheduler calls it
//! at its quiet point under every policy, and a fabric used without a
//! scheduler calls it through [`Network::gate`].

use crate::fault::{backoff_penalty, FaultPlane, ScriptedKind, SendReceipt};
use sim_core::clock::Ns;
use sim_core::sched::{DeliveryGate, Scheduler};
use sim_core::trace::{TraceKind, TraceRecorder};
use sim_core::{CostModel, Counter, HostId, LinkTraffic, LogHistogram, SplitMix64};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// A message in flight.
#[derive(Clone, Debug)]
pub struct Packet<M> {
    /// Sending host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// The payload-bearing message.
    pub msg: M,
    /// Virtual time at which the sender issued the message.
    pub send_vt: Ns,
    /// Virtual time at which the message is available at the destination
    /// network adapter (`send_vt + msg_time(payload)`, plus any
    /// retransmission and jitter penalty under an active fault plane).
    pub arrival_vt: Ns,
    /// Payload bytes beyond the 32-byte header.
    pub payload_bytes: usize,
    /// Per-(sender, destination) wire sequence number, stamped by the
    /// reliable channel. 0 when the fault plane is inactive or for
    /// self-delivery (which bypasses the wire).
    pub wire_seq: u64,
    /// Virtual time at which the delivery gate released this packet to the
    /// destination (the link-FIFO cumulative maximum of arrival stamps).
    /// 0 when the gate is inactive — i.e. on a fabric with no scheduler
    /// attached, under the exploration policies, and for self-delivery.
    /// Servers must not begin service before `max(arrival_vt, release_vt)`.
    pub release_vt: Ns,
}

/// Aggregate traffic statistics for one network.
///
/// The fault-plane counters stay zero when the plane is inactive.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Messages sent.
    pub messages: Counter,
    /// Total payload bytes sent (headers excluded).
    pub payload_bytes: Counter,
    /// Transmissions lost on the wire (each one cost the sender an RTO).
    pub pkts_dropped: Counter,
    /// Retransmissions driven by the virtual RTO timers.
    pub retransmits: Counter,
    /// Duplicate physical deliveries injected by the plane.
    pub dups_delivered: Counter,
    /// Duplicates discarded by the receive-side dedup buffer.
    pub dups_suppressed: Counter,
    /// Packets held back at send to force an out-of-order arrival.
    pub reorders: Counter,
    /// Out-of-order arrivals parked in a resequencing buffer.
    pub reorder_buffered: Counter,
    /// Sends that exhausted their retransmit budget (packet never arrives;
    /// the protocol layer must surface a timeout).
    pub expired: Counter,
    /// Sends to an endpoint whose receiver was already torn down; the
    /// message is counted and discarded instead of panicking the sender.
    pub send_failures: Counter,
    /// Negative queue-delay clamps observed by server timelines — each one
    /// is a virtual-clock inversion `saturating_sub` would silently hide.
    pub clamped_delays: Counter,
}

/// Per-link mutable fault state: the seeded fault stream, the next wire
/// sequence number, and the one-deep reorder holdback slot.
struct LinkFault<M> {
    rng: SplitMix64,
    next_seq: u64,
    held: Option<Packet<M>>,
}

/// Fault machinery shared by all handles; present only for active planes.
struct FaultState<M> {
    plane: FaultPlane,
    /// `hosts × hosts` links, indexed `from * hosts + to`.
    links: Vec<Mutex<LinkFault<M>>>,
    /// Cumulative-ack watermark per link: the highest wire sequence
    /// number delivered in order to the receiver.
    acked: Vec<AtomicU64>,
    /// Per scripted-fault count of matching packets seen so far.
    script_hits: Mutex<Vec<u64>>,
    /// Virtual latency the plane added to faulted sends.
    delay: Mutex<LogHistogram>,
}

/// Delivery-gate stamps of one `(sender, destination)` link: the
/// cumulative maximum of its release stamps and the tie-break sequence for
/// packets released at the same virtual time.
#[derive(Clone, Copy, Default)]
struct GateLink {
    cummax: Ns,
    next_seq: u64,
}

/// What one host's mailbox holds, all under its one lock.
struct MailState<M> {
    /// Gate stamps of the link from each sender to this host.
    links: Vec<GateLink>,
    /// Gated packets with their link sequence number, sorted by
    /// `(release_vt, from, seq)` *descending*: the next release is last.
    parked: Vec<(u64, Packet<M>)>,
    /// Packets the endpoint receives next, in delivery order.
    ready: VecDeque<Packet<M>>,
    /// Set when the endpoint is dropped: a delivery then fails.
    closed: bool,
}

/// One host's receive side: every packet addressed to the host, parked or
/// ready, under one leaf lock (lock order: scheduler → mailbox).
struct Mailbox<M> {
    state: Mutex<MailState<M>>,
    /// The earliest parked release stamp (`Ns::MAX` when none): stored
    /// (`Release`) under the lock, loaded (`Acquire`) by the scheduler.
    head: AtomicU64,
}

impl<M> Mailbox<M> {
    fn new(hosts: usize) -> Self {
        Self {
            state: Mutex::new(MailState {
                links: vec![GateLink::default(); hosts],
                parked: Vec::new(),
                ready: VecDeque::new(),
                closed: false,
            }),
            head: AtomicU64::new(Ns::MAX),
        }
    }

    /// Every update leaves the state valid, so a poisoned lock is
    /// recovered (the endpoint's `Drop` takes it).
    fn lock(&self) -> MutexGuard<'_, MailState<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `pkt` to the ready FIFO under `st`, this mailbox's lock;
    /// hands it back when the endpoint is gone.
    fn push(&self, mut st: MutexGuard<MailState<M>>, pkt: Packet<M>) -> Result<(), Packet<M>> {
        if st.closed {
            return Err(pkt);
        }
        st.ready.push_back(pkt);
        Ok(())
    }

    /// Parks a cross-host packet for the delivery gate. Its release stamp
    /// is the cumulative maximum of arrival stamps on its link, so releases
    /// on one link are FIFO even when fault backoff inverts raw arrivals.
    /// A new earliest packet marks its host in `moved`.
    fn park(&self, mut pkt: Packet<M>, moved: &AtomicU64) {
        let mut st = self.lock();
        let link = &mut st.links[pkt.from.index()];
        link.cummax = link.cummax.max(pkt.arrival_vt);
        pkt.release_vt = link.cummax;
        let seq = link.next_seq;
        link.next_seq += 1;
        let key = (pkt.release_vt, pkt.from, seq);
        let at = st
            .parked
            .partition_point(|(s, p)| (p.release_vt, p.from, *s) > key);
        let (earliest, to) = (at == st.parked.len(), pkt.to);
        st.parked.insert(at, (seq, pkt));
        if earliest {
            self.head_moved(&st, to, moved);
        }
    }

    /// Moves the earliest parked packet to the ready FIFO, marking its host
    /// in `moved`; hands it back when the endpoint is gone.
    fn release(&self, moved: &AtomicU64) -> Result<(), Packet<M>> {
        let mut st = self.lock();
        let (_, pkt) = st
            .parked
            .pop()
            .expect("release_next on an empty gate queue");
        self.head_moved(&st, pkt.to, moved);
        self.push(st, pkt)
    }

    /// Publishes host `to`'s new earliest parked packet: stamp, then mark.
    fn head_moved(&self, st: &MailState<M>, to: HostId, moved: &AtomicU64) {
        let head = st.parked.last().map_or(Ns::MAX, |(_, p)| p.release_vt);
        self.head.store(head, Ordering::Release);
        moved.fetch_or(1 << to.index(), Ordering::Release);
    }

    /// Pops the ready FIFO's head.
    fn pop(&self) -> Option<Packet<M>> {
        self.lock().ready.pop_front()
    }
}

struct Fabric<M> {
    /// One mailbox per host and their moved-heads mask, shared with the gate.
    mailboxes: Arc<[Mailbox<M>]>,
    moved: Arc<AtomicU64>,
    cost: CostModel,
    stats: NetStats,
    /// Always-on per-link traffic, counted on every send; the diagnostics
    /// report's link table.
    links: LinkTraffic,
    faults: Option<FaultState<M>>,
    /// Deterministic scheduler to notify on every delivery (it may unblock
    /// the destination). Unset on a fabric used on its own.
    sched: OnceLock<Scheduler>,
}

/// A handle to the simulated interconnect.
///
/// Cloneable; all clones send into the same fabric. Delivery to the
/// protocol layer is reliable and FIFO per sender (FM provides "a reliable
/// and FIFO ordered messaging service") — natively so when the
/// [`FaultPlane`] is inactive, and via the reliable-channel layer (see the
/// module docs) when it is not.
pub struct Network<M> {
    fabric: Arc<Fabric<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Self {
            fabric: Arc::clone(&self.fabric),
        }
    }
}

impl<M: Send + Clone> Network<M> {
    /// Creates a fabric connecting `hosts` hosts with a reliable wire,
    /// returning one [`Endpoint`] per host (in host order).
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero or exceeds [`HostId::MAX_HOSTS`].
    pub fn new(hosts: usize, cost: CostModel) -> (Network<M>, Vec<Endpoint<M>>) {
        Self::with_faults(hosts, cost, FaultPlane::disabled())
    }

    /// Creates a fabric whose wire misbehaves according to `plane`.
    ///
    /// An inactive plane (the default) is completely inert: no locks, no
    /// RNG draws, wire sequence numbers stay 0, and behaviour is
    /// byte-for-byte identical to [`Network::new`].
    pub fn with_faults(
        hosts: usize,
        cost: CostModel,
        plane: FaultPlane,
    ) -> (Network<M>, Vec<Endpoint<M>>) {
        assert!(
            (1..=HostId::MAX_HOSTS).contains(&hosts),
            "host count {hosts} out of range"
        );
        let faults = plane.is_active().then(|| {
            let mut seed_rng = SplitMix64::new(plane.seed);
            let links = (0..hosts * hosts)
                .map(|i| {
                    Mutex::new(LinkFault {
                        rng: seed_rng.fork(i as u64),
                        next_seq: 1,
                        held: None,
                    })
                })
                .collect();
            FaultState {
                script_hits: Mutex::new(vec![0; plane.scripted.len()]),
                plane,
                links,
                acked: (0..hosts * hosts).map(|_| AtomicU64::new(0)).collect(),
                delay: Mutex::new(LogHistogram::new()),
            }
        });
        let net = Network {
            fabric: Arc::new(Fabric {
                mailboxes: (0..hosts).map(|_| Mailbox::new(hosts)).collect(),
                moved: Arc::default(),
                cost,
                stats: NetStats::default(),
                links: LinkTraffic::new(hosts),
                faults,
                sched: OnceLock::new(),
            }),
        };
        let endpoints = (0..hosts)
            .map(|i| Endpoint {
                host: HostId(i as u16),
                rel: net
                    .fault_active()
                    .then(|| RefCell::new(RelState::new(hosts))),
                net: net.clone(),
                tracer: RefCell::new(TraceRecorder::disabled()),
            })
            .collect();
        (net, endpoints)
    }

    /// Number of hosts on the fabric.
    pub fn hosts(&self) -> usize {
        self.fabric.mailboxes.len()
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.fabric.stats
    }

    /// The cost model the fabric stamps arrivals with.
    pub fn cost(&self) -> &CostModel {
        &self.fabric.cost
    }

    /// Whether an active fault plane is installed.
    pub fn fault_active(&self) -> bool {
        self.fabric.faults.is_some()
    }

    /// The virtual latency the fault plane added to faulted sends
    /// (empty histogram when the plane is inactive).
    pub fn fault_delay(&self) -> LogHistogram {
        match &self.fabric.faults {
            Some(f) => f.delay.lock().expect("fault delay lock").clone(),
            None => LogHistogram::new(),
        }
    }

    /// Cumulative-ack watermark of the `from → to` link: the highest wire
    /// sequence number the receiver has taken delivery of in order.
    pub fn link_acked(&self, from: HostId, to: HostId) -> u64 {
        match &self.fabric.faults {
            Some(f) => f.acked[self.link_index(from, to)].load(Ordering::Acquire),
            None => 0,
        }
    }

    /// Total wire sequence numbers assigned but not (yet) acknowledged,
    /// summed over every link. After a quiesced run this counts packets
    /// that were permanently lost (blackholes) or parked behind a loss.
    pub fn total_unacked(&self) -> u64 {
        let Some(f) = &self.fabric.faults else {
            return 0;
        };
        let hosts = self.hosts();
        let mut total = 0;
        for from in 0..hosts {
            for to in 0..hosts {
                let li = from * hosts + to;
                let sent = f.links[li].lock().expect("link lock").next_seq - 1;
                total += sent - f.acked[li].load(Ordering::Acquire);
            }
        }
        total
    }

    fn link_index(&self, from: HostId, to: HostId) -> usize {
        from.index() * self.hosts() + to.index()
    }

    /// Per-link traffic (messages, payload bytes), counted on every send.
    pub fn link_traffic(&self) -> &LinkTraffic {
        &self.fabric.links
    }

    /// Sends `msg` from `from` to `to` at virtual time `now`, with
    /// `payload_bytes` of data beyond the 32-byte header. Returns the
    /// arrival virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a host on this fabric.
    pub fn send(&self, from: HostId, to: HostId, msg: M, payload_bytes: usize, now: Ns) -> Ns {
        self.send_receipt(from, to, msg, payload_bytes, now).arrival
    }

    /// Like [`send`](Self::send), but reports what the fault plane did to
    /// the packet so the protocol layer can trace retransmissions and
    /// surface exhausted budgets as typed timeouts.
    pub fn send_receipt(
        &self,
        from: HostId,
        to: HostId,
        msg: M,
        payload_bytes: usize,
        now: Ns,
    ) -> SendReceipt {
        // Self-delivery (the manager forwarding to its own server) is a
        // local handler call, not a wire round trip; the fault plane does
        // not apply.
        let arrival = if from == to {
            now + self.fabric.cost.self_msg
        } else {
            now + self.fabric.cost.msg_time(payload_bytes)
        };
        self.fabric.stats.messages.bump();
        self.fabric.stats.payload_bytes.add(payload_bytes as u64);
        self.fabric.links.record(from, to, payload_bytes as u64);
        let pkt = Packet {
            from,
            to,
            msg,
            send_vt: now,
            arrival_vt: arrival,
            payload_bytes,
            wire_seq: 0,
            release_vt: 0,
        };
        match &self.fabric.faults {
            Some(faults) if from != to => self.send_through_faults(faults, pkt, arrival),
            _ => {
                self.deliver(pkt);
                SendReceipt::clean(arrival)
            }
        }
    }

    /// Runs one packet through the active fault plane. Assigns the wire
    /// sequence number, samples losses/duplication/reordering from the
    /// link's seeded stream, accounts the retransmission backoff into the
    /// arrival stamp, and performs the (at most two) physical deliveries.
    fn send_through_faults(
        &self,
        faults: &FaultState<M>,
        mut pkt: Packet<M>,
        base_arrival: Ns,
    ) -> SendReceipt {
        let plane = &faults.plane;
        let stats = &self.fabric.stats;
        let li = self.link_index(pkt.from, pkt.to);
        let mut link = faults.links[li].lock().expect("link lock");
        let seq = link.next_seq;
        link.next_seq += 1;
        pkt.wire_seq = seq;

        // Scripted one-shot faults fire before the probabilistic plane.
        let mut forced_drop = false;
        let mut blackhole = false;
        if !plane.scripted.is_empty() {
            let mut hits = faults.script_hits.lock().expect("script lock");
            for (fault, hit) in plane.scripted.iter().zip(hits.iter_mut()) {
                if fault.matches(pkt.from, pkt.to) {
                    *hit += 1;
                    if *hit == fault.nth {
                        match fault.kind {
                            ScriptedKind::DropOnce => forced_drop = true,
                            ScriptedKind::Blackhole => blackhole = true,
                        }
                    }
                }
            }
        }

        // Sample consecutive wire losses; each costs one (doubling) RTO.
        let budget = plane.max_retransmits;
        let mut drops = 0u32;
        if blackhole {
            drops = budget + 1;
        } else {
            while drops <= budget {
                let lost = if drops == 0 && forced_drop {
                    true
                } else {
                    link.rng.next_f64() < plane.drop
                };
                if !lost {
                    break;
                }
                drops += 1;
            }
        }
        let delivered = drops <= budget;
        stats.pkts_dropped.add(drops as u64);
        stats.retransmits.add(drops.min(budget) as u64);
        let mut fault_delay = backoff_penalty(plane.rto_ns, drops);
        if delivered && plane.jitter_ns > 0 {
            fault_delay += link.rng.next_range(plane.jitter_ns);
        }
        pkt.arrival_vt = base_arrival.saturating_add(fault_delay);
        let arrival = pkt.arrival_vt;

        let mut duplicated = false;
        let mut reordered = false;
        // Anything previously held back must go out behind this packet
        // (that inversion is the point of the holdback slot).
        let prev_held = link.held.take();
        if delivered {
            duplicated = link.rng.next_f64() < plane.dup;
            reordered = link.rng.next_f64() < plane.reorder && prev_held.is_none();
            if duplicated {
                stats.dups_delivered.bump();
                self.deliver(pkt.clone());
            }
            if reordered {
                stats.reorders.bump();
                link.held = Some(pkt);
            } else {
                self.deliver(pkt);
            }
        } else {
            stats.expired.bump();
        }
        if let Some(h) = prev_held {
            self.deliver(h);
        }
        drop(link);
        if fault_delay > 0 {
            faults
                .delay
                .lock()
                .expect("fault delay lock")
                .record(fault_delay as u64);
        }
        SendReceipt {
            arrival,
            wire_seq: seq,
            drops,
            fault_delay,
            delivered,
            duplicated,
            reordered,
        }
    }

    /// Physically enqueues a packet. Under a gating scheduler a cross-host
    /// packet is parked in the destination's mailbox for the scheduler to
    /// release; self-deliveries (local handler calls, not wire traffic) and
    /// shutdown-era external deliveries (under `Scheduler::quiesce_then`,
    /// when no simulated thread runs) go straight to the ready FIFO.
    fn deliver(&self, pkt: Packet<M>) {
        match self.fabric.sched.get() {
            Some(sched) if sched.gating() => {
                if pkt.from != pkt.to && !sched.external_active() {
                    self.fabric.mailboxes[pkt.to.index()].park(pkt, &self.fabric.moved);
                } else {
                    let to = pkt.to;
                    self.deliver_raw(pkt);
                    sched.bump_action_host(to);
                }
            }
            Some(sched) => {
                self.deliver_raw(pkt);
                // Any delivery may unblock the destination's receiver.
                sched.bump_action();
            }
            None => self.deliver_raw(pkt),
        }
    }

    /// The raw enqueue into the ready FIFO, with no scheduler interaction.
    /// A host that exited early absorbs late traffic into `send_failures`
    /// instead of panicking the sender.
    fn deliver_raw(&self, pkt: Packet<M>) {
        let mailbox = &self.fabric.mailboxes[pkt.to.index()];
        if mailbox.push(mailbox.lock(), pkt).is_err() {
            self.fabric.stats.send_failures.bump();
        }
    }

    /// Attaches the deterministic scheduler so deliveries count as
    /// potentially-unblocking actions, and hands it the fabric's delivery
    /// gate: a gating scheduler releases parked packets through it, and
    /// every scheduler flushes reorder-held packets through it at its
    /// quiet point. Later attachments are ignored.
    pub fn attach_scheduler(&self, sched: &Scheduler)
    where
        M: 'static,
    {
        if self.fabric.sched.set(sched.clone()).is_ok() {
            sched.set_gate(self.gate());
        }
    }

    /// The fabric's delivery gate, the one [`attach_scheduler`] installs.
    /// Its [`DeliveryGate::flush_held`] is the one rescue of reorder-held
    /// packets, and a fabric used without a scheduler calls it directly.
    ///
    /// [`attach_scheduler`]: Self::attach_scheduler
    pub fn gate(&self) -> Arc<dyn DeliveryGate>
    where
        M: 'static,
    {
        Arc::new(GateHandle {
            mailboxes: Arc::clone(&self.fabric.mailboxes),
            moved: Arc::clone(&self.fabric.moved),
            fabric: Arc::downgrade(&self.fabric),
        })
    }

    /// Records an acknowledged in-order delivery on the `from → to` link.
    fn ack(&self, from: HostId, to: HostId, seq: u64) {
        if let Some(faults) = &self.fabric.faults {
            faults.acked[self.link_index(from, to)].fetch_max(seq, Ordering::AcqRel);
        }
    }
}

/// The scheduler-facing view of the delivery gate: the fabric's mailboxes.
/// The fabric itself is held weakly, for the rare paths that need it: a
/// strong reference would cycle (fabric → scheduler → gate → fabric).
struct GateHandle<M> {
    mailboxes: Arc<[Mailbox<M>]>,
    moved: Arc<AtomicU64>,
    fabric: Weak<Fabric<M>>,
}

impl<M: Send + Clone + 'static> DeliveryGate for GateHandle<M> {
    fn moved_heads(&self) -> u64 {
        self.moved.swap(0, Ordering::Acquire)
    }

    fn head(&self, host: HostId) -> Option<Ns> {
        Some(self.mailboxes[host.index()].head.load(Ordering::Acquire)).filter(|&r| r != Ns::MAX)
    }

    fn release_next(&self, host: HostId) {
        let closed = self.mailboxes[host.index()].release(&self.moved).is_err();
        if let (true, Some(fabric)) = (closed, self.fabric.upgrade()) {
            fabric.stats.send_failures.bump();
        }
    }

    fn flush_held(&self) -> Vec<HostId> {
        let Some(fabric) = self.fabric.upgrade() else {
            return Vec::new();
        };
        let net = Network { fabric };
        let Some(faults) = &net.fabric.faults else {
            return Vec::new();
        };
        // Fixed link order keeps the flush deterministic; the caller is at
        // the global-idle decision point, so no sender is concurrently
        // stashing.
        let mut dests = Vec::new();
        for link in &faults.links {
            let held = link.lock().expect("link lock").held.take();
            if let Some(pkt) = held {
                dests.push(pkt.to);
                net.deliver_raw(pkt);
            }
        }
        dests
    }
}

/// Receive-side reliable-channel state: per-sender expected sequence
/// numbers, resequencing buffers, and the in-order ready queue.
struct RelState<M> {
    ready: VecDeque<Packet<M>>,
    peers: Vec<PeerSeq<M>>,
}

struct PeerSeq<M> {
    next: u64,
    parked: BTreeMap<u64, Packet<M>>,
}

impl<M> RelState<M> {
    fn new(hosts: usize) -> Self {
        Self {
            ready: VecDeque::new(),
            peers: (0..hosts)
                .map(|_| PeerSeq {
                    next: 1,
                    parked: BTreeMap::new(),
                })
                .collect(),
        }
    }
}

/// One host's attachment to the fabric: the receive side of its mailbox
/// plus a send handle. Dropping it closes the mailbox: later deliveries to
/// the host count as `send_failures`.
pub struct Endpoint<M> {
    host: HostId,
    net: Network<M>,
    /// Reliable-channel receive state; present only under an active fault
    /// plane. An endpoint is single-thread-owned: its `RefCell`s never
    /// contend.
    rel: Option<RefCell<RelState<M>>>,
    /// Protocol tracer for sends issued through this endpoint. Inert
    /// unless [`attach_tracer`](Self::attach_tracer) installed an enabled
    /// recorder.
    tracer: RefCell<TraceRecorder>,
}

impl<M> Drop for Endpoint<M> {
    fn drop(&mut self) {
        let mut st = self.net.fabric.mailboxes[self.host.index()].lock();
        st.closed = true;
        st.ready.clear();
    }
}

impl<M: Send + Clone> Endpoint<M> {
    /// This endpoint's host id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The underlying network handle.
    pub fn network(&self) -> &Network<M> {
        &self.net
    }

    fn mailbox(&self) -> &Mailbox<M> {
        &self.net.fabric.mailboxes[self.host.index()]
    }

    /// Installs a recorder that logs a `MsgSend` event for every send
    /// issued through this endpoint.
    pub fn attach_tracer(&self, rec: TraceRecorder) {
        *self.tracer.borrow_mut() = rec;
    }

    /// Sends to `to` at virtual time `now`; returns the arrival time.
    pub fn send(&self, to: HostId, msg: M, payload_bytes: usize, now: Ns) -> Ns {
        self.send_receipt(to, msg, payload_bytes, now).arrival
    }

    /// Sends to `to`, tracing what the fault plane did (`PktDropped` /
    /// `Retransmit` per lost transmission) and returning the receipt so
    /// the caller can surface an exhausted retransmit budget.
    pub fn send_receipt(&self, to: HostId, msg: M, payload_bytes: usize, now: Ns) -> SendReceipt {
        let mut t = self.tracer.borrow_mut();
        if t.enabled() {
            t.emit(now, TraceKind::MsgSend, |e| {
                e.with_peer(to).with_bytes(payload_bytes)
            });
        }
        drop(t);
        let receipt = self
            .net
            .send_receipt(self.host, to, msg, payload_bytes, now);
        let mut t = self.tracer.borrow_mut();
        if receipt.drops > 0 && t.enabled() {
            let faults = self.net.fabric.faults.as_ref();
            let budget = faults.map_or(0, |f| f.plane.max_retransmits);
            for retry in 1..=receipt.drops {
                t.emit(now, TraceKind::PktDropped, |e| {
                    e.with_peer(to).with_aux(retry)
                });
                if retry <= budget {
                    t.emit(now, TraceKind::Retransmit, |e| {
                        e.with_peer(to).with_aux(retry)
                    });
                }
            }
        }
        receipt
    }

    /// The next packet delivered to this host, or `None` when none is
    /// (yet): FM's receive is a poll (§3.5.1), and a server polls when the
    /// scheduler runs it. The *virtual* waiting time comes from packet
    /// stamps, not from real time.
    ///
    /// Under an active fault plane this is the reliable-channel receive:
    /// duplicates are suppressed, out-of-order packets are parked until
    /// their gap fills, and delivery is exactly-once FIFO per sender. A
    /// packet the wire holds back to reorder it is not here until the
    /// gate's [`flush_held`](DeliveryGate::flush_held) delivers it.
    pub fn recv(&self) -> Option<Packet<M>> {
        let Some(rel) = &self.rel else {
            return self.mailbox().pop();
        };
        loop {
            if let Some(p) = rel.borrow_mut().ready.pop_front() {
                return Some(p);
            }
            let p = self.mailbox().pop()?;
            self.sequence(rel, p);
        }
    }

    /// Runs one raw arrival through the dedup/resequencing buffers,
    /// advancing the cumulative-ack watermark for every in-order delivery.
    fn sequence(&self, rel: &RefCell<RelState<M>>, pkt: Packet<M>) {
        let mut st = rel.borrow_mut();
        if pkt.wire_seq == 0 {
            // Self-delivery bypasses the wire and is never faulted.
            st.ready.push_back(pkt);
            return;
        }
        let stats = &self.net.fabric.stats;
        let from = pkt.from;
        let seq = pkt.wire_seq;
        let expected = st.peers[from.index()].next;
        if seq < expected || st.peers[from.index()].parked.contains_key(&seq) {
            stats.dups_suppressed.bump();
            let mut t = self.tracer.borrow_mut();
            if t.enabled() {
                t.emit(pkt.arrival_vt, TraceKind::DupSuppressed, |e| {
                    e.with_peer(from).with_aux(seq as u32)
                });
            }
        } else if seq == expected {
            self.net.ack(from, self.host, seq);
            st.peers[from.index()].next += 1;
            st.ready.push_back(pkt);
            // The gap just closed may release parked successors.
            loop {
                let peer = &mut st.peers[from.index()];
                let Some(released) = peer.parked.remove(&peer.next) else {
                    break;
                };
                peer.next += 1;
                self.net.ack(from, self.host, released.wire_seq);
                st.ready.push_back(released);
            }
        } else {
            stats.reorder_buffered.bump();
            st.peers[from.index()].parked.insert(seq, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ScriptedFault;
    use proptest::prelude::*;
    use sim_core::sched::{SchedMode, ThreadKey, Turn};

    #[test]
    fn arrival_stamp_uses_latency_model() {
        let (net, eps) = Network::<&'static str>::new(2, CostModel::default());
        let arrival = eps[0].send(HostId(1), "hdr", 0, 1_000);
        assert_eq!(arrival, 1_000 + net.cost().msg_time(0));
        let pkt = eps[1].recv().unwrap();
        assert_eq!(pkt.msg, "hdr");
        assert_eq!(pkt.send_vt, 1_000);
        assert_eq!(pkt.arrival_vt, arrival);
        assert_eq!(pkt.from, HostId(0));
        assert_eq!(pkt.wire_seq, 0);
    }

    #[test]
    fn per_sender_fifo_order_is_preserved() {
        let (_net, mut eps) = Network::<u32>::new(2, CostModel::default());
        let rx = eps.remove(1);
        let tx = eps.remove(0);
        for i in 0..100 {
            tx.send(HostId(1), i, 0, i as Ns);
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap().msg, i);
        }
    }

    #[test]
    fn stats_and_link_traffic_count_messages_and_bytes() {
        let (net, eps) = Network::<()>::new(2, CostModel::default());
        eps[0].send(HostId(1), (), 128, 0);
        eps[0].send(HostId(1), (), 0, 0);
        assert_eq!(net.stats().messages.get(), 2);
        assert_eq!(net.stats().payload_bytes.get(), 128);
        let (from, to, messages, bytes) = (0, 1, 2, 128);
        let link = sim_core::LinkStat {
            from,
            to,
            messages,
            bytes,
        };
        assert_eq!(net.link_traffic().links(), [link]);
    }

    #[test]
    fn recv_on_an_empty_mailbox_is_none() {
        let (_net, eps) = Network::<()>::new(1, CostModel::default());
        assert!(eps[0].recv().is_none());
    }

    #[test]
    fn self_send_is_allowed() {
        // The manager host's own application threads fault too; their
        // requests go through the same path.
        let (_net, eps) = Network::<u8>::new(1, CostModel::default());
        eps[0].send(HostId(0), 7, 0, 0);
        assert_eq!(eps[0].recv().unwrap().msg, 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_hosts_panics() {
        let _ = Network::<()>::new(0, CostModel::default());
    }

    #[test]
    fn inactive_plane_is_inert() {
        let (net, eps) =
            Network::<u8>::with_faults(2, CostModel::default(), FaultPlane::disabled());
        assert!(!net.fault_active());
        let r = net.send_receipt(HostId(0), HostId(1), 1, 0, 0);
        assert_eq!(r.wire_seq, 0);
        assert!(r.delivered && r.drops == 0);
        assert_eq!(eps[1].recv().unwrap().wire_seq, 0);
        assert_eq!(net.total_unacked(), 0);
    }

    #[test]
    fn drops_inflate_arrival_and_count_retransmits() {
        // drop = 1 for the first transmission would retry forever; use a
        // scripted DropOnce so exactly one loss occurs deterministically.
        let plane = FaultPlane {
            scripted: vec![ScriptedFault::drop_nth(HostId(0), HostId(1), 1)],
            ..FaultPlane::disabled()
        };
        let rto = plane.rto_ns;
        let (net, eps) = Network::<u8>::with_faults(2, CostModel::default(), plane);
        let clean = net.cost().msg_time(0);
        let r = net.send_receipt(HostId(0), HostId(1), 9, 0, 0);
        assert!(r.delivered);
        assert_eq!(r.drops, 1);
        assert_eq!(r.arrival, clean + rto);
        assert_eq!(net.stats().pkts_dropped.get(), 1);
        assert_eq!(net.stats().retransmits.get(), 1);
        let pkt = eps[1].recv().unwrap();
        assert_eq!(pkt.arrival_vt, clean + rto);
        assert_eq!(pkt.wire_seq, 1);
        assert_eq!(net.link_acked(HostId(0), HostId(1)), 1);
        assert_eq!(net.total_unacked(), 0);
    }

    #[test]
    fn duplicates_are_suppressed_at_the_receiver() {
        let plane = FaultPlane::lossy(42, 0.0, 1.0, 0.0);
        let (net, eps) = Network::<u8>::with_faults(2, CostModel::default(), plane);
        for i in 0..10 {
            eps[0].send(HostId(1), i, 0, 0);
        }
        for i in 0..10 {
            assert_eq!(eps[1].recv().unwrap().msg, i);
        }
        assert!(eps[1].recv().is_none());
        assert_eq!(net.stats().dups_delivered.get(), 10);
        assert_eq!(net.stats().dups_suppressed.get(), 10);
        assert_eq!(net.total_unacked(), 0);
    }

    #[test]
    fn reordered_packets_are_resequenced() {
        // Every packet is a reorder candidate; the holdback slot inverts
        // consecutive pairs on the wire and the receive buffer repairs
        // them back into FIFO order. The last, unpaired packet stays held
        // until the gate flushes it.
        let plane = FaultPlane::lossy(7, 0.0, 0.0, 1.0);
        let (net, eps) = Network::<u32>::with_faults(2, CostModel::default(), plane);
        for i in 0..21 {
            eps[0].send(HostId(1), i, 0, i as Ns);
        }
        for i in 0..20 {
            assert_eq!(eps[1].recv().unwrap().msg, i, "FIFO broken at {i}");
        }
        assert!(eps[1].recv().is_none(), "the held packet arrived unflushed");
        assert_eq!(net.gate().flush_held(), [HostId(1)]);
        assert_eq!(eps[1].recv().unwrap().msg, 20);
        assert!(net.gate().flush_held().is_empty());
        assert!(net.stats().reorders.get() > 0);
        assert!(net.stats().reorder_buffered.get() > 0);
        assert_eq!(net.total_unacked(), 0);
    }

    #[test]
    fn blackhole_exhausts_budget_and_leaves_seq_unacked() {
        let plane = FaultPlane {
            scripted: vec![ScriptedFault::blackhole_nth(HostId(0), HostId(1), 2)],
            ..FaultPlane::disabled()
        };
        let (net, eps) = Network::<u8>::with_faults(2, CostModel::default(), plane);
        let r1 = net.send_receipt(HostId(0), HostId(1), 1, 0, 0);
        let r2 = net.send_receipt(HostId(0), HostId(1), 2, 0, 0);
        let r3 = net.send_receipt(HostId(0), HostId(1), 3, 0, 0);
        assert!(r1.delivered && !r2.delivered && r3.delivered);
        assert_eq!(net.stats().expired.get(), 1);
        // Packet 1 arrives; packet 3 stays parked behind the permanent
        // gap left by the blackholed packet 2.
        assert_eq!(eps[1].recv().unwrap().msg, 1);
        assert!(eps[1].recv().is_none());
        assert_eq!(net.link_acked(HostId(0), HostId(1)), 1);
        assert_eq!(net.total_unacked(), 2);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let run = |seed| {
            let plane = FaultPlane::lossy(seed, 0.2, 0.1, 0.1);
            let (net, eps) = Network::<u32>::with_faults(2, CostModel::default(), plane);
            for i in 0..200 {
                eps[0].send(HostId(1), i, 0, i as Ns);
            }
            net.gate().flush_held();
            for i in 0..200 {
                assert_eq!(eps[1].recv().unwrap().msg, i);
            }
            (
                net.stats().pkts_dropped.get(),
                net.stats().dups_delivered.get(),
                net.stats().reorders.get(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn send_to_torn_down_endpoint_is_tolerated() {
        let (net, mut eps) = Network::<u8>::new(2, CostModel::default());
        drop(eps.remove(1));
        // Pre-PR this panicked the sender; a late shutdown-era message
        // must degrade into a counter instead.
        eps[0].send(HostId(1), 1, 0, 0);
        assert_eq!(net.stats().send_failures.get(), 1);
    }

    /// A gate with nothing to release, installed ahead of the fabric's own
    /// so that the scheduler leaves every release to the test.
    struct NoGate;

    impl DeliveryGate for NoGate {
        fn moved_heads(&self) -> u64 {
            0
        }

        fn head(&self, _: HostId) -> Option<Ns> {
            None
        }

        fn release_next(&self, _: HostId) {
            unreachable!("nothing is pending")
        }

        fn flush_held(&self) -> Vec<HostId> {
            Vec::new()
        }
    }

    /// A fabric of `hosts` hosts under a gating scheduler that never
    /// releases anything itself: it reads [`NoGate`], and its one slot is
    /// host `hosts`'s idle server, one host past the ones under test. The
    /// run is started and quiescent, so [`Scheduler::quiesce_then`] sends
    /// as an external actor. Returns the scheduler, the fabric, its
    /// endpoints and a gate handle over its mailboxes like the one the
    /// fabric offers the scheduler.
    fn idle_gated(hosts: usize, plane: FaultPlane) -> GatedFabric {
        let idle = ThreadKey::server(HostId(hosts as u16));
        let sched = Scheduler::new(&SchedMode::deterministic(), vec![idle]);
        sched.attach_passive(idle, Box::new(|| Turn::Idle { vt: 0 }));
        sched.set_gate(Arc::new(NoGate));
        let (net, eps) = Network::with_faults(hosts + 1, CostModel::default(), plane);
        net.attach_scheduler(&sched);
        let gate = net.gate();
        (sched, net, eps, gate)
    }

    type GatedFabric = (
        Scheduler,
        Network<u64>,
        Vec<Endpoint<u64>>,
        Arc<dyn DeliveryGate>,
    );

    /// Release order: the `(release_vt, from, seq)` key the mailbox sorts
    /// its parked packets by.
    type Key = (Ns, HostId, u64);

    /// The scheduler's view of the mailbox heads, kept the way it keeps
    /// them: re-read only for the hosts the gate names as moved.
    struct Heads(Vec<Option<Ns>>);

    impl Heads {
        fn refile(&mut self, gate: &dyn DeliveryGate) -> u64 {
            let moved = gate.moved_heads();
            for (h, head) in self.0.iter_mut().enumerate() {
                if moved & 1 << h != 0 {
                    *head = gate.head(HostId(h as u16));
                }
            }
            moved
        }

        /// The earliest release, the lowest host winning a tie.
        fn first(&self) -> Option<HostId> {
            let heads = self.0.iter().zip(0..);
            heads
                .filter_map(|(r, h)| Some((r.as_ref()?, HostId(h))))
                .min()
                .map(|(_, h)| h)
        }
    }

    proptest! {
        /// The mailbox releases in the order of a `BTreeMap` keyed by
        /// `(release_vt, from, seq)`: 2–5 senders send to each other at
        /// stamps drawn from four values
        /// (ties on and across links, arrival inversions on a link),
        /// interleaved with global and per-host releases, self and
        /// external deliveries, and receives. After every step the gate's
        /// moved mask must name exactly the hosts whose earliest key the
        /// step changed, and every host's `head` must be its earliest
        /// key's stamp; every released packet must carry the model's
        /// release stamp; and every receive must return what the model's
        /// ready FIFO holds next.
        #[test]
        fn the_mailbox_releases_in_the_btreemap_order(
            hosts in 2usize..6,
            ops in proptest::collection::vec((0u8..10, 0usize..5, 0usize..5, 0u64..4), 1..160),
        ) {
            let (sched, net, eps, gate) = idle_gated(hosts, FaultPlane::disabled());
            let mut parked: Vec<BTreeMap<Key, u64>> = vec![BTreeMap::new(); hosts];
            let mut ready: Vec<VecDeque<(u64, Ns)>> = vec![VecDeque::new(); hosts];
            let mut links: BTreeMap<(usize, usize), (Ns, u64)> = BTreeMap::new();
            let earliest = |parked: &[BTreeMap<Key, u64>]| -> Vec<Option<Key>> {
                parked.iter().map(|p| p.keys().next().copied()).collect()
            };
            let model_min = |parked: &[BTreeMap<Key, u64>]| {
                let heads = earliest(parked).into_iter().zip(0..);
                heads.filter_map(|(k, h)| Some((k?.0, HostId(h)))).min()
            };
            let release = |h: usize, parked: &mut [BTreeMap<Key, u64>], ready: &mut [VecDeque<(u64, Ns)>]| {
                gate.release_next(HostId(h as u16));
                let ((r, _, _), id) = parked[h].pop_first().expect("model has it parked");
                ready[h].push_back((id, r));
            };
            for (id, &(kind, a, b, stamp)) in ops.iter().enumerate() {
                let (from, mut to) = (a % hosts, b % hosts);
                let (id, vt) = (id as u64, stamp * 1_000);
                let before = earliest(&parked);
                match kind {
                    0..=4 => {
                        if to == from {
                            to = (to + 1) % hosts;
                        }
                        let arrival = eps[from].send(HostId(to as u16), id, 0, vt);
                        let (cummax, seq) = links.entry((from, to)).or_insert((0, 0));
                        *cummax = arrival.max(*cummax);
                        parked[to].insert((*cummax, HostId(from as u16), *seq), id);
                        *seq += 1;
                    }
                    5 => {
                        eps[from].send(HostId(from as u16), id, 0, vt);
                        ready[from].push_back((id, 0));
                    }
                    6 => {
                        sched.quiesce_then(|| {
                            net.send(HostId(from as u16), HostId(to as u16), id, 0, vt);
                        });
                        ready[to].push_back((id, 0));
                    }
                    7 => {
                        if let Some((_, h)) = model_min(&parked) {
                            release(h.index(), &mut parked, &mut ready);
                        }
                    }
                    8 => {
                        if !parked[to].is_empty() {
                            release(to, &mut parked, &mut ready);
                        }
                    }
                    _ => {
                        let got = eps[to].recv().map(|p| (p.msg, p.release_vt));
                        prop_assert_eq!(got, ready[to].pop_front(), "receive at host {}", to);
                    }
                }
                let after = earliest(&parked);
                let changed = (0..hosts).filter(|&h| before[h] != after[h]);
                prop_assert_eq!(gate.moved_heads(), changed.fold(0, |m, h| m | 1 << h), "after step {}", id);
                for (h, key) in after.iter().enumerate() {
                    prop_assert_eq!(gate.head(HostId(h as u16)), key.map(|k| k.0), "host {} after step {}", h, id);
                }
            }
            while let Some((_, h)) = model_min(&parked) {
                release(h.index(), &mut parked, &mut ready);
            }
            for (h, ep) in eps.iter().enumerate().take(hosts) {
                while let Some(want) = ready[h].pop_front() {
                    let got = ep.recv().map(|p| (p.msg, p.release_vt));
                    prop_assert_eq!(got, Some(want), "draining host {}", h);
                }
                prop_assert!(ep.recv().is_none());
                prop_assert_eq!(gate.head(HostId(h as u16)), None);
            }
        }

        /// Per-link FIFO through the gate on a wire that duplicates and
        /// reorders: whatever order the releases and the idle-point flush
        /// of held packets take, every receiver gets each sender's messages
        /// once each, in send order.
        #[test]
        fn gated_links_stay_fifo_under_reorder_and_duplication(
            hosts in 2usize..6,
            seed in 0u64..1_000_000,
            dup_pm in 0u32..500,
            reorder_pm in 0u32..500,
            sends in proptest::collection::vec((0usize..5, 0usize..5, 0u64..4), 1..120),
        ) {
            let plane = FaultPlane::lossy(seed, 0.0, dup_pm as f64 / 1000.0, reorder_pm as f64 / 1000.0);
            let (_sched, net, eps, gate) = idle_gated(hosts, plane);
            let mut sent: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for &(a, b, stamp) in &sends {
                let (from, to) = (a % hosts, (a % hosts + 1 + b % (hosts - 1)) % hosts);
                let n = sent.entry((from, to)).or_insert(0);
                let msg = (from as u64) << 32 | *n;
                eps[from].send(HostId(to as u16), msg, 0, stamp * 1_000);
                *n += 1;
            }
            let mut got: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
            let mut heads = Heads(vec![None; hosts]);
            loop {
                heads.refile(&*gate);
                while let Some(h) = heads.first() {
                    gate.release_next(h);
                    prop_assert!(heads.refile(&*gate) & 1 << h.index() != 0, "a release moves its head");
                    let now: Vec<_> = (0..hosts).map(|h| gate.head(HostId(h as u16))).collect();
                    prop_assert_eq!(&heads.0, &now, "a moved head went unnamed");
                }
                for (to, ep) in eps.iter().enumerate() {
                    while let Some(p) = ep.recv() {
                        got.entry((p.from.index(), to)).or_default().push(p.msg & 0xffff_ffff);
                    }
                }
                if gate.flush_held().is_empty() {
                    break;
                }
            }
            for (link, n) in sent {
                prop_assert_eq!(got.remove(&link).unwrap_or_default(), (0..n).collect::<Vec<_>>(), "link {:?}", link);
            }
            prop_assert!(got.is_empty());
            prop_assert_eq!(net.total_unacked(), 0);
        }
    }
}
