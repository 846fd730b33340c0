//! Host-side state and the application-facing [`HostCtx`].
//!
//! Application threads "invoke a wrapper routine that installs the
//! millipage exception handler and calls the original main thread routine"
//! (§3.5.1). In the simulation the exception handler is the fault-retry
//! loop inside [`HostCtx`]: every shared access is protection-checked, a
//! failing check raises the Figure 3 fault path (request to the manager,
//! block, retry, ack), and every virtual nanosecond is attributed to a
//! Figure 6 category.

use crate::backend::{read_priv, LocalWake, MemoryBackend};
use crate::diag::DiagTable;
use crate::error::ProtocolError;
use crate::hlrc::{Consistency, MpInfo, RcDirty, RcState};
use crate::home::{HomePolicyKind, HomeTable, MANAGER};
use crate::msg::{Completion, MsgKind, Pmsg};
use crate::probe::{Counts, Fact, Probe};
use crate::shared::{fill_wire, wire_bytes, zeroed, Pod, SharedCell, SharedVec, POD_MAX};
use sim_core::clock::{BusyWindow, Clock, Ns};
use sim_core::sched::{BlockOutcome, SchedThread};
use sim_core::trace::{TraceKind, NO_MP};
use sim_core::IntMap;
use sim_core::{Category, CostModel, HostId, LogHistogram, TimeBreakdown};
use sim_mem::{Access, AccessError, AddressSpace, Fault, Prot, VAddr};
use sim_net::Network;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// A one-shot rendezvous between a blocked application thread and the DSM
/// server thread that completes its request.
///
/// A waiter resolves exactly once: either fulfilled with a [`Completion`]
/// or failed with a typed [`ProtocolError`] (nacked request, cancelled
/// run), and the first outcome wins. Pre-fault-plane a request that never
/// completed hung its thread forever; failure is now a first-class outcome.
/// It is a `OnceLock`, so a blocking condition that reads it stays `Send`
/// and takes no lock.
#[derive(Default)]
pub(crate) struct Waiter(OnceLock<Result<Completion, ProtocolError>>);

impl Waiter {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Server side: publishes the completion. The blocked thread looks
    /// again when the handler's turn ends (`sim_core::sched::Turn::Ran`).
    pub(crate) fn fulfill(&self, c: Completion) {
        self.resolve(Ok(c));
    }

    /// Fails the rendezvous with a typed error (a fulfilled waiter keeps
    /// its completion — failure never clobbers a result already won).
    pub(crate) fn fail(&self, e: ProtocolError) {
        self.resolve(Err(e));
    }

    fn resolve(&self, outcome: Result<Completion, ProtocolError>) {
        _ = self.0.set(outcome);
    }

    /// Non-blocking probe: the resolution, if the rendezvous already
    /// completed. The condition an application thread parks on in the
    /// scheduler.
    pub(crate) fn try_result(&self) -> Option<Result<Completion, ProtocolError>> {
        self.0.get().cloned()
    }
}

/// The simulator's blocked requests, by event id. A simulated host's
/// threads and server share one OS thread, so the registry is a `RefCell`.
pub(crate) type Waiters = RefCell<IntMap<u64, Arc<Waiter>>>;

impl LocalWake for Waiters {
    fn wake(
        &self,
        host: HostId,
        m: &Pmsg,
        what: &'static str,
        outcome: Result<Ns, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        let removed = self.borrow_mut().remove(&m.event);
        let w = removed.ok_or(ProtocolError::NoWaiter {
            host,
            event: m.event,
            kind: what,
        })?;
        match outcome {
            Ok(resume_vt) => w.fulfill(Completion {
                resume_vt,
                addr: m.addr,
            }),
            Err(e) => w.fail(e),
        }
        Ok(())
    }
}

/// One host's protocol state, generic over the substrate: `M` is the
/// host's memory, `W` how a thread blocked on a protocol event is released
/// (see [`LocalWake`]). The defaults are the simulator's. It lives on the
/// run's one protocol thread — the simulator's fibers, or the host
/// backend's server thread — so it takes no lock.
pub(crate) struct HostState<M = AddressSpace, W = Waiters> {
    pub host: HostId,
    pub space: M,
    /// What the host's server engine and application threads run under:
    /// the platform cost model, the coherence protocol, and the cluster's
    /// home map.
    pub cost: CostModel,
    pub consistency: Consistency,
    pub home: Rc<HomeTable>,
    /// The application's most recent compute burst (the server's "was
    /// the host busy computing at this virtual time?" test, §3.5.1).
    pub busy: BusyWindow,
    /// The threads blocked on protocol events.
    pub waiters: W,
    /// Outstanding prefetches by covered global vpage.
    pub prefetch_waiters: RefCell<IntMap<usize, Arc<Waiter>>>,
    /// Release-consistency state (boundary cache + twins; empty under the
    /// sequential-consistency protocol).
    pub rc: RefCell<RcState>,
    /// The host's protocol counts, which every probe of the host bumps.
    pub counts: Arc<Counts>,
    /// The run's diagnostics table; `None` unless diagnostics are on.
    pub diag: Option<Arc<DiagTable>>,
    /// Set when the run failed somewhere and the cluster is tearing down:
    /// no new wait may begin, and every outstanding wait has been (or is
    /// about to be) failed with [`ProtocolError::Cancelled`].
    pub aborted: Cell<bool>,
}

impl<M, W> HostState<M, W> {
    pub(crate) fn new(
        host: HostId,
        space: M,
        waiters: W,
        cost: CostModel,
        consistency: Consistency,
        home: Rc<HomeTable>,
        diag: Option<Arc<DiagTable>>,
    ) -> Self {
        Self {
            host,
            space,
            cost,
            consistency,
            home,
            busy: BusyWindow::new(),
            waiters,
            prefetch_waiters: RefCell::default(),
            rc: RefCell::default(),
            counts: Arc::default(),
            diag,
            aborted: Cell::new(false),
        }
    }

    /// Caches a minipage's boundaries for every vpage it covers. Only the
    /// release-consistency write path reads them, so SW/MR learns nothing.
    pub(crate) fn learn_rc(&self, vpages: Range<usize>, info: MpInfo) {
        if self.consistency == Consistency::HomeEagerRc {
            self.rc.borrow_mut().learn(vpages, info);
        }
    }
}

impl<M, W: LocalWake> HostState<M, W> {
    /// Completes or fails the local thread blocked on `m.event`.
    pub(crate) fn wake(
        &self,
        m: &Pmsg,
        what: &'static str,
        outcome: Result<Ns, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        self.waiters.wake(self.host, m, what, outcome)
    }
}

impl HostState {
    /// Registers the open waiter `w` under the event id `ev`. After the
    /// cancel sweep (`aborted`) nothing is published and `w` fails at once.
    pub(crate) fn register_waiter(&self, ev: u64, w: Arc<Waiter>) -> Arc<Waiter> {
        if self.aborted.get() {
            w.fail(ProtocolError::Cancelled {
                host: self.host,
                what: "request registered during shutdown",
            });
        } else {
            self.waiters.borrow_mut().insert(ev, Arc::clone(&w));
        }
        w
    }

    /// Fails every outstanding wait on this host so its application
    /// threads unblock and the cluster can shut down instead of hanging.
    pub(crate) fn cancel_pending(&self) {
        self.aborted.set(true);
        for (_, w) in self.waiters.take() {
            w.fail(ProtocolError::Cancelled {
                host: self.host,
                what: "pending request",
            });
        }
        for (_, w) in self.prefetch_waiters.take() {
            w.fail(ProtocolError::Cancelled {
                host: self.host,
                what: "pending prefetch",
            });
        }
    }
}

/// The application's view of the DSM on one simulated host.
///
/// All shared-memory access, synchronization and timing flows through this
/// handle. One `HostCtx` belongs to one application thread.
pub struct HostCtx {
    pub(crate) host: HostId,
    pub(crate) hosts: usize,
    pub(crate) thread: usize,
    /// The host's protocol state, which also holds what its requests run
    /// under: the cluster's home map (routing each minipage's traffic to
    /// its home shard), the cost model and the coherence protocol.
    pub(crate) state: Rc<HostState>,
    pub(crate) net: Network<Pmsg>,
    pub(crate) clock: Clock,
    pub(crate) breakdown: TimeBreakdown,
    /// The next event id of this thread's own range (see
    /// [`next_event`](Self::next_event)).
    pub(crate) events: u64,
    /// Open waiters this thread's finished requests left behind: a
    /// request takes one instead of allocating.
    pub(crate) spare_waiters: Vec<Arc<Waiter>>,
    pub(crate) pending_acks: Vec<VAddr>,
    /// The dirty minipages of the release being flushed (kept between
    /// releases for its capacity).
    pub(crate) flushing: Vec<RcDirty>,
    pub(crate) timed_from: Ns,
    pub(crate) breakdown_mark: TimeBreakdown,
    /// This application thread's way into the counters, the diagnostics
    /// lanes and the trace.
    pub(crate) probe: Probe,
    /// Fault service times (request to resume) of this thread.
    pub(crate) fault_hist: LogHistogram,
    /// This thread's handle into the deterministic scheduler.
    pub(crate) sched: SchedThread,
}

impl HostCtx {
    /// This host's id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Number of hosts in the cluster.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// This application thread's index within its host (0 when the host
    /// runs a single application thread).
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Current virtual time of this application thread.
    pub fn now(&self) -> Ns {
        self.clock.now()
    }

    /// The per-category time breakdown so far.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Starts (or restarts) this thread's timed region. The paper's
    /// benchmarks initialize their data in parallel and measure only the
    /// computation that follows; applications call this right after their
    /// initialization barrier.
    pub fn timer_reset(&mut self) {
        self.timed_from = self.clock.now();
        self.breakdown_mark = self.breakdown;
    }

    /// Virtual time elapsed in the timed region.
    pub fn timed(&self) -> Ns {
        self.clock.now() - self.timed_from
    }

    /// The breakdown of the timed region only.
    pub fn timed_breakdown(&self) -> TimeBreakdown {
        self.breakdown.since(&self.breakdown_mark)
    }

    /// Charges `ns` of application computation (Figure 6 "Comp").
    pub fn compute(&mut self, ns: Ns) {
        let t0 = self.clock.now();
        self.clock.advance(ns);
        self.breakdown.charge(Category::Comp, ns);
        self.state.busy.record(t0, self.clock.now());
    }

    /// Advances the clock by `ns` of local CPU work and records it in the
    /// busy window (protocol-side work on the application thread).
    fn charge_busy(&mut self, ns: Ns) {
        let t0 = self.clock.now();
        self.clock.advance(ns);
        self.state.busy.record(t0, self.clock.now());
    }

    /// Blocks on `w` until the DSM server fulfills or fails the event.
    /// The host's published clock stays at the block-entry time, so the
    /// server's busy test reads the host as idle from that virtual moment
    /// on. A failed wait unwinds the application thread with the typed
    /// error as payload; the cluster catches it, cancels the other hosts'
    /// pending waits, and reports the error instead of hanging.
    fn blocking_wait(&mut self, w: Arc<Waiter>, what: &'static str) -> Completion {
        self.wait_on(w, what, false)
    }

    /// Sends the (payload-free) request `msg` and blocks on `w`, its reply
    /// event: the scheduling steps of `send` + `blocking_wait` as one park.
    fn request(
        &mut self,
        dest: HostId,
        msg: Pmsg,
        w: Arc<Waiter>,
        what: &'static str,
    ) -> Completion {
        self.transmit(dest, msg, 0);
        self.wait_on(w, what, true)
    }

    /// The wait of [`blocking_wait`](Self::blocking_wait), or with `sent`
    /// the one of [`request`](Self::request), which owes the schedule the
    /// yield point of the send before it. A completed waiter nobody else
    /// holds any more is reset and kept for this thread's next request.
    fn wait_on(&mut self, mut w: Arc<Waiter>, what: &'static str, sent: bool) -> Completion {
        // Cooperative wait: yield the schedule until the server resolves
        // the rendezvous. A poisoned scheduler means no schedulable thread
        // can ever fulfill it — the interleaving deadlocked, which is a
        // typed finding.
        let (vt, check) = (self.clock.now(), || w.try_result());
        let outcome = match sent {
            true => self.sched.yield_then_block(vt, check),
            false => self.sched.block_until(vt, check),
        };
        let res = match outcome {
            BlockOutcome::Ready(r) => r,
            BlockOutcome::Poisoned => Err(ProtocolError::Deadlock {
                host: self.host,
                what,
            }),
        };
        if let Some(done) = Arc::get_mut(&mut w) {
            done.0.take();
            self.spare_waiters.push(w);
        }
        match res {
            Ok(c) => c,
            Err(e) => {
                if matches!(e, ProtocolError::Timeout { .. }) {
                    self.probe
                        .trace(self.clock.now(), TraceKind::TimeoutFired, |ev| ev);
                }
                std::panic::panic_any(e)
            }
        }
    }

    /// A fresh event id: a correlation key, drawn from the range this
    /// application thread owns.
    fn next_event(&mut self) -> u64 {
        self.events += 1;
        self.events - 1
    }

    /// Registers a waiter on this host under a fresh event id, reusing a
    /// spare one when this thread has it.
    fn waiter(&mut self) -> (u64, Arc<Waiter>) {
        let ev = self.next_event();
        let w = self.spare_waiters.pop().unwrap_or_default();
        (ev, self.state.register_waiter(ev, w))
    }

    /// Routes `addr`'s protocol traffic to its home shard. Distributed
    /// policies translate through the run's minipage table, which costs one
    /// `mpt_lookup` on the application thread; `cat` attributes that time
    /// when the caller's surrounding code does not already cover it with
    /// a category charge. The centralized policy routes straight to the
    /// manager with no lookup and no cost, like the original protocol.
    fn route_home(&mut self, addr: VAddr, cat: Option<Category>) -> HostId {
        let (dest, looked_up) = self.state.home.route(addr);
        if looked_up {
            let lookup = self.state.cost.mpt_lookup;
            self.charge_busy(lookup);
            if let Some(cat) = cat {
                self.breakdown.charge(cat, lookup);
            }
        }
        dest
    }

    /// Sends `msg` from this thread and yields: the message is on the wire;
    /// give the schedule a chance to run its receiver before this thread
    /// proceeds. Out of line because `flush_acks` is on the access path:
    /// inlined into it, this cost `lu1_seq` 8% of its wall.
    #[inline(never)]
    fn send(&mut self, dest: HostId, msg: Pmsg, payload: usize) {
        self.transmit(dest, msg, payload);
        self.sched.yield_now(self.clock.now());
    }

    /// Puts `msg` on the wire, tracing the wire event when enabled.
    /// Under injected faults the reliable channel retransmits lost copies
    /// transparently; a message that exhausts its retransmit budget
    /// unwinds this thread with a typed [`ProtocolError::Timeout`] rather
    /// than leaving it blocked on a request that never left the host.
    fn transmit(&mut self, dest: HostId, msg: Pmsg, payload: usize) {
        let (event, mp, now) = (msg.event, msg.minipage.0, self.clock.now());
        self.probe.trace(now, TraceKind::MsgSend, |e| {
            e.with_peer(dest)
                .with_event(event)
                .with_mp(mp)
                .with_bytes(payload)
        });
        let receipt = self.net.send_receipt(self.host, dest, msg, payload, now);
        for retry in 1..=receipt.drops {
            self.probe.trace(now, TraceKind::PktDropped, |e| {
                e.with_peer(dest).with_event(event).with_aux(retry)
            });
            if receipt.delivered || retry < receipt.drops {
                self.probe.trace(now, TraceKind::Retransmit, |e| {
                    e.with_peer(dest).with_event(event).with_aux(retry)
                });
            }
        }
        if !receipt.delivered {
            self.probe.trace(now, TraceKind::TimeoutFired, |e| {
                e.with_peer(dest).with_event(event)
            });
            std::panic::panic_any(ProtocolError::Timeout {
                host: self.host,
                what: "request send",
                event,
            });
        }
    }

    /// Records the fault at `addr` entering the protocol at `t0`, both
    /// fault paths' one fact, and returns its minipage for the fault-end
    /// record. The translation (free in virtual time) runs only when a
    /// recorder takes the minipage.
    fn fault_begin(&mut self, t0: Ns, addr: VAddr, write: bool) -> u32 {
        let mp = self
            .probe
            .attributes()
            .then(|| self.state.home.translate(addr));
        let (mp, off) = mp
            .flatten()
            .map_or((NO_MP, 0), |mp| (mp.id.0, addr.0 - mp.base.0));
        self.probe.on(t0, Fact::FaultBegin { mp, write, off });
        mp
    }

    // ------------------------------------------------------------------
    // Allocation (§3.2's malloc-like API, via manager RPC).
    // ------------------------------------------------------------------

    /// Allocates `bytes` of shared memory; returns its address.
    pub fn alloc_bytes(&mut self, bytes: usize) -> VAddr {
        let t0 = self.clock.now();
        let (ev, w) = self.waiter();
        let msg = Pmsg::new(MsgKind::AllocRequest, self.host, ev).with_aux(bytes as u64);
        let c = self.request(MANAGER, msg, w, "shared allocation");
        self.clock.merge(c.resume_vt);
        self.breakdown.charge(Category::Comp, self.clock.now() - t0);
        c.addr
    }

    /// Allocates a shared vector of `len` elements.
    pub fn alloc_vec<T: Pod>(&mut self, len: usize) -> SharedVec<T> {
        SharedVec::from_raw(self.alloc_bytes(len * T::SIZE), len)
    }

    /// Allocates a single shared cell.
    pub fn alloc_cell<T: Pod>(&mut self) -> SharedCell<T> {
        SharedCell::from_raw(self.alloc_bytes(T::SIZE))
    }

    // ------------------------------------------------------------------
    // Typed access.
    // ------------------------------------------------------------------

    /// Reads element `i`.
    pub fn get<T: Pod>(&mut self, sv: &SharedVec<T>, i: usize) -> T {
        self.load(sv.addr_of(i))
    }

    /// Writes element `i`.
    pub fn set<T: Pod>(&mut self, sv: &SharedVec<T>, i: usize, v: T) {
        self.store(sv.addr_of(i), v);
    }

    /// Reads elements `range` into a fresh vector: one copy, page to vector.
    pub fn read_range<T: Pod>(&mut self, sv: &SharedVec<T>, range: Range<usize>) -> Vec<T> {
        let mut out = zeroed(range.len());
        self.read_into(sv, range.start, &mut out);
        out
    }

    /// Reads the `out.len()` elements from `start` into `out`: the same
    /// copy and the same charge as [`read_range`](Self::read_range), into
    /// a buffer the caller keeps.
    pub fn read_into<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, out: &mut [T]) {
        let (addr, bytes) = sv.range_bytes(start, start + out.len());
        if bytes == 0 {
            return;
        }
        fill_wire(out, |buf| self.read_bytes_at(addr, buf));
    }

    /// Writes `vals` starting at element `start`: one copy, slice to page.
    pub fn write_range<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, vals: &[T]) {
        if vals.is_empty() {
            return;
        }
        let (addr, _) = sv.range_bytes(start, start + vals.len());
        self.write_bytes_at(addr, &wire_bytes(vals));
    }

    /// Reads the cell.
    pub fn cell_get<T: Pod>(&mut self, c: &SharedCell<T>) -> T {
        self.load(c.addr())
    }

    /// Writes the cell.
    pub fn cell_set<T: Pod>(&mut self, c: &SharedCell<T>, v: T) {
        self.store(c.addr(), v);
    }

    /// One element from `addr`, staged on the stack.
    fn load<T: Pod>(&mut self, addr: VAddr) -> T {
        let mut buf = [0u8; POD_MAX];
        self.read_bytes_at(addr, &mut buf[..T::SIZE]);
        T::from_bytes(&buf[..T::SIZE])
    }

    /// One element to `addr`, likewise.
    fn store<T: Pod>(&mut self, addr: VAddr, v: T) {
        let mut buf = [0u8; POD_MAX];
        v.to_bytes(&mut buf[..T::SIZE]);
        self.write_bytes_at(addr, &buf[..T::SIZE]);
    }

    /// Segmented read: commits page by page, like a hardware memcpy whose
    /// loads fault and resume per instruction. An access never needs two
    /// minipages resident *simultaneously*, which keeps heavily contended
    /// multi-minipage ranges live (per-page atomicity, as on real
    /// hardware).
    fn read_bytes_at(&mut self, addr: VAddr, buf: &mut [u8]) {
        self.page_walk(addr, buf.len(), Access::Read, |space, seg, r| {
            space.read(seg, &mut buf[r])
        });
    }

    /// Segmented write; see [`read_bytes_at`](Self::read_bytes_at).
    fn write_bytes_at(&mut self, addr: VAddr, data: &[u8]) {
        self.page_walk(addr, data.len(), Access::Write, |space, seg, r| {
            space.write(seg, &data[r])
        });
    }

    /// The one shared-access path: splits `[addr, addr+len)` at page (and,
    /// after a reshape, minipage) boundaries and runs `copy` on each
    /// segment — its address and its part of the caller's bytes — through
    /// the fault-retry loop.
    fn page_walk(
        &mut self,
        addr: VAddr,
        len: usize,
        access: Access,
        mut copy: impl FnMut(&AddressSpace, VAddr, Range<usize>) -> Result<(), AccessError>,
    ) {
        let page = self.state.space.geometry().page_size();
        let remap = self.state.home.reshaped();
        let mut off = 0usize;
        while off < len {
            let mut seg = addr.add(off);
            let into_page = (seg.0 % page as u64) as usize;
            let mut take = (page - into_page).min(len - off);
            if remap {
                if let Some((a, cap)) = self.remap_segment(seg) {
                    seg = a;
                    take = take.min(cap);
                }
            }
            let r = off..off + take;
            self.checked(seg, take, access, |space| copy(space, seg, r.clone()));
            off += take;
        }
    }

    /// After an adaptation action rewrote the MPT, application pointers
    /// may still name a retired view (its vpages are permanently
    /// NoAccess). Resolves `addr` through the redirect overlay to the
    /// active minipage covering the same physical byte and returns the
    /// rebased address in that minipage's view plus the bytes remaining
    /// to its end. Offsets within a page are identical across views, so
    /// the caller's page-boundary arithmetic stays valid; only the
    /// minipage-end cap is new.
    fn remap_segment(&self, addr: VAddr) -> Option<(VAddr, usize)> {
        let mp = self.state.home.translate(addr)?;
        let geo = self.state.space.geometry();
        let loc = geo.decode(addr)?;
        let byte = loc.page * geo.page_size() + loc.offset;
        let into = byte - mp.phys_range(geo.page_size()).start;
        Some((mp.base.add(into), mp.len - into))
    }

    // ------------------------------------------------------------------
    // Synchronization (§3.4: "common synchronization calls such as
    // barriers and locks").
    // ------------------------------------------------------------------

    /// Global barrier across all hosts. Under release consistency a
    /// barrier is a release + acquire: dirty minipages flush first.
    pub fn barrier(&mut self) {
        self.rc_flush();
        let t0 = self.clock.now();
        let (ev, w) = self.waiter();
        self.probe
            .trace(t0, TraceKind::BarrierEnter, |e| e.with_event(ev));
        let msg = Pmsg::new(MsgKind::BarrierEnter, self.host, ev);
        let c = self.request(MANAGER, msg, w, "barrier release");
        self.clock.merge(c.resume_vt);
        self.probe
            .trace(self.clock.now(), TraceKind::BarrierResume, |e| {
                e.with_event(ev)
            });
        self.breakdown
            .charge(Category::Synch, self.clock.now() - t0);
    }

    /// Acquires the queue lock `id` (blocking).
    pub fn lock(&mut self, id: u64) {
        let t0 = self.clock.now();
        let (ev, w) = self.waiter();
        self.probe
            .trace(t0, TraceKind::LockAcquireBegin, |e| e.with_event(id));
        let msg = Pmsg::new(MsgKind::LockAcquire, self.host, ev).with_aux(id);
        let c = self.request(MANAGER, msg, w, "lock grant");
        self.clock.merge(c.resume_vt);
        self.probe
            .trace(self.clock.now(), TraceKind::LockResume, |e| {
                e.with_event(id)
            });
        self.breakdown
            .charge(Category::Synch, self.clock.now() - t0);
    }

    /// Releases the queue lock `id` (fire-and-forget). Under release
    /// consistency the release flushes dirty minipages first, so the next
    /// acquirer observes them.
    pub fn unlock(&mut self, id: u64) {
        self.rc_flush();
        self.probe
            .trace(self.clock.now(), TraceKind::LockRelease, |e| {
                e.with_event(id)
            });
        let msg = Pmsg::new(MsgKind::LockRelease, self.host, 0).with_aux(id);
        self.send(MANAGER, msg, 0);
    }

    // ------------------------------------------------------------------
    // Prefetch (§4.3.1: LU's two prefetch calls) and push (§4.3: TSP's
    // best-bound broadcast).
    // ------------------------------------------------------------------

    /// Issues a non-blocking read prefetch for one allocation's bytes.
    /// A later access that arrives before the data blocks in the
    /// "Prefetch" category instead of taking a full read fault.
    pub fn prefetch_bytes(&mut self, addr: VAddr, len: usize) {
        let geo = self.state.space.geometry();
        let Some((_, vpages)) = geo.vpages_covering(addr, len) else {
            panic!("prefetch outside the shared region: {addr}+{len}");
        };
        // Skip when data is already present or a prefetch is in flight.
        // Like `register_waiter`, publish nothing and send nothing once the
        // cancel sweep ran (`aborted`); a sweep after this finds the
        // published waiter and fails it.
        {
            let mut pf = self.state.prefetch_waiters.borrow_mut();
            let first = vpages.start;
            if self.state.space.prot(first) != Prot::NoAccess || pf.contains_key(&first) {
                return;
            }
            if self.state.aborted.get() {
                return;
            }
            let w = Waiter::new();
            for vp in vpages {
                pf.entry(vp).or_insert_with(|| Arc::clone(&w));
            }
        }
        self.probe.on(self.clock.now(), Fact::Prefetch);
        let ev = self.next_event();
        let mut msg = Pmsg::new(MsgKind::ReadRequest, self.host, ev).with_addr(addr);
        msg.prefetch = true;
        let dest = self.route_home(addr, Some(Category::Comp));
        self.send(dest, msg, 0);
    }

    /// Prefetches a whole shared vector.
    pub fn prefetch_vec<T: Pod>(&mut self, sv: &SharedVec<T>) {
        if !sv.is_empty() {
            self.prefetch_bytes(sv.base(), sv.byte_len());
        }
    }

    /// Fetches a group of shared vectors as one coarse-grain unit (§5's
    /// composed views): read prefetches for every absent member go out
    /// back to back, then the thread waits for the stragglers, so the
    /// fetch latencies overlap instead of serializing fault by fault.
    ///
    /// WATER's read phase is the paper's own example: "the read phase in
    /// WATER could benefit from a coarse grain operation mode, whereas
    /// the later write phase would accelerate in a fine grain mode".
    pub fn fetch_group<T: Pod>(&mut self, members: &[SharedVec<T>]) {
        // Pipeline the requests.
        for sv in members {
            self.prefetch_vec(sv);
        }
        // Collect the outstanding waiters and drain them.
        let t0 = self.clock.now();
        let mut pending: Vec<Arc<Waiter>> = Vec::new();
        {
            let pf = self.state.prefetch_waiters.borrow();
            for sv in members {
                if sv.is_empty() {
                    continue;
                }
                let Some(vp) = self.state.space.geometry().vpage_of(sv.base()) else {
                    continue;
                };
                if let Some(w) = pf.get(&vp) {
                    if !pending.iter().any(|p| Arc::ptr_eq(p, w)) {
                        pending.push(Arc::clone(w));
                    }
                }
            }
        }
        for w in pending {
            let c = self.blocking_wait(w, "prefetch group");
            self.clock.merge(c.resume_vt);
        }
        if self.clock.now() > t0 {
            self.breakdown
                .charge(Category::Prefetch, self.clock.now() - t0);
        }
    }

    /// Pushes read copies of the cell's minipage to every host (§4.3:
    /// "pushes readable copies of the new value to all hosts").
    ///
    /// The caller must hold the writable copy (i.e. have just written it);
    /// the method downgrades the local copy to read-only and ships the
    /// data through the manager.
    pub fn push_cell<T: Pod>(&mut self, c: &SharedCell<T>) {
        self.push_bytes(c.addr(), T::SIZE);
    }

    /// Pushes read copies of the minipage containing `[addr, addr+len)`.
    pub fn push_bytes(&mut self, addr: VAddr, len: usize) {
        assert_eq!(
            self.state.consistency,
            Consistency::SequentialSwMr,
            "push requires the SW/MR protocol's exclusive ownership"
        );
        // Ensure we really hold the writable copy (fault it in if not).
        self.checked(addr, len, Access::Write, |space| {
            space.check(addr, len, Access::Write)
        });
        let geo = self.state.space.geometry();
        let (_, vpages) = geo
            .vpages_covering(addr, len)
            .expect("validated by the check above");
        let priv_addr = geo.to_priv(addr).expect("shared address");
        let data = read_priv(&self.state.space, self.host, priv_addr, len, "push source")
            .expect("validated range");
        // Downgrade our own copy before publishing, preserving SW/MR.
        let set_protection = self.state.cost.set_protection;
        for vp in vpages {
            self.state
                .space
                .set_prot(vp, Prot::ReadOnly)
                .expect("application vpage");
            self.charge_busy(set_protection);
            self.breakdown.charge(Category::Comp, set_protection);
        }
        let home = &self.state.home;
        self.probe
            .trace(self.clock.now(), TraceKind::Downgrade, |e| {
                e.with_mp(home.translate(addr).map_or(NO_MP, |mp| mp.id.0))
            });
        let mut msg = Pmsg::new(MsgKind::PushRequest, self.host, 0).with_addr(addr);
        msg.data = data;
        let payload = msg.payload_bytes();
        let dest = self.route_home(addr, Some(Category::Comp));
        self.send(dest, msg, payload);
    }

    // ------------------------------------------------------------------
    // The fault-retry loop (the millipage exception handler).
    // ------------------------------------------------------------------

    /// Runs `attempt` against the address space, resolving faults through
    /// the DSM protocol until it succeeds; then charges the local access
    /// cost and flushes pending acks.
    fn checked<R>(
        &mut self,
        addr: VAddr,
        len: usize,
        access: Access,
        mut attempt: impl FnMut(&AddressSpace) -> Result<R, AccessError>,
    ) -> R {
        let mut spins = 0u32;
        loop {
            match attempt(&self.state.space) {
                Ok(r) => {
                    let cost = self.state.cost.copy_time(len);
                    let t0 = self.clock.now();
                    self.clock.advance(cost);
                    self.breakdown.charge(Category::Comp, cost);
                    self.state.busy.record(t0, self.clock.now());
                    self.flush_acks();
                    return r;
                }
                Err(AccessError::Fault(f)) => {
                    debug_assert_eq!(f.access, access);
                    self.service_fault(f);
                    spins += 1;
                    assert!(spins < 10_000, "livelock: fault at {addr} never resolves");
                }
                Err(AccessError::Mem(e)) => {
                    panic!("shared-memory access bug at {addr}+{len}: {e}")
                }
            }
        }
    }

    /// Figure 3 "On Read or Write Fault".
    fn service_fault(&mut self, f: Fault) {
        // Yield point: a fault is where the hardware would trap out of
        // the application — a natural interleaving boundary.
        self.sched.yield_now(self.clock.now());
        // The yield may have let the server resolve this very fault (a
        // prefetch reply or push installing the page between the trap and
        // the handler). Retry the access instead of requesting a copy the
        // host already holds — the real kernel path does the same for a
        // fault on a since-mapped page.
        if self.state.space.prot(f.vpage).allows(f.access) {
            return;
        }
        // Close any service window we still hold before requesting the
        // next minipage. A multi-minipage operation (possible under the
        // page-grain baseline) would otherwise hold minipage A's window
        // while blocking on minipage B — and a peer doing the reverse
        // deadlocks with us. The real system cannot express this state:
        // each hardware fault is a single instruction, acked before the
        // next fault can occur.
        self.flush_acks();
        let consistency = self.state.consistency;
        if consistency == Consistency::HomeEagerRc && f.access == Access::Write {
            self.rc_write_fault(f);
            return;
        }
        let t0 = self.clock.now();
        if self.await_prefetch(f.vpage) {
            self.breakdown
                .charge(Category::Prefetch, self.clock.now() - t0);
            return;
        }
        let (kind, cat, end_kind) = match f.access {
            Access::Read => (
                MsgKind::ReadRequest,
                Category::ReadFault,
                TraceKind::ReadFaultEnd,
            ),
            Access::Write => (
                MsgKind::WriteRequest,
                Category::WriteFault,
                TraceKind::WriteFaultEnd,
            ),
        };
        let traced_mp = self.fault_begin(t0, f.addr, f.access == Access::Write);
        // The kernel delivers the access fault to the handler...
        self.charge_busy(self.state.cost.access_fault);
        // ...which routes the request to the minipage's home shard and
        // waits on its event. The whole span lands in the fault category.
        let dest = self.route_home(f.addr, None);
        let (ev, w) = self.waiter();
        let msg = Pmsg::new(kind, self.host, ev).with_addr(f.addr);
        let c = self.request(dest, msg, w, "fault service");
        self.clock.merge(c.resume_vt);
        self.fault_hist.record(self.clock.now() - t0);
        self.probe.trace(self.clock.now(), end_kind, |e| {
            e.with_mp(traced_mp).with_event(ev)
        });
        self.breakdown.charge(cat, self.clock.now() - t0);
        // The ack goes out only after the retried access completes, so the
        // service window at the manager covers the access (§3.3). The
        // release-consistency protocol opens no service windows.
        if consistency == Consistency::SequentialSwMr {
            self.pending_acks.push(f.addr);
        }
    }

    /// If a prefetch of `vpage` is in flight, waits for it — instead of
    /// issuing a second (competing) request — and says so.
    fn await_prefetch(&mut self, vpage: usize) -> bool {
        let pf = self.state.prefetch_waiters.borrow().get(&vpage).cloned();
        let Some(w) = pf else {
            return false;
        };
        let c = self.blocking_wait(w, "prefetch completion");
        self.clock.merge(c.resume_vt);
        true
    }

    /// Write miss under release consistency: ensure a readable copy, twin
    /// it, and upgrade the protection locally — no ownership transfer.
    fn rc_write_fault(&mut self, f: Fault) {
        let t0 = self.clock.now();
        let traced_mp = self.fault_begin(t0, f.addr, true);
        self.charge_busy(self.state.cost.access_fault);
        // Wait for an in-flight prefetch, or fetch a read copy from home.
        if !self.await_prefetch(f.vpage) && self.state.space.prot(f.vpage) == Prot::NoAccess {
            let dest = self.route_home(f.addr, None);
            let (ev, w) = self.waiter();
            let msg = Pmsg::new(MsgKind::ReadRequest, self.host, ev).with_addr(f.addr);
            let c = self.request(dest, msg, w, "rc read fetch");
            self.clock.merge(c.resume_vt);
        }
        // The reply taught us the minipage boundaries (home-allocated
        // minipages are pre-learned at the manager host).
        let info: MpInfo = *self
            .state
            .rc
            .borrow()
            .boundaries
            .get(&f.vpage)
            .expect("boundaries cached by the fetch or at allocation");
        let fresh_twin = {
            let mut rc = self.state.rc.borrow_mut();
            let fresh = !rc.dirty.contains_key(&info.id.0);
            if fresh {
                let mut twin = rc.twin_buffer(info.len);
                self.state
                    .space
                    .priv_read_into(info.priv_base, &mut twin)
                    .expect("translated minipage in range");
                rc.dirty.insert(info.id.0, RcDirty { info, twin });
            }
            fresh
        };
        if fresh_twin {
            self.charge_busy(self.state.cost.copy_time(info.len));
        }
        // Local upgrade: the MMU-level act MultiView makes cheap.
        let vpages = self
            .state
            .space
            .geometry()
            .vpages_covering(info.base, info.len)
            .expect("translated minipage in range")
            .1;
        for vp in vpages {
            self.state
                .space
                .set_prot(vp, Prot::ReadWrite)
                .expect("application vpage");
            self.charge_busy(self.state.cost.set_protection);
        }
        self.fault_hist.record(self.clock.now() - t0);
        self.probe
            .trace(self.clock.now(), TraceKind::WriteFaultEnd, |e| {
                e.with_mp(traced_mp)
            });
        self.breakdown
            .charge(Category::WriteFault, self.clock.now() - t0);
    }

    /// Release-point flush (release consistency only): diff every dirty
    /// minipage against its twin, downgrade the local copy, and ship the
    /// diffs to their homes.
    ///
    /// Under the centralized policy the diffs are fire-and-forget:
    /// ordering piggybacks on the FIFO channel to the single manager (see
    /// the `hlrc` module docs). With distributed homes the diff and the
    /// upcoming barrier/lock message travel on *different* channels, so
    /// each diff carries an event and the release blocks until every home
    /// confirms with [`MsgKind::RcDiffAck`] that the diff is applied and
    /// all stale copies are invalidated. The diffs still go out back to
    /// back first, so their round-trips overlap.
    fn rc_flush(&mut self) {
        if self.state.consistency != Consistency::HomeEagerRc {
            return;
        }
        if self.state.rc.borrow().dirty.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.flushing);
        dirty.extend(self.state.rc.borrow_mut().dirty.drain().map(|(_, d)| d));
        // An `IntMap` drains in bucket order, an artifact of its hasher
        // and capacity; ship diffs in minipage order instead, so the flush
        // sequence (and everything downstream of it — traces, costs, home
        // arrival order) is a function of the dirty set alone.
        dirty.sort_by_key(|d| d.info.id.0);
        let t0 = self.clock.now();
        let distributed = self.state.home.kind() != HomePolicyKind::Centralized;
        let mut pending: Vec<(u64, Arc<Waiter>)> = Vec::new();
        for d in dirty.drain(..) {
            // Diff + invalidate atomically per page. The local copy is
            // dropped (not downgraded): a concurrent invalidation from
            // another flusher could otherwise race this downgrade and
            // leave a stale read-only survivor. TreadMarks invalidates at
            // synchronization points the same way.
            let diff = self
                .state
                .space
                .diff_and_protect(d.info.base, &d.twin, Prot::NoAccess)
                .expect("translated minipage in range");
            self.state.rc.borrow_mut().recycle(d.twin);
            self.charge_busy(self.state.cost.diff_time(d.info.len));
            self.charge_busy(self.state.cost.set_protection);
            self.probe
                .trace(self.clock.now(), TraceKind::InvalidateLocal, |e| {
                    e.with_mp(d.info.id.0)
                });
            if diff.is_empty() {
                continue;
            }
            let ev = if distributed {
                let (ev, w) = self.waiter();
                pending.push((ev, w));
                ev
            } else {
                0
            };
            let mut msg = Pmsg::new(MsgKind::RcDiff, self.host, ev).with_addr(d.info.base);
            msg.minipage = d.info.id;
            msg.base = d.info.base;
            msg.len = d.info.len;
            msg.priv_base = d.info.priv_base;
            msg.data = diff.encode().into();
            let payload = msg.payload_bytes();
            self.probe
                .trace(self.clock.now(), TraceKind::RcDiffSend, |e| {
                    e.with_mp(d.info.id.0)
                        .with_event(ev)
                        .with_bytes(payload)
                        .with_aux(u32::from(distributed))
                });
            // The boundary cache already names the minipage, so the home
            // comes from the id map — no MPT lookup to charge.
            let dest = self.state.home.home(d.info.id);
            self.send(dest, msg, payload);
        }
        self.flushing = dirty;
        for (ev, w) in pending {
            let c = self.blocking_wait(w, "rc diff ack");
            self.clock.merge(c.resume_vt);
            self.probe
                .trace(self.clock.now(), TraceKind::RcDiffAckRecv, |e| {
                    e.with_event(ev)
                });
        }
        self.breakdown
            .charge(Category::Synch, self.clock.now() - t0);
    }

    /// Sends the post-access acks of §3.3.
    fn flush_acks(&mut self) {
        if self.pending_acks.is_empty() {
            return;
        }
        // In place: nothing an ack's send runs can queue another ack.
        for i in 0..self.pending_acks.len() {
            let addr = self.pending_acks[i];
            let msg = Pmsg::new(MsgKind::Ack, self.host, 0).with_addr(addr);
            let dest = self.route_home(addr, Some(Category::Comp));
            self.send(dest, msg, 0);
        }
        self.pending_acks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiview::{AllocMode, Allocator};
    use sim_mem::Geometry;

    fn completion(resume_vt: Ns) -> Completion {
        Completion {
            resume_vt,
            addr: VAddr(0x40),
        }
    }

    fn cancelled() -> ProtocolError {
        ProtocolError::Cancelled {
            host: HostId(0),
            what: "test",
        }
    }

    #[test]
    fn a_waiter_answers_its_first_outcome_forever() {
        let w = Waiter::new();
        assert!(w.try_result().is_none(), "open until resolved");
        w.fulfill(completion(7));
        w.fail(cancelled());
        w.fulfill(completion(9));
        for _ in 0..2 {
            assert!(matches!(w.try_result(), Some(Ok(c)) if c.resume_vt == 7));
        }
        let w = Waiter::new();
        w.fail(cancelled());
        w.fulfill(completion(7));
        for _ in 0..2 {
            assert!(matches!(
                w.try_result(),
                Some(Err(ProtocolError::Cancelled { .. }))
            ));
        }
    }

    #[test]
    fn cancel_pending_fails_every_parked_waiter() {
        let geo = Geometry::new(4, 2);
        let home = HomeTable::new(
            HomePolicyKind::Centralized,
            1,
            Allocator::new(geo.clone(), AllocMode::FINE),
        );
        let st = HostState::new(
            HostId(0),
            AddressSpace::new(geo),
            Waiters::default(),
            CostModel::default(),
            Consistency::default(),
            Rc::new(home),
            None,
        );
        let mut parked: Vec<_> = (1..4)
            .map(|ev| st.register_waiter(ev, Waiter::new()))
            .collect();
        parked.push(Waiter::new());
        st.prefetch_waiters
            .borrow_mut()
            .insert(0, Arc::clone(&parked[3]));
        assert!(parked.iter().all(|w| w.try_result().is_none()));
        st.cancel_pending();
        // A wait registered after the sweep fails at once.
        parked.push(st.register_waiter(4, Waiter::new()));
        for w in &parked {
            assert!(matches!(
                w.try_result(),
                Some(Err(ProtocolError::Cancelled { .. }))
            ));
        }
    }
}
