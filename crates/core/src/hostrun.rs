//! The real-memory backend: the protocol core on Linux `mmap`/`mprotect`.
//!
//! Everything the simulator models, this module does for real — on one
//! Linux process standing in for the cluster:
//!
//! * every "host" is a [`hostmv::MultiViewRegion`]: its own `memfd` memory
//!   object mapped through the application views plus the privileged view,
//!   so hosts genuinely hold separate copies of the shared pages;
//! * application accesses are span copies through the application view
//!   mappings — one address decode per page-span, then volatile loads or
//!   stores — so an access the MMU allows costs a load or a store and only
//!   a fault costs protocol time; a protection miss raises a **real
//!   SIGSEGV**, decoded from the signal context into the simulator's
//!   [`Fault`] (canonical address, vpage, access from `REG_ERR`; [`Prot`]
//!   is the simulator's too) and resolved by running the same
//!   request/reply protocol the simulator runs — the fault handler sends
//!   the request and sleeps on its thread's futex word until the server
//!   thread has installed the reply, opened the page and posted the
//!   completion;
//! * one real OS thread serves every host's DSM server from one
//!   user-level inbox: a ring every sender pushes into (FIFO — the ordering
//!   the protocol's correctness arguments assume) with a futex doorbell of
//!   three states — awake; asleep, woken by any push but an `Ack`; asleep
//!   with a request queued behind an open window, woken by every push —
//!   so the window-closing `Ack` wakes the server only when a request
//!   waits on it; an envelope names its host;
//! * the server is **the simulator's**: the loop here keeps one
//!   `server::Server` per host, pops an envelope — or what a server sent
//!   itself, which never enters the ring — and hands it to the named
//!   host's server to dispatch: the same router, handlers and failure
//!   policy, over this module's [`MemoryBackend`]/[`Transport`]/`LocalWake`
//!   implementations.
//!
//! The protocol stack and its post-run coherence, directory and geometry
//! checks are the simulator's (`cluster::Stack`) under `ClusterConfig`'s
//! defaults: `SequentialSwMr`, `Centralized` homes, one application thread
//! per host; no prefetch/push/locks, the surface the [`Dsm`] trait exposes.
//! The server thread builds the stack (setup included), serves it and
//! checks it, so no state of it is shared and none takes a lock. The
//! application threads and the resolver hold only a `Send + Sync` handle
//! of their host (`ThreadRt`).
//! A failed handler is reported on the run and, as in the simulator, a
//! failed request nacks its requester; there is no fault plane to degrade
//! through in one process, so the nacked thread is not retried — it
//! crashes (see `dsm_resolver`) instead of hanging.
//!
//! A run gives back what it took from the process — mappings, memfds,
//! fault-handler registry slots, its runtime — before [`run_host`] returns
//! or unwinds (see `Teardown`).
//!
//! Addresses on the wire are the canonical shared [`Geometry`] addresses
//! (every message field means the same thing as in the simulator); they
//! are translated to each host's real mapping at the memory edge
//! (`HostMemory`). The run's fault counters come straight from the
//! SIGSEGV handler, which is what makes `--backend host` reports
//! comparable with the simulator's fault counts.

use crate::backend::{LocalWake, MemoryBackend, Transport};
use crate::cluster::{assert_hosts, settle_app_failures, ClusterConfig, SetupCtx, Stack, Verdict};
use crate::diag::{DiagReport, DiagTable};
use crate::diff::Diff;
use crate::dsm::Dsm;
use crate::error::ProtocolError;
use crate::home::MANAGER;
use crate::host::HostState;
use crate::manager::ManagerShard;
use crate::msg::{MsgKind, Pmsg};
use crate::probe::{Counts, Fact, Probe};
use crate::server::Server;
use crate::shared::{fill_wire, wire_bytes, Pod, SharedVec};
use hostmv::{install_dsm_handler, FaultCounters, MultiViewRegion, Unserved};
use sim_core::trace::{TraceRecorder, Tracer, Track, NO_MP};
use sim_core::{Access, Fault, Geometry, HostId, LinkTraffic, MemFault, Ns, Prot, VAddr};
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

/// A message on its way to a host's server. The message itself moves —
/// a data reply's `Bytes` included — so nothing is encoded or copied.
struct Envelope {
    to: HostId,
    wire_from: HostId,
    msg: Pmsg,
}

/// Slots in the server inbox (88 bytes each). In flight at once: per
/// application thread one request, one ack and one barrier entry; per
/// request `hosts` invalidations and their replies, a forward and a data
/// reply — at four hosts under 60.
const INBOX_SLOTS: usize = 1024;

/// The doorbell's values: the server is running; it sleeps (or is about
/// to) on an empty ring and any push but an `Ack` wakes it; or it sleeps
/// with a request queued behind an open window, so every push wakes it.
const AWAKE: u32 = 0;
const ASLEEP: u32 = 1;
const ASLEEP_ACK_AWAITED: u32 = 2;

/// The run's one server inbox: a bounded multi-producer ring of
/// [`Envelope`]s (Vyukov's sequence-numbered slots) and a futex doorbell.
/// Every sender — application threads, the SIGSEGV resolver, the server's
/// cross-host sends — pushes into the same ring, so messages arrive in one
/// total FIFO order (the ordering the protocol's correctness arguments
/// assume); the server thread pops. A push is atomics and at most one
/// `FUTEX_WAKE`: no lock, no allocation, so the resolver may push from
/// signal context.
///
/// An `Ack` is quiet: it wakes the server only from `ASLEEP_ACK_AWAITED`.
/// It matters only to a request queued behind the window it closes, and
/// the server sleeps loud whenever one is; otherwise the `Ack` waits in
/// the ring and is popped, in order, ahead of whatever push wakes the
/// server next.
///
/// Beside the ring sits the wire's per-link traffic table: each sender
/// counts its message on its link (a server's self-sends, which skip the
/// ring, included; the run's closing `Shutdown` is no traffic).
struct Inbox {
    slots: Box<[InboxSlot]>,
    /// Next position a push claims.
    tail: AtomicUsize,
    /// Next position a pop claims.
    head: AtomicUsize,
    doorbell: AtomicU32,
    links: LinkTraffic,
}

/// One ring slot. At position `pos` (`pos % INBOX_SLOTS` is its index)
/// `seq` reads `pos` while the slot is free for the push claiming `pos`,
/// `pos + 1` once that push has written it, and `pos + INBOX_SLOTS` once
/// popped: free for the push one lap later.
struct InboxSlot {
    seq: AtomicUsize,
    env: UnsafeCell<MaybeUninit<Envelope>>,
}

// SAFETY: a slot's envelope is written only by the push that claimed its
// position on `tail` while `seq` read `pos`, and read only by the pop that
// claimed the same position on `head` once `seq` read `pos + 1` (the Release
// stores of `seq` pair with the Acquire loads), so no two threads touch one
// envelope at once; `Envelope` is `Send`. Every other field is an atomic.
unsafe impl Sync for Inbox {}

impl Inbox {
    /// An empty ring for a run of `hosts` hosts.
    fn new(hosts: usize) -> Self {
        let slots = (0..INBOX_SLOTS)
            .map(|pos| InboxSlot {
                seq: AtomicUsize::new(pos),
                env: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            doorbell: AtomicU32::new(AWAKE),
            links: LinkTraffic::new(hosts),
        }
    }

    /// Claims the next position on `counter` (`tail` for a push, `head`
    /// for a pop), whose slot's `seq` must read the position plus `ahead`;
    /// `None` if it reads less: the ring is full (a push) or empty (a pop).
    fn claim(&self, counter: &AtomicUsize, ahead: usize) -> Option<(usize, &InboxSlot)> {
        let mut pos = counter.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos % INBOX_SLOTS];
            match slot.seq.load(Ordering::Acquire).wrapping_sub(pos + ahead) as isize {
                0 => match counter.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some((pos, slot)),
                    Err(now) => pos = now,
                },
                behind if behind < 0 => return None,
                // Another thread claimed `pos` first.
                _ => pos = counter.load(Ordering::Relaxed),
            }
        }
    }

    /// Pushes `env`, or hands it back when the ring is full. Never waits:
    /// the server, the ring's reader, sends with this.
    fn try_push(&self, env: Envelope) -> Result<(), Envelope> {
        let rings_from = if env.msg.kind == MsgKind::Ack {
            ASLEEP_ACK_AWAITED
        } else {
            ASLEEP
        };
        let Some((pos, slot)) = self.claim(&self.tail, 0) else {
            return Err(env);
        };
        // SAFETY: claiming `pos` on `tail` while `seq` read `pos` makes this
        // push the slot's only user until it stores `pos + 1`.
        unsafe { (*slot.env.get()).write(env) };
        slot.seq.store(pos + 1, Ordering::Release);
        // Pairs with the fence in `pop_wait`: either the server's re-check
        // sees this slot, or the load below sees the state it sleeps in.
        fence(Ordering::SeqCst);
        // Any state but `AWAKE` swapped out means the server sleeps or is
        // about to: wake it, even from a state this push would not ring.
        if self.doorbell.load(Ordering::Relaxed) >= rings_from
            && self.doorbell.swap(AWAKE, Ordering::Relaxed) != AWAKE
        {
            futex(&self.doorbell, libc::FUTEX_WAKE_PRIVATE, 1);
        }
        Ok(())
    }

    /// Pushes `env`, yielding the CPU while the ring is full (the server is
    /// draining it). Async-signal-safe.
    fn push(&self, mut env: Envelope) {
        while let Err(back) = self.try_push(env) {
            env = back;
            std::thread::yield_now();
        }
    }

    /// The oldest envelope, unless its push has not finished.
    fn pop(&self) -> Option<Envelope> {
        let (pos, slot) = self.claim(&self.head, 1)?;
        // SAFETY: `seq` read `pos + 1`, so the push that claimed `pos` has
        // written the envelope; claiming `pos` on `head` makes this pop its
        // only reader.
        let env = unsafe { (*slot.env.get()).assume_init_read() };
        slot.seq.store(pos + INBOX_SLOTS, Ordering::Release);
        Some(env)
    }

    /// The oldest envelope, sleeping on the doorbell while there is none:
    /// in `ASLEEP_ACK_AWAITED` if `ack_awaited`, else in `ASLEEP`.
    fn pop_wait(&self, mut ack_awaited: bool) -> Envelope {
        loop {
            if let Some(env) = self.pop() {
                return env;
            }
            let asleep = if ack_awaited {
                ASLEEP_ACK_AWAITED
            } else {
                ASLEEP
            };
            self.doorbell.store(asleep, Ordering::Relaxed);
            // Pairs with the fence in `try_push`.
            fence(Ordering::SeqCst);
            let env = self.pop();
            if env.is_none() {
                if asleep == ASLEEP
                    && self.tail.load(Ordering::Relaxed) != self.head.load(Ordering::Relaxed)
                {
                    // A push has claimed the oldest slot and not written it
                    // yet. If it is a quiet `Ack`, nothing rings for the
                    // pushes behind it: sleep loud instead.
                    ack_awaited = true;
                    continue;
                }
                // Returns at once if a push has rung since the store.
                futex(&self.doorbell, libc::FUTEX_WAIT_PRIVATE, asleep);
            }
            self.doorbell.store(AWAKE, Ordering::Relaxed);
            if let Some(env) = env {
                return env;
            }
        }
    }
}

impl Drop for Inbox {
    /// Releases what is still queued (a data reply's `Bytes`, say).
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

fn backend_err(host: HostId, what: &'static str) -> ProtocolError {
    ProtocolError::Backend {
        host,
        what,
        errno: std::io::Error::last_os_error().raw_os_error().unwrap_or(0),
    }
}

/// One host's [`Transport`] into the run's server inbox. The server thread
/// is the inbox's reader, so it never waits for room: a full ring is a
/// `Backend` error (`EAGAIN`) that fails the request being served, whose
/// requester is nacked.
///
/// Its clock is the monotonic clock as the server loop read it when the
/// message in hand arrived (nanoseconds since the loop started — enough
/// for window bookkeeping and stamps): real work takes real time, so a
/// charge is a no-op. One read per message: a handler asks for the time
/// ten to fifteen times.
struct RingTransport<'a> {
    me: HostId,
    inbox: &'a Inbox,
    /// What this server sent itself, served before the loop's next pop
    /// (self→self is its own link, so per-link FIFO holds).
    to_self: VecDeque<Envelope>,
    stamp: Ns,
}

impl<'a> RingTransport<'a> {
    /// The transport of host `me`'s server into `inbox`.
    fn new(me: HostId, inbox: &'a Inbox) -> Self {
        Self {
            me,
            inbox,
            to_self: VecDeque::new(),
            stamp: 0,
        }
    }

    /// Reads the wall clock for the message in hand.
    fn read_clock(&mut self, start: Instant) {
        self.stamp = start.elapsed().as_nanos() as Ns;
    }
}

impl Transport for RingTransport<'_> {
    fn now(&self) -> Ns {
        self.stamp
    }

    fn charge(&mut self, _dt: Ns) -> Ns {
        self.stamp
    }

    fn send(
        &mut self,
        to: HostId,
        msg: Pmsg,
        _payload: usize,
        what: &'static str,
    ) -> Result<Ns, ProtocolError> {
        let (wire_from, bytes) = (self.me, msg.data.len() as u64);
        let env = Envelope { to, wire_from, msg };
        if to == self.me {
            self.to_self.push_back(env);
        } else {
            self.inbox
                .try_push(env)
                .map_err(|_| ProtocolError::Backend {
                    host: self.me,
                    what,
                    errno: libc::EAGAIN,
                })?;
        }
        // Counted once queued: a refused push is no traffic.
        self.inbox.links.record(self.me, to, bytes);
        Ok(self.stamp)
    }
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

/// One host's [`MemoryBackend`] over its real [`MultiViewRegion`].
/// Canonical [`Geometry`] addresses — the region's own
/// [`geometry`](MultiViewRegion::geometry) — are decoded here and mapped
/// onto the region's identical (view, page, offset) layout.
struct HostMemory {
    region: Arc<MultiViewRegion>,
}

impl HostMemory {
    /// Decodes a canonical address (any view — every view aliases the same
    /// physical pages, exactly like the sim's privileged accessors) into a
    /// physical (page, offset), with the `len` bytes from it inside the
    /// memory object.
    fn priv_loc(&self, addr: VAddr, len: usize) -> Result<(usize, usize), MemFault> {
        let geo = self.geometry();
        let out = MemFault::OutOfRange { addr, len };
        let loc = geo.decode(addr).ok_or(out)?;
        if loc.offset + len > (geo.pages() - loc.page) * geo.page_size() {
            return Err(out);
        }
        Ok((loc.page, loc.offset))
    }
}

impl MemoryBackend for HostMemory {
    fn geometry(&self) -> &Geometry {
        self.region.geometry()
    }

    fn prot(&self, vpage: usize) -> Prot {
        let geo = self.geometry();
        let (view, page) = (vpage / geo.pages(), vpage % geo.pages());
        if view >= geo.priv_view() {
            return Prot::ReadWrite;
        }
        self.region.prot(view, page)
    }

    fn set_prot(&self, vpage: usize, prot: Prot) -> Result<(), MemFault> {
        let geo = self.geometry();
        let (view, page) = (vpage / geo.pages(), vpage % geo.pages());
        if view >= geo.priv_view() {
            return Err(MemFault::Privileged { vpage });
        }
        self.region
            .protect(view, page, prot)
            .map_err(|_| MemFault::OutOfRange {
                addr: VAddr(0),
                len: 0,
            })
    }

    fn priv_read_into(&self, addr: VAddr, out: &mut [u8]) -> Result<(), MemFault> {
        let (page, offset) = self.priv_loc(addr, out.len())?;
        self.region.priv_read_into(page, offset, out);
        Ok(())
    }

    fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemFault> {
        let (page, offset) = self.priv_loc(addr, data.len())?;
        self.region.priv_write(page, offset, data);
        Ok(())
    }

    /// The privileged view is plain mapped memory, so there is no page to
    /// borrow: one check of the whole range, then one copy per run.
    fn apply_diff(&self, priv_base: VAddr, diff: &Diff) -> Result<(), MemFault> {
        self.priv_loc(priv_base, diff.source_len())?;
        for (off, bytes) in diff.iter_runs() {
            self.priv_write(priv_base.add(off), bytes)?;
        }
        Ok(())
    }

    fn diff_and_protect(&self, addr: VAddr, twin: &[u8], prot: Prot) -> Result<Diff, MemFault> {
        // Copy first, then revoke: same order the sim's eviction uses.
        // (Unused under SequentialSwMr — present for trait completeness.)
        let geo = self.geometry();
        let out = MemFault::OutOfRange {
            addr,
            len: twin.len(),
        };
        let priv_addr = geo.to_priv(addr).ok_or(out)?;
        let mut current = vec![0u8; twin.len()];
        self.priv_read_into(priv_addr, &mut current)?;
        let (_, range) = geo.vpages_covering(addr, twin.len()).ok_or(out)?;
        for vp in range {
            self.set_prot(vp, prot)?;
        }
        Ok(Diff::compute(twin, &current))
    }
}

/// A [`Completion`] with nothing posted since it was last armed.
const ARMED: u32 = u32::MAX;
const NACK: u32 = MsgKind::Nack as u32;

/// One application thread's completion word. The thread arms it, sends a
/// request and sleeps on it (`FUTEX_WAIT`); the server thread posts the
/// kind that completes the request — a `Nack` for a failure — and wakes it
/// (`FUTEX_WAKE`). Atomics and one bare syscall each way: the fault
/// resolver may use it from signal context. A `Nack` sticks, so a failure
/// that lands while no request is outstanding (a handler that fails after
/// its reply was posted) is what the next wait reports.
struct Completion(AtomicU32);

impl Completion {
    /// Stores `word` over anything but a `Nack`.
    fn set(&self, word: u32, order: Ordering) {
        let unless_nack = |old| (old != NACK).then_some(word);
        let _ = self.0.fetch_update(order, Ordering::Relaxed, unless_nack);
    }

    /// Forgets the last completion, unless it is a `Nack`.
    fn arm(&self) {
        self.set(ARMED, Ordering::Relaxed);
    }

    /// Posts `kind` and wakes the waiter. Release, paired with the Acquire
    /// load in `wait`: the waiter sees what the server did before posting.
    fn post(&self, kind: MsgKind) {
        self.set(kind as u32, Ordering::Release);
        futex(&self.0, libc::FUTEX_WAKE_PRIVATE, 1);
    }

    /// Sleeps until a post lands since the last `arm`; returns its kind.
    fn wait(&self) -> Option<MsgKind> {
        loop {
            let kind = self.0.load(Ordering::Acquire);
            if kind != ARMED {
                return MsgKind::from_u8(kind as u8);
            }
            // Returns at once unless the word still reads `ARMED`, and on
            // any signal; the load above decides.
            futex(&self.0, libc::FUTEX_WAIT_PRIVATE, ARMED);
        }
    }
}

fn futex(word: &AtomicU32, op: libc::c_int, val: u32) {
    let no_timeout = std::ptr::null::<libc::c_void>();
    // SAFETY: a futex call on a live, aligned word; `FUTEX_WAKE` ignores
    // the timeout.
    unsafe { libc::syscall(libc::SYS_futex, word.as_ptr(), op, val, no_timeout) };
}

/// The host backend's [`LocalWake`]: posts to the completion word of the
/// host's (single) application thread. A failure posts a `Nack`, which
/// crashes the thread cleanly (see [`dsm_resolver`]).
struct CompletionTx(Arc<Completion>);

impl LocalWake for CompletionTx {
    fn wake(
        &self,
        _host: HostId,
        m: &Pmsg,
        _what: &'static str,
        outcome: Result<Ns, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        self.0.post(outcome.map_or(MsgKind::Nack, |_| m.kind));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Every application thread's (fixed) event id — events are per-host
/// scoped, so a constant nonzero id is protocol-valid.
const EVENT: u64 = 1;

/// What an application thread and the fault resolver hold of their host,
/// one per host (the host backend runs one application thread per host):
/// `Send + Sync`, unlike the host's [`HostState`], which stays on the
/// server thread.
struct ThreadRt {
    host: HostId,
    /// The word the host's [`CompletionTx`] posts to, which this thread
    /// sleeps on while a request is outstanding.
    done: Arc<Completion>,
    /// Where the thread's facts go.
    counts: Arc<Counts>,
    diag: Option<Arc<DiagTable>>,
    /// Canonical address of the last serviced fault, still owing the
    /// manager its window-closing `Ack` (0 = none). Set by the resolver,
    /// drained at the next fault, after each range operation, and before
    /// every barrier.
    pending_ack: AtomicU64,
}

/// One run's runtime, shared by its server thread, application threads and
/// the SIGSEGV resolver, which reaches it from signal context through a
/// plain pointer (the registration token). [`Teardown`] keeps it alive
/// until the run's registrations are retired.
struct HostRt {
    inbox: Inbox,
    threads: Vec<ThreadRt>,
    /// `vpage → (minipage id, base address)`, built once after setup (the
    /// host backend takes no runtime allocations), so the resolver can
    /// attribute a raw fault to its minipage without translation machinery.
    /// `(u32::MAX, 0)` marks an unallocated vpage. Empty when diagnostics
    /// are off.
    mp_map: Vec<(u32, u64)>,
}

thread_local! {
    /// Index of this application thread in [`HostRt::threads`]
    /// (`usize::MAX` on non-application threads). Const-initialized: the
    /// first read from signal context takes no lazy-init path.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

impl HostRt {
    /// Stops the server thread: a `Shutdown`, which is no traffic.
    fn shut_down(&self) {
        let msg = Pmsg::new(MsgKind::Shutdown, MANAGER, 0);
        let (to, wire_from) = (MANAGER, MANAGER);
        self.inbox.push(Envelope { to, wire_from, msg });
    }

    /// Sends header-only `msg` to `to`'s server. Async-signal-safe.
    fn send(&self, to: HostId, wire_from: HostId, msg: Pmsg) {
        self.inbox.links.record(wire_from, to, 0);
        self.inbox.push(Envelope { to, wire_from, msg });
    }

    /// Flushes the thread's pending window-closing `Ack`, if any: a quiet
    /// push (see [`Inbox`]). Async-signal-safe.
    fn flush_ack(&self, th: &ThreadRt) {
        // Nothing owed is the common case: a plain load, not a locked swap
        // (only this thread stores to the word, so it reads its own store).
        if th.pending_ack.load(Ordering::Relaxed) == 0 {
            return;
        }
        let addr = th.pending_ack.swap(0, Ordering::AcqRel);
        if addr == 0 {
            return;
        }
        // Figure 3's fault-service confirmation: event 0, addressed so the
        // manager can translate it back to the minipage. Centralized homes:
        // every window lives at the manager.
        let ack = Pmsg::new(MsgKind::Ack, th.host, 0).with_addr(VAddr(addr));
        self.send(MANAGER, th.host, ack);
    }
}

/// The DSM fault resolver: runs on the faulting application thread, in
/// signal context. Sends the read/write request the paper's fault handler
/// sends, then sleeps on the thread's completion word until this host's
/// server has installed the reply and opened the page. Everything on this
/// path is async-signal-safe: atomics, const-init TLS, a ring push,
/// `futex`.
fn dsm_resolver(_region: &MultiViewRegion, fault: &Fault, token: usize) -> Result<(), Unserved> {
    // SAFETY: `token` is the HostRt pointer installed alongside the
    // handler; the run's `Teardown` frees it only after retiring the
    // registration this call came through.
    let rt = unsafe { &*(token as *const HostRt) };
    let slot = SLOT.with(|s| s.get());
    if slot == usize::MAX {
        return Err(Unserved {
            reason: "fault off the application threads",
        });
    }
    let th = &rt.threads[slot];
    rt.flush_ack(th);
    let (addr, write) = (fault.addr, fault.access == Access::Write);
    let kind = if write {
        MsgKind::WriteRequest
    } else {
        MsgKind::ReadRequest
    };
    // The fault fact, at the point the sim's fault paths record it: a
    // table lookup plus relaxed atomic adds. A fault on an unmapped vpage
    // attributes to `NO_MP`, which the table counts as overflow.
    let (mp, base) = rt.mp_map.get(fault.vpage).copied().unwrap_or((NO_MP, 0));
    let off = addr.0.saturating_sub(base);
    // A probe that traces nothing records with relaxed atomics on
    // pre-allocated cells: legal here.
    let mut probe = Probe::new(th.host, &th.counts, &th.diag, TraceRecorder::disabled());
    probe.on(0, Fact::FaultBegin { mp, write, off });
    let req = Pmsg::new(kind, th.host, EVENT).with_addr(addr);
    th.done.arm();
    rt.send(MANAGER, th.host, req);
    // Sleep until the server thread posts the install. The completion
    // carries no data — the bytes went straight into the region through
    // the privileged view (the zero-copy receive path).
    let served = matches!(
        th.done.wait(),
        Some(MsgKind::ReadReply | MsgKind::WriteReply)
    );
    if !served {
        return Err(Unserved {
            reason: "request nacked",
        });
    }
    th.pending_ack.store(addr.0, Ordering::Release);
    Ok(())
}

// ---------------------------------------------------------------------------
// Server loop
// ---------------------------------------------------------------------------

/// A manager shard of the host backend. Like the states it holds, it never
/// leaves the server thread.
type HostShard = ManagerShard<HostMemory, CompletionTx>;

/// The server of `state`'s host, sending into `inbox`. Its probe traces
/// nothing: the host backend has no tracer.
fn ring_server<'a>(
    state: &Rc<HostState<HostMemory, CompletionTx>>,
    shard: HostShard,
    inbox: &'a Inbox,
) -> Server<HostMemory, CompletionTx, RingTransport<'a>> {
    let probe = state.probe(&Tracer::disabled(), Track::Server);
    let wire = RingTransport::new(state.host, inbox);
    Server::new(Rc::clone(state), shard, wire, probe)
}

/// Every host's DSM server on one thread: the real-thread analogue of
/// [`Server::turn`] — a pop off the inbox (self-sends first) and one clock
/// read in front of the same per-message engine ([`Server::dispatch`]),
/// run by the server of the host the envelope names. Hands back the errors
/// the servers degraded through, in occurrence order (fatal to the
/// affected request; a non-empty list fails the run report), and the
/// shards, in host order, for the post-run checks.
fn host_server_loop(
    inbox: &Inbox,
    mut servers: Vec<Server<HostMemory, CompletionTx, RingTransport<'_>>>,
) -> (Vec<String>, Vec<HostShard>) {
    let start = Instant::now();
    let mut errors = Vec::new();
    loop {
        let sent_to_self = servers.iter_mut().find_map(|s| s.wire.to_self.pop_front());
        let Envelope { to, wire_from, msg } = sent_to_self.unwrap_or_else(|| {
            // Only this thread changes the shards, so what they await
            // holds until the next pop.
            inbox.pop_wait(servers.iter().any(|s| s.shard.awaits_ack()))
        });
        let Some(server) = servers.get_mut(to.index()) else {
            errors.push(format!("server: a message for h{}, not in this run", to.0));
            continue;
        };
        if msg.kind == MsgKind::Shutdown {
            break;
        }
        server.wire.read_clock(start);
        server.dispatch(msg, wire_from);
        errors.append(&mut server.errors);
    }
    (errors, servers.into_iter().map(|s| s.shard).collect())
}

// ---------------------------------------------------------------------------
// Application context
// ---------------------------------------------------------------------------

/// One application thread's context on the real-memory backend. Shared
/// accesses are span copies through the host's application view mappings;
/// protection misses raise real SIGSEGVs resolved by `dsm_resolver`.
pub struct HostDsmCtx {
    rt: Arc<HostRt>,
    slot: usize,
    region: Arc<MultiViewRegion>,
    /// Virtual compute charged by the portable kernels (tallied for
    /// reporting; wall time passes by itself here).
    compute_ns: Ns,
}

impl HostDsmCtx {
    /// Calls `copy(view, page, offset, bytes)` for every page-span of
    /// `[addr, addr+len)`, lowest first: one address decode per span. The
    /// view is the *application* view the address names — its MMU check is
    /// the coherence protocol's trigger.
    fn for_each_span(
        &self,
        addr: VAddr,
        len: usize,
        mut copy: impl FnMut(usize, usize, usize, Range<usize>),
    ) {
        let geo = self.region.geometry();
        let mut done = 0;
        while done < len {
            let loc = geo.decode(addr.add(done)).expect("shared address in range");
            let take = (geo.page_size() - loc.offset).min(len - done);
            copy(loc.view, loc.page, loc.offset, done..done + take);
            done += take;
        }
    }
}

impl Dsm for HostDsmCtx {
    fn host(&self) -> HostId {
        self.rt.threads[self.slot].host
    }

    fn hosts(&self) -> usize {
        self.rt.threads.len()
    }

    fn read_into<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, out: &mut [T]) {
        if out.is_empty() {
            return;
        }
        let (addr, len) = sv.range_bytes(start, start + out.len());
        fill_wire(out, |bytes| {
            self.for_each_span(addr, len, |view, page, offset, span| {
                self.region.read_span(view, page, offset, &mut bytes[span]);
            });
            self.rt.flush_ack(&self.rt.threads[self.slot]);
        });
    }

    fn write_range<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, vals: &[T]) {
        if vals.is_empty() {
            return;
        }
        let (addr, len) = sv.range_bytes(start, start + vals.len());
        let bytes = wire_bytes(vals);
        self.for_each_span(addr, len, |view, page, offset, span| {
            self.region.write_span(view, page, offset, &bytes[span]);
        });
        self.rt.flush_ack(&self.rt.threads[self.slot]);
    }

    fn barrier(&mut self) {
        let rt = &self.rt;
        let th = &rt.threads[self.slot];
        rt.flush_ack(th);
        let host = th.host;
        th.done.arm();
        rt.send(MANAGER, host, Pmsg::new(MsgKind::BarrierEnter, host, EVENT));
        // A `Nack` — a failed handler, or a sibling thread that failed —
        // unwinds typed, into the run's errors; anything else but the
        // release is a protocol breach.
        match th.done.wait() {
            Some(MsgKind::BarrierRelease) => {}
            Some(MsgKind::Nack) => {
                std::panic::panic_any(ProtocolError::Nacked { host, event: EVENT })
            }
            k => panic!("unexpected completion {k:?}"),
        }
    }

    fn timer_reset(&mut self) {
        self.compute_ns = 0;
    }

    fn compute(&mut self, ns: Ns) {
        self.compute_ns += ns;
    }
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

/// Configuration of a real-memory run.
#[derive(Clone, Debug)]
pub struct HostRunConfig {
    /// Hosts (one region + one app thread each; one server thread for all).
    pub hosts: usize,
    /// Application views per host.
    pub views: usize,
    /// Pages in the shared memory object.
    pub pages: usize,
    /// Per-minipage sharing diagnostics (see [`crate::diag`]); the same
    /// counters the simulator records, taken from the real fault and
    /// invalidation paths. Off by default.
    pub diag: bool,
    /// Online adaptation (see [`crate::adapt`]), *home migration* only:
    /// applications hold raw pointers into their view, so the granularity
    /// rewrites (split/merge move minipages to fresh views) are off here
    /// whatever this config allows.
    pub adapt: crate::adapt::AdaptConfig,
}

impl Default for HostRunConfig {
    fn default() -> Self {
        Self {
            hosts: 2,
            views: 4,
            pages: 64,
            diag: false,
            adapt: crate::adapt::AdaptConfig::default(),
        }
    }
}

/// What a real-memory run reports: real fault counts from the SIGSEGV
/// handler, wall time, and any errors or check violations (none if clean).
#[derive(Clone, Debug)]
pub struct HostRunReport {
    /// Read faults taken per host (SIGSEGV handler counters).
    pub read_faults: Vec<u64>,
    /// Write faults taken per host.
    pub write_faults: Vec<u64>,
    /// Invalidations applied per host.
    pub invalidations: Vec<u64>,
    /// Wall-clock duration of the application phase.
    pub wall: std::time::Duration,
    /// Virtual compute tallied by host 0's kernels (comparison aid).
    pub compute_ns: Ns,
    /// Server-side protocol/backend errors, then the typed errors the
    /// application threads unwound with, then the post-run coherence,
    /// directory and geometry violations; non-empty: not trustworthy.
    pub errors: Vec<String>,
    /// Sharing diagnostics; `None` unless [`HostRunConfig::diag`] was set.
    pub diag: Option<DiagReport>,
    /// Adaptation actions (merged across shards); `None` unless
    /// [`HostRunConfig::adapt`] was enabled.
    pub adapt: Option<crate::adapt::AdaptReport>,
}

impl HostRunReport {
    /// Total faults (read + write) across all hosts.
    pub fn total_faults(&self) -> u64 {
        self.read_faults.iter().sum::<u64>() + self.write_faults.iter().sum::<u64>()
    }
}

/// What a run holds of the process beyond its locals. Dropped after the
/// threads are joined — run finished, application panicked or assembly
/// failed — it retires the registrations (freeing their slots, letting the
/// regions unmap) and only then lets go of the runtime, which the resolver
/// reaches through the registrations' token.
struct Teardown {
    registrations: Vec<FaultCounters>,
    rt: Arc<HostRt>,
}

impl Drop for Teardown {
    fn drop(&mut self) {
        for r in &self.registrations {
            r.retire();
        }
    }
}

/// The server thread's whole run: builds the stack for `cfg` over
/// `regions` (setup included), hands the runtime and what setup returned
/// to `built`, serves every host until `Shutdown`, then checks the stack.
/// Returns the errors the servers degraded through and the verdict.
fn host_server<T>(
    cfg: &ClusterConfig,
    regions: &[Arc<MultiViewRegion>],
    setup: impl FnOnce(&mut SetupCtx) -> T,
    built: mpsc::Sender<(Arc<HostRt>, T)>,
) -> (Vec<String>, Verdict) {
    let geo = regions[0].geometry().clone();
    let per_host = |host: HostId| {
        let done = Arc::new(Completion(AtomicU32::new(ARMED)));
        let region = Arc::clone(&regions[host.index()]);
        (HostMemory { region }, CompletionTx(done))
    };
    let (stack, shards, shared) = Stack::new(cfg, geo.clone(), per_host, setup);
    let states = &stack.states;
    // Setup has run, so the minipage table is final: freeze its vpage →
    // minipage attribution map for the resolver, which runs in signal
    // context on another thread and so may not read the table.
    let mut mp_map = Vec::new();
    if stack.diag.is_some() {
        mp_map = vec![(NO_MP, 0u64); geo.priv_view() * geo.pages()];
        for mp in stack.home.table.borrow().mpt().iter() {
            for vp in mp.vpages(&geo) {
                if let Some(slot) = mp_map.get_mut(vp) {
                    *slot = (mp.id.0, mp.base.0);
                }
            }
        }
    }
    let rt = Arc::new(HostRt {
        inbox: Inbox::new(cfg.hosts),
        threads: states
            .iter()
            .map(|s| ThreadRt {
                host: s.host,
                done: Arc::clone(&s.waiters.0),
                counts: Arc::clone(&s.counts),
                diag: s.diag.clone(),
                pending_ack: AtomicU64::new(0),
            })
            .collect(),
        mp_map,
    });
    let inbox = &rt.inbox;
    let servers = states
        .iter()
        .zip(shards)
        .map(|(state, shard)| ring_server(state, shard, inbox))
        .collect();
    built
        .send((Arc::clone(&rt), shared))
        .expect("the caller waits for the runtime");
    let (errors, shards) = host_server_loop(inbox, servers);
    (errors, stack.check(&shards, &inbox.links))
}

/// Runs `setup` then one application thread per host on real memory —
/// the host-backend analogue of [`crate::run`].
///
/// The protocol layer (manager shards, serve/install/invalidate engine) is
/// the same code the simulator runs; memory is per-host
/// [`MultiViewRegion`]s, faults are real SIGSEGVs, the wire is one
/// in-process server inbox between real OS threads, and a blocked
/// application thread sleeps on a futex word the server posts its
/// completion to. One server thread builds the protocol stack, runs
/// `setup` on it, serves it and checks it; this thread installs the fault
/// handlers and runs the application threads.
///
/// The failure policy is [`crate::run`]'s: an application thread's panic
/// is caught and posts a `Nack` to every host's completion word, where it
/// sticks, so a sibling waiting on a barrier — now or at its next one —
/// unwinds with [`ProtocolError::Nacked`] instead of sleeping for good.
/// Once every application thread has joined, the server is shut down;
/// then the first panic whose payload is not a [`ProtocolError`] is
/// re-raised, and typed ones are reported in [`HostRunReport::errors`]. A
/// thread nacked while it waits inside the SIGSEGV resolver cannot unwind
/// from there: the resolver declines the fault, and the process dies of
/// it.
///
/// # Errors
///
/// Setup failures (region mapping, handler registration) are
/// returned; protocol errors during the run surface in
/// [`HostRunReport::errors`].
///
/// # Panics
///
/// Panics, before mapping anything, if `cfg.hosts` is outside
/// `1..=HostId::MAX_HOSTS` (copysets are `u64` bitmasks), with a panic of
/// `setup`, and with the first application panic that is not a
/// [`ProtocolError`].
pub fn run_host<T, F>(
    cfg: HostRunConfig,
    setup: impl FnOnce(&mut SetupCtx) -> T + Send,
    app: F,
) -> Result<HostRunReport, ProtocolError>
where
    T: Send + Sync,
    F: Fn(&mut HostDsmCtx, &T) + Send + Sync,
{
    assert_hosts(cfg.hosts);
    // Staged until the fault handler is installed: set-up's protections
    // (one per allocated vpage) land in runs, not one `mprotect` each.
    let mut regions = Vec::with_capacity(cfg.hosts);
    for h in 0..cfg.hosts {
        let region = MultiViewRegion::new_staged(cfg.pages, cfg.views)
            .map_err(|_| backend_err(HostId(h as u16), "region mapping"))?;
        regions.push(Arc::new(region));
    }
    // The rest is the simulator's default: centralized homes, SW/MR,
    // fine-grain allocation, one application thread per host.
    let cluster = ClusterConfig {
        hosts: cfg.hosts,
        views: cfg.views,
        pages: cfg.pages,
        diag: cfg.diag,
        adapt: crate::adapt::AdaptConfig {
            // Raw application pointers: granularity rewrites are sim-only.
            // Migration is safe — addresses are stable.
            regranulate: false,
            ..cfg.adapt
        },
        ..ClusterConfig::default()
    };
    let (regions, app) = (&regions, &app);
    let (built, runtime) = mpsc::channel();
    std::thread::scope(|scope| {
        let server = std::thread::Builder::new()
            .name("mv-server".to_string())
            .spawn_scoped(scope, move || host_server(&cluster, regions, setup, built))
            .expect("spawn server thread");
        let Ok((rt, shared)) = runtime.recv() else {
            // Only a panic of `setup` stops the server before it sends.
            let payload = server.join().err().expect("the server sent no runtime");
            std::panic::resume_unwind(payload);
        };
        let token = Arc::as_ptr(&rt) as usize;
        let mut run = Teardown {
            registrations: Vec::with_capacity(cfg.hosts),
            rt,
        };
        for (h, region) in regions.iter().enumerate() {
            let installed = region
                .apply_staged()
                .map_err(|_| backend_err(HostId(h as u16), "set-up protections"))
                .and_then(|_| {
                    install_dsm_handler(Arc::clone(region), dsm_resolver, token)
                        .map_err(|_| backend_err(MANAGER, "fault handler registration"))
                });
            match installed {
                Ok(c) => run.registrations.push(c),
                Err(e) => {
                    run.rt.shut_down();
                    server.join().expect("server thread panicked");
                    return Err(e);
                }
            }
        }

        let start = Instant::now();
        let (compute, failures): (Vec<Ns>, Vec<_>) = std::thread::scope(|scope| {
            let apps: Vec<_> = (0..cfg.hosts)
                .map(|h| {
                    let (region, rt) = (Arc::clone(&regions[h]), Arc::clone(&run.rt));
                    let shared = &shared;
                    let builder = std::thread::Builder::new().name(format!("mv-host-{h}"));
                    let body = move || {
                        SLOT.with(|s| s.set(h));
                        let mut ctx = HostDsmCtx {
                            rt,
                            slot: h,
                            region,
                            compute_ns: 0,
                        };
                        let app = std::panic::AssertUnwindSafe(|| app(&mut ctx, shared));
                        let failure = std::panic::catch_unwind(app).err();
                        // A failed thread nacks every host's completion
                        // word, and the `Nack` sticks: a sibling waiting on
                        // its barrier, or waiting next, unwinds instead of
                        // sleeping for good.
                        if failure.is_some() {
                            ctx.rt
                                .threads
                                .iter()
                                .for_each(|th| th.done.post(MsgKind::Nack));
                        }
                        (ctx.compute_ns, failure)
                    };
                    builder.spawn_scoped(scope, body).expect("spawn app thread")
                })
                .collect();
            apps.into_iter()
                .map(|a| a.join().expect("application thread panicked"))
                .unzip()
        });
        let wall = start.elapsed();
        run.rt.shut_down();
        let (mut errors, verdict) = server.join().expect("server thread panicked");
        settle_app_failures(failures.into_iter().flatten(), &mut errors);
        errors.extend(verdict.violations);
        Ok(HostRunReport {
            read_faults: run.registrations.iter().map(|c| c.read_faults()).collect(),
            write_faults: run.registrations.iter().map(|c| c.write_faults()).collect(),
            invalidations: run
                .rt
                .threads
                .iter()
                .map(|th| th.counts.invalidations_received.load(Ordering::Relaxed))
                .collect(),
            wall,
            compute_ns: compute[0],
            errors,
            diag: verdict.diag,
            adapt: verdict.adapt,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sim_core::DEFAULT_BASE;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// A message that wakes a sleeping reader (an `Ack` does not).
    fn envelope(from: u16, event: u64) -> Envelope {
        let msg = Pmsg::new(MsgKind::BarrierEnter, HostId(from), event);
        let (to, wire_from) = (HostId(0), HostId(from));
        Envelope { to, wire_from, msg }
    }

    fn shutdown(to: HostId) -> Envelope {
        let msg = Pmsg::new(MsgKind::Shutdown, HostId(0), 0);
        let wire_from = HostId(0);
        Envelope { to, wire_from, msg }
    }

    /// Producer threads and the reader's own pushes (the server's
    /// cross-host sends, which never wait, so some find the ring full)
    /// share one ring: each producer's messages arrive in the order it
    /// pushed them, and none is lost or duplicated. Every other push is a
    /// quiet `Ack`, which wakes nobody, and the reader sleeps in `ASLEEP`:
    /// what wakes it is the next loud push, also when a quiet one is still
    /// half done in front of it — each producer ends on a loud one.
    #[test]
    fn every_producer_arrives_in_order_and_the_total_is_exact() {
        const PRODUCERS: u16 = 4;
        const EACH: u64 = 20_000;
        let push = |from, i| {
            let mut env = envelope(from, i);
            if i % 2 == 0 {
                env.msg.kind = MsgKind::Ack;
            }
            env
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let inbox = Inbox::new(1);
            std::thread::scope(|scope| {
                for p in 0..PRODUCERS {
                    let inbox = &inbox;
                    scope.spawn(move || (0..EACH).for_each(|i| inbox.push(push(p, i))));
                }
                let mut next = [0u64; PRODUCERS as usize];
                let (mut own_sent, mut own_seen) = (0, 0);
                while next.iter().any(|&n| n < EACH) || own_seen < own_sent {
                    let env = inbox.pop_wait(false);
                    let Some(next) = next.get_mut(env.wire_from.index()) else {
                        assert_eq!(env.msg.event, own_seen, "own pushes");
                        own_seen += 1;
                        continue;
                    };
                    assert_eq!(env.msg.event, *next, "producer {}", env.wire_from.0);
                    *next += 1;
                    if inbox.try_push(push(PRODUCERS, own_sent)).is_ok() {
                        own_sent += 1;
                    }
                }
                assert!(own_sent > 0);
            });
            assert!(inbox.pop().is_none());
            done_tx.send(()).expect("report");
        });
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(60)) {
            panic!("the reader did not finish: a push stranded behind a quiet one?");
        }
        reader.join().expect("reader");
    }

    /// A ping-pong over two rings: each side sleeps on its doorbell until
    /// the other pushes, so one lost wake-up stalls the exchange for good.
    #[test]
    fn no_wake_up_is_lost() {
        const ROUNDS: u64 = 100_000;
        let (ping, pong) = (Arc::new(Inbox::new(1)), Arc::new(Inbox::new(1)));
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || (0..ROUNDS).for_each(|_| pong.push(ping.pop_wait(false))))
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let pinger = std::thread::spawn(move || {
            for i in 0..ROUNDS {
                ping.push(envelope(0, i));
                assert_eq!(pong.pop_wait(false).msg.event, i);
            }
            done_tx.send(()).expect("report");
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a wake-up was lost");
        pinger.join().expect("pinger");
        echo.join().expect("echo");
    }

    /// Envelopes still queued when the ring is dropped go with it: the
    /// data they carry is released.
    #[test]
    fn a_dropped_ring_releases_what_it_holds() {
        let data = Bytes::from(vec![7u8; 4096]);
        let inbox = Inbox::new(1);
        for event in 0..3 {
            let mut env = envelope(1, event);
            env.msg.data = data.clone();
            inbox.push(env);
        }
        assert!(inbox.pop().is_some());
        assert!(!data.is_unique());
        drop(inbox);
        assert!(data.is_unique());
    }

    /// A completion posted before the thread waits is there when it does:
    /// the wait returns at once.
    #[test]
    fn a_post_before_the_wait_returns_at_once() {
        let done = Completion(AtomicU32::new(ARMED));
        done.arm();
        done.post(MsgKind::ReadReply);
        assert_eq!(done.wait(), Some(MsgKind::ReadReply));
    }

    /// The `/proc` stat file of the calling thread.
    fn own_stat() -> std::path::PathBuf {
        let task = std::fs::read_link("/proc/thread-self").expect("procfs");
        std::path::Path::new("/proc").join(task).join("stat")
    }

    /// Whether the thread `stat` describes sleeps in the kernel.
    fn sleeps(stat: &std::path::Path) -> bool {
        std::fs::read_to_string(stat)
            .expect("stat")
            .contains(") S ")
    }

    /// A thread asleep on the word wakes when the completion is posted.
    #[test]
    fn a_post_wakes_the_waiter() {
        let done = Arc::new(Completion(AtomicU32::new(ARMED)));
        done.arm();
        let (stat_tx, stat_rx) = std::sync::mpsc::channel();
        let waiter = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                stat_tx.send(own_stat()).expect("send");
                done.wait()
            })
        };
        // Post only once the waiter sleeps: the word reads `ARMED`, so the
        // only sleep left on its way is `FUTEX_WAIT`.
        let stat = stat_rx.recv().expect("stat");
        while !sleeps(&stat) {
            std::thread::yield_now();
        }
        done.post(MsgKind::BarrierRelease);
        assert_eq!(
            waiter.join().expect("waiter"),
            Some(MsgKind::BarrierRelease)
        );
    }

    /// A failure that lands while no request is outstanding — a handler
    /// that fails after its reply was posted — is not lost: arming for the
    /// next request keeps it, a reply posted after it does not replace it,
    /// and the next wait reports it.
    #[test]
    fn a_nack_between_requests_is_what_the_next_wait_reports() {
        let done = Completion(AtomicU32::new(ARMED));
        done.arm();
        done.post(MsgKind::WriteReply);
        assert_eq!(done.wait(), Some(MsgKind::WriteReply));
        done.post(MsgKind::Nack);
        done.arm();
        done.post(MsgKind::ReadReply);
        assert_eq!(done.wait(), Some(MsgKind::Nack));
    }

    /// A real-memory stack of `hosts` hosts with one page and one view
    /// each, built by the run's assembly with `threads` application
    /// threads per host (the barrier quorum), and its shards. Setup
    /// allocates nothing.
    fn stack(hosts: usize, threads: usize) -> (Stack<HostMemory, CompletionTx>, Vec<HostShard>) {
        let geo = MultiViewRegion::new(1, 1)
            .expect("region")
            .geometry()
            .clone();
        let cfg = ClusterConfig {
            hosts,
            views: 1,
            pages: 1,
            threads_per_host: threads,
            ..ClusterConfig::default()
        };
        let per_host = |_| {
            let region = Arc::new(MultiViewRegion::new(1, 1).expect("region"));
            let done = Arc::new(Completion(AtomicU32::new(ARMED)));
            (HostMemory { region }, CompletionTx(done))
        };
        let (stack, shards, ()) = Stack::new(&cfg, geo.clone(), per_host, |_| ());
        (stack, shards)
    }

    /// Host 0 of a one-host run, no minipages yet: its state, its shard
    /// (the allocator's; its barrier waits for two entries) and its
    /// application's completion word.
    fn lone_host() -> (
        Rc<HostState<HostMemory, CompletionTx>>,
        HostShard,
        Arc<Completion>,
    ) {
        let (stack, mut shards) = stack(1, 2);
        let state = Rc::clone(&stack.states[0]);
        let done = Arc::clone(&state.waiters.0);
        (state, shards.pop().expect("one shard"), done)
    }

    fn serve(
        inbox: &Inbox,
        servers: Vec<Server<HostMemory, CompletionTx, RingTransport<'_>>>,
    ) -> Vec<String> {
        host_server_loop(inbox, servers).0
    }

    /// What a server sends itself stays out of the ring. A `Shutdown` is
    /// already waiting in the ring when the server addresses itself a
    /// completion: the loop serves the completion first (its handler posts
    /// it to the application's completion word), then pops the `Shutdown`,
    /// and the ring holds nothing else.
    #[test]
    fn a_self_addressed_send_never_enters_the_ring() {
        let inbox = Inbox::new(1);
        let (state, shard, done) = lone_host();
        let me = state.host;
        inbox.push(shutdown(me));
        let mut server = ring_server(&state, shard, &inbox);
        let release = Pmsg::new(MsgKind::BarrierRelease, me, 1);
        server.wire.send(me, release, 0, "test").expect("queued");

        assert_eq!(serve(&inbox, vec![server]), Vec::<String>::new());
        assert_eq!(
            done.0.load(Ordering::Acquire),
            MsgKind::BarrierRelease as u32
        );
        assert!(inbox.pop().is_none());
    }

    /// The destination is checked like any other field: an envelope for a
    /// host the run does not have — the next one, the largest an id can
    /// name, even a `Shutdown` — is one error line and the loop reads on,
    /// never an index past the run's hosts.
    #[test]
    fn an_envelope_for_no_host_is_one_error_line() {
        let inbox = Inbox::new(1);
        let (state, shard, _) = lone_host();
        let me = state.host;
        let msg = Pmsg::new(MsgKind::ReadRequest, me, 1).with_addr(VAddr(DEFAULT_BASE));
        for to in [HostId(1), HostId(u16::MAX)] {
            let msg = msg.clone();
            inbox.push(Envelope {
                to,
                wire_from: me,
                msg,
            });
        }
        inbox.push(shutdown(HostId(1)));
        inbox.push(shutdown(me));
        assert_eq!(
            serve(&inbox, vec![ring_server(&state, shard, &inbox)]),
            [1, u16::MAX, 1].map(|h| format!("server: a message for h{h}, not in this run"))
        );
    }

    /// The server thread is its inbox's only reader, so it must never wait
    /// for room in it: a send that finds the ring full fails with `EAGAIN`
    /// as a backend error, is no traffic on its link (a table sized for
    /// both hosts, so h1's link could count it), and the request being
    /// served is nacked. Here
    /// the second of two barrier entries (both self-sent: the ring has no
    /// room) completes the barrier, the release to the other entrant
    /// cannot be pushed, and the completing entrant's word holds a `Nack`.
    #[test]
    fn a_full_inbox_fails_one_request() {
        let inbox = Inbox::new(2);
        let (state, shard, done) = lone_host();
        let me = state.host;
        while inbox.try_push(shutdown(me)).is_ok() {}
        let mut server = ring_server(&state, shard, &inbox);
        let forward = Pmsg::new(MsgKind::ServeRead, HostId(1), 1);
        assert_eq!(
            server.wire.send(HostId(1), forward, 0, "serve forward"),
            Err(ProtocolError::Backend {
                host: me,
                what: "serve forward",
                errno: libc::EAGAIN,
            })
        );
        assert_eq!(inbox.links.totals(), (0, 0), "a refused send is no traffic");
        for from in [HostId(1), me] {
            let enter = Pmsg::new(MsgKind::BarrierEnter, from, 1);
            server.wire.send(me, enter, 0, "test").expect("queued");
        }

        let errors = serve(&inbox, vec![server]);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("barrier release"), "{errors:?}");
        assert_eq!(done.0.load(Ordering::Acquire), NACK);
    }

    /// Polls `holds` until it does or five seconds pass; whether it held.
    fn within_5s(holds: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !holds() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Host 0's `kind` about `addr`, to itself.
    fn to_self(kind: MsgKind, addr: VAddr) -> Envelope {
        let me = HostId(0);
        let msg = Pmsg::new(kind, me, 1).with_addr(addr);
        Envelope {
            to: me,
            wire_from: me,
            msg,
        }
    }

    /// Serves `inbox` for the lone host on this thread, the server's, while
    /// `check` runs on another; then shuts the server down — also when a
    /// check failed, so the test fails instead of hanging — and hands back
    /// what `check` saw and the server's errors. `check` gets the server's
    /// stat file.
    fn beside_server<'a, R: Send>(
        inbox: &'a Inbox,
        server: Server<HostMemory, CompletionTx, RingTransport<'a>>,
        check: impl FnOnce(&std::path::Path) -> R + Send,
    ) -> (R, Vec<String>) {
        let (me, stat) = (server.state.host, own_stat());
        std::thread::scope(|scope| {
            let checker = scope.spawn(|| {
                let seen = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&stat)));
                inbox.push(shutdown(me));
                seen
            });
            let errors = serve(inbox, vec![server]);
            let seen = checker.join().expect("checker thread");
            (
                seen.unwrap_or_else(|p| std::panic::resume_unwind(p)),
                errors,
            )
        })
    }

    /// A request queued behind an open window makes the server sleep in
    /// `ASLEEP_ACK_AWAITED`, so the window's quiet `Ack` wakes it and the
    /// request is served. Host 0's write opens the window and is served;
    /// its read queues behind the window until the `Ack`.
    #[test]
    fn a_quiet_ack_wakes_a_server_a_queued_request_waits_on() {
        let inbox = Inbox::new(1);
        let (state, mut shard, done) = lone_host();
        let addr = shard.do_alloc(8, state.host, 0);
        let posted = |kind: MsgKind| done.0.load(Ordering::Acquire) == kind as u32;
        inbox.push(to_self(MsgKind::WriteRequest, addr));
        inbox.push(to_self(MsgKind::ReadRequest, addr));
        let ((slept_loud, read_served), errors) =
            beside_server(&inbox, ring_server(&state, shard, &inbox), |_| {
                let slept_loud = within_5s(|| {
                    posted(MsgKind::WriteReply)
                        && inbox.doorbell.load(Ordering::Relaxed) == ASLEEP_ACK_AWAITED
                });
                inbox.push(to_self(MsgKind::Ack, addr));
                (slept_loud, within_5s(|| posted(MsgKind::ReadReply)))
            });
        assert!(slept_loud, "the server did not sleep awaiting the Ack");
        assert!(read_served, "the Ack did not reach the queued read");
        assert_eq!(errors, Vec::<String>::new());
    }

    /// With nothing queued the server sleeps in `ASLEEP`: a quiet `Ack`
    /// leaves it asleep and waits in the ring, and the next loud push — a
    /// `Shutdown` here — finds it served first.
    #[test]
    fn a_quiet_ack_waits_in_the_ring_for_the_next_loud_push() {
        let inbox = Inbox::new(1);
        let (state, mut shard, done) = lone_host();
        let addr = shard.do_alloc(8, state.host, 0);
        inbox.push(to_self(MsgKind::WriteRequest, addr));
        let ((slept, after_ack), errors) =
            beside_server(&inbox, ring_server(&state, shard, &inbox), |server| {
                let slept = within_5s(|| {
                    done.0.load(Ordering::Acquire) == MsgKind::WriteReply as u32
                        && inbox.doorbell.load(Ordering::Relaxed) == ASLEEP
                        && sleeps(server)
                });
                inbox.push(to_self(MsgKind::Ack, addr));
                let queued =
                    inbox.tail.load(Ordering::Relaxed) - inbox.head.load(Ordering::Relaxed);
                (slept, (inbox.doorbell.load(Ordering::Relaxed), queued))
            });
        assert!(slept, "the server did not go to sleep");
        assert_eq!(after_ack, (ASLEEP, 1), "the quiet Ack woke the server");
        assert_eq!(errors, Vec::<String>::new());
        assert!(inbox.pop().is_none(), "the Ack outlived the Shutdown");
    }

    /// One clock read per message on the host wire: a charge or a send
    /// answers the stamp the loop read last, every record one dispatch
    /// traces carries it, and the next envelope popped reads a later one.
    /// Host 0 serves its own minipage to itself twice, 2 ms apart: a write
    /// (its serve and install are two dispatches), then a read.
    #[test]
    fn a_dispatch_reads_the_clock_once_and_the_next_pop_reads_later() {
        let inbox = Inbox::new(1);
        let (state, mut shard, done) = lone_host();
        let me = state.host;
        let mut wire = RingTransport::new(me, &inbox);
        wire.read_clock(Instant::now() - Duration::from_millis(1));
        let now = wire.now();
        assert!(now >= 1_000_000, "{now}");
        assert_eq!(wire.charge(5_000), now);
        let release = Pmsg::new(MsgKind::BarrierRelease, me, 1);
        assert_eq!(wire.send(me, release, 0, "test"), Ok(now));
        assert_eq!(wire.now(), now);

        let mp = state
            .home
            .translate(shard.do_alloc(8, me, 0))
            .expect("allocated");
        let priv_base = mp.priv_base(state.space.geometry());
        let serve = |kind| {
            let mut msg = Pmsg::new(kind, me, 1).with_addr(mp.base);
            (msg.minipage, msg.base, msg.len) = (mp.id, mp.base, mp.len);
            msg.priv_base = priv_base;
            Envelope {
                to: me,
                wire_from: me,
                msg,
            }
        };
        let posted = |kind: MsgKind| done.0.load(Ordering::Acquire) == kind as u32;
        let tracer = Tracer::enabled(64);
        let probe = state.probe(&tracer, Track::Server);
        let server = Server::new(
            Rc::clone(&state),
            shard,
            RingTransport::new(me, &inbox),
            probe,
        );
        inbox.push(serve(MsgKind::ServeWrite));
        let (served, errors) = beside_server(&inbox, server, |_| {
            let wrote = within_5s(|| posted(MsgKind::WriteReply));
            std::thread::sleep(Duration::from_millis(2));
            inbox.push(serve(MsgKind::ServeRead));
            wrote && within_5s(|| posted(MsgKind::ReadReply))
        });
        assert!(served, "a serve was not installed");
        assert_eq!(errors, Vec::<String>::new());

        let mut log = tracer.drain().events;
        log.sort_by_key(|e| e.seq);
        use sim_core::trace::TraceKind::*;
        let kinds: Vec<_> = log.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [InvalidateLocal, Serve, Install, Downgrade, Serve, Install]
        );
        let vt: Vec<Ns> = log.iter().map(|e| e.vt).collect();
        assert_eq!(vt[0], vt[1], "the write serve read the clock twice");
        assert_eq!(vt[3], vt[4], "the read serve read the clock twice");
        assert!(vt[1] <= vt[2], "{vt:?}");
        assert!(
            vt[3] >= vt[2] + 2_000_000,
            "the read serve reused a stamp: {vt:?}"
        );
    }

    /// A real-memory run ends with the simulator's post-run pass. Planted
    /// here on a two-host stack: a write served by the manager whose
    /// window no `Ack` closed, and two writable copies of its minipage.
    #[test]
    fn the_post_run_pass_reports_two_writers_and_an_open_window() {
        let (stack, mut shards) = stack(2, 1);
        let addr = shards[0].do_alloc(8, MANAGER, 0);
        let inbox = Inbox::new(2);
        let write = Pmsg::new(MsgKind::WriteRequest, HostId(1), 1).with_addr(addr);
        let mut server = ring_server(&stack.states[0], shards.remove(0), &inbox);
        server.dispatch(write, HostId(1));
        assert_eq!(server.errors, Vec::<String>::new());
        shards.insert(0, server.shard);
        let mp = stack.home.translate(addr).expect("allocated");
        for st in &stack.states {
            for vp in mp.vpages(&stack.geo) {
                st.space.set_prot(vp, Prot::ReadWrite).expect("protect");
            }
        }

        let violations = stack.check(&shards, &inbox.links).violations;
        let writers = format!("{}: multiple writers {:?}", mp.id, [HostId(0), HostId(1)]);
        assert!(violations.contains(&writers), "{violations:?}");
        let window = format!("mp{} @ shard h0: service window still open", mp.id.0);
        assert!(violations.contains(&window), "{violations:?}");
    }
}
