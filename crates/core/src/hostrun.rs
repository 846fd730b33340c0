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
//!   SIGSEGV**, decoded from the signal context ([`hostmv::RawFault`],
//!   write bit from `REG_ERR`) and resolved by running the same
//!   request/reply protocol the simulator runs — the fault handler sends
//!   the request and sleeps on its thread's futex word until the server
//!   thread has installed the reply, opened the page and posted the
//!   completion;
//! * one real OS thread serves every host's DSM server from one
//!   `SOCK_SEQPACKET` inbox (atomic datagrams, FIFO — the ordering the
//!   protocol's correctness arguments assume); a header names its host;
//! * the server is **the simulator's**: the loop here only receives and
//!   decodes a datagram — or pops what a server sent itself, which never
//!   leaves the process — and hands it to `server::dispatch` with the
//!   named host's `HostState`: the same router, handlers and failure
//!   policy, over this module's [`MemoryBackend`]/[`Transport`]/
//!   [`ProtoClock`]/`LocalWake` implementations.
//!
//! Scope: `SequentialSwMr` consistency, `Centralized` homes, one
//! application thread per host, no prefetch/push/locks — exactly the
//! surface the [`Dsm`](crate::dsm::Dsm) trait exposes on the client side.
//! A failed handler is reported on the run and, as in the simulator, a
//! failed request nacks its requester; there is no fault plane to degrade
//! through on a local socketpair, so the nacked thread is not retried — it
//! crashes (see `dsm_resolver`) instead of hanging.
//!
//! A run gives back what it took from the process — mappings, memfds,
//! socket fds, fault-handler registry slots, its runtime — before
//! [`run_host`] returns or unwinds (see `Teardown`).
//!
//! Addresses on the wire are the canonical shared [`Geometry`] addresses
//! (every message field means the same thing as in the simulator); they
//! are translated to each host's real mapping at the memory edge
//! ([`HostMemory`]). The run's fault counters come straight from the
//! SIGSEGV handler, which is what makes `--backend host` reports
//! comparable with the simulator's fault counts.

use crate::backend::{
    ClusterMemory, LocalWake, MemFault, MemoryBackend, PageProt, ProtoClock, Transport,
};
use crate::cluster::SetupCtx;
use crate::diag::{build_report, DiagReport, DiagSink, DiagTable};
use crate::dsm::Dsm;
use crate::error::ProtocolError;
use crate::hlrc::Consistency;
use crate::home::{HomePolicyKind, HomeTable};
use crate::host::HostState;
use crate::manager::ManagerShard;
use crate::msg::{MsgKind, Pmsg};
use crate::server;
use crate::shared::{fill_wire, wire_bytes, Pod, SharedVec};
use bytes::Bytes;
use hostmv::{install_dsm_handler, FaultCounters, HostProt, MultiViewRegion, RawFault};
use multiview::{AllocMode, Allocator, MinipageId};
use sim_core::trace::TraceRecorder;
use sim_core::{CostModel, Geometry, HostId, Ns, VAddr, DEFAULT_BASE};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Fixed header size; minipage data (if any) follows in the same datagram.
const HEADER: usize = 64;

/// Largest data payload a single datagram may carry. `SOCK_SEQPACKET`
/// sends are atomic up to the socket buffer; the default Linux buffer is
/// ~208 KiB, so minipages (at most a few pages) fit with room to spare.
const MAX_DATA: usize = 128 * 1024;

/// Encodes a message header into a fixed stack buffer. No allocation —
/// this is the encoder the SIGSEGV resolver uses from signal context.
fn encode_header(buf: &mut [u8; HEADER], to: HostId, wire_from: HostId, m: &Pmsg, data_len: usize) {
    buf[0] = m.kind.to_u8();
    buf[1] = u8::from(m.prefetch);
    buf[2..4].copy_from_slice(&wire_from.0.to_le_bytes());
    buf[4..6].copy_from_slice(&m.from.0.to_le_bytes());
    buf[6..8].copy_from_slice(&to.0.to_le_bytes());
    buf[8..16].copy_from_slice(&m.event.to_le_bytes());
    buf[16..24].copy_from_slice(&m.addr.0.to_le_bytes());
    buf[24..32].copy_from_slice(&m.base.0.to_le_bytes());
    buf[32..40].copy_from_slice(&m.priv_base.0.to_le_bytes());
    buf[40..48].copy_from_slice(&(m.len as u64).to_le_bytes());
    buf[48..52].copy_from_slice(&m.minipage.0.to_le_bytes());
    buf[52..56].copy_from_slice(&(data_len as u32).to_le_bytes());
    buf[56..64].copy_from_slice(&m.aux.to_le_bytes());
}

/// Encodes a whole datagram: header plus the message's data.
fn encode_frame(to: HostId, wire_from: HostId, m: &Pmsg) -> Vec<u8> {
    let mut head = [0u8; HEADER];
    encode_header(&mut head, to, wire_from, m, m.data.len());
    let mut frame = Vec::with_capacity(HEADER + m.data.len());
    frame.extend_from_slice(&head);
    frame.extend_from_slice(&m.data);
    frame
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Decodes a received datagram into (destination, sender, message). `None`
/// on a malformed or truncated frame (the loop checks the destination).
fn decode_frame(buf: &[u8]) -> Option<(HostId, HostId, Pmsg)> {
    if buf.len() < HEADER {
        return None;
    }
    let kind = MsgKind::from_u8(buf[0])?;
    let wire_from = HostId(u16::from_le_bytes([buf[2], buf[3]]));
    let to = HostId(u16::from_le_bytes([buf[6], buf[7]]));
    let data_len = u32::from_le_bytes(buf[52..56].try_into().expect("4 bytes")) as usize;
    if buf.len() != HEADER + data_len {
        return None;
    }
    let mut m = Pmsg::new(
        kind,
        HostId(u16::from_le_bytes([buf[4], buf[5]])),
        u64_at(buf, 8),
    );
    m.prefetch = buf[1] != 0;
    m.addr = VAddr(u64_at(buf, 16));
    m.base = VAddr(u64_at(buf, 24));
    m.priv_base = VAddr(u64_at(buf, 32));
    m.len = u64_at(buf, 40) as usize;
    m.minipage = MinipageId(u32::from_le_bytes(buf[48..52].try_into().expect("4 bytes")));
    m.aux = u64_at(buf, 56);
    if data_len > 0 {
        m.data = Bytes::copy_from_slice(&buf[HEADER..]);
    }
    Some((to, wire_from, m))
}

// ---------------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------------

/// A connected `SOCK_SEQPACKET` pair: datagrams written to `tx` arrive,
/// boundaries intact and in order, at `rx`. Each end closes when its owner
/// drops, which is how a run — finished, panicked or half-assembled —
/// gives its fds back.
///
/// `AF_UNIX` charges a queued datagram to its *sender*, so the shared
/// inbox holds `tx`'s `SO_SNDBUF` (1 MB asked; at most twice `wmem_max`,
/// 416 KB on a stock kernel). In flight at once: per application thread
/// one request, one ack and one barrier enter; per request `hosts`
/// invalidations and their replies, a forward and a data reply — at four
/// hosts under 60 headers (≈ 0.8 KB each to the kernel) plus 4 minipages.
fn seqpacket_pair() -> Result<(OwnedFd, OwnedFd), ProtocolError> {
    let mut fds = [0 as libc::c_int; 2];
    // SAFETY: socketpair writes two fds into the provided array.
    let rc = unsafe { libc::socketpair(libc::AF_UNIX, libc::SOCK_SEQPACKET, 0, fds.as_mut_ptr()) };
    if rc != 0 {
        return Err(backend_err(HostId(0), "socketpair"));
    }
    // SAFETY: two open fds the call above just created; nothing else owns
    // them.
    let fds = fds.map(|fd| unsafe { OwnedFd::from_raw_fd(fd) });
    for fd in &fds {
        let sz: libc::c_int = 1 << 20;
        // SAFETY: setsockopt on a fd we just created; best-effort sizing.
        unsafe {
            libc::setsockopt(
                fd.as_raw_fd(),
                libc::SOL_SOCKET,
                libc::SO_SNDBUF,
                (&raw const sz).cast(),
                std::mem::size_of::<libc::c_int>() as libc::socklen_t,
            );
        }
    }
    let [tx, rx] = fds;
    Ok((tx, rx))
}

/// Sends one datagram, retrying on `EINTR`. Async-signal-safe (`send(2)`
/// plus arithmetic), so the fault resolver may call it. The server thread
/// adds `MSG_DONTWAIT`; everyone else waits for it to make room.
fn send_fd(fd: &OwnedFd, buf: &[u8], flags: libc::c_int) -> Result<(), i32> {
    let (fd, flags) = (fd.as_raw_fd(), libc::MSG_NOSIGNAL | flags);
    loop {
        // SAFETY: valid fd and an in-bounds buffer; MSG_NOSIGNAL keeps a
        // torn-down peer an error instead of a SIGPIPE.
        let n = unsafe { libc::send(fd, buf.as_ptr().cast(), buf.len(), flags) };
        if n == buf.len() as isize {
            return Ok(());
        }
        let errno = std::io::Error::last_os_error().raw_os_error().unwrap_or(0);
        if n < 0 && errno == libc::EINTR {
            continue;
        }
        return Err(errno);
    }
}

fn backend_err(host: HostId, what: &'static str) -> ProtocolError {
    ProtocolError::Backend {
        host,
        what,
        errno: std::io::Error::last_os_error().raw_os_error().unwrap_or(0),
    }
}

/// One host's [`Transport`] into the run's one server inbox; anyone holding
/// the send side (the server thread, app threads, the fault resolver) can
/// enqueue a datagram atomically. The server thread is the inbox's reader,
/// so it never waits for room: a full inbox is a `Backend` error (`EAGAIN`)
/// that fails the request being served, whose requester is nacked.
struct SocketTransport {
    me: HostId,
    /// Send side of the shared server inbox.
    srv_tx: Arc<OwnedFd>,
    /// Sharing diagnostics (per-link wire counters); disabled by default.
    diag: DiagSink,
    /// What this server sent itself, served before the loop's next `recv`
    /// (self→self is its own link, so per-link FIFO holds).
    to_self: RefCell<VecDeque<Pmsg>>,
}

impl Transport for SocketTransport {
    fn me(&self) -> HostId {
        self.me
    }

    fn send(
        &self,
        to: HostId,
        msg: Pmsg,
        _payload: usize,
        now: Ns,
        what: &'static str,
    ) -> Result<Ns, ProtocolError> {
        self.diag.wire_send(self.me.0, to.0, msg.data.len() as u64);
        if to == self.me {
            self.to_self.borrow_mut().push_back(msg);
            return Ok(now);
        }
        if msg.data.is_empty() {
            let mut head = [0u8; HEADER];
            encode_header(&mut head, to, self.me, &msg, 0);
            send_fd(&self.srv_tx, &head, libc::MSG_DONTWAIT)
        } else if msg.data.len() > MAX_DATA {
            // Receive buffers stop at `MAX_DATA`: fail this one request
            // (its requester is nacked) rather than the server thread.
            Err(libc::EMSGSIZE)
        } else {
            let frame = encode_frame(to, self.me, &msg);
            send_fd(&self.srv_tx, &frame, libc::MSG_DONTWAIT)
        }
        .map_err(|errno| ProtocolError::Backend {
            host: self.me,
            what,
            errno,
        })?;
        Ok(now)
    }
}

/// The host backend's [`ProtoClock`]: real work takes real time, so
/// `charge` is a no-op and `now` is the monotonic clock as the server
/// loop read it when the message in hand arrived (nanoseconds since the
/// run started — enough for window bookkeeping and stamps). One read per
/// message: a handler asks for the time ten to fifteen times.
struct WallClock {
    start: Instant,
    stamp: Ns,
}

impl WallClock {
    fn starting_at(start: Instant) -> Self {
        Self { start, stamp: 0 }
    }

    fn read(&mut self) {
        self.stamp = self.start.elapsed().as_nanos() as Ns;
    }
}

impl ProtoClock for WallClock {
    fn now(&self) -> Ns {
        self.stamp
    }

    fn charge(&mut self, _dt: Ns) -> Ns {
        self.stamp
    }
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

fn to_host_prot(p: PageProt) -> HostProt {
    match p {
        PageProt::NoAccess => HostProt::NoAccess,
        PageProt::ReadOnly => HostProt::ReadOnly,
        PageProt::ReadWrite => HostProt::ReadWrite,
    }
}

fn from_host_prot(p: HostProt) -> PageProt {
    match p {
        HostProt::NoAccess => PageProt::NoAccess,
        HostProt::ReadOnly => PageProt::ReadOnly,
        HostProt::ReadWrite => PageProt::ReadWrite,
    }
}

/// One host's [`MemoryBackend`] over its real [`MultiViewRegion`].
/// Canonical [`Geometry`] addresses are decoded here and mapped onto the
/// region's identical (view, page, offset) layout.
struct HostMemory {
    geo: Geometry,
    region: Arc<MultiViewRegion>,
}

impl HostMemory {
    /// Decodes a canonical address (any view — every view aliases the same
    /// physical pages, exactly like the sim's privileged accessors) into a
    /// physical (page, offset).
    fn priv_loc(&self, addr: VAddr) -> Result<(usize, usize), MemFault> {
        let loc = self.geo.decode(addr).ok_or(MemFault::OutOfRange)?;
        Ok((loc.page, loc.offset))
    }
}

impl MemoryBackend for HostMemory {
    fn geometry(&self) -> &Geometry {
        &self.geo
    }

    fn prot(&self, vpage: usize) -> PageProt {
        let (view, page) = (vpage / self.geo.pages(), vpage % self.geo.pages());
        if view >= self.geo.priv_view() {
            return PageProt::ReadWrite;
        }
        from_host_prot(self.region.prot(view, page))
    }

    fn set_prot(&self, vpage: usize, prot: PageProt) -> Result<(), MemFault> {
        let (view, page) = (vpage / self.geo.pages(), vpage % self.geo.pages());
        if view >= self.geo.priv_view() {
            return Err(MemFault::Privileged);
        }
        self.region
            .protect(view, page, to_host_prot(prot))
            .map_err(|_| MemFault::OutOfRange)
    }

    fn priv_read(&self, addr: VAddr, len: usize) -> Result<Vec<u8>, MemFault> {
        let (page, offset) = self.priv_loc(addr)?;
        if offset + len > (self.geo.pages() - page) * self.geo.page_size() {
            return Err(MemFault::OutOfRange);
        }
        Ok(self.region.priv_read(page, offset, len))
    }

    fn priv_write(&self, addr: VAddr, data: &[u8]) -> Result<(), MemFault> {
        let (page, offset) = self.priv_loc(addr)?;
        if offset + data.len() > (self.geo.pages() - page) * self.geo.page_size() {
            return Err(MemFault::OutOfRange);
        }
        self.region.priv_write(page, offset, data);
        Ok(())
    }

    fn snapshot_and_protect(
        &self,
        addr: VAddr,
        len: usize,
        prot: PageProt,
    ) -> Result<Vec<u8>, MemFault> {
        // Copy first, then revoke: same order the sim's eviction uses.
        // (Unused under SequentialSwMr — present for trait completeness.)
        let priv_addr = self.geo.to_priv(addr).ok_or(MemFault::OutOfRange)?;
        let data = self.priv_read(priv_addr, len)?;
        let (_, range) = self
            .geo
            .vpages_covering(addr, len)
            .ok_or(MemFault::OutOfRange)?;
        for vp in range {
            self.set_prot(vp, prot)?;
        }
        Ok(data)
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

/// Per-application-thread runtime state the fault resolver needs. One per
/// host (the host backend runs one application thread per host).
struct ThreadRt {
    host: HostId,
    /// This thread's (fixed) event id — events are per-host scoped, so a
    /// constant nonzero id is protocol-valid.
    event: u64,
    /// What this thread sleeps on while a request is outstanding (the
    /// host state's [`CompletionTx`] posts to it).
    done: Arc<Completion>,
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
    geo: Geometry,
    manager: HostId,
    srv_tx: Arc<OwnedFd>,
    threads: Vec<ThreadRt>,
    /// Sharing diagnostics. The table behind the sink is pre-allocated
    /// before the run; recording is relaxed atomic adds, so the SIGSEGV
    /// resolver may record from signal context.
    diag: DiagSink,
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
    /// Sends `msg` as a bare header to `to`'s server. Async-signal-safe.
    fn send_header(&self, to: HostId, wire_from: HostId, msg: &Pmsg) -> Result<(), i32> {
        self.diag.wire_send(wire_from.0, to.0, 0);
        let mut head = [0u8; HEADER];
        encode_header(&mut head, to, wire_from, msg, 0);
        send_fd(&self.srv_tx, &head, 0)
    }

    /// Flushes the thread's pending window-closing `Ack`, if any.
    /// Async-signal-safe.
    fn flush_ack(&self, th: &ThreadRt) -> Result<(), i32> {
        // Nothing owed is the common case: a plain load, not a locked swap
        // (only this thread stores to the word, so it reads its own store).
        if th.pending_ack.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        let addr = th.pending_ack.swap(0, Ordering::AcqRel);
        if addr == 0 {
            return Ok(());
        }
        // Figure 3's fault-service confirmation: event 0, addressed so the
        // manager can translate it back to the minipage. Centralized homes:
        // every window lives at the manager.
        let ack = Pmsg::new(MsgKind::Ack, th.host, 0).with_addr(VAddr(addr));
        self.send_header(self.manager, th.host, &ack)
    }
}

/// The DSM fault resolver: runs on the faulting application thread, in
/// signal context. Sends the read/write request the paper's fault handler
/// sends, then sleeps on the thread's completion word until this host's
/// server has installed the reply and opened the page. Everything on this
/// path is async-signal-safe: atomics, const-init TLS, `send`, `futex`.
fn dsm_resolver(_region: &MultiViewRegion, fault: &RawFault, token: usize) -> bool {
    // SAFETY: `token` is the HostRt pointer installed alongside the
    // handler; the run's `Teardown` frees it only after retiring the
    // registration this call came through.
    let rt = unsafe { &*(token as *const HostRt) };
    let slot = SLOT.with(|s| s.get());
    if slot == usize::MAX {
        return false; // A fault off the application threads is a crash.
    }
    let th = &rt.threads[slot];
    if rt.flush_ack(th).is_err() {
        return false;
    }
    let addr = rt.geo.addr_of(fault.view, fault.page, fault.offset);
    let kind = if fault.write {
        MsgKind::WriteRequest
    } else {
        MsgKind::ReadRequest
    };
    // Per-minipage heat, recorded at the same point the sim's
    // `service_fault` records it: a table lookup plus relaxed atomic adds,
    // all async-signal-safe. A fault on an unmapped vpage attributes to
    // `u32::MAX`, which the table counts as overflow.
    if rt.diag.enabled() {
        let vpage = rt.geo.vpage_index(fault.view, fault.page);
        let (mp, base) = rt.mp_map.get(vpage).copied().unwrap_or((u32::MAX, 0));
        if fault.write {
            rt.diag
                .write_fault(mp, th.host.0, addr.0.saturating_sub(base), 1);
        } else {
            rt.diag.read_fault(mp, th.host.0);
        }
    }
    let req = Pmsg::new(kind, th.host, th.event).with_addr(addr);
    th.done.arm();
    if rt.send_header(rt.manager, th.host, &req).is_err() {
        return false;
    }
    // Sleep until the server thread posts the install. The completion
    // carries no data — the bytes went straight into the region through
    // the privileged view (the zero-copy receive path).
    match th.done.wait() {
        Some(MsgKind::ReadReply | MsgKind::WriteReply) => {}
        _ => return false, // Nacked: crash with a core.
    }
    th.pending_ack.store(addr.0, Ordering::Release);
    true
}

// ---------------------------------------------------------------------------
// Server loop
// ---------------------------------------------------------------------------

/// The receive step of the server loop: the next datagram's length, or the
/// error line the loop stops with. `recv` returns 0 once every send side is
/// closed: a disconnect (the simulator's `RecvError::Disconnected`), not an
/// empty frame to decode and come back for; `EINTR` is retried.
fn recv_inbox(srv_rx: &OwnedFd, buf: &mut [u8]) -> Result<usize, String> {
    loop {
        // SAFETY: valid fd, writable in-bounds buffer.
        let n = unsafe { libc::recv(srv_rx.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len(), 0) };
        if n > 0 {
            return Ok(n as usize);
        } else if n == 0 {
            return Err("server inbox at end of file".to_string());
        }
        let errno = std::io::Error::last_os_error().raw_os_error().unwrap_or(0);
        if errno != libc::EINTR {
            return Err(format!("server recv failed: errno {errno}"));
        }
    }
}

/// One host's DSM server, as the one server thread holds it.
struct HostServer<'a> {
    state: &'a HostState<HostMemory, CompletionTx>,
    shard: ManagerShard,
    ep: SocketTransport,
}

/// Every host's DSM server on one thread: the real-thread analogue of
/// [`server::Server::turn`] — a datagram receive (self-sends first) in
/// front of the same per-message engine ([`server::dispatch`]), run for the
/// host the header names. Hands back the errors it degraded through (fatal
/// to the affected request; a non-empty list fails the run report) and the
/// adaptation actions the shards applied.
fn host_server_loop(
    srv_rx: &OwnedFd,
    mut hosts: Vec<HostServer<'_>>,
    mut clock: WallClock,
) -> (Vec<String>, crate::adapt::AdaptReport) {
    let mut rec = TraceRecorder::disabled();
    let mut errors = Vec::new();
    let mut buf = vec![0u8; HEADER + MAX_DATA];
    loop {
        let sent_to_self = hosts.iter().enumerate().find_map(|(h, s)| {
            let m = s.ep.to_self.borrow_mut().pop_front()?;
            Some((h, s.ep.me, m))
        });
        let (to, wire_from, m) = if let Some(next) = sent_to_self {
            next
        } else {
            let n = match recv_inbox(srv_rx, &mut buf) {
                Ok(n) => n,
                Err(line) => {
                    errors.push(line);
                    break;
                }
            };
            match decode_frame(&buf[..n]) {
                Some((to, wire_from, m)) if to.index() < hosts.len() => (to.index(), wire_from, m),
                _ => {
                    errors.push(format!("server: malformed frame ({n} bytes)"));
                    continue;
                }
            }
        };
        if m.kind == MsgKind::Shutdown {
            break;
        }
        clock.read();
        let host = &mut hosts[to];
        server::dispatch(
            m,
            wire_from,
            host.state,
            &mut host.shard,
            &mut clock,
            &host.ep,
            &mut rec,
            &mut errors,
        );
    }
    let mut adapt = crate::adapt::AdaptReport::default();
    for host in &hosts {
        adapt.absorb(host.shard.adapt_report().clone());
    }
    (errors, adapt)
}

// ---------------------------------------------------------------------------
// Application context
// ---------------------------------------------------------------------------

/// One application thread's context on the real-memory backend. Shared
/// accesses are span copies through the host's application view mappings;
/// protection misses raise real SIGSEGVs resolved by [`dsm_resolver`].
pub struct HostDsmCtx {
    rt: Arc<HostRt>,
    slot: usize,
    region: Arc<MultiViewRegion>,
    /// Virtual compute charged by the portable kernels (tallied for
    /// reporting; wall time passes by itself here).
    compute_ns: Ns,
}

impl HostDsmCtx {
    fn th(&self) -> &ThreadRt {
        &self.rt.threads[self.slot]
    }

    fn flush_ack(&self) {
        if self.rt.flush_ack(self.th()).is_err() {
            panic!("h{}: ack send failed", self.th().host.index());
        }
    }

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
        let geo = &self.rt.geo;
        let mut done = 0;
        while done < len {
            let loc = geo.decode(addr.add(done)).expect("shared address in range");
            let take = (geo.page_size() - loc.offset).min(len - done);
            copy(loc.view, loc.page, loc.offset, done..done + take);
            done += take;
        }
    }

    /// Sleeps on the completion word until `want` is posted; anything
    /// else is a protocol breach and panics.
    fn wait_for(&self, want: MsgKind) {
        match self.th().done.wait() {
            Some(k) if k == want => {}
            Some(MsgKind::Nack) => {
                panic!("h{}: request nacked", self.th().host.index())
            }
            k => panic!("unexpected completion {k:?}"),
        }
    }
}

impl Dsm for HostDsmCtx {
    fn host(&self) -> HostId {
        self.th().host
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
            self.flush_ack();
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
        self.flush_ack();
    }

    fn barrier(&mut self) {
        self.flush_ack();
        let th = self.th();
        let msg = Pmsg::new(MsgKind::BarrierEnter, th.host, th.event);
        th.done.arm();
        if self.rt.send_header(self.rt.manager, th.host, &msg).is_err() {
            panic!("h{}: barrier send failed", th.host.index());
        }
        self.wait_for(MsgKind::BarrierRelease);
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
    /// Online adaptation (see [`crate::adapt`]). The real-memory backend
    /// applies *home migration* only: applications hold raw pointers into
    /// their view, so the granularity rewrites (split/merge, which move
    /// minipages to fresh views) are force-disabled here regardless of
    /// what this config allows.
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
/// handler, wall time, and any server-side errors (empty on a clean run).
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
    /// Server-side protocol/backend errors; non-empty means the run is
    /// not trustworthy.
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

/// Runs `setup` then one application thread per host on real memory —
/// the host-backend analogue of [`crate::run`].
///
/// The protocol layer (manager shards, serve/install/invalidate engine) is
/// the same code the simulator runs; memory is per-host
/// [`MultiViewRegion`]s, faults are real SIGSEGVs, the wire is one server
/// inbox socketpair between real OS threads, and a blocked application
/// thread sleeps on a futex word the server posts its completion to.
///
/// # Errors
///
/// Setup failures (region mapping, sockets, handler registration) are
/// returned; protocol errors during the run surface in
/// [`HostRunReport::errors`]. An application panic propagates.
pub fn run_host<T, F>(
    cfg: HostRunConfig,
    setup: impl FnOnce(&mut SetupCtx) -> T,
    app: F,
) -> Result<HostRunReport, ProtocolError>
where
    T: Send + Sync,
    F: Fn(&mut HostDsmCtx, &T) + Send + Sync,
{
    assert!(cfg.hosts >= 1, "need at least one host");
    let manager = HostId(0);
    let mut regions = Vec::with_capacity(cfg.hosts);
    for h in 0..cfg.hosts {
        let region = MultiViewRegion::new(cfg.pages, cfg.views)
            .map_err(|_| backend_err(HostId(h as u16), "region mapping"))?;
        regions.push(Arc::new(region));
    }
    let page_size = regions[0].page_size();
    let geo = Geometry::with_layout(DEFAULT_BASE, page_size, cfg.pages, cfg.views);
    let home = Arc::new(HomeTable::new(
        HomePolicyKind::Centralized,
        cfg.hosts,
        manager,
        geo.clone(),
    ));
    let cost = CostModel::default();
    // Sized like the sim backend's table: one slot per application-view
    // vpage bounds the minipage ids, so the signal-context recording
    // never hits the overflow path.
    let diag_table = cfg
        .diag
        .then(|| DiagTable::with_slots(cfg.hosts, geo.priv_view() * geo.pages()));
    let diag_sink = diag_table
        .as_ref()
        .map(|t| DiagSink::new(Arc::clone(t)))
        .unwrap_or_default();
    // Wire: one server inbox; each end is owned by the piece of the run
    // that uses it and closes with it.
    let (srv_tx, srv_rx) = seqpacket_pair()?;
    let srv_tx = Arc::new(srv_tx);
    let mut threads = Vec::with_capacity(cfg.hosts);
    let mut states = Vec::with_capacity(cfg.hosts);
    for (h, region) in regions.iter().enumerate() {
        let host = HostId(h as u16);
        let done = Arc::new(Completion(AtomicU32::new(ARMED)));
        threads.push(ThreadRt {
            host,
            event: 1,
            done: Arc::clone(&done),
            pending_ack: AtomicU64::new(0),
        });
        let mem = HostMemory {
            geo: geo.clone(),
            region: Arc::clone(region),
        };
        states.push(Arc::new(HostState::new(
            host,
            mem,
            CompletionTx(done),
            cost.clone(),
            Consistency::SequentialSwMr,
            Arc::clone(&home),
            diag_sink.clone(),
        )));
    }
    let cluster: Arc<dyn ClusterMemory> = Arc::new(states.clone());
    let mut shards: Vec<ManagerShard> = (0..cfg.hosts)
        .map(|h| {
            let allocator = (h == manager.index())
                .then(|| Allocator::new(geo.clone(), AllocMode::FineGrain { chunking: 1 }));
            ManagerShard::new(
                HostId(h as u16),
                cfg.hosts,
                cfg.hosts, // one app thread per host = barrier quorum
                cost.clone(),
                Consistency::SequentialSwMr,
                allocator,
                Arc::clone(&home),
                Arc::clone(&cluster),
                TraceRecorder::disabled(),
                diag_sink.clone(),
                crate::adapt::AdaptConfig {
                    // Raw application pointers: granularity rewrites are
                    // sim-only. Migration is safe — addresses are stable.
                    allow_split: false,
                    allow_merge: false,
                    ..cfg.adapt.clone()
                },
            )
        })
        .collect();
    let shared = setup(&mut SetupCtx::new(&mut shards[manager.index()]));

    // Setup has run, so the minipage table is final: freeze the vpage →
    // minipage attribution map the resolver uses from signal context.
    let mp_map = if diag_sink.enabled() {
        let mut map = vec![(u32::MAX, 0u64); geo.priv_view() * geo.pages()];
        for mp in home.mpt().snapshot() {
            for vp in mp.vpages(&geo) {
                if let Some(slot) = map.get_mut(vp) {
                    *slot = (mp.id.0, mp.base.0);
                }
            }
        }
        map
    } else {
        Vec::new()
    };
    let mut run = Teardown {
        registrations: Vec::with_capacity(cfg.hosts),
        rt: Arc::new(HostRt {
            geo: geo.clone(),
            manager,
            srv_tx: Arc::clone(&srv_tx),
            threads,
            diag: diag_sink.clone(),
            mp_map,
        }),
    };
    let token = Arc::as_ptr(&run.rt) as usize;
    for region in &regions {
        let c = install_dsm_handler(Arc::clone(region), dsm_resolver, token)
            .map_err(|_| backend_err(manager, "fault handler registration"))?;
        run.registrations.push(c);
    }

    let start = Instant::now();
    let shared_ref = &shared;
    let app_ref = &app;
    let (mut errors, adapt, wall, compute_ns) = std::thread::scope(|scope| {
        let hosts = states
            .iter()
            .zip(shards)
            .map(|(state, shard)| HostServer {
                state,
                shard,
                ep: SocketTransport {
                    me: state.host,
                    srv_tx: Arc::clone(&srv_tx),
                    diag: diag_sink.clone(),
                    to_self: RefCell::default(),
                },
            })
            .collect();
        let (rx, clock) = (&srv_rx, WallClock::starting_at(start));
        let server = std::thread::Builder::new()
            .name("mv-server".to_string())
            .spawn_scoped(scope, move || host_server_loop(rx, hosts, clock))
            .expect("spawn server thread");
        let mut apps = Vec::with_capacity(cfg.hosts);
        for h in 0..cfg.hosts {
            let region = Arc::clone(&regions[h]);
            let rt = Arc::clone(&run.rt);
            let builder = std::thread::Builder::new().name(format!("mv-host-{h}"));
            apps.push(
                builder
                    .spawn_scoped(scope, move || {
                        SLOT.with(|s| s.set(h));
                        let mut ctx = HostDsmCtx {
                            rt,
                            slot: h,
                            region,
                            compute_ns: 0,
                        };
                        app_ref(&mut ctx, shared_ref);
                        ctx.compute_ns
                    })
                    .expect("spawn app thread"),
            );
        }
        let mut app_panic = None;
        let compute: Vec<Ns> = apps
            .into_iter()
            .map(|a| {
                a.join().unwrap_or_else(|p| {
                    app_panic = Some(p);
                    0
                })
            })
            .collect();
        let wall = start.elapsed();
        let shutdown = encode_frame(manager, manager, &Pmsg::new(MsgKind::Shutdown, manager, 0));
        let _ = send_fd(&srv_tx, &shutdown, 0);
        let (errors, adapt) = server.join().expect("server thread panicked");
        if let Some(p) = app_panic {
            std::panic::resume_unwind(p);
        }
        (errors, adapt, wall, compute[0])
    });

    // Same post-run geometry oracle the sim backend applies after any
    // adaptation action.
    if home.mpt().adapt_gen() != 0 {
        errors.extend(home.mpt().geometry_violations(&geo));
    }
    Ok(HostRunReport {
        read_faults: run.registrations.iter().map(|c| c.read_faults()).collect(),
        write_faults: run.registrations.iter().map(|c| c.write_faults()).collect(),
        invalidations: states
            .iter()
            .map(|s| s.counters.invalidations_received.get())
            .collect(),
        wall,
        compute_ns,
        errors,
        diag: diag_table.map(|t| {
            let minipages = home.mpt().snapshot();
            let links = t.link_stats();
            build_report(&t, &minipages, &geo, &home, links)
        }),
        adapt: cfg.adapt.enabled.then_some(adapt),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Once every send side of an inbox is closed the receive step says so
    /// — one line, and the loop breaks on it — instead of handing 0 bytes
    /// to `decode_frame` forever.
    #[test]
    fn a_closed_inbox_reads_as_end_of_file() {
        let (tx, rx) = seqpacket_pair().expect("socketpair");
        let mut buf = [0u8; HEADER];
        send_fd(&tx, &[7u8; HEADER], 0).expect("send");
        drop(tx);
        // What was sent before the close still arrives…
        assert_eq!(recv_inbox(&rx, &mut buf), Ok(HEADER));
        // …then end-of-file, as an error line.
        let eof = recv_inbox(&rx, &mut buf).expect_err("end of file");
        assert!(eof.contains("end of file"), "{eof}");
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

    /// A thread asleep on the word wakes when the completion is posted.
    #[test]
    fn a_post_wakes_the_waiter() {
        let done = Arc::new(Completion(AtomicU32::new(ARMED)));
        done.arm();
        let (task_tx, task_rx) = std::sync::mpsc::channel();
        let waiter = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let task = std::fs::read_link("/proc/thread-self").expect("procfs");
                task_tx.send(task).expect("send");
                done.wait()
            })
        };
        // Post only once the waiter sleeps: the word reads `ARMED`, so the
        // only sleep left on its way is `FUTEX_WAIT`.
        let stat = std::path::Path::new("/proc")
            .join(task_rx.recv().expect("task"))
            .join("stat");
        while !std::fs::read_to_string(&stat)
            .expect("stat")
            .contains(") S ")
        {
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

    /// Host 0 of a one-host run, one page, no minipages: its state, its
    /// shard and its application's completion word.
    fn lone_host() -> (
        Arc<HostState<HostMemory, CompletionTx>>,
        ManagerShard,
        Arc<Completion>,
    ) {
        let me = HostId(0);
        let region = Arc::new(MultiViewRegion::new(1, 1).expect("region"));
        let geo = Geometry::with_layout(DEFAULT_BASE, region.page_size(), 1, 1);
        let home = Arc::new(HomeTable::new(
            HomePolicyKind::Centralized,
            1,
            me,
            geo.clone(),
        ));
        let done = Arc::new(Completion(AtomicU32::new(ARMED)));
        let (cost, sw_mr) = (CostModel::default(), Consistency::SequentialSwMr);
        let state = Arc::new(HostState::new(
            me,
            HostMemory { geo, region },
            CompletionTx(Arc::clone(&done)),
            cost.clone(),
            sw_mr,
            Arc::clone(&home),
            DiagSink::default(),
        ));
        let cluster: Arc<dyn ClusterMemory> = Arc::new(vec![Arc::clone(&state)]);
        let shard = ManagerShard::new(
            me,
            1,
            1,
            cost,
            sw_mr,
            None,
            home,
            cluster,
            TraceRecorder::disabled(),
            DiagSink::default(),
            crate::adapt::AdaptConfig::default(),
        );
        (state, shard, done)
    }

    fn transport(me: HostId, inbox_tx: OwnedFd) -> SocketTransport {
        SocketTransport {
            me,
            srv_tx: Arc::new(inbox_tx),
            diag: DiagSink::default(),
            to_self: RefCell::default(),
        }
    }

    fn shutdown_frame(to: HostId) -> Vec<u8> {
        encode_frame(to, HostId(0), &Pmsg::new(MsgKind::Shutdown, HostId(0), 0))
    }

    /// What a server sends itself stays in the process. A `Shutdown` is
    /// already waiting in the inbox when the server addresses itself a
    /// completion too large for any datagram: the loop serves the
    /// completion first (its handler posts it to the application's
    /// completion word), then reads the `Shutdown`, and the inbox holds
    /// nothing else.
    #[test]
    fn a_self_addressed_send_never_reaches_the_socket() {
        let (inbox_tx, inbox_rx) = seqpacket_pair().expect("socketpair");
        let (state, shard, done) = lone_host();
        let me = state.host;
        let ep = transport(me, inbox_tx);
        send_fd(&ep.srv_tx, &shutdown_frame(me), 0).expect("send");
        let mut release = Pmsg::new(MsgKind::BarrierRelease, me, 1);
        release.data = Bytes::from(vec![0u8; MAX_DATA + 1]);
        ep.send(me, release, 0, 0, "test").expect("queued");

        let hosts = vec![HostServer {
            state: &state,
            shard,
            ep,
        }];
        let clock = WallClock::starting_at(Instant::now());
        let (errors, _) = host_server_loop(&inbox_rx, hosts, clock);
        assert_eq!(errors, Vec::<String>::new());
        // The handler ran: the application's word holds the release…
        assert_eq!(
            done.0.load(Ordering::Acquire),
            MsgKind::BarrierRelease as u32
        );
        // …and the socket never carried it: with the loop's transport gone
        // every send side is closed, and the inbox is at end of file.
        let mut head = [0u8; HEADER];
        let eof = recv_inbox(&inbox_rx, &mut head).expect_err("end of file");
        assert!(eof.contains("end of file"), "{eof}");
    }

    /// The destination bytes are wire input like any other: a frame for a
    /// host the run does not have — the next one, the largest a header can
    /// name, even a `Shutdown` — is one "malformed frame" line and the loop
    /// reads on, never an index past the run's hosts.
    #[test]
    fn a_frame_for_no_host_is_a_malformed_frame() {
        let (inbox_tx, inbox_rx) = seqpacket_pair().expect("socketpair");
        let (state, shard, _) = lone_host();
        let me = state.host;
        let request = Pmsg::new(MsgKind::ReadRequest, me, 1).with_addr(VAddr(DEFAULT_BASE));
        for frame in [
            encode_frame(HostId(1), me, &request),
            encode_frame(HostId(u16::MAX), me, &request),
            shutdown_frame(HostId(1)),
            shutdown_frame(me),
        ] {
            send_fd(&inbox_tx, &frame, 0).expect("send");
        }
        let hosts = vec![HostServer {
            state: &state,
            shard,
            ep: transport(me, inbox_tx),
        }];
        let clock = WallClock::starting_at(Instant::now());
        let (errors, _) = host_server_loop(&inbox_rx, hosts, clock);
        assert_eq!(errors, vec!["server: malformed frame (64 bytes)"; 3]);
    }

    /// The server thread is its inbox's only reader, so it must never wait
    /// for room in it: once a `MSG_DONTWAIT` send finds the inbox full, a
    /// server's send fails with `EAGAIN` as a backend error — the request
    /// it serves is nacked — instead of blocking.
    #[test]
    fn a_full_inbox_fails_one_request() {
        let (inbox_tx, _inbox_rx) = seqpacket_pair().expect("socketpair");
        let filler = [0u8; 4096];
        let mut sent = 0;
        let errno = loop {
            match send_fd(&inbox_tx, &filler, libc::MSG_DONTWAIT) {
                Ok(()) => sent += 1,
                Err(errno) => break errno,
            }
        };
        assert_eq!(errno, libc::EAGAIN, "after {sent} datagrams");
        let ep = transport(HostId(0), inbox_tx);
        let forward = Pmsg::new(MsgKind::ServeRead, HostId(1), 1);
        assert_eq!(
            ep.send(HostId(1), forward, 0, 0, "serve forward"),
            Err(ProtocolError::Backend {
                host: HostId(0),
                what: "serve forward",
                errno: libc::EAGAIN,
            })
        );
    }

    proptest! {
        /// Hostile wire bytes never panic `decode_frame`, and whatever it
        /// accepts re-encodes to the bytes it was given, except that a
        /// non-canonical `prefetch` byte is normalized.
        #[test]
        fn decode_frame_is_total_on_arbitrary_bytes(
            raw in proptest::collection::vec(any::<u8>(), 0..256),
            fix_len in any::<bool>(),
        ) {
            let mut raw = raw;
            // Random bytes almost never carry a consistent length field;
            // patch it in half the cases so the accept path runs too.
            if fix_len && raw.len() >= HEADER {
                let data_len = (raw.len() - HEADER) as u32;
                raw[52..56].copy_from_slice(&data_len.to_le_bytes());
            }
            if let Some((to, wire_from, m)) = decode_frame(&raw) {
                raw[1] = u8::from(raw[1] != 0);
                prop_assert_eq!(encode_frame(to, wire_from, &m), raw);
            } else {
                prop_assert!(
                    raw.len() < HEADER
                        || MsgKind::from_u8(raw[0]).is_none()
                        || raw.len() - HEADER
                            != u32::from_le_bytes(raw[52..56].try_into().expect("4 bytes")) as usize
                );
            }
        }

        /// `decode_frame(encode_frame(m)) == m` for every field of every
        /// message kind.
        #[test]
        fn encode_decode_round_trips(
            ids in (0..MsgKind::ALL.len(), any::<u16>(), any::<u16>(), any::<u32>(), any::<bool>()),
            words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            len in any::<usize>(),
            to in any::<u16>(),
            data in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let (kind, wire_from, from, minipage, prefetch) = ids;
            let (event, addr, base, priv_base, aux) = words;
            let mut m = Pmsg::new(MsgKind::ALL[kind].0, HostId(from), event)
                .with_addr(VAddr(addr))
                .with_aux(aux);
            m.base = VAddr(base);
            m.priv_base = VAddr(priv_base);
            m.len = len;
            m.minipage = MinipageId(minipage);
            m.prefetch = prefetch;
            m.data = Bytes::from(data);
            let frame = encode_frame(HostId(to), HostId(wire_from), &m);
            let (got_to, got_from, got) = decode_frame(&frame).expect("own encoding is valid");
            prop_assert_eq!((got_to, got_from), (HostId(to), HostId(wire_from)));
            prop_assert_eq!(
                (got.kind, got.from, got.event, got.addr, got.base, got.priv_base),
                (m.kind, m.from, m.event, m.addr, m.base, m.priv_base)
            );
            prop_assert_eq!(
                (got.len, got.minipage, got.aux, got.prefetch, got.data),
                (m.len, m.minipage, m.aux, m.prefetch, m.data)
            );
        }
    }
}
