//! Protocol event tracing: virtual-time-stamped records in per-thread
//! ring buffers.
//!
//! Every simulated thread (application thread, DSM server, manager shard)
//! owns a [`TraceRecorder`]: a private fixed-capacity ring it appends
//! [`TraceEvent`]s to with no synchronization at all. A disabled tracer
//! hands out inert recorders whose [`record`](TraceRecorder::record) is a
//! single branch on an `Option`, so the instrumentation stays in release
//! builds for free. When a recorder drops (its thread finished), the ring
//! drains into the shared [`Tracer`] sink; [`Tracer::drain`] then merges
//! all rings into one virtual-time-ordered log for export
//! ([`ChromeTrace`]) or replay auditing.
//!
//! Timestamps are **virtual** nanoseconds from the run's per-thread
//! clocks. The clocks are Lamport-merged at every message delivery and
//! rendezvous, so causally related events are correctly ordered, but two
//! *unrelated* events on different hosts may legitimately carry equal or
//! inverted stamps. The merge orders equal stamps by [`audit_rank`]
//! (completions before initiations) to keep the replay checker sound at
//! rendezvous instants.

use crate::clock::Ns;
use crate::json::{self, Writer};
use crate::HostId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// "No minipage" marker for [`TraceEvent::mp`].
pub const NO_MP: u32 = u32::MAX;
/// "No peer host" marker for [`TraceEvent::peer`].
pub const NO_PEER: u16 = u16::MAX;

/// Which simulated thread of a host recorded an event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Track {
    /// Application thread `t` of the host.
    App(u16),
    /// The DSM server thread (the poller/sweeper pair of §3.5.1).
    Server,
    /// The manager shard running inside the server thread.
    Shard,
}

/// What happened. The comments name the protocol step each kind marks;
/// `aux` encodes the kind-specific detail documented per variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Application thread enters the read-fault handler.
    ReadFaultBegin,
    /// Read fault serviced; the thread resumes.
    ReadFaultEnd,
    /// Application thread enters the write-fault handler.
    WriteFaultBegin,
    /// Write fault serviced; the thread resumes.
    WriteFaultEnd,
    /// A message left this host (`peer` = destination, `bytes` = payload).
    MsgSend,
    /// A message reached this host's server (`peer` = sender).
    MsgRecv,
    /// A shard opened a minipage's service window.
    WindowOpen,
    /// A shard closed a minipage's service window.
    WindowClose,
    /// A shard queued a competing request (window already open).
    ReqQueued,
    /// A shard forwarded a request to a copy holder (`peer` = holder,
    /// `aux` = 0 read / 1 write).
    Forward,
    /// A copy holder served a minipage out of its privileged view
    /// (`peer` = requester, `aux` = 0 read / 1 write).
    Serve,
    /// A host installed received minipage data (`aux` = 1 read-only /
    /// 2 writable).
    Install,
    /// A host downgraded its writable copy to read-only.
    Downgrade,
    /// A host dropped its copy (invalidation or release flush; `aux` = 1
    /// when the drop answers a received `InvalidateRequest`, 0 for a
    /// serving-side or release-flush drop).
    InvalidateLocal,
    /// A shard fanned an invalidation out to `peer`.
    InvSend,
    /// A shard received an invalidation confirmation from `peer`.
    InvReplyRecv,
    /// The post-access ack closed a service window's covering fault.
    AckRecv,
    /// A release flush shipped a diff to the home (`aux` = 1 when the
    /// flusher blocks for an ack, 0 fire-and-forget).
    RcDiffSend,
    /// The home applied a release diff (`bytes` = encoded diff size).
    RcDiffApply,
    /// The home acknowledged a flushed diff to `peer`.
    RcDiffAckSend,
    /// A flusher's pending diff was acknowledged.
    RcDiffAckRecv,
    /// An application thread entered the barrier.
    BarrierEnter,
    /// The manager released the barrier towards `peer`.
    BarrierReleaseSend,
    /// An application thread resumed from the barrier.
    BarrierResume,
    /// An application thread requested lock `event`.
    LockAcquireBegin,
    /// The manager granted lock `event` to `peer`.
    LockGrantSend,
    /// An application thread resumed holding lock `event`.
    LockResume,
    /// An application thread released lock `event`.
    LockRelease,
    /// Allocation-time directory state: the minipage starts at its home
    /// (`aux` = 1 writable under SW/MR, 0 read-only under HLRC).
    AllocGrant,
    /// The fault plane dropped a transmission on the wire (`peer` =
    /// destination, `aux` = consecutive losses of this packet so far).
    PktDropped,
    /// The reliable channel retransmitted after a virtual-time RTO
    /// (`peer` = destination, `aux` = retry number, 1-based).
    Retransmit,
    /// The receive-side dedup buffer suppressed a duplicate delivery
    /// (`peer` = sender, `aux` = duplicated wire sequence number).
    DupSuppressed,
    /// A request outlived its retransmit budget (or wall-clock backstop)
    /// and surfaced as a `ProtocolError::Timeout` (`peer` = destination).
    TimeoutFired,
    /// The server timeline clamped a negative queue delay — a
    /// virtual-clock inversion the `saturating_sub` would otherwise hide
    /// (`aux` = clamped magnitude in ns, saturated to `u32::MAX`).
    DelayClamped,
    /// The adaptation engine split minipage `mp` (`aux` = number of
    /// children; each child follows as its own `AllocGrant`). The retired
    /// minipage's window must be closed and its copies dropped.
    AdaptSplit,
    /// The adaptation engine merged minipage `mp` into a successor
    /// (`event` = successor id; the merged entry follows as `AllocGrant`).
    AdaptMerge,
    /// The adaptation engine migrated minipage `mp`'s home to `peer`
    /// (`aux` = 1 when the new home holds the copy writable, 0
    /// read-only).
    AdaptMigrate,
    /// A stale home forwarded a request for `mp` to the current home
    /// `peer` (`event` = the forwarded rendezvous id, `aux` = home-map
    /// epoch at forward time). Each rendezvous is forwarded at most once.
    AdaptForward,
}

/// One virtual-time-stamped protocol event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Virtual timestamp (ns) on the recording thread's clock.
    pub vt: Ns,
    /// Global record-order sequence number, stamped when the event is
    /// recorded. The simulation processes a message only after it was
    /// sent (channel delivery), so record order is a causally-consistent
    /// linearization even where optimistic virtual timestamps invert;
    /// the replay auditor uses it instead of `vt`.
    pub seq: u64,
    /// Host that recorded the event.
    pub host: u16,
    /// Which of the host's threads recorded it.
    pub track: Track,
    /// What happened.
    pub kind: TraceKind,
    /// Minipage id, or [`NO_MP`].
    pub mp: u32,
    /// Peer host (message/invalidation counterpart), or [`NO_PEER`].
    pub peer: u16,
    /// Protocol event id (rendezvous), lock id, or 0.
    pub event: u64,
    /// Payload bytes for wire events, 0 otherwise.
    pub bytes: u32,
    /// Kind-specific detail; see the [`TraceKind`] variants.
    pub aux: u32,
}

impl TraceEvent {
    /// A bare event; detail fields start at their "none" markers.
    pub fn new(vt: Ns, host: HostId, track: Track, kind: TraceKind) -> Self {
        Self {
            vt,
            seq: 0,
            host: host.0,
            track,
            kind,
            mp: NO_MP,
            peer: NO_PEER,
            event: 0,
            bytes: 0,
            aux: 0,
        }
    }

    /// Sets the minipage id.
    pub fn with_mp(mut self, mp: u32) -> Self {
        self.mp = mp;
        self
    }

    /// Sets the peer host.
    pub fn with_peer(mut self, peer: HostId) -> Self {
        self.peer = peer.0;
        self
    }

    /// Sets the protocol event / lock id.
    pub fn with_event(mut self, event: u64) -> Self {
        self.event = event;
        self
    }

    /// Sets the payload size.
    pub fn with_bytes(mut self, bytes: usize) -> Self {
        self.bytes = bytes as u32;
        self
    }

    /// Sets the kind-specific detail.
    pub fn with_aux(mut self, aux: u32) -> Self {
        self.aux = aux;
        self
    }
}

/// Merge order of events sharing a virtual timestamp: state-releasing
/// events (window closes, invalidation confirmations, acks, fault ends)
/// sort before state-acquiring ones, so a replay never sees e.g. the
/// reopening of a service window before the close that freed it when both
/// carry the same stamp (the shard performs them back to back at one
/// virtual instant).
pub fn audit_rank(kind: TraceKind) -> u8 {
    use TraceKind::*;
    match kind {
        AllocGrant | AdaptSplit | AdaptMerge | AdaptMigrate => 0,
        WindowClose | Downgrade | InvalidateLocal | InvReplyRecv | AckRecv | RcDiffAckSend
        | RcDiffAckRecv | BarrierReleaseSend | LockRelease | ReadFaultEnd | WriteFaultEnd
        | MsgRecv => 1,
        _ => 2,
    }
}

struct Sink {
    capacity: usize,
    rings: Mutex<Vec<Vec<TraceEvent>>>,
    /// Per-host overwrite tallies (hosts with no drops absent).
    dropped: Mutex<std::collections::BTreeMap<u16, u64>>,
    /// Global record-order stamp ([`TraceEvent::seq`]).
    seq: AtomicU64,
}

/// The run-wide trace handle: hands out per-thread recorders and merges
/// their rings at the end. Cloning shares the sink. The default tracer is
/// disabled: recorders are inert and recording costs one branch.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Sink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.sink {
            Some(s) => write!(f, "Tracer(enabled, capacity {})", s.capacity),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A disabled tracer (the default): recording is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled tracer whose recorders each keep the most recent
    /// `capacity` events (older ones are overwritten and counted as
    /// dropped).
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity tracer");
        Self {
            sink: Some(Arc::new(Sink {
                capacity,
                rings: Mutex::new(Vec::new()),
                dropped: Mutex::new(std::collections::BTreeMap::new()),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// A recorder for one simulated thread.
    pub fn recorder(&self, host: HostId, track: Track) -> TraceRecorder {
        TraceRecorder {
            inner: self.sink.as_ref().map(|s| {
                Box::new(Ring {
                    host,
                    track,
                    buf: Vec::with_capacity(s.capacity.min(1024)),
                    next: 0,
                    dropped: 0,
                    sink: Arc::clone(s),
                })
            }),
        }
    }

    /// Per-host counts of events overwritten in full rings, flushed so
    /// far (hosts with no drops omitted). Unlike [`drain`](Self::drain)
    /// this does not consume the rings, so report assembly can surface
    /// drop counts while the caller still owns the eventual drain.
    pub fn dropped_by_host(&self) -> Vec<(u16, u64)> {
        let Some(s) = &self.sink else {
            return Vec::new();
        };
        s.dropped
            .lock()
            .expect("trace sink poisoned")
            .iter()
            .map(|(&h, &n)| (h, n))
            .collect()
    }

    /// Merges every flushed ring into one log ordered by
    /// `(vt, audit_rank)`. Call after the recording threads finished
    /// (dropped their recorders); rings still alive are not included.
    pub fn drain(&self) -> TraceLog {
        let Some(s) = &self.sink else {
            return TraceLog::default();
        };
        let rings = std::mem::take(&mut *s.rings.lock().expect("trace sink poisoned"));
        let dropped_by_host = self.dropped_by_host();
        let dropped = dropped_by_host.iter().map(|&(_, n)| n).sum();
        let mut events: Vec<TraceEvent> = rings.into_iter().flatten().collect();
        // The final `seq` tie-break makes the merged order independent of
        // ring flush order (recorders are flushed at drop, and drop order
        // races even under the deterministic scheduler).
        events.sort_by_key(|e| (e.vt, audit_rank(e.kind), e.host, e.seq));
        TraceLog {
            events,
            dropped,
            dropped_by_host,
        }
    }
}

/// The merged outcome of a traced run.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// All recorded events in `(vt, audit_rank)` order.
    pub events: Vec<TraceEvent>,
    /// Events overwritten in full rings (0 means the log is complete).
    pub dropped: u64,
    /// The same drops attributed per host (hosts with no drops omitted).
    pub dropped_by_host: Vec<(u16, u64)>,
}

struct Ring {
    host: HostId,
    track: Track,
    buf: Vec<TraceEvent>,
    /// Overwrite cursor once `buf` reached the sink capacity.
    next: usize,
    dropped: u64,
    sink: Arc<Sink>,
}

/// One thread's private event ring. Dropping it flushes into the tracer.
#[derive(Default)]
pub struct TraceRecorder {
    inner: Option<Box<Ring>>,
}

impl TraceRecorder {
    /// An inert recorder (what a disabled tracer hands out).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether events are recorded; callers use this to skip building
    /// events at all, so the disabled cost is this one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends an event; overwrites the oldest when the ring is full.
    #[inline]
    pub fn record(&mut self, mut ev: TraceEvent) {
        let Some(r) = &mut self.inner else { return };
        ev.seq = r.sink.seq.fetch_add(1, Ordering::Relaxed);
        if r.buf.len() < r.sink.capacity {
            r.buf.push(ev);
        } else {
            r.buf[r.next] = ev;
            r.next = (r.next + 1) % r.buf.len();
            r.dropped += 1;
        }
    }

    /// Builds and records an event in one call when enabled.
    #[inline]
    pub fn emit(&mut self, vt: Ns, kind: TraceKind, build: impl FnOnce(TraceEvent) -> TraceEvent) {
        let Some(r) = &self.inner else { return };
        let ev = TraceEvent::new(vt, r.host, r.track, kind);
        self.record(build(ev));
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        let Some(mut r) = self.inner.take() else {
            return;
        };
        // Restore chronological order for a wrapped ring: the slots from
        // the cursor on are the oldest surviving events.
        if r.dropped > 0 {
            r.buf.rotate_left(r.next);
        }
        let sink = Arc::clone(&r.sink);
        sink.rings.lock().expect("trace sink poisoned").push(r.buf);
        if r.dropped > 0 {
            *sink
                .dropped
                .lock()
                .expect("trace sink poisoned")
                .entry(r.host.0)
                .or_insert(0) += r.dropped;
        }
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event export (Perfetto / chrome://tracing).
// ---------------------------------------------------------------------

/// Builds the Chrome trace-event JSON (the "JSON Array Format" both
/// Perfetto and `chrome://tracing` open). Each simulated host becomes a
/// process, each of its threads ([`Track`]) a named track; paired events
/// (fault begin/end, window open/close, barrier enter/resume, lock
/// acquire/resume) render as duration slices, everything else as instants.
/// Timestamps convert from virtual nanoseconds to the format's
/// microseconds with 3 decimals, so nothing is lost.
#[derive(Default)]
pub struct ChromeTrace {
    body: String,
    named: std::collections::HashSet<(u32, u32)>,
    /// Name tracks after the host backend's OS threads (`mv-host-{h}`,
    /// `mv-server-{h}`) instead of the classic labels, so sim and host
    /// traces of the same workload render identically.
    os_names: bool,
}

/// A `(host, track)`-keyed open-slice stack entry.
struct Open {
    name: &'static str,
    begin: Ns,
    mp: u32,
    event: u64,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace whose tracks carry the host backend's OS thread
    /// names (`mv-host-{h}.{t}` for application threads, `mv-server-{h}`
    /// for the DSM server, `mv-shard-{h}` for the manager shard), so a
    /// sim trace and a host trace of the same workload render with the
    /// same track names in Perfetto.
    pub fn with_os_names() -> Self {
        Self {
            os_names: true,
            ..Self::default()
        }
    }

    fn tid(track: Track) -> u32 {
        match track {
            Track::App(t) => t as u32,
            Track::Server => 1000,
            Track::Shard => 1001,
        }
    }

    /// Appends one event object; the document keeps one event per line.
    fn push(&mut self, event: impl FnOnce(&mut Writer)) {
        if !self.body.is_empty() {
            self.body.push_str(",\n");
        }
        self.body
            .push_str(json::document(|w| _ = w.object(event)).trim_end());
    }

    fn ensure_names(&mut self, label: &str, pid: u32, host: u16, track: Track) {
        let meta = |name: &'static str, tid: u32, arg: String| {
            move |w: &mut Writer| {
                w.field("name", name)
                    .field("ph", "M")
                    .field("pid", pid)
                    .field("tid", tid);
                w.key("args").object(|w| _ = w.field("name", &arg));
            }
        };
        if self.named.insert((pid, u32::MAX)) {
            self.push(meta("process_name", 0, format!("{label} h{host}")));
        }
        let tid = Self::tid(track);
        if self.named.insert((pid, tid)) {
            let tname = if self.os_names {
                match track {
                    Track::App(t) => format!("mv-host-{host}.{t}"),
                    Track::Server => format!("mv-server-{host}"),
                    Track::Shard => format!("mv-shard-{host}"),
                }
            } else {
                match track {
                    Track::App(t) => format!("app t{t}"),
                    Track::Server => "dsm server".into(),
                    Track::Shard => "manager shard".into(),
                }
            };
            self.push(meta("thread_name", tid, tname));
        }
    }

    /// Appends one run's events. `label` names the run (e.g. the app);
    /// `pid_base` offsets the host→pid mapping so several runs coexist in
    /// one file without colliding.
    pub fn add_run(&mut self, label: &str, pid_base: u32, events: &[TraceEvent]) {
        use TraceKind::*;
        let mut open: std::collections::HashMap<(u16, u32), Vec<Open>> =
            std::collections::HashMap::new();
        for e in events {
            let pid = pid_base + e.host as u32;
            let tid = Self::tid(e.track);
            self.ensure_names(label, pid, e.host, e.track);
            let begin_name = match e.kind {
                ReadFaultBegin => Some("read fault"),
                WriteFaultBegin => Some("write fault"),
                WindowOpen => Some("service window"),
                BarrierEnter => Some("barrier"),
                LockAcquireBegin => Some("lock wait"),
                _ => None,
            };
            if let Some(name) = begin_name {
                open.entry((e.host, tid)).or_default().push(Open {
                    name,
                    begin: e.vt,
                    mp: e.mp,
                    event: e.event,
                });
                continue;
            }
            let closes = matches!(
                e.kind,
                ReadFaultEnd | WriteFaultEnd | WindowClose | BarrierResume | LockResume
            );
            if closes {
                if let Some(o) = open.entry((e.host, tid)).or_default().pop() {
                    self.push(|w| slice(w, &o, e.vt, pid, tid));
                }
                continue;
            }
            self.push(|w| instant(w, e, pid, tid));
        }
        // Unpaired begins (e.g. a window still open at a dropped-ring
        // boundary) close at their own start so they stay visible.
        for ((host, tid), stack) in open {
            let pid = pid_base + host as u32;
            for o in stack {
                self.push(|w| slice(w, &o, o.begin, pid, tid));
            }
        }
    }

    /// Appends a counter track (`ph:"C"`): one sample per `(vt, value)`
    /// point, rendered by Perfetto as a stepped area chart under process
    /// `pid`. Used for the diagnose command's per-host cumulative-fault
    /// counters.
    pub fn add_counter(&mut self, name: &str, pid: u32, points: &[(Ns, u64)]) {
        for &(vt, value) in points {
            self.push(|w| {
                w.field("name", name).field("cat", "diag").field("ph", "C");
                w.key("ts").raw(&us3(vt));
                w.field("pid", pid);
                w.key("args").object(|w| _ = w.field("value", value));
            });
        }
    }

    /// The complete JSON document.
    pub fn finish(self) -> String {
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            self.body
        )
    }
}

/// µs with 3 decimals from virtual ns (exact).
fn us3(vt: Ns) -> String {
    format!("{}.{:03}", vt / 1_000, vt % 1_000)
}

fn slice(w: &mut Writer, o: &Open, end: Ns, pid: u32, tid: u32) {
    w.field("name", o.name)
        .field("cat", "protocol")
        .field("ph", "X");
    w.key("ts").raw(&us3(o.begin));
    w.key("dur").raw(&us3(end.saturating_sub(o.begin)));
    w.field("pid", pid).field("tid", tid);
    w.key("args").object(|w| {
        if o.mp != NO_MP {
            w.field("mp", o.mp);
        }
        if o.event != 0 {
            w.field("event", o.event);
        }
    });
}

fn instant(w: &mut Writer, e: &TraceEvent, pid: u32, tid: u32) {
    w.field("name", format!("{:?}", e.kind))
        .field("cat", "protocol")
        .field("ph", "i")
        .field("s", "t");
    w.key("ts").raw(&us3(e.vt));
    w.field("pid", pid).field("tid", tid);
    w.key("args").object(|w| {
        if e.mp != NO_MP {
            w.field("mp", e.mp);
        }
        if e.peer != NO_PEER {
            w.field("peer", e.peer);
        }
        if e.bytes != 0 {
            w.field("bytes", e.bytes);
        }
        if e.event != 0 {
            w.field("event", e.event);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(vt: Ns, kind: TraceKind) -> TraceEvent {
        TraceEvent::new(vt, HostId(0), Track::App(0), kind)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let mut r = t.recorder(HostId(0), Track::App(0));
        assert!(!r.enabled());
        r.record(ev(1, TraceKind::MsgSend));
        drop(r);
        let log = t.drain();
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn events_flush_on_drop_and_merge_by_time() {
        let t = Tracer::enabled(64);
        let mut a = t.recorder(HostId(0), Track::App(0));
        let mut b = t.recorder(HostId(1), Track::Server);
        a.record(ev(30, TraceKind::MsgSend));
        a.record(ev(10, TraceKind::MsgSend));
        b.record(TraceEvent::new(
            20,
            HostId(1),
            Track::Server,
            TraceKind::MsgRecv,
        ));
        drop(a);
        drop(b);
        let log = t.drain();
        let vts: Vec<Ns> = log.events.iter().map(|e| e.vt).collect();
        assert_eq!(vts, vec![10, 20, 30]);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let t = Tracer::enabled(4);
        let mut r = t.recorder(HostId(2), Track::Shard);
        for vt in 1..=7 {
            r.record(TraceEvent::new(
                vt,
                HostId(2),
                Track::Shard,
                TraceKind::MsgSend,
            ));
        }
        drop(r);
        assert_eq!(t.dropped_by_host(), vec![(2, 3)]);
        let log = t.drain();
        let vts: Vec<Ns> = log.events.iter().map(|e| e.vt).collect();
        assert_eq!(vts, vec![4, 5, 6, 7]);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.dropped_by_host, vec![(2, 3)]);
    }

    #[test]
    fn hosts_without_drops_are_omitted() {
        let t = Tracer::enabled(4);
        let mut full = t.recorder(HostId(0), Track::App(0));
        let mut quiet = t.recorder(HostId(1), Track::App(0));
        for vt in 1..=6 {
            full.record(ev(vt, TraceKind::MsgSend));
        }
        quiet.record(TraceEvent::new(
            1,
            HostId(1),
            Track::App(0),
            TraceKind::MsgSend,
        ));
        drop(full);
        drop(quiet);
        assert_eq!(t.drain().dropped_by_host, vec![(0, 2)]);
    }

    #[test]
    fn os_names_rename_tracks_and_counters_emit() {
        let mut ct = ChromeTrace::with_os_names();
        ct.add_run(
            "SOR",
            0,
            &[
                ev(1_000, TraceKind::ReadFaultBegin).with_mp(3),
                TraceEvent::new(2_000, HostId(0), Track::Server, TraceKind::MsgRecv),
            ],
        );
        ct.add_counter("faults h0", 0, &[(1_000, 1), (2_000, 2)]);
        let json = ct.finish();
        assert!(json.contains("mv-host-0.0"));
        assert!(json.contains("mv-server-0"));
        assert!(!json.contains("dsm server"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":2"));
    }

    #[test]
    fn equal_stamps_order_completions_first() {
        let t = Tracer::enabled(16);
        let mut r = t.recorder(HostId(0), Track::Shard);
        r.record(ev(5, TraceKind::WindowOpen).with_mp(1));
        r.record(ev(9, TraceKind::WindowClose).with_mp(1));
        // Reopened at the same instant the close happened; recorded in
        // order here, but the merge must keep close-before-open even if
        // another ring interleaves.
        let mut r2 = t.recorder(HostId(0), Track::Server);
        r2.record(TraceEvent::new(9, HostId(0), Track::Server, TraceKind::WindowOpen).with_mp(1));
        drop(r);
        drop(r2);
        let log = t.drain();
        let kinds: Vec<TraceKind> = log.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::WindowOpen,
                TraceKind::WindowClose,
                TraceKind::WindowOpen
            ]
        );
    }

    #[test]
    fn chrome_export_pairs_slices_and_escapes() {
        let mut ct = ChromeTrace::new();
        ct.add_run(
            "SOR \"quick\"",
            0,
            &[
                ev(1_000, TraceKind::ReadFaultBegin).with_mp(3),
                ev(2_500, TraceKind::MsgSend)
                    .with_peer(HostId(1))
                    .with_bytes(64),
                ev(4_000, TraceKind::ReadFaultEnd).with_mp(3),
            ],
        );
        let json = ct.finish();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":3.000"));
        assert!(json.contains("\\\"quick\\\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.ends_with("}\n"));
    }
}
