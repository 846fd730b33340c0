//! One call per protocol fact.
//!
//! The paper's results are counts of protocol facts — faults,
//! invalidations, competing requests — and three recorders take them in:
//! the run's counters ([`Counts`], summed into the
//! [`RunReport`](crate::RunReport)), the sharing-diagnostics lanes
//! ([`DiagTable`], when diagnostics are on) and the protocol trace (when
//! tracing is on). Every recording thread — an application thread, a
//! server, a manager shard — owns one [`Probe`], and a protocol step
//! reports itself once, through [`Probe::on`]: one `match` over [`Fact`]
//! decides which recorder sees what. A disabled diagnostics table or
//! tracer costs one branch each; the trace record is built only when
//! tracing is on.
//!
//! Records that feed no counter and no lane go to the trace alone, through
//! [`Probe::trace`]. The host backend's SIGSEGV resolver records through a
//! probe too, from signal context: its trace is off, and counters and
//! lanes are relaxed atomics on pre-allocated cells, so a fact allocates
//! nothing.

use crate::diag::DiagTable;
use crate::diff::Diff;
use crate::host::HostState;
use multiview::MinipageId;
use sim_core::trace::{TraceEvent, TraceKind, TraceRecorder, Tracer, Track};
use sim_core::{HostId, Ns};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// One host's protocol counts, shared by its application threads, its
/// server and its manager shard: the report sums them over hosts, and a
/// shard's own counts are its host's.
#[derive(Debug, Default)]
pub(crate) struct Counts {
    /// Read faults taken on this host.
    pub(crate) read_faults: AtomicU64,
    /// Write faults taken on this host.
    pub(crate) write_faults: AtomicU64,
    /// Read prefetches issued on this host.
    pub(crate) prefetches: AtomicU64,
    /// Invalidations this host applied.
    pub(crate) invalidations_received: AtomicU64,
    /// Invalidations this host's shard fanned out.
    pub(crate) invalidations_sent: AtomicU64,
    /// Barriers this host's shard completed.
    pub(crate) barriers: AtomicU64,
    /// Locks this host's shard granted.
    pub(crate) lock_acquires: AtomicU64,
    /// Pushes this host's shard published.
    pub(crate) pushes: AtomicU64,
    /// Release diffs this host's shard applied.
    pub(crate) rc_diffs: AtomicU64,
}

/// One protocol fact that feeds a counter or a diagnostics lane. Each
/// variant names the step it stands for; its trace record, if any, is the
/// one that step always wrote.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fact<'a> {
    /// A read or write fault enters the protocol, at byte `off` of
    /// minipage `mp` (`NO_MP` when nothing attributes it).
    FaultBegin { mp: u32, write: bool, off: u64 },
    /// A read prefetch goes out.
    Prefetch,
    /// This host applied an invalidation of `mp` its home shard sent for
    /// the request `event`.
    InvRecv { mp: u32, event: u64 },
    /// The home shard forwards `mp`'s writable copy from `src` to
    /// `writer`.
    WriteForward {
        mp: u32,
        src: HostId,
        writer: HostId,
    },
    /// The home shard invalidates `to`'s copy of `mp` for the request
    /// `event`.
    InvSend { mp: u32, to: HostId, event: u64 },
    /// The home applied `from`'s release diff of `mp`, `bytes` encoded.
    RcDiff {
        mp: u32,
        from: HostId,
        event: u64,
        bytes: usize,
        diff: &'a Diff,
    },
    /// The lock service grants `lock` to `to`.
    LockGrant { lock: u64, to: HostId },
    /// A barrier reached its quorum.
    BarrierDone,
    /// A push publishes read copies of its minipage everywhere.
    Push,
    /// Adaptation split `parent` into the `n` minipages from `first` on.
    Split { parent: u32, first: u32, n: u32 },
    /// Adaptation merged `old` into `merged`.
    Merge { old: &'a [MinipageId], merged: u32 },
    /// Adaptation moved `mp`'s home to `to` (`writable`: its fresh copy
    /// there starts writable).
    Migrate { mp: u32, to: HostId, writable: bool },
}

impl<M, W> HostState<M, W> {
    /// A probe for the recording thread `track` of this host, tracing
    /// into `tracer`.
    pub(crate) fn probe(&self, tracer: &Tracer, track: Track) -> Probe {
        let trace = tracer.recorder(self.host, track);
        Probe::new(self.host, &self.counts, &self.diag, trace)
    }
}

/// One recording thread's way into the counters, the diagnostics lanes
/// and the trace.
pub(crate) struct Probe {
    host: HostId,
    trace: TraceRecorder,
    diag: Option<Arc<DiagTable>>,
    counts: Arc<Counts>,
}

impl Probe {
    /// A probe of `host` whose facts go to `counts`, `diag` and `trace`.
    pub(crate) fn new(
        host: HostId,
        counts: &Arc<Counts>,
        diag: &Option<Arc<DiagTable>>,
        trace: TraceRecorder,
    ) -> Self {
        let (counts, diag) = (Arc::clone(counts), diag.clone());
        Self {
            host,
            trace,
            diag,
            counts,
        }
    }

    /// Whether a fact's minipage reaches a recorder (diagnostics or
    /// tracing is on); callers skip attributing it otherwise.
    pub(crate) fn attributes(&self) -> bool {
        self.diag.is_some() || self.trace.enabled()
    }

    /// The diagnostics table, when diagnostics are on.
    pub(crate) fn table(&self) -> Option<&Arc<DiagTable>> {
        self.diag.as_ref()
    }

    /// A trace-only record: `build` runs only when tracing is on.
    #[inline]
    pub(crate) fn trace(
        &mut self,
        vt: Ns,
        kind: TraceKind,
        build: impl FnOnce(TraceEvent) -> TraceEvent,
    ) {
        self.trace.emit(vt, kind, build);
    }

    /// Records `fact` at `vt` in every recorder that takes it.
    pub(crate) fn on(&mut self, vt: Ns, fact: Fact<'_>) {
        let (c, d, me) = (&*self.counts, self.diag.as_deref(), self.host.0);
        let bump = |n: &AtomicU64| _ = n.fetch_add(1, Relaxed);
        // The lane update, when diagnostics are on.
        let lane = |record: &dyn Fn(&DiagTable)| d.into_iter().for_each(record);
        match fact {
            Fact::FaultBegin { mp, write, off } => {
                let kind = if write {
                    bump(&c.write_faults);
                    lane(&|t| t.write_fault(mp, me, off, 1));
                    TraceKind::WriteFaultBegin
                } else {
                    bump(&c.read_faults);
                    lane(&|t| t.read_fault(mp, me));
                    TraceKind::ReadFaultBegin
                };
                self.trace.emit(vt, kind, |e| e.with_mp(mp));
            }
            Fact::Prefetch => bump(&c.prefetches),
            Fact::InvRecv { mp, event } => {
                bump(&c.invalidations_received);
                lane(&|t| t.inv_recv(mp, me));
                // aux 1 marks a *received* invalidation, apart from the
                // copy drops of a write serve and of a release flush.
                self.trace.emit(vt, TraceKind::InvalidateLocal, |e| {
                    e.with_mp(mp).with_event(event).with_aux(1)
                });
            }
            Fact::WriteForward { mp, src, writer } => {
                lane(&|t| t.writer(mp, writer.0));
                self.trace.emit(vt, TraceKind::Forward, |e| {
                    e.with_mp(mp).with_peer(src).with_aux(1)
                });
            }
            Fact::InvSend { mp, to, event } => {
                bump(&c.invalidations_sent);
                lane(&|t| t.inv_sent(mp, 1));
                self.trace.emit(vt, TraceKind::InvSend, |e| {
                    e.with_mp(mp).with_peer(to).with_event(event)
                });
            }
            Fact::RcDiff {
                mp,
                from,
                event,
                bytes,
                diff,
            } => {
                bump(&c.rc_diffs);
                lane(&|t| {
                    t.writer(mp, from.0);
                    t.diff_bytes(mp, bytes as u64);
                    for (off, run) in diff.iter_runs() {
                        t.write_extent(mp, from.0, off as u64, run.len() as u64);
                    }
                });
                self.trace.emit(vt, TraceKind::RcDiffApply, |e| {
                    e.with_mp(mp)
                        .with_bytes(bytes)
                        .with_event(event)
                        .with_peer(from)
                });
            }
            Fact::LockGrant { lock, to } => {
                bump(&c.lock_acquires);
                self.trace.emit(vt, TraceKind::LockGrantSend, |e| {
                    e.with_peer(to).with_event(lock)
                });
            }
            Fact::BarrierDone => bump(&c.barriers),
            Fact::Push => bump(&c.pushes),
            Fact::Split { parent, first, n } => {
                lane(&|t| {
                    (first..first + n)
                        .chain([parent])
                        .for_each(|mp| t.reset_slot(mp))
                });
                self.trace.emit(vt, TraceKind::AdaptSplit, |e| {
                    e.with_mp(parent).with_aux(n).with_event(first as u64)
                });
            }
            Fact::Merge { old, merged } => {
                let ids = || old.iter().map(|id| id.0).chain([merged]);
                lane(&|t| ids().for_each(|mp| t.reset_slot(mp)));
                self.trace.emit(vt, TraceKind::AdaptMerge, |e| {
                    e.with_mp(old[0].0)
                        .with_aux(old.len() as u32)
                        .with_event(merged as u64)
                });
            }
            Fact::Migrate { mp, to, writable } => {
                lane(&|t| t.reset_slot(mp));
                self.trace.emit(vt, TraceKind::AdaptMigrate, |e| {
                    e.with_mp(mp).with_peer(to).with_aux(u32::from(writable))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hlrc::Consistency;
    use crate::home::{HomePolicyKind, HomeTable};
    use crate::host::Waiters;
    use crate::msg::{MsgKind, Pmsg};
    use multiview::{AllocMode, Allocator};
    use sim_core::{CostModel, LinkTraffic, VAddr};
    use sim_mem::{AddressSpace, Geometry};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::rc::Rc;

    thread_local! {
        /// Allocations made by this thread. Const-initialized with no
        /// destructor, so counting takes no lazy path that could allocate.
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    struct Counting;

    // SAFETY: every call forwards to `System` unchanged; counting only
    // bumps a thread-local integer.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's contract for `alloc` is `System`'s.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    const ME: HostId = HostId(1);
    const PEER: HostId = HostId(0);

    /// Every count at 0 but `count`, at 1.
    fn one(count: fn(&Counts) -> &AtomicU64) -> String {
        let c = Counts::default();
        count(&c).store(1, Relaxed);
        format!("{c:?}")
    }

    /// A two-host table with activity in every slot, so a reset shows.
    fn seeded() -> Arc<DiagTable> {
        let t = DiagTable::with_slots(2, 8);
        for mp in 0..8 {
            t.write_fault(mp, 0, 4, 4);
            t.inv_recv(mp, 1);
            t.inv_sent(mp, 1);
            t.diff_bytes(mp, 3);
            t.writer(mp, 0);
            t.writer(mp, 1);
        }
        t
    }

    /// `fact` recorded at virtual time 7 by a fresh probe of host 1: its
    /// counts, its table's snapshot and its trace.
    fn record(fact: Fact<'_>, diag: bool, trace: bool) -> (String, Option<Vec<u64>>, String) {
        let table = diag.then(seeded);
        let tracer = match trace {
            true => Tracer::enabled(16),
            false => Tracer::disabled(),
        };
        let c = Arc::new(Counts::default());
        let (trace, diag, counts) = (tracer.recorder(ME, Track::Shard), table.clone(), c.clone());
        let mut probe = Probe {
            host: ME,
            trace,
            diag,
            counts,
        };
        probe.on(7, fact);
        drop(probe);
        let events: Vec<TraceEvent> = tracer.drain().events;
        let events = events.into_iter().map(|e| TraceEvent { seq: 0, ..e });
        let trace = format!("{:?}", events.collect::<Vec<_>>());
        (format!("{c:?}"), table.map(|t| t.snapshot()), trace)
    }

    /// Every fact, with diagnostics and tracing on, lands exactly in its
    /// counters, its lanes and its trace record; with both off, in its
    /// counters alone.
    #[test]
    fn each_fact_reaches_exactly_its_recorders() {
        let twin = [0u8; 64];
        let mut now = twin;
        now[2..4].copy_from_slice(&[1, 2]);
        now[40] = 3;
        let diff = Diff::compute(&twin, &now);
        let runs: Vec<(usize, usize)> = diff.iter_runs().map(|(o, b)| (o, b.len())).collect();
        assert_eq!(runs, [(2, 2), (40, 1)]);
        let old = [MinipageId(2), MinipageId(3)];
        let ev = |kind| Some(TraceEvent::new(7, ME, Track::Shard, kind));
        type Lanes = fn(&DiagTable);
        let none = || format!("{:?}", Counts::default());
        #[rustfmt::skip]
        let cases: Vec<(Fact, String, Lanes, Option<TraceEvent>)> = vec![
            (Fact::FaultBegin { mp: 3, write: false, off: 5 }, one(|c| &c.read_faults),
             |t| t.read_fault(3, 1),
             ev(TraceKind::ReadFaultBegin).map(|e| e.with_mp(3))),
            (Fact::FaultBegin { mp: 3, write: true, off: 5 }, one(|c| &c.write_faults),
             |t| t.write_fault(3, 1, 5, 1),
             ev(TraceKind::WriteFaultBegin).map(|e| e.with_mp(3))),
            (Fact::Prefetch, one(|c| &c.prefetches), |_| {}, None),
            (Fact::InvRecv { mp: 2, event: 9 }, one(|c| &c.invalidations_received),
             |t| t.inv_recv(2, 1),
             ev(TraceKind::InvalidateLocal).map(|e| e.with_mp(2).with_event(9).with_aux(1))),
            (Fact::WriteForward { mp: 2, src: PEER, writer: ME }, none(),
             |t| t.writer(2, 1),
             ev(TraceKind::Forward).map(|e| e.with_mp(2).with_peer(PEER).with_aux(1))),
            (Fact::InvSend { mp: 2, to: PEER, event: 9 }, one(|c| &c.invalidations_sent),
             |t| t.inv_sent(2, 1),
             ev(TraceKind::InvSend).map(|e| e.with_mp(2).with_peer(PEER).with_event(9))),
            (Fact::RcDiff { mp: 4, from: PEER, event: 9, bytes: 12, diff: &diff },
             one(|c| &c.rc_diffs),
             |t| {
                 t.writer(4, 0);
                 t.diff_bytes(4, 12);
                 t.write_extent(4, 0, 2, 2);
                 t.write_extent(4, 0, 40, 1);
             },
             ev(TraceKind::RcDiffApply)
                 .map(|e| e.with_mp(4).with_bytes(12).with_event(9).with_peer(PEER))),
            (Fact::LockGrant { lock: 5, to: PEER }, one(|c| &c.lock_acquires), |_| {},
             ev(TraceKind::LockGrantSend).map(|e| e.with_peer(PEER).with_event(5))),
            (Fact::BarrierDone, one(|c| &c.barriers), |_| {}, None),
            (Fact::Push, one(|c| &c.pushes), |_| {}, None),
            (Fact::Split { parent: 1, first: 5, n: 2 }, none(),
             |t| [5, 6, 1].into_iter().for_each(|mp| t.reset_slot(mp)),
             ev(TraceKind::AdaptSplit).map(|e| e.with_mp(1).with_aux(2).with_event(5))),
            (Fact::Merge { old: &old, merged: 7 }, none(),
             |t| [2, 3, 7].into_iter().for_each(|mp| t.reset_slot(mp)),
             ev(TraceKind::AdaptMerge).map(|e| e.with_mp(2).with_aux(2).with_event(7))),
            (Fact::Migrate { mp: 4, to: PEER, writable: true }, none(),
             |t| t.reset_slot(4),
             ev(TraceKind::AdaptMigrate).map(|e| e.with_mp(4).with_peer(PEER).with_aux(1))),
        ];
        for (fact, want_counts, lanes, want_trace) in cases {
            let want_table = seeded();
            lanes(&want_table);
            let want_trace = format!("{:?}", Vec::from_iter(want_trace));
            let got = record(fact, true, true);
            let want = (want_counts.clone(), Some(want_table.snapshot()), want_trace);
            assert_eq!(got, want, "{fact:?} with diagnostics and tracing on");
            let got = record(fact, false, false);
            let want = (want_counts.clone(), None, "[]".to_string());
            assert_eq!(got, want, "{fact:?} with both off");
        }
    }

    /// What the host resolver does in signal context allocates nothing,
    /// with diagnostics on: it builds its probe, records a fault, counts
    /// the link traffic of its request and of the previous fault's `Ack`,
    /// and builds, copies and drops those header-only messages. (The
    /// interrupted thread may hold the allocator's lock.)
    #[test]
    fn signal_context_work_allocates_nothing() {
        let geo = Geometry::new(4, 2);
        let home = HomeTable::new(
            HomePolicyKind::Centralized,
            2,
            Allocator::new(geo.clone(), AllocMode::FINE),
        );
        let state = HostState::new(
            ME,
            AddressSpace::new(geo),
            Waiters::default(),
            CostModel::default(),
            Consistency::default(),
            Rc::new(home),
            Some(seeded()),
        );
        let links = LinkTraffic::new(2);
        let allocs = || ALLOCS.with(Cell::get);
        let before = allocs();
        let mut probe = state.probe(&Tracer::disabled(), Track::App(0));
        for kind in [MsgKind::ReadRequest, MsgKind::WriteRequest, MsgKind::Ack] {
            if kind != MsgKind::Ack {
                let (mp, write, off) = (3, kind == MsgKind::WriteRequest, 5);
                probe.on(0, Fact::FaultBegin { mp, write, off });
            }
            links.record(ME, PEER, 0);
            let m = Pmsg::new(kind, ME, 1).with_addr(VAddr(0x4000));
            let copy = std::hint::black_box(m.clone());
            drop(std::hint::black_box(m));
            drop(copy);
        }
        drop(probe);
        assert_eq!(allocs() - before, 0);
        let c = &state.counts;
        let faults = [&c.read_faults, &c.write_faults].map(|n| n.load(Relaxed));
        assert_eq!(faults, [1, 1]);
        // The counter counts: a message with data allocates.
        let mut m = Pmsg::new(MsgKind::ReadReply, PEER, 1);
        m.data = vec![0u8; 64].into();
        drop(std::hint::black_box(m));
        assert!(allocs() > before);
    }
}
