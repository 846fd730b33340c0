//! Cluster assembly: build the hosts, run the application, report.
//!
//! §3.4: "only a single instance of the application should be executed on
//! each host". [`run`] plays the role of starting that executable
//! concurrently on every host of the testbed: it builds one DSM server and
//! spawns the application threads of every simulated host, runs the
//! `setup` closure once (the manager initializing shared structures before
//! the computation starts), hands every application thread the same shared
//! handle bundle, and assembles a [`RunReport`] when everything joins.
//!
//! The protocol stack itself — home table, per-host states, manager
//! shards, diagnostics table, setup, and the post-run coherence, directory
//! and geometry checks — is backend-neutral: [`Stack`] builds and checks it
//! for this simulator and for the real-memory backend
//! ([`run_host`](crate::hostrun::run_host)) alike, over either's memory and
//! wake-up.
//!
//! Every run executes under the deterministic scheduler
//! (`sim_core::sched`), on the caller's OS thread. Application threads
//! are fibers of that thread (`sim_core::fiber`), of which the scheduler
//! lets one run at a time, so handing the schedule over is a stack switch;
//! a server is a passive slot whose handlers run as upcalls of whichever
//! application thread holds the schedule — the paper's §3.5 arrangement.
//! A run of H hosts × T threads starts no OS thread and leaves the
//! caller's CPU affinity alone.

use crate::adapt::AdaptReport;
use crate::backend::{MemoryBackend, SimWire};
use crate::diag::{build_report, DiagReport, DiagTable};
use crate::error::ProtocolError;
use crate::hlrc::Consistency;
use crate::home::{HomePolicyKind, HomeTable, MANAGER};
use crate::host::{HostCtx, HostState, Waiters};
use crate::manager::ManagerShard;
use crate::msg::{MsgKind, Pmsg};
use crate::probe::Counts;
use crate::server::{Server, ServerOutcome};
use crate::shared::{wire_bytes, Pod, SharedCell, SharedVec};
use crate::stats::{
    check_coherence, check_directories, check_rc_consistency, HostReport, NetFaultStats, RunReport,
    ShardStats,
};
use multiview::{AllocMode, Allocator, Minipage};
use sim_core::clock::Clock;
use sim_core::sched::{FiberBody, FiberRun, SchedMode, Scheduler, ThreadKey, Turn, TurnFn};
use sim_core::trace::{Tracer, Track};
use sim_core::{CostModel, HostId, LinkTraffic, LogHistogram, SplitMix64, TimeBreakdown};
use sim_mem::{AddressSpace, Geometry, VAddr};
use sim_net::{FaultPlane, Network, ServerTimeline};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Configuration of a simulated Millipage cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of hosts (the paper's testbed: 1–8).
    pub hosts: usize,
    /// Application views ("the initial setting of the maximal number of
    /// views", §3.2).
    pub views: usize,
    /// Memory-object size in 4 KB pages.
    pub pages: usize,
    /// Platform cost model.
    pub cost: CostModel,
    /// Allocation policy (fine grain, chunked, or the page-grain baseline).
    pub alloc_mode: AllocMode,
    /// Application threads per host (§3.4: "only a single instance of
    /// the application should be executed on each host, even if this host
    /// is a multi-processor (SMP) machine" — the instance itself may be
    /// multithreaded).
    pub threads_per_host: usize,
    /// Coherence protocol: the paper's SW/MR sequential consistency or
    /// the §5 home-based eager release-consistency extension.
    pub consistency: Consistency,
    /// How minipages are distributed over manager shards (§5: "this
    /// problem can be solved by distributing the minipage management
    /// among several managers"). The default reproduces the paper's
    /// single centralized manager exactly.
    pub home_policy: HomePolicyKind,
    /// Seed for every stochastic model component.
    pub seed: u64,
    /// Protocol event tracer. Disabled by default (recording then costs
    /// one branch per instrumentation point); pass
    /// [`Tracer::enabled`] and drain it after [`run`] returns to get the
    /// merged event log.
    pub tracer: Tracer,
    /// Seeded wire-fault injection (drop / duplicate / jitter / reorder
    /// plus scripted one-shot faults). Disabled by default, in which case
    /// the network takes the exact pre-fault-plane code path.
    pub faults: FaultPlane,
    /// The schedule policy (see `sim_core::sched`): the canonical
    /// virtual-time order by default, or a seeded exploration policy. A
    /// schedule nobody can advance ends in a typed
    /// [`ProtocolError::Deadlock`]; there is no wall-clock backstop.
    pub sched: SchedMode,
    /// Inert: nothing reads it. It outlived the partitioned scheduler
    /// only because the benchmark still sets it; ROADMAP item 1(a) removes
    /// that last user, and then this field goes too.
    #[doc(hidden)]
    pub parallel: Option<ParallelConfig>,
    /// Per-minipage sharing diagnostics (see [`crate::diag`]): heat
    /// counters on the fault and invalidation paths, merged into
    /// [`RunReport::diag`] with ranked detector findings. Off by default —
    /// a disabled sink costs one branch per instrumentation point and
    /// leaves every existing report byte-for-byte unchanged.
    pub diag: bool,
    /// Online adaptation (see [`crate::adapt`]): act on the diagnostics
    /// at barrier quiesce points — split falsely shared minipages, merge
    /// ping-ponging siblings, migrate homes to their dominant writer.
    /// Disabled by default; most actions also need `diag: true` to have
    /// anything to plan from.
    pub adapt: crate::adapt::AdaptConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            hosts: 8,
            views: 32,
            pages: 4096, // 16 MB shared.
            cost: CostModel::default(),
            alloc_mode: AllocMode::FINE,
            threads_per_host: 1,
            consistency: Consistency::SequentialSwMr,
            home_policy: HomePolicyKind::Centralized,
            seed: 0x4D69_6C6C_6950_6167, // "MilliPag"
            tracer: Tracer::disabled(),
            faults: FaultPlane::disabled(),
            sched: SchedMode::deterministic(),
            parallel: None,
            diag: false,
            adapt: crate::adapt::AdaptConfig::default(),
        }
    }
}

/// Inert, like [`ClusterConfig::parallel`]: the partitioned scheduler it
/// configured is gone, and every run is sequential. Kept only for the
/// benchmark's `sor32_w2` row until ROADMAP item 1(a) removes that last
/// user.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig;

impl ParallelConfig {
    /// The inert config, whatever the worker count.
    pub fn workers(_: usize) -> Self {
        Self
    }
}

/// Pre-run allocation context handed to the `setup` closure.
///
/// Setup runs logically on the manager at virtual time zero, before the
/// application threads start; its writes are free (they model the program
/// initializing data before the timed region).
pub struct SetupCtx<'a> {
    mgr: &'a mut dyn SetupShard,
}

/// What setup asks of the manager's shard, on either backend (each holds
/// its shards with its own cluster type).
pub(crate) trait SetupShard {
    /// Allocates `bytes` for the manager host, at virtual time zero.
    fn alloc(&mut self, bytes: usize) -> VAddr;
    /// Closes the current chunk (see
    /// [`Allocator::finish_chunk`](multiview::Allocator::finish_chunk)).
    fn finish_chunk(&mut self);
    /// See [`Allocator::retire_page`](multiview::Allocator::retire_page).
    fn retire_page(&mut self);
    /// Pre-run initialization write (free): lands in the home host's
    /// memory of every minipage the range crosses, so the fresh master
    /// copies carry the data.
    fn init_write(&self, addr: VAddr, data: &[u8]);
}

impl SetupCtx<'_> {
    /// Allocates `bytes` of shared memory. Setup allocations are issued
    /// by the manager host, so first-touch homes them there.
    pub fn alloc_bytes(&mut self, bytes: usize) -> VAddr {
        self.mgr.alloc(bytes)
    }

    /// Allocates a shared vector of `len` elements.
    pub fn alloc_vec<T: Pod>(&mut self, len: usize) -> SharedVec<T> {
        SharedVec::from_raw(self.alloc_bytes(len * T::SIZE), len)
    }

    /// Allocates and initializes a shared vector.
    pub fn alloc_vec_init<T: Pod>(&mut self, vals: &[T]) -> SharedVec<T> {
        let sv = self.alloc_vec(vals.len());
        self.write_vec(&sv, 0, vals);
        sv
    }

    /// Allocates a single shared cell.
    pub fn alloc_cell<T: Pod>(&mut self) -> SharedCell<T> {
        SharedCell::from_raw(self.alloc_bytes(T::SIZE))
    }

    /// Allocates and initializes a shared cell.
    pub fn alloc_cell_init<T: Pod>(&mut self, v: T) -> SharedCell<T> {
        let c = self.alloc_cell();
        self.write_cell(&c, v);
        c
    }

    /// Ends the current allocation chunk (§4.4): the next allocation opens
    /// a fresh minipage even if its size matches.
    pub fn finish_chunk(&mut self) {
        self.mgr.finish_chunk();
    }

    /// Starts the next allocation on a fresh physical page (separating
    /// logically distinct structures, like distinct `malloc` arenas).
    pub fn new_page(&mut self) {
        self.mgr.retire_page();
    }

    /// Initializes `vals` at element `start` (free, pre-run). The bytes
    /// land in the home host's copy of every minipage the range crosses.
    pub fn write_vec<T: Pod>(&mut self, sv: &SharedVec<T>, start: usize, vals: &[T]) {
        if vals.is_empty() {
            return;
        }
        let (addr, _) = sv.range_bytes(start, start + vals.len());
        self.mgr.init_write(addr, &wire_bytes(vals));
    }

    /// Initializes the cell (free, pre-run).
    pub fn write_cell<T: Pod>(&mut self, c: &SharedCell<T>, v: T) {
        self.mgr.init_write(c.addr(), &wire_bytes(&[v]));
    }
}

/// Panics unless `hosts` fits a copyset (`u64` bitmasks).
pub(crate) fn assert_hosts(hosts: usize) {
    assert!(
        (1..=HostId::MAX_HOSTS).contains(&hosts),
        "host count {hosts} out of range"
    );
}

/// One run's protocol stack, on either backend: the geometry, the home
/// table, one [`HostState`] per host over the backend's memory `M` and
/// wake-up `W`, and the diagnostics table. [`Stack::new`] builds it with
/// the manager shards and runs setup; after the run, [`Stack::check`]
/// holds the shards and states the driver hands back to the invariants.
/// One OS thread does all three (the simulator's caller, or the host
/// backend's server thread), so the stack is held by `Rc`.
pub(crate) struct Stack<M, W> {
    pub(crate) geo: Geometry,
    pub(crate) home: Rc<HomeTable>,
    pub(crate) states: Vec<Rc<HostState<M, W>>>,
    /// The diagnostics table; `None` unless [`ClusterConfig::diag`].
    pub(crate) diag: Option<Arc<DiagTable>>,
    consistency: Consistency,
    adapt: bool,
}

/// What [`Stack::check`] finds after a run.
pub(crate) struct Verdict {
    /// Coherence, directory and geometry violations, in that order.
    pub(crate) violations: Vec<String>,
    /// The shards' adaptation actions, merged; `None` unless adaptation
    /// was enabled.
    pub(crate) adapt: Option<AdaptReport>,
    /// The sharing report; `None` unless diagnostics were on.
    pub(crate) diag: Option<DiagReport>,
}

impl<M, W> Stack<M, W>
where
    M: MemoryBackend + 'static,
    W: 'static,
{
    /// Builds the stack for `cfg` over `geo`, with `host(h)` giving host
    /// `h`'s memory and wake-up, and runs `setup` on the manager's shard.
    /// Every host runs a manager shard; the manager's also carries the
    /// shared allocator and the synchronization services. The shards see
    /// the cluster's memory only through the backend trait.
    ///
    /// # Panics
    ///
    /// Panics if the host or thread count is out of range.
    pub(crate) fn new<T>(
        cfg: &ClusterConfig,
        geo: Geometry,
        mut host: impl FnMut(HostId) -> (M, W),
        setup: impl FnOnce(&mut SetupCtx) -> T,
    ) -> (Self, Vec<ManagerShard<M, W>>, T) {
        assert_hosts(cfg.hosts);
        assert!(
            cfg.threads_per_host >= 1,
            "need at least one application thread"
        );
        // One slot per application-view vpage bounds the minipage ids any
        // allocation order can produce, so the table never overflows (and
        // the host backend's signal-context recording never takes the
        // overflow path).
        let diag = cfg
            .diag
            .then(|| DiagTable::with_slots(cfg.hosts, geo.priv_view() * geo.pages()));
        let alloc = Allocator::new(geo.clone(), cfg.alloc_mode);
        let home = Rc::new(HomeTable::new(cfg.home_policy, cfg.hosts, alloc));
        let states: Vec<Rc<HostState<M, W>>> = (0..cfg.hosts)
            .map(|h| {
                let id = HostId(h as u16);
                let (mem, wake) = host(id);
                Rc::new(HostState::new(
                    id,
                    mem,
                    wake,
                    cfg.cost.clone(),
                    cfg.consistency,
                    Rc::clone(&home),
                    diag.clone(),
                ))
            })
            .collect();
        let cluster = Rc::new(states.clone());
        let mut shards: Vec<_> = (0..cfg.hosts)
            .map(|h| {
                ManagerShard::new(
                    HostId(h as u16),
                    cfg.hosts * cfg.threads_per_host,
                    Rc::clone(&home),
                    Rc::clone(&cluster),
                    states[h].probe(&cfg.tracer, Track::Shard),
                    cfg.adapt.clone(),
                )
            })
            .collect();
        let mgr = &mut shards[MANAGER.index()];
        let shared = setup(&mut SetupCtx { mgr });
        let stack = Self {
            geo,
            home,
            states,
            diag,
            consistency: cfg.consistency,
            adapt: cfg.adapt.enabled,
        };
        (stack, shards, shared)
    }

    /// The post-run pass over the shards a run hands back, in host order:
    /// the SW/MR invariant (one writer xor many readers) or, under release
    /// consistency, every copy equal to its home's; every directory window
    /// closed and queue drained; after any adaptation, a sound MPT
    /// geometry. Also merges the adaptation actions and builds the sharing
    /// report, with the per-link traffic the run's transport counted.
    pub(crate) fn check(&self, shards: &[ManagerShard<M, W>], links: &LinkTraffic) -> Verdict {
        let (geo, home) = (&self.geo, &self.home);
        let minipages: Vec<Minipage> = home.table.borrow().mpt().iter().copied().collect();
        let mut violations = match self.consistency {
            Consistency::SequentialSwMr => check_coherence(&minipages, geo, &self.states),
            Consistency::HomeEagerRc => check_rc_consistency(&minipages, geo, &self.states, home),
        };
        violations.extend(check_directories(shards, self.consistency));
        // Any adaptation action must leave the MPT geometry sound: active
        // minipages disjoint, no physical byte orphaned, every retired
        // vpage redirecting to the active owner of its bytes.
        if home.reshaped() {
            violations.extend(home.table.borrow().mpt().geometry_violations(geo));
        }
        let adapt = self.adapt.then(|| {
            let mut report = AdaptReport::default();
            for s in shards {
                report.absorb(s.adapt_report().clone());
            }
            report
        });
        let diag = self
            .diag
            .as_ref()
            .map(|t| build_report(t, &minipages, geo, home, links.links()));
        Verdict {
            violations,
            adapt,
            diag,
        }
    }
}

/// The failure policy of both backends, applied once every application
/// thread has joined and the servers are shut down: of the panics the
/// application threads were caught with, the first whose payload is not a
/// [`ProtocolError`] — an application bug — resumes unwinding; otherwise
/// each typed error (a thread nacked or cancelled after a sibling failed,
/// or ruled deadlocked) is appended to the run's `errors`.
pub(crate) fn settle_app_failures(
    failures: impl IntoIterator<Item = Box<dyn std::any::Any + Send>>,
    errors: &mut Vec<String>,
) {
    for payload in failures {
        match payload.downcast::<ProtocolError>() {
            Ok(e) => errors.push(e.to_string()),
            Err(bug) => std::panic::resume_unwind(bug),
        }
    }
}

/// Runs a parallel application on a simulated Millipage cluster.
///
/// `setup` allocates and initializes shared structures (once, pre-run) and
/// returns the handle bundle every host receives; `app` is the per-host
/// program, run once per application thread, each a fiber on the calling
/// thread. Returns the assembled [`RunReport`]. An application closure
/// must not hold an OS lock across a DSM access: the access can hand the
/// schedule to a fiber that takes the same lock, which then hangs the
/// one thread.
///
/// # Panics
///
/// Panics if the configuration is out of range or an application thread
/// panics.
pub fn run<T, F>(
    mut cfg: ClusterConfig,
    setup: impl FnOnce(&mut SetupCtx) -> T,
    app: F,
) -> RunReport
where
    T: Send + Sync,
    F: Fn(&mut HostCtx, &T) + Send + Sync,
{
    let geo = Geometry::new(cfg.pages, cfg.views);
    let space = |_| (AddressSpace::new(geo.clone()), Waiters::default());
    let (stack, shards, shared) = Stack::new(&cfg, geo.clone(), space, setup);
    let (home, states) = (&stack.home, &stack.states);
    let (net, endpoints) =
        Network::<Pmsg>::with_faults(cfg.hosts, cfg.cost.clone(), cfg.faults.clone());
    // Slot order (servers, then application threads, in host order) is
    // the decision-log numbering; keep it stable across runs.
    let ids = || (0..cfg.hosts).map(|h| HostId(h as u16));
    let apps =
        ids().flat_map(|h| (0..cfg.threads_per_host).map(move |t| ThreadKey::app(h, t as u16)));
    // The configuration's copy of the mode goes with the scheduler's
    // build, so the scheduler holds the mode's record alone unless the
    // caller kept a clone to read the decisions from.
    let sched = Scheduler::new(
        &std::mem::take(&mut cfg.sched),
        ids().map(ThreadKey::server).chain(apps).collect(),
    );
    let gate = net.attach_scheduler(&sched);

    let mut rng = SplitMix64::new(cfg.seed);
    // A server keeps nothing between two messages, so it needs no stack:
    // it is a passive slot of the fiber run, and its turn runs on whichever
    // application thread holds the schedule. The server itself stays in a
    // cell here, to be collected once the run is over.
    let mut server_cells: Vec<Rc<RefCell<Option<Server>>>> = Vec::new();
    let mut passive: Vec<(ThreadKey, TurnFn)> = Vec::with_capacity(cfg.hosts);
    for ((h, ep), shard) in endpoints.into_iter().enumerate().zip(shards) {
        let timeline = ServerTimeline::new(cfg.cost.clone(), rng.fork(h as u64));
        // The server's own sends (serves, replies, fan-outs) get recorded
        // at the endpoint; handler-level events go through the server's
        // probe.
        ep.attach_tracer(cfg.tracer.recorder(HostId(h as u16), Track::Server));
        let probe = states[h].probe(&cfg.tracer, Track::Server);
        let wire = SimWire { ep, timeline };
        let server = Server::new(Rc::clone(&states[h]), shard, wire, probe);
        let cell = Rc::new(RefCell::new(Some(server)));
        server_cells.push(Rc::clone(&cell));
        let turn = move || cell.borrow_mut().as_mut().map_or(Turn::Done, Server::turn);
        passive.push((ThreadKey::server(HostId(h as u16)), Box::new(turn)));
    }
    // Every application thread is a fiber on this thread; each leaves its
    // report (and the panic it was caught with, if any) in its cell.
    type Outcome = (HostReport, Option<Box<dyn std::any::Any + Send>>);
    let outcomes: Vec<Cell<Option<Outcome>>> = (0..cfg.hosts * cfg.threads_per_host)
        .map(|_| Cell::new(None))
        .collect();
    let mut bodies: Vec<(ThreadKey, FiberBody)> = Vec::with_capacity(outcomes.len());
    for h in 0..cfg.hosts {
        for t in 0..cfg.threads_per_host {
            // Event ids are correlation keys, not a global order: give
            // every application thread its own disjoint range (2^40 ids
            // each) so allocation never crosses threads. The ranges are
            // part of every pinned message and trace byte.
            let events = ((h * cfg.threads_per_host + t + 1) as u64) << 40;
            let (state, net) = (Rc::clone(&states[h]), net.clone());
            let probe = state.probe(&cfg.tracer, Track::App(t as u16));
            let outcome = &outcomes[h * cfg.threads_per_host + t];
            let (app, shared) = (&app, &shared);
            let key = ThreadKey::app(HostId(h as u16), t as u16);
            let body = move |sched| {
                let mut ctx = HostCtx {
                    host: HostId(h as u16),
                    hosts: cfg.hosts,
                    thread: t,
                    state,
                    net,
                    clock: Clock::new(),
                    breakdown: TimeBreakdown::new(),
                    events,
                    spare_waiters: Vec::new(),
                    pending_acks: Vec::new(),
                    flushing: Vec::new(),
                    timed_from: 0,
                    breakdown_mark: TimeBreakdown::new(),
                    probe,
                    fault_hist: LogHistogram::new(),
                    sched,
                };
                // Catch the unwind here so a failed thread can cancel its
                // siblings' pending waits: a sibling parked on a waiter
                // nobody will ever fulfill would otherwise be ruled
                // deadlocked instead of cancelled.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    app(&mut ctx, shared);
                }));
                let failure = match result {
                    Ok(()) => None,
                    Err(payload) => {
                        for st in states {
                            st.cancel_pending();
                        }
                        // Cancelled waiters are scheduler-visible state on
                        // *every* host: all blocked threads must re-check
                        // and unwind as cancelled, not be ruled deadlocked.
                        ctx.sched.action_all();
                        Some(payload)
                    }
                };
                let report = HostReport {
                    host: ctx.host,
                    thread: t,
                    end_vt: ctx.now(),
                    breakdown: *ctx.breakdown(),
                    read_faults: 0, // Filled from host counters below.
                    write_faults: 0,
                    fault_latency: std::mem::take(&mut ctx.fault_hist),
                };
                outcome.set(Some((report, failure)));
                // Dropping `ctx` marks the slot done; the fiber hands the
                // schedule on once this body has returned.
            };
            bodies.push((key, Box::new(body)));
        }
    }
    let run = FiberRun {
        fibers: bodies,
        passive,
        gate: Some(gate),
    };
    // Once all application work is done (or cancelled), stop the servers —
    // unconditionally, so a failed run still tears down cleanly. FIFO per
    // sender guarantees the Shutdown trails every earlier application
    // message. The run is quiescent then, so the shutdown injection point
    // — and with it the whole run, teardown included — is a pure function
    // of the schedule.
    sched.run_fibers(run, || {
        for h in 0..cfg.hosts {
            net.send(
                MANAGER,
                HostId(h as u16),
                Pmsg::new(MsgKind::Shutdown, MANAGER, 0),
                0,
                0,
            );
        }
    });
    let (host_reports, app_failures): (Vec<HostReport>, Vec<_>) = outcomes
        .into_iter()
        .map(|o| o.into_inner().expect("every application fiber reports"))
        .unzip();
    // Every server is collected before any is finished (which closes its
    // endpoint). Taking a server out of its cell also works after a
    // poisoned run that never served `Shutdown`.
    let servers: Vec<Server> = server_cells
        .iter()
        .map(|c| c.borrow_mut().take().expect("a server is collected once"))
        .collect();
    let outcomes: Vec<ServerOutcome> = servers.into_iter().map(Server::finish).collect();
    let app_failures = app_failures.into_iter().flatten();

    // A handler that panicked was caught on whichever application thread
    // was running its turn; it is the server's failure, not that
    // application's. Re-raise it now that everything is torn down.
    if let Some(payload) = sched.take_turn_panic() {
        std::panic::resume_unwind(payload);
    }
    let mut protocol_errors: Vec<String> = Vec::new();
    let mut server_queue_delay = LogHistogram::new();
    // In host order, as the server cells were.
    let shards: Vec<ManagerShard> = outcomes
        .into_iter()
        .map(|o| {
            server_queue_delay.merge(&o.queue_delay);
            protocol_errors.extend(o.errors);
            o.shard
        })
        .collect();
    settle_app_failures(app_failures, &mut protocol_errors);

    let mut per_host = host_reports;
    let mut fault_latency = LogHistogram::new();
    let mut breakdown = TimeBreakdown::new();
    for rep in per_host.iter_mut() {
        fault_latency.merge(&rep.fault_latency);
        // Fault counts are per host (threads share the fault path).
        let counts = &states[rep.host.index()].counts;
        rep.read_faults = counts.read_faults.load(Relaxed);
        rep.write_faults = counts.write_faults.load(Relaxed);
        breakdown.merge(&rep.breakdown);
    }
    // A shard counts into its host's counts (barriers and locks only ever
    // tick on the manager host, directory counters on every home).
    let sum = |f: fn(&Counts) -> &AtomicU64| -> u64 {
        states.iter().map(|st| f(&st.counts).load(Relaxed)).sum()
    };
    let mut inv_round_trip = LogHistogram::new();
    let shard_reports: Vec<ShardStats> = shards
        .iter()
        .map(|s| {
            inv_round_trip.merge(s.inv_round_trip());
            let counts = &states[s.me().index()].counts;
            ShardStats {
                host: s.me(),
                competing_requests: s.competing_requests(),
                invalidations_sent: counts.invalidations_sent.load(Relaxed),
                rc_diffs: counts.rc_diffs.load(Relaxed),
                directory_entries: s.directory().len(),
            }
        })
        .collect();
    let net_faults = net.fault_active().then(|| {
        let ns = net.stats();
        NetFaultStats {
            drops: ns.pkts_dropped.get(),
            retransmits: ns.retransmits.get(),
            dups_delivered: ns.dups_delivered.get(),
            dups_suppressed: ns.dups_suppressed.get(),
            reorders: ns.reorders.get(),
            expired: ns.expired.get(),
            delay: net.fault_delay(),
        }
    });
    let verdict = stack.check(&shards, net.link_traffic());
    let (messages, payload_bytes) = net.link_traffic().totals();
    let mut report = RunReport {
        hosts: cfg.hosts,
        virtual_time: per_host.iter().map(|r| r.end_vt).max().unwrap_or(0),
        breakdown,
        read_faults: sum(|c| &c.read_faults),
        write_faults: sum(|c| &c.write_faults),
        prefetches: sum(|c| &c.prefetches),
        invalidations: sum(|c| &c.invalidations_received),
        competing_requests: shard_reports.iter().map(|s| s.competing_requests).sum(),
        barriers: sum(|c| &c.barriers),
        lock_acquires: sum(|c| &c.lock_acquires),
        pushes: sum(|c| &c.pushes),
        messages,
        payload_bytes,
        alloc: home.table.borrow().alloc.stats(),
        rc_diffs: sum(|c| &c.rc_diffs),
        policy: home.policy_name(),
        shards: shard_reports,
        coherence_violations: verdict.violations,
        fault_latency,
        server_queue_delay,
        inv_round_trip,
        protocol_errors,
        net_faults,
        trace_dropped: Default::default(),
        diag: verdict.diag,
        adapt: verdict.adapt,
        per_host,
    };
    // The shards carry the last live trace recorders; dropping them
    // flushes their rings, so the per-host dropped-event counts are final.
    drop(shards);
    report.trace_dropped = cfg.tracer.dropped_by_host();
    report
}
