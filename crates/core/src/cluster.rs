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
//! Every run executes under the deterministic scheduler
//! (`sim_core::sched`). Application threads are OS threads, of which the
//! scheduler lets one per partition run at a time; a server is a passive
//! slot whose handlers run as upcalls of whichever application thread
//! holds the schedule — the paper's §3.5 arrangement — so a run of H hosts
//! × T threads has exactly H·T OS threads beyond the caller's.

use crate::diag::{build_report, DiagSink, DiagTable, LinkStat};
use crate::error::ProtocolError;
use crate::faults::WireFaults;
use crate::hlrc::Consistency;
use crate::home::{HomePolicyKind, HomeTable};
use crate::host::{HostCtx, HostState, Waiters};
use crate::manager::{ManagerShard, ManagerStats};
use crate::msg::{MsgKind, Pmsg};
use crate::server::{Server, ServerOutcome};
use crate::shared::{wire_bytes, Pod, SharedCell, SharedVec};
use crate::stats::{
    check_coherence, check_directories, check_rc_consistency, HostReport, NetFaultStats, RunReport,
    ShardStats,
};
use multiview::{AllocMode, Allocator};
use parking_lot::Mutex;
use sim_core::clock::Clock;
use sim_core::sched::{ParallelConfig, SchedMode, Scheduler, ThreadKey, Turn};
use sim_core::trace::{Tracer, Track};
use sim_core::{CostModel, HostId, LogHistogram, SplitMix64, TimeBreakdown};
use sim_mem::{AddressSpace, Geometry, VAddr};
use sim_net::{Network, ServerTimeline};
use std::sync::atomic::AtomicU64;
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
    /// The host running the shared allocator and the synchronization
    /// services (and, under the centralized policy, every minipage).
    pub manager: usize,
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
    pub faults: WireFaults,
    /// The schedule policy (see `sim_core::sched`): the canonical
    /// virtual-time order by default, or a seeded exploration policy. A
    /// schedule nobody can advance ends in a typed
    /// [`ProtocolError::Deadlock`]; there is no wall-clock backstop.
    pub sched: SchedMode,
    /// Conservative parallel simulation: partition the hosts across N OS
    /// worker threads, each running ahead to a safety horizon derived from
    /// the cost model's latency floor (see `sim_core::sched` and DESIGN.md
    /// §14). Requires the canonical virtual-time schedule (`sched`'s
    /// default policy); under the exploration policies (Random/PCT/Replay)
    /// it is ignored. The observable schedule is byte-identical to the
    /// sequential one at the same seed.
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
    /// Deliberately re-introduces the fixed PR-3 stale-reinstall bug (a
    /// home host installing its own serve-time snapshot over concurrently
    /// applied release diffs). Exists solely so the schedule-exploration
    /// harness can demonstrate it catches and shrinks the bug; never set
    /// this outside those tests.
    #[doc(hidden)]
    pub bug_stale_reinstall: bool,
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
            manager: 0,
            seed: 0x4D69_6C6C_6950_6167, // "MilliPag"
            tracer: Tracer::disabled(),
            faults: WireFaults::disabled(),
            sched: SchedMode::deterministic(),
            parallel: None,
            diag: false,
            adapt: crate::adapt::AdaptConfig::default(),
            bug_stale_reinstall: false,
        }
    }
}

/// Pre-run allocation context handed to the `setup` closure.
///
/// Setup runs logically on the manager at virtual time zero, before the
/// application threads start; its writes are free (they model the program
/// initializing data before the timed region).
pub struct SetupCtx<'a> {
    mgr: &'a mut ManagerShard,
}

impl<'a> SetupCtx<'a> {
    /// Wraps the manager shard for a pre-run setup phase (used by every
    /// backend's assembly code).
    pub(crate) fn new(mgr: &'a mut ManagerShard) -> Self {
        Self { mgr }
    }

    /// Allocates `bytes` of shared memory. Setup allocations are issued
    /// by the manager host, so first-touch homes them there.
    pub fn alloc_bytes(&mut self, bytes: usize) -> VAddr {
        let me = self.mgr.me();
        self.mgr.do_alloc(bytes, me, 0)
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

/// Confines the calling application thread to `cpu`, the one [`run`]'s
/// caller is on. With one partition the scheduler lets a single
/// application thread run at a time, so spreading them over CPUs buys no
/// parallelism and makes every hand-off a cross-CPU wake-up (≈ 30 µs
/// against ≈ 2 µs, DESIGN.md §4). Nothing to undo — the thread dies with
/// the run — and a refusal only leaves the thread where the OS puts it.
#[cfg(target_os = "linux")]
fn confine_to(cpu: usize) {
    // SAFETY: all-zero bytes are a valid (empty) `cpu_set_t`.
    let mut set: libc::cpu_set_t = unsafe { std::mem::zeroed() };
    // SAFETY: `set` is a live `cpu_set_t` of exactly the size passed,
    // holding `cpu`, which `sched_getcpu` reported; pid 0 names the
    // calling thread.
    unsafe {
        libc::CPU_SET(cpu, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of_val(&set), &set);
    }
}

/// Runs a parallel application on a simulated Millipage cluster.
///
/// `setup` allocates and initializes shared structures (once, pre-run) and
/// returns the handle bundle every host receives; `app` is the per-host
/// program. Returns the assembled [`RunReport`].
///
/// # Panics
///
/// Panics if the configuration is out of range or an application thread
/// panics.
pub fn run<T, F>(cfg: ClusterConfig, setup: impl FnOnce(&mut SetupCtx) -> T, app: F) -> RunReport
where
    T: Send + Sync,
    F: Fn(&mut HostCtx, &T) + Send + Sync,
{
    assert!(
        cfg.hosts >= 1 && cfg.hosts <= HostId::MAX_HOSTS,
        "host count {} out of range",
        cfg.hosts
    );
    assert!(
        cfg.threads_per_host >= 1,
        "need at least one application thread"
    );
    assert!(
        cfg.manager < cfg.hosts,
        "manager host {} out of range",
        cfg.manager
    );
    let geo = Geometry::new(cfg.pages, cfg.views);
    // One slot per application-view vpage bounds the minipage ids any
    // allocation order can produce, so the table never overflows.
    let diag_table = cfg
        .diag
        .then(|| DiagTable::with_slots(cfg.hosts, geo.priv_view() * geo.pages()));
    let diag_sink = diag_table
        .as_ref()
        .map(|t| DiagSink::new(Arc::clone(t)))
        .unwrap_or_default();
    let manager_id = HostId(cfg.manager as u16);
    let home = Arc::new(HomeTable::new(
        cfg.home_policy,
        cfg.hosts,
        manager_id,
        geo.clone(),
    ));
    let states: Vec<Arc<HostState>> = (0..cfg.hosts)
        .map(|h| {
            Arc::new(HostState {
                bug_stale_reinstall: cfg.bug_stale_reinstall,
                ..HostState::new(
                    HostId(h as u16),
                    AddressSpace::new(geo.clone()),
                    Waiters::default(),
                    cfg.cost.clone(),
                    cfg.consistency,
                    Arc::clone(&home),
                    diag_sink.clone(),
                )
            })
        })
        .collect();
    let (net, endpoints) =
        Network::<Pmsg>::with_faults(cfg.hosts, cfg.cost.clone(), cfg.faults.to_plane());
    // Slot order (servers, then application threads, in host order) is
    // the decision-log numbering; keep it stable across runs.
    let sched = {
        let mut keys = Vec::with_capacity(cfg.hosts * (1 + cfg.threads_per_host));
        for h in 0..cfg.hosts {
            keys.push(ThreadKey::server(HostId(h as u16)));
        }
        for h in 0..cfg.hosts {
            for t in 0..cfg.threads_per_host {
                keys.push(ThreadKey::app(HostId(h as u16), t as u16));
            }
        }
        match &cfg.parallel {
            // The exploration policies (Random/PCT/Replay) are inherently
            // sequential — their whole point is to own the global
            // interleaving — so a parallel request quietly falls back to
            // the sequential scheduler for them.
            Some(p) if cfg.sched.is_virtual_time() => {
                let map = p
                    .partition_map
                    .clone()
                    .unwrap_or_else(|| ParallelConfig::default_map(cfg.hosts, p.workers));
                let lookahead = p.lookahead.unwrap_or_else(|| cfg.cost.min_remote_latency());
                Scheduler::new_parallel(&cfg.sched, keys, map, p.workers, lookahead)
            }
            _ => Scheduler::new(&cfg.sched, keys),
        }
    };
    net.attach_scheduler(&sched);
    // Every host runs a manager shard; the manager host's shard also
    // carries the shared allocator and the synchronization services. The
    // shards see the cluster's memory only through the backend trait.
    let cluster_mem: Arc<dyn crate::backend::ClusterMemory> = Arc::new(states.clone());
    let mut shards: Vec<Option<ManagerShard>> = (0..cfg.hosts)
        .map(|h| {
            let allocator = (h == cfg.manager).then(|| Allocator::new(geo.clone(), cfg.alloc_mode));
            Some(ManagerShard::new(
                HostId(h as u16),
                cfg.hosts,
                cfg.hosts * cfg.threads_per_host,
                cfg.cost.clone(),
                cfg.consistency,
                allocator,
                Arc::clone(&home),
                Arc::clone(&cluster_mem),
                cfg.tracer.recorder(HostId(h as u16), Track::Shard),
                diag_sink.clone(),
                cfg.adapt.clone(),
            ))
        })
        .collect();
    let shared = {
        let mut sctx = SetupCtx {
            mgr: shards[cfg.manager].as_mut().expect("shard present"),
        };
        setup(&mut sctx)
    };

    let mut rng = SplitMix64::new(cfg.seed);
    let shared_ref = &shared;
    let app_ref = &app;

    let states_ref = &states;
    #[cfg(target_os = "linux")]
    // SAFETY: `sched_getcpu` takes no argument and touches no memory.
    let cpu = usize::try_from(unsafe { libc::sched_getcpu() })
        .ok()
        .filter(|_| sched.partitions() == 1);
    let (host_reports, outcomes, app_failures) = std::thread::scope(|scope| {
        // A server keeps nothing between two messages, so it needs no
        // thread: it is a passive slot, and its turn — owned here, borrowed
        // by the scheduler — runs on whichever application thread holds
        // the schedule.
        let mut server_cells: Vec<Arc<Mutex<Option<Server>>>> = Vec::new();
        for (h, ep) in endpoints.into_iter().enumerate() {
            let timeline = ServerTimeline::new(cfg.cost.clone(), rng.fork(h as u64));
            let shard = shards[h].take().expect("shard present");
            // The server's own sends (serves, replies, fan-outs) get
            // recorded at the endpoint; handler-level events go through the
            // server's recorder.
            ep.attach_tracer(cfg.tracer.recorder(HostId(h as u16), Track::Server));
            let rec = cfg.tracer.recorder(HostId(h as u16), Track::Server);
            let server = Server::new(ep, Arc::clone(&states[h]), timeline, shard, rec);
            let cell = Arc::new(Mutex::new(Some(server)));
            server_cells.push(Arc::clone(&cell));
            sched.attach_passive(
                ThreadKey::server(HostId(h as u16)),
                Box::new(move || cell.lock().as_mut().map_or(Turn::Done, Server::turn)),
            );
        }
        let mut app_handles = Vec::with_capacity(cfg.hosts * cfg.threads_per_host);
        for h in 0..cfg.hosts {
            for t in 0..cfg.threads_per_host {
                // Event ids are correlation keys, not a global order: give
                // every application thread its own disjoint range (2^40
                // ids each) so allocation never crosses threads. A shared
                // counter would interleave differently under partitioned
                // execution and leak the partitioning into message and
                // trace bytes.
                let events = Arc::new(AtomicU64::new(
                    ((h * cfg.threads_per_host + t + 1) as u64) << 40,
                ));
                let (home, state) = (Arc::clone(&home), Arc::clone(&states[h]));
                let (net, cost) = (net.clone(), cfg.cost.clone());
                let trace = cfg.tracer.recorder(HostId(h as u16), Track::App(t as u16));
                let sched = sched.clone();
                let builder = std::thread::Builder::new().name(format!("mv-host-{h}.{t}"));
                app_handles.push(
                    builder
                        .spawn_scoped(scope, move || {
                            #[cfg(target_os = "linux")]
                            if let Some(cpu) = cpu {
                                confine_to(cpu);
                            }
                            let mut ctx = HostCtx {
                                host: HostId(h as u16),
                                hosts: cfg.hosts,
                                thread: t,
                                home,
                                state,
                                net,
                                cost,
                                clock: Clock::new(),
                                breakdown: TimeBreakdown::new(),
                                events,
                                pending_acks: Vec::new(),
                                consistency: cfg.consistency,
                                timed_from: 0,
                                breakdown_mark: TimeBreakdown::new(),
                                trace,
                                fault_hist: LogHistogram::new(),
                                sched: sched.attach(ThreadKey::app(HostId(h as u16), t as u16)),
                                tlb: sim_mem::AccessTlb::new(),
                            };
                            // Catch the unwind here so a failed thread can cancel
                            // its siblings' pending waits *before* anyone tries to
                            // join: joining a thread that is parked on a waiter
                            // nobody will ever fulfill would hang the cluster (and
                            // pre-fault-plane, did).
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    app_ref(&mut ctx, shared_ref);
                                }));
                            let failure = match result {
                                Ok(()) => None,
                                Err(payload) => {
                                    for st in states_ref {
                                        st.cancel_pending();
                                    }
                                    // Cancelled waiters are scheduler-visible state
                                    // on *every* host, whatever partition it lives
                                    // in: all blocked threads must re-check and
                                    // unwind as cancelled, not be ruled deadlocked.
                                    ctx.sched.action_all();
                                    Some(payload)
                                }
                            };
                            (
                                HostReport {
                                    host: ctx.host,
                                    thread: t,
                                    end_vt: ctx.now(),
                                    breakdown: *ctx.breakdown(),
                                    read_faults: 0, // Filled from host counters below.
                                    write_faults: 0,
                                    fault_latency: std::mem::take(&mut ctx.fault_hist),
                                },
                                failure,
                            )
                        })
                        .expect("spawn app thread"),
                );
            }
        }
        let mut app_failures: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
        let host_reports: Vec<HostReport> = app_handles
            .into_iter()
            .map(|h| {
                let (rep, failure) = h.join().expect("application thread panicked");
                app_failures.extend(failure);
                rep
            })
            .collect();
        // All application work is done (or cancelled); stop the servers —
        // unconditionally, so a failed run still tears down cleanly. FIFO
        // per sender guarantees the Shutdown trails every earlier
        // application message. The (unscheduled) main thread first waits
        // for the scheduled world to quiesce, so the shutdown injection
        // point — and with it the whole run, teardown included — is a pure
        // function of the schedule.
        sched.quiesce_then(|| {
            for h in 0..cfg.hosts {
                net.send(
                    manager_id,
                    HostId(h as u16),
                    Pmsg::new(MsgKind::Shutdown, manager_id, 0),
                    0,
                    0,
                );
            }
        });
        // Every server is collected before any is finished (which closes
        // its endpoint). Taking a server out of its cell also works after
        // a poisoned run that never served `Shutdown`, and breaks the
        // scheduler → turn → endpoint → scheduler cycle.
        let servers: Vec<Server> = server_cells
            .iter()
            .map(|c| c.lock().take().expect("a server is collected once"))
            .collect();
        let outcomes: Vec<ServerOutcome> = servers.into_iter().map(Server::finish).collect();
        (host_reports, outcomes, app_failures)
    });

    // A handler that panicked was caught on whichever application thread
    // was running its turn; it is the server's failure, not that
    // application's. Re-raise it now that everything is torn down.
    if let Some(payload) = sched.take_turn_panic() {
        std::panic::resume_unwind(payload);
    }
    let mut protocol_errors: Vec<String> = Vec::new();
    let mut server_queue_delay = LogHistogram::new();
    let mut shards: Vec<ManagerShard> = outcomes
        .into_iter()
        .map(|o| {
            server_queue_delay.merge(&o.queue_delay);
            protocol_errors.extend(o.errors);
            o.shard
        })
        .collect();
    // Split the failures: typed protocol errors are reported on the run,
    // anything else is a genuine application bug and resumes unwinding now
    // that every server has shut down cleanly.
    let mut hard_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for payload in app_failures {
        match payload.downcast::<ProtocolError>() {
            Ok(e) => protocol_errors.push(e.to_string()),
            Err(other) => hard_panic = Some(other),
        }
    }
    if let Some(p) = hard_panic {
        std::panic::resume_unwind(p);
    }
    shards.sort_by_key(|s| s.me().index());

    let mut per_host = host_reports;
    let mut fault_latency = LogHistogram::new();
    for rep in &per_host {
        fault_latency.merge(&rep.fault_latency);
    }
    let mut breakdown = TimeBreakdown::new();
    let mut read_faults = 0;
    let mut write_faults = 0;
    let mut prefetches = 0;
    let mut invalidations = 0;
    for st in &states {
        read_faults += st.counters.read_faults.get();
        write_faults += st.counters.write_faults.get();
        prefetches += st.counters.prefetch_requests.get();
        invalidations += st.counters.invalidations_received.get();
    }
    for rep in per_host.iter_mut() {
        // Fault counters are per host (threads share the fault path).
        let st = &states[rep.host.index()];
        rep.read_faults = st.counters.read_faults.get();
        rep.write_faults = st.counters.write_faults.get();
        breakdown.merge(&rep.breakdown);
    }
    // Manager-side counters accumulate wherever the minipage's home shard
    // ran; sum them (barriers and locks only ever tick on the manager
    // host, directory counters on every home).
    let mut mstats = ManagerStats::default();
    let mut competing = 0u64;
    let mut inv_round_trip = LogHistogram::new();
    let mut shard_reports = Vec::with_capacity(shards.len());
    for s in &shards {
        inv_round_trip.merge(s.inv_round_trip());
        let st = s.stats();
        mstats.barriers += st.barriers;
        mstats.lock_acquires += st.lock_acquires;
        mstats.invalidations_sent += st.invalidations_sent;
        mstats.pushes += st.pushes;
        mstats.stale_pushes += st.stale_pushes;
        mstats.rc_diffs += st.rc_diffs;
        competing += s.competing_requests();
        shard_reports.push(ShardStats {
            host: s.me(),
            competing_requests: s.competing_requests(),
            invalidations_sent: st.invalidations_sent,
            rc_diffs: st.rc_diffs,
            directory_entries: s.directory().len(),
        });
    }
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
    let minipages = home.mpt().snapshot();
    let mut violations = match cfg.consistency {
        Consistency::SequentialSwMr => check_coherence(&minipages, &geo, &states),
        Consistency::HomeEagerRc => check_rc_consistency(&minipages, &geo, &states, &home),
    };
    violations.extend(check_directories(&shards, cfg.consistency));
    // Any adaptation action must leave the MPT geometry sound: active
    // minipages disjoint, no physical byte orphaned, every retired vpage
    // redirecting to the active owner of its bytes.
    if home.mpt().adapt_gen() != 0 {
        violations.extend(home.mpt().geometry_violations(&geo));
    }
    let mut adapt_report = crate::adapt::AdaptReport::default();
    for s in &shards {
        adapt_report.absorb(s.adapt_report().clone());
    }
    let adapt = cfg.adapt.enabled.then_some(adapt_report);
    let alloc = shards[cfg.manager].alloc_stats();
    // The shards carry the last live trace recorders; dropping them
    // flushes their rings, so the per-host dropped-event counts read
    // below are final.
    drop(shards);
    let trace_dropped = cfg.tracer.dropped_by_host();
    let diag = diag_table.map(|t| {
        let links = net
            .link_traffic()
            .into_iter()
            .map(|(from, to, messages, bytes)| LinkStat {
                from,
                to,
                messages,
                bytes,
            })
            .collect();
        build_report(&t, &minipages, &geo, &home, links)
    });
    RunReport {
        hosts: cfg.hosts,
        virtual_time: per_host.iter().map(|r| r.end_vt).max().unwrap_or(0),
        breakdown,
        read_faults,
        write_faults,
        prefetches,
        invalidations,
        competing_requests: competing,
        barriers: mstats.barriers,
        lock_acquires: mstats.lock_acquires,
        pushes: mstats.pushes,
        messages: net.stats().messages.get(),
        payload_bytes: net.stats().payload_bytes.get(),
        alloc,
        rc_diffs: mstats.rc_diffs,
        policy: home.policy_name(),
        shards: shard_reports,
        coherence_violations: violations,
        fault_latency,
        server_queue_delay,
        inv_round_trip,
        protocol_errors,
        net_faults,
        trace_dropped,
        diag,
        adapt,
        per_host,
    }
}
