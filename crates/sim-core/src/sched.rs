//! Cooperative deterministic scheduling of simulated threads — sequential
//! and conservative-parallel (PDES).
//!
//! Every simulated thread — each host's application threads and its DSM
//! server — is a *slot* of the run's [`Scheduler`]: control changes hands
//! only at explicit *yield points* (message send/receive, fault entry,
//! blocking rendezvous), and the next runnable slot is picked by a
//! deterministic [`SchedPolicy`], never by the OS. A policy and seed map to
//! exactly one interleaving — message arrival order, directory state
//! transitions, the recorded trace — which is what makes a run repeat and
//! schedule *exploration* (random-walk / PCT search over interleavings,
//! with replayable minimal reproducers) possible at all.
//!
//! # Threads and passive slots
//!
//! Only a slot that must keep a stack between yield points needs an OS
//! thread: an application thread, parked on its own condvar while it does
//! not hold the schedule ([`Scheduler::attach`]). A DSM server keeps
//! nothing between two messages, so it is a **passive slot**
//! ([`Scheduler::attach_passive`]): a boxed [`Turn`] function and no
//! thread. When the policy picks a passive slot, the thread that is giving
//! up the schedule — in `yield_now`, `block_until`, `finish`, or the
//! unscheduled main thread inside [`Scheduler::quiesce_then`] — runs the
//! turn to completion itself and dispatches again, until the pick is a
//! thread (possibly itself: no switch at all). A passive slot is
//! otherwise a slot like any other — same index, `(virtual time, key)`
//! tie-break, candidate rule and decision-log entry — so schedules do not
//! depend on how a slot is registered. The rules that keep this sound:
//!
//! * **No scheduler lock is held across a turn.** Handlers deliver
//!   messages, and deliveries wake hosts under the partition lock (and,
//!   ungated, the control lock). `dispatch_in` only installs the pick;
//!   its caller unlocks, runs the turn, re-locks, applies the outcome.
//! * **Whoever dispatches can drive.** Every caller of `dispatch_in` goes
//!   through the same loop (`run_partition`); there is no second
//!   dispatcher for passive slots, sequential or partitioned.
//! * **A window barrier hands partitions to their own threads.** The
//!   thread completing a barrier picks for every partition under the
//!   control lock but runs nothing there. It drives its own partition's
//!   passive pick afterwards; another partition's goes to one of *that*
//!   partition's parked threads (named its `driver`), so partitions keep
//!   running side by side; only a partition with no thread left alive
//!   falls to the caller.
//! * **A panicking turn ends the run.** The panic is caught around the
//!   turn, the slot retired, the scheduler poisoned (every parked thread
//!   returns [`BlockOutcome::Poisoned`]) and the payload kept for the
//!   run's owner ([`Scheduler::take_turn_panic`]) — it is not the failure
//!   of the thread that happened to be driving, and the schedule is never
//!   left resting on a slot nobody can run.
//!
//! # Partitioned execution
//!
//! The scheduler is built as a **conservative parallel discrete-event
//! simulation** (PDES). The host set is split into partitions, each driven
//! by the application threads of its hosts; within a partition exactly one
//! slot runs at a time. Partitions advance independently
//! through a window `[W0, W0 + L)` of virtual time, where `W0` is the
//! globally-minimal next event and `L` is the *lookahead*: the minimum
//! cross-host message latency ([`crate::cost::CostModel::min_remote_latency`]).
//! No event executed inside the window can affect another partition
//! before the window ends, so partitions cannot observe each other's
//! in-window progress. At the window boundary every partition arrives at
//! a barrier; the last arriver derives the next window and releases the
//! others.
//!
//! Cross-host message delivery is **gated** (see [`DeliveryGate`]): a
//! send enqueues the packet keyed by its release time, and the
//! *destination* partition's dispatch loop delivers it exactly when the
//! canonical virtual-time order reaches it — before any runnable thread
//! with a later (or equal) virtual time. Sequential execution is the
//! one-partition, infinite-lookahead special case of the same machinery,
//! which is what makes the parallel schedule **byte-identical** to the
//! sequential one: both run the identical per-partition decision
//! procedure; only the wall-clock concurrency differs.
//!
//! Design notes:
//!
//! * **Wake-ups name a host.** Blocking conditions live in the protocol
//!   layer and are not told about the scheduler, but there are exactly
//!   two of them and both are host-local state: host *h*'s server waits
//!   on *h*'s inbox, and an application thread of *h* waits on a
//!   rendezvous in *h*'s waiter table. So every partition keeps one *wake
//!   generation per host*, bumped by whatever touched that host's state
//!   (a gate release or direct delivery into its inbox, its server
//!   finishing a handler — [`Turn::Ran`]); a blocked slot is schedulable
//!   again exactly when its own host's generation moved past the value
//!   recorded before its condition last failed. A slot of another host is
//!   not re-dispatched: per-event cost does not grow with the host count.
//!   A finite number of re-checks per wake means no livelock, and a thread
//!   whose condition was already met never parks. Anything that cannot
//!   name a host — a thread finishing, ungated exploration-mode
//!   deliveries, external actors, a failed run cancelling every host's
//!   waits — wakes every host instead (rare, and always correct).
//!   Cross-partition wake-ups travel through the gate (a delivery) or
//!   are applied at the window barrier, when every partition is parked —
//!   never as a bare bump into a running partition — which keeps each
//!   partition's candidate set a function of its own history.
//! * **The candidate set is kept, not recomputed.** Each partition holds
//!   an ordered index, `(virtual time, key, slot)` of exactly the slots
//!   that may be scheduled, so the canonical pick is its first entry and a
//!   scheduling step costs O(log slots) however many threads are parked.
//!   The invariant — index = {slots `is_candidate` holds for} whenever the
//!   partition lock is released — lives in one place: every write to a
//!   slot's `vt`/`status` or to a wake generation goes through `PartState`
//!   (`set`, `wake`, `wake_all`), which re-files the slots that write can
//!   have moved (for a wake, the woken host's). The exploration policies
//!   keep their definitions — n-th candidate in slot order,
//!   highest-priority candidate, "is this choice a candidate" — and read
//!   membership from the index instead of re-deriving it. Debug builds
//!   check every pick against the pass over all slots the index replaced.
//! * **A parked thread is re-checked where the schedule is.** A thread
//!   parking in [`SchedThread::block_until`] or
//!   [`SchedThread::yield_then_block`] leaves its condition in its slot.
//!   When the policy picks that slot — step counted, decision logged,
//!   policy state advanced — *whichever thread is dispatching* evaluates
//!   the condition under the partition lock: unmet, the slot is blocked
//!   again and the loop picks on, no OS thread woken; met, the owner is
//!   resumed — once per wait — and its own confirming call returns the
//!   value. The schedule is the one in which every woken thread ran its
//!   own re-check; only the switches are gone. **The condition contract,
//!   and the rule for adding a third blocking condition:** it is `Send`
//!   and so is its value; it is pure, answering `Some` or `None`; it
//!   never calls the scheduler; it takes only leaf locks that no mutator
//!   holds while waking a host (lock order: ctl → part → {gate,
//!   condition}); and every mutator of the state it reads wakes the host
//!   owning the blocked thread — state with no owning host wakes everyone.
//! * **Handler atomicity.** A DSM server handles one message per
//!   scheduling step — one [`Turn`]: the dispatch boundary *is* the yield
//!   point, and everything inside a handler (window open/close, directory
//!   updates, reply sends) is atomic with respect to other simulated
//!   threads — exactly as in the real system, where a handler runs to
//!   completion as an upcall of whichever thread found the message.
//! * **Deadlock is a verdict, not a hang.** If no thread is runnable
//!   anywhere, no gated packet is pending, and an application thread is
//!   still blocked, the schedule deadlocked: the scheduler poisons
//!   itself, every blocked thread returns [`BlockOutcome::Poisoned`], and
//!   the run terminates with typed errors instead of hanging — a
//!   deadlocking schedule is a *finding* for the exploration harness.
//! * **Exploration stays sequential.** [`SchedPolicy::Random`],
//!   [`SchedPolicy::Pct`] and [`SchedPolicy::Replay`] perturb the global
//!   interleaving, which only exists totally-ordered in the
//!   one-partition case; [`Scheduler::new_parallel`] therefore rejects
//!   them and parallel mode applies to the canonical
//!   [`SchedPolicy::VirtualTime`] policy only.

use crate::clock::Ns;
use crate::rng::SplitMix64;
use crate::HostId;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// How many scheduling steps a PCT priority-change schedule spreads its
/// change points over. PCT samples `depth - 1` change points uniformly
/// from this range; runs longer than the hint simply see no further
/// demotions.
const PCT_STEP_HINT: u64 = 4096;

/// Which simulated role a scheduled thread plays. Part of the
/// deterministic tie-break key (application threads before server
/// threads at equal virtual time).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ThreadClass {
    /// An application thread (drives faults, barriers, locks).
    App,
    /// A DSM server thread (handles protocol messages; the manager shard
    /// runs inside its host's server dispatch).
    Server,
}

/// Identity of one simulated thread: the deterministic tie-break key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ThreadKey {
    /// Host the thread belongs to.
    pub host: HostId,
    /// Role on that host.
    pub class: ThreadClass,
    /// Index among same-class threads of the host (0 for the server,
    /// the application thread index otherwise).
    pub lane: u16,
}

impl ThreadKey {
    /// The server thread of `host`.
    pub fn server(host: HostId) -> Self {
        Self {
            host,
            class: ThreadClass::Server,
            lane: 0,
        }
    }

    /// Application thread `lane` of `host`.
    pub fn app(host: HostId, lane: u16) -> Self {
        Self {
            host,
            class: ThreadClass::App,
            lane,
        }
    }
}

impl std::fmt::Display for ThreadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.class {
            ThreadClass::App => write!(f, "{}.app{}", self.host, self.lane),
            ThreadClass::Server => write!(f, "{}.server", self.host),
        }
    }
}

/// How the deterministic scheduler picks the next runnable thread.
#[derive(Clone, Debug)]
pub enum SchedPolicy {
    /// Smallest `(virtual time, thread key)` first — the canonical
    /// deterministic schedule, closest to what the virtual-time model
    /// "means". The only policy that admits partitioned (parallel)
    /// execution.
    VirtualTime,
    /// Seeded uniform random walk over the runnable set.
    Random {
        /// Seed of the walk.
        seed: u64,
    },
    /// PCT-style priority schedule (Burckhardt et al.): every thread gets
    /// a random priority, the highest-priority runnable thread always
    /// runs, and at `depth - 1` pre-sampled change points the running
    /// thread's priority drops below everyone else's. Finds bugs of
    /// "ordering depth" ≤ `depth` with known probability.
    Pct {
        /// Seed for priorities and change points.
        seed: u64,
        /// Bug depth to target (≥ 1; 1 means no priority changes).
        depth: u32,
    },
    /// Replays a recorded decision sequence: entry *i* names the slot to
    /// run at step *i*. A choice that is not currently runnable (or an
    /// exhausted sequence) falls back to [`SchedPolicy::VirtualTime`], so
    /// prefixes of a recorded schedule are always replayable.
    Replay {
        /// Recorded slot choices, in dispatch order.
        choices: Arc<Vec<u32>>,
    },
}

/// Scheduling mode carried on a cluster configuration: names the policy
/// — the canonical [`SchedPolicy::VirtualTime`] order by default — and
/// owns the shared decision log the run's [`Scheduler`] records into (so
/// callers can retrieve the schedule after the run for replay and
/// shrinking).
#[derive(Clone, Debug)]
pub struct SchedMode {
    policy: SchedPolicy,
    log: Arc<Mutex<Vec<u32>>>,
    hand_offs: Arc<AtomicU64>,
}

impl Default for SchedMode {
    fn default() -> Self {
        Self::deterministic()
    }
}

impl SchedMode {
    /// The canonical [`SchedPolicy::VirtualTime`] schedule (the default).
    pub fn deterministic() -> Self {
        Self::with_policy(SchedPolicy::VirtualTime)
    }

    /// A seeded random-walk schedule.
    pub fn random(seed: u64) -> Self {
        Self::with_policy(SchedPolicy::Random { seed })
    }

    /// A seeded PCT priority schedule.
    pub fn pct(seed: u64, depth: u32) -> Self {
        Self::with_policy(SchedPolicy::Pct {
            seed,
            depth: depth.max(1),
        })
    }

    /// The replay of a recorded decision sequence.
    pub fn replay(choices: Vec<u32>) -> Self {
        Self::with_policy(SchedPolicy::Replay {
            choices: Arc::new(choices),
        })
    }

    /// A mode with an explicit policy.
    pub fn with_policy(policy: SchedPolicy) -> Self {
        Self {
            policy,
            log: Arc::new(Mutex::new(Vec::new())),
            hand_offs: Arc::default(),
        }
    }

    /// Whether the mode's policy is the canonical virtual-time order (the
    /// only policy that admits partitioned execution and delivery gating).
    pub fn is_virtual_time(&self) -> bool {
        matches!(self.policy, SchedPolicy::VirtualTime)
    }

    /// Short policy name for reports.
    pub fn policy_name(&self) -> &'static str {
        match self.policy {
            SchedPolicy::VirtualTime => "virtual-time",
            SchedPolicy::Random { .. } => "random",
            SchedPolicy::Pct { .. } => "pct",
            SchedPolicy::Replay { .. } => "replay",
        }
    }

    /// The decision sequence the last run recorded under this mode (the
    /// slot picked at each scheduling step). The scheduler hands its log
    /// over at every quiescence verdict (idle or deadlock) and when it is
    /// dropped, so once a run is quiescent the log holds every step taken
    /// ([`Scheduler::steps`] of them); mid-run it ends at the last verdict.
    /// Empty before any run and under partitioned execution (a total
    /// decision order only exists with one partition). Feed it to
    /// [`SchedMode::replay`] to reproduce the run.
    pub fn decisions(&self) -> Vec<u32> {
        lock(&self.log).clone()
    }

    /// [`Scheduler::hand_offs`] of the last run under this mode.
    pub fn hand_offs(&self) -> u64 {
        self.hand_offs.load(Ordering::Relaxed)
    }
}

/// How gated cross-host deliveries are exposed to the scheduler. The
/// network fabric implements this over its per-host mailboxes: a
/// cross-host send is *parked* in the destination's mailbox keyed by its
/// release time (arrival time floored by the per-link FIFO cumulative
/// maximum), and the destination partition's dispatch loop *releases*
/// packets in `(release, source)` order exactly when the canonical
/// virtual-time order reaches them. Both methods run under the partition
/// lock and may take only leaf locks (lock order: ctl → part → gate).
pub trait DeliveryGate: Send + Sync {
    /// The earliest pending release among `hosts` (ascending) as
    /// `(release virtual time, destination)`, the lowest host winning a
    /// tie; `None` when nothing is pending for any of them. Called once
    /// per iteration of a partition's dispatch loop with the partition's
    /// whole host set, and from the window barrier; must be cheap — the
    /// fabric reads one atomic head mirror per host.
    fn min_pending(&self, hosts: &[HostId]) -> Option<(Ns, HostId)>;

    /// Delivers the minimum pending packet for `host`: its receiver takes
    /// it after everything delivered before. Must not re-enter the
    /// scheduler (the caller wakes `host` itself).
    fn release_next(&self, host: HostId);

    /// Delivers every fault-held (reorder-in-flight) packet, returning
    /// the destination host of each delivered packet. Called only at the
    /// global-idle decision point, when every partition is quiescent —
    /// the gated replacement for the receiver-driven rescue poll.
    fn flush_held(&self) -> Vec<HostId>;
}

/// Parallel-execution request carried on a cluster configuration: how
/// many worker partitions to run, how hosts map onto them, and an
/// optional lookahead override.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of partitions (OS-concurrency units). 1 is valid and runs
    /// the identical window machinery on a single partition.
    pub workers: usize,
    /// Host → worker map (`partition_map[h]` is host `h`'s worker). When
    /// `None`, hosts are split into contiguous balanced chunks.
    pub partition_map: Option<Vec<usize>>,
    /// Safety-horizon override in virtual nanoseconds. When `None`, the
    /// cluster derives it from the cost model's minimum cross-host
    /// message latency. Must never exceed that latency floor, or the
    /// schedule is no longer conservative.
    pub lookahead: Option<Ns>,
}

impl ParallelConfig {
    /// A parallel config with `workers` partitions, the default
    /// contiguous partition map and the cost-model-derived lookahead.
    pub fn workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            partition_map: None,
            lookahead: None,
        }
    }

    /// The default host → worker map: contiguous balanced chunks
    /// (`host * workers / hosts`), which keeps neighbouring hosts — the
    /// likeliest sharers — in one partition.
    pub fn default_map(hosts: usize, workers: usize) -> Vec<usize> {
        (0..hosts).map(|h| h * workers / hosts).collect()
    }
}

/// What a scheduled blocking wait resolved to.
#[derive(Debug)]
pub enum BlockOutcome<T> {
    /// The condition was met; the value it produced.
    Ready(T),
    /// The schedule deadlocked (no runnable thread while an application
    /// thread was blocked) and the run is tearing down. The caller must
    /// unwind/exit instead of retrying.
    Poisoned,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Blocked since its host's wake generation read `seen`;
    /// schedulable again (to re-check its condition) once that
    /// generation moves past it.
    Blocked {
        seen: u64,
    },
    Done,
}

struct Slot {
    key: ThreadKey,
    vt: Ns,
    status: Status,
    /// Whether the slot is filed in [`PartState::candidates`].
    candidate: bool,
    attached: bool,
    /// Present on a passive slot (see [`Scheduler::attach_passive`]).
    passive: Option<Passive>,
    /// The condition the slot's thread is parked on, if it is.
    cond: Option<Cond>,
}

type CondFn<'a> = dyn FnMut() -> bool + Send + 'a;

/// A blocking condition, published in its parked owner's [`Slot`] so that
/// whoever dispatches evaluates it where the schedule is. Points at a
/// closure on the owner's stack and forgets for how long:
/// [`SchedThread::park_on`], its only maker, is what keeps that sound.
struct Cond(*mut CondFn<'static>);

// SAFETY: the pointee is `Send` and its owner leaves it alone while the
// `Cond` exists, so sending the pointer sends exclusive access to it.
unsafe impl Send for Cond {}

impl Cond {
    /// Evaluates the condition; the caller holds the slot's partition lock.
    fn holds(&mut self) -> bool {
        // SAFETY: a `Cond` exists only in its owner's slot and between the
        // two assignments in `park_on`, both made under the partition lock
        // the caller holds. So the owner is inside `park_on` — parked, or,
        // picked or poisoned, waiting for this lock — the closure it
        // borrowed for that call is alive, and nobody else is using it. (An
        // owner unwinding out of its park held the schedule, and passes it
        // on only through `finish`, which retires the slot first.)
        unsafe { (*self.0)() }
    }
}

/// What one turn of a passive slot did. The scheduler applies it to the
/// slot exactly as the thread it stands for would have at its next
/// scheduling call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Turn {
    /// Handled one unit of work: the slot's virtual time is now `vt`, its
    /// host is woken (the handler may have fulfilled a rendezvous there)
    /// and it stays runnable.
    Ran {
        /// The slot's virtual time after the work.
        vt: Ns,
    },
    /// Found nothing to do: the slot parks at `vt` until something next
    /// wakes its host.
    Idle {
        /// The slot's virtual time while parked.
        vt: Ns,
    },
    /// The slot is finished; its turn is dropped and never called again.
    Done,
}

/// One turn of a passive slot, run to completion by whichever thread holds
/// the schedule when the slot is picked.
pub type TurnFn = Box<dyn FnMut() -> Turn + Send>;

struct Passive {
    /// `None` while the turn runs (the partition lock is released then).
    turn: Option<TurnFn>,
    /// Whether the slot's first pick is still ahead. That pick is the
    /// attach step of the thread the slot stands for — it consumes a
    /// scheduling step and runs nothing — which keeps decision logs
    /// identical whichever way a server is registered.
    fresh: bool,
}

enum PolicyState {
    VirtualTime,
    Random {
        rng: SplitMix64,
    },
    Pct {
        prios: Vec<u64>,
        change_at: Vec<u64>,
        demote_next: u64,
    },
    Replay {
        choices: Arc<Vec<u32>>,
        pos: usize,
    },
}

/// Per-partition mutable state: the slots of the partition's threads and
/// the one-running-thread-at-a-time discipline, all under one mutex.
struct PartState {
    slots: Vec<Slot>,
    /// `(vt, key, slot)` of exactly the slots [`is_candidate`] holds for,
    /// whenever the partition lock is free: its minimum is the canonical
    /// pick. Kept so by [`PartState::set`], [`PartState::wake`] and
    /// [`PartState::wake_all`], the only writers of a slot's `vt` or
    /// `status` and of `wakes`.
    candidates: BTreeSet<(Ns, ThreadKey, usize)>,
    /// The partition's slots of each host, indexed like `wakes`.
    host_slots: Vec<Vec<usize>>,
    /// Index (within the partition) of the one thread currently allowed
    /// to run, if any.
    running: Option<usize>,
    /// The thread slot picked last: a different one is a hand-off.
    last_thread: Option<usize>,
    /// Whether the partition has arrived at the window barrier.
    at_barrier: bool,
    /// A parked application thread the window barrier asked to run the
    /// passive slot it installed as `running` (see [`barrier_complete`]).
    driver: Option<usize>,
    /// Wake generation per host, indexed by global host index (only the
    /// partition's own hosts' entries are ever read; see module docs).
    wakes: Vec<u64>,
    steps: u64,
    /// The decisions since the log was last handed to the mode (see
    /// [`flush_log`]); recorded only when `Inner::record`.
    log: Vec<u32>,
    policy: PolicyState,
}

impl PartState {
    /// Slot `i` is at virtual time `vt` in `status` from now on.
    fn set(&mut self, i: usize, vt: Ns, status: Status) {
        let s = &mut self.slots[i];
        if s.candidate && s.vt != vt {
            self.candidates.remove(&(s.vt, s.key, i));
            s.candidate = false;
        }
        (s.vt, s.status) = (vt, status);
        self.file(i);
    }

    /// Slot `i` is in `status` from now on, where it is in virtual time.
    fn set_status(&mut self, i: usize, status: Status) {
        self.set(i, self.slots[i].vt, status);
    }

    /// Files slot `i` in the candidate index, or takes it out, after a
    /// write to what [`is_candidate`] reads.
    fn file(&mut self, i: usize) {
        let s = &mut self.slots[i];
        let candidate = is_candidate(s, &self.wakes);
        if std::mem::replace(&mut s.candidate, candidate) != candidate {
            let entry = (s.vt, s.key, i);
            match candidate {
                true => self.candidates.insert(entry),
                false => self.candidates.remove(&entry),
            };
        }
    }

    /// Something touched `host`'s inbox or waiter table: its blocked
    /// threads must re-check.
    fn wake(&mut self, host: HostId) {
        self.wakes[host.index()] += 1;
        for n in 0..self.host_slots[host.index()].len() {
            self.file(self.host_slots[host.index()][n]);
        }
    }

    /// A potentially-unblocking action that names no host: every blocked
    /// thread of the partition re-checks.
    fn wake_all(&mut self) {
        for w in &mut self.wakes {
            *w += 1;
        }
        (0..self.slots.len()).for_each(|i| self.file(i));
    }

    /// The canonical pick: the candidate first in `(vt, key)` order. Debug
    /// builds check it against the pass over every slot it replaced.
    fn first(&self) -> Option<usize> {
        let first = self.candidates.first().map(|&(_, _, i)| i);
        debug_assert_eq!(
            first,
            (0..self.slots.len())
                .filter(|&i| is_candidate(&self.slots[i], &self.wakes))
                .min_by_key(|&i| (self.slots[i].vt, self.slots[i].key)),
            "the candidate index drifted"
        );
        first
    }
}

struct Part {
    state: Mutex<PartState>,
    /// One condvar per slot: a dispatch notifies exactly the picked
    /// thread, never every parked one.
    cvs: Vec<Condvar>,
    /// The partition's hosts, ascending. Immutable after construction;
    /// the dispatch loop scans these for pending gated deliveries.
    hosts: Vec<HostId>,
}

/// Cross-partition control state: attach/start bookkeeping and the
/// window barrier. Locked after a partition's state is released, never
/// while holding one (lock order: ctl → part → {gate, condition}).
struct Ctl {
    attached: usize,
    started: bool,
    /// Number of partitions currently at the window barrier.
    arrived: usize,
    /// Set when the whole simulation is quiescent (every partition at
    /// the barrier with no event anywhere); what
    /// [`Scheduler::quiesce_then`] waits for.
    idle: bool,
}

struct Inner {
    parts: Vec<Part>,
    ctl: Mutex<Ctl>,
    /// Signalled when the scheduler goes idle or poisons; what
    /// [`Scheduler::quiesce_then`] waits on (holding the ctl lock).
    main_cv: Condvar,
    poisoned: AtomicBool,
    /// Payload of the first passive turn that panicked (the run is
    /// poisoned with it); [`Scheduler::take_turn_panic`] hands it out.
    turn_panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Set while an unregistered external actor (the cluster's main
    /// thread, delivering shutdowns) runs inside a quiesced window;
    /// suppresses dispatches from its action bumps and bypasses the
    /// delivery gate.
    external: AtomicBool,
    /// Exclusive upper bound of the current window. Stored by the
    /// barrier while every partition is quiescent; read by dispatch
    /// loops. `Ns::MAX` in the sequential (infinite-lookahead) case.
    window_end: AtomicU64,
    lookahead: Ns,
    /// Whether cross-host deliveries are gated (virtual-time policy).
    gating: bool,
    gate: OnceLock<Arc<dyn DeliveryGate>>,
    /// A wake-everything request from a scheduled thread that must also
    /// reach partitions other than its own (a failed run cancelling
    /// every host's waits). Applied by the window barrier, when every
    /// partition is parked, before it rules on idleness or deadlock.
    wake_all_pending: AtomicBool,
    /// Host index → partition index (for host wakes and held-packet
    /// rescue).
    host_part: Vec<usize>,
    total_slots: usize,
    /// Whether dispatch decisions are recorded into the decision log
    /// (one partition only: a total order does not exist otherwise).
    record: bool,
    /// The mode's decision log, which the partition's own log is handed
    /// to at every quiescence verdict and on drop.
    log: Arc<Mutex<Vec<u32>>>,
    /// See [`Scheduler::hand_offs`]; shared with the mode like the log.
    hand_offs: Arc<AtomicU64>,
}

impl Inner {
    /// The partition that owns `host`. A host outside the map has no
    /// partition, and a wake sent anywhere else would be silently lost.
    fn part_of(&self, host: HostId) -> &Part {
        match self.host_part.get(host.index()) {
            Some(&pi) => &self.parts[pi],
            None => panic!(
                "wake for host {} but the partition map covers {} hosts",
                host.index(),
                self.host_part.len()
            ),
        }
    }
}

/// The run-wide deterministic scheduler handle. Cloning shares the
/// scheduler.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheduler({} parts)", self.inner.parts.len())
    }
}

impl Scheduler {
    /// Builds a sequential scheduler for the thread set named by `keys`
    /// under `mode`'s policy: one partition, infinite lookahead. The slot order of `keys` defines the
    /// decision-log numbering, so callers must build it deterministically
    /// (the cluster enumerates servers then application threads in host
    /// order).
    pub fn new(mode: &SchedMode, keys: Vec<ThreadKey>) -> Self {
        let hosts = keys.iter().map(|k| k.host.index() + 1).max().unwrap_or(1);
        Self::build(mode, keys, vec![0; hosts], 1, Ns::MAX)
    }

    /// Builds a partitioned (conservative-parallel) scheduler:
    /// `host_part[h]` names host `h`'s worker partition and `lookahead`
    /// is the safety horizon in virtual nanoseconds (the minimum
    /// cross-host message latency). Empty partitions are compacted away.
    ///
    /// # Panics
    ///
    /// Panics if the mode's policy is not [`SchedPolicy::VirtualTime`]
    /// (exploration policies perturb a total order that only exists
    /// sequentially), if the map is shorter than the host set, or if an
    /// entry names a worker ≥ `workers`.
    pub fn new_parallel(
        mode: &SchedMode,
        keys: Vec<ThreadKey>,
        host_part: Vec<usize>,
        workers: usize,
        lookahead: Ns,
    ) -> Self {
        assert!(
            mode.is_virtual_time(),
            "parallel execution requires the virtual-time policy; \
             {} schedules are sequential-only",
            mode.policy_name()
        );
        assert!(workers >= 1, "parallel execution with zero workers");
        assert!(lookahead >= 1, "zero lookahead would never make progress");
        Self::build(mode, keys, host_part, workers, lookahead)
    }

    fn build(
        m: &SchedMode,
        keys: Vec<ThreadKey>,
        host_part_in: Vec<usize>,
        workers: usize,
        lookahead: Ns,
    ) -> Self {
        assert!(!keys.is_empty(), "a scheduler with no threads");
        let max_host = keys.iter().map(|k| k.host.index()).max().unwrap_or(0);
        assert!(
            host_part_in.len() > max_host,
            "partition map covers {} hosts but thread keys name host {}",
            host_part_in.len(),
            max_host
        );
        for (h, &w) in host_part_in.iter().enumerate() {
            assert!(w < workers, "host {h} mapped to worker {w} of {workers}");
        }
        // Compact away workers that own no thread: an empty partition
        // would never arrive at the window barrier.
        let mut used = vec![false; workers];
        for k in &keys {
            used[host_part_in[k.host.index()]] = true;
        }
        let mut remap = vec![0usize; workers];
        let mut nparts = 0;
        for w in 0..workers {
            if used[w] {
                remap[w] = nparts;
                nparts += 1;
            }
        }
        let host_part: Vec<usize> = host_part_in.iter().map(|&w| remap[w]).collect();
        assert!(
            nparts == 1 || matches!(m.policy, SchedPolicy::VirtualTime),
            "exploration policies are sequential-only"
        );
        let gating = matches!(m.policy, SchedPolicy::VirtualTime);
        let total_slots = keys.len();
        // Freed, not cleared: the partition's log is swapped in whole.
        *lock(&m.log) = Vec::new();
        m.hand_offs.store(0, Ordering::Relaxed);
        let mut part_keys: Vec<Vec<ThreadKey>> = vec![Vec::new(); nparts];
        for k in &keys {
            part_keys[host_part[k.host.index()]].push(*k);
        }
        let parts: Vec<Part> = part_keys
            .into_iter()
            .map(|pkeys| {
                let policy = match &m.policy {
                    SchedPolicy::VirtualTime => PolicyState::VirtualTime,
                    SchedPolicy::Random { seed } => PolicyState::Random {
                        rng: SplitMix64::new(*seed),
                    },
                    SchedPolicy::Pct { seed, depth } => {
                        let mut rng = SplitMix64::new(*seed);
                        // High bit set: every initial priority sits above
                        // every demotion value, and demotions stay
                        // mutually distinct.
                        let prios = pkeys.iter().map(|_| rng.next_u64() | (1 << 63)).collect();
                        let mut change_at: Vec<u64> = (1..*depth)
                            .map(|_| 1 + rng.next_range(PCT_STEP_HINT))
                            .collect();
                        change_at.sort_unstable();
                        PolicyState::Pct {
                            prios,
                            change_at,
                            demote_next: 1 << 62,
                        }
                    }
                    SchedPolicy::Replay { choices } => PolicyState::Replay {
                        choices: Arc::clone(choices),
                        pos: 0,
                    },
                };
                let mut hosts: Vec<HostId> = pkeys.iter().map(|k| k.host).collect();
                hosts.sort_unstable();
                hosts.dedup();
                let mut host_slots = vec![Vec::new(); host_part.len()];
                for (i, key) in pkeys.iter().enumerate() {
                    host_slots[key.host.index()].push(i);
                }
                let candidates = (0..pkeys.len()).map(|i| (0, pkeys[i], i)).collect();
                let slots: Vec<Slot> = pkeys
                    .into_iter()
                    .map(|key| Slot {
                        key,
                        vt: 0,
                        status: Status::Runnable,
                        candidate: true,
                        attached: false,
                        passive: None,
                        cond: None,
                    })
                    .collect();
                let cvs = (0..slots.len()).map(|_| Condvar::new()).collect();
                Part {
                    state: Mutex::new(PartState {
                        slots,
                        candidates,
                        host_slots,
                        running: None,
                        last_thread: None,
                        at_barrier: true,
                        driver: None,
                        wakes: vec![0; host_part.len()],
                        steps: 0,
                        log: Vec::new(),
                        policy,
                    }),
                    cvs,
                    hosts,
                }
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                ctl: Mutex::new(Ctl {
                    attached: 0,
                    started: false,
                    arrived: parts.len(),
                    idle: false,
                }),
                main_cv: Condvar::new(),
                poisoned: AtomicBool::new(false),
                turn_panic: Mutex::new(None),
                external: AtomicBool::new(false),
                window_end: AtomicU64::new(0),
                lookahead,
                gating,
                gate: OnceLock::new(),
                wake_all_pending: AtomicBool::new(false),
                host_part,
                total_slots,
                record: parts.len() == 1,
                log: Arc::clone(&m.log),
                hand_offs: Arc::clone(&m.hand_offs),
                parts,
            }),
        }
    }

    /// Number of worker partitions.
    pub fn partitions(&self) -> usize {
        self.inner.parts.len()
    }

    /// Whether cross-host deliveries must be gated: the canonical
    /// virtual-time policy. The network fabric keys its delivery path off
    /// this.
    pub fn gating(&self) -> bool {
        self.inner.gating
    }

    /// Whether an external (unscheduled) actor currently runs inside a
    /// quiesced window; the fabric then delivers directly instead of
    /// enqueueing into the gate.
    pub fn external_active(&self) -> bool {
        self.inner.external.load(Ordering::Acquire)
    }

    /// Installs the delivery gate (the fabric's gated-packet store).
    /// One-shot; later calls are ignored.
    pub fn set_gate(&self, gate: Arc<dyn DeliveryGate>) {
        let _ = self.inner.gate.set(gate);
    }

    /// Registers the calling OS thread as the simulated thread `key` and
    /// parks it until every expected thread has attached and the policy
    /// picks it. Must be called on the spawned thread itself.
    ///
    /// # Panics
    ///
    /// Panics if `key` names no slot or was already attached.
    pub fn attach(&self, key: ThreadKey) -> SchedThread {
        let inner = &self.inner;
        let (part, id) = register(inner, key, None);
        let ps = lock(&inner.parts[part].state);
        drop(park_until_running(inner, part, ps, id));
        SchedThread {
            inner: Arc::clone(inner),
            part,
            id,
            finished: false,
        }
    }

    /// Registers slot `key` as **passive**: it owns no OS thread, and
    /// whenever the policy picks it, the thread that is giving up the
    /// schedule runs `turn` to completion and dispatches again (see the
    /// module docs). The slot keeps its index, tie-break key, candidate
    /// rule and decision-log entries, so a schedule does not depend on
    /// whether a slot is a thread or passive. Callable from any thread.
    ///
    /// `turn` must never block on another simulated thread, and may call
    /// [`Scheduler::bump_action`] / [`Scheduler::bump_action_host`] but no
    /// [`SchedThread`] method.
    ///
    /// # Panics
    ///
    /// Panics if `key` names no slot or was already attached.
    pub fn attach_passive(&self, key: ThreadKey, turn: TurnFn) {
        register(&self.inner, key, Some(turn));
    }

    /// The payload of a passive turn that panicked, once. The scheduler
    /// caught it on whichever thread was running the turn, retired the
    /// slot and poisoned the run; the owner of the run re-raises it after
    /// teardown.
    pub fn take_turn_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        lock(&self.inner.turn_panic).take()
    }

    /// Wakes every host of every partition from *any* thread
    /// (registered or not) and re-examines a quiescent simulation:
    /// called on deliveries in ungated (exploration-policy) mode and by
    /// external actors that made progress possible. A scheduled thread
    /// of a partitioned run must not call this (it would bump a running
    /// partition); it has [`SchedThread::action`] for its own host and
    /// [`SchedThread::action_all`] for everything else.
    pub fn bump_action(&self) {
        let inner = &self.inner;
        let mut ctl = lock(&inner.ctl);
        for part in &inner.parts {
            lock(&part.state).wake_all();
        }
        let quiet = ctl.started
            && !inner.external.load(Ordering::Acquire)
            && !inner.poisoned.load(Ordering::Acquire)
            && ctl.arrived == inner.parts.len();
        let mine = match quiet {
            true => barrier_complete(inner, &mut ctl, None),
            false => Vec::new(),
        };
        drop(ctl);
        drive_installed(inner, mine, None);
    }

    /// Wakes `host` only: a delivery or handler effect whose observers
    /// all live on that host. Avoids the cross-partition control lock on
    /// the hot path; it never needs to re-dispatch because the caller is
    /// a currently-running scheduled thread of the same partition (or an
    /// external actor inside a quiesced window, whose re-examination
    /// happens when the window closes).
    ///
    /// # Panics
    ///
    /// Panics if `host` is outside the partition map: a wake delivered to
    /// the wrong partition is a silently lost wake-up.
    pub fn bump_action_host(&self, host: HostId) {
        lock(&self.inner.part_of(host).state).wake(host);
    }

    /// Waits until the whole simulation is quiescent (every thread done
    /// or blocked with nothing runnable and nothing in flight), then runs
    /// `f` with dispatching suppressed, then re-examines whatever `f`'s
    /// actions made runnable. This is how the cluster's (unscheduled)
    /// main thread injects its shutdown messages without racing the
    /// scheduled world.
    pub fn quiesce_then(&self, f: impl FnOnce()) {
        let inner = &self.inner;
        let mut ctl = lock(&inner.ctl);
        while !(inner.poisoned.load(Ordering::Acquire) || (ctl.started && ctl.idle)) {
            ctl = wait(&inner.main_cv, ctl);
        }
        inner.external.store(true, Ordering::Release);
        drop(ctl);
        f();
        let mut ctl = lock(&inner.ctl);
        inner.external.store(false, Ordering::Release);
        let quiet = !inner.poisoned.load(Ordering::Acquire) && ctl.arrived == inner.parts.len();
        let mine = match quiet {
            true => barrier_complete(inner, &mut ctl, None),
            false => Vec::new(),
        };
        drop(ctl);
        // With every application thread gone this thread is the only one
        // left to run what `f` made runnable (the servers' last turns).
        drive_installed(inner, mine, None);
    }

    /// Number of scheduling decisions taken so far, summed over
    /// partitions.
    pub fn steps(&self) -> u64 {
        let parts = &self.inner.parts;
        parts.iter().map(|p| lock(&p.state).steps).sum()
    }

    /// Number of picks so far that passed the schedule to another thread
    /// than the one picked last: the OS switches the schedule costs.
    /// Passive picks, self-picks and unmet conditions cost none.
    pub fn hand_offs(&self) -> u64 {
        self.inner.hand_offs.load(Ordering::Relaxed)
    }
}

/// One simulated thread's handle into the scheduler. Obtained from
/// [`Scheduler::attach`]. Dropping the handle marks the thread done and
/// hands control on.
pub struct SchedThread {
    inner: Arc<Inner>,
    part: usize,
    id: usize,
    finished: bool,
}

impl SchedThread {
    /// A cooperative yield point: records the thread's current virtual
    /// time, lets the policy pick the next thread (possibly this one
    /// again), and returns when this thread is picked again.
    pub fn yield_now(&self, vt: Ns) {
        let inner = &self.inner;
        let part = &inner.parts[self.part];
        let mut ps = lock(&part.state);
        if inner.poisoned.load(Ordering::Acquire) {
            return;
        }
        debug_assert_eq!(ps.running, Some(self.id), "yield from a paused thread");
        ps.set(self.id, vt, Status::Runnable);
        drop(hand_off(inner, (self.part, self.id), ps));
    }

    /// Wakes the caller's own host: it just did something that may have
    /// unblocked a peer there (fulfilled a waiter, mutated protocol
    /// state) outside the network-delivery hook.
    pub fn action(&self) {
        let mut ps = lock(&self.inner.parts[self.part].state);
        let host = ps.slots[self.id].key.host;
        ps.wake(host);
    }

    /// Wakes every host of the run: the caller mutated state that
    /// threads of *any* host may be blocked on (the cluster failing every
    /// host's pending waits). The caller's own partition — whose schedule
    /// it holds — is woken at once; the others at the next window
    /// barrier, which cannot rule the run idle or deadlocked before it
    /// has applied the request.
    pub fn action_all(&self) {
        lock(&self.inner.parts[self.part].state).wake_all();
        self.inner.wake_all_pending.store(true, Ordering::Release);
    }

    /// Blocks until `check` produces a value, yielding to other threads
    /// while the condition is unmet. `vt` is the block-entry virtual time
    /// used for the policy's tie-break while parked. The caller checks once
    /// itself and never parks on a condition already met; after that
    /// `check` runs under the partition lock *on whichever thread
    /// dispatches* when the parked slot is picked, so it must keep the
    /// module docs' condition contract: pure, no scheduler calls, leaf
    /// locks only.
    pub fn block_until<T: Send>(
        &self,
        vt: Ns,
        mut check: impl FnMut() -> Option<T> + Send,
    ) -> BlockOutcome<T> {
        let inner = &self.inner;
        // Snapshot the host's wake generation *before* checking: a wake
        // landing between a failed check and the park leaves `seen`
        // stale, so the slot stays schedulable — no lost wake-up.
        let seen = {
            let ps = lock(&inner.parts[self.part].state);
            if inner.poisoned.load(Ordering::Acquire) {
                return BlockOutcome::Poisoned;
            }
            ps.wakes[ps.slots[self.id].key.host.index()]
        };
        match check() {
            Some(v) => BlockOutcome::Ready(v),
            None => self.park(vt, Status::Blocked { seen }, check),
        }
    }

    /// [`yield_now`](Self::yield_now) then [`block_until`](Self::block_until)
    /// — the same scheduling steps and decision log — as one park: the slot
    /// stays runnable with its condition published, and the pick that would
    /// have returned from the yield evaluates it in place. What a request
    /// wants: message on the wire, nothing to do until the reply.
    pub fn yield_then_block<T: Send>(
        &self,
        vt: Ns,
        check: impl FnMut() -> Option<T> + Send,
    ) -> BlockOutcome<T> {
        self.park(vt, Status::Runnable, check)
    }

    /// [`park_on`](Self::park_on) for a condition that yields a value.
    fn park<T>(
        &self,
        vt: Ns,
        status: Status,
        mut check: impl FnMut() -> Option<T> + Send,
    ) -> BlockOutcome<T> {
        match self.park_on(vt, status, &mut || check().is_some()) {
            true => BlockOutcome::Ready(check().expect("an impure condition: met, then unmet")),
            false => BlockOutcome::Poisoned,
        }
    }

    /// Gives up the schedule at `vt` in `status` with `check` published as
    /// the slot's condition, and parks until a dispatcher found it met
    /// (`true`) or the run is poisoned. Publishes and withdraws under the
    /// partition lock.
    fn park_on(&self, vt: Ns, status: Status, check: &mut CondFn<'_>) -> bool {
        let inner = &self.inner;
        let mut ps = lock(&inner.parts[self.part].state);
        if inner.poisoned.load(Ordering::Acquire) {
            return false;
        }
        let check: *mut CondFn<'_> = check;
        // SAFETY: only the trait object's lifetime bound changes, which has
        // no representation; `Cond::holds` argues that no use outlives it.
        let check = unsafe { std::mem::transmute::<*mut CondFn<'_>, *mut CondFn<'static>>(check) };
        ps.set(self.id, vt, status);
        ps.slots[self.id].cond = Some(Cond(check));
        let mut ps = hand_off(inner, (self.part, self.id), ps);
        ps.set_status(self.id, Status::Runnable);
        ps.slots[self.id].cond = None;
        !inner.poisoned.load(Ordering::Acquire)
    }

    /// Marks the thread done and hands control to the next runnable
    /// thread. Idempotent; also called on drop.
    pub fn finish(&mut self) {
        if std::mem::replace(&mut self.finished, true) {
            return;
        }
        let inner = &self.inner;
        let part = &inner.parts[self.part];
        let mut ps = lock(&part.state);
        ps.set_status(self.id, Status::Done);
        // Finishing names no host: whatever this thread released on its
        // way out, every blocked thread of the partition re-checks once.
        ps.wake_all();
        if inner.poisoned.load(Ordering::Acquire) {
            return;
        }
        relinquish(inner, (self.part, self.id), ps);
    }
}

impl Drop for SchedThread {
    fn drop(&mut self) {
        self.finish();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// Thread `me` gives up the schedule and parks until it is picked again.
fn hand_off<'a>(
    inner: &'a Inner,
    me: (usize, usize),
    ps: MutexGuard<'a, PartState>,
) -> MutexGuard<'a, PartState> {
    relinquish(inner, me, ps);
    park_until_running(inner, me.0, lock(&inner.parts[me.0].state), me.1)
}

/// Parks thread `id` of partition `pi` until the policy picks it (or the
/// run is poisoned). While parked it may be named the partition's driver
/// by a window barrier some other partition's thread completed; it then
/// runs the passive pick the barrier installed and returns to its park.
fn park_until_running<'a>(
    inner: &'a Inner,
    pi: usize,
    mut ps: MutexGuard<'a, PartState>,
    id: usize,
) -> MutexGuard<'a, PartState> {
    let part = &inner.parts[pi];
    loop {
        if inner.poisoned.load(Ordering::Acquire) || ps.running == Some(id) {
            return ps;
        }
        if ps.driver == Some(id) {
            ps.driver = None;
            let pick = ps.running.expect("a driver is named with a pick installed");
            let me = Some((pi, id));
            let mine = run_partition(inner, pi, ps, Verdict::Passive(pick), me);
            drive_installed(inner, mine, me);
            ps = lock(&part.state);
            continue;
        }
        ps = wait(&part.cvs[id], ps);
    }
}

/// Marks slot `key` attached (as a passive slot when `turn` is given) and,
/// when it completes the thread set, opens the first window. Returns the
/// slot's partition and index.
fn register(inner: &Inner, key: ThreadKey, mut turn: Option<TurnFn>) -> (usize, usize) {
    let threaded = turn.is_none();
    let mut ctl = lock(&inner.ctl);
    let found = inner.parts.iter().enumerate().find_map(|(pi, part)| {
        let mut ps = lock(&part.state);
        let id = ps.slots.iter().position(|s| s.key == key)?;
        assert!(!ps.slots[id].attached, "thread {key} attached twice");
        ps.slots[id].attached = true;
        ps.slots[id].passive = turn.take().map(|turn| Passive {
            turn: Some(turn),
            fresh: true,
        });
        Some((pi, id))
    });
    let (pi, id) = found.unwrap_or_else(|| panic!("no scheduler slot for thread {key}"));
    let me = threaded.then_some((pi, id));
    ctl.attached += 1;
    // Attach doubles as the first window barrier: every partition is
    // "arrived" until the full thread set exists.
    ctl.started = ctl.attached == inner.total_slots;
    let mine = match ctl.started {
        true => barrier_complete(inner, &mut ctl, me.map(|m| m.0)),
        false => Vec::new(),
    };
    drop(ctl);
    drive_installed(inner, mine, me);
    (pi, id)
}

/// Whether slot `s` may be scheduled right now, given its partition's
/// per-host wake generations.
fn is_candidate(s: &Slot, wakes: &[u64]) -> bool {
    match s.status {
        Status::Runnable => true,
        Status::Blocked { seen } => seen < wakes[s.key.host.index()],
        Status::Done => false,
    }
}

enum Verdict {
    /// Thread slot `.0` was picked and installed as `running`; the caller
    /// must notify its condvar (unless it is the caller itself).
    Thread(usize),
    /// Passive slot `.0` was picked and installed as `running`; the caller
    /// must run its turn (with no scheduler lock held) and dispatch again.
    Passive(usize),
    /// Nothing dispatchable below the window end; the partition must
    /// arrive at the window barrier.
    Barrier,
}

/// Picks and installs the partition's next slot to run, releasing any
/// gated deliveries the canonical virtual-time order reaches first. Call
/// with the partition's state lock held, from the thread relinquishing
/// control or from the window barrier; the caller acts on the verdict.
fn dispatch_in(inner: &Inner, part: &Part, ps: &mut PartState) -> Verdict {
    ps.running = None;
    if inner.poisoned.load(Ordering::Acquire) {
        return Verdict::Barrier;
    }
    let window_end = inner.window_end.load(Ordering::Acquire);
    loop {
        let min_cand = ps.first();
        // Gated cross-host deliveries: release the earliest pending
        // packet for this partition's hosts when it precedes (or ties —
        // the delivery enables the receiver) every candidate thread.
        // Releasing before dispatching keeps the canonical virtual-time
        // total order across the wire, identically at any partition
        // count.
        if inner.gating {
            if let Some(gate) = inner.gate.get() {
                if let Some((r, h)) = gate.min_pending(&part.hosts) {
                    let cand_vt = min_cand.map(|i| ps.slots[i].vt);
                    if r < window_end && cand_vt.is_none_or(|cv| r <= cv) {
                        gate.release_next(h);
                        // The packet is in `h`'s inbox: wake `h` (its
                        // server is the only possible receiver) and
                        // look at the candidates again.
                        ps.wake(h);
                        continue;
                    }
                }
            }
        }
        let Some(min_i) = min_cand else {
            return Verdict::Barrier;
        };
        if ps.slots[min_i].vt >= window_end {
            return Verdict::Barrier;
        }
        let step = ps.steps + 1;
        let PartState {
            slots,
            candidates,
            policy,
            ..
        } = &mut *ps;
        let chosen = match policy {
            PolicyState::VirtualTime => None,
            PolicyState::Random { rng } => (0..slots.len())
                .filter(|&i| slots[i].candidate)
                .nth(rng.next_usize(candidates.len())),
            PolicyState::Pct {
                prios,
                change_at,
                demote_next,
            } => {
                let pick = (0..slots.len())
                    .filter(|&i| slots[i].candidate)
                    .max_by_key(|&i| prios[i])
                    .expect("non-empty candidate set");
                while change_at.first() == Some(&step) {
                    change_at.remove(0);
                    prios[pick] = *demote_next;
                    *demote_next -= 1;
                }
                Some(pick)
            }
            PolicyState::Replay { choices, pos } => {
                let want = choices.get(*pos).map(|&c| c as usize);
                *pos += 1;
                // Exhausted or invalid choices fall back to virtual-time
                // order.
                want.filter(|&w| slots.get(w).is_some_and(|s| s.candidate))
            }
        };
        let pick = chosen.unwrap_or(min_i);
        ps.steps += 1;
        if inner.record {
            ps.log.push(pick as u32);
        }
        // A parked thread's condition is re-checked right here: unmet, the
        // slot is blocked again — on the generation its own thread would
        // have recorded, no wake can land under this lock — and we pick on.
        if ps.slots[pick].cond.as_mut().is_some_and(|c| !c.holds()) {
            let seen = ps.wakes[ps.slots[pick].key.host.index()];
            ps.set_status(pick, Status::Blocked { seen });
            continue;
        }
        ps.running = Some(pick);
        if ps.slots[pick].passive.is_some() {
            return Verdict::Passive(pick);
        }
        if ps.last_thread.replace(pick) != Some(pick) {
            inner.hand_offs.fetch_add(1, Ordering::Relaxed);
        }
        return Verdict::Thread(pick);
    }
}

/// Runs the turn of passive slot `i`, which [`dispatch_in`] just installed
/// as `running`, on the calling thread, and applies its outcome to the slot
/// — what the server thread it stands for did through `block_until`,
/// `action` + `yield_now`, or `finish`. The partition lock is released
/// around the turn: handlers deliver messages, and deliveries wake hosts
/// under that lock (and, ungated, under the control lock).
fn run_turn<'a>(
    inner: &Inner,
    part: &'a Part,
    mut ps: MutexGuard<'a, PartState>,
    i: usize,
) -> MutexGuard<'a, PartState> {
    let host = ps.slots[i].key.host;
    // Snapshot before the turn looks at its inbox, as `block_until` does:
    // a wake landing in between leaves `seen` stale and the slot
    // schedulable.
    let seen = ps.wakes[host.index()];
    let passive = ps.slots[i].passive.as_mut().expect("a passive pick");
    if std::mem::take(&mut passive.fresh) {
        return ps;
    }
    let mut turn = passive.turn.take().expect("one turn of a slot at a time");
    drop(ps);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut turn));
    let mut ps = lock(&part.state);
    let (status, vt) = match outcome {
        Ok(Turn::Ran { vt }) => {
            ps.wake(host);
            (Status::Runnable, vt)
        }
        Ok(Turn::Idle { vt }) => (Status::Blocked { seen }, vt),
        Ok(Turn::Done) => {
            // Like a thread finishing: names no host, wakes everyone.
            ps.wake_all();
            (Status::Done, ps.slots[i].vt)
        }
        Err(payload) => {
            // A broken handler must end the run, not wedge it with the
            // token on a slot nobody can run: retire the slot, keep the
            // payload for the run's owner, and poison so every parked
            // thread unwinds.
            ps.set_status(i, Status::Done);
            drop(ps);
            lock(&inner.turn_panic).get_or_insert(payload);
            poison(inner, &lock(&inner.ctl));
            return lock(&part.state);
        }
    };
    ps.set(i, vt, status);
    if status != Status::Done {
        let passive = ps.slots[i].passive.as_mut().expect("a passive pick");
        passive.turn = Some(turn);
    }
    ps
}

/// Thread `me` (partition, slot) gives up the schedule of its partition:
/// picks what runs next and, as long as that is a passive slot, runs it
/// right here. Returns once the schedule rests with a thread (possibly
/// `me`, which then falls through its park) or the run went quiet.
fn relinquish<'a>(inner: &'a Inner, me: (usize, usize), mut ps: MutexGuard<'a, PartState>) {
    let verdict = dispatch_in(inner, &inner.parts[me.0], &mut ps);
    let mine = run_partition(inner, me.0, ps, verdict, Some(me));
    drive_installed(inner, mine, Some(me));
}

/// Carries partition `pi` on from `verdict` on the calling thread (`me`,
/// if it is a scheduled one) until a thread was dispatched or the
/// partition arrived at the window barrier. Returns the partitions a
/// barrier this completed left to the caller (see [`barrier_complete`]).
fn run_partition<'a>(
    inner: &'a Inner,
    pi: usize,
    mut ps: MutexGuard<'a, PartState>,
    mut verdict: Verdict,
    me: Option<(usize, usize)>,
) -> Vec<usize> {
    let part = &inner.parts[pi];
    loop {
        match verdict {
            Verdict::Thread(pick) => {
                // Notify with the partition lock released: the woken
                // thread needs that lock first, and when the wake-up
                // preempts this thread it would be switched in only to
                // block on it. Picking itself, the caller just returns.
                drop(ps);
                if me != Some((pi, pick)) {
                    part.cvs[pick].notify_one();
                }
                return Vec::new();
            }
            Verdict::Barrier => return arrive_at_barrier(inner, pi, ps),
            Verdict::Passive(i) => {
                ps = run_turn(inner, part, ps, i);
                verdict = dispatch_in(inner, part, &mut ps);
            }
        }
    }
}

/// Runs every partition in `todo` — each with a passive pick installed by
/// a window barrier — plus whatever further barriers completed on the way
/// leave to this thread (`me`, if it is a scheduled one).
fn drive_installed(inner: &Inner, mut todo: Vec<usize>, me: Option<(usize, usize)>) {
    while let Some(pi) = todo.pop() {
        if inner.poisoned.load(Ordering::Acquire) {
            return;
        }
        let ps = lock(&inner.parts[pi].state);
        let pick = ps.running.expect("the barrier installed a pick");
        todo.extend(run_partition(inner, pi, ps, Verdict::Passive(pick), me));
    }
}

/// Hands partition `pi` to the window barrier: everything below the
/// window end is done. Consumes the partition guard (the barrier takes
/// the control lock, which must never be acquired while holding a
/// partition lock). Returns what [`barrier_complete`] left to the caller
/// when this arrival completed the barrier.
fn arrive_at_barrier(inner: &Inner, pi: usize, mut ps: MutexGuard<'_, PartState>) -> Vec<usize> {
    ps.at_barrier = true;
    drop(ps);
    let mut ctl = lock(&inner.ctl);
    if inner.poisoned.load(Ordering::Acquire) {
        return Vec::new();
    }
    ctl.arrived += 1;
    if ctl.started && ctl.arrived == inner.parts.len() {
        return barrier_complete(inner, &mut ctl, Some(pi));
    }
    Vec::new()
}

/// The window barrier: every partition has arrived. Derives the next
/// window `[W0, W0 + lookahead)` from the globally-minimal next event
/// (runnable candidate or pending gated delivery) and releases every
/// partition with work below the window end. With nothing pending
/// anywhere, rules the run idle — or deadlocked, if an application
/// thread is still blocked. Runs with the ctl lock held; every scheduled
/// thread is parked, so partition states and the gate are stable.
///
/// A partition whose first pick of the new window is a *passive* slot
/// needs somebody to run it, and not under the control lock. The caller
/// (a thread of partition `own`, if any) takes its own partition; every
/// other one goes to one of that partition's parked threads, so
/// partitions keep running side by side; a partition with no thread left
/// alive falls to the caller too. Returns the partitions the caller must
/// drive once it has released the control lock.
fn barrier_complete(inner: &Inner, ctl: &mut Ctl, own: Option<usize>) -> Vec<usize> {
    let mut mine = Vec::new();
    loop {
        if inner.poisoned.load(Ordering::Acquire) {
            return mine;
        }
        // A wake-everything request from a scheduled thread reaches the
        // other partitions here, before any idle/deadlock verdict.
        let wake_all = inner.wake_all_pending.swap(false, Ordering::AcqRel);
        let gate = if inner.gating { inner.gate.get() } else { None };
        let mut w0 = Ns::MAX;
        for part in &inner.parts {
            let mut ps = lock(&part.state);
            if wake_all {
                ps.wake_all();
            }
            if let Some(i) = ps.first() {
                w0 = w0.min(ps.slots[i].vt);
            }
            if let Some((r, _)) = gate.and_then(|g| g.min_pending(&part.hosts)) {
                w0 = w0.min(r);
            }
        }
        if w0 == Ns::MAX {
            // Nothing runnable and nothing in flight. Fault-held
            // (reorder) packets are the last resort — the
            // receiver-driven rescue poll is disabled under gating —
            // flush them and re-examine.
            if let Some(g) = gate {
                let rescued = g.flush_held();
                if !rescued.is_empty() {
                    for h in rescued {
                        lock(&inner.part_of(h).state).wake(h);
                    }
                    continue;
                }
            }
            let stuck_app = inner.parts.iter().any(|part| {
                let live = |s: &Slot| s.key.class == ThreadClass::App && s.status != Status::Done;
                lock(&part.state).slots.iter().any(live)
            });
            // Idle or deadlocked, the run is quiescent: its log is whole.
            for part in &inner.parts {
                flush_log(inner, &mut lock(&part.state));
            }
            if stuck_app {
                // A blocked application thread nobody can ever wake: the
                // schedule deadlocked. Poison so every thread unwinds
                // with a typed error instead of hanging the run.
                poison(inner, ctl);
            } else {
                // Only servers are parked on empty inboxes; idle until
                // an external action (the cluster's shutdown)
                // re-examines.
                ctl.idle = true;
                inner.main_cv.notify_all();
            }
            return mine;
        }
        ctl.idle = false;
        inner
            .window_end
            .store(w0.saturating_add(inner.lookahead), Ordering::Release);
        let mut dispatched_any = false;
        for (pi, part) in inner.parts.iter().enumerate() {
            let mut ps = lock(&part.state);
            let verdict = dispatch_in(inner, part, &mut ps);
            if matches!(verdict, Verdict::Barrier) {
                continue;
            }
            ps.at_barrier = false;
            ctl.arrived -= 1;
            dispatched_any = true;
            match verdict {
                Verdict::Thread(pick) => part.cvs[pick].notify_one(),
                _ if own == Some(pi) => mine.push(pi),
                _ => {
                    let parked = ps
                        .slots
                        .iter()
                        .position(|s| s.passive.is_none() && s.status != Status::Done);
                    match parked {
                        Some(id) => {
                            ps.driver = Some(id);
                            part.cvs[id].notify_one();
                        }
                        None => mine.push(pi),
                    }
                }
            }
        }
        if dispatched_any {
            return mine;
        }
        // The window's only events were packet releases to hosts with no
        // waiting receiver (drained by dispatch_in above); re-derive the
        // next window from what is left.
    }
}

/// Hands partition `ps`'s decisions to the mode's log: moved in whole
/// while that log is empty, appended to it after that — one buffer either
/// way, never a copy of the whole run.
fn flush_log(inner: &Inner, ps: &mut PartState) {
    if ps.log.is_empty() {
        return;
    }
    let mut log = lock(&inner.log);
    if log.is_empty() {
        std::mem::swap(&mut *log, &mut ps.log);
    } else {
        log.append(&mut ps.log);
    }
}

impl Drop for Inner {
    /// A run torn down without a last verdict (a panicking turn poisons
    /// it) still leaves its whole decision log with the mode.
    fn drop(&mut self) {
        for part in &self.parts {
            flush_log(self, &mut lock(&part.state));
        }
    }
}

/// Marks the schedule poisoned and wakes every parked thread (under
/// their partition locks, so nobody is between a predicate check and a
/// wait) plus the quiesce waiter. Takes the held ctl guard as proof the
/// quiesce waiter is not between its predicate check and its wait either.
fn poison(inner: &Inner, _ctl: &Ctl) {
    inner.poisoned.store(true, Ordering::SeqCst);
    for part in &inner.parts {
        let _guard = lock(&part.state);
        for cv in &part.cvs {
            cv.notify_all();
        }
    }
    inner.main_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn keys(apps: usize) -> Vec<ThreadKey> {
        let mut v = vec![ThreadKey::server(HostId(0))];
        for t in 0..apps {
            v.push(ThreadKey::app(HostId(0), t as u16));
        }
        v
    }

    /// Two producers and one counter-consumer, serialized: the consumer
    /// blocks until both producers bumped, and the whole interleaving is
    /// recorded and identical run-to-run.
    fn run_once(mode: &SchedMode) -> (u64, Vec<u32>) {
        let sched = Scheduler::new(mode, keys(2));
        let counter = Arc::new(AtomicU64::new(0));
        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        std::thread::scope(|scope| {
            for lane in 0..2u16 {
                let sched = sched.clone();
                let counter = Arc::clone(&counter);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    let t = sched.attach(ThreadKey::app(HostId(0), lane));
                    for i in 0..3 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        order.lock().unwrap().push(u64::from(lane) * 10 + i);
                        t.action();
                        t.yield_now(i);
                    }
                });
            }
            let sched2 = sched.clone();
            let counter2 = Arc::clone(&counter);
            scope.spawn(move || {
                let t = sched2.attach(ThreadKey::server(HostId(0)));
                let got = t.block_until(0, || {
                    (counter2.load(Ordering::Relaxed) >= 6)
                        .then(|| counter2.load(Ordering::Relaxed))
                });
                match got {
                    BlockOutcome::Ready(v) => assert_eq!(v, 6),
                    BlockOutcome::Poisoned => panic!("unexpected poison"),
                }
            });
        });
        let hash = order
            .lock()
            .unwrap()
            .iter()
            .fold(17u64, |h, &x| h.wrapping_mul(31).wrapping_add(x));
        (hash, mode.decisions())
    }

    #[test]
    fn same_policy_same_interleaving() {
        for mode in [
            SchedMode::deterministic(),
            SchedMode::random(42),
            SchedMode::pct(7, 3),
        ] {
            let (h1, d1) = run_once(&mode);
            let (h2, d2) = run_once(&mode);
            assert_eq!(h1, h2, "{} interleaving drifted", mode.policy_name());
            assert_eq!(d1, d2, "{} decision log drifted", mode.policy_name());
            assert!(!d1.is_empty());
        }
    }

    #[test]
    fn replay_reproduces_a_random_walk() {
        let random = SchedMode::random(1234);
        let (h1, decisions) = run_once(&random);
        let replay = SchedMode::replay(decisions.clone());
        let (h2, d2) = run_once(&replay);
        assert_eq!(h1, h2, "replay produced a different interleaving");
        assert_eq!(decisions, d2, "replay re-recorded a different log");
    }

    #[test]
    fn different_seeds_usually_differ() {
        // With three threads and nine yield points at least one of these
        // seeds must deviate from the virtual-time order.
        let (base, _) = run_once(&SchedMode::deterministic());
        let diverged = (0..8u64).any(|s| run_once(&SchedMode::random(s)).0 != base);
        assert!(diverged, "random walks never left the default order");
    }

    /// Blocks `t` on a condition nothing ever meets, which borrows a local
    /// that the thread overwrites the moment `block_until` returns. An
    /// evaluation outliving the park — the use-after-return that publishing
    /// a borrowed condition must rule out — reads the overwrite and sets
    /// `stale`. Returns whether the wait ended poisoned.
    fn block_forever(t: &SchedThread, vt: Ns, stale: &AtomicBool) -> bool {
        let canary = AtomicU64::new(0);
        let outcome = t.block_until(vt, || {
            if canary.load(Ordering::SeqCst) != 0 {
                stale.store(true, Ordering::SeqCst);
            }
            None::<()>
        });
        canary.store(u64::MAX, Ordering::SeqCst);
        matches!(outcome, BlockOutcome::Poisoned)
    }

    #[test]
    fn deadlock_poisons_instead_of_hanging() {
        let stale = AtomicBool::new(false);
        for _ in 0..1000 {
            let keys = vec![ThreadKey::app(HostId(0), 0), ThreadKey::app(HostId(0), 1)];
            let sched = Scheduler::new(&SchedMode::deterministic(), keys);
            let poisoned = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for lane in 0..2 {
                    let (sched, stale, poisoned) = (&sched, &stale, &poisoned);
                    scope.spawn(move || {
                        let t = sched.attach(ThreadKey::app(HostId(0), lane));
                        // Lane 1 first evaluates lane 0's parked condition
                        // a few times, then blocks for good as well.
                        for i in 0..u64::from(lane) * 3 {
                            t.action();
                            t.yield_now(i);
                        }
                        if block_forever(&t, 5, stale) {
                            poisoned.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            assert_eq!(poisoned.load(Ordering::SeqCst), 2);
        }
        assert!(!stale.load(Ordering::SeqCst), "evaluated after the return");
    }

    #[test]
    fn quiesce_runs_after_all_threads_block_or_finish() {
        let mode = SchedMode::deterministic();
        let sched = Scheduler::new(&mode, keys(1));
        let flag = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let sched_app = sched.clone();
            scope.spawn(move || {
                let t = sched_app.attach(ThreadKey::app(HostId(0), 0));
                t.yield_now(1);
                // App finishes; server stays blocked on the flag.
            });
            let sched_srv = sched.clone();
            let flag_srv = Arc::clone(&flag);
            scope.spawn(move || {
                let t = sched_srv.attach(ThreadKey::server(HostId(0)));
                match t.block_until(0, || {
                    let v = flag_srv.load(Ordering::Relaxed);
                    (v != 0).then_some(v)
                }) {
                    BlockOutcome::Ready(v) => assert_eq!(v, 9),
                    BlockOutcome::Poisoned => panic!("server poisoned"),
                }
            });
            // Main thread: wait for quiescence, then unblock the server
            // the way the cluster injects its shutdown messages.
            let flag_main = Arc::clone(&flag);
            sched.quiesce_then(move || {
                flag_main.store(9, Ordering::Relaxed);
            });
            sched.bump_action();
        });
    }

    /// Wake-ups are counted, not timed: `hosts` servers each parked in
    /// `block_until`, one application thread on host 0 taking `n` ×
    /// (`action` + `yield_now`). Returns the scheduling steps the loop
    /// took. An action names host 0, so each round re-dispatches host
    /// 0's server (one failed re-check) and the application thread
    /// again — two steps, however many other hosts are parked.
    fn steps_of_host0_actions(hosts: u16, n: u64) -> u64 {
        let mut keys: Vec<ThreadKey> = (0..hosts).map(|h| ThreadKey::server(HostId(h))).collect();
        keys.push(ThreadKey::app(HostId(0), 0));
        let sched = Scheduler::new(&SchedMode::deterministic(), keys);
        let done = AtomicBool::new(false);
        let mut steps = 0;
        std::thread::scope(|scope| {
            for h in 0..hosts {
                let (sched, done) = (&sched, &done);
                scope.spawn(move || {
                    let t = sched.attach(ThreadKey::server(HostId(h)));
                    let check = || done.load(Ordering::SeqCst).then_some(());
                    if let BlockOutcome::Poisoned = t.block_until(0, check) {
                        panic!("server {h} poisoned");
                    }
                });
            }
            let (sched, done, steps) = (&sched, &done, &mut steps);
            scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(0), 0));
                // Every server (virtual time 0) runs into its park first.
                t.yield_now(1);
                let before = sched.steps();
                for i in 0..n {
                    t.action();
                    t.yield_now(2 + i);
                }
                *steps = sched.steps() - before;
                // Dropping the handle wakes everyone to see `done`.
                done.store(true, Ordering::SeqCst);
            });
        });
        steps
    }

    #[test]
    fn a_host_action_wakes_only_that_host() {
        let n = 50;
        for hosts in [2, 8, 32] {
            assert_eq!(
                steps_of_host0_actions(hosts, n),
                2 * n,
                "{hosts} parked servers: steps per action must not grow with the host count"
            );
        }
    }

    /// A thread blocks on a flag of host 0; a peer wakes host 0 a hundred
    /// times and only then sets the flag. Every wake-up makes the parked
    /// slot a candidate and spends a step on it, but the peer evaluates
    /// the condition where it is: the owner is switched in once.
    #[test]
    fn a_parked_condition_is_evaluated_by_the_dispatcher() {
        let mode = SchedMode::deterministic();
        let keys = vec![ThreadKey::app(HostId(0), 0), ThreadKey::app(HostId(0), 1)];
        let sched = Scheduler::new(&mode, keys);
        let flag = AtomicBool::new(false);
        let evaluated_on = Mutex::new(Vec::new());
        let (owner, (peer, before)) = std::thread::scope(|scope| {
            let (sched, flag, evaluated_on) = (&sched, &flag, &evaluated_on);
            let owner = scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(0), 0));
                let set = || {
                    let met = flag.load(Ordering::SeqCst);
                    let me = std::thread::current().id();
                    evaluated_on.lock().unwrap().push((me, met));
                    met.then_some(())
                };
                assert!(matches!(t.block_until(0, set), BlockOutcome::Ready(())));
                std::thread::current().id()
            });
            let peer = scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(0), 1));
                // The owner (lane 0) went first and is parked by now.
                let before = sched.hand_offs();
                for i in 0..100 {
                    t.action();
                    t.yield_now(i);
                }
                flag.store(true, Ordering::SeqCst);
                t.action();
                t.yield_now(100);
                (std::thread::current().id(), before)
            });
            (owner.join().unwrap(), peer.join().unwrap())
        });
        let mut expected = vec![(owner, false)];
        expected.extend([(peer, false)].repeat(100));
        expected.extend([(peer, true), (owner, true)]);
        assert_eq!(*evaluated_on.lock().unwrap(), expected);
        // A hundred and one wake-ups, two switches: to the owner once its
        // flag is set, and back when it is done.
        assert_eq!(sched.hand_offs() - before, 2);
        // The decision log the parent commit (44d8230) records for this
        // toy, where every wake-up resumed the owner to fail its own check:
        // slot 0 then slot 1, once to start, once per wake-up, once to end.
        assert_eq!(mode.decisions(), [0, 1].repeat(102));
        assert_eq!(mode.hand_offs(), sched.hand_offs());
    }

    #[test]
    #[should_panic(expected = "wake for host 5 but the partition map covers 2 hosts")]
    fn waking_a_host_outside_the_partition_map_panics() {
        let sched = Scheduler::new(&SchedMode::deterministic(), two_host_keys());
        sched.bump_action_host(HostId(5));
    }

    fn two_host_keys() -> Vec<ThreadKey> {
        vec![
            ThreadKey::server(HostId(0)),
            ThreadKey::server(HostId(1)),
            ThreadKey::app(HostId(0), 0),
            ThreadKey::app(HostId(1), 0),
        ]
    }

    #[test]
    fn partitioned_threads_run_to_completion() {
        // Two partitions advancing through many short windows: every
        // thread must make all of its yields despite barrier round trips.
        let mode = SchedMode::deterministic();
        let sched = Scheduler::new_parallel(&mode, two_host_keys(), vec![0, 1], 2, 10);
        assert_eq!(sched.partitions(), 2);
        let done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for h in 0..2u16 {
                let sched_srv = sched.clone();
                scope.spawn(move || {
                    let mut t = sched_srv.attach(ThreadKey::server(HostId(h)));
                    t.finish();
                });
                let sched_app = sched.clone();
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let t = sched_app.attach(ThreadKey::app(HostId(h), 0));
                    for i in 0..50u64 {
                        // Strides differ per host so the partitions hit
                        // window edges at different times.
                        t.yield_now(i * (3 + u64::from(h)));
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 2);
        assert!(sched.steps() >= 100);
        // No total order exists across partitions: nothing recorded.
        assert!(mode.decisions().is_empty());
    }

    #[test]
    #[should_panic(expected = "sequential-only")]
    fn parallel_rejects_exploration_policies() {
        let _ = Scheduler::new_parallel(
            &SchedMode::random(1),
            two_host_keys(),
            vec![0, 1],
            2,
            12_000,
        );
    }

    #[test]
    fn partitioned_deadlock_poisons_globally() {
        let mode = SchedMode::deterministic();
        let sched = Scheduler::new_parallel(&mode, two_host_keys(), vec![0, 1], 2, 10);
        let poisoned = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for h in 0..2u16 {
                let sched_srv = sched.clone();
                scope.spawn(move || {
                    let mut t = sched_srv.attach(ThreadKey::server(HostId(h)));
                    t.finish();
                });
            }
            let sched_done = sched.clone();
            scope.spawn(move || {
                let t = sched_done.attach(ThreadKey::app(HostId(0), 0));
                t.yield_now(1);
            });
            let sched_stuck = sched.clone();
            let poisoned = Arc::clone(&poisoned);
            scope.spawn(move || {
                let t = sched_stuck.attach(ThreadKey::app(HostId(1), 0));
                if let BlockOutcome::Poisoned = t.block_until(0, || None::<()>) {
                    poisoned.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(poisoned.load(Ordering::Relaxed), 1);
    }

    /// One parked test message: destination host and the flag its
    /// release bumps.
    type TestPending = BTreeMap<(Ns, u64), (HostId, Arc<AtomicU64>)>;

    /// A miniature delivery gate: messages carry a release time and a
    /// destination flag to bump, standing in for the network fabric.
    struct TestGate {
        pending: Mutex<TestPending>,
        seq: AtomicU64,
    }

    impl TestGate {
        fn new() -> Self {
            Self {
                pending: Mutex::new(BTreeMap::new()),
                seq: AtomicU64::new(0),
            }
        }

        fn send(&self, release: Ns, to: HostId, flag: &Arc<AtomicU64>) {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            self.pending
                .lock()
                .unwrap()
                .insert((release, seq), (to, Arc::clone(flag)));
        }
    }

    impl DeliveryGate for TestGate {
        fn min_pending(&self, hosts: &[HostId]) -> Option<(Ns, HostId)> {
            self.pending
                .lock()
                .unwrap()
                .iter()
                .filter(|(_, (to, _))| hosts.contains(to))
                .map(|((r, _), (to, _))| (*r, *to))
                .min()
        }

        fn release_next(&self, host: HostId) {
            let mut p = self.pending.lock().unwrap();
            let key = p
                .iter()
                .filter(|(_, (to, _))| *to == host)
                .map(|(k, _)| *k)
                .next()
                .expect("release with nothing pending");
            let (_, flag) = p.remove(&key).unwrap();
            flag.fetch_add(1, Ordering::Relaxed);
        }

        fn flush_held(&self) -> Vec<HostId> {
            Vec::new()
        }
    }

    /// A cross-partition "message": host 0's app enqueues a gated
    /// delivery for host 1, whose server blocks on the flag it bumps.
    /// The delivery lands beyond the first window, so the server can
    /// only wake if the window barrier advances time and releases it.
    fn gated_handoff(workers: usize, map: Vec<usize>) {
        let mode = SchedMode::deterministic();
        let lookahead = 12;
        let sched = Scheduler::new_parallel(&mode, two_host_keys(), map, workers, lookahead);
        let gate = Arc::new(TestGate::new());
        sched.set_gate(Arc::clone(&gate) as Arc<dyn DeliveryGate>);
        let flag = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let sched_srv0 = sched.clone();
            scope.spawn(move || {
                let mut t = sched_srv0.attach(ThreadKey::server(HostId(0)));
                t.finish();
            });
            let sched_app1 = sched.clone();
            scope.spawn(move || {
                let mut t = sched_app1.attach(ThreadKey::app(HostId(1), 0));
                t.finish();
            });
            let sched_send = sched.clone();
            let gate_send = Arc::clone(&gate);
            let flag_send = Arc::clone(&flag);
            scope.spawn(move || {
                let t = sched_send.attach(ThreadKey::app(HostId(0), 0));
                t.yield_now(5);
                // "Send" at vt 5: released no earlier than 5 + lookahead.
                gate_send.send(5 + lookahead, HostId(1), &flag_send);
                t.yield_now(6);
            });
            let sched_recv = sched.clone();
            let flag_recv = Arc::clone(&flag);
            scope.spawn(move || {
                let t = sched_recv.attach(ThreadKey::server(HostId(1)));
                match t.block_until(0, || {
                    let v = flag_recv.load(Ordering::Relaxed);
                    (v > 0).then_some(v)
                }) {
                    BlockOutcome::Ready(v) => assert_eq!(v, 1),
                    BlockOutcome::Poisoned => panic!("gated delivery never released"),
                }
            });
        });
        assert_eq!(gate.min_pending(&[HostId(1)]), None, "gate drained");
    }

    #[test]
    fn gated_delivery_crosses_partitions() {
        gated_handoff(2, vec![0, 1]);
    }

    #[test]
    fn gated_delivery_works_single_partition() {
        gated_handoff(1, vec![0, 0]);
    }

    /// Host 0 sends host 1 twenty gated messages, one per window, while
    /// host 1's only live thread is parked on a flag no message sets. Each
    /// window barrier's first pick in host 1's partition is that slot —
    /// woken by the release, not ready — and the thread completing the
    /// barrier settles it on the spot: host 1's thread runs its condition
    /// when it blocks and when it is finally resumed, and never in between.
    #[test]
    fn a_barrier_pick_that_is_not_ready_resumes_nobody() {
        let mode = SchedMode::deterministic();
        let lookahead = 10;
        let sched = Scheduler::new_parallel(&mode, two_host_keys(), vec![0, 1], 2, lookahead);
        let gate = Arc::new(TestGate::new());
        sched.set_gate(Arc::clone(&gate) as Arc<dyn DeliveryGate>);
        let (delivered, done) = (Arc::new(AtomicU64::new(0)), AtomicBool::new(false));
        let evaluated_on = Mutex::new(Vec::new());
        let parked = std::thread::scope(|scope| {
            for h in 0..2 {
                let sched = &sched;
                scope.spawn(move || sched.attach(ThreadKey::server(HostId(h))).finish());
            }
            let (sched, gate, delivered) = (&sched, &gate, &delivered);
            let (done, evaluated_on) = (&done, &evaluated_on);
            scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(0), 0));
                for i in 1..=21 {
                    done.store(i == 21, Ordering::SeqCst);
                    gate.send(i * 2 * lookahead, HostId(1), delivered);
                    t.yield_now(i * 2 * lookahead);
                }
            });
            let parked = scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(1), 0));
                let check = || {
                    evaluated_on
                        .lock()
                        .unwrap()
                        .push(std::thread::current().id());
                    done.load(Ordering::SeqCst).then_some(())
                };
                assert!(matches!(t.block_until(0, check), BlockOutcome::Ready(())));
                std::thread::current().id()
            });
            parked.join().unwrap()
        });
        assert_eq!(delivered.load(Ordering::SeqCst), 21);
        let evaluated_on = evaluated_on.lock().unwrap();
        // Its own first and last, one per release, one for its host's
        // server finishing (which wakes everybody).
        assert_eq!(evaluated_on.len(), 2 + 21 + 1);
        let by_owner = evaluated_on.iter().filter(|&&id| id == parked).count();
        assert_eq!(
            by_owner, 2,
            "its thread was resumed for a pick that was not ready"
        );
    }

    /// The toy behind the passive-slot tests: every host has a server
    /// echoing pings out of an inbox; `None` in an inbox is the stop
    /// message.
    struct Echo {
        inboxes: Vec<Mutex<std::collections::VecDeque<Option<u16>>>>,
        replies: Vec<AtomicU64>,
    }

    impl Echo {
        fn new(hosts: u16) -> Arc<Self> {
            Arc::new(Self {
                inboxes: (0..hosts).map(|_| Mutex::default()).collect(),
                replies: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
            })
        }

        fn send(&self, sched: &Scheduler, to: u16, msg: Option<u16>) {
            self.inboxes[to as usize].lock().unwrap().push_back(msg);
            sched.bump_action_host(HostId(to));
        }

        /// One server step of host `g`: what a server thread does between
        /// two scheduling calls, and a passive server in one turn. Echoing
        /// wakes the pinger's host from inside the step, as a handler's
        /// reply delivery does.
        fn serve(&self, sched: &Scheduler, g: u16, vt: &mut Ns) -> Turn {
            let msg = self.inboxes[g as usize].lock().unwrap().pop_front();
            match msg {
                Some(Some(from)) => {
                    self.replies[from as usize].fetch_add(1, Ordering::SeqCst);
                    sched.bump_action_host(HostId(from));
                    *vt += 10;
                    Turn::Ran { vt: *vt }
                }
                Some(None) => Turn::Done,
                None => Turn::Idle { vt: *vt },
            }
        }

        fn passive_server(self: &Arc<Self>, sched: &Scheduler, g: u16) {
            let (echo, sched2, mut vt) = (Arc::clone(self), sched.clone(), 0);
            sched.attach_passive(
                ThreadKey::server(HostId(g)),
                Box::new(move || echo.serve(&sched2, g, &mut vt)),
            );
        }
    }

    fn server_app_keys(hosts: u16) -> Vec<ThreadKey> {
        (0..hosts)
            .map(|h| ThreadKey::server(HostId(h)))
            .chain((0..hosts).map(|h| ThreadKey::app(HostId(h), 0)))
            .collect()
    }

    /// How the toy's servers are registered, and how its pingers wait.
    #[derive(Clone, Copy, PartialEq)]
    enum EchoToy {
        /// Servers are OS threads written like the pre-passive server loop.
        ServerThreads,
        /// Servers are passive turns.
        Passive,
        /// Passive servers, and a ping is one `yield_then_block`.
        OnePark,
    }

    /// Every host's application thread pings the next host's server three
    /// times and waits for each echo; the main thread then stops the
    /// servers the way the cluster does. Returns the decision log.
    fn echo_decisions(mode: &SchedMode, hosts: u16, toy: EchoToy) -> Vec<u32> {
        let sched = Scheduler::new(mode, server_app_keys(hosts));
        let echo = Echo::new(hosts);
        std::thread::scope(|scope| {
            for g in 0..hosts {
                if toy != EchoToy::ServerThreads {
                    echo.passive_server(&sched, g);
                    continue;
                }
                let (sched, echo) = (&sched, &echo);
                scope.spawn(move || {
                    let t = sched.attach(ThreadKey::server(HostId(g)));
                    let mut vt = 0;
                    loop {
                        t.yield_now(vt);
                        // The condition only peeks; the message is taken
                        // and echoed once this thread holds the schedule.
                        let inbox = &echo.inboxes[g as usize];
                        let mail = || (!inbox.lock().unwrap().is_empty()).then_some(());
                        if let BlockOutcome::Poisoned = t.block_until(vt, mail) {
                            panic!("server {g} poisoned");
                        }
                        match echo.serve(sched, g, &mut vt) {
                            Turn::Ran { .. } => t.action(),
                            _ => break,
                        }
                    }
                });
            }
            for h in 0..hosts {
                let (sched, echo) = (&sched, &echo);
                scope.spawn(move || {
                    let t = sched.attach(ThreadKey::app(HostId(h), 0));
                    let mut vt = 0;
                    for round in 1..=3 {
                        vt += 7 + u64::from(h);
                        echo.send(sched, (h + 1) % hosts, Some(h));
                        let echoed = || {
                            (echo.replies[h as usize].load(Ordering::SeqCst) >= round).then_some(())
                        };
                        let outcome = if toy == EchoToy::OnePark {
                            t.yield_then_block(vt, echoed)
                        } else {
                            t.yield_now(vt);
                            t.block_until(vt, echoed)
                        };
                        if let BlockOutcome::Poisoned = outcome {
                            panic!("host {h} poisoned in round {round}");
                        }
                    }
                });
            }
            sched.quiesce_then(|| (0..hosts).for_each(|g| echo.send(&sched, g, None)));
        });
        mode.decisions()
    }

    /// Every host's application thread pings the next host's passive echo
    /// server three times, waiting for each echo, and finishes.
    fn ping_around(sched: &Scheduler, hosts: u16) -> Arc<Echo> {
        let echo = Echo::new(hosts);
        (0..hosts).for_each(|g| echo.passive_server(sched, g));
        std::thread::scope(|scope| {
            for h in 0..hosts {
                let echo = &echo;
                scope.spawn(move || {
                    let t = sched.attach(ThreadKey::app(HostId(h), 0));
                    for round in 1..=3 {
                        echo.send(sched, (h + 1) % hosts, Some(h));
                        let echoed = || {
                            (echo.replies[h as usize].load(Ordering::SeqCst) >= round).then_some(())
                        };
                        let outcome = t.yield_then_block(10 * round, echoed);
                        assert!(matches!(outcome, BlockOutcome::Ready(())));
                    }
                });
            }
        });
        echo
    }

    /// The scheduler keeps its decisions to itself while it runs; the mode
    /// holds all of them once the run is quiescent — before the scheduler
    /// drops, and again after `quiesce_then` ran more turns, as the two
    /// parts one after the other. A partitioned run records nothing.
    #[test]
    fn the_decision_log_is_whole_once_the_run_is_quiescent() {
        let mode = SchedMode::deterministic();
        let sched = Scheduler::new(&mode, server_app_keys(2));
        let echo = ping_around(&sched, 2);
        let first = mode.decisions();
        assert!(!first.is_empty());
        assert_eq!(
            first.len() as u64,
            sched.steps(),
            "whole at the idle verdict"
        );
        sched.quiesce_then(|| (0..2).for_each(|g| echo.send(&sched, g, None)));
        let all = mode.decisions();
        assert_eq!(
            all.len() as u64,
            sched.steps(),
            "whole after the shutdown turns"
        );
        assert!(all.len() > first.len());
        assert_eq!(
            all[..first.len()],
            first[..],
            "the later turns are appended"
        );

        let mode = SchedMode::deterministic();
        let sched = Scheduler::new_parallel(&mode, server_app_keys(2), vec![0, 1], 2, 10);
        let echo = ping_around(&sched, 2);
        sched.quiesce_then(|| (0..2).for_each(|g| echo.send(&sched, g, None)));
        assert!(sched.steps() > 0);
        assert!(
            mode.decisions().is_empty(),
            "no total order across partitions"
        );
    }

    #[test]
    fn passive_servers_take_the_schedule_server_threads_took() {
        for hosts in [1, 4, 32] {
            for mode in [
                SchedMode::deterministic(),
                SchedMode::random(11),
                SchedMode::pct(11, 3),
            ] {
                let threads = echo_decisions(&mode, hosts, EchoToy::ServerThreads);
                assert!(threads.len() >= 2 * hosts as usize, "every slot is picked");
                for toy in [EchoToy::Passive, EchoToy::OnePark] {
                    assert_eq!(
                        threads,
                        echo_decisions(&mode, hosts, toy),
                        "{hosts} hosts, {}: decision logs differ",
                        mode.policy_name()
                    );
                }
            }
        }
    }

    /// 64 application threads over 64 passive echo servers, each thread a
    /// seeded mix of everything that moves a slot in or out of the
    /// candidate set: yields at virtual times that jump back and forth,
    /// waits (as one park and as two) on an echo from a random host, wakes
    /// of a random host and of every host, and — the operation counts
    /// differ — threads finishing while others run. Returns the decision
    /// log.
    fn churn_decisions(mode: &SchedMode) -> Vec<u32> {
        const HOSTS: u16 = 64;
        let sched = Scheduler::new(mode, server_app_keys(HOSTS));
        let echo = Echo::new(HOSTS);
        std::thread::scope(|scope| {
            for h in 0..HOSTS {
                echo.passive_server(&sched, h);
                let (sched, echo) = (&sched, &echo);
                scope.spawn(move || {
                    let t = sched.attach(ThreadKey::app(HostId(h), 0));
                    let mut rng = SplitMix64::new(20).fork(u64::from(h));
                    let mut pings = 0;
                    for _ in 0..4 + rng.next_range(36) {
                        let vt = rng.next_range(500);
                        let op = rng.next_range(6);
                        let other = rng.next_range(u64::from(HOSTS)) as u16;
                        match op {
                            0 => {}
                            1 => sched.bump_action_host(HostId(other)),
                            2 => sched.bump_action(),
                            _ => {
                                pings += 1;
                                echo.send(sched, other, Some(h));
                                let echoed = || {
                                    (echo.replies[h as usize].load(Ordering::SeqCst) >= pings)
                                        .then_some(())
                                };
                                let outcome = match op {
                                    3 => t.yield_then_block(vt, echoed),
                                    _ => t.block_until(vt, echoed),
                                };
                                assert!(matches!(outcome, BlockOutcome::Ready(())));
                                continue;
                            }
                        }
                        t.yield_now(vt);
                    }
                });
            }
            sched.quiesce_then(|| (0..HOSTS).for_each(|g| echo.send(&sched, g, None)));
        });
        mode.decisions()
    }

    /// The decision logs the scanning dispatcher of commit 2cc6fc5 took on
    /// the churn toy, as `(decisions, SHA-256 of their little-endian
    /// bytes)`: the candidate index must name the same slot at every step,
    /// under the policy that reads its minimum and under the two that read
    /// its membership.
    #[test]
    fn the_index_is_the_scan() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let mut moved = Vec::new();
        for (mode, len, pin) in [
            (
                SchedMode::deterministic(),
                19682,
                "eed5d92e63898b03f49dd48c02e0d3fee3b25681fc09cd8aa5549dae41154e67",
            ),
            (
                SchedMode::random(7),
                5410,
                "677862312c100cff646991233001dd4816ecb6cfb8df60fe44161ed43d323f62",
            ),
            (
                SchedMode::pct(7, 3),
                20835,
                "a1b2f1bd6a4090f35775779657e4fd2b9e2111b84551c8775b892af9305aa866",
            ),
        ] {
            let decisions = churn_decisions(&mode);
            let bytes: Vec<u8> = decisions.iter().flat_map(|d| d.to_le_bytes()).collect();
            let got = (decisions.len(), sha256_hex(&bytes));
            if got != (len, pin.to_string()) {
                moved.push(format!("{}: {got:?}", mode.policy_name()));
            }
        }
        assert!(moved.is_empty(), "schedules moved:\n{}", moved.join("\n"));
    }

    /// FIPS 180-4 SHA-256 as lowercase hex (the implementation
    /// `tests/parallel_sim.rs` holds the test vectors of).
    fn sha256_hex(data: &[u8]) -> String {
        const K: [u32; 64] = [
            0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
            0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
            0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
            0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
            0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
            0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
            0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
            0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
            0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
            0xc67178f2,
        ];
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, c) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(c.try_into().unwrap());
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let t2 = s0.wrapping_add((a & b) ^ (a & c) ^ (b & c));
                (hh, g, f, e, d, c, b, a) =
                    (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
            }
            for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
                *s = s.wrapping_add(v);
            }
        }
        h.iter().map(|x| format!("{x:08x}")).collect()
    }

    #[test]
    fn deadlock_beside_idle_passive_servers_is_still_a_verdict() {
        let sched = Scheduler::new(&SchedMode::deterministic(), server_app_keys(2));
        let echo = Echo::new(2);
        echo.passive_server(&sched, 0);
        echo.passive_server(&sched, 1);
        let poisoned = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let (sched, poisoned) = (&sched, &poisoned);
            scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(0), 0));
                t.yield_now(1);
            });
            scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(1), 0));
                if let BlockOutcome::Poisoned = t.block_until(0, || None::<()>) {
                    poisoned.fetch_add(1, Ordering::SeqCst);
                }
            });
        });
        assert_eq!(poisoned.load(Ordering::SeqCst), 1);
        assert!(sched.take_turn_panic().is_none());
    }

    #[test]
    fn quiesce_drives_leftover_passive_slots_from_the_calling_thread() {
        let sched = Scheduler::new(&SchedMode::deterministic(), server_app_keys(2));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        for g in 0..2 {
            let (ran_on, stop) = (Arc::clone(&ran_on), Arc::clone(&stop));
            sched.attach_passive(
                ThreadKey::server(HostId(g)),
                Box::new(move || {
                    if !stop.load(Ordering::SeqCst) {
                        return Turn::Idle { vt: 0 };
                    }
                    ran_on.lock().unwrap().push(std::thread::current().id());
                    Turn::Done
                }),
            );
        }
        std::thread::scope(|scope| {
            for h in 0..2 {
                let sched = &sched;
                scope.spawn(move || sched.attach(ThreadKey::app(HostId(h), 0)).yield_now(3));
            }
        });
        // Every application thread is gone; only this thread can run the
        // servers' last turns.
        sched.quiesce_then(|| {
            stop.store(true, Ordering::SeqCst);
            sched.bump_action_host(HostId(0));
            sched.bump_action_host(HostId(1));
        });
        let me = std::thread::current().id();
        assert_eq!(*ran_on.lock().unwrap(), vec![me, me]);
        // Both slots are Done: nothing is left to dispatch, ever.
        let steps = sched.steps();
        sched.bump_action();
        assert_eq!(sched.steps(), steps);
    }

    /// Per host, what its application thread and its passive server saw:
    /// the server's turns as `(virtual time after the turn, thread that
    /// ran it)`, and the application thread's own id.
    type WindowLog = Vec<(Vec<(Ns, std::thread::ThreadId)>, std::thread::ThreadId)>;

    /// Two hosts, each pinging its own server twice. The first echo puts
    /// the server at virtual time 25 and the application thread waits at
    /// 40, so the window that opens at 25 starts, in both hosts'
    /// partitions, with a passive pick.
    fn windows_opening_on_passive_turns(map: Vec<usize>, workers: usize) -> WindowLog {
        let sched = Scheduler::new_parallel(
            &SchedMode::deterministic(),
            server_app_keys(2),
            map,
            workers,
            10,
        );
        let echo = Echo::new(2);
        let turns = Arc::new([Mutex::new(Vec::new()), Mutex::new(Vec::new())]);
        for g in 0..2u16 {
            let (echo, sched2, turns, mut vt) =
                (Arc::clone(&echo), sched.clone(), Arc::clone(&turns), 15);
            sched.attach_passive(
                ThreadKey::server(HostId(g)),
                Box::new(move || {
                    let turn = echo.serve(&sched2, g, &mut vt);
                    if let Turn::Ran { vt } = turn {
                        turns[g as usize]
                            .lock()
                            .unwrap()
                            .push((vt, std::thread::current().id()));
                    }
                    turn
                }),
            );
        }
        let apps: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u16)
                .map(|h| {
                    let (sched, echo) = (&sched, &echo);
                    scope.spawn(move || {
                        let t = sched.attach(ThreadKey::app(HostId(h), 0));
                        echo.send(sched, h, Some(h));
                        echo.send(sched, h, Some(h));
                        let echoed =
                            || (echo.replies[h as usize].load(Ordering::SeqCst) == 2).then_some(());
                        if let BlockOutcome::Poisoned = t.block_until(40, echoed) {
                            panic!("host {h} poisoned");
                        }
                        std::thread::current().id()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        sched.quiesce_then(|| (0..2).for_each(|g| echo.send(&sched, g, None)));
        (0..2)
            .map(|h| (turns[h].lock().unwrap().clone(), apps[h]))
            .collect()
    }

    #[test]
    fn a_window_opening_on_passive_turns_runs_each_in_its_own_partition() {
        let one = windows_opening_on_passive_turns(vec![0, 0], 1);
        // Partition timing is up to the OS; the property must hold however
        // the barrier arrivals interleave.
        for _ in 0..20 {
            let two = windows_opening_on_passive_turns(vec![0, 1], 2);
            for (h, (turns, app)) in two.iter().enumerate() {
                let vts: Vec<Ns> = turns.iter().map(|t| t.0).collect();
                assert_eq!(vts, [25, 35], "host {h}: both pings echoed, one per window");
                assert!(
                    turns.iter().all(|t| t.1 == *app),
                    "host {h}: a handler ran outside its partition's live thread"
                );
                let one_vts: Vec<Ns> = one[h].0.iter().map(|t| t.0).collect();
                assert_eq!(vts, one_vts, "host {h}: window parity");
            }
        }
    }

    #[test]
    fn a_panicking_turn_poisons_the_run_and_keeps_its_payload() {
        let stale = AtomicBool::new(false);
        for _ in 0..1000 {
            let started = std::time::Instant::now();
            let keys = vec![
                ThreadKey::server(HostId(0)),
                ThreadKey::app(HostId(0), 0),
                ThreadKey::app(HostId(0), 1),
            ];
            let sched = Scheduler::new(&SchedMode::deterministic(), keys);
            sched.attach_passive(
                ThreadKey::server(HostId(0)),
                Box::new(|| std::panic::panic_any("planted handler bug")),
            );
            let poisoned = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for lane in 0..2 {
                    let (sched, stale, poisoned) = (&sched, &stale, &poisoned);
                    scope.spawn(move || {
                        let t = sched.attach(ThreadKey::app(HostId(0), lane));
                        if block_forever(&t, 5, stale) {
                            poisoned.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            assert_eq!(poisoned.load(Ordering::SeqCst), 2);
            let payload = sched.take_turn_panic().expect("the turn's payload is kept");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"planted handler bug"));
            assert!(sched.take_turn_panic().is_none(), "handed out once");
            assert!(started.elapsed() < std::time::Duration::from_secs(1));
        }
        assert!(!stale.load(Ordering::SeqCst), "evaluated after the return");
    }

    /// The race the condition pointer's safety argument is about: host 0's
    /// second thread keeps evaluating the parked first one's condition
    /// while, in the other partition, a handler panics and the poisoning
    /// wakes the parked thread. Its return must wait out an evaluation in
    /// progress.
    #[test]
    fn a_poisoned_owner_never_returns_under_an_evaluation() {
        let stale = AtomicBool::new(false);
        for _ in 0..1000 {
            let keys = vec![
                ThreadKey::app(HostId(0), 0),
                ThreadKey::app(HostId(0), 1),
                ThreadKey::server(HostId(1)),
                ThreadKey::app(HostId(1), 0),
            ];
            let mode = SchedMode::deterministic();
            let sched = Scheduler::new_parallel(&mode, keys, vec![0, 1], 2, 1000);
            sched.attach_passive(
                ThreadKey::server(HostId(1)),
                Box::new(|| std::panic::panic_any("planted handler bug")),
            );
            let poisoned = std::thread::scope(|scope| {
                let (sched, stale) = (&sched, &stale);
                let parked = scope.spawn(move || {
                    let t = sched.attach(ThreadKey::app(HostId(0), 0));
                    block_forever(&t, 0, stale)
                });
                scope.spawn(move || {
                    let t = sched.attach(ThreadKey::app(HostId(0), 1));
                    for _ in 0..300 {
                        t.action();
                        t.yield_now(0);
                    }
                });
                // Yielding past the server's virtual time runs its turn.
                scope.spawn(move || sched.attach(ThreadKey::app(HostId(1), 0)).yield_now(5));
                parked.join().unwrap()
            });
            assert!(poisoned);
            assert!(sched.take_turn_panic().is_some());
        }
        assert!(!stale.load(Ordering::SeqCst), "evaluated after the return");
    }

    #[test]
    fn default_map_is_contiguous_and_balanced() {
        let m = ParallelConfig::default_map(8, 4);
        assert_eq!(m, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let m = ParallelConfig::default_map(5, 2);
        assert_eq!(m, vec![0, 0, 0, 1, 1]);
        // Never names a worker out of range, even degenerate shapes.
        for hosts in 1..20 {
            for workers in 1..10 {
                for (h, w) in ParallelConfig::default_map(hosts, workers)
                    .iter()
                    .enumerate()
                {
                    assert!(*w < workers, "hosts={hosts} workers={workers} h={h}");
                }
            }
        }
    }

    #[test]
    fn empty_partitions_are_compacted() {
        // Map everything to worker 3 of 4: one real partition.
        let mode = SchedMode::deterministic();
        let sched = Scheduler::new_parallel(&mode, two_host_keys(), vec![3, 3], 4, 10);
        assert_eq!(sched.partitions(), 1);
    }
}
