//! Cooperative deterministic scheduling of simulated threads.
//!
//! Every simulated thread — each host's application threads and its DSM
//! server — is a *slot* of the run's [`Scheduler`]: control changes hands
//! only at explicit *yield points* (message send/receive, fault entry,
//! blocking rendezvous), exactly one slot runs at a time, and the next one
//! is picked by a deterministic [`SchedPolicy`], never by the OS. A policy
//! and seed map to exactly one interleaving — message arrival order,
//! directory state transitions, the recorded trace — which is what makes a
//! run repeat and schedule *exploration* (random-walk / PCT search over
//! interleavings, with replayable minimal reproducers) possible at all.
//!
//! # Threads and passive slots
//!
//! Only a slot that must keep a stack between yield points needs an OS
//! thread: an application thread, parked on its own condvar while it does
//! not hold the schedule ([`Scheduler::attach`]). A DSM server keeps
//! nothing between two messages, so it is a **passive slot**
//! ([`Scheduler::attach_passive`]): a boxed [`Turn`] function and no
//! thread. When the policy picks a passive slot, the thread that is giving
//! up the schedule — in `yield_now`, `block_until`, `finish`, or an
//! unscheduled caller that finds the run quiescent
//! ([`Scheduler::bump_action`], [`Scheduler::quiesce_then`]) — runs the
//! turn to completion itself and dispatches again, until the pick is a
//! thread (possibly itself: no switch at all). A passive slot is
//! otherwise a slot like any other — same index, `(virtual time, key)`
//! tie-break, candidate rule and decision-log entry — so schedules do not
//! depend on how a slot is registered. The rules that keep this sound:
//!
//! * **No scheduler lock is held across a turn.** Handlers deliver
//!   messages, and deliveries wake hosts under the scheduler lock.
//!   `dispatch_in` only installs the pick; its caller unlocks, runs the
//!   turn, re-locks, applies the outcome.
//! * **Whoever dispatches drives.** Every caller of `dispatch_in` goes
//!   through the same loop (`drive`); there is no second dispatcher for
//!   passive slots.
//! * **A panicking turn ends the run.** The panic is caught around the
//!   turn, the slot retired, the scheduler poisoned (every parked thread
//!   returns [`BlockOutcome::Poisoned`]) and the payload kept for the
//!   run's owner ([`Scheduler::take_turn_panic`]) — it is not the failure
//!   of the thread that happened to be driving, and the schedule is never
//!   left resting on a slot nobody can run.
//!
//! # Virtual-time order across the wire
//!
//! Under the canonical [`SchedPolicy::VirtualTime`] policy cross-host
//! message delivery is **gated** (see [`DeliveryGate`]): a send parks the
//! packet in the destination's mailbox keyed by its release time, and the
//! dispatch loop delivers it exactly when the canonical virtual-time order
//! reaches it — before any runnable thread with a later (or equal) virtual
//! time. The exploration policies perturb that order on purpose, so their
//! deliveries are immediate. When nothing is runnable and nothing is
//! parked the run is quiescent: fault-held packets are flushed, and only
//! then is the run ruled idle or deadlocked.
//!
//! Design notes:
//!
//! * **Wake-ups name a host.** Blocking conditions live in the protocol
//!   layer and are not told about the scheduler, but there are exactly
//!   two of them and both are host-local state: host *h*'s server waits
//!   on *h*'s inbox, and an application thread of *h* waits on a
//!   rendezvous in *h*'s waiter table. So the scheduler keeps one *wake
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
//! * **The candidate set is kept, not recomputed.** The scheduler holds
//!   an ordered index, `(virtual time, key, slot)` of exactly the slots
//!   that may be scheduled, so the canonical pick is its first entry and a
//!   scheduling step costs O(log slots) however many threads are parked.
//!   The invariant — index = {slots `is_candidate` holds for} whenever the
//!   scheduler lock is released — lives in one place: every write to a
//!   slot's `vt`/`status` or to a wake generation goes through `State`
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
//!   the condition under the scheduler lock: unmet, the slot is blocked
//!   again and the loop picks on, no OS thread woken; met, the owner is
//!   resumed — once per wait — and its own confirming call returns the
//!   value. The schedule is the one in which every woken thread ran its
//!   own re-check; only the switches are gone. **The condition contract,
//!   and the rule for adding a third blocking condition:** it is `Send`
//!   and so is its value; it is pure, answering `Some` or `None`; it
//!   never calls the scheduler; it takes only leaf locks that no mutator
//!   holds while waking a host (lock order: scheduler → {gate,
//!   condition}); and every mutator of the state it reads wakes the host
//!   owning the blocked thread — state with no owning host wakes everyone.
//! * **Handler atomicity.** A DSM server handles one message per
//!   scheduling step — one [`Turn`]: the dispatch boundary *is* the yield
//!   point, and everything inside a handler (window open/close, directory
//!   updates, reply sends) is atomic with respect to other simulated
//!   threads — exactly as in the real system, where a handler runs to
//!   completion as an upcall of whichever thread found the message.
//! * **Deadlock is a verdict, not a hang.** If no thread is runnable, no
//!   gated packet is pending, and an application thread is still blocked,
//!   the schedule deadlocked: the scheduler poisons itself, every blocked
//!   thread returns [`BlockOutcome::Poisoned`], and the run terminates
//!   with typed errors instead of hanging — a deadlocking schedule is a
//!   *finding* for the exploration harness.

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
    /// "means". The only policy that gates cross-host deliveries.
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
    /// Empty before any run. Feed it to [`SchedMode::replay`] to reproduce
    /// the run.
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
/// maximum), and the dispatch loop *releases* packets in `(release,
/// source)` order exactly when the canonical virtual-time order reaches
/// them. Every method runs under the scheduler lock and may take only leaf
/// locks (lock order: scheduler → gate).
pub trait DeliveryGate: Send + Sync {
    /// The earliest pending release as `(release virtual time,
    /// destination)`, the lowest host winning a tie; `None` when nothing
    /// is pending. Called once per iteration of the dispatch loop; must be
    /// cheap — the fabric reads one atomic head mirror per host.
    fn min_pending(&self) -> Option<(Ns, HostId)>;

    /// Delivers the minimum pending packet for `host`: its receiver takes
    /// it after everything delivered before. Must not re-enter the
    /// scheduler (the caller wakes `host` itself).
    fn release_next(&self, host: HostId);

    /// Delivers every fault-held (reorder-in-flight) packet, returning
    /// the destination host of each delivered packet. Called only when the
    /// run is quiescent — the gated replacement for the receiver-driven
    /// rescue poll.
    fn flush_held(&self) -> Vec<HostId>;
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
    /// Whether the slot is filed in [`State::candidates`].
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
    /// Evaluates the condition; the caller holds the scheduler lock.
    fn holds(&mut self) -> bool {
        // SAFETY: a `Cond` exists only in its owner's slot and between the
        // two assignments in `park_on`, both made under the scheduler lock
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
    /// `None` while the turn runs (the scheduler lock is released then).
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

/// The scheduler's mutable state: the slots of every simulated thread and
/// the one-running-thread-at-a-time discipline, all under one mutex.
struct State {
    slots: Vec<Slot>,
    /// `(vt, key, slot)` of exactly the slots [`is_candidate`] holds for,
    /// whenever the scheduler lock is free: its minimum is the canonical
    /// pick. Kept so by [`State::set`], [`State::wake`] and
    /// [`State::wake_all`], the only writers of a slot's `vt` or `status`
    /// and of `wakes`.
    candidates: BTreeSet<(Ns, ThreadKey, usize)>,
    /// The slots of each host, indexed like `wakes`.
    host_slots: Vec<Vec<usize>>,
    /// The one slot currently allowed to run, if any. With the lock free,
    /// `None` in a started run means the run is quiescent.
    running: Option<usize>,
    /// The thread slot picked last: a different one is a hand-off.
    last_thread: Option<usize>,
    /// Wake generation per host (see module docs).
    wakes: Vec<u64>,
    /// Whether every slot has attached; nothing is dispatched before.
    started: bool,
    /// A wake of every host ([`SchedThread::action_all`]) that is applied
    /// once more when the run next goes quiescent, before any verdict.
    wake_all_pending: bool,
    steps: u64,
    /// The decisions since the log was last handed to the mode (see
    /// [`State::flush_log`]).
    log: Vec<u32>,
    policy: PolicyState,
}

impl State {
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
    /// thread re-checks.
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

    /// Hands the decisions taken since the last call to the mode's log
    /// `to`: moved in whole while that log is empty, appended to it after
    /// that — one buffer either way, never a copy of the whole run.
    fn flush_log(&mut self, to: &Mutex<Vec<u32>>) {
        if self.log.is_empty() {
            return;
        }
        let mut log = lock(to);
        if log.is_empty() {
            std::mem::swap(&mut *log, &mut self.log);
        } else {
            log.append(&mut self.log);
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// One condvar per slot: a dispatch notifies exactly the picked
    /// thread, never every parked one.
    cvs: Vec<Condvar>,
    /// Signalled when the run goes idle or poisons; what
    /// [`Scheduler::quiesce_then`] waits on.
    main_cv: Condvar,
    poisoned: AtomicBool,
    /// Payload of the first passive turn that panicked (the run is
    /// poisoned with it); [`Scheduler::take_turn_panic`] hands it out.
    turn_panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Set while an unregistered external actor (the cluster's main
    /// thread, delivering shutdowns) runs inside a quiescent run;
    /// suppresses dispatches from its action bumps and bypasses the
    /// delivery gate.
    external: AtomicBool,
    /// Whether cross-host deliveries are gated (virtual-time policy).
    gating: bool,
    gate: OnceLock<Arc<dyn DeliveryGate>>,
    /// The mode's decision log, which the scheduler's own log is handed
    /// to at every quiescence verdict and on drop.
    log: Arc<Mutex<Vec<u32>>>,
    /// See [`Scheduler::hand_offs`]; shared with the mode like the log.
    hand_offs: Arc<AtomicU64>,
}

/// The run-wide deterministic scheduler handle. Cloning shares the
/// scheduler.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheduler({} slots)", self.inner.cvs.len())
    }
}

impl Scheduler {
    /// Builds the scheduler for the thread set named by `keys` under
    /// `mode`'s policy. The slot order of `keys` defines the decision-log
    /// numbering, so callers must build it deterministically (the cluster
    /// enumerates servers then application threads in host order).
    pub fn new(mode: &SchedMode, keys: Vec<ThreadKey>) -> Self {
        assert!(!keys.is_empty(), "a scheduler with no threads");
        let hosts = keys.iter().map(|k| k.host.index() + 1).max().unwrap_or(1);
        // Freed, not cleared: the scheduler's log is swapped in whole.
        *lock(&mode.log) = Vec::new();
        mode.hand_offs.store(0, Ordering::Relaxed);
        let policy = match &mode.policy {
            SchedPolicy::VirtualTime => PolicyState::VirtualTime,
            SchedPolicy::Random { seed } => PolicyState::Random {
                rng: SplitMix64::new(*seed),
            },
            SchedPolicy::Pct { seed, depth } => {
                let mut rng = SplitMix64::new(*seed);
                // High bit set: every initial priority sits above every
                // demotion value, and demotions stay mutually distinct.
                let prios = keys.iter().map(|_| rng.next_u64() | (1 << 63)).collect();
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
        let mut host_slots = vec![Vec::new(); hosts];
        for (i, key) in keys.iter().enumerate() {
            host_slots[key.host.index()].push(i);
        }
        let candidates = keys.iter().enumerate().map(|(i, &k)| (0, k, i)).collect();
        let cvs = keys.iter().map(|_| Condvar::new()).collect();
        let slots = keys
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
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    slots,
                    candidates,
                    host_slots,
                    running: None,
                    last_thread: None,
                    wakes: vec![0; hosts],
                    started: false,
                    wake_all_pending: false,
                    steps: 0,
                    log: Vec::new(),
                    policy,
                }),
                cvs,
                main_cv: Condvar::new(),
                poisoned: AtomicBool::new(false),
                turn_panic: Mutex::new(None),
                external: AtomicBool::new(false),
                gating: matches!(mode.policy, SchedPolicy::VirtualTime),
                gate: OnceLock::new(),
                log: Arc::clone(&mode.log),
                hand_offs: Arc::clone(&mode.hand_offs),
            }),
        }
    }

    /// Whether cross-host deliveries must be gated: the canonical
    /// virtual-time policy. The network fabric keys its delivery path off
    /// this.
    pub fn gating(&self) -> bool {
        self.inner.gating
    }

    /// Whether an external (unscheduled) actor currently runs inside a
    /// quiescent run; the fabric then delivers directly instead of
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
        let id = register(inner, key, None);
        drop(park_until_running(inner, lock(&inner.state), id));
        SchedThread {
            inner: Arc::clone(inner),
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

    /// Wakes every host from *any* thread (registered or not) and, when
    /// the run is quiescent, re-examines it on the calling thread: called
    /// on deliveries in ungated (exploration-policy) mode and by external
    /// actors that made progress possible. A scheduled thread has
    /// [`SchedThread::action`] for its own host.
    pub fn bump_action(&self) {
        let inner = &self.inner;
        let mut ps = lock(&inner.state);
        ps.wake_all();
        if ps.started && ps.running.is_none() && !inner.external.load(Ordering::Acquire) {
            drive(inner, ps, Verdict::Quiet, None);
        }
    }

    /// Wakes `host` only: a delivery or handler effect whose observers
    /// all live on that host. It never needs to re-dispatch, because the
    /// caller is the running scheduled thread (or an external actor inside
    /// [`Scheduler::quiesce_then`], whose re-examination happens when it
    /// returns).
    pub fn bump_action_host(&self, host: HostId) {
        lock(&self.inner.state).wake(host);
    }

    /// Waits until the whole simulation is quiescent (every thread done
    /// or blocked with nothing runnable and nothing in flight), then runs
    /// `f` with dispatching suppressed, then re-examines whatever `f`'s
    /// actions made runnable. This is how the cluster's (unscheduled)
    /// main thread injects its shutdown messages without racing the
    /// scheduled world.
    pub fn quiesce_then(&self, f: impl FnOnce()) {
        let inner = &self.inner;
        let mut ps = lock(&inner.state);
        while !(inner.poisoned.load(Ordering::Acquire) || (ps.started && ps.running.is_none())) {
            ps = wait(&inner.main_cv, ps);
        }
        inner.external.store(true, Ordering::Release);
        drop(ps);
        f();
        let ps = lock(&inner.state);
        inner.external.store(false, Ordering::Release);
        // With every application thread gone this thread is the only one
        // left to run what `f` made runnable (the servers' last turns).
        drive(inner, ps, Verdict::Quiet, None);
    }

    /// Number of scheduling decisions taken so far.
    pub fn steps(&self) -> u64 {
        lock(&self.inner.state).steps
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
    id: usize,
    finished: bool,
}

impl SchedThread {
    /// A cooperative yield point: records the thread's current virtual
    /// time, lets the policy pick the next thread (possibly this one
    /// again), and returns when this thread is picked again.
    pub fn yield_now(&self, vt: Ns) {
        let inner = &self.inner;
        let mut ps = lock(&inner.state);
        if inner.poisoned.load(Ordering::Acquire) {
            return;
        }
        debug_assert_eq!(ps.running, Some(self.id), "yield from a paused thread");
        ps.set(self.id, vt, Status::Runnable);
        drop(hand_off(inner, self.id, ps));
    }

    /// Wakes the caller's own host: it just did something that may have
    /// unblocked a peer there (fulfilled a waiter, mutated protocol
    /// state) outside the network-delivery hook.
    pub fn action(&self) {
        let mut ps = lock(&self.inner.state);
        let host = ps.slots[self.id].key.host;
        ps.wake(host);
    }

    /// Wakes every host of the run: the caller mutated state that
    /// threads of *any* host may be blocked on (the cluster failing every
    /// host's pending waits). Every blocked thread re-checks at once, and
    /// once more when the run next goes quiescent, before it can be ruled
    /// idle or deadlocked.
    pub fn action_all(&self) {
        let mut ps = lock(&self.inner.state);
        ps.wake_all();
        ps.wake_all_pending = true;
    }

    /// Blocks until `check` produces a value, yielding to other threads
    /// while the condition is unmet. `vt` is the block-entry virtual time
    /// used for the policy's tie-break while parked. The caller checks once
    /// itself and never parks on a condition already met; after that
    /// `check` runs under the scheduler lock *on whichever thread
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
            let ps = lock(&inner.state);
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
    /// scheduler lock.
    fn park_on(&self, vt: Ns, status: Status, check: &mut CondFn<'_>) -> bool {
        let inner = &self.inner;
        let mut ps = lock(&inner.state);
        if inner.poisoned.load(Ordering::Acquire) {
            return false;
        }
        let check: *mut CondFn<'_> = check;
        // SAFETY: only the trait object's lifetime bound changes, which has
        // no representation; `Cond::holds` argues that no use outlives it.
        let check = unsafe { std::mem::transmute::<*mut CondFn<'_>, *mut CondFn<'static>>(check) };
        ps.set(self.id, vt, status);
        ps.slots[self.id].cond = Some(Cond(check));
        let mut ps = hand_off(inner, self.id, ps);
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
        let mut ps = lock(&inner.state);
        ps.set_status(self.id, Status::Done);
        // Finishing names no host: whatever this thread released on its
        // way out, every blocked thread re-checks once.
        ps.wake_all();
        if inner.poisoned.load(Ordering::Acquire) {
            return;
        }
        relinquish(inner, self.id, ps);
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

/// Thread slot `me` gives up the schedule and parks until it is picked
/// again.
fn hand_off<'a>(inner: &'a Inner, me: usize, ps: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    relinquish(inner, me, ps);
    park_until_running(inner, lock(&inner.state), me)
}

/// Parks thread slot `id` until the policy picks it (or the run is
/// poisoned).
fn park_until_running<'a>(
    inner: &'a Inner,
    mut ps: MutexGuard<'a, State>,
    id: usize,
) -> MutexGuard<'a, State> {
    while !(inner.poisoned.load(Ordering::Acquire) || ps.running == Some(id)) {
        ps = wait(&inner.cvs[id], ps);
    }
    ps
}

/// Marks slot `key` attached (as a passive slot when `turn` is given) and,
/// when it completes the thread set, starts the run on the calling thread.
/// Returns the slot's index.
fn register(inner: &Inner, key: ThreadKey, turn: Option<TurnFn>) -> usize {
    let mut ps = lock(&inner.state);
    let Some(id) = ps.slots.iter().position(|s| s.key == key) else {
        panic!("no scheduler slot for thread {key}");
    };
    assert!(!ps.slots[id].attached, "thread {key} attached twice");
    let me = turn.is_none().then_some(id);
    ps.slots[id].attached = true;
    ps.slots[id].passive = turn.map(|turn| Passive {
        turn: Some(turn),
        fresh: true,
    });
    ps.started = ps.slots.iter().all(|s| s.attached);
    if ps.started {
        drive(inner, ps, Verdict::Quiet, me);
    }
    id
}

/// Whether slot `s` may be scheduled right now, given the per-host wake
/// generations.
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
    /// Nothing is runnable and no gated packet is pending: the caller must
    /// [`settle`] the run.
    Quiet,
}

/// Picks and installs the next slot to run, releasing any gated
/// deliveries the canonical virtual-time order reaches first. Call with
/// the scheduler lock held; the caller acts on the verdict.
fn dispatch_in(inner: &Inner, ps: &mut State) -> Verdict {
    ps.running = None;
    if inner.poisoned.load(Ordering::Acquire) {
        return Verdict::Quiet;
    }
    loop {
        let min_cand = ps.first();
        // Gated cross-host deliveries: release the earliest pending packet
        // when it precedes (or ties — the delivery enables the receiver)
        // every candidate thread. Releasing before dispatching keeps the
        // canonical virtual-time total order across the wire.
        if let Some(gate) = inner.gate.get().filter(|_| inner.gating) {
            if let Some((r, h)) = gate.min_pending() {
                if min_cand.is_none_or(|i| r <= ps.slots[i].vt) {
                    gate.release_next(h);
                    // The packet is in `h`'s inbox: wake `h` (its server
                    // is the only possible receiver) and look at the
                    // candidates again.
                    ps.wake(h);
                    continue;
                }
            }
        }
        let Some(min_i) = min_cand else {
            return Verdict::Quiet;
        };
        let step = ps.steps + 1;
        let State {
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
        ps.log.push(pick as u32);
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
/// `action` + `yield_now`, or `finish`. The scheduler lock is released
/// around the turn: handlers deliver messages, and deliveries wake hosts
/// under that lock.
fn run_turn<'a>(
    inner: &'a Inner,
    mut ps: MutexGuard<'a, State>,
    i: usize,
) -> MutexGuard<'a, State> {
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
    let mut ps = lock(&inner.state);
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
            lock(&inner.turn_panic).get_or_insert(payload);
            poison(inner, &ps);
            return ps;
        }
    };
    ps.set(i, vt, status);
    if status != Status::Done {
        let passive = ps.slots[i].passive.as_mut().expect("a passive pick");
        passive.turn = Some(turn);
    }
    ps
}

/// Thread slot `me` gives up the schedule: picks what runs next and, as
/// long as that is a passive slot, runs it right here. Returns once the
/// schedule rests with a thread (possibly `me`, which then falls through
/// its park) or the run went quiet.
fn relinquish<'a>(inner: &'a Inner, me: usize, mut ps: MutexGuard<'a, State>) {
    let verdict = dispatch_in(inner, &mut ps);
    drive(inner, ps, verdict, Some(me));
}

/// Carries the run on from `verdict` on the calling thread (thread slot
/// `me`, if it is a scheduled one) until a thread was dispatched or the
/// run was ruled idle or deadlocked.
fn drive<'a>(
    inner: &'a Inner,
    mut ps: MutexGuard<'a, State>,
    mut verdict: Verdict,
    me: Option<usize>,
) {
    loop {
        verdict = match verdict {
            Verdict::Thread(pick) => {
                // Notify with the lock released: the woken thread needs
                // that lock first, and when the wake-up preempts this
                // thread it would be switched in only to block on it.
                // Picking itself, the caller just returns.
                drop(ps);
                if me != Some(pick) {
                    inner.cvs[pick].notify_one();
                }
                return;
            }
            Verdict::Passive(i) => {
                ps = run_turn(inner, ps, i);
                dispatch_in(inner, &mut ps)
            }
            Verdict::Quiet => match settle(inner, &mut ps) {
                Some(verdict) => verdict,
                None => return,
            },
        };
    }
}

/// Re-examines a run that went quiet: applies a pending wake of every
/// host, then delivers the fault-held (reorder) packets — the
/// receiver-driven rescue poll is off under gating — dispatching after
/// each, and returns the first pick that comes of it. With nothing left,
/// rules the run idle — or deadlocked, if an application thread is still
/// blocked — and returns `None`.
fn settle(inner: &Inner, ps: &mut State) -> Option<Verdict> {
    loop {
        if inner.poisoned.load(Ordering::Acquire) {
            return None;
        }
        if std::mem::take(&mut ps.wake_all_pending) {
            ps.wake_all();
        }
        let verdict = dispatch_in(inner, ps);
        if !matches!(verdict, Verdict::Quiet) {
            return Some(verdict);
        }
        let rescued = match inner.gate.get() {
            Some(gate) if inner.gating => gate.flush_held(),
            _ => Vec::new(),
        };
        if rescued.is_empty() {
            break;
        }
        for h in rescued {
            ps.wake(h);
        }
    }
    // Idle or deadlocked, the run is quiescent: its log is whole.
    ps.flush_log(&inner.log);
    let live = |s: &Slot| s.key.class == ThreadClass::App && s.status != Status::Done;
    if ps.slots.iter().any(live) {
        // A blocked application thread nobody can ever wake: the schedule
        // deadlocked. Poison so every thread unwinds with a typed error
        // instead of hanging the run.
        poison(inner, ps);
    } else {
        // Only servers are parked on empty inboxes; idle until an
        // external action (the cluster's shutdown) re-examines.
        inner.main_cv.notify_all();
    }
    None
}

impl Drop for Inner {
    /// A run torn down without a last verdict (a panicking turn poisons
    /// it) still leaves its whole decision log with the mode.
    fn drop(&mut self) {
        lock(&self.state).flush_log(&self.log);
    }
}

/// Marks the schedule poisoned and wakes every parked thread plus the
/// quiesce waiter. Takes the held scheduler state as proof that none of
/// them is between a predicate check and its wait.
fn poison(inner: &Inner, _ps: &State) {
    inner.poisoned.store(true, Ordering::SeqCst);
    for cv in &inner.cvs {
        cv.notify_all();
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

    fn two_host_keys() -> Vec<ThreadKey> {
        vec![
            ThreadKey::server(HostId(0)),
            ThreadKey::server(HostId(1)),
            ThreadKey::app(HostId(0), 0),
            ThreadKey::app(HostId(1), 0),
        ]
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
        fn min_pending(&self) -> Option<(Ns, HostId)> {
            self.pending
                .lock()
                .unwrap()
                .iter()
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

    /// Host 0's application thread parks a gated delivery for host 1,
    /// whose server blocks on the flag it bumps. Once the sender yields
    /// past the release time nothing else is runnable, so only the
    /// dispatch loop releasing the packet can wake the server.
    #[test]
    fn a_gated_delivery_wakes_its_blocked_receiver() {
        let sched = Scheduler::new(&SchedMode::deterministic(), two_host_keys());
        let gate = Arc::new(TestGate::new());
        sched.set_gate(Arc::clone(&gate) as Arc<dyn DeliveryGate>);
        let flag = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let (sched, gate, flag) = (&sched, &gate, &flag);
            scope.spawn(move || sched.attach(ThreadKey::server(HostId(0))).finish());
            scope.spawn(move || sched.attach(ThreadKey::app(HostId(1), 0)).finish());
            scope.spawn(move || {
                let t = sched.attach(ThreadKey::app(HostId(0), 0));
                t.yield_now(5);
                // "Send" at vt 5, released at 17.
                gate.send(17, HostId(1), flag);
                t.yield_now(20);
            });
            scope.spawn(move || {
                let t = sched.attach(ThreadKey::server(HostId(1)));
                let delivered = || (flag.load(Ordering::Relaxed) > 0).then_some(());
                if let BlockOutcome::Poisoned = t.block_until(0, delivered) {
                    panic!("gated delivery never released");
                }
            });
        });
        assert_eq!(gate.min_pending(), None, "gate drained");
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
    /// parts one after the other.
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
            let got = (decisions.len(), crate::sha256_hex(&bytes));
            if got != (len, pin.to_string()) {
                moved.push(format!("{}: {got:?}", mode.policy_name()));
            }
        }
        assert!(moved.is_empty(), "schedules moved:\n{}", moved.join("\n"));
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
}
