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
//! # Fibers, threads and passive slots
//!
//! An application thread keeps a stack between yield points: it is a
//! **fiber** on the OS thread that runs the scheduler
//! ([`Scheduler::run_fibers`]; the `fiber` module), and a hand-off is a
//! stack switch to the fiber picked (or back to the root once the run is
//! over), not an OS wake-up and wait. It can also be an OS thread of its
//! own, parked on its own condvar ([`Scheduler::attach`]); one scheduler
//! takes one kind or the other. A DSM server keeps nothing between two
//! messages, so it is a **passive slot** of a fiber run
//! ([`FiberRun::passive`]): a boxed [`Turn`] and no stack. When a passive
//! slot is picked, the slot giving up the schedule — in `yield_now`,
//! `block_until`, `finish`, or the root when the run is quiescent — runs
//! the turn itself and dispatches again until the pick is a thread
//! (possibly itself: no switch at all). Otherwise every slot is alike —
//! index, `(virtual time, key)` tie-break, candidate rule, log entry — so
//! schedules do not depend on how a slot is registered. The rules:
//!
//! * **A fiber run owns its state.** The scheduler's mutex and condvars
//!   serve [`Scheduler::attach`]'s OS threads only. `run_fibers` moves the
//!   state out into a value the run owns with the turns and the wire's
//!   [`DeliveryGate`] (none of them `Send`), reached by its fibers through
//!   an `Rc`: a yield, park, hand-off or turn borrows it there and takes no
//!   lock, condvar or atomic. A turn calls no scheduler method: a delivery
//!   the wire does not park marks its host in the gate, and the scheduler
//!   applies those wakes before it next reads a wake generation or picks.
//! * **Whoever dispatches drives.** Every caller of `dispatch_in` goes
//!   through one loop (`drive`) on `&mut State`, in either kind of run.
//! * **A panicking turn ends the run.** It is caught, the slot retired,
//!   the run poisoned (every parked thread returns
//!   [`BlockOutcome::Poisoned`]) and the payload kept for the run's owner
//!   ([`Scheduler::take_turn_panic`]): it is not the failure of whichever
//!   thread was driving.
//!
//! # Virtual-time order across the wire
//!
//! Under the canonical [`SchedPolicy::VirtualTime`] policy a cross-host
//! delivery is **gated** (see [`DeliveryGate`]): the packet is parked in
//! the destination's mailbox keyed by its release time, and the dispatch
//! loop delivers it when the canonical order reaches it — before any
//! runnable thread at a later or equal virtual time. The exploration
//! policies perturb that order on purpose, so their deliveries are
//! immediate. When nothing is runnable or parked, fault-held packets are
//! flushed (under every policy, and only there), and only then is the run
//! ruled idle or deadlocked.
//!
//! Design notes:
//!
//! * **Wake-ups name a host.** There are two blocking conditions, both on
//!   host-local state: host *h*'s server waits on *h*'s inbox, an
//!   application thread of *h* on a rendezvous in *h*'s waiter table. So
//!   the scheduler keeps one *wake generation per host*, bumped by whatever
//!   touched that host's state (a gate release or an unparked delivery into
//!   its inbox, its server finishing a handler — [`Turn::Ran`]); a blocked
//!   slot is schedulable again once its host's generation moved past the
//!   value recorded before its condition last failed, so per-event cost
//!   does not grow with the host count. What names no host — a thread
//!   finishing, an ungated delivery, a failed run cancelling every host's
//!   waits — wakes every host (rare, and always correct).
//! * **The candidate set is kept, not recomputed.** A fixed min-tree holds
//!   a leaf per host's earliest gated release, then one per slot in key
//!   order, each filed exactly while it may be picked; its root is the
//!   canonical pick, so a step costs O(log slots). Every write to a slot's
//!   `vt`/`status` or to a wake generation goes through `State` (`set`,
//!   `wake`, `wake_all`), which re-files what it moved; a mailbox leaf is
//!   re-filed when [`DeliveryGate::moved_heads`] names its host. The
//!   exploration policies (they never gate) read the slots `is_candidate`
//!   holds for. Debug builds check every pick against a pass over all
//!   slots and heads.
//! * **A parked thread is re-checked where the schedule is.** A thread
//!   parking in [`SchedThread::block_until`] or
//!   [`SchedThread::yield_then_block`] leaves its condition in its slot.
//!   When the policy picks that slot — step counted, decision logged —
//!   *whichever thread is dispatching* evaluates it: unmet, the slot is
//!   blocked again and the loop picks on; met, the owner is resumed once
//!   and its own confirming call returns the value. The schedule is the
//!   one in which every woken thread re-checked for itself. **The
//!   condition contract**, and the rule for a third blocking condition: it
//!   is `Send` and so is its value (`attach` evaluates it on another OS
//!   thread); it is pure, answering `Some` or `None`; it never calls the
//!   scheduler; it takes no lock or borrow a mutator may hold across a
//!   yield point (in a fiber run every fiber shares one OS thread); and
//!   every mutator of what it reads wakes the host owning the blocked
//!   thread — state with no owning host wakes everyone.
//! * **Handler atomicity.** A server handles one message per step — one
//!   [`Turn`] — so a handler is atomic with respect to other simulated
//!   threads, as in the real system, where it runs to completion as an
//!   upcall of whichever thread found the message.
//! * **Deadlock is a verdict, not a hang.** If nothing is runnable or
//!   pending and an application thread is still blocked, the scheduler
//!   poisons itself and every blocked thread returns
//!   [`BlockOutcome::Poisoned`]: a typed error, and a *finding* for the
//!   exploration harness.

use crate::clock::Ns;
use crate::fiber;
use crate::rng::SplitMix64;
use crate::HostId;
use std::cell::{Cell, RefCell, RefMut};
use std::ops::{Deref, DerefMut};
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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
/// owns the record the run's [`Scheduler`] hands its decisions and
/// hand-off count to (so callers can retrieve the schedule after the run
/// for replay and shrinking).
#[derive(Clone, Debug)]
pub struct SchedMode {
    policy: SchedPolicy,
    /// The decisions and the hand-off count.
    record: Arc<Mutex<(Vec<u32>, u64)>>,
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
            record: Arc::default(),
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
        lock(&self.record).0.clone()
    }

    /// [`Scheduler::hand_offs`] of the last run under this mode, handed
    /// over with its decisions.
    pub fn hand_offs(&self) -> u64 {
        lock(&self.record).1
    }
}

/// How the wire's deliveries reach the scheduler. The network fabric
/// implements it over its per-host mailboxes, and a fiber run owns it
/// ([`FiberRun::gate`]), on the run's one OS thread. Under the canonical
/// policy a cross-host send is *parked* in the destination's mailbox keyed
/// by its release time (arrival floored by the link's cumulative maximum),
/// and the dispatch loop *releases* packets in `(release, source)` order
/// when the virtual-time order reaches them; under every policy the quiet
/// point flushes fault-held packets. A send that moves a mailbox's
/// earliest packet marks its host in one mask, a delivery that is not
/// parked in another. The methods must not call the scheduler.
pub trait DeliveryGate {
    /// The hosts (bit *h*: host *h*) whose earliest parked packet changed
    /// since the last call, which clears them.
    fn moved_heads(&self) -> u64;

    /// The mask in which a delivery the gate did not park (self, external;
    /// ungated: every bit) sets its host's bit; the run takes it and wakes
    /// those hosts before it next reads a wake generation or picks.
    fn woken(&self) -> Rc<Cell<u64>>;

    /// The release time of `host`'s earliest parked packet, if any.
    fn head(&self, host: HostId) -> Option<Ns>;

    /// Delivers the minimum pending packet for `host`: its receiver takes
    /// it after everything delivered before. The caller wakes `host`.
    fn release_next(&self, host: HostId);

    /// Delivers every fault-held (reorder-in-flight) packet, returning
    /// each one's destination: called when the run is quiescent, the one
    /// rescue of a packet whose link went quiet behind it.
    fn flush_held(&self) -> Vec<HostId>;

    /// Whether the run's shutdown, unscheduled, is delivering: if so,
    /// nothing is parked.
    fn set_external(&self, external: bool);
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
    /// The slot's leaf in [`State::picks`].
    leaf: usize,
    attached: bool,
    /// `Some(fresh)` on a passive slot (see [`FiberRun::passive`]): whether
    /// its first pick is still ahead. That pick is the attach step of the
    /// thread the slot stands for — it consumes a scheduling step and runs
    /// nothing — which keeps decision logs identical whichever way a server
    /// is registered.
    passive: Option<bool>,
    /// The fiber index of a fiber slot (see [`Scheduler::run_fibers`]).
    fiber: Option<usize>,
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
    /// Evaluates the condition; the caller holds the scheduler state.
    fn holds(&mut self) -> bool {
        // SAFETY: a `Cond` exists only in its owner's slot and between the
        // two assignments in `park_on`, both made holding the state (the
        // lock, or the fiber run's borrow), as the caller does now. So the
        // owner is inside `park_on` — parked, or, picked or poisoned, not
        // holding the state yet — the closure it borrowed for that call is
        // alive, and nobody else is using it. (An owner unwinding out of its
        // park held the schedule, and passes it on only through `finish`,
        // which retires the slot first.)
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

/// One turn of a passive slot, run to completion on its fiber run's OS
/// thread by whichever slot holds the schedule when the slot is picked.
pub type TurnFn = Box<dyn FnMut() -> Turn>;

/// The body of a fiber slot (see [`Scheduler::run_fibers`]): given the
/// slot's handle, it runs when the policy first picks the slot.
pub type FiberBody<'a> = Box<dyn FnOnce(SchedThread) + 'a>;

/// The slots and the wire of one [`Scheduler::run_fibers`] call.
pub struct FiberRun<'a> {
    /// The application threads: each a body run on a stack of its own.
    pub fibers: Vec<(ThreadKey, FiberBody<'a>)>,
    /// The DSM servers: each a turn, run by whoever dispatches. A turn
    /// never blocks and calls no scheduler method: what it delivers wakes
    /// hosts through the gate.
    pub passive: Vec<(ThreadKey, TurnFn)>,
    /// The wire's delivery gate, if the run has a wire.
    pub gate: Option<Rc<dyn DeliveryGate>>,
}

/// What a fiber run owns while its fibers run, none of it `Send`: the
/// scheduler's state, the turns of its passive slots and its gate.
struct Local {
    state: RefCell<State>,
    /// Each slot's turn: `None` on a fiber slot and while the turn runs.
    turns: Box<[Cell<Option<TurnFn>>]>,
    gate: Option<Rc<dyn DeliveryGate>>,
    /// The gate's [`DeliveryGate::woken`] mask.
    woken: Rc<Cell<u64>>,
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

/// The pick index (see the module docs): `nodes[1]` is the root,
/// `nodes[nodes.len() / 2 + l]` leaf `l`, any other node the smaller of its
/// children. Leaf `l` filed at `vt` is `vt << rank_bits | l` (a tie goes to
/// the lower leaf), else `EMPTY`, which no `l` has every rank bit of.
struct Picks {
    nodes: Box<[u64]>,
    rank_bits: u32,
}

const EMPTY: u64 = u64::MAX;

impl Picks {
    fn new(leaves: usize) -> Self {
        let nodes = vec![EMPTY; 2 * leaves.next_power_of_two()].into();
        let rank_bits = usize::BITS - leaves.leading_zeros();
        Self { nodes, rank_bits }
    }

    /// Files `leaf` at `vt`, or takes it out; a `vt` too wide panics, naming `who`.
    fn set(&mut self, leaf: usize, vt: Option<Ns>, who: impl std::fmt::Display) {
        let bits = u64::BITS - self.rank_bits;
        let mut min = vt.map_or(EMPTY, |vt| match vt >> bits {
            0 => vt << self.rank_bits | leaf as u64,
            _ => panic!("{who} at virtual time {vt} overflows the {bits}-bit pick key"),
        });
        // Up until a node keeps its value (`nodes[0]` stays `EMPTY`).
        let mut n = self.nodes.len() / 2 + leaf;
        while n > 0 && std::mem::replace(&mut self.nodes[n], min) != min {
            min = min.min(self.nodes[n ^ 1]);
            n /= 2;
        }
    }

    /// The filed leaf first in `(vt, leaf)` order.
    fn first(&self) -> Option<usize> {
        let root = self.nodes[1];
        (root != EMPTY).then(|| (root & ((1 << self.rank_bits) - 1)) as usize)
    }
}

/// The scheduler's mutable state: the slots of every simulated thread and
/// the one-running-thread-at-a-time discipline (see the module docs for
/// where it lives).
struct State {
    slots: Vec<Slot>,
    /// Each host's earliest gated release, then each slot [`is_candidate`]
    /// holds for: exact for the slots (`set`, `wake` and `wake_all` write
    /// what it reads), and for the mailboxes once [`State::first`] took the
    /// gate's wakes and moved heads.
    picks: Picks,
    /// The slot of each slot leaf, in key order.
    by_leaf: Box<[usize]>,
    /// The slots of each host, indexed like `wakes`.
    host_slots: Vec<Vec<usize>>,
    /// The one slot currently allowed to run, if any. Between scheduling
    /// calls, `None` in a started run means the run is quiescent.
    running: Option<usize>,
    /// The thread slot picked last: a different one is a hand-off.
    last_thread: Option<usize>,
    /// Wake generation per host (see module docs).
    wakes: Vec<u64>,
    /// Whether cross-host deliveries are gated (virtual-time policy).
    gating: bool,
    /// Whether every slot has attached; nothing is dispatched before.
    started: bool,
    /// Set when the run deadlocked or a turn panicked.
    poisoned: bool,
    /// The first panicked turn's payload ([`Scheduler::take_turn_panic`]).
    turn_panic: Option<Box<dyn std::any::Any + Send>>,
    /// A wake of every host ([`SchedThread::action_all`]) that is applied
    /// once more when the run next goes quiescent, before any verdict.
    wake_all_pending: bool,
    steps: u64,
    hand_offs: u64,
    /// The decisions not yet handed to the mode's `record` ([`State::flush_log`]).
    log: Vec<u32>,
    record: Arc<Mutex<(Vec<u32>, u64)>>,
    policy: PolicyState,
}

impl State {
    /// Slot `i` is at virtual time `vt` in `status` from now on.
    fn set(&mut self, i: usize, vt: Ns, status: Status) {
        let s = &mut self.slots[i];
        (s.vt, s.status) = (vt, status);
        self.file(i);
    }

    /// Slot `i` is in `status` from now on, where it is in virtual time.
    fn set_status(&mut self, i: usize, status: Status) {
        self.set(i, self.slots[i].vt, status);
    }

    /// Files slot `i` in the pick index, or takes it out, after a write
    /// to what [`is_candidate`] reads.
    fn file(&mut self, i: usize) {
        let s = &self.slots[i];
        let vt = is_candidate(s, &self.wakes).then_some(s.vt);
        self.picks.set(s.leaf, vt, s.key);
    }

    /// Slot `i`'s thread is done. Finishing names no host: whatever the
    /// thread released on its way out, every blocked thread re-checks once.
    fn finish(&mut self, i: usize) {
        self.set_status(i, Status::Done);
        self.wake_all();
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

    /// Applies the wakes the gate's unparked deliveries marked. A wake only
    /// counts, so applying it late changes nothing as long as no wake
    /// generation was read and no pick taken in between.
    #[inline]
    fn take_wakes(&mut self, local: Option<&Local>) {
        match local.map_or(0, |l| l.woken.take()) {
            0 => {}
            u64::MAX => self.wake_all(),
            woken => hosts_in(woken).for_each(|h| self.wake(h)),
        }
    }

    /// `host`'s wake generation, once the gate's wakes are in.
    fn generation(&mut self, host: HostId, local: Option<&Local>) -> u64 {
        self.take_wakes(local);
        self.wakes[host.index()]
    }

    /// Applies the gate's wakes, re-files the mailbox leaves of the hosts
    /// it names as moved, and returns the canonical pick's leaf. Debug
    /// builds check it against the passes over every mailbox head and
    /// every slot the tree replaced.
    fn first(&mut self, local: Option<&Local>) -> Option<usize> {
        self.take_wakes(local);
        let gate = local
            .and_then(|l| l.gate.as_deref())
            .filter(|_| self.gating);
        for h in hosts_in(gate.map_or(0, |g| g.moved_heads())) {
            assert!(h.index() < self.wakes.len(), "host {h} has no slot");
            let head = gate.and_then(|g| g.head(h));
            self.picks
                .set(h.index(), head, format_args!("{h}'s mailbox"));
        }
        let first = self.picks.first();
        debug_assert_eq!(first, self.scan(gate), "the pick index drifted");
        first
    }

    /// What those passes pick: the earliest, a release before a slot (`Ok`
    /// sorts first), then the lowest host or key.
    fn scan(&self, gate: Option<&dyn DeliveryGate>) -> Option<usize> {
        let head = |h: usize| Some((gate?.head(HostId(h as u16))?, Ok(h)));
        let slots = self.slots.iter().filter(|s| is_candidate(s, &self.wakes));
        let slots = slots.map(|s| (s.vt, Err((s.key, s.leaf))));
        let pick = (0..self.wakes.len()).filter_map(head).chain(slots).min();
        pick.map(|(_, leaf)| leaf.unwrap_or_else(|(_, leaf)| leaf))
    }

    /// Hands the decisions taken since the last call to the mode's record,
    /// with the hand-off count: moved in whole while the record's log is
    /// empty, appended to it after that — never a copy of the whole run.
    fn flush_log(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let (decisions, hand_offs) = &mut *lock(&self.record);
        *hand_offs = self.hand_offs;
        if decisions.is_empty() {
            std::mem::swap(decisions, &mut self.log);
        } else {
            decisions.append(&mut self.log);
        }
    }
}

impl Drop for State {
    /// A run torn down without a last verdict (a panicking turn poisons
    /// it) still leaves its whole decision log with the mode.
    fn drop(&mut self) {
        self.flush_log();
    }
}

struct Inner {
    /// The state; `None` while a fiber run holds it.
    state: Mutex<Option<State>>,
    /// One condvar per slot: a dispatch notifies exactly the picked
    /// thread, never every parked one.
    cvs: Vec<Condvar>,
    /// Signalled when the run goes idle or poisons; what
    /// [`Scheduler::quiesce_then`] waits on.
    main_cv: Condvar,
}

const LENT: &str = "the scheduler's state is with its fiber run";

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
        *lock(&mode.record) = Default::default();
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
        let cvs = keys.iter().map(|_| Condvar::new()).collect();
        let mut by_leaf: Box<[usize]> = (0..keys.len()).collect();
        by_leaf.sort_unstable_by_key(|&i| keys[i]);
        let mut slots: Vec<Slot> = (keys.into_iter())
            .map(|key| Slot {
                key,
                vt: 0,
                status: Status::Runnable,
                leaf: 0,
                attached: false,
                passive: None,
                fiber: None,
                cond: None,
            })
            .collect();
        let mut picks = Picks::new(hosts + slots.len());
        for (rank, &i) in by_leaf.iter().enumerate() {
            slots[i].leaf = hosts + rank;
            picks.set(hosts + rank, Some(0), slots[i].key);
        }
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(Some(State {
                    slots,
                    picks,
                    by_leaf,
                    host_slots,
                    running: None,
                    last_thread: None,
                    wakes: vec![0; hosts],
                    gating: matches!(mode.policy, SchedPolicy::VirtualTime),
                    started: false,
                    poisoned: false,
                    turn_panic: None,
                    wake_all_pending: false,
                    steps: 0,
                    hand_offs: 0,
                    log: Vec::new(),
                    record: Arc::clone(&mode.record),
                    policy,
                })),
                cvs,
                main_cv: Condvar::new(),
            }),
        }
    }

    /// Runs `f` on the state, which a fiber run must not hold.
    fn with<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        f(lock(&self.inner.state).as_mut().expect(LENT))
    }

    /// Whether cross-host deliveries must be gated: the canonical
    /// virtual-time policy. The network fabric keys its delivery path off
    /// this.
    pub fn gating(&self) -> bool {
        self.with(|ps| ps.gating)
    }

    /// Registers the calling OS thread as the simulated thread `key` and
    /// parks it until every expected thread has attached and the policy
    /// picks it. Must be called on the spawned thread itself. (What a
    /// cluster run does instead is [`run_fibers`](Self::run_fibers).)
    ///
    /// # Panics
    ///
    /// Panics if `key` names no slot or was already attached, or if the
    /// scheduler runs fibers.
    pub fn attach(&self, key: ThreadKey) -> SchedThread {
        let inner = &*self.inner;
        let mut guard = lock(&inner.state);
        let ps = guard.as_mut().expect(LENT);
        let id = claim(ps, key);
        let fibers = ps.slots.iter().any(|s| s.fiber.is_some());
        assert!(!fibers, "thread {key}: this scheduler runs fibers");
        ps.started = ps.slots.iter().all(|s| s.attached);
        if ps.started {
            let next = drive(ps, Verdict::Quiet, None);
            hand_on(inner, guard, next, Some(id));
            guard = lock(&inner.state);
        }
        drop(park_until_running(inner, guard, id));
        SchedThread {
            inner: Arc::clone(&self.inner),
            id,
            fiber: None,
            finished: false,
        }
    }

    /// Runs `run`'s fibers and passive slots on the calling thread, then
    /// `shutdown`, and returns once every fiber has exited and the turns
    /// `shutdown` made runnable are done. A body gets its slot's handle and
    /// runs, on a stack of its own, when the policy first picks the slot;
    /// from then on every hand-off between slots is a stack switch on this
    /// thread (see the module docs), and a fiber that finishes gives up the
    /// schedule only after its body has returned, everything it owned
    /// dropped. A panic that escapes a body is caught on its fiber — the
    /// slot finishes — and re-raised here at the end: it never unwinds
    /// through a switch. Once the run is quiescent, `shutdown` runs as an
    /// external actor, as in [`quiesce_then`](Self::quiesce_then), with the
    /// state back in the scheduler and the gate parking nothing.
    ///
    /// # Panics
    ///
    /// Panics if a key names no slot or an attached one, if a fiber is a
    /// server, if a slot is left out or a fiber's handle outlives its body,
    /// and with the first payload a body panicked with.
    pub fn run_fibers(&self, run: FiberRun<'_>, shutdown: impl FnOnce()) {
        let inner = &*self.inner;
        let mut ps = lock(&inner.state).take().expect(LENT);
        let turns: Box<[_]> = ps.slots.iter().map(|_| Cell::new(None)).collect();
        for (key, turn) in run.passive {
            let id = claim(&mut ps, key);
            ps.slots[id].passive = Some(true);
            turns[id].set(Some(turn));
        }
        let ids: Vec<usize> = (run.fibers.iter().enumerate())
            .map(|(f, &(key, _))| {
                assert_eq!(key.class, ThreadClass::App, "fiber {key} is a server");
                let id = claim(&mut ps, key);
                ps.slots[id].fiber = Some(f);
                id
            })
            .collect();
        assert!(
            (ps.slots.iter()).all(|s| s.attached && (s.passive.is_some() || s.fiber.is_some())),
            "a fiber run takes every slot, as a fiber or a passive slot"
        );
        ps.started = true;
        let local = Rc::new(Local {
            state: RefCell::new(ps),
            turns,
            woken: run.gate.as_ref().map_or_else(Rc::default, |g| g.woken()),
            gate: run.gate,
        });
        let escaped = Cell::new(None);
        let fibers = (run.fibers.into_iter().zip(ids).enumerate())
            .map(|(f, ((_, body), id))| {
                let (arc, local, escaped) = (&self.inner, &local, &escaped);
                Box::new(move || {
                    let me = SchedThread {
                        inner: Arc::clone(arc),
                        id,
                        fiber: Some((f, Rc::clone(local))),
                        finished: false,
                    };
                    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(me)));
                    if let Err(payload) = ran {
                        let first = escaped.take().unwrap_or(payload);
                        escaped.set(Some(first));
                    }
                    exit_fiber(id, local)
                }) as fiber::Body<'_>
            })
            .collect();
        let mut started = false;
        fiber::run(fibers, || {
            let mut ps = local.state.borrow_mut();
            if !std::mem::replace(&mut started, true) {
                let next = drive(&mut ps, Verdict::Quiet, Some(&local));
                return next.and_then(|pick| ps.slots[pick].fiber);
            }
            // Back on this thread's own stack: the run went idle with every
            // fiber exited, or was poisoned, and then every fiber not yet
            // done resumes in turn, returns `Poisoned` and unwinds to exit.
            let live = |s: &Slot| s.fiber.filter(|_| ps.poisoned && s.status != Status::Done);
            ps.slots.iter().find_map(live)
        });
        let local = Rc::into_inner(local).expect("a fiber's handle outlived its run");
        *lock(&inner.state) = Some(local.state.into_inner());
        let gate = local.gate.as_deref();
        gate.inspect(|g| g.set_external(true));
        shutdown();
        gate.inspect(|g| g.set_external(false));
        let state = RefCell::new(lock(&inner.state).take().expect(LENT));
        let local = Local { state, ..local };
        let resumed = drive(&mut local.state.borrow_mut(), Verdict::Quiet, Some(&local));
        assert_eq!(resumed, None, "a fiber picked outside its run");
        *lock(&inner.state) = Some(local.state.into_inner());
        if let Some(payload) = escaped.into_inner() {
            std::panic::resume_unwind(payload);
        }
    }

    /// The payload of a passive turn that panicked, once. The scheduler
    /// caught it on whichever thread was running the turn, retired the
    /// slot and poisoned the run; the owner of the run re-raises it after
    /// teardown.
    pub fn take_turn_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.with(|ps| ps.turn_panic.take())
    }

    /// Wakes every host of a run of attached OS threads, from any thread,
    /// and dispatches nothing ([`quiesce_then`](Self::quiesce_then) does).
    /// A fiber run is woken through its gate or [`SchedThread::action`].
    pub fn bump_action(&self) {
        self.with(State::wake_all);
    }

    /// Waits until a run of attached OS threads is quiescent (every thread
    /// done or blocked with nothing runnable and nothing in flight), then
    /// runs `f`, then re-examines whatever `f`'s actions made runnable: how
    /// an unscheduled thread injects messages without racing the scheduled
    /// world. A fiber run does the same with its `shutdown`
    /// ([`run_fibers`](Self::run_fibers)).
    pub fn quiesce_then(&self, f: impl FnOnce()) {
        let inner = &*self.inner;
        drop(wait_until(&inner.main_cv, lock(&inner.state), |ps| {
            ps.poisoned || (ps.started && ps.running.is_none())
        }));
        f();
        let mut guard = lock(&inner.state);
        let next = drive(guard.as_mut().expect(LENT), Verdict::Quiet, None);
        hand_on(inner, guard, next, None);
    }

    /// Number of scheduling decisions taken so far (while a fiber run holds
    /// the state, its fibers have [`SchedThread::steps`]).
    pub fn steps(&self) -> u64 {
        self.with(|ps| ps.steps)
    }

    /// Picks so far that passed the schedule to another thread than the
    /// last one ([`SchedMode::hand_offs`] too).
    pub fn hand_offs(&self) -> u64 {
        self.with(|ps| ps.hand_offs)
    }
}

/// One simulated thread's handle into the scheduler. Obtained from
/// [`Scheduler::attach`]. Dropping the handle marks the thread done and
/// hands control on.
pub struct SchedThread {
    inner: Arc<Inner>,
    id: usize,
    /// A fiber slot's fiber index and its run's state, turns and gate.
    fiber: Option<(usize, Rc<Local>)>,
    finished: bool,
}

/// The scheduler's state as a slot's thread holds it: a run of attached
/// OS threads locks it, a fiber borrows it from its run.
enum Held<'a> {
    Locked(MutexGuard<'a, Option<State>>),
    Lent(RefMut<'a, State>),
}

impl Deref for Held<'_> {
    type Target = State;

    fn deref(&self) -> &State {
        match self {
            Held::Locked(g) => g.as_ref().expect(LENT),
            Held::Lent(ps) => ps,
        }
    }
}

impl DerefMut for Held<'_> {
    fn deref_mut(&mut self) -> &mut State {
        match self {
            Held::Locked(g) => g.as_mut().expect(LENT),
            Held::Lent(ps) => ps,
        }
    }
}

impl SchedThread {
    /// The state, as this slot's kind of run holds it.
    fn state(&self) -> Held<'_> {
        match &self.fiber {
            Some((_, local)) => Held::Lent(local.state.borrow_mut()),
            None => Held::Locked(lock(&self.inner.state)),
        }
    }

    /// A cooperative yield point: records the thread's current virtual
    /// time, lets the policy pick the next thread (possibly this one
    /// again), and returns when this thread is picked again.
    pub fn yield_now(&self, vt: Ns) {
        let mut ps = self.state();
        if ps.poisoned {
            return;
        }
        debug_assert_eq!(ps.running, Some(self.id), "yield from a paused thread");
        ps.set(self.id, vt, Status::Runnable);
        drop(self.hand_off(ps));
    }

    /// [`Scheduler::steps`], which a fiber's run holds while it runs.
    pub fn steps(&self) -> u64 {
        self.state().steps
    }

    /// Wakes the caller's own host: it just did something that may have
    /// unblocked a peer there (fulfilled a waiter, mutated protocol
    /// state) outside the network-delivery hook.
    pub fn action(&self) {
        let mut ps = self.state();
        let host = ps.slots[self.id].key.host;
        ps.wake(host);
    }

    /// Wakes every host of the run: the caller mutated state that
    /// threads of *any* host may be blocked on (the cluster failing every
    /// host's pending waits). Every blocked thread re-checks at once, and
    /// once more when the run next goes quiescent, before it can be ruled
    /// idle or deadlocked.
    pub fn action_all(&self) {
        let mut ps = self.state();
        ps.wake_all();
        ps.wake_all_pending = true;
    }

    /// Blocks until `check` produces a value, yielding to other threads
    /// while the condition is unmet. `vt` is the block-entry virtual time
    /// used for the policy's tie-break while parked. The caller checks once
    /// itself and never parks on a condition already met; after that
    /// `check` runs *on whichever thread dispatches* when the parked slot
    /// is picked, while that thread holds the scheduler state, so it must
    /// keep the module docs' condition contract: pure, no scheduler calls,
    /// no lock or borrow a mutator may hold.
    pub fn block_until<T: Send>(
        &self,
        vt: Ns,
        mut check: impl FnMut() -> Option<T> + Send,
    ) -> BlockOutcome<T> {
        // Snapshot the host's wake generation *before* checking: a wake
        // landing between a failed check and the park leaves `seen`
        // stale, so the slot stays schedulable — no lost wake-up.
        let seen = {
            let mut ps = self.state();
            if ps.poisoned {
                return BlockOutcome::Poisoned;
            }
            let host = ps.slots[self.id].key.host;
            ps.generation(host, self.fiber.as_ref().map(|f| &*f.1))
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
    /// (`true`) or the run is poisoned. Publishes and withdraws while
    /// holding the scheduler state.
    fn park_on(&self, vt: Ns, status: Status, check: &mut CondFn<'_>) -> bool {
        let mut ps = self.state();
        if ps.poisoned {
            return false;
        }
        let check: *mut CondFn<'_> = check;
        // SAFETY: only the trait object's lifetime bound changes, which has
        // no representation; `Cond::holds` argues that no use outlives it.
        let check = unsafe { std::mem::transmute::<*mut CondFn<'_>, *mut CondFn<'static>>(check) };
        ps.set(self.id, vt, status);
        ps.slots[self.id].cond = Some(Cond(check));
        let mut ps = self.hand_off(ps);
        ps.set_status(self.id, Status::Runnable);
        ps.slots[self.id].cond = None;
        !ps.poisoned
    }

    /// Gives up the schedule and waits until this slot is picked again
    /// (or the run is poisoned): a fiber switches to the fiber picked, an
    /// OS thread notifies the pick and parks on its condvar.
    fn hand_off<'a>(&'a self, mut ps: Held<'a>) -> Held<'a> {
        let next = relinquish(&mut ps, self.fiber.as_ref().map(|f| &*f.1));
        match ps {
            Held::Lent(ps) => {
                let next = next.and_then(|pick| ps.slots[pick].fiber);
                drop(ps);
                if next.is_some() && next != self.fiber.as_ref().map(|f| f.0) {
                    fiber::switch(next);
                }
                self.state()
            }
            Held::Locked(guard) => {
                hand_on(&self.inner, guard, next, Some(self.id));
                Held::Locked(park_until_running(
                    &self.inner,
                    lock(&self.inner.state),
                    self.id,
                ))
            }
        }
    }

    /// Marks the thread done and hands control to the next runnable
    /// thread. Idempotent; also called on drop. A fiber only marks its
    /// slot done here: it hands control on when its body has returned.
    pub fn finish(&mut self) {
        if std::mem::replace(&mut self.finished, true) {
            return;
        }
        let mut ps = self.state();
        ps.finish(self.id);
        let poisoned = ps.poisoned;
        if let (Held::Locked(mut guard), false) = (ps, poisoned) {
            let next = relinquish(guard.as_mut().expect(LENT), None);
            hand_on(&self.inner, guard, next, Some(self.id));
        }
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

/// Waits on `cv` until the scheduler state is `ready`.
fn wait_until<'a>(
    cv: &Condvar,
    guard: MutexGuard<'a, Option<State>>,
    ready: impl Fn(&State) -> bool,
) -> MutexGuard<'a, Option<State>> {
    let waiting = |ps: &mut Option<State>| !ready(ps.as_ref().expect(LENT));
    cv.wait_while(guard, waiting)
        .unwrap_or_else(|e| e.into_inner())
}

/// Parks OS thread slot `id` until the policy picks it (or the run is
/// poisoned).
fn park_until_running<'a>(
    inner: &'a Inner,
    guard: MutexGuard<'a, Option<State>>,
    id: usize,
) -> MutexGuard<'a, Option<State>> {
    wait_until(&inner.cvs[id], guard, |ps| {
        ps.poisoned || ps.running == Some(id)
    })
}

/// Passes the schedule of a run of attached OS threads on once [`drive`]
/// returned `next`: with the lock released, notifies the thread picked
/// (unless it is `me`), or, when the run went quiet, whoever waits for the
/// verdict (every parked thread, if it poisoned the run).
fn hand_on(
    inner: &Inner,
    guard: MutexGuard<'_, Option<State>>,
    next: Option<usize>,
    me: Option<usize>,
) {
    let poisoned = guard.as_ref().expect(LENT).poisoned;
    drop(guard);
    let every = inner.cvs.iter().chain([&inner.main_cv]);
    match next {
        Some(pick) if me != Some(pick) => inner.cvs[pick].notify_one(),
        Some(_) => {}
        None if poisoned => every.for_each(Condvar::notify_all),
        None => inner.main_cv.notify_all(),
    }
}

/// Marks slot `key` attached and returns its index.
fn claim(ps: &mut State, key: ThreadKey) -> usize {
    let Some(id) = ps.slots.iter().position(|s| s.key == key) else {
        panic!("no scheduler slot for thread {key}");
    };
    assert!(!ps.slots[id].attached, "thread {key} attached twice");
    ps.slots[id].attached = true;
    id
}

/// The hosts `mask` names (bit *h*: host *h*), lowest first.
fn hosts_in(mut mask: u64) -> impl Iterator<Item = HostId> {
    std::iter::from_fn(move || {
        let h = (mask != 0).then(|| HostId(mask.trailing_zeros() as u16));
        mask &= mask.wrapping_sub(1);
        h
    })
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
    /// Thread slot `.0` was picked and installed as `running`: see [`drive`].
    Thread(usize),
    /// Passive slot `.0` was picked and installed as `running`; the caller
    /// runs its turn and dispatches again.
    Passive(usize),
    /// Nothing is runnable and no gated packet is pending: the caller must
    /// [`settle`] the run.
    Quiet,
}

/// Picks and installs the next slot to run, releasing any gated
/// deliveries the canonical virtual-time order reaches first.
fn dispatch_in(ps: &mut State, local: Option<&Local>) -> Verdict {
    ps.running = None;
    if ps.poisoned {
        return Verdict::Quiet;
    }
    loop {
        let Some(leaf) = ps.first(local) else {
            return Verdict::Quiet;
        };
        let Some(rank) = leaf.checked_sub(ps.wakes.len()) else {
            // The earliest gated delivery, first even on a tie (it enables
            // its receiver): release it into host `h`'s inbox and wake `h`
            // (its server is the only possible receiver).
            let h = HostId(leaf as u16);
            let gate = local.and_then(|l| l.gate.as_deref());
            gate.expect("a mailbox leaf is filed from the gate")
                .release_next(h);
            ps.wake(h);
            continue;
        };
        let min_i = ps.by_leaf[rank];
        let step = ps.steps + 1;
        let State {
            slots,
            wakes,
            policy,
            ..
        } = &mut *ps;
        let candidate = |i: usize| is_candidate(&slots[i], wakes);
        let chosen = match policy {
            PolicyState::VirtualTime => None,
            PolicyState::Random { rng } => {
                let candidates = (0..slots.len()).filter(|&i| candidate(i));
                candidates.clone().nth(rng.next_usize(candidates.count()))
            }
            PolicyState::Pct {
                prios,
                change_at,
                demote_next,
            } => {
                let pick = (0..slots.len())
                    .filter(|&i| candidate(i))
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
                want.filter(|&w| w < slots.len() && candidate(w))
            }
        };
        let pick = chosen.unwrap_or(min_i);
        ps.steps += 1;
        ps.log.push(pick as u32);
        // A parked thread's condition is re-checked right here: unmet, the
        // slot is blocked again — on the generation its own thread would
        // have recorded — and we pick on.
        if ps.slots[pick].cond.as_mut().is_some_and(|c| !c.holds()) {
            let seen = ps.generation(ps.slots[pick].key.host, local);
            ps.set_status(pick, Status::Blocked { seen });
            continue;
        }
        ps.running = Some(pick);
        if ps.slots[pick].passive.is_some() {
            return Verdict::Passive(pick);
        }
        if ps.last_thread.replace(pick) != Some(pick) {
            ps.hand_offs += 1;
        }
        return Verdict::Thread(pick);
    }
}

/// Runs the turn of passive slot `i`, which [`dispatch_in`] just installed
/// as `running`, and applies its outcome to the slot — what the server
/// thread it stands for did through `block_until`, `action` + `yield_now`,
/// or `finish`. The turn reaches the state only through the gate.
fn run_turn(ps: &mut State, i: usize, local: &Local) {
    let host = ps.slots[i].key.host;
    // Snapshot before the turn looks at its inbox, as `block_until` does:
    // a wake landing in between leaves `seen` stale and the slot
    // schedulable.
    let seen = ps.generation(host, Some(local));
    if std::mem::take(ps.slots[i].passive.as_mut().expect("a passive pick")) {
        return;
    }
    let mut turn = local.turns[i].take().expect("one turn of a slot at a time");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut turn));
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
            ps.turn_panic.get_or_insert(payload);
            ps.poisoned = true;
            return;
        }
    };
    ps.set(i, vt, status);
    if status != Status::Done {
        local.turns[i].set(Some(turn));
    }
}

/// The calling thread slot gives up the schedule: picks what runs next
/// and, as long as that is a passive slot, runs it right here. Returns
/// once the schedule rests with a thread (possibly the caller, which then
/// falls through its park) or the run went quiet; see [`drive`].
fn relinquish(ps: &mut State, local: Option<&Local>) -> Option<usize> {
    let verdict = dispatch_in(ps, local);
    drive(ps, verdict, local)
}

/// The last scheduling act of fiber slot `id`, once its body returned:
/// finishes the slot if the body did not, and gives up the schedule for
/// good. Returns the fiber to switch to, or `None` for the root.
fn exit_fiber(id: usize, local: &Local) -> Option<usize> {
    let mut ps = local.state.borrow_mut();
    if ps.slots[id].status != Status::Done {
        ps.finish(id);
    }
    if ps.poisoned {
        return None;
    }
    let next = relinquish(&mut ps, Some(local));
    next.and_then(|pick| ps.slots[pick].fiber)
}

/// Carries the run on from `verdict` until a thread was dispatched — its
/// slot is returned, for the caller to switch to or notify unless it is
/// the caller — or the run was ruled idle or deadlocked (`None`).
fn drive(ps: &mut State, mut verdict: Verdict, local: Option<&Local>) -> Option<usize> {
    loop {
        verdict = match verdict {
            Verdict::Thread(pick) => return Some(pick),
            Verdict::Passive(i) => {
                let local = local.expect("a passive slot picked outside its run");
                run_turn(ps, i, local);
                dispatch_in(ps, Some(local))
            }
            Verdict::Quiet => settle(ps, local)?,
        };
    }
}

/// Re-examines a run that went quiet: applies a pending wake of every
/// host, then delivers the fault-held packets (their one rescue, under
/// every policy), and returns the first pick that comes of it. With
/// nothing left, rules the run idle or deadlocked and returns `None`.
fn settle(ps: &mut State, local: Option<&Local>) -> Option<Verdict> {
    let gate = local.and_then(|l| l.gate.as_deref());
    loop {
        if ps.poisoned {
            return None;
        }
        if std::mem::take(&mut ps.wake_all_pending) {
            ps.wake_all();
        }
        let verdict = dispatch_in(ps, local);
        if !matches!(verdict, Verdict::Quiet) {
            return Some(verdict);
        }
        let rescued = gate.map(|g| g.flush_held()).unwrap_or_default();
        if rescued.is_empty() {
            break;
        }
        for h in rescued {
            ps.wake(h);
        }
    }
    // Idle or deadlocked, the run is quiescent: its log is whole. A blocked
    // application thread nobody can ever wake is a deadlock: poison, so
    // every thread unwinds with a typed error. (Only servers parked: idle
    // until an external actor, the shutdown, re-examines.)
    ps.flush_log();
    let live = |s: &Slot| s.key.class == ThreadClass::App && s.status != Status::Done;
    ps.poisoned = ps.slots.iter().any(live);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
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
            // the way the cluster injects its shutdown messages: the wake
            // inside, and `quiesce_then` dispatches the server after.
            let flag_main = Arc::clone(&flag);
            sched.quiesce_then(|| {
                flag_main.store(9, Ordering::Relaxed);
                sched.bump_action();
            });
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

    /// A fiber run of `fibers` alone: no passive slot, no wire.
    fn fibers_only(fibers: Vec<(ThreadKey, FiberBody<'_>)>) -> FiberRun<'_> {
        FiberRun {
            fibers,
            passive: Vec::new(),
            gate: None,
        }
    }

    /// A flag a test message bumps when it is delivered: an atomic, so
    /// that a parked `block_until` condition may read it.
    type Flag = Arc<AtomicU64>;

    /// One parked test message: destination host and the flag its
    /// release bumps.
    type TestPending = BTreeMap<(Ns, u64), (HostId, Flag)>;

    /// A miniature delivery gate: messages carry a release time and a
    /// destination flag to bump, standing in for the network fabric. It
    /// marks a host moved whenever its earliest message changes, keeps
    /// held messages for its quiet-point flush, and marks the hosts its
    /// owner wakes the way the fabric marks an unparked delivery's. Like
    /// the fabric it lives on one thread: it is not `Sync`.
    #[derive(Default)]
    struct TestGate {
        pending: RefCell<TestPending>,
        held: RefCell<Vec<(HostId, Flag)>>,
        seq: Cell<u64>,
        moved: Cell<u64>,
        woken: Rc<Cell<u64>>,
    }

    impl TestGate {
        fn earliest(p: &TestPending, host: HostId) -> Option<(Ns, u64)> {
            p.iter().find(|(_, (to, _))| *to == host).map(|(k, _)| *k)
        }

        fn send(&self, release: Ns, to: HostId, flag: &Flag) {
            let seq = self.seq.replace(self.seq.get() + 1);
            let mut p = self.pending.borrow_mut();
            p.insert((release, seq), (to, Arc::clone(flag)));
            if Self::earliest(&p, to) == Some((release, seq)) {
                self.moved.set(self.moved.get() | 1 << to.index());
            }
        }
    }

    impl DeliveryGate for TestGate {
        fn moved_heads(&self) -> u64 {
            self.moved.take()
        }

        fn woken(&self) -> Rc<Cell<u64>> {
            Rc::clone(&self.woken)
        }

        fn set_external(&self, _: bool) {}

        fn head(&self, host: HostId) -> Option<Ns> {
            Self::earliest(&self.pending.borrow(), host).map(|(r, _)| r)
        }

        fn release_next(&self, host: HostId) {
            let mut p = self.pending.borrow_mut();
            let key = Self::earliest(&p, host).expect("release with nothing pending");
            let (_, flag) = p.remove(&key).unwrap();
            flag.fetch_add(1, Ordering::SeqCst);
            self.moved.set(self.moved.get() | 1 << host.index());
        }

        fn flush_held(&self) -> Vec<HostId> {
            let held = std::mem::take(&mut *self.held.borrow_mut());
            held.into_iter()
                .map(|(to, flag)| {
                    flag.fetch_add(1, Ordering::SeqCst);
                    to
                })
                .collect()
        }
    }

    /// A passive server of `host` that waits for `flag` and is then done.
    fn waits_for(host: u16, flag: &Flag) -> (ThreadKey, TurnFn) {
        let flag = Arc::clone(flag);
        let turn = move || match flag.load(Ordering::SeqCst) {
            0 => Turn::Idle { vt: 0 },
            _ => Turn::Done,
        };
        (ThreadKey::server(HostId(host)), Box::new(turn))
    }

    /// Host 0's application thread parks a gated delivery for host 1,
    /// whose application thread blocks until the flag it bumps is set.
    /// Once the sender yields past the release time nothing else is
    /// runnable, so only the dispatch loop releasing the packet — waking
    /// host 1 and re-checking the parked condition — can wake the receiver
    /// before the sender runs again at vt 20.
    #[test]
    fn a_gated_delivery_wakes_its_blocked_receiver() {
        let sched = Scheduler::new(&SchedMode::deterministic(), two_host_keys());
        let (gate, flag) = (Rc::new(TestGate::default()), Flag::default());
        let woke = Cell::new(false);
        let (g, f, w) = (&gate, &flag, &woke);
        let send = move |t: SchedThread| {
            t.yield_now(5);
            // "Send" at vt 5, released at 17.
            g.send(17, HostId(1), f);
            t.yield_now(20);
            assert!(w.get(), "the release at vt 17 woke the receiver");
        };
        let receive = move |t: SchedThread| {
            let delivered = || (f.load(Ordering::SeqCst) > 0).then_some(());
            if let BlockOutcome::Poisoned = t.block_until(0, delivered) {
                panic!("gated delivery never released");
            }
            w.set(true);
        };
        // Neither host's server has anything to wait for.
        let done = Flag::new(AtomicU64::new(1));
        let run = FiberRun {
            fibers: vec![
                (ThreadKey::app(HostId(0), 0), Box::new(send)),
                (ThreadKey::app(HostId(1), 0), Box::new(receive)),
            ],
            passive: vec![waits_for(0, &done), waits_for(1, &done)],
            gate: Some(Rc::clone(&gate) as Rc<dyn DeliveryGate>),
        };
        sched.run_fibers(run, || {});
        assert_eq!(
            flag.load(Ordering::SeqCst),
            1,
            "gated delivery released once"
        );
        assert!(gate.pending.borrow().is_empty(), "gate drained");
        assert_eq!(gate.moved_heads(), 0, "every moved head was re-filed");
    }

    /// A turn that owns an `Rc`, and a gate that is not `Sync`: a `Send`
    /// bound back on [`TurnFn`], or a `Sync` one on [`DeliveryGate`], fails
    /// to compile here. Host 0's application thread leaves a held message for
    /// host 0's server and finishes; only the run's quiet point, flushing
    /// the gate, can deliver it, and the server's turn sees it there.
    #[test]
    fn a_fiber_run_owns_turns_and_a_gate_that_are_not_send() {
        let keys = vec![ThreadKey::server(HostId(0)), ThreadKey::app(HostId(0), 0)];
        let sched = Scheduler::new(&SchedMode::deterministic(), keys);
        let (gate, flag) = (Rc::new(TestGate::default()), Flag::default());
        let held = (HostId(0), Arc::clone(&flag));
        let hold = |t: SchedThread| {
            gate.held.borrow_mut().push(held);
            t.yield_now(3);
        };
        let seen = Rc::new(Cell::new(0));
        let (s, f) = (Rc::clone(&seen), Arc::clone(&flag));
        let turn = move || match f.load(Ordering::SeqCst) {
            0 => Turn::Idle { vt: 0 },
            n => {
                s.set(n);
                Turn::Done
            }
        };
        let run = FiberRun {
            fibers: vec![(ThreadKey::app(HostId(0), 0), Box::new(hold))],
            passive: vec![(ThreadKey::server(HostId(0)), Box::new(turn))],
            gate: Some(Rc::clone(&gate) as Rc<dyn DeliveryGate>),
        };
        sched.run_fibers(run, || {});
        assert_eq!(seen.get(), 1, "flushed once");
        assert!(gate.held.borrow().is_empty());
        // The server's turn, done after the flush, holds its `Rc` no more.
        assert_eq!(Rc::strong_count(&seen), 1);
    }

    /// How the echo toy wakes a host: a fiber run through its gate, the way
    /// the wire does; a run of attached OS threads, which has no gate, in
    /// the scheduler's state.
    trait Wake {
        fn wake(&self, host: u16);
    }

    impl Wake for TestGate {
        fn wake(&self, host: u16) {
            self.woken.set(self.woken.get() | 1 << host);
        }
    }

    impl Wake for Scheduler {
        fn wake(&self, host: u16) {
            lock(&self.inner.state)
                .as_mut()
                .expect(LENT)
                .wake(HostId(host));
        }
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

        fn send(&self, w: &impl Wake, to: u16, msg: Option<u16>) {
            self.inboxes[to as usize].lock().unwrap().push_back(msg);
            w.wake(to);
        }

        /// Stops every server, the way the cluster does.
        fn stop(&self, w: &impl Wake) {
            (0..self.inboxes.len() as u16).for_each(|g| self.send(w, g, None));
        }

        /// One server step of host `g`: what a server thread does between
        /// two scheduling calls, and a passive server in one turn. Echoing
        /// wakes the pinger's host from inside the step, as a handler's
        /// reply delivery does.
        fn serve(&self, w: &impl Wake, g: u16, vt: &mut Ns) -> Turn {
            let msg = self.inboxes[g as usize].lock().unwrap().pop_front();
            match msg {
                Some(Some(from)) => {
                    self.replies[from as usize].fetch_add(1, Ordering::SeqCst);
                    w.wake(from);
                    *vt += 10;
                    Turn::Ran { vt: *vt }
                }
                Some(None) => Turn::Done,
                None => Turn::Idle { vt: *vt },
            }
        }

        /// Host `g`'s server as a passive slot.
        fn passive_server(self: &Arc<Self>, gate: &Rc<TestGate>, g: u16) -> (ThreadKey, TurnFn) {
            let (echo, gate, mut vt) = (Arc::clone(self), Rc::clone(gate), 0);
            let turn = move || echo.serve(&*gate, g, &mut vt);
            (ThreadKey::server(HostId(g)), Box::new(turn))
        }

        /// A fiber run of `fibers` beside every host's passive server,
        /// woken through `gate`.
        fn run<'a>(
            self: &Arc<Self>,
            gate: &Rc<TestGate>,
            fibers: Vec<(ThreadKey, FiberBody<'a>)>,
        ) -> FiberRun<'a> {
            let hosts = self.inboxes.len() as u16;
            let passive = (0..hosts).map(|g| self.passive_server(gate, g));
            FiberRun {
                fibers,
                passive: passive.collect(),
                gate: Some(Rc::clone(gate) as Rc<dyn DeliveryGate>),
            }
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
        /// Every slot is an OS thread, the servers written like the
        /// pre-passive server loop.
        ServerThreads,
        /// Servers are passive turns, pingers fibers.
        Passive,
        /// Passive servers, and a ping is one `yield_then_block`.
        OnePark,
    }

    /// Host `h`'s application thread: pings the next host's server three
    /// times and waits for each echo, with `toy`'s kind of wait.
    fn pinger<'a>(
        echo: &'a Echo,
        w: &'a impl Wake,
        (h, hosts): (u16, u16),
        toy: EchoToy,
    ) -> impl FnOnce(SchedThread) + 'a {
        move |t: SchedThread| {
            let mut vt = 0;
            for round in 1..=3 {
                vt += 7 + u64::from(h);
                echo.send(w, (h + 1) % hosts, Some(h));
                let echoed =
                    || (echo.replies[h as usize].load(Ordering::SeqCst) >= round).then_some(());
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
        }
    }

    /// Every host's application thread pings the next host's server three
    /// times and waits for each echo; the servers are then stopped the way
    /// the cluster stops them. Returns the decision log.
    fn echo_decisions(mode: &SchedMode, hosts: u16, toy: EchoToy) -> Vec<u32> {
        let sched = Scheduler::new(mode, server_app_keys(hosts));
        let echo = Echo::new(hosts);
        let key = |h| ThreadKey::app(HostId(h), 0);
        if toy != EchoToy::ServerThreads {
            let gate = Rc::new(TestGate::default());
            let fibers = (0..hosts).map(|h| {
                let body = pinger(&echo, &*gate, (h, hosts), toy);
                (key(h), Box::new(body) as FiberBody)
            });
            sched.run_fibers(echo.run(&gate, fibers.collect()), || echo.stop(&*gate));
            return mode.decisions();
        }
        std::thread::scope(|scope| {
            for g in 0..hosts {
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
                scope.spawn(move || pinger(echo, sched, (h, hosts), toy)(sched.attach(key(h))));
            }
            sched.quiesce_then(|| echo.stop(&sched));
        });
        mode.decisions()
    }

    /// Every host's application thread, a fiber, pings the next host's
    /// passive echo server three times, waiting for each echo, and
    /// finishes; `shutdown` then runs before the servers are stopped.
    fn ping_around(sched: &Scheduler, hosts: u16, shutdown: impl FnOnce()) {
        let (echo, gate) = (Echo::new(hosts), Rc::new(TestGate::default()));
        let fibers = (0..hosts).map(|h| {
            let (echo, gate) = (&echo, &*gate);
            let body = move |t: SchedThread| {
                for round in 1..=3 {
                    echo.send(gate, (h + 1) % hosts, Some(h));
                    let echoed =
                        || (echo.replies[h as usize].load(Ordering::SeqCst) >= round).then_some(());
                    let outcome = t.yield_then_block(10 * round, echoed);
                    assert!(matches!(outcome, BlockOutcome::Ready(())));
                }
            };
            (ThreadKey::app(HostId(h), 0), Box::new(body) as FiberBody)
        });
        let run = echo.run(&gate, fibers.collect());
        sched.run_fibers(run, || {
            shutdown();
            echo.stop(&*gate);
        });
    }

    /// The scheduler keeps its decisions to itself while it runs; the mode
    /// holds all of them once the run is quiescent — at the idle verdict
    /// before the shutdown, and again after the shutdown ran more turns, as
    /// the two parts one after the other.
    #[test]
    fn the_decision_log_is_whole_once_the_run_is_quiescent() {
        let mode = SchedMode::deterministic();
        let sched = Scheduler::new(&mode, server_app_keys(2));
        let idle = RefCell::new((Vec::new(), 0));
        ping_around(&sched, 2, || {
            *idle.borrow_mut() = (mode.decisions(), sched.steps())
        });
        let (first, steps) = idle.into_inner();
        assert!(!first.is_empty());
        assert_eq!(first.len() as u64, steps, "whole at the idle verdict");
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
        let (echo, gate) = (Echo::new(HOSTS), Rc::new(TestGate::default()));
        let fibers = (0..HOSTS).map(|h| {
            let (gate, echo) = (&*gate, &echo);
            let body = move |t: SchedThread| {
                let mut rng = SplitMix64::new(20).fork(u64::from(h));
                let mut pings = 0;
                for _ in 0..4 + rng.next_range(36) {
                    let vt = rng.next_range(500);
                    let op = rng.next_range(6);
                    let other = rng.next_range(u64::from(HOSTS)) as u16;
                    match op {
                        0 => {}
                        1 => gate.wake(other),
                        // What an ungated delivery marks: every host.
                        2 => gate.woken.set(u64::MAX),
                        _ => {
                            pings += 1;
                            echo.send(gate, other, Some(h));
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
            };
            (ThreadKey::app(HostId(h), 0), Box::new(body) as FiberBody)
        });
        let run = echo.run(&gate, fibers.collect());
        sched.run_fibers(run, || echo.stop(&*gate));
        mode.decisions()
    }

    /// The decision logs the scanning dispatcher of commit 2cc6fc5 took on
    /// the churn toy, as `(decisions, SHA-256 of their little-endian
    /// bytes)`: the candidate index must name the same slot at every step,
    /// under the policy that reads its minimum and under the two that read
    /// its membership. The seed-11 explorers' logs are the ones the toy
    /// took at commit c3029d6 with every application thread an OS thread.
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
            (
                SchedMode::random(11),
                5337,
                "2c28062278b9e3f453dc467ac9df2539c58644a0b57f5006d8b033c66c01695b",
            ),
            (
                SchedMode::pct(11, 3),
                20497,
                "4cfa0c95e6f5d9c7a1a70e825ed564b1bda2ff89932e257844094220d2cc2a3e",
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

    /// The pick index against a `BTreeSet` of `(vt, leaf)`: seeded runs of
    /// files, clears and re-keys over leaf counts that are and are not
    /// powers of two, with eight virtual times so that ties are common.
    #[test]
    fn the_pick_index_is_an_ordered_set() {
        let mut rng = SplitMix64::new(39);
        for leaves in [1, 2, 3, 5, 8, 13, 64, 97, 192] {
            let (mut picks, mut model) = (Picks::new(leaves), BTreeSet::new());
            let mut at = vec![None; leaves];
            for step in 0..4000 {
                let leaf = rng.next_range(leaves as u64) as usize;
                let vt = (rng.next_range(3) != 0).then(|| rng.next_range(8));
                if let Some(old) = std::mem::replace(&mut at[leaf], vt) {
                    model.remove(&(old, leaf));
                }
                model.extend(vt.map(|vt| (vt, leaf)));
                picks.set(leaf, vt, leaf);
                let first = model.first().map(|&(_, l)| l);
                assert_eq!(picks.first(), first, "{leaves} leaves, step {step}");
            }
        }
    }

    /// The widest virtual time a key holds is filed like any other, and
    /// one past it is a panic that names the leaf, never a wrap.
    #[test]
    #[should_panic(expected = "0.app1 at virtual time 2305843009213693952 overflows")]
    fn a_virtual_time_the_pick_key_cannot_hold_is_a_panic() {
        // Seven leaves take three rank bits and leave 61 for the time.
        let mut picks = Picks::new(7);
        picks.set(6, Some((1 << 61) - 1), "leaf 6");
        assert_eq!(picks.first(), Some(6));
        picks.set(2, Some(1 << 61), ThreadKey::app(HostId(0), 1));
    }

    #[test]
    fn deadlock_beside_idle_passive_servers_is_still_a_verdict() {
        let sched = Scheduler::new(&SchedMode::deterministic(), server_app_keys(2));
        let echo = Echo::new(2);
        let poisoned = AtomicU64::new(0);
        let p = &poisoned;
        let blocked = move |t: SchedThread| {
            if let BlockOutcome::Poisoned = t.block_until(0, || None::<()>) {
                p.fetch_add(1, Ordering::SeqCst);
            }
        };
        let fibers: Vec<(ThreadKey, FiberBody)> = vec![
            (ThreadKey::app(HostId(0), 0), Box::new(|t| t.yield_now(1))),
            (ThreadKey::app(HostId(1), 0), Box::new(blocked)),
        ];
        let gate = Rc::new(TestGate::default());
        sched.run_fibers(echo.run(&gate, fibers), || {});
        assert_eq!(poisoned.load(Ordering::SeqCst), 1);
        assert!(sched.take_turn_panic().is_none());
    }

    /// With every application thread done, only the root of the run is
    /// left to run the servers' last turns, which its shutdown made
    /// runnable.
    #[test]
    fn quiesce_drives_leftover_passive_slots_from_the_calling_thread() {
        let sched = Scheduler::new(&SchedMode::deterministic(), server_app_keys(2));
        let (exited, ran, stop) = (
            Rc::new(Cell::new(0)),
            Rc::new(RefCell::new(Vec::new())),
            Rc::new(Cell::new(0)),
        );
        let passive = (0..2).map(|g| {
            let (exited, ran, stop) = (Rc::clone(&exited), Rc::clone(&ran), Rc::clone(&stop));
            let turn = move || {
                if stop.get() == 0 {
                    return Turn::Idle { vt: 0 };
                }
                ran.borrow_mut().push(exited.get());
                Turn::Done
            };
            (ThreadKey::server(HostId(g)), Box::new(turn) as TurnFn)
        });
        let fibers = (0..2).map(|h| {
            let exited = &exited;
            let body = move |t: SchedThread| {
                t.yield_now(3);
                exited.set(exited.get() + 1);
            };
            (ThreadKey::app(HostId(h), 0), Box::new(body) as FiberBody)
        });
        let gate = Rc::new(TestGate::default());
        let run = FiberRun {
            fibers: fibers.collect(),
            passive: passive.collect(),
            gate: Some(Rc::clone(&gate) as Rc<dyn DeliveryGate>),
        };
        sched.run_fibers(run, || {
            stop.set(1);
            gate.wake(0);
            gate.wake(1);
        });
        assert_eq!(
            *ran.borrow(),
            [2, 2],
            "each server's last turn, after both fibers"
        );
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
            let poisoned = AtomicU64::new(0);
            let fibers = (0..2).map(|lane| {
                let (stale, poisoned) = (&stale, &poisoned);
                let body = move |t: SchedThread| {
                    if block_forever(&t, 5, stale) {
                        poisoned.fetch_add(1, Ordering::SeqCst);
                    }
                };
                (ThreadKey::app(HostId(0), lane), Box::new(body) as FiberBody)
            });
            let bug = || std::panic::panic_any("planted handler bug");
            let run = FiberRun {
                fibers: fibers.collect(),
                passive: vec![(ThreadKey::server(HostId(0)), Box::new(bug))],
                gate: None,
            };
            sched.run_fibers(run, || {});
            assert_eq!(poisoned.load(Ordering::SeqCst), 2);
            let payload = sched.take_turn_panic().expect("the turn's payload is kept");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"planted handler bug"));
            assert!(sched.take_turn_panic().is_none(), "handed out once");
            assert!(started.elapsed() < std::time::Duration::from_secs(1));
        }
        assert!(!stale.load(Ordering::SeqCst), "evaluated after the return");
    }

    /// The two toys that pin the schedule, with every application thread a
    /// fiber on this thread: as many hand-offs as the same toys took with
    /// every application thread an OS thread (the counts of commit
    /// c3029d6), under the canonical policy and both explorers. The echo
    /// toy's decision logs are the server threads' (above), the churn
    /// toy's pinned by `the_index_is_the_scan`.
    #[test]
    fn fiber_slots_take_the_schedule_os_threads_took() {
        // Echo at 1, 4 and 32 hosts as (passive, one park), then churn.
        for (mode, echo, churn) in [
            (
                SchedMode::deterministic(),
                [[1, 1], [16, 16], [128, 128]],
                269,
            ),
            (SchedMode::random(11), [[1, 1], [19, 15], [182, 128]], 1285),
            (SchedMode::pct(11, 3), [[1, 1], [5, 5], [50, 50]], 166),
        ] {
            let name = mode.policy_name();
            for (hosts, pins) in [1, 4, 32].into_iter().zip(echo) {
                for (toy, pin) in [EchoToy::Passive, EchoToy::OnePark].into_iter().zip(pins) {
                    echo_decisions(&mode, hosts, toy);
                    assert_eq!(mode.hand_offs(), pin, "echo, {hosts} hosts, {name}");
                }
            }
            churn_decisions(&mode);
            assert_eq!(mode.hand_offs(), churn, "churn, {name}: hand-offs");
        }
        assert_eq!(fiber::live_stacks(), 0);
    }

    /// Counts, when dropped, a fiber body that got to its end or unwound
    /// past it.
    struct Exits<'a>(&'a AtomicU64);

    impl Drop for Exits<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// `deadlock_poisons_instead_of_hanging` with fibers: both block for
    /// good, the run is ruled deadlocked, and each fiber's wait returns
    /// `Poisoned`; one fiber unwinds from it (caught in its body, as the
    /// cluster catches an application's). Both have exited, their stacks
    /// unmapped, when `run_fibers` returns.
    #[test]
    fn a_deadlocked_fiber_run_poisons_and_every_fiber_exits() {
        let stale = AtomicBool::new(false);
        for _ in 0..200 {
            let keys = vec![ThreadKey::app(HostId(0), 0), ThreadKey::app(HostId(0), 1)];
            let sched = Scheduler::new(&SchedMode::deterministic(), keys);
            let (poisoned, exits) = (AtomicU64::new(0), AtomicU64::new(0));
            let apps = (0..2u16).map(|lane| {
                let (stale, poisoned, exits) = (&stale, &poisoned, &exits);
                let body = move |t: SchedThread| {
                    let _exit = Exits(exits);
                    // Lane 1 first evaluates lane 0's parked condition a
                    // few times, then blocks for good as well.
                    for i in 0..u64::from(lane) * 3 {
                        t.action();
                        t.yield_now(i);
                    }
                    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _exit = Exits(exits);
                        if block_forever(&t, 5, stale) {
                            poisoned.fetch_add(1, Ordering::SeqCst);
                            if lane == 0 {
                                std::panic::panic_any("deadlocked");
                            }
                        }
                    }));
                    assert_eq!(unwound.is_err(), lane == 0);
                };
                (ThreadKey::app(HostId(0), lane), Box::new(body) as FiberBody)
            });
            sched.run_fibers(fibers_only(apps.collect()), || {});
            assert_eq!(poisoned.load(Ordering::SeqCst), 2);
            assert_eq!(exits.load(Ordering::SeqCst), 4);
            assert_eq!(fiber::live_stacks(), 0);
        }
        assert!(!stale.load(Ordering::SeqCst), "evaluated after the return");
    }

    /// A fiber body that panics out: its slot finishes, the sibling that
    /// waited on it is ruled deadlocked and exits, and `run_fibers` — the
    /// root — re-raises the payload. Had the unwind crossed the fiber's
    /// first frame, the process would have aborted.
    #[test]
    fn a_panic_escaping_a_fiber_is_reraised_by_the_root() {
        let keys = vec![ThreadKey::app(HostId(0), 0), ThreadKey::app(HostId(0), 1)];
        let sched = Scheduler::new(&SchedMode::deterministic(), keys);
        let (done, waiter) = (AtomicBool::new(false), AtomicU64::new(0));
        let (done, waiter) = (&done, &waiter);
        let failing = move |t: SchedThread| {
            t.yield_now(1);
            std::panic::panic_any("planted application bug");
        };
        let waiting = move |t: SchedThread| {
            // Never met: the failing fiber never sets `done`.
            let outcome = t.block_until(0, || done.load(Ordering::SeqCst).then_some(()));
            waiter.store(
                1 + matches!(outcome, BlockOutcome::Poisoned) as u64,
                Ordering::SeqCst,
            );
        };
        let apps: Vec<(ThreadKey, FiberBody)> = vec![
            (ThreadKey::app(HostId(0), 0), Box::new(failing)),
            (ThreadKey::app(HostId(0), 1), Box::new(waiting)),
        ];
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sched.run_fibers(fibers_only(apps), || {});
        }))
        .expect_err("the root re-raises the fiber's panic");
        assert_eq!(
            raised.downcast_ref::<&str>(),
            Some(&"planted application bug")
        );
        assert_eq!(
            waiter.load(Ordering::SeqCst),
            2,
            "the waiter returned Poisoned"
        );
        assert_eq!(fiber::live_stacks(), 0);
    }

    /// After a fiber run and its shutdown, nothing holds the scheduler: no
    /// fiber kept a handle across its last switch (which never returns),
    /// the run dropped its turns, and every stack is unmapped.
    #[test]
    fn a_fiber_run_frees_its_scheduler_and_stacks() {
        let mode = SchedMode::deterministic();
        let sched = Scheduler::new(&mode, server_app_keys(4));
        let state = Arc::downgrade(&sched.inner);
        ping_around(&sched, 4, || assert_eq!(fiber::live_stacks(), 0));
        drop(sched);
        assert!(state.upgrade().is_none(), "the scheduler outlived its run");
    }
}
