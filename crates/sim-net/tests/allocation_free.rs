//! After warm-up a message's whole trip through the fabric reuses the
//! destination mailbox's buffers: send, the delivery gate's release and the
//! receive allocate nothing. This file's allocator counts the calling
//! thread's allocations.

use sim_core::clock::Ns;
use sim_core::sched::{FiberBody, FiberRun, SchedMode, SchedThread, Scheduler, ThreadKey, Turn};
use sim_core::{CostModel, HostId};
use sim_net::Network;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

thread_local! {
    /// Allocations made by this thread. Const-initialized with no
    /// destructor, so counting takes no lazy path that could allocate.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting only bumps a
// thread-local integer.
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

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

const WARM_UP: u64 = 100;
const MESSAGES: u64 = 10_000;

#[test]
fn an_unscheduled_send_and_recv_allocate_nothing() {
    let (_net, eps) = Network::<u64>::new(2, CostModel::default());
    let trip = |i| {
        eps[0].send(HostId(1), i, 0, i);
        assert_eq!(eps[1].recv().expect("delivered").msg, i);
    };
    (0..WARM_UP).for_each(trip);
    let before = allocs();
    (0..MESSAGES).for_each(trip);
    assert_eq!(allocs() - before, 0);
}

/// Host 0's application thread, a fiber, sends host 1 a message and yields
/// to its arrival, so the dispatcher releases the message from the gate and
/// runs host 1's passive server, which receives it — all on the sending
/// fiber. The one allocation a step may make is the scheduler's decision
/// log doubling.
#[test]
fn a_gated_send_release_and_receive_allocate_nothing() {
    let (app, server) = (ThreadKey::app(HostId(0), 0), ThreadKey::server(HostId(1)));
    let sched = Scheduler::new(&SchedMode::deterministic(), vec![app, server]);
    let (net, mut eps) = Network::<u64>::new(2, CostModel::default());
    let gate = net.attach_scheduler(&sched);
    let (inbox, outbox) = (eps.pop().expect("host 1"), eps.pop().expect("host 0"));
    let received = Rc::new(Cell::new(0));
    let (counted, mut vt) = (Rc::clone(&received), 0);
    let serve = move || match inbox.recv() {
        Some(pkt) => {
            counted.set(counted.get() + 1);
            vt = pkt.release_vt;
            Turn::Ran { vt }
        }
        None => Turn::Idle { vt },
    };
    let counts = Cell::new((0, (0, 0)));
    let send = |t: SchedThread| {
        let mut now: Ns = 0;
        let mut trip = |i| {
            now = outbox.send(HostId(1), i, 0, now);
            t.yield_now(now);
        };
        (0..WARM_UP).for_each(&mut trip);
        let (before, first) = (allocs(), t.steps());
        (0..MESSAGES).for_each(&mut trip);
        counts.set((allocs() - before, (first, t.steps())));
    };
    let run = FiberRun {
        fibers: vec![(app, Box::new(send))],
        passive: vec![(server, Box::new(serve))],
        gate: Some(gate),
    };
    sched.run_fibers(run, || {});
    let (allocated, steps) = counts.get();
    assert_eq!(received.get(), WARM_UP + MESSAGES);
    let doublings = (steps.1.ilog2() - steps.0.ilog2()) as usize;
    assert!(
        allocated <= doublings,
        "{allocated} allocations over {MESSAGES} messages; the decision log doubled {doublings} times"
    );
}

/// The same trip on a ring of 32 hosts, so the scheduler's pick index holds
/// 32 mailbox leaves and 64 slot leaves: every host's application thread,
/// a fiber on this thread, sends to the next host's passive server and
/// yields to its arrival. Counted from the step where the last fiber ends
/// its warm-up to the one where the first fiber is done.
#[test]
fn a_32_host_ring_of_gated_trips_allocates_nothing() {
    const HOSTS: u16 = 32;
    let apps = (0..HOSTS).map(|h| ThreadKey::app(HostId(h), 0));
    let servers = (0..HOSTS).map(|h| ThreadKey::server(HostId(h)));
    let sched = Scheduler::new(&SchedMode::deterministic(), servers.chain(apps).collect());
    let (net, eps) = Network::<u64>::new(HOSTS.into(), CostModel::default());
    let gate = net.attach_scheduler(&sched);
    let servers = (0..HOSTS).zip(eps).map(|(h, inbox)| {
        let mut vt = 0;
        let serve = move || match inbox.recv() {
            Some(pkt) => {
                vt = pkt.release_vt;
                Turn::Ran { vt }
            }
            None => Turn::Idle { vt },
        };
        (ThreadKey::server(HostId(h)), Box::new(serve) as _)
    });
    let (warm, window) = (Cell::new(0), Cell::new([None; 2]));
    let mark = |end: usize, t: &SchedThread| {
        let mut w = window.get();
        w[end].get_or_insert((allocs(), t.steps()));
        window.set(w);
    };
    let bodies = (0..HOSTS).map(|h| {
        let (net, mark, warm) = (&net, &mark, &warm);
        let body = move |t: SchedThread| {
            let mut now: Ns = 0;
            for i in 0..WARM_UP + MESSAGES / 10 {
                if i == WARM_UP {
                    warm.set(warm.get() + 1);
                    if warm.get() == HOSTS {
                        mark(0, &t);
                    }
                }
                now = net.send(HostId(h), HostId((h + 1) % HOSTS), i, 0, now);
                t.yield_now(now);
            }
            mark(1, &t);
        };
        (ThreadKey::app(HostId(h), 0), Box::new(body) as FiberBody)
    });
    let run = FiberRun {
        fibers: bodies.collect(),
        passive: servers.collect(),
        gate: Some(gate),
    };
    sched.run_fibers(run, || {});
    let [Some((before, first)), Some((after, last))] = window.get() else {
        panic!("the window never opened");
    };
    assert!(last - first >= MESSAGES, "{} steps counted", last - first);
    let doublings = (last.ilog2() - first.ilog2()) as usize;
    assert!(
        after - before <= doublings,
        "{} allocations over {} steps; the decision log doubled {doublings} times",
        after - before,
        last - first
    );
}
