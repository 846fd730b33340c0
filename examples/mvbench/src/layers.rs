//! The per-layer drivers: each reaches one crate through its public
//! functions only and times those calls from outside. Work per driver is
//! fixed (not scaled by `--seconds`) so two runs measure the same thing.

use crate::metrics::{median, quantile, Values};
use crate::spans::Spans;
use hostmv::{install_handler, HostProt, MultiViewRegion};
use millipage::diff::Diff;
use millipage::{
    run, run_host, AllocMode, ClusterConfig, CostModel, Dsm, HostId, HostRunConfig, MsgKind, Pmsg,
    SchedMode, SharedVec, TraceEvent, TraceKind, Tracer, Track,
};
use multiview::Allocator;
use sim_core::sched::{BlockOutcome, Scheduler, ThreadKey};
use sim_mem::{AddressSpace, Geometry, Prot};
use sim_net::Network;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every driver, in the order the README's interaction table lists the
/// layers. `quick` divides the work by 16.
pub fn run_all(values: &mut Values, spans: &mut Spans, quick: bool) {
    let scale = if quick { 16 } else { 1 };
    type Driver = fn(&mut Values, usize);
    let drivers: [(&str, Driver); 9] = [
        ("sim-core.sched", sched),
        ("sim-core.trace", trace),
        ("sim-net", net),
        ("sim-mem", mem),
        ("multiview", mview),
        ("core.diff", diff),
        ("core.proto", proto_sim),
        ("core.hostrun", proto_host),
        ("hostmv", hostmv),
    ];
    spans.begin("layers");
    for (name, driver) in drivers {
        spans.time(name, || driver(values, scale));
    }
    spans.end();
}

/// Median over five passes of the mean nanoseconds one call of `f` takes
/// in a pass of `iters` calls (after one untimed call).
fn ns_per_op(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&passes)
}

// --- sim-core: scheduler ----------------------------------------------------

/// Runs `threads` simulated threads under the deterministic scheduler:
/// the first `blocked` park in `block_until` until the rest are done, the
/// rest each take `steps` yields (bumping the action counter first when
/// anyone is parked, which is what wakes a parked thread to re-check).
/// Returns the seconds from the first active thread's start to the last
/// one's end.
fn sched_ring(threads: usize, blocked: usize, steps: u64) -> f64 {
    let keys: Vec<ThreadKey> = (0..threads)
        .map(|t| ThreadKey::app(HostId(0), t as u16))
        .collect();
    let sched = Scheduler::new(&SchedMode::deterministic(), keys.clone());
    let active = AtomicUsize::new(threads - blocked);
    let window = Mutex::new(None::<(Instant, Instant)>);
    std::thread::scope(|scope| {
        for (lane, key) in keys.iter().enumerate() {
            let (sched, active, window) = (&sched, &active, &window);
            scope.spawn(move || {
                let me = sched.attach(*key);
                if lane < blocked {
                    let done = || (active.load(Ordering::SeqCst) == 0).then_some(());
                    if let BlockOutcome::Poisoned = me.block_until(0, done) {
                        panic!("scheduler poisoned under the wake driver");
                    }
                    return;
                }
                let start = Instant::now();
                for step in 1..=steps {
                    if blocked > 0 {
                        sched.bump_action();
                    }
                    me.yield_now(step);
                }
                let end = Instant::now();
                active.fetch_sub(1, Ordering::SeqCst);
                let mut w = window.lock().expect("window lock");
                let (first, last) = w.unwrap_or((start, end));
                *w = Some((first.min(start), last.max(end)));
            });
        }
    });
    let (first, last) = window
        .into_inner()
        .expect("window lock")
        .expect("an active thread ran");
    (last - first).as_secs_f64()
}

fn sched(v: &mut Values, scale: usize) {
    const NAMES: [(usize, &str, &str); 3] = [
        (8, "sim-core.sched.yield_us.t8", "sim-core.sched.wake_us.t8"),
        (
            32,
            "sim-core.sched.yield_us.t32",
            "sim-core.sched.wake_us.t32",
        ),
        (
            128,
            "sim-core.sched.yield_us.t128",
            "sim-core.sched.wake_us.t128",
        ),
    ];
    for (threads, yield_name, wake_name) in NAMES {
        let steps = (16_384 / scale / threads).max(1) as u64;
        let s = sched_ring(threads, 0, steps);
        v.insert(yield_name, s * 1e6 / (threads as u64 * steps) as f64);
        let active = threads / 2;
        let steps = (2_048 / scale / active).max(1) as u64;
        let s = sched_ring(threads, threads - active, steps);
        v.insert(wake_name, s * 1e6 / (active as u64 * steps) as f64);
    }
}

// --- sim-core: trace --------------------------------------------------------

fn trace(v: &mut Values, scale: usize) {
    let events = (1usize << 16) / scale;
    let record = |tracer: &Tracer| {
        let mut rec = tracer.recorder(HostId(0), Track::App(0));
        let t = Instant::now();
        for i in 0..events {
            let ev = TraceEvent::new(i as u64, HostId(0), Track::App(0), TraceKind::MsgSend);
            rec.record(black_box(ev.with_mp(i as u32)));
        }
        t.elapsed().as_nanos() as f64 / events as f64
    };
    // A fresh ring per pass, sized to hold the pass: the append path a
    // complete (nothing dropped) trace pays.
    let on: Vec<f64> = (0..5).map(|_| record(&Tracer::enabled(events))).collect();
    let off: Vec<f64> = (0..5).map(|_| record(&Tracer::disabled())).collect();
    v.insert("sim-core.trace.record_ns", median(&on));
    v.insert("sim-core.trace.disabled_ns", median(&off));
}

// --- sim-net ----------------------------------------------------------------

fn net(v: &mut Values, scale: usize) {
    let (_net, eps) = Network::<Pmsg>::new(2, CostModel::default());
    let page = [7u8; 4096];
    for (name, payload) in [
        ("sim-net.send_recv_ns.hdr", &page[..0]),
        ("sim-net.send_recv_ns.4k", &page[..]),
    ] {
        let mut now = 0;
        // The payload is built per message, as a serving host does from
        // its privileged view, and dropped by the receiver.
        let ns = ns_per_op(50_000 / scale, || {
            let mut msg = Pmsg::new(MsgKind::ReadReply, HostId(0), 1);
            msg.data = black_box(payload).to_vec().into();
            now = eps[0].send(HostId(1), msg, payload.len(), now);
            black_box(eps[1].recv().expect("packet delivered"));
        });
        v.insert(name, ns);
    }
}

// --- sim-mem ----------------------------------------------------------------

fn mem(v: &mut Values, scale: usize) {
    let ops = 400_000 / scale;
    let range_ops = ops / 64;
    let out = Mutex::new([0f64; 4]);
    let cfg = ClusterConfig {
        hosts: 1,
        sched: SchedMode::deterministic(),
        ..ClusterConfig::default()
    };
    run(
        cfg,
        |s| s.alloc_vec_init(&[0f64; 512]),
        |ctx, sv| {
            // The first write faults the page in writable; every access
            // after it is the non-faulting path under test.
            ctx.write_range(sv, 0, &[1.5f64; 512]);
            let mut k = 0usize;
            let get = ns_per_op(ops, || {
                k += 1;
                black_box(ctx.get(sv, k & 511));
            });
            let set = ns_per_op(ops, || {
                k += 1;
                ctx.set(sv, k & 511, k as f64);
            });
            let read = ns_per_op(range_ops, || {
                black_box(ctx.read_range(sv, 0..512));
            });
            let vals = [2.5f64; 512];
            let write = ns_per_op(range_ops, || ctx.write_range(sv, 0, black_box(&vals)));
            *out.lock().expect("result lock") = [get, set, read, write];
        },
    );
    let [get, set, read, write] = out.into_inner().expect("result lock");
    v.insert("sim-mem.get8_ns", get);
    v.insert("sim-mem.set8_ns", set);
    v.insert("sim-mem.read_range4k_ns", read);
    v.insert("sim-mem.write_range4k_ns", write);

    let geo = Geometry::new(16, 4);
    let space = AddressSpace::new(geo.clone());
    let vpage = geo.vpage_index(0, 0);
    let addr = geo.addr_of(0, 0, 64);
    space
        .set_prot(vpage, Prot::ReadWrite)
        .expect("application vpage");
    let mut buf = [0u8; 8];
    let slow = ns_per_op(ops, || {
        space
            .read(black_box(addr), &mut buf)
            .expect("readable page");
    });
    v.insert("sim-mem.slow_read8_ns", slow);
    let toggle = ns_per_op(ops / 2, || {
        space
            .set_prot(vpage, Prot::ReadOnly)
            .expect("application vpage");
        space
            .set_prot(vpage, Prot::ReadWrite)
            .expect("application vpage");
    });
    v.insert("sim-mem.set_prot_ns", toggle / 2.0);
}

// --- multiview --------------------------------------------------------------

fn mview(v: &mut Values, scale: usize) {
    // 32 768 row-sized minipages (SOR's paper input), sixteen to a page.
    let n = 32_768 / scale;
    let geo = Geometry::new(n / 16 + 64, 16);
    let fill = || {
        let mut alloc = Allocator::new(geo.clone(), AllocMode::FINE);
        let t = Instant::now();
        let addrs: Vec<_> = (0..n)
            .map(|_| alloc.alloc(256).expect("memory object sized for n rows"))
            .collect();
        (t.elapsed().as_nanos() as f64 / n as f64, alloc, addrs)
    };
    let passes: Vec<f64> = (0..5).map(|_| fill().0).collect();
    v.insert("multiview.alloc_ns", median(&passes));
    let (_, alloc, addrs) = fill();
    let mut i = 0usize;
    let ns = ns_per_op(n * 4, || {
        i = (i + 7919) % n; // a prime stride: every minipage, out of order
        let mp = alloc.mpt().translate(&geo, addrs[i].add(100));
        black_box(mp.expect("allocated address translates"));
    });
    v.insert("multiview.translate_ns", ns);
}

// --- core: diff -------------------------------------------------------------

/// A (twin, current) pair: `dense` flips every byte, `sparse` eight
/// isolated bytes, `straddle` 4-byte runs that cross u64 word boundaries
/// (the case a word-scanning diff must refine byte by byte).
fn diff_pair(size: usize, pattern: &str) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
    let mut cur = twin.clone();
    match pattern {
        "dense" => cur.iter_mut().for_each(|b| *b ^= 0xA5),
        "sparse" => (0..8).for_each(|k| cur[size / 16 + k * (size / 8)] ^= 0xFF),
        "straddle" => (6..size - 4)
            .step_by(64)
            .for_each(|i| cur[i..i + 4].iter_mut().for_each(|b| *b ^= 0x5A)),
        other => panic!("unknown diff pattern {other}"),
    }
    (twin, cur)
}

fn diff(v: &mut Values, scale: usize) {
    let iters = 20_000 / scale;
    for (name, size, pattern) in [
        ("core.diff.compute_ns.16-dense", 16, "dense"),
        ("core.diff.compute_ns.256-dense", 256, "dense"),
        ("core.diff.compute_ns.4k-sparse", 4096, "sparse"),
        ("core.diff.compute_ns.4k-dense", 4096, "dense"),
        ("core.diff.compute_ns.4k-straddle", 4096, "straddle"),
    ] {
        let (twin, cur) = diff_pair(size, pattern);
        let ns = ns_per_op(iters, || {
            black_box(Diff::compute(black_box(&twin), black_box(&cur)));
        });
        v.insert(name, ns);
    }
    let (twin, cur) = diff_pair(4096, "dense");
    let d = Diff::compute(&twin, &cur);
    let mut target = twin.clone();
    let apply = ns_per_op(iters, || d.apply(black_box(&mut target)));
    v.insert("core.diff.apply_ns.4k-dense", apply);
    let encode = ns_per_op(iters, || {
        black_box(d.encode());
    });
    v.insert("core.diff.encode_ns.4k-dense", encode);
    let wire = d.encode().into();
    let decode = ns_per_op(iters, || {
        black_box(Diff::decode(black_box(&wire)).expect("well-formed diff"));
    });
    v.insert("core.diff.decode_ns.4k-dense", decode);
}

// --- core: the protocol, on the simulator and on real memory ----------------

/// Host wall microseconds of each primitive of one application thread.
#[derive(Default)]
struct PingPong {
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    barrier_us: Vec<f64>,
}

/// The paper's §4.2 primitives, back to back, on either backend: the
/// hosts take turns writing one shared word, the other reads it back, a
/// barrier in between. From the second round on every write is a write
/// fault with one invalidation and every read a read fault.
fn ping_pong<D: Dsm>(ctx: &mut D, word: &SharedVec<u64>, rounds: u64, out: &Mutex<PingPong>) {
    let me = ctx.host().index() as u64;
    let us = |t: Instant| t.elapsed().as_nanos() as f64 / 1e3;
    let mut mine = PingPong::default();
    for r in 0..rounds {
        if r % 2 == me {
            let t = Instant::now();
            ctx.write_range(word, 0, &[r + 1]);
            mine.write_us.push(us(t));
        }
        let t = Instant::now();
        ctx.barrier();
        mine.barrier_us.push(us(t));
        if r % 2 != me {
            let t = Instant::now();
            let got = ctx.read_range(word, 0..1);
            mine.read_us.push(us(t));
            assert_eq!(got[0], r + 1, "ping-pong read a stale word");
        }
        ctx.barrier();
    }
    let mut all = out.lock().expect("sample lock");
    all.read_us.extend(mine.read_us);
    all.write_us.extend(mine.write_us);
    all.barrier_us.extend(mine.barrier_us);
}

fn insert_ping_pong(v: &mut Values, names: [&'static str; 5], samples: PingPong) {
    let [r50, r99, w50, w99, b50] = names;
    v.insert(r50, quantile(&samples.read_us, 0.5));
    v.insert(r99, quantile(&samples.read_us, 0.99));
    v.insert(w50, quantile(&samples.write_us, 0.5));
    v.insert(w99, quantile(&samples.write_us, 0.99));
    v.insert(b50, quantile(&samples.barrier_us, 0.5));
}

fn proto_sim(v: &mut Values, scale: usize) {
    let rounds = 2_048 / scale as u64;
    let out = Mutex::new(PingPong::default());
    let cfg = ClusterConfig {
        hosts: 2,
        sched: SchedMode::deterministic(),
        ..ClusterConfig::default()
    };
    let report = run(
        cfg,
        |s| s.alloc_vec_init(&[0u64]),
        |ctx, word| ping_pong(ctx, word, rounds, &out),
    );
    assert!(
        report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
        "ping-pong broke the protocol on the simulator"
    );
    let names = [
        "core.proto.read_fault_wall_us.p50",
        "core.proto.read_fault_wall_us.p99",
        "core.proto.write_fault_wall_us.p50",
        "core.proto.write_fault_wall_us.p99",
        "core.proto.barrier_wall_us.p50",
    ];
    insert_ping_pong(v, names, out.into_inner().expect("sample lock"));
}

fn proto_host(v: &mut Values, scale: usize) {
    let rounds = 2_048 / scale as u64;
    let out = Mutex::new(PingPong::default());
    let report = run_host(
        HostRunConfig::default(),
        |s| s.alloc_vec_init(&[0u64]),
        |ctx, word| ping_pong(ctx, word, rounds, &out),
    )
    .expect("real-memory cluster assembles");
    assert!(
        report.errors.is_empty(),
        "ping-pong broke the protocol on real memory: {:?}",
        report.errors
    );
    let names = [
        "core.hostrun.read_fault_us.p50",
        "core.hostrun.read_fault_us.p99",
        "core.hostrun.write_fault_us.p50",
        "core.hostrun.write_fault_us.p99",
        "core.hostrun.barrier_us.p50",
    ];
    insert_ping_pong(v, names, out.into_inner().expect("sample lock"));
}

// --- hostmv -----------------------------------------------------------------

fn hostmv(v: &mut Values, scale: usize) {
    let region = Arc::new(MultiViewRegion::new(4, 2).expect("mmap views"));
    install_handler(Arc::clone(&region)).expect("SIGSEGV handler installs");
    let protect = |page, prot| region.protect(0, page, prot).expect("mprotect");
    let toggle = ns_per_op(20_000 / scale, || {
        protect(0, HostProt::ReadOnly);
        protect(0, HostProt::ReadWrite);
    });
    v.insert("hostmv.protect_ns", toggle / 2.0);
    let get = ns_per_op(400_000 / scale, || {
        black_box(region.prot(0, black_box(0)));
    });
    v.insert("hostmv.prot_get_ns", get);
    // The built-in ladder: SIGSEGV entry, decode, mprotect, resume.
    let faults: Vec<f64> = (0..4_096 / scale)
        .map(|i| {
            protect(1, HostProt::NoAccess);
            let t = Instant::now();
            region.write_u8(0, 1, 0, i as u8);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    v.insert("hostmv.fault_us.p50", quantile(&faults, 0.5));
    v.insert("hostmv.fault_us.p99", quantile(&faults, 0.99));
    let page = [9u8; 4096];
    let write = ns_per_op(100_000 / scale, || {
        region.priv_write(2, 0, black_box(&page))
    });
    v.insert("hostmv.priv_write4k_ns", write);
}
