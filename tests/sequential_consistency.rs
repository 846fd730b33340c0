//! Sequential-consistency litmus tests against the Millipage cluster.
//!
//! §3.2: "The programming model in millipage is Sequential Consistency
//! ... parallel applications run on millipage as if they were executing on
//! a physically-shared memory SMP machine." The SW/MR protocol must
//! therefore forbid the classic weak-memory outcomes; these tests hammer
//! the racy windows and assert the forbidden results never appear.
//!
//! A run is one interleaving, a function of its [`SchedMode`], so every
//! shape is checked on a fixed list of them ([`on_each_schedule`]).

use millipage::{run, AllocMode, ClusterConfig, CostModel, HomePolicyKind, HostId, SchedMode};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn cfg(hosts: usize, seed: u64, sched: SchedMode) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 8,
        pages: 64,
        cost: CostModel::default(),
        alloc_mode: AllocMode::FINE,
        seed,
        sched,
        ..ClusterConfig::default()
    }
}

/// Seeds of the explored interleavings.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=24;

/// Runs `shape` on the canonical schedule, on `SchedMode::random(seed)` for
/// every seed and, with `pct`, on `SchedMode::pct(seed, 3)` too. A failure
/// is re-raised under the mode's constructor — the reproducer.
fn on_each_schedule(pct: bool, shape: impl Fn(SchedMode)) {
    let mut modes = vec![("deterministic()".to_string(), SchedMode::deterministic())];
    for seed in SEEDS {
        modes.push((format!("random({seed})"), SchedMode::random(seed)));
        if pct {
            modes.push((format!("pct({seed}, 3)"), SchedMode::pct(seed, 3)));
        }
    }
    for (name, mode) in modes {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| shape(mode))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panicked with a non-string payload");
            panic!("under SchedMode::{name}: {msg}");
        }
    }
}

#[test]
fn store_buffering_outcome_is_forbidden() {
    on_each_schedule(true, |sched| {
        // SB: h0: x=1; r1=y   h1: y=1; r2=x   — SC forbids r1=r2=0.
        const ROUNDS: usize = 40;
        let outcomes = Mutex::new(Vec::new());
        let report = run(
            cfg(2, 11, sched),
            |s| {
                let x = s.alloc_cell_init::<u32>(0);
                let y = s.alloc_cell_init::<u32>(0);
                (x, y)
            },
            |ctx, (x, y)| {
                let mut local = Vec::new();
                for round in 0..ROUNDS {
                    if ctx.host() == HostId(0) {
                        ctx.cell_set(x, 1);
                        local.push((round, ctx.cell_get(y)));
                    } else {
                        ctx.cell_set(y, 1);
                        local.push((round, ctx.cell_get(x)));
                    }
                    ctx.barrier();
                    // Reset for the next round.
                    if ctx.host() == HostId(0) {
                        ctx.cell_set(x, 0);
                        ctx.cell_set(y, 0);
                    }
                    ctx.barrier();
                }
                outcomes.lock().push((ctx.host(), local));
            },
        );
        assert!(report.coherence_violations.is_empty());
        let all = outcomes.into_inner();
        let h0 = &all.iter().find(|(h, _)| *h == HostId(0)).expect("h0 ran").1;
        let h1 = &all.iter().find(|(h, _)| *h == HostId(1)).expect("h1 ran").1;
        for round in 0..ROUNDS {
            let r1 = h0[round].1;
            let r2 = h1[round].1;
            assert!(
                !(r1 == 0 && r2 == 0),
                "round {round}: store-buffering outcome (0,0) observed — not SC"
            );
        }
    });
}

#[test]
fn message_passing_never_reads_stale_data() {
    on_each_schedule(false, |sched| {
        // MP: h0: data=42; flag=1   h1: spin on flag; read data — must be 42.
        // No PCT here: a priority schedule never deschedules a thread that can
        // run, so where the spinning reader outranks the writer the flag never
        // arrives (8 of the 24 seeds, 4 the first).
        let report = run(
            cfg(2, 13, sched),
            |s| {
                let data = s.alloc_cell_init::<u64>(0);
                let flag = s.alloc_cell_init::<u32>(0);
                (data, flag)
            },
            |ctx, (data, flag)| {
                if ctx.host() == HostId(0) {
                    ctx.compute(200_000);
                    ctx.cell_set(data, 42);
                    ctx.cell_set(flag, 1);
                } else {
                    let mut spins = 0u64;
                    while ctx.cell_get(flag) == 0 {
                        ctx.compute(10_000);
                        spins += 1;
                        assert!(spins < 5_000_000, "flag never arrived");
                    }
                    assert_eq!(
                        ctx.cell_get(data),
                        42,
                        "flag was visible before the data it publishes"
                    );
                }
                ctx.barrier();
            },
        );
        assert!(report.coherence_violations.is_empty());
    });
}

#[test]
fn iriw_observers_agree_on_write_order() {
    on_each_schedule(true, |sched| {
        // IRIW: two writers, two readers reading in opposite orders. SC
        // forbids the two readers disagreeing about the write order:
        // (r1,r2,r3,r4) = (1,0,1,0) must never appear.
        const ROUNDS: usize = 25;
        let per_reader = Mutex::new(Vec::<(usize, usize, u32, u32)>::new());
        let report = run(
            cfg(4, 17, sched),
            |s| {
                let x = s.alloc_cell_init::<u32>(0);
                let y = s.alloc_cell_init::<u32>(0);
                (x, y)
            },
            |ctx, (x, y)| {
                for round in 0..ROUNDS {
                    match ctx.host().index() {
                        0 => ctx.cell_set(x, 1),
                        1 => ctx.cell_set(y, 1),
                        2 => {
                            let r1 = ctx.cell_get(x);
                            let r2 = ctx.cell_get(y);
                            per_reader.lock().push((round, 2, r1, r2));
                        }
                        _ => {
                            let r3 = ctx.cell_get(y);
                            let r4 = ctx.cell_get(x);
                            per_reader.lock().push((round, 3, r3, r4));
                        }
                    }
                    ctx.barrier();
                    if ctx.host().index() == 0 {
                        ctx.cell_set(x, 0);
                    }
                    if ctx.host().index() == 1 {
                        ctx.cell_set(y, 0);
                    }
                    ctx.barrier();
                }
            },
        );
        assert!(report.coherence_violations.is_empty());
        let obs = per_reader.into_inner();
        for round in 0..ROUNDS {
            let a = obs
                .iter()
                .find(|(r, h, _, _)| *r == round && *h == 2)
                .expect("reader 2 observed");
            let b = obs
                .iter()
                .find(|(r, h, _, _)| *r == round && *h == 3)
                .expect("reader 3 observed");
            let forbidden = a.2 == 1 && a.3 == 0 && b.2 == 1 && b.3 == 0;
            assert!(
                !forbidden,
                "round {round}: IRIW readers disagree on write order — not SC"
            );
        }
    });
}

#[test]
fn single_location_writes_serialize() {
    on_each_schedule(true, |sched| {
        // Coherence: concurrent unsynchronized writes to one cell; after a
        // barrier everyone reads the same final value, equal to some host's
        // write.
        const ROUNDS: usize = 20;
        let finals = Mutex::new(Vec::new());
        let report = run(
            cfg(4, 23, sched),
            |s| s.alloc_cell_init::<u32>(999),
            |ctx, c| {
                for round in 0..ROUNDS {
                    ctx.cell_set(c, (round * 10 + ctx.host().index()) as u32);
                    ctx.barrier();
                    // Read before taking the host-local results lock: a DSM
                    // access can block on the protocol, and holding an OS lock
                    // across that wait deadlocks the deterministic scheduler
                    // (the lock-holder parks outside its yield points).
                    let v = ctx.cell_get(c);
                    finals.lock().push((round, ctx.host(), v));
                    ctx.barrier();
                }
            },
        );
        assert!(report.coherence_violations.is_empty());
        let all = finals.into_inner();
        for round in 0..ROUNDS {
            let vals: Vec<u32> = all
                .iter()
                .filter(|(r, _, _)| *r == round)
                .map(|(_, _, v)| *v)
                .collect();
            assert_eq!(vals.len(), 4);
            assert!(
                vals.windows(2).all(|w| w[0] == w[1]),
                "round {round}: readers disagree: {vals:?}"
            );
            let v = vals[0];
            assert!(
                (0..4).any(|h| v == (round * 10 + h) as u32),
                "round {round}: final value {v} was never written"
            );
        }
    });
}

#[test]
fn unsynchronized_sharing_still_coherent_under_page_grain() {
    on_each_schedule(true, |sched| {
        // The same serialization holds when everything false-shares one page.
        let report = run(
            ClusterConfig {
                alloc_mode: AllocMode::PageGrain,
                ..cfg(4, 29, sched)
            },
            |s| {
                let a = s.alloc_cell_init::<u64>(0);
                let b = s.alloc_cell_init::<u64>(0);
                (a, b)
            },
            |ctx, (a, b)| {
                for i in 0..30u64 {
                    if ctx.host().index() % 2 == 0 {
                        ctx.cell_set(a, i);
                        let _ = ctx.cell_get(b);
                    } else {
                        ctx.cell_set(b, i);
                        let _ = ctx.cell_get(a);
                    }
                }
                ctx.barrier();
                let (va, vb) = (ctx.cell_get(a), ctx.cell_get(b));
                assert_eq!(va, 29);
                assert_eq!(vb, 29);
            },
        );
        assert!(report.coherence_violations.is_empty());
        // A schedule can let one host finish before the other starts (a
        // priority schedule does), so only the minimum exchange is guaranteed:
        // the remote host fetches the page and the first host re-fetches it
        // for its final reads.
        assert!(
            report.read_faults + report.write_faults >= 2,
            "the page must move between hosts at least once"
        );
    });
}

#[test]
fn register_stays_linearizable_under_distributed_homes() {
    on_each_schedule(true, |sched| {
        // A single shared register written with strictly increasing values by
        // a rotating writer while every other host reads it concurrently.
        // Sequential consistency makes the register linearizable, which with
        // monotone writes means: every host's observed value sequence is
        // non-decreasing, every observed value was actually written, and
        // after the closing barrier everyone agrees on the final (maximal)
        // value. Exercised under both distributed home policies so the
        // invariant cannot depend on all directory state sitting on host 0.
        const ROUNDS: u32 = 12;
        const READS_PER_ROUND: u32 = 6;
        for policy in [HomePolicyKind::Interleaved, HomePolicyKind::FirstTouch] {
            for hosts in [2usize, 4, 8] {
                let observations = Mutex::new(Vec::<(HostId, Vec<u32>)>::new());
                let finals = Mutex::new(Vec::<u32>::new());
                let report = run(
                    ClusterConfig {
                        home_policy: policy,
                        ..cfg(hosts, 31, sched.clone())
                    },
                    |s| s.alloc_cell_init::<u32>(0),
                    |ctx, reg| {
                        let mut seen = Vec::new();
                        for round in 0..ROUNDS {
                            if ctx.host().index() == round as usize % ctx.hosts() {
                                // Monotone writes: round+1 strictly increases.
                                ctx.cell_set(reg, round + 1);
                            } else {
                                for _ in 0..READS_PER_ROUND {
                                    seen.push(ctx.cell_get(reg));
                                    ctx.compute(5_000);
                                }
                            }
                            ctx.barrier();
                        }
                        // As above: never hold the results lock across a DSM
                        // access.
                        let last = ctx.cell_get(reg);
                        finals.lock().push(last);
                        observations.lock().push((ctx.host(), seen));
                    },
                );
                let tag = format!("{policy:?} hosts={hosts}");
                assert!(report.coherence_violations.is_empty(), "{tag}");
                for (host, seen) in observations.into_inner() {
                    assert!(
                        seen.windows(2).all(|w| w[0] <= w[1]),
                        "{tag}: host {host} saw the register go backwards: {seen:?}"
                    );
                    assert!(
                        seen.iter().all(|&v| v <= ROUNDS),
                        "{tag}: host {host} read a never-written value: {seen:?}"
                    );
                }
                let finals = finals.into_inner();
                assert!(
                    finals.iter().all(|&v| v == ROUNDS),
                    "{tag}: hosts disagree on the final value: {finals:?}"
                );
            }
        }
    });
}
