//! Purpose-built cluster scenarios measuring the §4.2 costs in virtual
//! time.

use millipage::{run, AllocMode, ClusterConfig, CostModel, HostId, Ns};
use std::sync::Mutex;

/// Base configuration for microbenchmark scenarios: idle hosts (so the
/// poller, not the sweeper, answers — the paper's microbenchmarks ran on
/// otherwise-idle machines).
pub fn micro_cfg(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        views: 32,
        pages: 256,
        cost: CostModel::default(),
        alloc_mode: AllocMode::FINE,
        ..ClusterConfig::default()
    }
}

/// Virtual time to bring in a minipage of `size` bytes for reading
/// ("The time it takes to bring in a page for reading", §4.2).
///
/// `two_hop`: when `true`, the copy lives at a third host, so the request
/// takes requester → manager → holder; otherwise the manager host itself
/// holds the copy.
pub fn read_fault_time(size: usize, two_hop: bool) -> Ns {
    let hosts = if two_hop { 3 } else { 2 };
    let out = Mutex::new(0);
    run(
        micro_cfg(hosts),
        |s| {
            let v = s.alloc_vec::<u8>(size);
            s.write_vec(&v, 0, &vec![7u8; size]);
            v
        },
        |ctx, sv| {
            if two_hop && ctx.host() == HostId(2) {
                // Move the copy to host 2 (exclusive write).
                ctx.set(sv, 0, 1u8);
            }
            ctx.barrier();
            if ctx.host() == HostId(1) {
                let t0 = ctx.now();
                let _ = ctx.get(sv, 0);
                *out.lock().expect("result poisoned") = ctx.now() - t0;
            }
            ctx.barrier();
        },
    );
    out.into_inner().expect("result poisoned")
}

/// Virtual time to bring in a minipage of `size` bytes for writing with
/// `read_copies` read copies to invalidate first (§4.2: "These times vary
/// according to the number of read copies that should be invalidated").
pub fn write_fault_time(size: usize, read_copies: usize) -> Ns {
    let hosts = (read_copies + 2).max(2);
    let out = Mutex::new(0);
    run(
        micro_cfg(hosts),
        |s| {
            let v = s.alloc_vec::<u8>(size);
            s.write_vec(&v, 0, &vec![3u8; size]);
            v
        },
        |ctx, sv| {
            // Hosts 0..read_copies take read copies (host 0, the home,
            // already holds one).
            if ctx.host().index() < read_copies {
                let _ = ctx.get(sv, 0);
            }
            ctx.barrier();
            if ctx.host().index() == hosts - 1 {
                let t0 = ctx.now();
                ctx.set(sv, 0, 9u8);
                *out.lock().expect("result poisoned") = ctx.now() - t0;
            }
            ctx.barrier();
        },
    );
    out.into_inner().expect("result poisoned")
}

/// Virtual barrier latency observed by the last arriver, for `hosts`
/// hosts (§4.2: 59–153 µs, linear).
pub fn barrier_time(hosts: usize) -> Ns {
    let out = Mutex::new(0);
    run(
        micro_cfg(hosts),
        |_| (),
        |ctx, ()| {
            ctx.barrier(); // Align.
            if ctx.host().index() == hosts - 1 {
                ctx.compute(1_000_000); // Arrive last, everyone waiting.
                let t0 = ctx.now();
                ctx.barrier();
                *out.lock().expect("result poisoned") = ctx.now() - t0;
            } else {
                ctx.barrier();
            }
        },
    );
    out.into_inner().expect("result poisoned")
}

/// Virtual time of an uncontended lock followed by an unlock (§4.2:
/// 67–80 µs).
pub fn lock_unlock_time() -> Ns {
    let out = Mutex::new(0);
    run(
        micro_cfg(2),
        |_| (),
        |ctx, ()| {
            if ctx.host() == HostId(1) {
                let t0 = ctx.now();
                ctx.lock(5);
                ctx.unlock(5);
                *out.lock().expect("result poisoned") = ctx.now() - t0;
            }
            ctx.barrier();
        },
    );
    out.into_inner().expect("result poisoned")
}

/// Average minipage request service time with all hosts busy computing —
/// the §4.3.1 "750 µs average delay" effect. Returns (busy_avg, idle_avg).
pub fn busy_vs_idle_service(samples: usize) -> (Ns, Ns) {
    let measure = |busy: bool| -> Ns {
        let total = Mutex::new((0u128, 0u64));
        run(
            micro_cfg(2),
            |s| {
                (0..samples)
                    .map(|_| {
                        let v = s.alloc_vec::<u64>(16);
                        s.new_page();
                        v
                    })
                    .collect::<Vec<_>>()
            },
            |ctx, vs| {
                ctx.barrier();
                if ctx.host() == HostId(0) {
                    // The serving host: compute hard (busy) or idle.
                    if busy {
                        ctx.compute(1_000_000_000);
                    }
                } else {
                    for v in vs {
                        let t0 = ctx.now();
                        let _ = ctx.get(v, 0);
                        let mut t = total.lock().expect("result poisoned");
                        t.0 += (ctx.now() - t0) as u128;
                        t.1 += 1;
                    }
                }
                ctx.barrier();
            },
        );
        let (sum, n) = total.into_inner().expect("result poisoned");
        (sum / n.max(1) as u128) as Ns
    };
    (measure(true), measure(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipage::Category;

    #[test]
    fn read_fault_scales_with_minipage_size() {
        let small = read_fault_time(128, false);
        let large = read_fault_time(4096, false);
        // §4.2: 204 µs for 128 B → 314 µs for 4 KB. Accept the shape:
        // larger minipages cost more, both in the paper's ballpark.
        assert!(large > small, "4 KB {large} !> 128 B {small}");
        assert!(
            (100_000..500_000).contains(&small),
            "128 B read fault = {} ns",
            small
        );
        assert!(
            (150_000..700_000).contains(&large),
            "4 KB read fault = {} ns",
            large
        );
    }

    #[test]
    fn two_hop_difference_is_slight() {
        // §4.2: "The difference in arrival times for a minipage request
        // arriving in a single hop as opposed to two hops was slight."
        let one = read_fault_time(128, false) as f64;
        let two = read_fault_time(128, true) as f64;
        assert!(two >= one * 0.9);
        assert!(two < one * 2.0, "two-hop {two} vs one-hop {one}");
    }

    #[test]
    fn write_fault_grows_with_copies_to_invalidate() {
        let w0 = write_fault_time(128, 0);
        let w6 = write_fault_time(128, 6);
        assert!(w6 > w0, "more invalidations must cost more: {w0} vs {w6}");
        assert!((100_000..600_000).contains(&w0), "w0 = {w0}");
    }

    #[test]
    fn barrier_grows_linearly_with_hosts() {
        // §4.2: 59–153 µs, linear in the hosts — each one more arrival for
        // the manager to serve before it releases the last.
        let b: Vec<Ns> = (2..=8).map(barrier_time).collect();
        assert!((59_000..=153_000).contains(&b[0]), "b2 = {}", b[0]);
        let per_host = b[1].saturating_sub(b[0]);
        assert!(per_host > 0, "barrier times {b:?}");
        assert!(
            b.windows(2).all(|w| w[0] + per_host == w[1]),
            "not one constant per host: {b:?}"
        );
    }

    #[test]
    fn lock_unlock_in_paper_ballpark() {
        let t = lock_unlock_time();
        // Paper: 67–80 µs; accept a factor-two window around it.
        assert!((30_000..160_000).contains(&t), "lock+unlock = {t} ns");
    }

    #[test]
    fn busy_hosts_serve_much_slower() {
        let (busy, idle) = busy_vs_idle_service(20);
        assert!(
            busy > idle + 200_000,
            "sweeper delay must dominate: busy {busy} vs idle {idle}"
        );
        // §4.3.1: average delay about 750 µs, more than 500 µs of it from
        // the slow server response.
        assert!(
            (400_000..2_000_000).contains(&busy),
            "busy-mean = {busy} ns"
        );
    }

    #[test]
    fn breakdown_category_sees_synch_time() {
        // Sanity: the scenarios charge the categories the harness reads.
        let out = Mutex::new(0u64);
        run(
            micro_cfg(2),
            |_| (),
            |ctx, ()| {
                ctx.barrier();
                if ctx.host() == HostId(0) {
                    *out.lock().expect("result poisoned") = ctx.breakdown().get(Category::Synch);
                }
            },
        );
        assert!(out.into_inner().expect("result poisoned") > 0);
    }
}
