//! The paper's tables and figures (plus the §5 ablations): Table 1, the
//! §4.2 costs, Figures 5–7, Table 2, the manager sweep.

use millipage::{
    run, AllocMode, Category, ClusterConfig, Consistency, CostModel, HomePolicyKind, Ns, SharedCell,
};
use millipage_apps::{water, AppRun};
use millipage_bench::apps::{app_cfg, app_specs, water_sweep_params};
use millipage_bench::cli::{Backend, Flags, Gate, UsageError};
use millipage_bench::{header, render_table, scenarios, us, Table};
use sim_cache::fig5::{point, predicted_break_views, Fig5Config};

/// Parses the flags of a subcommand that takes `--quick` and nothing else.
fn quick_only(f: &mut Flags) -> Result<bool, UsageError> {
    let quick = f.switch("--quick");
    f.finish()?;
    Ok(quick)
}

// ----------------------------------------------------------------------
// Table 1: cost of basic operations.
// ----------------------------------------------------------------------

pub fn table1(f: &mut Flags, _: &mut Gate) -> Result<(), UsageError> {
    quick_only(f)?;
    header("Table 1 — Cost of basic operations in millipage (paper vs model)");
    let c = CostModel::default();
    let mut table = Table::default();
    for (op, paper, model) in [
        ("access fault", "26", c.access_fault),
        ("get protection", "7", c.get_protection),
        ("set protection", "12", c.set_protection),
        ("header message send/recv (32 bytes)", "12", c.msg_time(0)),
        ("a data message send/recv (0.5 KB)", "22", c.msg_time(512)),
        ("a data message send/recv (1 KB)", "34", c.msg_time(1024)),
        ("a data message send/recv (4 KB)", "90", c.msg_time(4096)),
        ("minipage translation (MPT lookup)", "7", c.mpt_lookup),
    ] {
        table.row([
            ("operation", &op),
            ("paper us", &paper),
            ("model us", &us(model)),
        ]);
    }
    table.print();
    Ok(())
}

// ----------------------------------------------------------------------
// §4.2 prose costs, measured on live scenarios.
// ----------------------------------------------------------------------

pub fn costs(f: &mut Flags, _: &mut Gate) -> Result<(), UsageError> {
    quick_only(f)?;
    header("S4.2 — Measured protocol costs (virtual time, idle hosts)");
    println!("paper: read fault 204 us (128 B) -> 314 us (4 KB); write fault");
    println!("212-366 us (128 B) / 327-480 us (4 KB) by #copies invalidated;");
    println!("barrier 59-153 us (1-8 hosts); lock+unlock 67-80 us;");
    println!("run-length diff 250 us per 4 KB page (not needed by millipage).\n");

    let mut table = Table::default();
    let mut push =
        |scenario: String, ns: Ns| table.row([("scenario", &scenario), ("measured us", &us(ns))]);
    for (what, size, two_hop) in [
        ("128 B, one hop", 128, false),
        ("128 B, two hops", 128, true),
        ("4 KB, one hop", 4096, false),
    ] {
        push(
            format!("read fault, {what}"),
            scenarios::read_fault_time(size, two_hop),
        );
    }
    for (what, size, copies) in [
        ("128 B", 128, 0usize),
        ("128 B", 128, 3),
        ("128 B", 128, 6),
        ("4 KB", 4096, 0),
        ("4 KB", 4096, 6),
    ] {
        push(
            format!("write fault, {what}, {copies} copies invalidated"),
            scenarios::write_fault_time(size, copies),
        );
    }
    for hosts in [1usize, 2, 4, 8] {
        push(
            format!("barrier, {hosts} hosts"),
            scenarios::barrier_time(hosts),
        );
    }
    push(
        "lock + unlock, uncontended".into(),
        scenarios::lock_unlock_time(),
    );
    let (busy, idle) = scenarios::busy_vs_idle_service(20);
    push("read fault served by busy host (S3.5.1)".into(), busy);
    push("read fault served by idle host".into(), idle);
    push(
        "run-length diff of a 4 KB page (would-be cost)".into(),
        CostModel::default().diff_time(4096),
    );
    table.print();
    Ok(())
}

// ----------------------------------------------------------------------
// Figure 5: MultiView overhead vs number of views.
// ----------------------------------------------------------------------

pub fn fig5(f: &mut Flags, _: &mut Gate) -> Result<(), UsageError> {
    let quick = quick_only(f)?;
    header("Figure 5 — Overheads of MultiView (slowdown vs #views)");
    let cfg = Fig5Config::default();
    const MB: usize = 1 << 20;
    let sizes: &[usize] = if quick {
        &[512 * 1024, 2 * MB, 8 * MB]
    } else {
        &[512 * 1024, MB, 2 * MB, 4 * MB, 8 * MB, 16 * MB]
    };
    // The paper's x-axis: 16, 64, 112, …, 496 (step 48).
    let views: &[usize] = if quick {
        &[1, 16, 32, 64, 128, 256, 512]
    } else {
        &[1, 16, 64, 112, 160, 208, 256, 304, 352, 400, 448, 496]
    };
    let mut rows = vec![{
        let mut h = vec!["views".to_string()];
        h.extend(sizes.iter().map(|s| format!("{}KB", s / 1024)));
        h
    }];
    for &v in views {
        let mut r = vec![v.to_string()];
        for &n in sizes {
            r.push(format!("{:.2}", point(&cfg, n, v).slowdown));
        }
        rows.push(r);
    }
    print!("{}", render_table(&rows));
    println!("predicted breaking points (PTE footprint = L2 size, n*N ~ 512 MB):");
    for &n in sizes {
        println!(
            "  N = {:>6} KB -> n ~ {}",
            n / 1024,
            predicted_break_views(&cfg, n)
        );
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Table 2: application suite.
// ----------------------------------------------------------------------

/// `--backend host` runs the host-capable subset on real memory instead.
pub fn table2(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = f.switch("--quick");
    let hosts = f.hosts(8)?;
    let backend = f.value("--backend")?.unwrap_or(Backend::Sim);
    f.finish()?;
    match backend {
        Backend::Sim => {}
        #[cfg(target_os = "linux")]
        Backend::Host => {
            crate::backends::table2_host(quick, gate);
            return Ok(());
        }
    }
    header(&format!(
        "Table 2 — Application suite (measured on {hosts} hosts)"
    ));
    let mut table = Table::default();
    for spec in app_specs(quick, false, hosts) {
        let r = (spec.run)(app_cfg(hosts));
        gate.clean(&r.report, spec.name);
        let a = &r.report.alloc;
        let granularity = if a.min_granularity == a.max_granularity {
            format!("{}", a.min_granularity)
        } else {
            format!("{}-{}", a.min_granularity, a.max_granularity)
        };
        table.row([
            ("app", &spec.name),
            ("input set", &spec.input),
            ("shared mem", &format!("{} KB", a.bytes_requested / 1024)),
            ("views", &a.views_used),
            ("granularity B", &granularity),
            ("barriers", &r.report.barriers),
            ("locks", &r.report.lock_acquires),
        ]);
    }
    table.print();
    println!("paper: SOR 8MB/16/256B/21/-; IS 2KB/8/256B/90/-; WATER");
    println!("336KB/6/672B/29/6720; LU 8MB/1/4KB/577/-; TSP 785KB/27/148B/3/681");
    Ok(())
}

// ----------------------------------------------------------------------
// Figure 6: speedups and breakdown.
// ----------------------------------------------------------------------

pub fn fig6(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = quick_only(f)?;
    header("Figure 6 — Speedups (1..8 hosts) and 8-host time breakdown");
    let host_counts = [1usize, 2, 4, 8];
    let mut speedup_rows = vec![{
        let mut h = vec!["app".to_string()];
        h.extend(host_counts.iter().map(|h| format!("{h} hosts")));
        h
    }];
    let shares = [
        ("Comp %", Category::Comp),
        ("Prefetch %", Category::Prefetch),
        ("Read Fault %", Category::ReadFault),
        ("Write Fault %", Category::WriteFault),
        ("Synch %", Category::Synch),
    ];
    let mut breakdown_rows = vec![{
        let mut h = vec!["app (8 hosts)".to_string()];
        h.extend(shares.iter().map(|s| s.0.to_string()));
        h
    }];
    for spec in app_specs(quick, true, 8) {
        let mut t1: Ns = 0;
        let mut speedups = vec![spec.name.to_string()];
        let mut last: Option<AppRun> = None;
        for &h in &host_counts {
            let r = (spec.run)(app_cfg(h));
            gate.clean(&r.report, spec.name);
            if h == 1 {
                t1 = r.timed_ns;
            }
            speedups.push(format!("{:.2}", r.speedup(t1)));
            last = Some(r);
        }
        speedup_rows.push(speedups);
        let r8 = last.expect("ran at least one host count");
        let mut breakdown = vec![spec.name.to_string()];
        for (_, cat) in shares {
            breakdown.push(format!("{:.1}", 100.0 * r8.timed_breakdown.fraction(cat)));
        }
        breakdown_rows.push(breakdown);
    }
    print!("{}", render_table(&speedup_rows));
    println!();
    print!("{}", render_table(&breakdown_rows));
    println!("paper: IS and SOR close to linear; LU relatively good (with");
    println!("prefetch); WATER comparable to relaxed-consistency systems");
    println!("(with chunking, see fig7); TSP moderate.");
    Ok(())
}

// ----------------------------------------------------------------------
// Figure 7: chunking in WATER.
// ----------------------------------------------------------------------

pub fn fig7(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = quick_only(f)?;
    header("Figure 7 — The effect of chunking in WATER (4 and 8 hosts)");
    let p = water_sweep_params(quick);
    let levels = (1..=6usize)
        .map(|chunking| (chunking.to_string(), AllocMode::FineGrain { chunking }))
        .chain([("none".to_string(), AllocMode::PageGrain)]);
    // Per chunking level: the run at 4 hosts and the run at 8.
    let results: Vec<(String, [AppRun; 2])> = levels
        .map(|(label, alloc_mode)| {
            let pair = [4usize, 8].map(|hosts| {
                let r = water::run_water(
                    ClusterConfig {
                        alloc_mode,
                        ..app_cfg(hosts)
                    },
                    p,
                );
                gate.clean(&r.report, &format!("chunking {label}, {hosts} hosts"));
                r
            });
            (label, pair)
        })
        .collect();
    // Efficiency is relative to the best level per host count (the paper
    // normalizes the same way).
    let best = [0, 1].map(|i| {
        results
            .iter()
            .map(|(_, pair)| pair[i].timed_ns)
            .min()
            .expect("nonempty")
    });
    let mut table = Table::default();
    for (label, [r4, r8]) in &results {
        let faults = |r: &AppRun| r.report.read_faults + r.report.write_faults;
        let efficiency =
            |i: usize, r: &AppRun| format!("{:.2}", best[i] as f64 / r.timed_ns as f64);
        table.row([
            ("chunking", label),
            ("compete req (4)", &r4.report.competing_requests),
            ("compete req (8)", &r8.report.competing_requests),
            ("R/W faults (4)", &faults(r4)),
            ("R/W faults (8)", &faults(r8)),
            ("efficiency (4)", &efficiency(0, r4)),
            ("efficiency (8)", &efficiency(1, r8)),
        ]);
    }
    table.print();
    println!("paper: competing requests rise with chunking (21 at level 1 up");
    println!("to 601 at none); faults fall; best efficiency at level 4 (4");
    println!("hosts) / 5 (8 hosts).");
    Ok(())
}

// ----------------------------------------------------------------------
// Ablations / extensions.
// ----------------------------------------------------------------------

pub fn ablate(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = quick_only(f)?;
    header("Ablations — fast polling what-if; fine vs page granularity");
    let p = water_sweep_params(quick);
    let chunk5 = AllocMode::FineGrain { chunking: 5 };
    let cfg = |alloc_mode, consistency, cost| ClusterConfig {
        alloc_mode,
        consistency,
        cost,
        ..app_cfg(8)
    };
    let (sc, rc) = (Consistency::SequentialSwMr, Consistency::HomeEagerRc);
    let nt = CostModel::default; // The paper's NT timers.
                                 // The S5 hypothesis: chunking + reduced consistency removes the
                                 // chunk-level false sharing that SW/MR pays for in competing requests.
    let configs = [
        (
            "fine grain, NT timers (paper)",
            cfg(AllocMode::FINE, sc, nt()),
            p,
        ),
        (
            "fine grain, fast polling (S3.5 what-if)",
            cfg(AllocMode::FINE, sc, CostModel::fast_polling()),
            p,
        ),
        ("chunking 5, NT timers", cfg(chunk5, sc, nt()), p),
        (
            "page grain (no false-sharing control)",
            cfg(AllocMode::PageGrain, sc, nt()),
            p,
        ),
        (
            "chunking 5, release consistency (S5 extension)",
            cfg(chunk5, rc, nt()),
            p,
        ),
        (
            "page grain, release consistency",
            cfg(AllocMode::PageGrain, rc, nt()),
            p,
        ),
        (
            "fine grain + composed-view read phase (S5)",
            app_cfg(8),
            water::WaterParams {
                grouped_read: true,
                ..p
            },
        ),
    ];
    let mut table = Table::default();
    for (name, cfg, params) in configs {
        let r = water::run_water(cfg, params);
        gate.clean(&r.report, name);
        table.row([
            ("configuration (WATER, 8 hosts)", &name),
            ("virtual ms", &format!("{:.2}", r.timed_ns as f64 / 1e6)),
            ("faults", &(r.report.read_faults + r.report.write_faults)),
            ("competing", &r.report.competing_requests),
        ]);
    }
    table.print();
    println!("paper S4.3.1/S5: solving the polling/timer problems shrinks");
    println!("fault service times and lowers the optimal chunking level;");
    println!("composed views pipeline the read phase without chunking's");
    println!("false-sharing cost.");
    Ok(())
}

// ----------------------------------------------------------------------
// §5 extension: distributed minipage management.
// ----------------------------------------------------------------------

/// The all-to-all hot-spot workload: every host allocates one hot cell at
/// runtime (so first-touch homes it locally), publishes its address
/// through a setup-allocated board, and then all hosts hammer all cells
/// with unsynchronized read-modify-writes. Under the centralized manager
/// every service window lives on host 0; the distributed policies split
/// them, which is exactly the §5 "distribute the minipage management
/// among several managers" fix this sweep quantifies.
pub fn manager_sweep(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = quick_only(f)?;
    header("Manager sweep — home policies vs the management hot spot (8 hosts)");
    let hosts = 8usize;
    let rounds: u64 = if quick { 40 } else { 200 };
    let mut table = Table::default();
    for policy in [
        HomePolicyKind::Centralized,
        HomePolicyKind::Interleaved,
        HomePolicyKind::FirstTouch,
    ] {
        let cfg = ClusterConfig {
            hosts,
            views: 16,
            pages: 128,
            home_policy: policy,
            seed: 41,
            ..ClusterConfig::default()
        };
        let report = run(
            cfg,
            |s| s.alloc_vec_init(&vec![0u64; hosts]),
            move |ctx, board| {
                // Runtime allocation: first-touch homes the cell here.
                let mine = ctx.alloc_cell::<u64>();
                let me = ctx.host().index();
                ctx.set(board, me, mine.addr().0);
                ctx.barrier();
                let cells: Vec<SharedCell<u64>> = (0..ctx.hosts())
                    .map(|h| {
                        let raw = ctx.get(board, h);
                        SharedCell::from_raw(millipage::VAddr(raw))
                    })
                    .collect();
                ctx.barrier();
                // The hammer: all hosts, all cells, no synchronization —
                // the service windows serialize the racing requests and
                // every queued one counts as competing (Figure 7's metric).
                for round in 0..rounds {
                    for (i, c) in cells.iter().enumerate() {
                        let v = ctx.cell_get(c);
                        ctx.cell_set(c, v + 1);
                        if (round as usize + i + me).is_multiple_of(3) {
                            ctx.compute(2_000);
                        }
                    }
                }
                ctx.barrier();
            },
        );
        gate.clean(&report, &format!("{policy:?}"));
        let faults = report.read_faults + report.write_faults;
        let fault_ns =
            report.breakdown.get(Category::ReadFault) + report.breakdown.get(Category::WriteFault);
        let entries: Vec<String> = report
            .shards
            .iter()
            .map(|s| s.directory_entries.to_string())
            .collect();
        let mean_fault_us = fault_ns as f64 / faults.max(1) as f64 / 1000.0;
        table.row([
            ("policy", &report.policy),
            ("competing total", &report.competing_requests),
            ("competing peak/shard", &report.peak_shard_competing()),
            ("dir entries/shard", &entries.join("/")),
            ("mean fault us", &format!("{mean_fault_us:.1}")),
            (
                "virtual ms",
                &format!("{:.2}", report.virtual_time as f64 / 1e6),
            ),
        ]);
    }
    table.print();
    println!("paper S5: \"the manager may become a bottleneck ... this problem");
    println!("can be solved by distributing the minipage management among");
    println!("several managers.\" Interleaved/first-touch split the directory");
    println!("across shards, flattening the per-shard competing-request peak");
    println!("that the centralized manager concentrates on host 0.");
    Ok(())
}
