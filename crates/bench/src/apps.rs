//! The application scenarios `repro` subcommands select from: the five
//! Table 2 applications, and the SOR/IS pair that also runs on the
//! real-memory backend.

use crate::cli::UsageError;
use millipage::{AllocMode, ClusterConfig};
use millipage_apps::{is, lu, sor, tsp, water, AppRun};

/// Default cluster configuration at `hosts` hosts.
pub fn app_cfg(hosts: usize) -> ClusterConfig {
    ClusterConfig {
        hosts,
        ..ClusterConfig::default()
    }
}

/// One Table 2 application, bound to its input set.
pub struct AppSpec {
    /// Table 2's name for it (`SOR`, `IS`, …).
    pub name: &'static str,
    /// Table 2's "input set" column.
    pub input: String,
    /// Runs it on the given cluster.
    pub run: Box<dyn Fn(ClusterConfig) -> AppRun>,
}

/// WATER's input for the chunking sweeps (Figure 7, the ablations).
pub fn water_sweep_params(quick: bool) -> water::WaterParams {
    let paper = water::WaterParams::paper();
    if quick {
        water::WaterParams {
            molecules: 96,
            ..paper
        }
    } else {
        paper
    }
}

/// The Table 2 suite. `--quick` shrinks the inputs to seconds.
///
/// `chunk_water`: Figure 6 runs WATER at the paper's preferred chunking
/// level 5 (§4.3); Table 2 reports the fine-grain per-molecule layout.
/// `hosts`: the largest host count the specs will run at — inputs whose
/// decomposition has a per-host floor (IS needs one histogram region per
/// host) scale up to it.
pub fn app_specs(quick: bool, chunk_water: bool, hosts: usize) -> Vec<AppSpec> {
    let (sp, ip, wp, lp, tp) = if quick {
        (
            sor::SorParams {
                rows: 8192,
                cols: 64,
                iters: 10,
            },
            is::IsParams {
                keys: 1 << 20,
                ..is::IsParams::paper()
            },
            water::WaterParams {
                molecules: 128,
                ..water::WaterParams::paper()
            },
            lu::LuParams {
                n: 512,
                block: 32,
                seed: 0x10,
            },
            tsp::TspParams {
                cities: 15,
                recursion_limit: 10,
                max_tours: 4000,
                seed: 0x75,
            },
        )
    } else {
        (
            sor::SorParams::paper(),
            is::IsParams::paper(),
            water::WaterParams::paper(),
            lu::LuParams::paper(),
            tsp::TspParams::paper(),
        )
    };
    // IS decomposes its histogram into per-host regions; large clusters
    // need at least one region per host.
    let ip = is::IsParams {
        regions: ip.regions.max(hosts),
        ..ip
    };
    vec![
        AppSpec {
            name: "SOR",
            input: format!("{}x{} matrix", sp.rows, sp.cols),
            run: Box::new(move |c| sor::run_sor(c, sp)),
        },
        AppSpec {
            name: "IS",
            input: is_input(&ip),
            run: Box::new(move |c| is::run_is(c, ip)),
        },
        AppSpec {
            // §4.3: WATER's reported performance "was achieved by chunking
            // molecules in larger minipages" — the speedup figure runs at
            // the paper's preferred chunking level 5 (Figure 7's 8-host
            // optimum); Table 2 still reports the per-molecule granularity.
            name: "WATER",
            input: format!("{} molecules", wp.molecules),
            run: Box::new(move |mut c| {
                if chunk_water {
                    c.alloc_mode = AllocMode::FineGrain { chunking: 5 };
                }
                water::run_water(c, wp)
            }),
        },
        AppSpec {
            name: "LU",
            input: format!("{0}x{0} matrix, {1}x{1} blocks", lp.n, lp.block),
            run: Box::new(move |c| lu::run_lu(c, lp)),
        },
        AppSpec {
            name: "TSP",
            input: format!("{} cities, recursion {}", tp.cities, tp.recursion_limit),
            run: Box::new(move |c| tsp::run_tsp(c, tp)),
        },
    ]
}

fn is_input(p: &is::IsParams) -> String {
    format!(
        "2^{} numbers, 2^{} values",
        p.keys.ilog2(),
        p.max_key.ilog2()
    )
}

/// The suite the self-gating subcommands (`trace`, `diagnose`, `adapt`,
/// `faults`) run at 4 hosts, narrowed to one application when `scenario`
/// names it (`table2`, `all` or nothing select the whole suite).
pub fn select_specs(quick: bool, scenario: Option<&str>) -> Result<Vec<AppSpec>, UsageError> {
    let mut specs = app_specs(quick, true, 8);
    let whole = |s: &str| s.eq_ignore_ascii_case("table2") || s.eq_ignore_ascii_case("all");
    if let Some(s) = scenario.filter(|s| !whole(s)) {
        specs.retain(|spec| spec.name.eq_ignore_ascii_case(s));
        if specs.is_empty() {
            return Err(UsageError(format!(
                "unknown scenario {s:?} (expected table2, sor, is, water, lu or tsp)"
            )));
        }
    }
    Ok(specs)
}

/// One of the two applications that run on both backends (barriers only —
/// WATER, LU and TSP use locks and prefetch, which the host `Dsm` surface
/// deliberately excludes).
pub struct CmpApp {
    /// Table 2's name for it.
    pub name: &'static str,
    /// Table 2's "input set" column.
    pub input: String,
    /// The input as the `repro sor|is` banner spells it.
    pub detail: String,
    /// Largest host count the input decomposes over.
    pub max_hosts: usize,
    /// `(views, pages)` of the CLI comparison runs.
    geometry: (usize, usize),
    /// `(views, pages)` of the counter-parity runs: minimal, so the
    /// runner maxes them up to the same geometry formulas the host runner
    /// uses and minipage ids align across the backends.
    parity_geometry: (usize, usize),
    /// Runs it on the simulator.
    pub sim: Box<dyn Fn(ClusterConfig) -> AppRun>,
    /// Runs it on real memory: `(hosts, diag)`.
    #[cfg(target_os = "linux")]
    pub host: Box<dyn Fn(usize, bool) -> Result<millipage_apps::HostAppRun, String>>,
}

impl CmpApp {
    /// The simulator-side configuration: the CLI comparison geometry, or
    /// (`parity`) the counter-parity one.
    pub fn sim_cfg(&self, hosts: usize, parity: bool) -> ClusterConfig {
        let (views, pages) = if parity {
            self.parity_geometry
        } else {
            self.geometry
        };
        ClusterConfig {
            hosts,
            views,
            pages,
            alloc_mode: AllocMode::FINE,
            ..ClusterConfig::default()
        }
    }
}

/// SOR input for the backend comparisons. The host backend moves real
/// bytes through per-byte volatile accessors, so `--quick` shrinks below
/// the sim-only quick sizes.
pub fn sor_cmp_params(quick: bool) -> sor::SorParams {
    if quick {
        sor::SorParams {
            rows: 512,
            cols: 64,
            iters: 4,
        }
    } else {
        sor::SorParams {
            rows: 8192,
            cols: 64,
            iters: 10,
        }
    }
}

/// SOR and IS, bound to their backend-comparison inputs.
pub fn cmp_apps(quick: bool) -> [CmpApp; 2] {
    let sp = sor_cmp_params(quick);
    let ip = is::IsParams {
        keys: if quick { 1 << 14 } else { 1 << 20 },
        ..is::IsParams::paper()
    };
    [
        CmpApp {
            name: "SOR",
            input: format!("{}x{} matrix", sp.rows, sp.cols),
            detail: format!("{}x{} matrix, {} iters", sp.rows, sp.cols, sp.iters),
            max_hosts: usize::MAX,
            geometry: (16, 256),
            parity_geometry: (1, 1),
            sim: Box::new(move |c| sor::run_sor(c, sp)),
            #[cfg(target_os = "linux")]
            host: Box::new(move |hosts, diag| {
                if diag {
                    sor::run_sor_host_diag(hosts, sp)
                } else {
                    sor::run_sor_host(hosts, sp)
                }
            }),
        },
        CmpApp {
            name: "IS",
            input: is_input(&ip),
            detail: format!(
                "2^{} keys, 2^{} values",
                ip.keys.ilog2(),
                ip.max_key.ilog2()
            ),
            // The rotated merge needs hosts <= regions.
            max_hosts: ip.regions,
            geometry: (8, 64),
            parity_geometry: (1, 64),
            sim: Box::new(move |c| is::run_is(c, ip)),
            #[cfg(target_os = "linux")]
            host: Box::new(move |hosts, diag| {
                if diag {
                    is::run_is_host_diag(hosts, ip)
                } else {
                    is::run_is_host(hosts, ip)
                }
            }),
        },
    ]
}
