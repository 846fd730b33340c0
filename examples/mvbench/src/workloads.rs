//! The seven workloads: what each runs, and one checked repetition of it.

use millipage::{ClusterConfig, Consistency, HostRunReport, ParallelConfig, SchedMode, Tracer};
use millipage_apps::lu::{self, LuParams};
use millipage_apps::sor::{self, SorParams};
use millipage_apps::water::{self, WaterParams};
use millipage_apps::{close, AppRun, HostAppRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workload names with the one-line reason each exists; `BENCHMARK.json`
/// repeats them and `selftest` checks the two agree.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "sor32_seq",
        "32 hosts, sequential scheduler: sim-core sched hand-offs are >=90% of the wall, so the event-driven-core work shows here or nowhere",
    ),
    (
        "sor32_w2",
        "the same input on 2 PDES workers: windows, barrier and the sim-net delivery gate; counts and virtual time must equal sor32_seq exactly",
    ),
    (
        "water4_seq",
        "WATER 512 molecules on 4 hosts: protocol-dense (locks, barriers, 672-byte write faults), core fault path and manager share the wall with sched",
    ),
    (
        "lu4_seq",
        "LU 1024/32 on 4 hosts: 4 KB minipages, the large-payload path through sim-net plus access-path compute",
    ),
    (
        "lu1_seq",
        "LU 1024/32 on 1 host: bypasses sched, net and protocol; wall is the sim-mem access path, so sched/net/protocol changes predict no change",
    ),
    (
        "sor4_hlrc",
        "SOR under home-based eager release consistency: twins, Diff compute/encode/decode/apply and release flushes; the only workload with rc_diffs > 0",
    ),
    (
        "sor2_host",
        "SOR on the real-memory backend: hostmv, core::hostrun and the kernel (mprotect, SIGSEGV, socketpair) do all the work and sim-* none",
    ),
];

pub enum App {
    Sor(SorParams),
    Lu(LuParams),
    Water(WaterParams),
    /// SOR on the real-memory backend (`run_sor_host`).
    SorHost(SorParams),
}

/// One workload, its inputs made from the seed.
pub struct Spec {
    pub app: App,
    pub hosts: usize,
    /// PDES worker count; `None` is the sequential deterministic schedule.
    pub workers: Option<usize>,
    pub consistency: Consistency,
    pub seed: u64,
}

/// What must repeat exactly from one repetition to the next under the
/// deterministic scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exact {
    pub messages: u64,
    pub read_faults: u64,
    pub write_faults: u64,
    pub virt_ns: u64,
}

/// One repetition's result. `problems` lists every reason it failed.
pub struct Rep {
    pub wall_s: f64,
    pub exact: Exact,
    pub problems: Vec<String>,
    pub sim: Option<AppRun>,
    pub host: Option<HostRunReport>,
}

impl Rep {
    fn new(started: Instant) -> Rep {
        Rep {
            wall_s: started.elapsed().as_secs_f64(),
            exact: Exact::default(),
            problems: Vec::new(),
            sim: None,
            host: None,
        }
    }

    fn failed(started: Instant, why: String) -> Rep {
        Rep {
            problems: vec![why],
            ..Rep::new(started)
        }
    }

    /// A finished simulator run and its checksum.
    fn sim(started: Instant, run: AppRun) -> (f64, Rep) {
        let mut rep = Rep::new(started);
        let r = &run.report;
        rep.exact = Exact {
            messages: r.messages,
            read_faults: r.read_faults,
            write_faults: r.write_faults,
            virt_ns: run.timed_ns,
        };
        rep.problems.extend(r.coherence_violations.iter().cloned());
        rep.problems.extend(r.protocol_errors.iter().cloned());
        let checksum = run.checksum;
        rep.sim = Some(run);
        (checksum, rep)
    }

    /// A finished real-memory run and its checksum.
    fn host(started: Instant, run: HostAppRun) -> (f64, Rep) {
        let mut rep = Rep::new(started);
        rep.exact.read_faults = run.report.read_faults.iter().sum();
        rep.exact.write_faults = run.report.write_faults.iter().sum();
        rep.problems.extend(run.report.errors.iter().cloned());
        rep.host = Some(run.report);
        (run.checksum, rep)
    }
}

/// `--quick` shrinks every input to a wiring smoke test.
pub fn spec(name: &str, seed: u64, quick: bool) -> Option<Spec> {
    let sor = |rows, quick_rows, iters| SorParams {
        rows: if quick { quick_rows } else { rows },
        cols: 64,
        iters: if quick { 1 } else { iters },
    };
    let lu = LuParams {
        n: if quick { 256 } else { 1024 },
        block: 32,
        seed,
    };
    let swmr = Consistency::SequentialSwMr;
    let (app, hosts, workers, consistency) = match name {
        "sor32_seq" => (App::Sor(sor(1024, 64, 4)), 32, None, swmr),
        "sor32_w2" => (App::Sor(sor(1024, 64, 4)), 32, Some(2), swmr),
        "water4_seq" => {
            let p = WaterParams {
                seed,
                ..if quick {
                    WaterParams::small()
                } else {
                    WaterParams::paper()
                }
            };
            (App::Water(p), 4, None, swmr)
        }
        "lu4_seq" => (App::Lu(lu), 4, None, swmr),
        "lu1_seq" => (App::Lu(lu), 1, None, swmr),
        "sor4_hlrc" => (
            App::Sor(sor(2048, 256, 4)),
            4,
            None,
            Consistency::HomeEagerRc,
        ),
        "sor2_host" => (App::SorHost(sor(8192, 512, 10)), 2, None, swmr),
        _ => return None,
    };
    Some(Spec {
        app,
        hosts,
        workers,
        consistency,
        seed,
    })
}

impl Spec {
    pub fn is_host(&self) -> bool {
        matches!(self.app, App::SorHost(_))
    }

    /// The plain sequential kernel's checksum.
    pub fn reference(&self) -> f64 {
        match self.app {
            App::Sor(p) | App::SorHost(p) => sor::reference(p),
            App::Lu(p) => lu::reference(p),
            App::Water(p) => water::reference(p),
        }
    }

    /// Relative checksum tolerance, as the repository's own tests set it
    /// (SOR sums `f32` rows in a host-count-dependent order).
    fn tolerance(&self) -> f64 {
        match self.app {
            App::Sor(_) | App::SorHost(_) => 1e-6,
            App::Lu(_) | App::Water(_) => 1e-9,
        }
    }

    /// One whole `run_*` call — cluster assembly to joined report —
    /// timed from outside and checked against `reference`.
    pub fn run(&self, reference: f64, tracer: Tracer) -> Rep {
        let cfg = ClusterConfig {
            hosts: self.hosts,
            seed: self.seed,
            consistency: self.consistency,
            sched: SchedMode::deterministic(),
            parallel: self.workers.map(ParallelConfig::workers),
            tracer,
            ..ClusterConfig::default()
        };
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
            Ok(match self.app {
                App::Sor(p) => Rep::sim(t, sor::run_sor(cfg, p)),
                App::Lu(p) => Rep::sim(t, lu::run_lu(cfg, p)),
                App::Water(p) => Rep::sim(t, water::run_water(cfg, p)),
                App::SorHost(p) => Rep::host(t, sor::run_sor_host(self.hosts, p)?),
            })
        }));
        let (checksum, mut rep) = match result {
            Ok(Ok(done)) => done,
            Ok(Err(e)) => return Rep::failed(t, format!("host backend: {e}")),
            Err(_) => return Rep::failed(t, "panicked".into()),
        };
        if !close(checksum, reference, self.tolerance()) {
            rep.problems
                .push(format!("checksum {checksum} vs reference {reference}"));
        }
        rep
    }
}
