//! Scheduling steps and hand-offs of five simulator inputs, as counts.
//!
//! How the dispatcher *finds* its next slot may change (a scan of every
//! slot until 2cc6fc5, an ordered index since); how many steps a run takes
//! and how many of them switch OS threads may not — the schedule is the
//! same schedule. The inputs are the ones the index was sized on: the
//! benchmark's four simulator inputs that reach the scheduler, and SOR at
//! 64 hosts, where a scan cost most. Numbers recorded at 2cc6fc5.

use millipage::{ClusterConfig, Consistency, SchedMode};
use millipage_apps::{lu, sor, water, AppRun};

fn sor(cfg: ClusterConfig, rows: usize) -> AppRun {
    let p = sor::SorParams {
        rows,
        cols: 64,
        iters: 4,
    };
    sor::run_sor(cfg, p)
}

/// `(input, hosts, consistency, run, steps, hand-offs)`.
type Probe = (
    &'static str,
    usize,
    Consistency,
    fn(ClusterConfig) -> AppRun,
    usize,
    u64,
);

#[test]
fn steps_and_hand_offs_are_the_scanning_dispatchers() {
    let (swmr, hlrc) = (Consistency::SequentialSwMr, Consistency::HomeEagerRc);
    let probes: [Probe; 5] = [
        ("sor32", 32, swmr, |c| sor(c, 1024), 36_706, 3_208),
        ("sor64", 64, swmr, |c| sor(c, 2048), 77_776, 6_754),
        (
            "water4",
            4,
            swmr,
            |c| water::run_water(c, water::WaterParams::paper()),
            244_672,
            23_008,
        ),
        ("sor4_hlrc", 4, hlrc, |c| sor(c, 2048), 134_666, 33_762),
        (
            "lu4",
            4,
            swmr,
            |c| lu::run_lu(c, lu::LuParams::paper()),
            32_384,
            4_254,
        ),
    ];
    let mut moved = Vec::new();
    for (name, hosts, consistency, run, steps, hand_offs) in probes {
        let mode = SchedMode::deterministic();
        let r = run(ClusterConfig {
            hosts,
            consistency,
            sched: mode.clone(),
            ..ClusterConfig::default()
        });
        let rep = &r.report;
        assert!(rep.coherence_violations.is_empty() && rep.protocol_errors.is_empty());
        // One partition: the decision log has one entry per step.
        let got = (mode.decisions().len(), mode.hand_offs());
        if got != (steps, hand_offs) {
            moved.push(format!("{name}: {got:?}, recorded ({steps}, {hand_offs})"));
        }
    }
    assert!(moved.is_empty(), "counts moved:\n{}", moved.join("\n"));
}
