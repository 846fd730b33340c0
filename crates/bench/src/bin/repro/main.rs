//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro table1         Table 1: basic operation costs
//! repro costs          §4.2 prose: fault/barrier/lock/diff times
//! repro fig5           Figure 5: MultiView overhead vs. #views
//! repro table2         Table 2: application suite characteristics
//!                      (`--backend host`: SOR/IS on real memory)
//! repro fig6           Figure 6: speedups + time breakdown
//! repro fig7           Figure 7: WATER chunking sweep
//! repro ablate         Extensions: fast-polling what-if, baseline
//! repro manager-sweep  §5 extension: home-policy hot-spot sweep
//! repro sor | is       One app on one backend; `--backend host` runs
//!                      both and cross-checks the checksums, printing
//!                      real SIGSEGV fault counts next to simulated
//!                      ones (Linux only)
//! repro trace          Traced run + invariant audit + Perfetto export
//! repro diagnose       Sharing diagnostics: per-minipage heat stats,
//!                      ping-pong / false-sharing / hot-home detectors,
//!                      fault heatmap CSV + Perfetto counter tracks
//! repro adapt          Online adaptation: planted pathologies answered
//!                      by split/merge/home-migration, static-vs-adapted
//!                      tables for the Table 2 apps
//! repro faults         Loss sweep under seeded wire faults + audit
//! repro explore        Schedule exploration under the deterministic
//!                      scheduler; shrinks any violation to a replayable
//!                      JSON reproducer
//! repro all            table1 … manager-sweep, in order
//! repro ab <rev>       The benchmark, parent revision against the
//!                      working tree, in alternating pairs; the claims
//!                      rule's verdict per row and end-to-end metric
//!                      (`--parity`: the parity set's outputs compared
//!                      byte for byte instead)
//! ```
//!
//! The flags of each are in [`COMMANDS`]; each module's docs say what its
//! subcommand runs and what it gates on.
//!
//! Every subcommand is the same skeleton over `millipage_bench::cli`:
//! parse flags → build scenarios → run → gate → emit. A malformed or
//! unknown flag prints the subcommand's usage and exits 2; a failed check
//! is reported where it happens, the artifacts are still written, and the
//! exit status is 1.
//!
//! `--quick` shrinks the workloads for fast smoke runs; without it the
//! paper's input sets (Table 2) are used. Shapes, not absolute numbers,
//! are the reproduction target — see EXPERIMENTS.md.
mod ab;
mod adapt;
mod backends;
mod diagnose;
mod explore;
mod faults;
mod paper;
mod trace;

use millipage_bench::cli::{Flags, Gate, UsageError};
use std::process::ExitCode;

/// A subcommand: parses its flags, runs, records failed checks on the
/// gate.
type Command = fn(&mut Flags, &mut Gate) -> Result<(), UsageError>;

/// `(name, flags, command)`; `repro all` runs the first [`ALL`] of them.
/// `[scenario]` is `table2` (the default), `sor`, `is`, `water`, `lu` or
/// `tsp`.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("table1", "", paper::table1),
    ("costs", "", paper::costs),
    ("fig5", "[--quick]", paper::fig5),
    ("table2", BACKEND_FLAGS, paper::table2),
    ("fig6", "[--quick]", paper::fig6),
    ("fig7", "[--quick]", paper::fig7),
    ("ablate", "[--quick]", paper::ablate),
    ("manager-sweep", "[--quick]", paper::manager_sweep),
    ("sor", BACKEND_FLAGS, backends::sor),
    ("is", BACKEND_FLAGS, backends::is),
    (
        "trace",
        "[scenario] [--quick] [--out f] [--json f]",
        trace::trace,
    ),
    ("diagnose", DIAG_FLAGS, diagnose::diagnose),
    ("adapt", DIAG_FLAGS, adapt::adapt),
    (
        "faults",
        "[scenario] [--quick] [--seed N] [--out f]",
        faults::faults,
    ),
    (
        "explore",
        "[--schedules N] [--seed N] [--quick] [--out f] [--inject mutant] [--replay f]",
        explore::explore,
    ),
    (
        "ab",
        "<parent-rev> [--pairs N] [--rows a,b] [--seeds N,M] [--parity]",
        ab::ab,
    ),
];
const BACKEND_FLAGS: &str = "[--quick] [--backend sim|host] [--hosts N]";
const DIAG_FLAGS: &str = "[scenario] [--quick] [--backend sim|host] [--json f]";

/// How many leading [`COMMANDS`] make up `repro all`.
const ALL: usize = 8;

/// Runs one subcommand on its own gate; the exit status.
fn run_command(name: &str, usage: &str, command: Command, mut flags: Flags) -> u8 {
    let mut gate = Gate::new();
    match command(&mut flags, &mut gate) {
        Ok(()) => gate.finish(name),
        Err(UsageError(msg)) => {
            eprintln!("{msg}");
            eprintln!("usage: repro {name} {usage}");
            2
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "all".into());
    let flags = Flags::new(args);
    let status = if cmd == "all" {
        COMMANDS[..ALL]
            .iter()
            .map(|&(name, usage, command)| run_command(name, usage, command, flags.clone()))
            .max()
            .unwrap_or(0)
    } else if let Some(&(name, usage, command)) = COMMANDS.iter().find(|c| c.0 == cmd) {
        run_command(name, usage, command, flags)
    } else {
        eprintln!("unknown command {cmd:?}");
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        eprintln!("usage: repro [{}|all] [flags]", names.join("|"));
        2
    };
    ExitCode::from(status)
}
