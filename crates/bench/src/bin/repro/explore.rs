//! `repro explore` runs the built-in race workload (disjoint-element
//! writers over one HLRC minipage, one barrier per round) through a
//! seeded sweep of random-walk and PCT schedules under the deterministic
//! scheduler, auditing every interleaving. A clean sweep exits 0; any
//! violation is shrunk to a minimal schedule and written as JSON
//! (`--out`, default `schedule-repro.json`) with a nonzero exit.
//! `--inject <name>` plants the bug of that name in millipage's mutant
//! table (`millipage::mutants::MUTANTS`; `stale-reinstall` re-introduces
//! a fixed HLRC lost-update bug) to demonstrate detection; `--replay
//! <file>` replays a saved reproducer instead of sweeping (exit mirrors
//! whether it still violates).

use millipage::explore::{race_config, race_workload};
use millipage::mutants::{self, Mutant, MUTANTS};
use millipage::{explore as sweep, replay_repro, ExploreOpts, MinimizedRepro};
use millipage_bench::cli::{write_artifact, Flags, Gate, UsageError};
use millipage_bench::header;

/// Per-recorder ring capacity for explored runs: the race workload is
/// tiny, so a 32Ki ring keeps every schedule's trace complete.
const EXPLORE_RING_CAPACITY: usize = 1 << 15;

pub fn explore(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let quick = f.switch("--quick");
    let schedules: usize = f
        .value("--schedules")?
        .unwrap_or(if quick { 40 } else { 200 });
    let seed: u64 = f.value("--seed")?.unwrap_or(7);
    let out_path: String = f
        .value("--out")?
        .unwrap_or_else(|| "schedule-repro.json".into());
    let inject: Option<String> = f.value("--inject")?;
    let replay_path: Option<String> = f.value("--replay")?;
    f.finish()?;
    let mutant = match inject.as_deref() {
        None => None,
        Some(name) => Some(Mutant::named(name).ok_or_else(|| {
            let known: Vec<&str> = MUTANTS.iter().map(|row| row.1).collect();
            UsageError(format!(
                "unknown --inject {name:?} (known: {})",
                known.join(", ")
            ))
        })?),
    };
    let cfg = race_config();

    if let Some(path) = replay_path {
        let repro = std::fs::read_to_string(&path)
            .map_err(|e| UsageError(format!("failed to read {path}: {e}")))
            .and_then(|body| {
                MinimizedRepro::from_json(&body)
                    .ok_or_else(|| UsageError(format!("{path} is not a schedule reproducer")))
            })?;
        header(&format!("Explore — replay reproducer {path}"));
        println!(
            "schedule {} of seed {} ({}), {} choice(s)",
            repro.schedule_index,
            repro.seed,
            repro.policy,
            repro.choices.len()
        );
        let violations = planted(mutant, || {
            replay_repro(&cfg, race_workload, &repro, EXPLORE_RING_CAPACITY)
        });
        if !violations.is_empty() {
            eprintln!("replay reproduces {} violation(s):", violations.len());
        }
        for v in violations {
            gate.fail(format!("  {v}"));
        }
        gate.pass(format_args!(
            "replay is clean: the recorded schedule no longer violates"
        ));
        return Ok(());
    }

    header(&format!(
        "Explore — {schedules} schedule(s), seed {seed}, race workload ({} hosts{})",
        cfg.hosts,
        inject.map_or(String::new(), |name| format!(", {name} injected"))
    ));
    let opts = ExploreOpts {
        schedules,
        seed,
        trace_capacity: EXPLORE_RING_CAPACITY,
    };
    let outcome = planted(mutant, || sweep(&cfg, race_workload, &opts));
    if let Some(repro) = outcome.finding {
        eprintln!(
            "schedule {} (policy {}) violated; shrunk to {} choice(s) in {} replay(s):",
            repro.schedule_index,
            repro.policy,
            repro.choices.len(),
            repro.replays_used
        );
        for v in &repro.violations {
            gate.fail(format!("  {v}"));
        }
        write_artifact(
            gate,
            &out_path,
            repro.to_json(),
            format_args!(
                "wrote reproducer to {out_path} (replay: repro explore --replay {out_path})"
            ),
        );
    }
    gate.pass(format_args!(
        "sweep clean: {} schedule(s) ran, audited, 0 violations",
        outcome.schedules_run
    ));
    Ok(())
}

/// Runs `f` with `mutant`, if any, planted on this thread.
fn planted<R>(mutant: Option<Mutant>, f: impl FnOnce() -> R) -> R {
    match mutant {
        Some(m) => mutants::with(m, f),
        None => f(),
    }
}
