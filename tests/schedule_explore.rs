//! End-to-end schedule exploration: the seeded random/PCT sweep over the
//! built-in racy workload must (a) audit clean on the fixed protocol,
//! (b) catch the deliberately re-introduced PR-3 stale-reinstall bug and
//! shrink it to a small replayable reproducer, and (c) replay that
//! reproducer clean on the fixed code — the regression test for the
//! original lost-update fix.

use millipage::explore::{race_config, race_workload};
use millipage::mutants::{self, Mutant};
use millipage::{explore, replay_repro, ExploreOpts, MinimizedRepro};

#[test]
fn clean_sweep_on_fixed_code() {
    let opts = ExploreOpts {
        schedules: 40,
        seed: 7,
        ..ExploreOpts::default()
    };
    let outcome = explore(&race_config(), race_workload, &opts);
    assert!(
        outcome.is_clean(),
        "fixed code should survive every explored schedule, found: {:?}",
        outcome.finding
    );
    assert_eq!(outcome.schedules_run, 40);
}

/// The reproducer `repro explore --inject stale-reinstall` wrote for the
/// sweep below while reproducers were pretty-printed.
const PRETTY_REPRO: &str = r#"{
  "seed": 7,
  "schedule_index": 1,
  "policy": "pct",
  "choices": [5, 5],
  "violations": [
    "panic: element 2 read 1 after barrier in round 1 (legal: 2 or 3)"
  ],
  "replays_used": 11
}
"#;

#[test]
fn injected_stale_reinstall_is_caught_shrunk_and_fixed() {
    let opts = ExploreOpts {
        schedules: 200,
        seed: 7,
        ..ExploreOpts::default()
    };
    let outcome = mutants::with(Mutant::StaleReinstall, || {
        explore(&race_config(), race_workload, &opts)
    });
    let repro = outcome
        .finding
        .expect("the sweep must catch the injected stale-reinstall bug");
    assert!(
        repro
            .violations
            .iter()
            .any(|v| v.contains("after barrier in round")),
        "expected the lost-update assert among violations: {:?}",
        repro.violations
    );

    // The reproducer survives a JSON round trip (what CI archives), and a
    // file in the older pretty layout still reads as the same reproducer.
    let parsed =
        MinimizedRepro::from_json(&repro.to_json()).expect("reproducer JSON must parse back");
    assert_eq!(parsed, repro);
    assert_eq!(MinimizedRepro::from_json(PRETTY_REPRO), Some(repro.clone()));

    // Shrinking preserved failure: the minimized schedule still loses the
    // update on buggy code...
    let violations = mutants::with(Mutant::StaleReinstall, || {
        replay_repro(&race_config(), race_workload, &repro, 1 << 15)
    });
    assert!(
        !violations.is_empty(),
        "minimized reproducer no longer fails on buggy code"
    );

    // ...and the exact same interleaving is clean on the fixed protocol:
    // the regression test for the PR-3 stale-reinstall fix.
    let violations = replay_repro(&race_config(), race_workload, &repro, 1 << 15);
    assert!(
        violations.is_empty(),
        "fixed code still fails the minimized schedule: {violations:?}"
    );
}
