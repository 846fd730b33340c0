//! Schedule exploration over the deterministic scheduler.
//!
//! The cooperative scheduler (`sim_core::sched`) makes one seed one
//! interleaving; this module turns that into a bug-hunting harness in the
//! style of model checkers like dscheck and shuttle: run the same workload
//! under many *seeded* schedules — alternating uniform random walks and
//! PCT priority schedules — and hold every run to the full oracle stack
//! (application asserts, [`RunReport::coherence_violations`],
//! [`RunReport::protocol_errors`], and the trace-replay
//! [`audit`]). The first violating schedule is
//! shrunk to a minimal decision sequence that still reproduces the
//! violation, serialized as a small JSON [`MinimizedRepro`] that replays
//! exactly via [`SchedMode::replay`].
//!
//! Shrinking exploits a property of the replay policy: a choice that does
//! not name a runnable thread falls back to the canonical virtual-time
//! pick. A reproducer therefore stays *valid* under any edit — shrinking
//! only has to preserve *failure*, which it checks by replaying. Two
//! passes run under a replay budget: a binary search for the shortest
//! failing prefix (everything after the prefix falls back to virtual
//! time), then a right-to-left pass substituting `u32::MAX` (an always
//! invalid slot, i.e. "take the canonical pick here") for individual
//! decisions. What survives is the small set of forced preemptions that
//! actually matter — typically a handful out of tens of thousands.

use crate::audit::{audit, AuditMode};
use crate::cluster::{run, ClusterConfig};
use crate::hlrc::Consistency;
use crate::home::HomePolicyKind;
use crate::stats::RunReport;
use sim_core::json::{self, ToJson, Writer};
use sim_core::sched::SchedMode;
use sim_core::{SplitMix64, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Exploration budget and tuning knobs.
#[derive(Clone, Debug)]
pub struct ExploreOpts {
    /// How many distinct schedules to try.
    pub schedules: usize,
    /// Master seed; schedule `i` derives its own seed from a SplitMix64
    /// stream, so the whole sweep replays from this one value.
    pub seed: u64,
    /// PCT preemption depth (number of forced priority-change points) for
    /// the odd-numbered schedules.
    pub pct_depth: u32,
    /// Trace ring capacity per run. The auditor only sees complete logs;
    /// if a run overflows the ring its audit is skipped (the other
    /// oracles still apply).
    pub trace_capacity: usize,
    /// Replay budget for shrinking a violating schedule.
    pub shrink_budget: usize,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        Self {
            schedules: 200,
            seed: 7,
            pct_depth: 3,
            trace_capacity: 1 << 15,
            shrink_budget: 128,
        }
    }
}

/// A violating schedule shrunk to a minimal replayable reproducer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinimizedRepro {
    /// The sweep's master seed.
    pub seed: u64,
    /// Which schedule in the sweep failed (0-based).
    pub schedule_index: usize,
    /// Policy that found it (`"random"` or `"pct"`).
    pub policy: String,
    /// Minimized decision sequence for [`SchedMode::replay`]. Entries of
    /// `u32::MAX` (and everything past the end) mean "canonical
    /// virtual-time pick".
    pub choices: Vec<u32>,
    /// Every oracle violation the original schedule produced.
    pub violations: Vec<String>,
    /// Replays the shrinker spent minimizing.
    pub replays_used: usize,
}

/// Result of an exploration sweep.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Schedules actually run (== `opts.schedules` on a clean sweep; the
    /// sweep stops at the first violation).
    pub schedules_run: usize,
    /// The shrunk first violation, if any schedule produced one.
    pub finding: Option<MinimizedRepro>,
}

impl ExploreOutcome {
    /// True when every schedule passed every oracle.
    pub fn is_clean(&self) -> bool {
        self.finding.is_none()
    }
}

/// Runs `runner` once under `mode`, returning every oracle violation and
/// the decision log the scheduler recorded.
fn run_one(
    base: &ClusterConfig,
    mode: &SchedMode,
    runner: &dyn Fn(ClusterConfig) -> RunReport,
    trace_capacity: usize,
) -> (Vec<String>, Vec<u32>) {
    let tracer = Tracer::enabled(trace_capacity);
    let mut cfg = base.clone();
    cfg.tracer = tracer.clone();
    cfg.sched = mode.clone();
    let audit_mode = match cfg.consistency {
        Consistency::SequentialSwMr => AuditMode::SwMr,
        Consistency::HomeEagerRc => AuditMode::Hlrc,
    };
    let mut violations = Vec::new();
    match catch_unwind(AssertUnwindSafe(|| runner(cfg))) {
        Ok(report) => {
            violations.extend(report.coherence_violations.iter().cloned());
            violations.extend(report.protocol_errors.iter().cloned());
        }
        Err(payload) => violations.push(format!("panic: {}", panic_message(&*payload))),
    }
    let log = tracer.drain();
    if log.dropped == 0 {
        violations.extend(audit(&log.events, audit_mode));
    }
    (violations, mode.decisions())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Explores `opts.schedules` seeded interleavings of `runner` on `base`,
/// alternating random-walk and PCT schedules. Returns at the first
/// violating schedule with a shrunk [`MinimizedRepro`]; a clean outcome
/// means every schedule passed application asserts, the report's
/// violation lists, and the trace auditor.
///
/// `base.sched` and `base.tracer` are overridden per schedule; every
/// other field (including the fault plane) is explored as configured, as
/// is a planted bug the calling thread selected (`mutants::with`).
pub fn explore(
    base: &ClusterConfig,
    runner: impl Fn(ClusterConfig) -> RunReport,
    opts: &ExploreOpts,
) -> ExploreOutcome {
    let _quiet = QuietPanics::install();
    let runner: &dyn Fn(ClusterConfig) -> RunReport = &runner;
    let mut seeds = SplitMix64::new(opts.seed);
    for i in 0..opts.schedules {
        let s = seeds.next_u64();
        let mode = if i % 2 == 0 {
            SchedMode::random(s)
        } else {
            SchedMode::pct(s, opts.pct_depth)
        };
        let (violations, decisions) = run_one(base, &mode, runner, opts.trace_capacity);
        if !violations.is_empty() {
            let (choices, replays_used) = shrink(base, runner, decisions, opts);
            return ExploreOutcome {
                schedules_run: i + 1,
                finding: Some(MinimizedRepro {
                    seed: opts.seed,
                    schedule_index: i,
                    policy: mode.policy_name().to_string(),
                    choices,
                    violations,
                    replays_used,
                }),
            };
        }
    }
    ExploreOutcome {
        schedules_run: opts.schedules,
        finding: None,
    }
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync + 'static>;

/// (active guards, hook saved by the first guard).
static QUIET: Mutex<(usize, Option<PanicHook>)> = Mutex::new((0, None));

/// Expected-panic oracles (application asserts) fire repeatedly while
/// exploring and shrinking; this guard silences the default hook's
/// backtrace spam while any sweep is active. Refcounted so concurrent
/// sweeps (parallel tests in one binary) restore the original hook
/// exactly once, when the last one finishes.
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        let mut g = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        if g.0 == 0 {
            g.1 = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|_| {}));
        }
        g.0 += 1;
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let mut g = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        g.0 -= 1;
        if g.0 == 0 {
            if let Some(hook) = g.1.take() {
                std::panic::set_hook(hook);
            }
        }
    }
}

/// Replays `repro.choices` against `base` and returns the violations the
/// replay produces (empty = the reproducer no longer fails, e.g. on fixed
/// code). Panic hook handling matches [`explore`].
pub fn replay_repro(
    base: &ClusterConfig,
    runner: impl Fn(ClusterConfig) -> RunReport,
    repro: &MinimizedRepro,
    trace_capacity: usize,
) -> Vec<String> {
    let _quiet = QuietPanics::install();
    let mode = SchedMode::replay(repro.choices.clone());
    let (violations, _) = run_one(base, &mode, &runner, trace_capacity);
    violations
}

/// Shrinks a failing decision log under a replay budget: binary-search
/// the shortest failing prefix, then substitute the canonical pick
/// (`u32::MAX`) for individual decisions right-to-left. Every kept edit
/// was re-confirmed to fail, so the result is always a true reproducer.
fn shrink(
    base: &ClusterConfig,
    runner: &dyn Fn(ClusterConfig) -> RunReport,
    decisions: Vec<u32>,
    opts: &ExploreOpts,
) -> (Vec<u32>, usize) {
    let mut replays = 0usize;
    let fails = |choices: &[u32], replays: &mut usize| -> bool {
        *replays += 1;
        let mode = SchedMode::replay(choices.to_vec());
        let (v, _) = run_one(base, &mode, runner, opts.trace_capacity);
        !v.is_empty()
    };

    // The recorded log replays the violating run decision-for-decision;
    // confirm that before spending the budget (a failed confirmation
    // would mean nondeterminism outside the scheduler — return the raw
    // log so the caller still has the best available artifact).
    if !fails(&decisions, &mut replays) {
        return (decisions, replays);
    }

    // Pass 1: shortest failing prefix. `hi` is always a confirmed-failing
    // prefix length.
    let (mut lo, mut hi) = (0usize, decisions.len());
    while lo < hi && replays < opts.shrink_budget {
        let mid = lo + (hi - lo) / 2;
        if fails(&decisions[..mid], &mut replays) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut choices = decisions[..hi].to_vec();

    // Pass 2: right-to-left, replace single decisions with the canonical
    // virtual-time pick where the failure survives it.
    for i in (0..choices.len()).rev() {
        if replays >= opts.shrink_budget {
            break;
        }
        if choices[i] == u32::MAX {
            continue;
        }
        let kept = choices[i];
        choices[i] = u32::MAX;
        if !fails(&choices, &mut replays) {
            choices[i] = kept;
        }
    }

    // A trailing canonical pick is the replay policy's own fallback;
    // dropping it changes nothing about the run.
    while choices.last() == Some(&u32::MAX) {
        choices.pop();
    }
    (choices, replays)
}

// ---------------------------------------------------------------------------
// Reproducer JSON.

impl ToJson for MinimizedRepro {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("seed", self.seed)
                .field("schedule_index", self.schedule_index)
                .field("policy", &self.policy)
                .field("choices", &self.choices)
                .field("violations", &self.violations)
                .field("replays_used", self.replays_used);
        });
    }
}

impl MinimizedRepro {
    /// The reproducer as a standalone JSON document.
    pub fn to_json(&self) -> String {
        json::document(|w| self.write_json(w))
    }

    /// Reads a reproducer back from any JSON layout of its six fields
    /// (whitespace and member order are free). `None` on anything else.
    pub fn from_json(s: &str) -> Option<Self> {
        let doc = json::parse(s.as_bytes()).ok()?;
        let field = |key: &str| doc.get(key);
        let uint = |key: &str| field(key)?.as_u64();
        let list = |key: &str| field(key)?.as_array();
        Some(Self {
            seed: uint("seed")?,
            schedule_index: uint("schedule_index")?.try_into().ok()?,
            policy: field("policy")?.as_str()?.to_owned(),
            choices: list("choices")?
                .iter()
                .map(|c| c.as_u64()?.try_into().ok())
                .collect::<Option<_>>()?,
            violations: list("violations")?
                .iter()
                .map(|v| v.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
            replays_used: uint("replays_used")?.try_into().ok()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Built-in racy workload: the PR-3 stale-reinstall scenario.

/// Configuration for [`race_workload`]: three hosts under home-based
/// eager RC with interleaved homes, so the contended minipage is homed
/// on host 1 while host 0 runs the manager. This is the exact shape of
/// the fixed PR-3 stale-reinstall bug — a home host's *self-served*
/// fetch racing a remote writer's release diff through its own server
/// queue — so exploring it with the `stale-reinstall` mutant selected
/// (`mutants::with`) demonstrates the harness catches and shrinks a real
/// historical protocol bug.
///
/// Three hosts are the minimum for the race: a flusher blocks for its
/// `RcDiffAck` before entering the barrier, so any fetch the *diff
/// itself* provokes (the fan-out invalidating the home's own mapping)
/// is causally ordered after that one diff and can only be raced by a
/// *second, independent* writer's diff.
pub fn race_config() -> ClusterConfig {
    ClusterConfig {
        hosts: 3,
        views: 4,
        pages: 8,
        threads_per_host: 1,
        consistency: Consistency::HomeEagerRc,
        home_policy: HomePolicyKind::Interleaved,
        seed: 0x5eed,
        ..ClusterConfig::default()
    }
}

/// The racy workload explored by the CI sweep. A three-element vector
/// lives on one minipage homed at host 1 (interleaved homes: the pad
/// cell takes mp0, the vector mp1). Each round hosts 0 and 2 write
/// disjoint elements remotely — fetch, twin, and a release diff shipped
/// home at barrier entry — while host 1, the home, writes the middle
/// element. Under HLRC the home copy starts read-only, a flusher drops
/// its own mapping, and a diff apply invalidates every copy holder, so
/// host 1 keeps re-fetching a minipage it homes: request, serve and
/// reply all pass through host 1's own server queue, and the reply's
/// payload is a serve-time snapshot of the very page it installs into.
/// After the barrier every host asserts both written values: on correct
/// code the home never installs its own snapshot and the asserts always
/// hold; with the PR-3 bug re-introduced, any schedule that applies one
/// writer's diff between the home's serve and its reply silently
/// reverts that diff — the lost update the sweep must catch.
pub fn race_workload(cfg: ClusterConfig) -> RunReport {
    run(
        cfg,
        |s| {
            let _pad = s.alloc_cell_init::<u64>(0);
            s.new_page();
            s.alloc_vec_init(&[0u64, 0, 0])
        },
        |ctx, sv| {
            for r in 0..6u64 {
                // Disjoint per-host elements: no write-write race. One
                // barrier per round, so a fast host's round r+1 fetches,
                // diffs and serves overlap a slow host's round-r asserts —
                // that overlap is where the home's self-served fetch can
                // straddle a diff apply.
                ctx.set(sv, ctx.host().index(), r + 1);
                ctx.barrier();
                for e in [0usize, 2] {
                    let v = ctx.get(sv, e);
                    // The element's owner flushed r+1 before the barrier
                    // and may have raced ahead to flush r+2; anything
                    // else is a lost or time-travelling update.
                    assert!(
                        v == r + 1 || v == r + 2,
                        "element {e} read {v} after barrier in round {r} \
                         (legal: {} or {})",
                        r + 1,
                        r + 2
                    );
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_json_round_trips() {
        let repro = MinimizedRepro {
            seed: u64::MAX, // beyond 2^53: must not pass through an f64
            schedule_index: 13,
            policy: "pct".to_string(),
            choices: vec![0, 3, u32::MAX, 2],
            violations: vec![
                "panic: stale value after barrier in round 2".to_string(),
                "vt 10: mp4: \"quoted\"\nand newline".to_string(),
            ],
            replays_used: 42,
        };
        let json = repro.to_json();
        assert_eq!(MinimizedRepro::from_json(&json), Some(repro));
    }

    #[test]
    fn repro_json_round_trips_empty_lists() {
        let repro = MinimizedRepro {
            seed: 0,
            schedule_index: 0,
            policy: "random".to_string(),
            choices: vec![],
            violations: vec![],
            replays_used: 1,
        };
        let json = repro.to_json();
        assert_eq!(MinimizedRepro::from_json(&json), Some(repro));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert_eq!(MinimizedRepro::from_json("{}"), None);
        assert_eq!(MinimizedRepro::from_json("not json"), None);
        assert_eq!(
            MinimizedRepro::from_json("{\"seed\": 1, \"schedule_index\": []}"),
            None
        );
        // A choice beyond u32 is not a decision index.
        assert_eq!(
            MinimizedRepro::from_json(
                "{\"seed\":1,\"schedule_index\":0,\"policy\":\"pct\",\
                 \"choices\":[4294967296],\"violations\":[],\"replays_used\":0}"
            ),
            None
        );
    }
}
