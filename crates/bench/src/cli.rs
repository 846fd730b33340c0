//! The one skeleton every `repro` subcommand is written on:
//! parse flags → build scenarios → run → gate → emit.
//!
//! * [`Flags`] is the typed flag parser: every flag of every subcommand
//!   goes through it, so a malformed value, a missing value or a flag the
//!   subcommand does not take is a [`UsageError`] (usage + exit 2) instead
//!   of a silent default or a panic.
//! * [`traced_run`] is "run with the tracer on, drain, audit".
//! * [`Gate`] records check failures as they happen and owns the exit
//!   status; nothing below `main` calls `process::exit`.
//! * [`write_artifact`] writes an output file through the gate.

use millipage::{audit, AuditMode, ClusterConfig, HostId, RunReport, TraceLog, Tracer};
use std::fmt::{self, Display};
use std::str::FromStr;

/// Per-recorder ring capacity for traced repro runs. A paper-size SOR
/// run at 4 hosts records 871,337 events, of which rings of 2¹⁶ dropped
/// 362,061; 2²⁰ keeps every paper-size run complete (`dropped == 0`). A
/// ring grows as it records, so only the events a run records cost
/// memory.
pub const TRACE_RING_CAPACITY: usize = 1 << 20;

/// A command line the subcommand cannot accept; `main` prints it with the
/// subcommand's usage and exits 2.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

/// The arguments after the subcommand name. Every accessor *removes* what
/// it parsed, so [`finish`](Self::finish) can reject whatever is left.
#[derive(Clone, Debug)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Wraps the arguments that follow the subcommand name.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect(),
        }
    }

    /// A valueless flag (`--quick`); `true` if present.
    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// `name VALUE`, parsed as `T`; `None` if the flag is absent.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, UsageError>
    where
        T::Err: Display,
    {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.args.remove(i);
        if self.args.get(i).is_none_or(|v| v.starts_with("--")) {
            return Err(UsageError(format!("{name} needs a value")));
        }
        let raw = self.args.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|e| UsageError(format!("bad {name} {raw:?}: {e}")))
    }

    /// `--hosts N`, `default` if absent: a cluster size the simulator can
    /// build, `1..=HostId::MAX_HOSTS`.
    pub fn hosts(&mut self, default: usize) -> Result<usize, UsageError> {
        let hosts = self.value("--hosts")?.unwrap_or(default);
        match (1..=HostId::MAX_HOSTS).contains(&hosts) {
            true => Ok(hosts),
            false => Err(UsageError(format!(
                "bad --hosts {hosts}: expected 1 to {}",
                HostId::MAX_HOSTS
            ))),
        }
    }

    /// The first bare word (a scenario name). Call after every
    /// [`value`](Self::value), whose values are bare words too.
    pub fn positional(&mut self) -> Option<String> {
        let i = self.args.iter().position(|a| !a.starts_with("--"))?;
        Some(self.args.remove(i))
    }

    /// Rejects anything no accessor claimed.
    pub fn finish(&self) -> Result<(), UsageError> {
        match self.args.first() {
            None => Ok(()),
            Some(a) => Err(UsageError(format!("unexpected argument {a:?}"))),
        }
    }
}

/// Which engine runs the application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// The simulator.
    Sim,
    /// Real `mmap`/`mprotect`/SIGSEGV memory (Linux only).
    #[cfg(target_os = "linux")]
    Host,
}

impl FromStr for Backend {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Self::Sim),
            #[cfg(target_os = "linux")]
            "host" => Ok(Self::Host),
            #[cfg(not(target_os = "linux"))]
            "host" => Err("the host (real-memory) backend requires Linux"),
            _ => Err("expected sim or host"),
        }
    }
}

impl Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Sim => "sim",
            #[cfg(target_os = "linux")]
            Self::Host => "host",
        })
    }
}

/// Records failed checks and owns the exit status. A failure is printed
/// to stderr the moment it is recorded (so it lands next to the progress
/// output that explains it) and the run continues: later checks still
/// report and the artifacts still get written for the postmortem.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// A gate with nothing recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("{msg}");
        self.failures.push(msg);
    }

    /// Records `msg()` unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(msg());
        }
        ok
    }

    /// Unwraps a fallible step; a failure is recorded and yields `None`
    /// (the caller skips whatever depended on the value).
    pub fn ok<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        r.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }

    /// The post-run invariant checkers: no coherence violation, no
    /// surfaced protocol error.
    pub fn clean(&mut self, r: &RunReport, what: &str) {
        if !r.coherence_violations.is_empty() {
            self.fail(format!(
                "  {what}: coherence violations: {:?}",
                r.coherence_violations
            ));
        }
        if !r.protocol_errors.is_empty() {
            self.fail(format!(
                "  {what}: protocol errors: {:?}",
                r.protocol_errors
            ));
        }
    }

    /// The outcome of a [`traced_run`]. A log with gaps (a full ring
    /// overwrote events) gets one verdict, "incomplete", and no invariant
    /// findings: a replay of what is left judges transitions whose causes
    /// were overwritten. On a complete log every audit violation fails
    /// (the first five are recorded individually).
    pub fn audit(&mut self, what: &str, log: &TraceLog, violations: &[String]) {
        if log.dropped > 0 {
            self.fail(format!(
                "  {what}: incomplete: {} events dropped (raise TRACE_RING_CAPACITY)",
                log.dropped
            ));
            return;
        }
        for v in violations.iter().take(5) {
            self.fail(format!("  {what}: VIOLATION {v}"));
        }
        if violations.len() > 5 {
            self.fail(format!(
                "  {what}: ... and {} more violation(s)",
                violations.len() - 5
            ));
        }
    }

    /// Prints the subcommand's success line, unless something failed.
    pub fn pass(&self, msg: fmt::Arguments<'_>) {
        if self.failures.is_empty() {
            println!("{msg}");
        }
    }

    /// Everything recorded so far, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Ends the subcommand: the process exit status, with a summary line
    /// after the individual failures when there are any.
    pub fn finish(self, cmd: &str) -> u8 {
        if self.failures.is_empty() {
            return 0;
        }
        eprintln!("{cmd} FAILED: {} check failure(s)", self.failures.len());
        1
    }
}

/// Runs `run` with a fresh tracer on `cfg`, drains the trace and replays
/// it through the invariant auditor: `(run result, log, violations)`. A
/// log with gaps is not replayed; [`Gate::audit`] calls it incomplete.
pub fn traced_run<R>(
    cfg: ClusterConfig,
    mode: AuditMode,
    run: impl FnOnce(ClusterConfig) -> R,
) -> (R, TraceLog, Vec<String>) {
    traced_run_with(TRACE_RING_CAPACITY, cfg, mode, run)
}

/// [`traced_run`] with rings of `capacity` events.
fn traced_run_with<R>(
    capacity: usize,
    cfg: ClusterConfig,
    mode: AuditMode,
    run: impl FnOnce(ClusterConfig) -> R,
) -> (R, TraceLog, Vec<String>) {
    let tracer = Tracer::enabled(capacity);
    let r = run(ClusterConfig {
        tracer: tracer.clone(),
        ..cfg
    });
    let log = tracer.drain();
    let violations = match log.dropped {
        0 => audit(&log.events, mode),
        _ => Vec::new(),
    };
    (r, log, violations)
}

/// Writes an output file; prints `wrote` on success, fails the gate
/// otherwise.
pub fn write_artifact(
    gate: &mut Gate,
    path: &str,
    body: impl AsRef<[u8]>,
    wrote: fmt::Arguments<'_>,
) {
    match std::fs::write(path, body) {
        Ok(()) => println!("{wrote}"),
        Err(e) => gate.fail(format!("failed to write {path}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_typed_values_switches_and_positionals() {
        let mut f = flags(&["sor", "--quick", "--hosts", "16", "--out", "t.json"]);
        assert!(f.switch("--quick"));
        assert!(!f.switch("--quick"));
        assert_eq!(f.value::<usize>("--hosts"), Ok(Some(16)));
        assert_eq!(f.value::<u64>("--seed"), Ok(None));
        assert_eq!(f.value::<String>("--out"), Ok(Some("t.json".into())));
        assert_eq!(f.positional().as_deref(), Some("sor"));
        assert_eq!(f.positional(), None);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn malformed_missing_and_unknown_flags_are_usage_errors() {
        for args in [
            &["--hosts", "x"][..],
            &["--hosts", "-3"],
            &["--hosts"],
            &["--hosts", "--quick"],
            &["--hosts", "0"],
            &["--hosts", "1000"],
        ] {
            let err = flags(args).hosts(4).unwrap_err();
            assert!(err.0.contains("--hosts"), "{err:?}");
        }
        assert_eq!(flags(&[]).hosts(4), Ok(4));
        assert_eq!(flags(&["--hosts", "64"]).hosts(4), Ok(64));
        assert!(flags(&["--seed", "1e3"]).value::<u64>("--seed").is_err());
        let mut f = flags(&["--quick", "--host", "4"]);
        assert!(f.switch("--quick"));
        assert_eq!(
            f.finish(),
            Err(UsageError("unexpected argument \"--host\"".into()))
        );
    }

    #[test]
    fn backend_parses_or_explains() {
        assert_eq!("sim".parse(), Ok(Backend::Sim));
        assert_eq!(Backend::Sim.to_string(), "sim");
        #[cfg(target_os = "linux")]
        assert_eq!("host".parse(), Ok(Backend::Host));
        assert_eq!("foo".parse::<Backend>(), Err("expected sim or host"));
        let err = flags(&["--backend", "foo"])
            .value::<Backend>("--backend")
            .unwrap_err();
        assert_eq!(err.0, "bad --backend \"foo\": expected sim or host");
    }

    #[test]
    fn gate_exit_status_and_message_order() {
        let clean = Gate::new();
        assert!(clean.failures().is_empty());
        assert_eq!(clean.finish("trace"), 0);

        let mut g = Gate::new();
        assert!(g.check(true, || unreachable!("passing checks build no message")));
        assert!(!g.check(false, || "first".into()));
        assert_eq!(g.ok("step", Err::<(), _>("broke")), None);
        assert_eq!(g.ok("step", Ok::<_, String>(7)), Some(7));
        g.fail("last");
        assert_eq!(g.failures(), ["first", "step: broke", "last"]);
        assert_eq!(g.finish("trace"), 1);
    }

    #[test]
    fn gate_audit_fails_on_violations_and_dropped_rings() {
        let mut g = Gate::new();
        g.audit("SOR", &TraceLog::default(), &[]);
        assert!(g.failures().is_empty());

        let violations: Vec<String> = (0..7).map(|i| format!("v{i}")).collect();
        g.audit("SOR", &TraceLog::default(), &violations);
        // Five individual violations, then the "and N more" line.
        assert_eq!(g.failures().len(), 6);
        assert_eq!(g.failures()[0], "  SOR: VIOLATION v0");
        assert!(g.failures()[5].contains("2 more"));

        // A log with gaps is one verdict, whatever was found in it.
        let mut g = Gate::new();
        let log = TraceLog {
            dropped: 3,
            ..TraceLog::default()
        };
        g.audit("SOR", &log, &violations);
        assert_eq!(
            g.failures(),
            ["  SOR: incomplete: 3 events dropped (raise TRACE_RING_CAPACITY)"]
        );
    }

    #[test]
    fn a_traced_run_with_a_tiny_ring_is_incomplete_not_violated() {
        // Two hosts take turns writing one vector: every round moves
        // ownership, so the first events (allocation, first grants) are
        // what a replay of the rest needs.
        let app = |cfg: ClusterConfig| {
            millipage::run(
                ClusterConfig { hosts: 2, ..cfg },
                |s| s.alloc_vec_init(&[0u64; 8]),
                |ctx, sv| {
                    for round in 0..8u64 {
                        if ctx.host().0 as u64 == round % 2 {
                            ctx.set(sv, 0, round);
                        }
                        ctx.barrier();
                    }
                },
            )
        };
        let (r, log, violations) =
            traced_run_with(16, ClusterConfig::default(), AuditMode::SwMr, app);
        assert!(log.dropped > 0, "a 16-event ring must overwrite");
        assert!(violations.is_empty(), "a log with gaps is not replayed");
        assert!(
            !audit(&log.events, AuditMode::SwMr).is_empty(),
            "what is left of the log would read as violations"
        );
        let mut g = Gate::new();
        g.clean(&r, "tiny");
        g.audit("tiny", &log, &violations);
        assert_eq!(
            g.failures(),
            [format!(
                "  tiny: incomplete: {} events dropped (raise TRACE_RING_CAPACITY)",
                log.dropped
            )]
        );
        // The same run at the repro capacity is complete and clean.
        let (_, log, violations) = traced_run(ClusterConfig::default(), AuditMode::SwMr, app);
        assert_eq!((log.dropped, violations.len()), (0, 0));
    }

    #[test]
    fn write_artifact_gates_on_io_errors() {
        let mut g = Gate::new();
        let path = std::env::temp_dir().join(format!("repro-cli-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp dir");
        write_artifact(&mut g, path, "[1,2]\n", format_args!("ok"));
        assert_eq!(std::fs::read_to_string(path).expect("written"), "[1,2]\n");
        std::fs::remove_file(path).expect("cleanup");
        assert!(g.failures().is_empty());
        write_artifact(&mut g, "/nonexistent-dir/x.json", "", format_args!("ok"));
        assert_eq!(g.failures().len(), 1);
        assert!(g.failures()[0].starts_with("failed to write /nonexistent-dir/x.json"));
    }
}
