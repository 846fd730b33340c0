//! mvbench — the repository's benchmark. See README.md beside this
//! package for the metric glossary and the measurement conditions.
//!
//! ```text
//! mvbench --workload W --seed N --seconds S --trace 0|1   one workload (the driver's contract)
//! mvbench run [--seed N] [--seconds S] [--out DIR] [--quick]   every workload, both ways
//! mvbench compare A.json B.json                           BENCHMARK.json's bounds, row by row
//! mvbench selftest                                        the comparison on doctored inputs
//! ```

mod calib;
mod child;
mod compare;
mod json;
mod layers;
mod metrics;
mod spans;
mod sys;
mod workloads;

use json::Value;
use metrics::{Def, Values, END_TO_END, PER_LAYER};
use spans::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::WORKLOADS;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");
/// The default seed (the paper's year); every output records the one used.
const DEFAULT_SEED: u64 = 1999;
/// `setup_s` is the median of this many cold set-ups, each its own process.
const SETUPS: usize = 3;
const USAGE: &str = "usage: mvbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       mvbench run [--seed N] [--seconds S] [--out DIR] [--quick]
       mvbench compare A.json B.json
       mvbench selftest";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    setup_only: bool,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_opts(args: &[String], bench: &Value) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: bench["run_seconds"].as_f64().unwrap_or(5.0),
        trace: false,
        quick: false,
        setup_only: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        let bad = |v: &String| format!("bad value {v} for {a}");
        match a.as_str() {
            "--workload" => o.workload = Some(val()?.clone()),
            "--seed" => o.seed = val().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => o.seconds = val().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => o.out = Some(val()?.into()),
            "--quick" => o.quick = true,
            "--setup-only" => o.setup_only = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => o.files.push(file.to_string()),
        }
    }
    if o.quick {
        o.seconds = 0.0; // K = 1; a wiring smoke test only
    }
    Ok(o)
}

/// One workload measured one way: what the contract's result line and
/// the `run` output are both built from.
struct Measured {
    attempted: usize,
    failures: Vec<String>,
    values: Values,
    /// The samples behind a value that is a median of several: at
    /// reference speed, and as the clock read them.
    samples: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
}

/// Re-executes this binary as a child for `workload` and parses the JSON
/// it prints last.
fn spawn_child(workload: &str, o: &Opts, trace: bool, setup_only: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.quick {
        cmd.arg("--quick");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Value::parse(text.lines().last().unwrap_or(""))
}

/// Measures `workload` with tracing off (every end-to-end metric) or on
/// (every per-layer metric, and the child's spans into `spans`).
fn measure(workload: &str, o: &Opts, trace: bool, spans: &mut Spans) -> Result<Measured, String> {
    let child = spawn_child(workload, o, trace, false)?;
    let num = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: child reported no {k}"))
    };
    let strings = |v: &Value| -> Vec<String> {
        let items = v["failures"].items();
        items
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect()
    };
    let mut m = Measured {
        attempted: num(&child, "attempted")? as usize,
        failures: strings(&child),
        values: Values::new(),
        samples: BTreeMap::new(),
    };
    if trace {
        for d in PER_LAYER {
            m.values.insert(d.name, num(&child["values"], d.name)?);
        }
        spans.adopt(child.get("spans").unwrap_or(&Value::Null));
        return Ok(m);
    }
    let list = |k: &str| -> Vec<f64> {
        let items = child[k].items().iter();
        items.filter_map(Value::as_f64).collect()
    };
    let (walls, raw_walls) = (list("wall_s"), list("wall_raw_s"));
    let mut setups = vec![num(&child, "setup_s")?];
    let mut raw_setups = vec![num(&child, "setup_raw_s")?];
    for _ in 1..SETUPS {
        let again = spawn_child(workload, o, false, true)?;
        setups.push(num(&again, "setup_s")?);
        raw_setups.push(num(&again, "setup_raw_s")?);
        m.attempted += num(&again, "attempted")? as usize;
        m.failures.extend(strings(&again));
    }
    m.values.insert("wall_s", metrics::median(&walls));
    m.values.insert("setup_s", metrics::median(&setups));
    m.values.insert("peak_rss_mb", num(&child, "peak_rss_mb")?);
    m.samples.insert("wall_s", (walls, raw_walls));
    m.samples.insert("setup_s", (setups, raw_setups));
    Ok(m)
}

fn print_metrics(workload: &str, defs: &[Def], m: &Measured) {
    for d in defs {
        let mut line = format!(
            "{workload:<11} {:<38} {:>16.6} {}",
            d.name, m.values[d.name], d.unit
        );
        if let Some((s, raw)) = m.samples.get(d.name) {
            let (min, max) = metrics::min_max(s);
            line += &format!(
                "  (min {min:.6}, max {max:.6}, K={}; median before calibration {:.6})",
                s.len(),
                metrics::median(raw)
            );
        }
        println!("{line}");
    }
    for f in &m.failures {
        println!("{workload:<11} FAILED {f}");
    }
}

/// Pins to one CPU and says which; everything timed runs in children
/// that inherit the mask.
fn pin() -> Value {
    match sys::pin_to_one_cpu() {
        Some(cpu) => cpu.into(),
        None => {
            eprintln!("mvbench: could not pin to one CPU; times will be noisier");
            Value::Null
        }
    }
}

fn write_out(dir: &PathBuf, file: &str, v: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(file), format!("{v}\n")))
        .map_err(|e| format!("write {}: {e}", dir.join(file).display()))
}

fn set_id(o: &Opts) -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!("mvbench-{}-{now}", o.seed)
}

/// The driver's contract: one workload, one way, one result line. The
/// line carries the verdict (`correct`), so the exit code is 0 once it is
/// printed.
fn one(o: &Opts) -> Result<bool, String> {
    let workload = o.workload.as_deref().expect("checked by the caller");
    if workloads::spec(workload, o.seed, o.quick).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    pin();
    let mut spans = Spans::new(o.trace);
    spans.begin(workload);
    let m = measure(workload, o, o.trace, &mut spans)?;
    spans.end();
    let defs = if o.trace { PER_LAYER } else { END_TO_END };
    print_metrics(workload, defs, &m);
    if let Some(dir) = &o.out {
        let v = Value::obj()
            .with("set_id", set_id(o))
            .with("spans", spans.to_json());
        write_out(dir, "spans.json", &v)?;
    }
    let failed = m.failures.len().min(m.attempted);
    let line = Value::obj()
        .with("correct", failed == 0)
        .with("attempted", m.attempted)
        .with("failed", failed)
        .with("metrics", metrics::metrics_json(defs, &m.values));
    println!("{line}");
    Ok(true)
}

/// Every workload with tracing off, then traced with the layer drivers;
/// prints every metric and writes `mvbench.json` and `spans.json`.
fn run_set(o: &Opts) -> Result<bool, String> {
    let mut meta = sys::machine();
    meta.set("pinned_cpu", pin());
    meta.set("seed", o.seed);
    meta.set("seconds", o.seconds);
    meta.set("quick", o.quick);
    let started = Instant::now();
    let mut spans = Spans::new(true);
    spans.begin("set");
    let (mut k, mut results) = (Value::obj(), Value::obj());
    let mut traced_exact = BTreeMap::new();
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        spans.begin(workload);
        let mut w = Value::obj();
        let (mut attempted, mut failures) = (0, Vec::new());
        for (section, trace, defs) in [
            ("end_to_end", false, END_TO_END),
            ("per_layer", true, PER_LAYER),
        ] {
            let m = measure(workload, o, trace, &mut spans)?;
            print_metrics(workload, defs, &m);
            let mut s = metrics::metrics_json(defs, &m.values);
            for (name, (samples, raw)) in &m.samples {
                if let Some(metric) = s.get_mut(name) {
                    metric.set("samples", samples.clone());
                    metric.set("raw_samples", raw.clone());
                }
            }
            if let Some((walls, _)) = m.samples.get("wall_s") {
                k.set(workload, walls.len());
            }
            if trace {
                let exact = [
                    "sim-net.msgs",
                    "core.proto.read_faults",
                    "core.proto.write_faults",
                    "core.proto.virt_ms",
                ];
                traced_exact.insert(workload, exact.map(|n| m.values[n]));
            }
            w.set(section, s);
            attempted += m.attempted;
            failures.extend(m.failures);
        }
        if workload == "sor32_w2" && traced_exact["sor32_w2"] != traced_exact["sor32_seq"] {
            failures.push("counts or virtual time differ from sor32_seq".into());
            println!("{workload:<11} FAILED {}", failures[failures.len() - 1]);
        }
        let failed = failures.len().min(attempted);
        println!(
            "{workload:<11} {:<38} {:>16.6} failed/attempted  ({failed} of {attempted})",
            "fail_ratio",
            failed as f64 / attempted as f64
        );
        clean &= failed == 0;
        w.set("attempted", attempted);
        w.set("failed", failed);
        w.set("failures", failures);
        results.set(workload, w);
        spans.end();
    }
    spans.end();
    meta.set("k", k);
    println!(
        "paper, Table 1 and s4.2 (300 MHz Pentium II, NT): set protection 12 us, get protection 7 us, \
         access fault 26 us, header message 12 us, read fault 204 us"
    );
    println!("meta {meta}");
    println!("set took {:.1} s", started.elapsed().as_secs_f64());
    let id = set_id(o);
    let dir = o.out.clone().unwrap_or_else(|| "mvbench-out".into());
    let set = Value::obj()
        .with("schema", "mvbench-1")
        .with("set_id", id.as_str())
        .with("meta", meta)
        .with("workloads", results);
    write_out(&dir, "mvbench.json", &set)?;
    let spans = Value::obj()
        .with("set_id", id)
        .with("spans", spans.to_json());
    write_out(&dir, "spans.json", &spans)?;
    println!("wrote {}/mvbench.json and spans.json", dir.display());
    Ok(clean)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Dispatches; `Ok(false)` is a run that completed and found a failure.
fn dispatch(args: &[String]) -> Result<bool, String> {
    let started = Instant::now();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("", args),
    };
    let bench = Value::parse(BENCHMARK_JSON)?;
    let o = parse_opts(rest, &bench)?;
    match (cmd, &o.workload) {
        ("child", Some(name)) => {
            let spec = workloads::spec(name, o.seed, o.quick)
                .ok_or_else(|| format!("unknown workload {name}"))?;
            let mode = match (o.setup_only, o.trace) {
                (true, _) => child::Mode::SetupOnly,
                (false, false) => child::Mode::Timed,
                (false, true) => child::Mode::Traced,
            };
            let report = child::run(&spec, mode, o.seconds, o.quick, started);
            println!("{report}");
            Ok(true)
        }
        ("", Some(_)) => one(&o),
        ("run", None) => run_set(&o),
        ("compare", None) if o.files.len() == 2 => {
            let v = compare::compare(&read_json(&o.files[0])?, &read_json(&o.files[1])?, &bench)?;
            v.lines.iter().for_each(|l| println!("{l}"));
            println!(
                "{} regressions, {} unresolved, {} exact metrics changed, {} workloads with failures",
                v.regressions, v.unresolved, v.changed, v.failed
            );
            Ok(v.clean())
        }
        ("selftest", None) => {
            let errors = compare::selftest(&bench);
            errors.iter().for_each(|e| println!("selftest FAILED: {e}"));
            if errors.is_empty() {
                println!("selftest passed");
            }
            Ok(errors.is_empty())
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mvbench: {e}");
            ExitCode::from(2)
        }
    }
}
