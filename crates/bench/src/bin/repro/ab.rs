//! `repro ab <parent-rev>` measures the working tree against a parent
//! revision with the benchmark (`examples/mvbench`), in alternating pairs,
//! and applies the claims rule to every row and end-to-end metric.
//!
//! The parent's tree is exported (`git archive`) to `target/ab/<commit>`,
//! so the repository's own metadata is left alone, and reused by later
//! calls. Both benchmarks are built in release mode, then each pair runs
//! the parent and the change back to back through the benchmark's
//! one-workload contract (`--workload W --seed N --seconds S --trace 0`),
//! swapping which goes first from one pair to the next. For each row, seed
//! and metric it prints the change's wins, both medians, their relative
//! difference, the parent's interquartile range and the verdict
//! (`millipage_bench::ab`), one (row, seed) block as soon as its pairs
//! finish. `--rows` defaults to every workload of
//! `BENCHMARK.json`, and every run lasts its `run_seconds`.
//!
//! `--parity` runs the parity set instead: each command of [`PARITY`]
//! once from each side's `repro`, in a directory of its own under
//! `target/ab/parity/`, its stdout and exit status kept as files beside
//! its artifacts. It prints, per output file, whether the two sides wrote
//! the same bytes, and fails unless every file is identical: a change
//! that moves only wall-clock time moves none of them.

use millipage::json::{self, Value};
use millipage_bench::ab::{compare_trees, summarize, Parity, ResultLine, Verdict};
use millipage_bench::cli::{Flags, Gate, UsageError};
use millipage_bench::{header, Table};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};

/// The end-to-end metrics every row reports.
const METRICS: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// The parity set: `repro` commands whose every output byte is a function
/// of the program and its inputs, never of the machine's speed.
const PARITY: [&[&str]; 5] = [
    &["trace", "table2", "--quick"],
    &["faults", "table2", "--quick"],
    &["diagnose", "table2", "--quick"],
    &["adapt", "table2", "--quick"],
    &["explore", "--schedules", "40", "--seed", "7"],
];

pub fn ab(f: &mut Flags, gate: &mut Gate) -> Result<(), UsageError> {
    let pairs: usize = f.value("--pairs")?.unwrap_or(10);
    let rows: Option<String> = f.value("--rows")?;
    let seeds: String = f.value("--seeds")?.unwrap_or_else(|| "7".into());
    let parity = f.switch("--parity");
    let rev = f
        .positional()
        .ok_or_else(|| UsageError("name the parent revision".into()))?;
    f.finish()?;
    if parity {
        parity_set(&rev, gate);
        return Ok(());
    }
    let seeds = seeds
        .split(',')
        .map(|s| s.parse::<u64>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| UsageError(format!("bad --seeds: {e}")))?;
    if pairs == 0 {
        return Err(UsageError("--pairs must be at least 1".into()));
    }
    let Some((rows, seconds, bins)) = gate.ok("prepare the A/B", prepare(&rev, rows)) else {
        return Ok(());
    };
    header(&format!(
        "A/B — {rev} against the working tree: {pairs} alternating pairs of {seconds} s runs"
    ));
    for row in &rows {
        for &seed in &seeds {
            // runs[side][pair]: side 0 is the parent, 1 the change.
            let mut runs: [Vec<ResultLine>; 2] = [Vec::new(), Vec::new()];
            for pair in 0..pairs {
                let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
                for side in order {
                    let what = format!("{row} seed {seed} pair {pair}");
                    let Some(line) = gate.ok(&what, run(&bins[side], row, seed, seconds)) else {
                        return Ok(());
                    };
                    runs[side].push(line);
                }
            }
            // Printed as soon as its pairs finish, so a long A/B shows
            // its progress and keeps what it measured when cut short.
            let mut table = Table::default();
            for name in METRICS {
                let column = |side: usize| -> Vec<f64> {
                    let values = runs[side].iter().map(|l| l.metric(name));
                    values.map(|v| v.unwrap_or(f64::NAN)).collect()
                };
                let s = summarize(&column(0), &column(1));
                let verdict = match s.verdict {
                    Verdict::Win => "win",
                    Verdict::Tie => "-",
                    Verdict::Loss => "LOSS",
                };
                table.row([
                    ("row", row),
                    ("seed", &seed),
                    ("metric", &name),
                    ("wins", &format!("{}/{}", s.wins, s.pairs)),
                    ("parent", &format!("{:.6}", s.parent_median)),
                    ("change", &format!("{:.6}", s.change_median)),
                    ("diff", &format!("{:+.1}%", 100.0 * s.relative())),
                    ("parent IQR", &format!("{:.6}", s.parent_iqr)),
                    ("verdict", &verdict),
                ]);
            }
            table.print();
        }
    }
    Ok(())
}

/// Runs the parity set from the parent's and the change's `repro` and
/// compares what each command wrote, file by file.
fn parity_set(rev: &str, gate: &mut Gate) {
    let prepared = git(None, &["rev-parse", "--show-toplevel"]).and_then(|root| {
        let root = PathBuf::from(root);
        let parent = export(&root, rev)?;
        let bins = [build_repro(&parent)?, build_repro(&root)?];
        Ok((root.join("target/ab/parity"), bins))
    });
    let Some((out, bins)) = gate.ok("prepare the parity set", prepared) else {
        return;
    };
    header(&format!(
        "Parity — {rev} against the working tree: every output file of {} commands",
        PARITY.len()
    ));
    let mut table = Table::default();
    for args in PARITY {
        let (command, name) = (args.join(" "), args[0]);
        let sides = ["parent", "change"];
        let dirs = sides.map(|side| out.join(side).join(name));
        for ((bin, dir), side) in bins.iter().zip(&dirs).zip(sides) {
            let Some(status) = gate.ok(&command, run_into(bin, args, dir)) else {
                return;
            };
            gate.check(status.success(), || {
                format!("{command} failed on the {side}: {status}")
            });
        }
        let Some(files) = gate.ok(&command, compare_trees(&dirs[0], &dirs[1])) else {
            return;
        };
        for (file, parity) in files {
            let verdict = match parity {
                Parity::Identical => "identical",
                Parity::Differs => "DIFFERS",
                Parity::OnlyParent => "ONLY PARENT",
                Parity::OnlyChange => "ONLY CHANGE",
            };
            table.row([
                ("command", &command),
                ("file", &file.display()),
                ("bytes", &verdict),
            ]);
            gate.check(parity == Parity::Identical, || {
                format!("{command}: {} is not identical ({verdict})", file.display())
            });
        }
    }
    table.print();
}

/// Runs `repro args` afresh in `dir`, keeping its stdout in `dir/stdout`
/// and its exit status in `dir/status`, beside what it writes there; the
/// exit status.
fn run_into(bin: &Path, args: &[&str], dir: &Path) -> Result<ExitStatus, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io)?;
    let stdout = std::fs::File::create(dir.join("stdout")).map_err(io)?;
    let status = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdout(stdout)
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    std::fs::write(dir.join("status"), format!("{status}\n")).map_err(io)?;
    Ok(status)
}

/// Builds `repro` in the tree at `tree`; the binary's path.
fn build_repro(tree: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .current_dir(tree)
        .args(["build", "--release", "--quiet", "-p", "millipage-bench"])
        .args(["--bin", "repro"])
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of {}'s repro failed", tree.display()));
    }
    Ok(tree.join("target/release/repro"))
}

/// The rows to run, the run length, and the parent's and the change's
/// benchmark binaries, built.
fn prepare(rev: &str, rows: Option<String>) -> Result<(Vec<String>, f64, [PathBuf; 2]), String> {
    let root = PathBuf::from(git(None, &["rev-parse", "--show-toplevel"])?);
    let bench = std::fs::read(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|b| json::parse(&b).map_err(|_| "BENCHMARK.json is not JSON".to_string()))?;
    let rows = match rows {
        Some(r) => r.split(',').map(str::to_string).collect(),
        None => workloads(&bench),
    };
    let seconds = bench.get("run_seconds").and_then(number);
    let seconds = seconds.ok_or("no run_seconds in BENCHMARK.json")?;
    let parent = export(&root, rev)?;
    Ok((rows, seconds, [build(&parent)?, build(&root)?]))
}

fn number(v: &Value) -> Option<f64> {
    let Value::Number(n) = v else { return None };
    n.parse().ok()
}

/// `BENCHMARK.json`'s workload names, in its order.
fn workloads(bench: &Value) -> Vec<String> {
    let list = bench
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let names = list.iter().filter_map(|w| w.get("name")?.as_str());
    names.map(str::to_string).collect()
}

/// Runs `git args` (in `dir`, if given) and returns its trimmed output.
fn git(dir: Option<&Path>, args: &[&str]) -> Result<String, String> {
    let mut cmd = Command::new("git");
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    let out = cmd.args(args).output().map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The tree of `rev`, exported once to `target/ab/<commit>`.
fn export(root: &Path, rev: &str) -> Result<PathBuf, String> {
    let commit = git(
        Some(root),
        &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
    )?;
    let dir = root.join("target/ab").join(&commit);
    if dir.join("BENCHMARK.json").exists() {
        return Ok(dir);
    }
    // Extract beside the final place, then rename: an interrupted export
    // never passes for a complete one.
    let partial = dir.with_extension("partial");
    let _ = std::fs::remove_dir_all(&partial);
    std::fs::create_dir_all(&partial).map_err(|e| format!("{}: {e}", partial.display()))?;
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", "--format=tar", &commit])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let stdout = archive.stdout.take().expect("piped");
    let tar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&partial)
        .stdin(stdout)
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !(tar.success() && archived.success()) {
        return Err(format!("exporting {commit} failed"));
    }
    std::fs::rename(&partial, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Builds the benchmark of the tree at `tree`; the binary's path.
fn build(tree: &Path) -> Result<PathBuf, String> {
    let manifest = tree.join("examples/mvbench/Cargo.toml");
    let status = Command::new("cargo")
        .current_dir(tree)
        .args(["build", "--release", "--quiet", "--manifest-path"])
        .arg(&manifest)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of {} failed", manifest.display()));
    }
    Ok(tree.join("examples/mvbench/target/release/mvbench"))
}

/// One benchmark run of `row`; its result line.
fn run(bin: &Path, row: &str, seed: u64, seconds: f64) -> Result<ResultLine, String> {
    let out = Command::new(bin)
        .args(["--workload", row, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = ResultLine::parse(text.lines().last().unwrap_or(""))
        .ok_or_else(|| format!("{}: no result line ({})", bin.display(), out.status))?;
    match line.correct() {
        true => Ok(line),
        false => Err(format!("{row}: the run reported itself incorrect")),
    }
}
