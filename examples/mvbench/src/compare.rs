//! `compare A.json B.json`: the bounds of `BENCHMARK.json` applied row by
//! row to two `run` outputs, and `selftest`, which proves the comparison
//! on doctored inputs and checks the metric tables against
//! `BENCHMARK.json`.

use crate::json::Value;
use crate::metrics::{self, Def, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    /// An end-to-end metric worse than its bound allows.
    pub regressions: usize,
    /// Within the bound, but the samples of one side spread wider than
    /// the bound: the runs cannot tell.
    pub unresolved: usize,
    /// An exact metric (count, virtual time) that differs at all.
    pub changed: usize,
    /// Workloads of B with a failed repetition.
    pub failed: usize,
    pub lines: Vec<String>,
}

impl Verdict {
    pub fn clean(&self) -> bool {
        self.regressions + self.changed + self.failed == 0
    }
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    v.at(path).and_then(Value::as_f64)
}

/// (max - min) / median of a metric's own samples; 0 with fewer than two.
fn spread(metric: &Value) -> f64 {
    let samples: Vec<f64> = metric["samples"]
        .items()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if samples.len() < 2 {
        return 0.0;
    }
    let (min, max) = metrics::min_max(&samples);
    (max - min) / metrics::median(&samples)
}

/// Compares two `run` outputs. `bench` is the parsed `BENCHMARK.json`.
/// Refuses (`Err`) to compare a quick set with a full one, or two seeds:
/// neither the times nor the exact counts would mean anything.
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Result<Verdict, String> {
    for key in ["quick", "seed"] {
        let (va, vb) = (a.at(&["meta", key]), b.at(&["meta", key]));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: meta.{key} is {} in A and {} in B",
                va.unwrap_or(&Value::Null),
                vb.unwrap_or(&Value::Null)
            ));
        }
    }
    let bound_of = |name: &str| {
        bench["end_to_end"]
            .items()
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))
    };
    let mut out = Verdict::default();
    for (workload, _) in WORKLOADS {
        let (Some(wa), Some(wb)) = (
            a.at(&["workloads", workload]),
            b.at(&["workloads", workload]),
        ) else {
            return Err(format!("workload {workload} is missing from an input"));
        };
        let failed = num(wb, &["failed"]).unwrap_or(0.0);
        if failed > 0.0 {
            out.failed += 1;
            out.lines.push(format!(
                "{workload:<11} FAILED      {failed} of {} repetitions in B",
                num(wb, &["attempted"]).unwrap_or(0.0)
            ));
        }
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for d in defs {
                let (Some(ma), Some(mb)) = (wa.at(&[section, d.name]), wb.at(&[section, d.name]))
                else {
                    return Err(format!("{workload} {} is missing from an input", d.name));
                };
                let (va, vb) = (
                    num(ma, &["value"]).unwrap_or(f64::NAN),
                    num(mb, &["value"]).unwrap_or(f64::NAN),
                );
                let status = if section == "end_to_end" {
                    bounded(
                        d,
                        va,
                        vb,
                        bound_of(d.name)?,
                        spread(ma).max(spread(mb)),
                        &mut out,
                    )
                } else if !d.exact {
                    "info"
                } else if va == vb {
                    continue;
                } else {
                    out.changed += 1;
                    "CHANGED"
                };
                out.lines.push(format!(
                    "{workload:<11} {status:<11} {:<38} {va:>14.6} -> {vb:>14.6} {:<9} {:+.1}%",
                    d.name,
                    d.unit,
                    (vb - va) / va * 100.0
                ));
            }
        }
    }
    Ok(out)
}

fn bounded(d: &Def, va: f64, vb: f64, bound: f64, spread: f64, out: &mut Verdict) -> &'static str {
    let worse = if d.higher_better { va - vb } else { vb - va } / va;
    if worse > bound || worse.is_nan() {
        out.regressions += 1;
        "REGRESSION"
    } else if spread > bound {
        out.unresolved += 1;
        "unresolved"
    } else if worse < -bound {
        "improved"
    } else {
        "unchanged"
    }
}

// --- selftest ---------------------------------------------------------------

fn check(ok: bool, what: &str, errors: &mut Vec<String>) {
    if !ok {
        errors.push(what.to_string());
    }
}

fn in_charset(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// A plausible `run` output: every metric 1.0, three tight samples.
fn synthetic_set() -> Value {
    let mut workloads = Value::obj();
    for (name, _) in WORKLOADS {
        let section = |defs: &[Def]| {
            let mut s = Value::obj();
            for d in defs {
                let m = Value::obj()
                    .with("value", 1.0)
                    .with("unit", d.unit)
                    .with("samples", vec![0.99, 1.0, 1.01]);
                s.set(d.name, m);
            }
            s
        };
        let w = Value::obj()
            .with("attempted", 6usize)
            .with("failed", 0usize)
            .with("end_to_end", section(END_TO_END))
            .with("per_layer", section(PER_LAYER));
        workloads.set(name, w);
    }
    let meta = Value::obj().with("quick", false).with("seed", 7u64);
    Value::obj().with("meta", meta).with("workloads", workloads)
}

/// Every check the benchmark can make of itself without running a
/// workload. Returns what failed.
pub fn selftest(bench: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    let e = &mut errors;

    // Names and units stay inside the contract's character sets, once each.
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        check(
            in_charset(d.name, "_.-", 64),
            &format!("name {}", d.name),
            e,
        );
        check(
            in_charset(d.unit, "_/%.-", 16),
            &format!("unit {}", d.unit),
            e,
        );
        check(seen.insert(d.name), &format!("{} listed twice", d.name), e);
    }
    for (name, why) in WORKLOADS {
        check(in_charset(name, "_.-", 64), &format!("workload {name}"), e);
        check(
            why.len() <= 200 && !why.contains('\n'),
            &format!("why of {name}"),
            e,
        );
        check(seen.insert(name), &format!("{name} listed twice"), e);
    }

    // BENCHMARK.json and the tables name the same things, both ways.
    let listed = |key: &str| -> Vec<(String, String, bool)> {
        let items = bench[key].items();
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        items
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better") == "higher",
                )
            })
            .collect()
    };
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<_> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_better))
            .collect();
        check(
            listed(key) == ours,
            &format!("BENCHMARK.json {key} differs from the code's table"),
            e,
        );
    }
    for m in bench["end_to_end"].items() {
        let bound = m.get("bound").and_then(Value::as_f64);
        check(
            bound.is_some_and(|b| b > 0.0 && b <= 0.25),
            "end_to_end bound out of range",
            e,
        );
    }
    let theirs: Vec<(&str, &str)> = bench["workloads"]
        .items()
        .iter()
        .map(|w| {
            let field = |k| w.get(k).and_then(Value::as_str).unwrap_or("");
            (field("name"), field("why"))
        })
        .collect();
    check(
        theirs == WORKLOADS,
        "BENCHMARK.json workloads differ from the code's",
        e,
    );

    // The comparison, on doctored inputs.
    let base = synthetic_set();
    let round_trip = Value::parse(&base.to_string());
    check(
        round_trip.as_ref() == Ok(&base),
        "JSON does not round-trip",
        e,
    );
    let doctored = |path: &[&str], v: Value| {
        let mut set = base.clone();
        *set.at_mut(path).expect("synthetic set has the path") = v;
        compare(&base, &set, bench)
    };
    let counts = |v: &Result<Verdict, String>| {
        v.as_ref()
            .map(|v| (v.regressions, v.unresolved, v.changed, v.failed))
            .map_err(Clone::clone)
    };
    check(
        counts(&compare(&base, &base, bench)) == Ok((0, 0, 0, 0)),
        "identical sets must compare clean",
        e,
    );
    let wall = ["workloads", "lu4_seq", "end_to_end", "wall_s"];
    // 1.3: past the 0.25 bound on wall_s, inside twice the bound.
    let slower = doctored(&[&wall[..], &["value"]].concat(), 1.3.into());
    check(
        counts(&slower) == Ok((1, 0, 0, 0)),
        "a 30%-slower wall_s must be one regression",
        e,
    );
    check(
        slower.is_ok_and(|v| {
            v.lines
                .iter()
                .any(|l| l.contains("REGRESSION") && l.contains("lu4_seq") && l.contains("wall_s"))
        }),
        "the regression must name its workload and metric",
        e,
    );
    let noisy = doctored(
        &[&wall[..], &["samples"]].concat(),
        vec![0.8, 1.0, 1.2].into(),
    );
    check(
        counts(&noisy) == Ok((0, 1, 0, 0)),
        "a spread wider than the bound must be unresolved",
        e,
    );
    let failed = doctored(&["workloads", "sor2_host", "failed"], 1usize.into());
    check(
        counts(&failed) == Ok((0, 0, 0, 1)),
        "a failed repetition must be counted",
        e,
    );
    let virt = [
        "workloads",
        "water4_seq",
        "per_layer",
        "core.proto.virt_ms",
        "value",
    ];
    let drifted = doctored(&virt, 1.000_000_001.into());
    check(
        counts(&drifted) == Ok((0, 0, 1, 0)),
        "a changed virt_ms must be flagged",
        e,
    );
    let quick = doctored(&["meta", "quick"], true.into());
    check(quick.is_err(), "quick-vs-full must be refused", e);

    check(
        metrics::median(&[3.0, 1.0, 2.0]) == 2.0,
        "median of three",
        e,
    );
    check(
        metrics::median(&[4.0, 1.0, 2.0, 3.0]) == 2.5,
        "median of four",
        e,
    );
    check(
        metrics::quantile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 0.99) == 99.0,
        "p99 of 1..=100",
        e,
    );
    errors
}
