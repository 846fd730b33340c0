//! The statistics behind `repro ab`: a parent and a change run in
//! alternating pairs, and the claims rule that turns each metric's pairs
//! into a verdict; and the byte comparison behind `repro ab --parity`.
//!
//! The rule is the one a wall-clock claim is held to: over at least ten
//! pairs, the change is better in at least nine pairs of ten, and its
//! median is better than the parent's by more than the parent's
//! interquartile range. A gain smaller than the parent's own spread is not
//! told apart from noise, however often it wins. Every metric here is
//! lower-is-better (`wall_s`, `setup_s`, `peak_rss_mb`).

use millipage::json::{self, Value};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// What the pairs of one metric say about the change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better in ≥ 9/10 of at least [`MIN_PAIRS`] pairs, by a median gain
    /// above the parent's IQR.
    Win,
    /// Neither a win nor a loss: no claim either way.
    Tie,
    /// Worse by the same rule turned around.
    Loss,
}

/// The fewest pairs a win or a loss is claimed on.
pub const MIN_PAIRS: usize = 10;

/// One metric's pairs, summarized.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub pairs: usize,
    /// Pairs in which the change was lower (better) than the parent.
    pub wins: usize,
    /// Pairs in which the change was higher (worse).
    pub losses: usize,
    pub parent_median: f64,
    pub change_median: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    pub verdict: Verdict,
}

impl Summary {
    /// `change − parent` medians, relative to the parent's (negative is a
    /// gain).
    pub fn relative(&self) -> f64 {
        (self.change_median - self.parent_median) / self.parent_median
    }
}

/// Exact sample quantile, as the benchmark computes it: nearest rank on
/// the sorted samples, and the midpoint of the two middle ones for an
/// even-sized median; 0 with no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if p == 0.5 && n % 2 == 0 => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        n => s[((n as f64 * p).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Applies the claims rule to `parent[i]`/`change[i]`, the two runs of
/// pair `i` of a lower-is-better metric.
///
/// # Panics
///
/// Panics if the two sides have different run counts.
pub fn summarize(parent: &[f64], change: &[f64]) -> Summary {
    assert_eq!(parent.len(), change.len(), "one parent run per change run");
    let pairs = parent.len();
    let wins = parent.iter().zip(change).filter(|(p, c)| c < p).count();
    let losses = parent.iter().zip(change).filter(|(p, c)| c > p).count();
    let (parent_median, change_median) = (quantile(parent, 0.5), quantile(change, 0.5));
    let parent_iqr = quantile(parent, 0.75) - quantile(parent, 0.25);
    let most = |n: usize| pairs >= MIN_PAIRS && n * 10 >= pairs * 9;
    let verdict = if most(wins) && parent_median - change_median > parent_iqr {
        Verdict::Win
    } else if most(losses) && change_median - parent_median > parent_iqr {
        Verdict::Loss
    } else {
        Verdict::Tie
    };
    Summary {
        pairs,
        wins,
        losses,
        parent_median,
        change_median,
        parent_iqr,
        verdict,
    }
}

/// One benchmark run's result line, as the benchmark prints it last:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value":
/// …, "unit": …}, …}}`.
pub struct ResultLine(Value);

impl ResultLine {
    /// Parses the line; `None` unless it is one JSON object.
    pub fn parse(line: &str) -> Option<Self> {
        let v = json::parse(line.trim().as_bytes()).ok()?;
        matches!(v, Value::Object(_)).then_some(Self(v))
    }

    /// Whether the run reported itself correct.
    pub fn correct(&self) -> bool {
        self.0.get("correct") == Some(&Value::Bool(true))
    }

    /// The value of the metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        let v = self.0.get("metrics")?.get(name)?.get("value")?;
        let Value::Number(n) = v else { return None };
        n.parse().ok()
    }
}

/// How one output file of a parity run compares between the two builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parity {
    /// The same bytes on both sides.
    Identical,
    /// Both sides wrote it, with different bytes.
    Differs,
    /// Only the parent wrote it.
    OnlyParent,
    /// Only the change wrote it.
    OnlyChange,
}

/// Compares the files under `parent` and `change` byte for byte, by path
/// relative to each: one verdict per path either side has, in path order.
pub fn compare_trees(parent: &Path, change: &Path) -> io::Result<Vec<(PathBuf, Parity)>> {
    let (a, b) = (files(parent)?, files(change)?);
    let mut out = Vec::new();
    for path in a.union(&b) {
        let parity = match (a.contains(path), b.contains(path)) {
            (true, false) => Parity::OnlyParent,
            (false, true) => Parity::OnlyChange,
            _ if std::fs::read(parent.join(path))? == std::fs::read(change.join(path))? => {
                Parity::Identical
            }
            _ => Parity::Differs,
        };
        out.push((path.clone(), parity));
    }
    Ok(out)
}

/// Every file under `root`, as paths relative to it.
fn files(root: &Path) -> io::Result<BTreeSet<PathBuf>> {
    let (mut found, mut dirs) = (BTreeSet::new(), vec![root.to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let rel = path.strip_prefix(root).expect("walked from the root");
                found.insert(rel.to_path_buf());
            }
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parent runs around 1.00 with an IQR of 0.02.
    const PARENT: [f64; 10] = [1.00, 0.99, 1.01, 1.00, 0.98, 1.02, 1.00, 0.99, 1.01, 1.00];

    fn shifted(by: f64) -> Vec<f64> {
        PARENT.iter().map(|p| p + by).collect()
    }

    #[test]
    fn a_clear_gain_in_every_pair_is_a_win() {
        let s = summarize(&PARENT, &shifted(-0.10));
        assert_eq!((s.wins, s.losses, s.verdict), (10, 0, Verdict::Win));
        assert!((s.relative() + 0.10).abs() < 1e-9);
        assert!((s.parent_iqr - 0.02).abs() < 1e-9, "{}", s.parent_iqr);
    }

    #[test]
    fn a_gain_inside_the_parents_spread_or_too_few_wins_is_a_tie() {
        // Wins every pair, but by less than the parent's IQR.
        let small = summarize(&PARENT, &shifted(-0.01));
        assert_eq!((small.wins, small.verdict), (10, Verdict::Tie));
        // A large median gain that wins only eight pairs of ten.
        let mut mixed = shifted(-0.10);
        mixed[0] = 2.0;
        mixed[1] = 2.0;
        let mixed = summarize(&PARENT, &mixed);
        assert_eq!((mixed.wins, mixed.verdict), (8, Verdict::Tie));
        // The same code on both sides.
        let same = summarize(&PARENT, &PARENT);
        assert_eq!((same.wins, same.losses, same.verdict), (0, 0, Verdict::Tie));
        // A clear gain over too few pairs.
        let few = summarize(&PARENT[..9], &shifted(-0.10)[..9]);
        assert_eq!((few.wins, few.verdict), (9, Verdict::Tie));
    }

    #[test]
    fn a_clear_slowdown_is_a_loss() {
        let s = summarize(&PARENT, &shifted(0.10));
        assert_eq!((s.wins, s.losses, s.verdict), (0, 10, Verdict::Loss));
    }

    #[test]
    fn a_result_line_yields_its_metrics() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":0.0712,"unit":"s"},"peak_rss_mb":{"value":41,"unit":"MB"}}}"#;
        let r = ResultLine::parse(line).expect("one JSON object");
        assert!(r.correct());
        assert_eq!(r.metric("wall_s"), Some(0.0712));
        assert_eq!(r.metric("peak_rss_mb"), Some(41.0));
        assert_eq!(r.metric("setup_s"), None);
        assert!(ResultLine::parse("wall_s 0.07").is_none());
    }

    /// Two parity run directories holding `files`, under a fresh
    /// directory of the system's temporary one.
    fn run_dirs(name: &str, files: [(&str, &[u8], &[u8]); 2]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("repro-ab-{name}-{}", std::process::id()));
        for (side, pick) in [("parent", 0), ("change", 1)] {
            let dir = root.join(side).join("trace");
            std::fs::create_dir_all(&dir).expect("temporary directory");
            for (file, a, b) in files {
                std::fs::write(dir.join(file), [a, b][pick]).expect("written");
            }
        }
        root
    }

    #[test]
    fn identical_runs_compare_identical_file_by_file() {
        let root = run_dirs(
            "same",
            [
                ("stdout", b"Table 2\n", b"Table 2\n"),
                ("trace.json", b"[1]", b"[1]"),
            ],
        );
        let got = compare_trees(&root.join("parent"), &root.join("change")).expect("readable");
        std::fs::remove_dir_all(&root).expect("cleanup");
        let want = [
            (PathBuf::from("trace/stdout"), Parity::Identical),
            (PathBuf::from("trace/trace.json"), Parity::Identical),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn one_byte_apart_is_a_difference_and_a_missing_file_is_named() {
        let root = run_dirs(
            "apart",
            [
                ("stdout", b"Table 2\n", b"Table 2\n"),
                ("trace.json", b"[1]", b"[2]"),
            ],
        );
        std::fs::write(root.join("change/trace/extra.json"), "{}").expect("written");
        let got = compare_trees(&root.join("parent"), &root.join("change")).expect("readable");
        std::fs::remove_dir_all(&root).expect("cleanup");
        let want = [
            (PathBuf::from("trace/extra.json"), Parity::OnlyChange),
            (PathBuf::from("trace/stdout"), Parity::Identical),
            (PathBuf::from("trace/trace.json"), Parity::Differs),
        ];
        assert_eq!(got, want);
    }
}
