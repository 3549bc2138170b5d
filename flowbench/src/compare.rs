//! `benchmark --compare PARENT_DIR CHANGE_DIR`: compares two sets of
//! result files under the bounds declared in `BENCHMARK.json`.
//!
//! Runs are paired by workload and seed: both sides must have run the
//! same seeds. Each metric is judged on the pairs' relative changes,
//! `(change − parent) / parent`, oriented so that positive is worse. A
//! seed's QoR is deterministic, so on QoR the pairs agree exactly and
//! any shift shows; pooling unpaired runs would instead bury it in how
//! much one seed's netlist differs from another's.
//!
//! QoR metrics repeat bit for bit on a seed, so `--compare` holds their
//! paired change to [`EXACT_BOUND`] (0.5%) when `BENCHMARK.json` allows
//! more. The file's own bound is looser because it must also hold the
//! spread of unpaired runs over ten different seeds, whose netlists alone
//! differ by 1.5–4% in HPWL.
//!
//! Rules (the choosing-metrics method for a small sandbox):
//! - a regression is a median relative change worse than the metric's
//!   bound, or more failed operations;
//! - a metric whose relative changes spread (quartile to quartile) wider
//!   than its bound is `unresolved` unless the change wins every pair;
//! - a gain needs the change to win at least 9 of 10 pairs (ties count
//!   for neither) and the medians to differ by more than the distance
//!   between the parent's quartiles.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use rdp_obs::json::{self, Value};

use crate::stats::quartiles;
use crate::Better;

/// One run's results, as written by `--out`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run's checks passed.
    pub correct: bool,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Metrics that repeat bit for bit on a seed (the benchmark checks this
/// across passes).
pub const EXACT_METRICS: &[&str] = &["hpwl_um", "drwl_um"];
/// The paired worsening `--compare` tolerates on [`EXACT_METRICS`].
pub const EXACT_BOUND: f64 = 0.005;

/// A bounded end-to-end metric from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Largest tolerated worsening, as a share of the parent value.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: `better` is not lower/higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no numeric `bound`"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Parses one result object (`workload`, `seed`, `correct`, `failed`,
/// `metrics`).
pub fn parse_result(v: &Value) -> Result<RunResult, String> {
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("result without `workload`")?;
    let seed = v
        .get("seed")
        .and_then(Value::as_f64)
        .filter(|s| *s >= 0.0 && s.fract() == 0.0)
        .ok_or("result without a whole-number `seed`")?;
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(obj)) = v.get("metrics") {
        for (k, m) in obj {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(k.clone(), x);
            }
        }
    }
    Ok(RunResult {
        workload: workload.to_string(),
        seed: seed as u64,
        correct,
        failed: if failed.is_finite() {
            failed as u64
        } else {
            u64::MAX
        },
        metrics,
    })
}

/// Loads every `*.json` result file of `dir`, in file-name order. A file
/// holds one result object or a list of them (`--workload all`).
pub fn load_dir(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        match &v {
            Value::Arr(items) => {
                for item in items {
                    out.push(parse_result(item).map_err(|e| format!("{}: {e}", p.display()))?);
                }
            }
            _ => out.push(parse_result(&v).map_err(|e| format!("{}: {e}", p.display()))?),
        }
    }
    Ok(out)
}

/// Outcome of one workload × metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, no gain shown.
    Unchanged,
    /// Paired changes spread wider than the bound: no claim either way.
    Unresolved,
    /// A gain by the pairs-and-IQR rule.
    Gain,
    /// Worse than the parent by more than the bound.
    Regression,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Quartiles of the pairs' relative changes (not oriented).
    pub delta: [f64; 3],
    /// Pairs the change won, and pairs compared.
    pub wins: (usize, usize),
    /// Verdict.
    pub verdict: Verdict,
}

/// Judges one metric on `(parent, change)` value pairs of the same
/// seeds. Needs two pairs.
pub fn judge(pairs: &[(f64, f64)], b: &Bound) -> Option<Row> {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let p = quartiles(&parent)?;
    let c = quartiles(&change)?;
    let rel: Vec<f64> = pairs
        .iter()
        .map(|&(x, y)| (y - x) / x.abs().max(f64::MIN_POSITIVE))
        .collect();
    let delta = quartiles(&rel)?;
    // Oriented so that positive means "change is worse".
    let sign = match b.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let wins = rel.iter().filter(|&&r| sign * r < 0.0).count();
    let worse = sign * delta[1];
    let spread = delta[2] - delta[0];
    let verdict = if worse > b.bound {
        Verdict::Regression
    } else if spread > b.bound && wins < pairs.len() {
        Verdict::Unresolved
    } else if 10 * wins >= 9 * pairs.len() && -sign * (c[1] - p[1]) > p[2] - p[0] {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    };
    Some(Row {
        workload: String::new(),
        metric: b.name.clone(),
        parent: p,
        change: c,
        delta,
        wins: (wins, pairs.len()),
        verdict,
    })
}

/// Runs of one workload by seed; repeated runs of a seed keep their order.
type BySeed<'a> = BTreeMap<u64, Vec<&'a RunResult>>;

fn by_workload_and_seed(runs: &[RunResult]) -> BTreeMap<&str, BySeed<'_>> {
    let mut g: BTreeMap<&str, BySeed> = BTreeMap::new();
    for r in runs {
        g.entry(r.workload.as_str())
            .or_default()
            .entry(r.seed)
            .or_default()
            .push(r);
    }
    g
}

/// Compares every workload × bounded metric, plus failed operations.
/// Returns the rows and whether anything regressed.
pub fn compare(
    parent: &[RunResult],
    change: &[RunResult],
    bounds: &[Bound],
) -> Result<(Vec<Row>, bool), String> {
    let (parent, change) = (by_workload_and_seed(parent), by_workload_and_seed(change));
    let mut rows = Vec::new();
    let mut regressed = false;
    for (w, p_seeds) in &parent {
        let c_seeds = change
            .get(w)
            .ok_or_else(|| format!("no change runs for workload `{w}`"))?;
        let seeds: BTreeSet<u64> = p_seeds.keys().chain(c_seeds.keys()).copied().collect();
        let mut pairs: Vec<(&RunResult, &RunResult)> = Vec::new();
        for seed in seeds {
            let (Some(p), Some(c)) = (p_seeds.get(&seed), c_seeds.get(&seed)) else {
                return Err(format!(
                    "{w}: seed {seed} ran on one side only; run the same seeds on both"
                ));
            };
            if p.len() != c.len() {
                return Err(format!(
                    "{w}: seed {seed} ran {} times on the parent and {} on the change",
                    p.len(),
                    c.len()
                ));
            }
            pairs.extend(p.iter().copied().zip(c.iter().copied()));
        }
        let failed = |r: &RunResult| if r.correct { r.failed } else { r.failed.max(1) };
        let (p_failed, c_failed) = pairs.iter().fold((0u64, 0u64), |(a, b), (p, c)| {
            (a.saturating_add(failed(p)), b.saturating_add(failed(c)))
        });
        if c_failed > p_failed {
            regressed = true;
            println!(
                "{w}: REGRESSION: {c_failed} failed operations against the parent's {p_failed}"
            );
        }
        for b in bounds {
            let mut b = b.clone();
            if EXACT_METRICS.contains(&b.name.as_str()) {
                b.bound = b.bound.min(EXACT_BOUND);
            }
            let values: Option<Vec<(f64, f64)>> = pairs
                .iter()
                .map(|(p, c)| Some((*p.metrics.get(&b.name)?, *c.metrics.get(&b.name)?)))
                .collect();
            let values = values.ok_or_else(|| format!("{w}: a run lacks `{}`", b.name))?;
            let Some(mut row) = judge(&values, &b) else {
                return Err(format!("{w} {}: needs two seeds on each side", b.name));
            };
            row.workload = w.to_string();
            regressed |= row.verdict == Verdict::Regression;
            rows.push(row);
        }
    }
    Ok((rows, regressed))
}

/// `v` with about six significant digits.
fn sig(v: f64) -> String {
    let decimals = (5 - v.abs().max(1e-9).log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// Renders the comparison table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<15} {:>30} {:>30} {:>26} {:>6}  verdict\n",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "paired delta [q1, q3]",
        "wins"
    );
    for r in rows {
        let fmt = |q: &[f64; 3]| format!("{} [{}, {}]", sig(q[1]), sig(q[0]), sig(q[2]));
        let pct = |x: f64| format!("{:+.2}%", 100.0 * x);
        out.push_str(&format!(
            "{:<12} {:<15} {:>30} {:>30} {:>26} {:>6}  {:?}\n",
            r.workload,
            r.metric,
            fmt(&r.parent),
            fmt(&r.change),
            format!(
                "{} [{}, {}]",
                pct(r.delta[1]),
                pct(r.delta[0]),
                pct(r.delta[2])
            ),
            format!("{}/{}", r.wins.0, r.wins.1),
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(better: Better, bound: f64) -> Bound {
        Bound {
            name: "t".into(),
            better,
            bound,
        }
    }

    fn pairs(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    /// HPWL of ten seeds: deterministic per seed, but 4% apart between
    /// seeds, about what the workloads show.
    const HPWL: [f64; 10] = [
        100.0, 103.0, 98.0, 101.5, 97.0, 104.0, 99.0, 100.5, 102.0, 96.0,
    ];

    fn run(workload: &str, seed: u64, metric: &str, v: f64) -> RunResult {
        RunResult {
            workload: workload.into(),
            seed,
            correct: true,
            failed: 0,
            metrics: [(metric.to_string(), v)].into_iter().collect(),
        }
    }

    #[test]
    fn steady_equal_runs_are_unchanged() {
        let p = [1.00, 1.01, 0.99, 1.00, 1.02];
        let r = judge(&pairs(&p, &p), &bound(Better::Lower, 0.1)).unwrap();
        assert_eq!((r.verdict, r.wins), (Verdict::Unchanged, (0, 5)));
    }

    #[test]
    fn uniform_ten_percent_hpwl_worsening_is_a_regression() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let hpwl = parse_bounds(&text)
            .unwrap()
            .into_iter()
            .find(|b| b.name == "hpwl_um")
            .expect("hpwl_um is bounded");
        let worse: Vec<f64> = HPWL.iter().map(|x| x * 1.10).collect();
        let r = judge(&pairs(&HPWL, &worse), &hpwl).unwrap();
        assert_eq!(r.verdict, Verdict::Regression);
        // Paired, the seeds' spread cancels: the change reads +10% on
        // every pair, with no spread to leave it unresolved.
        assert!((r.delta[0] - 0.10).abs() < 1e-12 && (r.delta[2] - 0.10).abs() < 1e-12);

        // Through `compare`, pairing by seed, whatever order the files
        // come in.
        let parent: Vec<RunResult> = (0..10)
            .map(|s| run("w", s, "hpwl_um", HPWL[s as usize]))
            .collect();
        let change: Vec<RunResult> = (0..10)
            .rev()
            .map(|s| run("w", s, "hpwl_um", worse[s as usize]))
            .collect();
        let (rows, regressed) = compare(&parent, &change, std::slice::from_ref(&hpwl)).unwrap();
        assert!(regressed);
        assert_eq!(rows[0].verdict, Verdict::Regression);

        // `compare` holds QoR to 0.5% on the pairs: 1% worse on every
        // seed regresses too, and 0.2% does not.
        for (worse_by, regresses) in [(1.01, true), (1.002, false)] {
            let change: Vec<RunResult> = (0..10)
                .map(|s| run("w", s, "hpwl_um", HPWL[s as usize] * worse_by))
                .collect();
            let (_, regressed) = compare(&parent, &change, std::slice::from_ref(&hpwl)).unwrap();
            assert_eq!(regressed, regresses, "{worse_by}");
        }
    }

    #[test]
    fn worse_median_beyond_bound_regresses() {
        let p = [1.00, 1.01, 0.99, 1.00, 1.02];
        let c: Vec<f64> = p.iter().map(|x| x * 1.2).collect();
        let r = judge(&pairs(&p, &c), &bound(Better::Lower, 0.1)).unwrap();
        assert_eq!(r.verdict, Verdict::Regression);
        // The same shift is a gain for a higher-is-better metric.
        let r = judge(&pairs(&p, &c), &bound(Better::Higher, 0.1)).unwrap();
        assert_eq!(r.verdict, Verdict::Gain);
    }

    #[test]
    fn wide_paired_spread_is_unresolved_not_unchanged() {
        let p = [1.0, 1.0, 1.0, 1.0, 1.0];
        let c = [1.15, 0.85, 1.0, 1.1, 0.9];
        let r = judge(&pairs(&p, &c), &bound(Better::Lower, 0.1)).unwrap();
        assert_eq!(r.verdict, Verdict::Unresolved);
        // Unless the change wins every pair.
        let c = [0.95, 0.7, 0.99, 0.98, 0.8];
        let r = judge(&pairs(&p, &c), &bound(Better::Lower, 0.1)).unwrap();
        assert_ne!(r.verdict, Verdict::Unresolved);
    }

    #[test]
    fn gain_needs_nine_of_ten_pairs_and_more_than_the_parent_iqr() {
        let p: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * i as f64).collect();
        let mut c: Vec<f64> = p.iter().map(|x| x * 0.9).collect();
        let r = judge(&pairs(&p, &c), &bound(Better::Lower, 0.1)).unwrap();
        assert_eq!((r.verdict, r.wins), (Verdict::Gain, (10, 10)));
        // Two lost pairs: 8/10 is not enough.
        c[0] = 1.1;
        c[1] = 1.1;
        let r = judge(&pairs(&p, &c), &bound(Better::Lower, 0.5)).unwrap();
        assert_eq!(r.verdict, Verdict::Unchanged);
        // 10/10 pairs, but a shift smaller than the parent's own IQR.
        let wide: Vec<f64> = HPWL.to_vec();
        let c: Vec<f64> = wide.iter().map(|x| x * 0.99).collect();
        let r = judge(&pairs(&wide, &c), &bound(Better::Lower, 0.1)).unwrap();
        assert_eq!((r.verdict, r.wins), (Verdict::Unchanged, (10, 10)));
    }

    #[test]
    fn seeds_must_match_between_sides() {
        let b = [bound(Better::Lower, 0.1)];
        let parent = vec![run("w", 1, "t", 1.0), run("w", 2, "t", 1.0)];
        let change = vec![run("w", 1, "t", 1.0), run("w", 3, "t", 1.0)];
        let err = compare(&parent, &change, &b).unwrap_err();
        assert!(err.contains("seed 2") || err.contains("seed 3"), "{err}");
    }

    #[test]
    fn bounds_and_results_parse() {
        let bounds = parse_bounds(
            r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds,
            vec![Bound {
                name: "a".into(),
                better: Better::Higher,
                bound: 0.1
            }]
        );
        let v = json::parse(
            r#"{"workload": "w", "seed": 7, "correct": true, "attempted": 3, "failed": 0,
                "metrics": {"a": {"value": 1.5, "unit": "s"}}}"#,
        )
        .unwrap();
        let r = parse_result(&v).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.correct, r.failed),
            ("w", 7, true, 0)
        );
        assert_eq!(r.metrics["a"], 1.5);
        let no_seed = json::parse(r#"{"workload": "w", "correct": true}"#).unwrap();
        assert!(parse_result(&no_seed).is_err());
    }
}
