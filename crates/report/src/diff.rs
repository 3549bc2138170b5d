//! Run-to-run diff: structured QoR deltas with a noise threshold, plus
//! informational per-stage time deltas.
//!
//! All compared QoR quantities are lower-is-better (wirelength, overflow,
//! rollbacks), so a *regression* is `b` exceeding `a` by more than the
//! relative tolerance. Same-seed runs are bitwise deterministic end to
//! end, so their QoR deltas are exactly zero regardless of the tolerance;
//! the tolerance exists for cross-seed / cross-machine noise. Single-run
//! stage times are too noisy to gate on, so they never regress;
//! `scripts/regress.sh` gates speed on median-of-N bench baselines.

use crate::model::RunModel;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Noise thresholds for [`diff_runs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// Relative tolerance on QoR metrics (HPWL, overflow, counters).
    pub qor_rel_tol: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds { qor_rel_tol: 0.005 }
    }
}

/// Denominator floor so near-zero baselines don't explode the relative
/// delta.
const ABS_FLOOR: f64 = 1e-9;

/// What a delta is measuring, which decides its tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Quality of result; gated by `qor_rel_tol`.
    Qor,
    /// Reported but never a regression (stage times, histogram shifts,
    /// series lengths).
    Info,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Namespaced metric name ("gauge/final_hpwl", "time/route/total_ms").
    pub metric: String,
    /// Which tolerance gated it.
    pub kind: DeltaKind,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// `(b - a) / max(|a|, 1e-9)`.
    pub rel: f64,
    /// Whether `rel` exceeded the kind's tolerance.
    pub regression: bool,
}

/// Full structured diff between two runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDiff {
    /// Every compared metric, in a stable namespaced order.
    pub deltas: Vec<Delta>,
    /// Metric names present in only one of the two runs.
    pub unmatched: Vec<String>,
}

impl RunDiff {
    /// True if any delta exceeded its tolerance.
    pub fn has_regression(&self) -> bool {
        self.deltas.iter().any(|d| d.regression)
    }

    /// Names of regressed metrics, for error messages and exit paths.
    pub fn regressions(&self) -> Vec<&str> {
        self.deltas
            .iter()
            .filter(|d| d.regression)
            .map(|d| d.metric.as_str())
            .collect()
    }

    /// Human-readable table, regressions flagged on the right.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:>14} {:>9}",
            "metric", "run A", "run B", "delta"
        );
        for d in &self.deltas {
            let flag = if d.regression { "  REGRESSION" } else { "" };
            let _ = writeln!(
                out,
                "{:<36} {:>14.4} {:>14.4} {:>+8.2}%{}",
                d.metric,
                d.a,
                d.b,
                100.0 * d.rel,
                flag
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "{name:<36} (present in only one run)");
        }
        out
    }
}

/// Signed relative delta `(b − a) / max(|a|, ABS_FLOOR)` — the comparison
/// primitive behind every row of `rdp diff`.
fn rel_delta(a: f64, b: f64) -> f64 {
    (b - a) / a.abs().max(ABS_FLOOR)
}

/// Diff two ingested runs. `a` is the baseline, `b` the candidate.
pub fn diff_runs(a: &RunModel, b: &RunModel, thr: &DiffThresholds) -> RunDiff {
    let mut diff = RunDiff::default();
    let mut push = |metric: String, kind: DeltaKind, va: f64, vb: f64| {
        let rel = rel_delta(va, vb);
        let tol = match kind {
            DeltaKind::Qor => thr.qor_rel_tol,
            DeltaKind::Info => f64::INFINITY,
        };
        diff.deltas.push(Delta {
            metric,
            kind,
            a: va,
            b: vb,
            rel,
            regression: rel > tol,
        });
    };

    // QoR gauges (final_hpwl, final_density_overflow, …) and counters
    // (rollbacks, gp_iterations, …): everything recorded, name-matched.
    for key in keys(&a.gauges, &b.gauges, &mut diff.unmatched, "gauge") {
        push(
            format!("gauge/{key}"),
            DeltaKind::Qor,
            a.gauges[&key],
            b.gauges[&key],
        );
    }
    for key in keys(&a.counters, &b.counters, &mut diff.unmatched, "counter") {
        push(
            format!("counter/{key}"),
            DeltaKind::Qor,
            a.counters[&key],
            b.counters[&key],
        );
    }

    // Series: compare the final value of each per-iteration series (the
    // converged state), plus its length as an Info row so a run that
    // silently did fewer iterations is visible.
    let snames: BTreeSet<&String> = a.series.keys().chain(b.series.keys()).collect();
    for name in snames {
        match (a.series.get(name), b.series.get(name)) {
            (Some(sa), Some(sb)) => {
                if let (Some(la), Some(lb)) = (sa.last(), sb.last()) {
                    push(format!("series/{name}/last"), DeltaKind::Qor, la.1, lb.1);
                }
                push(
                    format!("series/{name}/points"),
                    DeltaKind::Info,
                    sa.len() as f64,
                    sb.len() as f64,
                );
            }
            _ => diff.unmatched.push(format!("series/{name}")),
        }
    }

    // Histogram mean shifts: informational (distributions move with any
    // code change; the QoR gates above are the contract).
    let hnames: BTreeSet<&String> = a.histograms.keys().chain(b.histograms.keys()).collect();
    for name in hnames {
        match (a.histograms.get(name), b.histograms.get(name)) {
            (Some(ha), Some(hb)) => {
                push(
                    format!("histogram/{name}/mean"),
                    DeltaKind::Info,
                    ha.mean(),
                    hb.mean(),
                );
            }
            _ => diff.unmatched.push(format!("histogram/{name}")),
        }
    }

    // Per-stage wall times from the traces, when both runs carried one.
    let total_ns = |m: &RunModel| -> BTreeMap<String, u64> {
        m.stage_rows()
            .into_iter()
            .map(|r| (r.name, r.total_ns))
            .collect()
    };
    let (ta, tb) = (total_ns(a), total_ns(b));
    if !ta.is_empty() && !tb.is_empty() {
        let names: BTreeSet<&String> = ta.keys().chain(tb.keys()).collect();
        for name in names {
            match (ta.get(name), tb.get(name)) {
                (Some(na), Some(nb)) => {
                    push(
                        format!("time/{name}/total_ms"),
                        DeltaKind::Info,
                        *na as f64 / 1e6,
                        *nb as f64 / 1e6,
                    );
                }
                _ => diff.unmatched.push(format!("time/{name}")),
            }
        }
    }

    diff
}

/// Keys present in both maps; one-sided keys are recorded as unmatched.
fn keys(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    unmatched: &mut Vec<String>,
    what: &str,
) -> Vec<String> {
    let ka: BTreeSet<&String> = a.keys().collect();
    let kb: BTreeSet<&String> = b.keys().collect();
    for only in ka.symmetric_difference(&kb) {
        unmatched.push(format!("{what}/{only}"));
    }
    ka.intersection(&kb).map(|k| (*k).clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_obs::Collector;

    fn run(hpwl: f64) -> RunModel {
        let c = Collector::enabled();
        {
            let _s = c.span("route", "route");
        }
        c.gauge_set("final_hpwl", hpwl);
        c.counter_add("rollbacks", 0);
        c.series_push("route_overflow", 0, 10.0);
        c.series_push("route_overflow", 1, 4.0);
        c.observe("wa_grad", 1.0);
        RunModel::from_collector(&c).unwrap()
    }

    #[test]
    fn identical_runs_have_zero_deltas_and_no_regression() {
        let a = run(100.0);
        let b = run(100.0);
        let d = diff_runs(&a, &b, &DiffThresholds::default());
        assert!(!d.has_regression());
        for delta in d.deltas.iter().filter(|d| d.kind == DeltaKind::Qor) {
            assert_eq!(delta.rel, 0.0, "{delta:?}");
        }
        assert!(d.unmatched.is_empty(), "{:?}", d.unmatched);
    }

    #[test]
    fn qor_regression_beyond_tolerance_is_flagged_by_name() {
        let a = run(100.0);
        let b = run(103.0); // +3% > 0.5% default tolerance
        let d = diff_runs(&a, &b, &DiffThresholds::default());
        assert!(d.has_regression());
        assert!(d.regressions().contains(&"gauge/final_hpwl"));
        assert!(d.render_text().contains("REGRESSION"));
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let a = run(100.0);
        let b = run(90.0);
        let d = diff_runs(&a, &b, &DiffThresholds::default());
        assert!(!d.has_regression());
    }

    #[test]
    fn tolerance_widens_the_gate() {
        let a = run(100.0);
        let b = run(103.0);
        let thr = DiffThresholds { qor_rel_tol: 0.05 };
        assert!(!diff_runs(&a, &b, &thr).has_regression());
    }

    #[test]
    fn one_sided_metrics_are_reported_unmatched() {
        let a = run(100.0);
        let mut b = run(100.0);
        b.gauges.insert("extra".into(), 1.0);
        let d = diff_runs(&a, &b, &DiffThresholds::default());
        assert!(d.unmatched.iter().any(|u| u == "gauge/extra"));
        assert!(!d.has_regression());
    }

    #[test]
    fn stage_time_deltas_are_informational() {
        let mut a = run(100.0);
        let mut b = run(100.0);
        a.spans[0].dur_ns = 1_000_000;
        b.spans[0].dur_ns = 2_000_000;
        let d = diff_runs(&a, &b, &DiffThresholds::default());
        let time = d
            .deltas
            .iter()
            .find(|d| d.metric == "time/route/total_ms")
            .expect("a stage time row");
        assert_eq!((time.kind, time.rel), (DeltaKind::Info, 1.0));
        assert!(!d.has_regression());
    }
}
