//! # rdp-flowbench — the end-to-end benchmark of the rdp flow
//!
//! One command runs a workload, checks its outputs and prints every
//! metric by name. The benchmark treats rdp as a library: set-up builds
//! the inputs with `rdp-gen` and writes them as LEF/DEF text, and the
//! timed passes call the public entry points (`rdp_parse`,
//! `rdp::place_and_evaluate_obs`, `rdp_core::run_flow_with`, `rdp_legal`,
//! `rdp_drc::evaluate`, `rdp_serve::{Server, Client}`). End-to-end
//! metrics come from an untraced run; `--trace 1` gives the per-layer
//! metrics instead, from the spans rdp already emits, reduced to self
//! time. Every time is in reference seconds (see [`speed`]).
//!
//! See `README.md` next to this crate for the workload and metric
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod flow;
pub mod inputs;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use inputs::{Kind, SetupTimes, Workload};
use speed::SpeedRef;
use trace::SpanTotals;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric the benchmark emits.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl { name, unit, better }
}

use Better::{Higher, Lower};

/// Percentile of a design's operation times that the end-to-end
/// timings report. Host slowdowns only ever add time, so the lower
/// quartile of the normalized times tracks the program and the median
/// still tracks the host (see the README for the measurement).
pub const TIMING_PERCENTILE: f64 = 25.0;

/// End-to-end metrics (untraced run). Every workload emits all of them.
/// Timings are in reference seconds.
pub const END_TO_END: &[MetricDecl] = &[
    m("setup_s", "s", Lower),
    m("pipeline_s_p25", "s", Lower),
    m("place_s_p25", "s", Lower),
    m("hpwl_um", "um", Lower),
    m("drwl_um", "um", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics (`--trace 1` run). Every workload emits all of
/// them; a layer a workload does not exercise reads 0. Times are
/// per-pass (per-round on `serve_queue`) medians of self time unless the
/// name says otherwise.
pub const PER_LAYER: &[MetricDecl] = &[
    m("gen.prepare_s", "s", Lower),
    m("gen.write_lefdef_s", "s", Lower),
    m("parse.read_lefdef_s", "s", Lower),
    m("core.run_flow_s", "s", Lower),
    m("core.wirelength_gp_s", "s", Lower),
    m("core.gp_step_self_s", "s", Lower),
    m("core.gp_steps", "count", Lower),
    m("core.wa_grad_s", "s", Lower),
    m("core.density_field_s", "s", Lower),
    m("core.density_grad_s", "s", Lower),
    m("poisson.solve_s", "s", Lower),
    m("poisson.solves", "count", Lower),
    m("core.route_iterations", "count", Lower),
    m("core.route_iters_useful_frac", "frac", Higher),
    m("core.routability_loop_s", "s", Lower),
    m("core.route_iter_self_s", "s", Lower),
    m("core.netmove_s", "s", Lower),
    m("core.mci_update_s", "s", Lower),
    m("core.dpa_density_s", "s", Lower),
    m("core.congestion_field_s", "s", Lower),
    m("core.gp_burst_self_s", "s", Lower),
    m("core.rollbacks", "count", Lower),
    m("core.checkpoint_s", "s", Lower),
    m("route.route_s", "s", Lower),
    m("route.route_pass_s", "s", Lower),
    m("route.route_decompose_s", "s", Lower),
    m("route.final_route_s", "s", Lower),
    m("route.calls", "count", Lower),
    m("route.batches", "count", Lower),
    m("legal.legalize_s", "s", Lower),
    m("legal.detailed_place_s", "s", Lower),
    m("legal.failed", "count", Lower),
    m("drc.evaluate_s", "s", Lower),
    m("drc.drvs", "count", Lower),
    m("serve.submit_ms_p50", "ms", Lower),
    m("serve.queue_wait_ms_p50", "ms", Lower),
    m("serve.overhead_ms_p50", "ms", Lower),
    m("serve.retries", "count", Lower),
    m("serve.requeues", "count", Lower),
    m("bench.unattributed_s", "s", Lower),
    m("bench.reference_kernel_ms", "ms", Lower),
    m("obs.trace_overhead_frac", "frac", Lower),
    m("obs.dropped_spans", "count", Lower),
];

/// Looks up a declared metric of either table.
pub fn decl(name: &str) -> Option<&'static MetricDecl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed (0 = the canonical suite seeds).
    pub seed: u64,
    /// Measured time: passes or jobs start until this much has elapsed.
    pub seconds: f64,
    /// Per-layer run: alternate traced and untraced operations and emit
    /// the per-layer metrics.
    pub trace: bool,
    /// Minimal size for tests: one set-up, one pass (two when traced),
    /// the two smallest suite designs, four jobs.
    pub smoke: bool,
    /// Scratch directory for inputs and the job store; removed at exit.
    pub work_dir: PathBuf,
}

impl RunOpts {
    /// Whether to run set-up again after `done` set-ups that took
    /// `elapsed_s` in total: at least three and for at least three
    /// seconds, so `setup_s` is a median even when one set-up is short.
    fn more_setups(&self, done: usize, elapsed_s: f64) -> bool {
        if self.smoke {
            done < 1
        } else {
            done < 3 || elapsed_s < 3.0
        }
    }

    /// Whether operation `i` (0-based) of a run is traced: every second
    /// one under `--trace`, so the same run also measures the untraced
    /// time the tracing overhead is taken against.
    pub fn traced_op(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }

    /// Whether the measured loop should start operation `i`, given the
    /// time since it began: `smoke_ops` operations under `--smoke`,
    /// otherwise at least two (a traced run needs one of each kind) and
    /// until `seconds` have elapsed.
    pub fn more(&self, i: usize, elapsed_s: f64, smoke_ops: usize) -> bool {
        if self.smoke {
            i < smoke_ops
        } else {
            i < 2 || elapsed_s < self.seconds
        }
    }
}

/// Failed-operation accounting: every check that fails marks its
/// operation failed, with the reason kept for the report.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Reasons, first few only.
    pub reasons: Vec<String>,
}

impl Checks {
    /// Records one operation with the failures found for it.
    pub fn op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                if self.reasons.len() < 8 {
                    self.reasons.push(f);
                }
            }
        }
    }
}

/// Per-layer values of one traced operation (a flow pass or a job).
pub type LayerSample = BTreeMap<&'static str, f64>;

/// Per-layer values common to flow passes and served rounds, from the
/// spans and counters rdp emitted. `wall_s` is the operation's time,
/// `place_s` its flows' placement time (`FlowReport::place_seconds`),
/// and `useful` is (iterations up to the best score, iterations) summed
/// over its flows.
pub fn layer_sample(
    t: &SpanTotals,
    wall_s: f64,
    place_s: f64,
    useful: (usize, usize),
) -> LayerSample {
    let mut s = LayerSample::new();
    s.insert("parse.read_lefdef_s", t.self_s("parse_lefdef"));
    s.insert("core.run_flow_s", place_s);
    s.insert("core.wirelength_gp_s", t.incl_s("wirelength_gp"));
    s.insert("core.gp_step_self_s", t.self_s("gp_step"));
    s.insert("core.gp_steps", t.spans("gp_step"));
    s.insert("core.wa_grad_s", t.self_s("wa_grad"));
    s.insert("core.density_field_s", t.self_s("density_field"));
    s.insert("core.density_grad_s", t.self_s("density_grad"));
    s.insert("poisson.solve_s", t.self_s("poisson_solve"));
    s.insert("poisson.solves", t.spans("poisson_solve"));
    s.insert("core.route_iterations", t.counter("route_iterations"));
    s.insert(
        "core.route_iters_useful_frac",
        if useful.1 == 0 {
            0.0
        } else {
            useful.0 as f64 / useful.1 as f64
        },
    );
    s.insert(
        "core.routability_loop_s",
        t.incl_s("route_iter") + t.incl_s("final_route"),
    );
    s.insert("core.route_iter_self_s", t.self_s("route_iter"));
    s.insert("core.netmove_s", t.self_s("netmove"));
    s.insert("core.mci_update_s", t.self_s("mci_update"));
    s.insert("core.dpa_density_s", t.self_s("dpa_density"));
    s.insert("core.congestion_field_s", t.self_s("congestion_field"));
    s.insert("core.gp_burst_self_s", t.self_s("gp_burst"));
    s.insert("core.rollbacks", t.counter("rollbacks"));
    s.insert("core.checkpoint_s", t.self_s("checkpoint"));
    s.insert("route.route_s", t.self_s("route"));
    s.insert("route.route_pass_s", t.self_s("route_pass"));
    s.insert("route.route_decompose_s", t.self_s("route_decompose"));
    s.insert("route.final_route_s", t.self_s("final_route"));
    s.insert("route.calls", t.spans("route") + t.spans("final_route"));
    s.insert("route.batches", t.counter("route_batches"));
    s.insert("legal.legalize_s", t.incl_s("legalize"));
    s.insert("legal.detailed_place_s", t.incl_s("detailed_place"));
    s.insert("legal.failed", t.counter("legalize_failed"));
    s.insert("drc.evaluate_s", t.incl_s("drc_eval"));
    s.insert("bench.unattributed_s", (wall_s - t.total_self_s()).max(0.0));
    s.insert("obs.dropped_spans", t.dropped_events as f64);
    s
}

/// Iterations up to and including the best stopping-rule score (the
/// first minimum, as the flow's strict-improvement rule keeps it), and
/// the iteration count. Iterations after the best one are what the
/// stop rule's patience costs.
pub fn useful_iterations(scores: &[f64]) -> (usize, usize) {
    let best = scores
        .iter()
        .enumerate()
        .fold(None::<(usize, f64)>, |acc, (i, &s)| match acc {
            Some((_, b)) if s >= b - 1e-9 => acc,
            _ => Some((i, s)),
        });
    (best.map_or(0, |(i, _)| i + 1), scores.len())
}

/// Untraced timings of one design, in reference seconds.
#[derive(Debug, Clone, Default)]
pub struct DesignSamples {
    /// Time of each run of the design: its flow calls, or a served round
    /// of its jobs from submit to the last result.
    pub op_s: Vec<f64>,
    /// Placement time of each run (`FlowReport::place_seconds`, summed
    /// over a round's jobs).
    pub place_s: Vec<f64>,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operation accounting.
    pub checks: Checks,
    /// Time of each untraced operation (a pass, or a served round).
    pub op_s: Vec<f64>,
    /// Untraced samples of each design, in input order.
    pub per_design: Vec<DesignSamples>,
    /// Time of each traced operation.
    pub traced_op_s: Vec<f64>,
    /// QoR summed over one operation's designs: HPWL, DRWL, DRVs.
    pub qor: [f64; 3],
    /// Per-layer values of each traced operation.
    pub layers: Vec<LayerSample>,
    /// Workload-specific per-layer medians (the `serve.*` metrics).
    pub extra_layers: BTreeMap<&'static str, f64>,
}

/// The result a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, samples)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// Failure reasons and informational lines.
    pub notes: Vec<String>,
}

/// Runs one workload: set-up, measured loop, checks, and the reduction
/// to the metric set `opts.trace` selects.
pub fn run_workload(w: &Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let max_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rdp_par::set_global_threads(w.threads.min(max_threads));
    let designs: &[&'static str] = if opts.smoke {
        inputs::SMOKE_DESIGNS
    } else {
        w.designs
    };

    let mut speed = SpeedRef::new();

    // Set-up, repeated so `setup_s` is a median; the last copy is used.
    let mut setup_s = Vec::new();
    let mut setup_parts = Vec::<SetupTimes>::new();
    let mut files = Vec::new();
    let setup_start = Instant::now();
    for k in 0.. {
        if !opts.more_setups(k, setup_start.elapsed().as_secs_f64()) {
            break;
        }
        let dir = opts.work_dir.join(format!("inputs{k}"));
        let (built, t) = speed.time(|| inputs::build_inputs(designs, opts.seed, &dir));
        let (f, parts) = built?;
        setup_s.push(t.ref_s());
        setup_parts.push(SetupTimes {
            prepare_s: parts.prepare_s * t.scale,
            write_s: parts.write_s * t.scale,
        });
        files = f;
    }

    let mut measured = match w.kind {
        Kind::Flow { preset, evaluate } => {
            flow::run(w, preset, evaluate, &files, opts, &mut speed)?
        }
        Kind::Serve => serve::run(w, &files, opts, &mut speed)?,
    };
    let reference_ms = 1e3 * med(&speed.samples);
    let peak_rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let mut notes = std::mem::take(&mut measured.checks.reasons);
    let mut correct = measured.checks.failed == 0;
    let metrics: Vec<(&'static str, f64, usize)> = if opts.trace {
        let mut layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for d in PER_LAYER {
            let vals: Vec<f64> = measured
                .layers
                .iter()
                .filter_map(|s| s.get(d.name).copied())
                .collect();
            if !vals.is_empty() {
                layer.insert(d.name, (med(&vals), vals.len()));
            }
        }
        for (k, v) in &measured.extra_layers {
            layer.insert(k, (*v, measured.traced_op_s.len()));
        }
        let prep: Vec<f64> = setup_parts.iter().map(|p| p.prepare_s).collect();
        let write: Vec<f64> = setup_parts.iter().map(|p| p.write_s).collect();
        layer.insert("gen.prepare_s", (med(&prep), prep.len()));
        layer.insert("gen.write_lefdef_s", (med(&write), write.len()));
        layer.insert("drc.drvs", (measured.qor[2], 1));
        layer.insert(
            "bench.reference_kernel_ms",
            (reference_ms, speed.samples.len()),
        );
        let untraced = med(&measured.op_s);
        let traced = med(&measured.traced_op_s);
        layer.insert(
            "obs.trace_overhead_frac",
            (traced / untraced - 1.0, measured.traced_op_s.len()),
        );
        let value = |n: &str| layer.get(n).map_or(0.0, |&(v, _)| v);
        if !opts.smoke {
            match character_check(w, &value, &measured.layers, &measured.traced_op_s) {
                Ok(fact) => notes.push(format!("workload character: {fact}")),
                Err(fact) => {
                    correct = false;
                    notes.push(format!("workload character check failed: {fact}"));
                }
            }
        }
        if value("obs.dropped_spans") != 0.0 {
            correct = false;
            notes.push("the trace dropped spans".into());
        }
        PER_LAYER
            .iter()
            .map(|d| {
                let (v, n) = layer.get(d.name).copied().unwrap_or((0.0, 0));
                (d.name, v, n)
            })
            .collect()
    } else {
        // Per design, then summed: a percentile over the mixed times of
        // several designs would jump between one design's times and
        // another's.
        let pct = |v: &[f64]| stats::percentile(v, TIMING_PERCENTILE).unwrap_or(0.0);
        let pipeline_s: f64 = measured.per_design.iter().map(|d| pct(&d.op_s)).sum();
        let place_s: f64 = measured.per_design.iter().map(|d| pct(&d.place_s)).sum();
        let n_ops = measured.op_s.len();
        vec![
            ("setup_s", med(&setup_s), setup_s.len()),
            ("pipeline_s_p25", pipeline_s, n_ops),
            ("place_s_p25", place_s, n_ops),
            ("hpwl_um", measured.qor[0], 1),
            ("drwl_um", measured.qor[1], 1),
            ("peak_rss_mb", peak_rss_mb, 1),
        ]
    };
    if !opts.trace {
        let n = measured.op_s.len();
        notes.push(format!(
            "operation time median {:.6} s (n={n}); reference kernel median {reference_ms:.3} ms",
            med(&measured.op_s)
        ));
        if let Some((p, v)) = stats::tail_percentile(&measured.op_s) {
            notes.push(format!(
                "operation time p{p} {v:.6} s (n={n}, the highest percentile with 10 samples beyond it)"
            ));
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            correct = false;
            notes.push(format!("metric {name} is not finite"));
        }
    }
    Ok(Outcome {
        workload: w.name.to_string(),
        correct,
        attempted: measured.checks.attempted,
        failed: measured.checks.failed,
        metrics,
        notes,
    })
}

/// Asserts the reason a workload was chosen, from the traced per-layer
/// values: a generator or flow change that quietly turns a workload into
/// something else fails here instead of skewing the numbers. `value`
/// gives per-layer medians; a share is the median over traced
/// operations of the layers' share of that operation (`layers[i]` of
/// `op_s[i]`), so a slow operation does not skew it. Either way the
/// result states what was measured.
fn character_check(
    w: &Workload,
    value: &dyn Fn(&str) -> f64,
    layers: &[LayerSample],
    op_s: &[f64],
) -> Result<String, String> {
    let at_least = |what: &str, names: &[&str], min: f64| {
        let shares: Vec<f64> = layers
            .iter()
            .zip(op_s)
            .map(|(l, op)| names.iter().filter_map(|n| l.get(n)).sum::<f64>() / op)
            .collect();
        let s = stats::median(&shares).unwrap_or(0.0);
        let fact = format!(
            "{what} is {:.1}% of a traced pass (at least {:.0}% required)",
            100.0 * s,
            100.0 * min
        );
        if s >= min {
            Ok(fact)
        } else {
            Err(fact)
        }
    };
    match w.name {
        "gp_heavy" => {
            if value("route.calls") != 0.0 {
                return Err(format!("the router ran {} times", value("route.calls")));
            }
            at_least("GP + Poisson self time", GP_LAYERS, 0.70)
        }
        "route_heavy" => {
            if value("route.calls") == 0.0 {
                return Err("the router never ran".into());
            }
            at_least(
                "the routability loop (route_iter and final_route, inclusive)",
                &["core.routability_loop_s"],
                0.30,
            )
        }
        "eval_heavy" => at_least("drc.evaluate_s", &["drc.evaluate_s"], 0.50),
        "serve_queue" => {
            for n in [
                "serve.submit_ms_p50",
                "serve.queue_wait_ms_p50",
                "serve.overhead_ms_p50",
                "core.checkpoint_s",
            ] {
                if value(n) <= 0.0 {
                    return Err(format!("{n} is zero"));
                }
            }
            Ok("serve.* and core.checkpoint_s are non-zero".into())
        }
        other => Err(format!("no character check for `{other}`")),
    }
}

/// Layers of wirelength-driven GP: the Nesterov step, its kernels and
/// the Poisson solve.
const GP_LAYERS: &[&str] = &[
    "core.gp_step_self_s",
    "core.wa_grad_s",
    "core.density_field_s",
    "core.density_grad_s",
    "poisson.solve_s",
];

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

impl Outcome {
    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, _)| {
                let unit = decl(name).map_or("", |d| d.unit);
                // A non-finite value already made the run incorrect;
                // `null` keeps the line valid JSON.
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: `<workload> <metric> <value> <unit> (n=…)`.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, v, n)| {
                let unit = decl(name).map_or("", |d| d.unit);
                format!("{} {name} {v} {unit} (n={n})", self.workload)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_obs::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name `{name}`"
            );
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let v = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = v
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|d| {
                    let better = match d.better {
                        Lower => "lower",
                        Higher => "higher",
                    };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn useful_iterations_count_up_to_the_first_best_score() {
        assert_eq!(useful_iterations(&[5.0, 3.0, 4.0, 3.0]), (2, 4));
        assert_eq!(useful_iterations(&[1.0]), (1, 1));
        assert_eq!(useful_iterations(&[]), (0, 0));
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let o = Outcome {
            workload: "w".into(),
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 1.25, 3), ("drvs", f64::NAN, 1)],
            notes: vec![],
        };
        let v = json::parse(&o.json()).unwrap();
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("drvs"))
                .and_then(|d| d.get("value")),
            Some(&Value::Null)
        );
    }
}
