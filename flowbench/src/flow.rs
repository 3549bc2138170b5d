//! The flow workloads: timed passes over parsed LEF/DEF designs.

use rdp_core::{run_flow_with, FlowControl, FlowReport, PlacerPreset, RoutabilityConfig};
use rdp_db::Design;
use rdp_drc::{evaluate, EvalConfig, EvalReport};
use rdp_legal::{check_legality, DetailedConfig, LegalizeConfig};
use rdp_obs::Collector;

use crate::inputs::{InputFiles, Workload};
use crate::speed::SpeedRef;
use crate::trace::SpanTotals;
use crate::{layer_sample, useful_iterations, Checks, Measured, RunOpts};

/// The `rdp matrix` ordering gate's slack: Ours may exceed the Xplace
/// DRV count by this share plus [`DRV_ORDER_ABS_SLACK`] on one design.
const DRV_ORDER_TOLERANCE: f64 = 0.15;
const DRV_ORDER_ABS_SLACK: f64 = 25.0;

/// One design's result in one pass.
struct DesignRun {
    design: Design,
    flow: FlowReport,
    eval: Option<EvalReport>,
}

/// Parses one design's text and runs it through place → legalize →
/// detailed place, with `rdp::place_and_evaluate_obs` when the pass
/// evaluates. Spans go to `obs`.
fn run_design(
    files: &InputFiles,
    cfg: &RoutabilityConfig,
    evaluate_it: bool,
    obs: &Collector,
) -> Result<DesignRun, String> {
    let text = files
        .read()
        .map_err(|e| format!("{}: read input: {e}", files.name))?;
    let mut design = rdp_parse::read_lefdef_obs(&text, obs)
        .map_err(|e| format!("{}: parse: {e}", files.name))?;
    let flow_err = |e| format!("{}: flow: {e}", files.name);
    if evaluate_it {
        let r = rdp::place_and_evaluate_obs(&mut design, cfg, &EvalConfig::default(), obs)
            .map_err(flow_err)?;
        return Ok(DesignRun {
            design,
            flow: r.flow,
            eval: Some(r.eval),
        });
    }
    let ctrl = FlowControl {
        obs: obs.clone(),
        ..FlowControl::default()
    };
    let flow = run_flow_with(&mut design, cfg, ctrl).map_err(flow_err)?;
    // Only a flow without cell inflation may legalize with real widths.
    if flow.inflation_ratios.is_some() {
        return Err(format!(
            "{}: an unevaluated pass inflated cells",
            files.name
        ));
    }
    rdp_legal::legalize_obs(&mut design, &LegalizeConfig::default(), obs);
    rdp_legal::detailed_place_obs(&mut design, &DetailedConfig::default(), obs);
    Ok(DesignRun {
        design,
        flow,
        eval: None,
    })
}

/// Stopping-rule scores of a run's routability iterations.
fn scores(cfg: &RoutabilityConfig, flow: &FlowReport) -> Vec<f64> {
    flow.log
        .iter()
        .map(|l| {
            if cfg.enable_dc {
                l.c_penalty
            } else {
                l.overflow
            }
        })
        .collect()
}

/// Checks every output of one design run can be held to without a
/// reference: a legal placement and finite QoR.
fn check_output(name: &str, r: &DesignRun) -> Vec<String> {
    let mut bad = Vec::new();
    let legality = check_legality(&r.design);
    if !legality.is_legal() {
        bad.push(format!("{name}: placement is not legal ({legality:?})"));
    }
    let qor = [
        r.flow.hpwl,
        r.eval.map_or(0.0, |e| e.drwl),
        r.eval.map_or(0.0, |e| e.drvs),
    ];
    if qor.iter().any(|v| !v.is_finite()) {
        bad.push(format!("{name}: QoR is not finite ({qor:?})"));
    }
    bad
}

/// DRVs of an Xplace run on each parsed design: the reference the
/// `route_heavy` Ours DRVs are held to.
fn xplace_drvs(files: &[InputFiles]) -> Result<Vec<f64>, String> {
    let cfg = RoutabilityConfig::preset(PlacerPreset::Xplace);
    files
        .iter()
        .map(|f| {
            let r = run_design(f, &cfg, true, &Collector::disabled())?;
            Ok(r.eval.map_or(f64::NAN, |e| e.drvs))
        })
        .collect()
}

/// Runs passes until `opts.seconds` have elapsed.
pub fn run(
    w: &Workload,
    preset: PlacerPreset,
    evaluate_each_pass: bool,
    files: &[InputFiles],
    opts: &RunOpts,
    speed: &mut SpeedRef,
) -> Result<Measured, String> {
    let cfg = w.flow_config(preset);
    let reference = if preset == PlacerPreset::Ours && evaluate_each_pass {
        Some(xplace_drvs(files)?)
    } else {
        None
    };

    let mut out = Measured {
        per_design: vec![Default::default(); files.len()],
        ..Measured::default()
    };
    let mut checks = Checks::default();
    let mut first: Option<Vec<(u64, u64)>> = None;
    let mut last: Vec<DesignRun> = Vec::new();
    let start = std::time::Instant::now();
    let mut pass = 0;
    let smoke_passes = if opts.trace { 2 } else { 1 };
    while opts.more(pass, start.elapsed().as_secs_f64(), smoke_passes) {
        let traced = opts.traced_op(pass);
        pass += 1;
        let mut runs = Vec::with_capacity(files.len());
        let mut timed = Vec::with_capacity(files.len());
        let mut obs = Vec::with_capacity(files.len());
        for f in files {
            let o = if traced {
                Collector::enabled()
            } else {
                Collector::disabled()
            };
            let (r, t) = speed.time(|| run_design(f, &cfg, evaluate_each_pass, &o));
            match r {
                Ok(r) => {
                    runs.push(r);
                    timed.push(t);
                    obs.push(o);
                }
                Err(e) => {
                    checks.op(vec![e]);
                    break;
                }
            }
        }
        if runs.len() != files.len() {
            continue;
        }

        let bits: Vec<(u64, u64)> = runs
            .iter()
            .map(|r| {
                (
                    r.flow.hpwl.to_bits(),
                    r.eval.map_or(0, |e| e.drvs.to_bits()),
                )
            })
            .collect();
        for (i, (f, r)) in files.iter().zip(&runs).enumerate() {
            let mut bad = check_output(f.name, r);
            if let Some(first) = &first {
                if first[i] != bits[i] {
                    bad.push(format!("{}: HPWL/DRVs differ from the first pass", f.name));
                }
            }
            if let (Some(reference), Some(e)) = (&reference, r.eval) {
                let limit = reference[i] * (1.0 + DRV_ORDER_TOLERANCE) + DRV_ORDER_ABS_SLACK;
                if e.drvs > limit || limit.is_nan() {
                    bad.push(format!(
                        "{}: Ours DRVs {} exceed the Xplace reference {} beyond the ordering slack",
                        f.name, e.drvs, reference[i]
                    ));
                }
            }
            checks.op(bad);
        }
        first.get_or_insert(bits);

        let pass_s: f64 = timed.iter().map(|t| t.ref_s()).sum();
        if traced {
            let mut totals = SpanTotals::default();
            let mut useful = (0, 0);
            let mut place_s = 0.0;
            for ((r, t), o) in runs.iter().zip(&timed).zip(&obs) {
                let model = rdp_report::RunModel::from_collector(o)
                    .map_err(|e| format!("{}: trace export: {e}", r.design.name()))?;
                let mut design_totals = SpanTotals::from_model(&model);
                design_totals.scale(t.scale);
                totals.merge(&design_totals);
                let (u, n) = useful_iterations(&scores(&cfg, &r.flow));
                useful = (useful.0 + u, useful.1 + n);
                place_s += r.flow.place_seconds * t.scale;
            }
            out.traced_op_s.push(pass_s);
            out.layers
                .push(layer_sample(&totals, pass_s, place_s, useful));
        } else {
            out.op_s.push(pass_s);
            for ((samples, r), t) in out.per_design.iter_mut().zip(&runs).zip(&timed) {
                samples.op_s.push(t.ref_s());
                samples.place_s.push(r.flow.place_seconds * t.scale);
            }
        }
        last = runs;
    }

    // QoR of the last pass. A workload that does not evaluate in its
    // passes evaluates that pass once here, outside the timed loop.
    let mut qor = [0.0; 3];
    for r in &last {
        let e = r
            .eval
            .unwrap_or_else(|| evaluate(&r.design, &EvalConfig::default()));
        qor[0] += r.flow.hpwl;
        qor[1] += e.drwl;
        qor[2] += e.drvs;
    }
    out.qor = qor;
    out.checks = checks;
    Ok(out)
}
