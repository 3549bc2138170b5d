//! `rdp` — command-line driver for the routability-driven placement stack.
//!
//! ```text
//! rdp suite                                   list the 20 benchmark designs
//! rdp stats    <input>                        design statistics
//! rdp generate <name> --out DIR [--format F]  write a suite design to disk
//! rdp place    <input> [--preset P] [--out DIR]   run the placement flow
//!              [--checkpoint FILE] [--resume FILE]  resumable runs
//! rdp route    <input>                        route + congestion summary
//! rdp eval     <input>                        evaluate current placement
//! rdp flow     <input> [--preset P]           full pipeline + report
//! rdp convert  <input> --out DIR --format F   convert between formats
//!
//! <input> is either a suite design name (e.g. fft_1), a Bookshelf bundle
//! `bookshelf:DIR:BASE`, or a LEF/DEF pair `lefdef:LEF:DEF`.
//! Presets: xplace | xplace-route | ours (default ours).
//! Formats: bookshelf | lefdef.
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rdp::core::{
    run_flow, run_flow_with, FlowCheckpoint, FlowControl, PlacerPreset, RoutabilityConfig,
};
use rdp::db::DesignStats;
use rdp::obs::Collector;
use rdp::{place_and_evaluate_obs, Design, EvalConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "suite" => cmd_suite(),
        "stats" => cmd_stats(rest),
        "generate" => cmd_generate(rest),
        "place" => cmd_place(rest),
        "route" => cmd_route(rest),
        "eval" => cmd_eval(rest),
        "flow" => cmd_flow(rest),
        "matrix" => cmd_matrix(rest),
        "report" => cmd_report(rest),
        "diff" => cmd_diff(rest),
        "convert" => cmd_convert(rest),
        "render" => cmd_render(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "cancel" => cmd_cancel(rest),
        "fetch" => cmd_fetch(rest),
        "top" => cmd_top(rest),
        "shutdown" => cmd_shutdown(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage: rdp <command> [args]
commands:
  suite                                    list the benchmark suite
  stats    <input>                         print design statistics
  generate <name> --out DIR [--format F]   write a suite design to disk
  place    <input> [--preset P] [--out DIR]  global placement flow
           [--fast] [--gp-iters N] [--max-route-iters N] [--gp-burst N]
                                             CI-sized preset + iteration caps
                                             (same knobs as `rdp submit`)
           [--checkpoint FILE]               save resumable state each iteration
           [--resume FILE]                   resume a killed run (bit-exact)
           [--legalize]                      legalize + detailed-place after GP
  route    <input>                         route and summarize congestion
  eval     <input>                         evaluate the current placement
  flow     <input> [--preset P] [--out DIR]  place → legalize → evaluate
           [--fast] [--gp-iters N] [--max-route-iters N] [--gp-burst N]
  matrix   [--scale small|full] [--classes a,b,...] [--run-dir DIR]
                                           scenario matrix: run every stress
                                           class through the three presets
                                           and gate the Table-1 DRV
                                           ordering; exits nonzero naming
                                           violations
  report   <run-dir> [--out FILE.html]     render a run directory to HTML
  diff     <run-a> <run-b> [--qor-tol X] [--time-tol Y]
                                           QoR/perf deltas; exit 1 on regression
  convert  <input> --out DIR --format F    convert between formats
  render   <input> --out FILE.svg [--congestion] [--place P]   render to SVG
service (crash-safe placement-as-a-service):
  serve    --dir DIR [--addr H:P] [--workers N] [--max-queue N]
           [--job-threads N] [--io-timeout-ms N] [--port-file FILE]
                                           durable job queue over TCP; kill -9
                                           at any instant and restart: the
                                           queue replays and partial jobs
                                           resume bitwise from checkpoints
  submit   ADDR <input> [--preset P] [--fast] [--capture]
           [--deadline-ms N] [--retries N]
           [--max-route-iters N] [--gp-iters N] [--gp-burst N]
           [--wait [--wait-ms N]]           enqueue a job (prints its id)
  status   ADDR [ID]                        one job or the whole queue
  cancel   ADDR ID                          cancel a queued/running job
  fetch    ADDR ID                          result + exact HPWL bit pattern
  stats    ADDR [--json] [--metrics-out F]  lifetime service telemetry snapshot
                                            (schema-validated; op latency
                                            histograms, counters, live jobs)
  top      ADDR [--interval-ms N] [--iters N]
                                            live fleet view (refreshes in
                                            place on a TTY, appends otherwise;
                                            refuses protocol-version mismatch)
  shutdown ADDR                             graceful drain: running jobs are
                                            checkpointed and requeued durable
                                            (prints the drained-job count)
observability (place and flow):
  --trace-out FILE.jsonl    span/instant event log (one JSON object per line)
  --chrome-trace FILE.json  chrome://tracing / Perfetto trace_event file
  --metrics-out FILE.json   counters, gauges, histograms, series, frames
  --run-dir DIR             write DIR/trace.jsonl + DIR/metrics.json (for
                            `rdp report` and `rdp diff`)
  --report-out FILE.html    render the validated self-contained HTML report
  --profile                 print the per-stage time table after the run
inputs:  <suite-name> | bookshelf:DIR:BASE | lefdef:LEF_PATH:DEF_PATH
presets: xplace | xplace-route | ours       formats: bookshelf | lefdef"
}

fn flag<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

/// Flow-configuration flags that take a value, shared by `place`, `flow`
/// and `submit` (`--fast` is the shared switch).
const FLOW_FLAGS: [&str; 4] = ["--preset", "--max-route-iters", "--gp-iters", "--gp-burst"];

/// Observability output flags of `place` and `flow` that take a value
/// (`--profile` is the switch).
const OBS_FLAGS: [&str; 5] = [
    "--trace-out",
    "--chrome-trace",
    "--metrics-out",
    "--run-dir",
    "--report-out",
];

/// Fails on the first `--` argument that is neither one of `valued`
/// (whose value it skips) nor one of `switches`, so a typo or a flag this
/// build does not have is an error naming the flag, never a silently
/// different run.
fn reject_unknown_flags(
    cmd: &str,
    rest: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        if valued.contains(&a.as_str()) {
            args.next();
        } else if a.starts_with("--") && !switches.contains(&a.as_str()) {
            return Err(format!(
                "`rdp {cmd}` does not accept `{a}` (see `rdp help`)"
            ));
        }
    }
    Ok(())
}

fn parse_preset(rest: &[String]) -> Result<PlacerPreset, String> {
    match flag(rest, "--preset").unwrap_or("ours") {
        "xplace" => Ok(PlacerPreset::Xplace),
        "xplace-route" => Ok(PlacerPreset::XplaceRoute),
        "ours" => Ok(PlacerPreset::Ours),
        other => Err(format!("unknown preset `{other}`")),
    }
}

/// Builds the flow configuration for a preset plus command-line
/// overrides. The iteration overrides mirror `rdp submit`, so a direct
/// `rdp place` can run the exact configuration a served job ran — the
/// serve smoke gate diffs the two run-dirs.
fn parse_flow_config(rest: &[String]) -> Result<RoutabilityConfig, String> {
    let preset = parse_preset(rest)?;
    let mut cfg = if rest.iter().any(|a| a == "--fast") {
        RoutabilityConfig::preset_fast(preset)
    } else {
        RoutabilityConfig::preset(preset)
    };
    if let Some(n) = parse_num::<usize>(rest, "--max-route-iters")? {
        cfg.max_route_iters = n;
    }
    if let Some(n) = parse_num::<usize>(rest, "--gp-iters")? {
        if n == 0 {
            return Err("--gp-iters must be at least 1".into());
        }
        cfg.gp.max_iters = n;
    }
    if let Some(n) = parse_num::<usize>(rest, "--gp-burst")? {
        cfg.gp_iters_per_route = n;
    }
    Ok(cfg)
}

/// Observability outputs requested on the command line. The collector is
/// enabled only when at least one output is requested, so plain runs keep
/// the disabled-path cost (one branch per would-be span).
struct ObsArgs {
    obs: Collector,
    trace_out: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    run_dir: Option<PathBuf>,
    report_out: Option<PathBuf>,
    profile: bool,
}

fn parse_obs(rest: &[String]) -> ObsArgs {
    let trace_out = flag(rest, "--trace-out").map(PathBuf::from);
    let chrome_trace = flag(rest, "--chrome-trace").map(PathBuf::from);
    let metrics_out = flag(rest, "--metrics-out").map(PathBuf::from);
    let run_dir = flag(rest, "--run-dir").map(PathBuf::from);
    let report_out = flag(rest, "--report-out").map(PathBuf::from);
    let profile = rest.iter().any(|a| a == "--profile");
    let obs = if trace_out.is_some()
        || chrome_trace.is_some()
        || metrics_out.is_some()
        || run_dir.is_some()
        || report_out.is_some()
        || profile
    {
        Collector::enabled()
    } else {
        Collector::disabled()
    };
    ObsArgs {
        obs,
        trace_out,
        chrome_trace,
        metrics_out,
        run_dir,
        report_out,
        profile,
    }
}

/// Writes the requested exports after the traced run completed. Exporting
/// happens strictly post-run, so trace I/O can never perturb the flow.
fn write_obs_outputs(o: &ObsArgs, title: &str) -> Result<(), String> {
    if let Some(path) = &o.trace_out {
        std::fs::write(path, rdp::obs::export_jsonl(&o.obs))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote event log {}", path.display());
    }
    if let Some(path) = &o.chrome_trace {
        std::fs::write(path, rdp::obs::export_chrome_trace(&o.obs))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote Chrome trace {} (open in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
    if let Some(path) = &o.metrics_out {
        std::fs::write(path, rdp::obs::export_metrics_json(&o.obs))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote metrics {}", path.display());
    }
    if let Some(dir) = &o.run_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Atomic capture (tmp + rename): a kill mid-write leaves at worst
        // a `.tmp` leftover, which `rdp report` flags as a partial run
        // instead of choking on torn JSON.
        rdp::serve::store::write_atomic(
            &dir.join("trace.jsonl"),
            rdp::obs::export_jsonl(&o.obs).as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        rdp::serve::store::write_atomic(
            &dir.join("metrics.json"),
            rdp::obs::export_metrics_json(&o.obs).as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        println!("wrote run directory {}", dir.display());
    }
    if let Some(path) = &o.report_out {
        let model = rdp::report::RunModel::from_collector(&o.obs).map_err(|e| e.to_string())?;
        let html = rdp::report::render_report(&model, title);
        rdp::report::validate_report(&html, &model)
            .map_err(|e| format!("generated report failed validation: {e}"))?;
        std::fs::write(path, html).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote report {}", path.display());
    }
    if o.profile {
        print!("{}", rdp::obs::stage_table(&o.obs));
    }
    let drops = o.obs.drop_stats();
    if drops.any() {
        eprintln!(
            "warning: collector dropped {} events ({} spans, {} instants) and {} frames; \
             raise the event capacity / frame budget for a complete trace",
            drops.events, drops.spans, drops.instants, drops.frames
        );
    }
    Ok(())
}

/// Resolves an input spec to a design; generation/parsing is timed on
/// `obs` so `--profile` covers the input stage.
fn load_input(spec: &str, obs: &Collector) -> Result<Design, String> {
    if let Some(rem) = spec.strip_prefix("bookshelf:") {
        let (dir, base) = rem
            .split_once(':')
            .ok_or("bookshelf input must be bookshelf:DIR:BASE")?;
        return rdp::parse::load_bookshelf_obs(Path::new(dir), base, obs)
            .map_err(|e| e.to_string());
    }
    if let Some(rem) = spec.strip_prefix("lefdef:") {
        let (lef, def) = rem
            .split_once(':')
            .ok_or("lefdef input must be lefdef:LEF_PATH:DEF_PATH")?;
        let files = rdp::parse::LefDefFiles {
            lef: std::fs::read_to_string(lef).map_err(|e| format!("{lef}: {e}"))?,
            def: std::fs::read_to_string(def).map_err(|e| format!("{def}: {e}"))?,
        };
        return rdp::parse::read_lefdef_obs(&files, obs).map_err(|e| e.to_string());
    }
    rdp::gen::generate_named_obs(spec, obs).ok_or_else(|| {
        format!("`{spec}` is not a suite design; see `rdp suite` or use bookshelf:/lefdef: inputs")
    })
}

fn save_output(design: &Design, dir: &Path, format: &str) -> Result<(), String> {
    match format {
        "bookshelf" => {
            rdp::parse::save_bookshelf(design, dir, design.name()).map_err(|e| e.to_string())?;
            println!(
                "wrote {}/{}.{{nodes,nets,pl,scl,route,pg,aux}}",
                dir.display(),
                design.name()
            );
        }
        "lefdef" => {
            let files = rdp::parse::write_lefdef(design);
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let lef = dir.join(format!("{}.lef", design.name()));
            let def = dir.join(format!("{}.def", design.name()));
            std::fs::write(&lef, files.lef).map_err(|e| e.to_string())?;
            std::fs::write(&def, files.def).map_err(|e| e.to_string())?;
            println!("wrote {} and {}", lef.display(), def.display());
        }
        other => return Err(format!("unknown format `{other}`")),
    }
    Ok(())
}

fn cmd_suite() -> Result<(), String> {
    println!(
        "{:<16} {:>8} {:>7} {:>6} {:>8}",
        "design", "cells", "macros", "util", "margin"
    );
    for e in rdp::gen::ispd2015_suite() {
        println!(
            "{:<16} {:>8} {:>7} {:>6.2} {:>8.3}",
            e.name,
            e.params.num_cells,
            e.params.num_macros,
            e.params.utilization,
            e.params.congestion_margin
        );
    }
    Ok(())
}

fn cmd_stats(rest: &[String]) -> Result<(), String> {
    let spec = rest
        .first()
        .ok_or("stats needs an input or a server ADDR")?;
    // `rdp stats HOST:PORT` is the service telemetry snapshot; anything
    // else (suite name, bookshelf:, lefdef:) is design statistics.
    if looks_like_addr(spec) {
        return cmd_service_stats(rest);
    }
    let design = load_input(spec, &Collector::disabled())?;
    println!("{}", DesignStats::of(&design));
    let spec = design.routing();
    println!(
        "  routing: {} layers, {}x{} G-cells, H/V capacity {:.1}/{:.1} per G-cell",
        spec.num_layers(),
        spec.gx,
        spec.gy,
        spec.total_h_capacity(),
        spec.total_v_capacity()
    );
    Ok(())
}

fn cmd_generate(rest: &[String]) -> Result<(), String> {
    let name = rest.first().ok_or("generate needs a suite design name")?;
    let out: PathBuf = flag(rest, "--out")
        .ok_or("generate needs --out DIR")?
        .into();
    let format = flag(rest, "--format").unwrap_or("bookshelf");
    let mut params = rdp::gen::ispd2015_suite()
        .into_iter()
        .find(|e| e.name == name.as_str())
        .ok_or_else(|| format!("unknown design `{name}`"))?
        .params;
    // Optional overrides so scripts can size a suite design to taste
    // (e.g. the serve smoke gate's 5k-cell variant).
    let num = |key: &str| -> Result<Option<f64>, String> {
        flag(rest, key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{key} `{v}` is not a number"))
            })
            .transpose()
    };
    if let Some(v) = num("--cells")? {
        params.num_cells = v as usize;
    }
    if let Some(v) = num("--seed")? {
        params.seed = v as u64;
    }
    if let Some(v) = num("--util")? {
        params.utilization = v;
    }
    if let Some(v) = num("--margin")? {
        params.congestion_margin = v;
    }
    let design = rdp::gen::generate(name, &params);
    save_output(&design, &out, format)
}

fn cmd_place(rest: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        "place",
        rest,
        &[
            &FLOW_FLAGS[..],
            &OBS_FLAGS,
            &["--checkpoint", "--resume", "--out", "--format"],
        ]
        .concat(),
        &["--fast", "--legalize", "--profile"],
    )?;
    let spec = rest.first().ok_or("place needs an input")?;
    let obs_args = parse_obs(rest);
    let mut design = load_input(spec, &obs_args.obs)?;

    // Checkpoint/resume: --checkpoint FILE rewrites FILE with the flow
    // state at the top of every routability iteration; --resume FILE
    // restarts a killed run from that state, reproducing the
    // uninterrupted run bit-for-bit.
    let checkpoint_path = flag(rest, "--checkpoint").map(PathBuf::from);
    let resume = match flag(rest, "--resume") {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let cp = FlowCheckpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
            println!(
                "resuming `{}` from {} (routability iteration {})",
                design.name(),
                path,
                cp.next_route_iter
            );
            Some(cp)
        }
        None => None,
    };
    let mut on_checkpoint = checkpoint_path.map(|path| {
        move |cp: &FlowCheckpoint| {
            // Atomic-ish write: tmp file then rename, so a kill mid-write
            // never leaves a torn checkpoint behind.
            let tmp = path.with_extension("tmp");
            let res =
                std::fs::write(&tmp, cp.to_bytes()).and_then(|_| std::fs::rename(&tmp, &path));
            if let Err(e) = res {
                eprintln!(
                    "warning: failed to write checkpoint {}: {e}",
                    path.display()
                );
            }
        }
    });
    let ctrl = FlowControl {
        resume,
        on_checkpoint: on_checkpoint
            .as_mut()
            .map(|f| f as &mut dyn FnMut(&FlowCheckpoint)),
        obs: obs_args.obs.clone(),
        ..Default::default()
    };
    let report =
        run_flow_with(&mut design, &parse_flow_config(rest)?, ctrl).map_err(|e| e.to_string())?;
    println!(
        "placed `{}`: {} WL iters + {} routability iters in {:.2}s, HPWL {:.0} um",
        design.name(),
        report.gp_iterations,
        report.route_iterations,
        report.place_seconds,
        report.hpwl
    );
    for w in &report.warnings {
        println!("  warning: {w}");
    }
    if rest.iter().any(|a| a == "--legalize") {
        let virtual_widths = report.inflation_ratios.as_ref().map(|ratios| {
            design
                .cells()
                .iter()
                .enumerate()
                .map(|(i, c)| c.w * ratios[i].max(1.0).sqrt())
                .collect::<Vec<f64>>()
        });
        let lcfg = rdp::legal::LegalizeConfig::default();
        let dcfg = rdp::legal::DetailedConfig::default();
        let (lg, gain) = match &virtual_widths {
            Some(w) => (
                rdp::legal::legalize_virtual_obs(&mut design, &lcfg, w, &obs_args.obs),
                rdp::legal::detailed_place_virtual_obs(&mut design, &dcfg, w, &obs_args.obs),
            ),
            None => (
                rdp::legal::legalize_obs(&mut design, &lcfg, &obs_args.obs),
                rdp::legal::detailed_place_obs(&mut design, &dcfg, &obs_args.obs),
            ),
        };
        println!(
            "legalized: {} failed, detailed-place gain {:.0} um, HPWL {:.0} um",
            lg.failed,
            gain,
            design.hpwl()
        );
    }
    write_obs_outputs(&obs_args, &format!("rdp place · {}", design.name()))?;
    if let Some(out) = flag(rest, "--out") {
        let format = flag(rest, "--format").unwrap_or("bookshelf");
        save_output(&design, Path::new(out), format)?;
    }
    Ok(())
}

fn cmd_route(rest: &[String]) -> Result<(), String> {
    let spec = rest.first().ok_or("route needs an input")?;
    let design = load_input(spec, &Collector::disabled())?;
    let result = rdp::route::GlobalRouter::default().route(&design);
    println!(
        "routed `{}`: wirelength {:.0} um, {:.0} vias",
        design.name(),
        result.wirelength,
        result.vias
    );
    println!(
        "congestion: max {:.2}, {} overflowed G-cells, total overflow {:.1}",
        result.max_congestion(),
        result.maps.overflowed_gcells(),
        result.maps.total_overflow()
    );
    println!("{}", result.congestion.ascii_heatmap(48));
    Ok(())
}

fn cmd_eval(rest: &[String]) -> Result<(), String> {
    let spec = rest.first().ok_or("eval needs an input")?;
    let design = load_input(spec, &Collector::disabled())?;
    let e = rdp::drc::evaluate(&design, &EvalConfig::default());
    println!("evaluation of `{}` (current placement):", design.name());
    println!("  DRWL    {:>12.0} um", e.drwl);
    println!("  #DRVias {:>12.0}", e.drvias);
    println!(
        "  #DRVs   {:>12.0}  (overflow {:.0}, pin access {:.0}, rail {:.0})",
        e.drvs, e.drv_overflow, e.drv_pin_access, e.drv_rail
    );
    println!("  track shorts {:>7.0}", e.track_shorts);

    // Hotspot diagnostics on the G-cell grid.
    let route = rdp::route::GlobalRouter::default().route(&design);
    let grid = design.gcell_grid();
    let spots = rdp::drc::hotspots(&design, &route, &grid, 5);
    if spots.is_empty() {
        println!("  no overflow hotspots");
    } else {
        println!("  top hotspots:");
        for s in &spots {
            println!(
                "    {:?} at {}: overflow {:.1}, util {:.2} → {}",
                s.gcell,
                s.region.center(),
                s.overflow,
                s.utilization,
                rdp::drc::classify(s)
            );
        }
    }
    let tr = rdp::drc::track_analysis(&design, &route, &grid);
    println!(
        "  worst layer: {} (overflow {:.1} tracks)",
        tr.worst_layer_name(),
        tr.overflow_per_layer[tr.worst_layer]
    );
    Ok(())
}

fn cmd_flow(rest: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        "flow",
        rest,
        &[&FLOW_FLAGS[..], &OBS_FLAGS, &["--out", "--format"]].concat(),
        &["--fast", "--profile"],
    )?;
    let spec = rest.first().ok_or("flow needs an input")?;
    let preset = parse_preset(rest)?;
    let obs_args = parse_obs(rest);
    let mut design = load_input(spec, &obs_args.obs)?;
    let report = place_and_evaluate_obs(
        &mut design,
        &parse_flow_config(rest)?,
        &EvalConfig::default(),
        &obs_args.obs,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "flow on `{}` ({:?}): PT {:.2}s, RT {:.2}s",
        design.name(),
        preset,
        report.flow.place_seconds,
        report.eval.route_seconds
    );
    println!(
        "  DRWL {:.0} um | #DRVias {:.0} | #DRVs {:.0}",
        report.eval.drwl, report.eval.drvias, report.eval.drvs
    );
    let legality = rdp::legal::check_legality(&design);
    println!("  legal: {}", legality.is_legal());
    write_obs_outputs(&obs_args, &format!("rdp flow · {}", design.name()))?;
    if let Some(out) = flag(rest, "--out") {
        let format = flag(rest, "--format").unwrap_or("bookshelf");
        save_output(&design, Path::new(out), format)?;
    }
    Ok(())
}

fn cmd_report(rest: &[String]) -> Result<(), String> {
    let run = rest.first().ok_or("report needs a run directory")?;
    let run = PathBuf::from(run);
    let out = flag(rest, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| run.join("report.html"));
    let title = flag(rest, "--title")
        .map(str::to_string)
        .unwrap_or_else(|| format!("rdp run · {}", run.display()));
    let model = rdp::report::RunModel::load(&run).map_err(|e| e.to_string())?;
    for name in &model.partial_artifacts {
        eprintln!(
            "warning: partial run — {name} leftover in {} (the producing run was \
             killed mid-capture; the committed artifacts are intact)",
            run.display()
        );
    }
    let html = rdp::report::render_report(&model, &title);
    let stats = rdp::report::validate_report(&html, &model)
        .map_err(|e| format!("generated report failed validation: {e}"))?;
    std::fs::write(&out, html).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "wrote report {} ({} charts, {} heatmaps)",
        out.display(),
        stats.charts,
        stats.heatmaps
    );
    Ok(())
}

fn cmd_matrix(rest: &[String]) -> Result<(), String> {
    let scale = match flag(rest, "--scale").unwrap_or("small") {
        "small" => rdp::gen::Scale::Small,
        "full" => rdp::gen::Scale::Full,
        other => return Err(format!("unknown scale `{other}` (expected small or full)")),
    };
    let classes = flag(rest, "--classes").map(|s| {
        s.split(',')
            .map(|c| c.trim().to_string())
            .collect::<Vec<_>>()
    });
    let run_dir = flag(rest, "--run-dir").map(PathBuf::from);
    let report = rdp::matrix::run_matrix(&rdp::matrix::MatrixConfig {
        scale,
        classes,
        run_dir,
    })?;
    print!("{}", report.table());
    if report.passed() {
        println!("matrix: all {} scenario(s) passed", report.outcomes.len());
        Ok(())
    } else {
        let mut names: Vec<&str> = report.failures().map(|f| f.scenario()).collect();
        names.dedup();
        Err(format!(
            "scenario matrix gate failed in class(es): {}",
            names.join(", ")
        ))
    }
}

fn cmd_diff(rest: &[String]) -> Result<(), String> {
    let a = rest.first().ok_or("diff needs two run directories")?;
    let b = rest.get(1).ok_or("diff needs two run directories")?;
    let mut thr = rdp::report::DiffThresholds::default();
    if let Some(tol) = flag(rest, "--qor-tol") {
        thr.qor_rel_tol = tol
            .parse()
            .map_err(|_| format!("--qor-tol `{tol}` is not a number"))?;
    }
    if let Some(tol) = flag(rest, "--time-tol") {
        thr.time_rel_tol = tol
            .parse()
            .map_err(|_| format!("--time-tol `{tol}` is not a number"))?;
    }
    let ma = rdp::report::RunModel::load(Path::new(a)).map_err(|e| e.to_string())?;
    let mb = rdp::report::RunModel::load(Path::new(b)).map_err(|e| e.to_string())?;
    let diff = rdp::report::diff_runs(&ma, &mb, &thr);
    print!("{}", diff.render_text());
    if diff.has_regression() {
        return Err(format!("regression in: {}", diff.regressions().join(", ")));
    }
    println!("no regression (qor tol {:.3}%)", 100.0 * thr.qor_rel_tol);
    Ok(())
}

fn cmd_render(rest: &[String]) -> Result<(), String> {
    let spec = rest.first().ok_or("render needs an input")?;
    let out = flag(rest, "--out").ok_or("render needs --out FILE.svg")?;
    let mut design = load_input(spec, &Collector::disabled())?;
    if let Some(p) = flag(rest, "--place") {
        let preset = match p {
            "xplace" => PlacerPreset::Xplace,
            "xplace-route" => PlacerPreset::XplaceRoute,
            "ours" => PlacerPreset::Ours,
            other => return Err(format!("unknown preset `{other}`")),
        };
        run_flow(&mut design, &RoutabilityConfig::preset(preset)).map_err(|e| e.to_string())?;
    }
    let congestion = rest.iter().any(|a| a == "--congestion").then(|| {
        rdp::route::GlobalRouter::default()
            .route(&design)
            .congestion
    });
    let svg = rdp::render::render_svg(
        &design,
        &rdp::render::RenderOptions {
            congestion,
            ..Default::default()
        },
    );
    std::fs::write(out, svg).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_convert(rest: &[String]) -> Result<(), String> {
    let spec = rest.first().ok_or("convert needs an input")?;
    let out: PathBuf = flag(rest, "--out").ok_or("convert needs --out DIR")?.into();
    let format = flag(rest, "--format").ok_or("convert needs --format")?;
    let design = load_input(spec, &Collector::disabled())?;
    save_output(&design, &out, format)
}

// ---------------------------------------------------------------------------
// Placement-as-a-service commands
// ---------------------------------------------------------------------------

fn parse_num<T: std::str::FromStr>(rest: &[String], key: &str) -> Result<Option<T>, String> {
    flag(rest, key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{key} `{v}` is not a valid number"))
        })
        .transpose()
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let dir = flag(rest, "--dir").ok_or("serve needs --dir DIR (the durable store)")?;
    let mut cfg = rdp::serve::ServeConfig {
        dir: dir.into(),
        ..Default::default()
    };
    if let Some(addr) = flag(rest, "--addr") {
        cfg.addr = addr.into();
    }
    if let Some(v) = parse_num(rest, "--workers")? {
        cfg.workers = v;
    }
    if let Some(v) = parse_num(rest, "--max-queue")? {
        cfg.max_queue = v;
    }
    if let Some(v) = parse_num(rest, "--job-threads")? {
        cfg.job_threads = v;
    }
    if let Some(v) = parse_num(rest, "--io-timeout-ms")? {
        cfg.io_timeout_ms = v;
    }
    if let Some(v) = parse_num(rest, "--max-frame")? {
        cfg.max_frame = v;
    }
    cfg.port_file = flag(rest, "--port-file").map(PathBuf::from);
    let server = rdp::serve::Server::start(cfg).map_err(|e| e.to_string())?;
    println!(
        "rdp serve listening on {} — {}",
        server.local_addr(),
        server.recovery().summary()
    );
    // Runs until a client sends `shutdown` (graceful drain) or the
    // process is killed; a kill at any instant is recoverable.
    server.join().map_err(|e| e.to_string())
}

fn service_client(rest: &[String], cmd: &str) -> Result<(rdp::serve::Client, Vec<String>), String> {
    let addr = rest
        .first()
        .ok_or_else(|| format!("{cmd} needs a server ADDR (host:port)"))?;
    Ok((rdp::serve::Client::new(addr.clone()), rest[1..].to_vec()))
}

fn cmd_submit(rest: &[String]) -> Result<(), String> {
    let (client, rest) = service_client(rest, "submit")?;
    reject_unknown_flags(
        "submit",
        &rest,
        &[
            &FLOW_FLAGS[..],
            &["--deadline-ms", "--retries", "--wait-ms"],
        ]
        .concat(),
        &["--fast", "--capture", "--wait"],
    )?;
    let input = rest
        .first()
        .ok_or("submit needs an input (suite name, bookshelf:, or lefdef:)")?
        .clone();
    let spec = rdp::serve::JobSpec {
        input,
        preset: flag(&rest, "--preset").unwrap_or("ours").to_string(),
        fast: rest.iter().any(|a| a == "--fast"),
        capture: rest.iter().any(|a| a == "--capture"),
        deadline_ms: parse_num(&rest, "--deadline-ms")?,
        max_retries: parse_num(&rest, "--retries")?.unwrap_or(0),
        max_route_iters: parse_num(&rest, "--max-route-iters")?,
        gp_max_iters: parse_num(&rest, "--gp-iters")?,
        gp_iters_per_route: parse_num(&rest, "--gp-burst")?,
    };
    let id = client.submit(&spec).map_err(|e| e.to_string())?;
    println!("submitted job {id}");
    if rest.iter().any(|a| a == "--wait") {
        let budget: u64 = parse_num(&rest, "--wait-ms")?.unwrap_or(600_000);
        let outcome = client.wait(id, 100, budget).map_err(|e| e.to_string())?;
        print_outcome(&outcome);
    }
    Ok(())
}

fn print_outcome(o: &rdp::serve::client::JobOutcome) {
    println!(
        "job {} done (attempt {}, {} ms consumed): HPWL {:.0} um bits {:#018x}, \
         overflow {:.4}, {} WL iters + {} routability iters, {:.2}s place",
        o.id,
        o.attempt,
        o.consumed_ms,
        o.hpwl,
        o.hpwl_bits,
        o.density_overflow,
        o.gp_iterations,
        o.route_iterations,
        o.place_seconds
    );
    for w in &o.warnings {
        println!("  warning: {w}");
    }
}

fn cmd_status(rest: &[String]) -> Result<(), String> {
    let (client, rest) = service_client(rest, "status")?;
    match rest.first().and_then(|s| s.parse::<u64>().ok()) {
        Some(id) => {
            let s = client.status(id).map_err(|e| e.to_string())?;
            print_status_line(&s);
        }
        None => {
            let all = client.status_all().map_err(|e| e.to_string())?;
            if all.is_empty() {
                println!("no jobs");
            }
            for s in &all {
                print_status_line(s);
            }
        }
    }
    Ok(())
}

fn print_status_line(s: &rdp::serve::client::JobStatus) {
    let mut line = format!(
        "job {:>4}  {:<10} attempt {}  {} ms",
        s.id,
        s.state.label(),
        s.attempt,
        s.consumed_ms
    );
    if let Some(iter) = s.route_iter {
        line.push_str(&format!("  route-iter {iter}"));
    }
    if let Some(hpwl) = s.hpwl {
        line.push_str(&format!("  HPWL {hpwl:.0}"));
    }
    if let Some((kind, detail)) = &s.error {
        line.push_str(&format!("  [{kind}] {detail}"));
    }
    println!("{line}");
}

fn cmd_cancel(rest: &[String]) -> Result<(), String> {
    let (client, rest) = service_client(rest, "cancel")?;
    let id: u64 = rest
        .first()
        .and_then(|s| s.parse().ok())
        .ok_or("cancel needs a numeric job ID")?;
    client.cancel(id).map_err(|e| e.to_string())?;
    println!("cancel requested for job {id}");
    Ok(())
}

fn cmd_fetch(rest: &[String]) -> Result<(), String> {
    let (client, rest) = service_client(rest, "fetch")?;
    let id: u64 = rest
        .first()
        .and_then(|s| s.parse().ok())
        .ok_or("fetch needs a numeric job ID")?;
    let outcome = client.result(id, true).map_err(|e| e.to_string())?;
    print_outcome(&outcome);
    Ok(())
}

fn cmd_shutdown(rest: &[String]) -> Result<(), String> {
    let (client, _) = service_client(rest, "shutdown")?;
    let drained = client.shutdown().map_err(|e| e.to_string())?;
    println!(
        "server draining: {drained} live job{} checkpointed and requeued durably",
        if drained == 1 { "" } else { "s" }
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Service telemetry: `rdp stats ADDR` and `rdp top ADDR`.
// ---------------------------------------------------------------------------

/// `HOST:PORT` vs design input disambiguation for verbs that accept
/// both (`rdp stats`). Bookshelf/LEF-DEF specs also contain colons, so
/// require the suffix after the *last* colon to parse as a port.
fn looks_like_addr(s: &str) -> bool {
    if s.starts_with("bookshelf:") || s.starts_with("lefdef:") {
        return false;
    }
    match s.rsplit_once(':') {
        Some((host, port)) => !host.is_empty() && port.parse::<u16>().is_ok(),
        None => false,
    }
}

fn cmd_service_stats(rest: &[String]) -> Result<(), String> {
    let (client, rest) = service_client(rest, "stats")?;
    let (text, summary) = client.stats().map_err(|e| e.to_string())?;
    if let Some(path) = flag(&rest, "--metrics-out") {
        std::fs::write(path, text.as_bytes()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if rest.iter().any(|a| a == "--json") {
        println!("{text}");
        return Ok(());
    }
    let v = rdp::obs::json::parse(&text).map_err(|e| format!("stats response: {e}"))?;
    print_service_stats(&v, &summary);
    Ok(())
}

fn print_service_stats(v: &rdp::obs::json::Value, summary: &rdp::serve::StatsSummary) {
    use rdp::obs::json::Value;
    let gu64 = |obj: &Value, key: &str| -> u64 {
        obj.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
    };
    let uptime_ms = gu64(v, "uptime_ms");
    let draining = matches!(v.get("draining"), Some(Value::Bool(true)));
    println!(
        "server {} (protocol v{})  uptime {:.1}s{}",
        v.get("server_version")
            .and_then(Value::as_str)
            .unwrap_or("?"),
        gu64(v, "protocol_version"),
        uptime_ms as f64 / 1e3,
        if draining { "  DRAINING" } else { "" }
    );
    let service = v.get("service");
    if let Some(gauges) = service.and_then(|s| s.get("gauges")) {
        println!(
            "gauges   queue {}  running {}  connections {}",
            gu64(gauges, "queue_depth"),
            gu64(gauges, "running_jobs"),
            gu64(gauges, "connections"),
        );
    }
    if let Some(counters) = service.and_then(|s| s.get("counters")) {
        println!(
            "jobs     submits {}  completions {}  failures {}  cancellations {}  \
             retries {}  requeues {}  quarantined {}",
            gu64(counters, "submits"),
            gu64(counters, "completions"),
            gu64(counters, "failures"),
            gu64(counters, "cancellations"),
            gu64(counters, "retries"),
            gu64(counters, "requeues"),
            gu64(counters, "quarantined"),
        );
        println!(
            "rejects  frame-limit {}  slots {}",
            gu64(counters, "frame_limit_rejections"),
            gu64(counters, "slot_rejections"),
        );
    }
    if let Some(Value::Obj(hists)) = service.and_then(|s| s.get("histograms")) {
        for (name, h) in hists.iter().filter(|(n, _)| n.starts_with("op_")) {
            let count = gu64(h, "count");
            if count == 0 {
                continue;
            }
            let sum = h.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
            let max = h.get("max").and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "op       {:<14} {:>6} calls  mean {:>8.3} ms  max {:>8.3} ms",
                name.trim_start_matches("op_").trim_end_matches("_ms"),
                count,
                sum / count as f64,
                max
            );
        }
    }
    if let Some(drops) = v.get("drops") {
        let total = gu64(drops, "events") + gu64(drops, "frames");
        if total > 0 {
            println!(
                "drops    events {} (spans {}, instants {})  frames {}",
                gu64(drops, "events"),
                gu64(drops, "spans"),
                gu64(drops, "instants"),
                gu64(drops, "frames"),
            );
        }
    }
    println!(
        "totals   {} jobs tracked, {} counter increments, {} timed ops",
        summary.jobs, summary.counter_total, summary.op_observations
    );
    if let Some(Value::Arr(jobs)) = v.get("jobs") {
        for job in jobs {
            print_live_job_line(job);
        }
    }
}

fn print_live_job_line(job: &rdp::obs::json::Value) {
    use rdp::obs::json::Value;
    let mut line = format!(
        "job {:>4}  {:<10} attempt {}  {} ms",
        job.get("id").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        job.get("state").and_then(Value::as_str).unwrap_or("?"),
        job.get("attempt").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        job.get("consumed_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64,
    );
    if let Some(iter) = job.get("route_iter").and_then(Value::as_f64) {
        line.push_str(&format!("  route-iter {}", iter as u64));
    }
    // Prefer the settled result's numbers; fall back to live progress.
    for (label, keys) in [
        ("HPWL", ["hpwl", "progress_hpwl"]),
        ("overflow", ["density_overflow", "progress_overflow"]),
    ] {
        if let Some(x) = keys.iter().find_map(|k| job.get(k).and_then(Value::as_f64)) {
            if label == "HPWL" {
                line.push_str(&format!("  {label} {x:.0}"));
            } else {
                line.push_str(&format!("  {label} {x:.4}"));
            }
        }
    }
    if let Some(kind) = job.get("kind").and_then(Value::as_str) {
        line.push_str(&format!("  [{kind}]"));
    }
    println!("{line}");
}

fn cmd_top(rest: &[String]) -> Result<(), String> {
    use std::io::IsTerminal;
    let (client, rest) = service_client(rest, "top")?;
    let interval_ms: u64 = parse_num(&rest, "--interval-ms")?.unwrap_or(1_000);
    let tty = std::io::stdout().is_terminal();
    // On a TTY, refresh forever by default; piped output gets one frame
    // unless --iters asks for more, so scripts never hang on `rdp top`.
    let iters: u64 = parse_num(&rest, "--iters")?.unwrap_or(if tty { 0 } else { 1 });
    let info = client.ping_info().map_err(|e| e.to_string())?;
    match info.protocol_version {
        Some(v) if v == rdp::serve::PROTOCOL_VERSION => {}
        got => {
            return Err(format!(
                "protocol version mismatch: server {} speaks {}, this client speaks v{} — \
                 refusing to render (use a matching rdp build)",
                info.server_version
                    .as_deref()
                    .unwrap_or("(unknown version)"),
                got.map(|v| format!("v{v}"))
                    .unwrap_or_else(|| "an unversioned protocol".into()),
                rdp::serve::PROTOCOL_VERSION
            ))
        }
    }
    let mut watch_seq = 0u64;
    let mut frame = 0u64;
    loop {
        let (text, summary) = client.stats().map_err(|e| e.to_string())?;
        let v = rdp::obs::json::parse(&text).map_err(|e| format!("stats response: {e}"))?;
        if tty {
            // Clear and home, then redraw the whole frame in place.
            print!("\x1b[2J\x1b[H");
        } else if frame > 0 {
            println!("---");
        }
        print_service_stats(&v, &summary);
        frame += 1;
        if iters != 0 && frame >= iters {
            return Ok(());
        }
        // Sleep on the server's fleet watch: wakes early on activity
        // (submit/settle), times out as a typed Busy when idle.
        let params = rdp::serve::WatchParams {
            seq: watch_seq,
            wait_ms: interval_ms,
            ..Default::default()
        };
        match client.watch(&params) {
            Ok(delta) => {
                if let Some(seq) = delta.get("seq").and_then(rdp::obs::json::Value::as_f64) {
                    watch_seq = seq as u64;
                }
            }
            Err(rdp::core::RdpError::Busy { .. }) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}
