//! `rdp` — command-line driver for the routability-driven placement stack.
//!
//! ```text
//! rdp suite                                   list the 20 benchmark designs
//! rdp stats    <input>                        design statistics
//! rdp generate <name> --out DIR [--format F]  write a suite design to disk
//! rdp place    <input> [--preset P] [--out DIR]   run the placement flow
//!              [--checkpoint FILE] [--resume FILE]  resumable runs (same flags)
//! rdp route    <input>                        route + congestion summary
//! rdp eval     <input>                        evaluate current placement
//! rdp flow     <input> [--preset P]           full pipeline + report
//! rdp convert  <input> --out DIR --format F   convert between formats
//!
//! <input> is either a suite design name (e.g. fft_1), a Bookshelf bundle
//! `bookshelf:DIR:BASE`, or a LEF/DEF pair `lefdef:LEF:DEF`.
//! Presets: xplace | xplace-route | ours (default ours).
//! Formats: bookshelf | lefdef.
//! Every command fails on a `--` flag it does not read.
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rdp::core::{run_flow, run_flow_with, FlowCheckpoint, FlowControl, PlacerPreset};
use rdp::db::DesignStats;
use rdp::obs::Collector;
use rdp::serve::{flow_config, resolve_input, JobSpec};
use rdp::{legalize_after_flow, place_and_evaluate_obs, Design, EvalConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let f = Flags::new(cmd, &args[1..]);
    let result = match cmd.as_str() {
        "suite" => cmd_suite(f),
        "stats" => cmd_stats(f),
        "generate" => cmd_generate(f),
        "place" => cmd_place(f),
        "route" => cmd_route(f),
        "eval" => cmd_eval(f),
        "flow" => cmd_flow(f),
        "matrix" => cmd_matrix(f),
        "report" => cmd_report(f),
        "diff" => cmd_diff(f),
        "convert" => cmd_convert(f),
        "render" => cmd_render(f),
        "serve" => cmd_serve(f),
        "submit" => cmd_submit(f),
        "status" => cmd_status(f),
        "cancel" => cmd_cancel(f),
        "fetch" => cmd_fetch(f),
        "top" => cmd_top(f),
        "shutdown" => cmd_shutdown(f),
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
           [--cells N] [--seed N] [--util X] [--margin X]
  place    <input> [--preset P] [--out DIR]  global placement flow
           [--gp-iters N] [--max-route-iters N] [--gp-burst N]
                                             iteration caps (same knobs
                                             as `rdp submit`)
           [--checkpoint FILE]               save resumable state each iteration
           [--resume FILE]                   resume a killed run (bit-exact;
                                             needs the flags that wrote FILE)
           [--legalize]                      legalize + detailed-place after GP
  route    <input>                         route and summarize congestion
  eval     <input>                         evaluate the current placement
  flow     <input> [--preset P] [--out DIR]  place → legalize → evaluate
           [--gp-iters N] [--max-route-iters N] [--gp-burst N]
  matrix   [--scale small|full] [--classes a,b,...] [--run-dir DIR]
                                           scenario matrix: run every stress
                                           class through the three presets
                                           and gate the Table-1 DRV
                                           ordering; exits nonzero naming
                                           violations
  report   <run-dir> [--out FILE.html] [--title T]
                                           render a run directory to HTML
  diff     <run-a> <run-b> [--qor-tol X] [--time-tol Y]
                                           QoR/perf deltas; exit 1 on regression
  convert  <input> --out DIR --format F    convert between formats
  render   <input> --out FILE.svg [--congestion] [--place P]   render to SVG
service (crash-safe placement-as-a-service):
  serve    --dir DIR [--addr H:P] [--workers N] [--max-queue N]
           [--job-threads N] [--io-timeout-ms N] [--max-frame N]
           [--port-file FILE]
                                           durable job queue over TCP; kill -9
                                           at any instant and restart: the
                                           queue replays and partial jobs
                                           resume bitwise from checkpoints
  submit   ADDR <input> [--preset P] [--capture]
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
every command fails on a `--` flag it does not read, before it starts work.
inputs:  <suite-name> | bookshelf:DIR:BASE | lefdef:LEF_PATH:DEF_PATH
presets: xplace | xplace-route (xr) | ours  formats: bookshelf | lefdef"
}

/// One command's arguments. A command asks for each flag it reads by
/// name; [`Flags::finish`] then fails on any other `--` argument, so a
/// typo or a flag this build does not have is an error naming the flag,
/// never a silently different run. Every command calls `finish` before
/// it loads input, binds, connects or writes.
struct Flags<'a> {
    cmd: &'a str,
    args: &'a [String],
    valued: Vec<&'static str>,
    switches: Vec<&'static str>,
}

impl<'a> Flags<'a> {
    fn new(cmd: &'a str, args: &'a [String]) -> Self {
        Flags {
            cmd,
            args,
            valued: Vec::new(),
            switches: Vec::new(),
        }
    }

    /// The `i`-th argument (positional arguments come first).
    fn arg(&self, i: usize) -> Option<&'a str> {
        self.args.get(i).map(String::as_str)
    }

    /// The value after `--name`, if the flag is given.
    fn value(&mut self, name: &'static str) -> Option<&'a str> {
        self.valued.push(name);
        let i = self.args.iter().position(|a| a == name)?;
        self.arg(i + 1)
    }

    fn path(&mut self, name: &'static str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// The value after `--name` parsed as a number, if the flag is given.
    fn num<T: std::str::FromStr>(&mut self, name: &'static str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} `{v}` is not a valid number"))
            })
            .transpose()
    }

    /// Whether the switch `--name` is given.
    fn switch(&mut self, name: &'static str) -> bool {
        self.switches.push(name);
        self.args.iter().any(|a| a == name)
    }

    /// Fails on the first `--` argument no read asked for.
    fn finish(&self) -> Result<(), String> {
        let mut args = self.args.iter();
        while let Some(a) = args.next() {
            if self.valued.contains(&a.as_str()) {
                args.next();
            } else if a.starts_with("--") && !self.switches.contains(&a.as_str()) {
                return Err(format!(
                    "`rdp {}` does not accept `{a}` (see `rdp help`)",
                    self.cmd
                ));
            }
        }
        Ok(())
    }
}

/// Reads the input (the argument at `input_at`) and the flow flags into
/// the job spec `place`, `flow` and `submit` share. Each command checks
/// it with the worker's own [`flow_config`] before any work starts or any
/// connection is made.
fn read_spec(f: &mut Flags, input_at: usize) -> Result<JobSpec, String> {
    Ok(JobSpec {
        input: f
            .arg(input_at)
            .ok_or_else(|| format!("{} needs an input", f.cmd))?
            .to_string(),
        preset: f.value("--preset").unwrap_or("ours").to_string(),
        max_route_iters: f.num("--max-route-iters")?,
        gp_max_iters: f.num("--gp-iters")?,
        gp_iters_per_route: f.num("--gp-burst")?,
        ..JobSpec::default()
    })
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

fn read_obs(f: &mut Flags) -> ObsArgs {
    let trace_out = f.path("--trace-out");
    let chrome_trace = f.path("--chrome-trace");
    let metrics_out = f.path("--metrics-out");
    let run_dir = f.path("--run-dir");
    let report_out = f.path("--report-out");
    let profile = f.switch("--profile");
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
        rdp::serve::store::write_run_dir(dir, &o.obs).map_err(|e| e.to_string())?;
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

fn cmd_suite(f: Flags) -> Result<(), String> {
    f.finish()?;
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

fn cmd_stats(f: Flags) -> Result<(), String> {
    let spec = f.arg(0).ok_or("stats needs an input or a server ADDR")?;
    // `rdp stats HOST:PORT` is the service telemetry snapshot; anything
    // else (suite name, bookshelf:, lefdef:) is design statistics.
    if looks_like_addr(spec) {
        return cmd_service_stats(f);
    }
    f.finish()?;
    let design = resolve_input(spec, &Collector::disabled()).map_err(|e| e.to_string())?;
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

fn cmd_generate(mut f: Flags) -> Result<(), String> {
    let name = f.arg(0).ok_or("generate needs a suite design name")?;
    let out = f.path("--out").ok_or("generate needs --out DIR")?;
    let format = f.value("--format").unwrap_or("bookshelf");
    // Optional overrides so scripts can size a suite design to taste
    // (e.g. the serve smoke gate's 5k-cell variant).
    let cells = f.num::<f64>("--cells")?;
    let seed = f.num::<f64>("--seed")?;
    let util = f.num("--util")?;
    let margin = f.num("--margin")?;
    f.finish()?;
    let mut params = rdp::gen::ispd2015_suite()
        .into_iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown design `{name}`"))?
        .params;
    if let Some(v) = cells {
        params.num_cells = v as usize;
    }
    if let Some(v) = seed {
        params.seed = v as u64;
    }
    if let Some(v) = util {
        params.utilization = v;
    }
    if let Some(v) = margin {
        params.congestion_margin = v;
    }
    let design = rdp::gen::generate(name, &params);
    save_output(&design, &out, format)
}

fn cmd_place(mut f: Flags) -> Result<(), String> {
    let spec = read_spec(&mut f, 0)?;
    let obs_args = read_obs(&mut f);
    // Checkpoint/resume: --checkpoint FILE rewrites FILE with the flow
    // state at the top of every routability iteration; --resume FILE
    // restarts a killed run from that state, reproducing the
    // uninterrupted run bit-for-bit.
    let checkpoint_path = f.path("--checkpoint");
    let resume_path = f.value("--resume");
    let legalize = f.switch("--legalize");
    let out = f.path("--out");
    let format = f.value("--format").unwrap_or("bookshelf");
    f.finish()?;
    let cfg = flow_config(&spec, 0).map_err(|e| e.to_string())?;
    let mut design = resolve_input(&spec.input, &obs_args.obs).map_err(|e| e.to_string())?;

    let resume = match resume_path {
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
            // tmp + rename: a kill mid-write never leaves a torn
            // checkpoint behind.
            if let Err(e) = rdp::serve::store::write_atomic_relaxed(&path, &cp.to_bytes()) {
                eprintln!("warning: failed to write checkpoint: {e}");
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
    let report = run_flow_with(&mut design, &cfg, ctrl).map_err(|e| e.to_string())?;
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
    if legalize {
        let (lg, gain) = legalize_after_flow(&mut design, &report, &obs_args.obs);
        println!(
            "legalized: {} failed, detailed-place gain {:.0} um, HPWL {:.0} um",
            lg.failed,
            gain,
            design.hpwl()
        );
    }
    write_obs_outputs(&obs_args, &format!("rdp place · {}", design.name()))?;
    if let Some(out) = out {
        save_output(&design, &out, format)?;
    }
    Ok(())
}

fn cmd_route(f: Flags) -> Result<(), String> {
    let spec = f.arg(0).ok_or("route needs an input")?;
    f.finish()?;
    let design = resolve_input(spec, &Collector::disabled()).map_err(|e| e.to_string())?;
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

fn cmd_eval(f: Flags) -> Result<(), String> {
    let spec = f.arg(0).ok_or("eval needs an input")?;
    f.finish()?;
    let design = resolve_input(spec, &Collector::disabled()).map_err(|e| e.to_string())?;
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

fn cmd_flow(mut f: Flags) -> Result<(), String> {
    let spec = read_spec(&mut f, 0)?;
    let obs_args = read_obs(&mut f);
    let out = f.path("--out");
    let format = f.value("--format").unwrap_or("bookshelf");
    f.finish()?;
    let cfg = flow_config(&spec, 0).map_err(|e| e.to_string())?;
    let mut design = resolve_input(&spec.input, &obs_args.obs).map_err(|e| e.to_string())?;
    let report = place_and_evaluate_obs(&mut design, &cfg, &EvalConfig::default(), &obs_args.obs)
        .map_err(|e| e.to_string())?;
    println!(
        "flow on `{}` ({}): PT {:.2}s, RT {:.2}s",
        design.name(),
        spec.preset,
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
    if let Some(out) = out {
        save_output(&design, &out, format)?;
    }
    Ok(())
}

fn cmd_report(mut f: Flags) -> Result<(), String> {
    let run = PathBuf::from(f.arg(0).ok_or("report needs a run directory")?);
    let out = f.path("--out").unwrap_or_else(|| run.join("report.html"));
    let title = f
        .value("--title")
        .map(str::to_string)
        .unwrap_or_else(|| format!("rdp run · {}", run.display()));
    f.finish()?;
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

fn cmd_matrix(mut f: Flags) -> Result<(), String> {
    let scale = match f.value("--scale").unwrap_or("small") {
        "small" => rdp::gen::Scale::Small,
        "full" => rdp::gen::Scale::Full,
        other => return Err(format!("unknown scale `{other}` (expected small or full)")),
    };
    let classes = f.value("--classes").map(|s| {
        s.split(',')
            .map(|c| c.trim().to_string())
            .collect::<Vec<_>>()
    });
    let run_dir = f.path("--run-dir");
    f.finish()?;
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

fn cmd_diff(mut f: Flags) -> Result<(), String> {
    let a = f.arg(0).ok_or("diff needs two run directories")?;
    let b = f.arg(1).ok_or("diff needs two run directories")?;
    let mut thr = rdp::report::DiffThresholds::default();
    if let Some(tol) = f.num("--qor-tol")? {
        thr.qor_rel_tol = tol;
    }
    if let Some(tol) = f.num("--time-tol")? {
        thr.time_rel_tol = tol;
    }
    f.finish()?;
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

fn cmd_render(mut f: Flags) -> Result<(), String> {
    let spec = f.arg(0).ok_or("render needs an input")?;
    let out = f.value("--out").ok_or("render needs --out FILE.svg")?;
    let place = f
        .value("--place")
        .map(str::parse::<PlacerPreset>)
        .transpose()?;
    let congestion = f.switch("--congestion");
    f.finish()?;
    let mut design = resolve_input(spec, &Collector::disabled()).map_err(|e| e.to_string())?;
    if let Some(preset) = place {
        run_flow(&mut design, &rdp::RoutabilityConfig::preset(preset))
            .map_err(|e| e.to_string())?;
    }
    let congestion = congestion.then(|| {
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

fn cmd_convert(mut f: Flags) -> Result<(), String> {
    let spec = f.arg(0).ok_or("convert needs an input")?;
    let out = f.path("--out").ok_or("convert needs --out DIR")?;
    let format = f.value("--format").ok_or("convert needs --format")?;
    f.finish()?;
    let design = resolve_input(spec, &Collector::disabled()).map_err(|e| e.to_string())?;
    save_output(&design, &out, format)
}

// ---------------------------------------------------------------------------
// Placement-as-a-service commands
// ---------------------------------------------------------------------------

fn cmd_serve(mut f: Flags) -> Result<(), String> {
    let dir = f
        .path("--dir")
        .ok_or("serve needs --dir DIR (the durable store)")?;
    let mut cfg = rdp::serve::ServeConfig {
        dir,
        ..Default::default()
    };
    if let Some(addr) = f.value("--addr") {
        cfg.addr = addr.into();
    }
    if let Some(v) = f.num("--workers")? {
        cfg.workers = v;
    }
    if let Some(v) = f.num("--max-queue")? {
        cfg.max_queue = v;
    }
    if let Some(v) = f.num("--job-threads")? {
        cfg.job_threads = v;
    }
    if let Some(v) = f.num("--io-timeout-ms")? {
        cfg.io_timeout_ms = v;
    }
    if let Some(v) = f.num("--max-frame")? {
        cfg.max_frame = v;
    }
    cfg.port_file = f.path("--port-file");
    f.finish()?;
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

/// The client for a service command's `ADDR` argument. Making one does
/// not connect.
fn service_client(f: &Flags) -> Result<rdp::serve::Client, String> {
    let addr = f
        .arg(0)
        .ok_or_else(|| format!("{} needs a server ADDR (host:port)", f.cmd))?;
    Ok(rdp::serve::Client::new(addr))
}

fn cmd_submit(mut f: Flags) -> Result<(), String> {
    let client = service_client(&f)?;
    let mut spec = read_spec(&mut f, 1)?;
    spec.capture = f.switch("--capture");
    spec.deadline_ms = f.num("--deadline-ms")?;
    spec.max_retries = f.num("--retries")?.unwrap_or(0);
    let wait = f.switch("--wait");
    let wait_ms: u64 = f.num("--wait-ms")?.unwrap_or(600_000);
    f.finish()?;
    flow_config(&spec, 0).map_err(|e| e.to_string())?;
    let id = client.submit(&spec).map_err(|e| e.to_string())?;
    println!("submitted job {id}");
    if wait {
        let outcome = client.wait(id, 100, wait_ms).map_err(|e| e.to_string())?;
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

fn cmd_status(f: Flags) -> Result<(), String> {
    let client = service_client(&f)?;
    f.finish()?;
    match f.arg(1).and_then(|s| s.parse::<u64>().ok()) {
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

fn cmd_cancel(f: Flags) -> Result<(), String> {
    let client = service_client(&f)?;
    let id: u64 = f
        .arg(1)
        .and_then(|s| s.parse().ok())
        .ok_or("cancel needs a numeric job ID")?;
    f.finish()?;
    client.cancel(id).map_err(|e| e.to_string())?;
    println!("cancel requested for job {id}");
    Ok(())
}

fn cmd_fetch(f: Flags) -> Result<(), String> {
    let client = service_client(&f)?;
    let id: u64 = f
        .arg(1)
        .and_then(|s| s.parse().ok())
        .ok_or("fetch needs a numeric job ID")?;
    f.finish()?;
    let outcome = client.result(id, true).map_err(|e| e.to_string())?;
    print_outcome(&outcome);
    Ok(())
}

fn cmd_shutdown(f: Flags) -> Result<(), String> {
    let client = service_client(&f)?;
    f.finish()?;
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

fn cmd_service_stats(mut f: Flags) -> Result<(), String> {
    let client = service_client(&f)?;
    let metrics_out = f.value("--metrics-out");
    let json = f.switch("--json");
    f.finish()?;
    let (text, summary) = client.stats().map_err(|e| e.to_string())?;
    if let Some(path) = metrics_out {
        std::fs::write(path, text.as_bytes()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if json {
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

fn cmd_top(mut f: Flags) -> Result<(), String> {
    use std::io::IsTerminal;
    let client = service_client(&f)?;
    let interval_ms: u64 = f.num("--interval-ms")?.unwrap_or(1_000);
    let tty = std::io::stdout().is_terminal();
    // On a TTY, refresh forever by default; piped output gets one frame
    // unless --iters asks for more, so scripts never hang on `rdp top`.
    let iters: u64 = f.num("--iters")?.unwrap_or(if tty { 0 } else { 1 });
    f.finish()?;
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
