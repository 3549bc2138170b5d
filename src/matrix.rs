//! Scenario-matrix harness: the standing Table-1 invariant suite.
//!
//! Runs every [`rdp_gen::scenario_matrix`] class through the flow for the
//! three Table-1 presets (`Ours`, `Xplace-Route`, `Xplace`) and checks, per
//! class:
//!
//! 1. **Format round-trip** — the design survives a LEF/DEF-lite
//!    write→read→write cycle byte-identically (obstructions, pitches and
//!    tracks included).
//! 2. **Survival** — every preset completes [`run_flow`] without panic or
//!    divergence; degenerate classes may finish in degraded mode with
//!    warnings.
//! 3. **Telemetry** — a flow that executed routability iterations must
//!    have recorded congestion frames and convergence series. An empty
//!    frame buffer or series is a *named failure*, never a silent pass.
//! 4. **QoR ordering** — for gated classes, the Table-1 invariant
//!    `Ours ≤ Xplace-Route ≤ Xplace` on the DRV proxy, within the class
//!    tolerance.
//!
//! The harness is a library so the CLI (`rdp matrix`), `scripts/ci.sh`
//! and the integration tests share one implementation.
//!
//! [`run_flow`]: rdp_core::run_flow

use std::fmt;
use std::path::PathBuf;

use rdp_core::{run_flow_with, FlowControl, PlacerPreset, RoutabilityConfig};
use rdp_gen::{scenario_matrix, Scale, Scenario};
use rdp_obs::Collector;
use rdp_parse::{read_lefdef, write_lefdef};

/// Configuration of a matrix run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Instance scale (`Small` = small instances, `Full` = Table-1-sized;
    /// `scripts/ci.sh` runs both).
    pub scale: Scale,
    /// Restrict to these scenario names (`None` = the whole matrix).
    pub classes: Option<Vec<String>>,
    /// Write one run directory per (scenario, preset) under this root,
    /// compatible with `rdp report` / `rdp diff`.
    pub run_dir: Option<PathBuf>,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            scale: Scale::Small,
            classes: None,
            run_dir: None,
        }
    }
}

/// A named matrix failure. Every failure mode carries the scenario name:
/// the gate never fails anonymously and never passes silently.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixFailure {
    /// LEF/DEF round-trip was not byte-identical or did not parse.
    RoundTrip {
        /// Scenario name.
        scenario: String,
        /// What went wrong.
        detail: String,
    },
    /// The flow returned an error for a preset.
    FlowError {
        /// Scenario name.
        scenario: String,
        /// Preset that failed.
        preset: &'static str,
        /// The flow error.
        detail: String,
    },
    /// Routability iterations ran but no congestion frame was recorded.
    EmptyCongestionFrames {
        /// Scenario name.
        scenario: String,
        /// Preset whose telemetry is empty.
        preset: &'static str,
    },
    /// Routability iterations ran but a convergence series is empty.
    EmptySeries {
        /// Scenario name.
        scenario: String,
        /// Preset whose telemetry is empty.
        preset: &'static str,
        /// The missing series.
        series: &'static str,
    },
    /// The Table-1 DRV ordering was violated.
    OrderingViolation {
        /// Scenario name.
        scenario: String,
        /// The preset expected to be at most as bad.
        better: &'static str,
        /// The preset expected to be at least as bad.
        worse: &'static str,
        /// DRV proxy of `better`.
        better_drvs: f64,
        /// DRV proxy of `worse`.
        worse_drvs: f64,
        /// Relative tolerance that was applied.
        tolerance: f64,
    },
}

impl MatrixFailure {
    /// The scenario this failure belongs to.
    pub fn scenario(&self) -> &str {
        match self {
            MatrixFailure::RoundTrip { scenario, .. }
            | MatrixFailure::FlowError { scenario, .. }
            | MatrixFailure::EmptyCongestionFrames { scenario, .. }
            | MatrixFailure::EmptySeries { scenario, .. }
            | MatrixFailure::OrderingViolation { scenario, .. } => scenario,
        }
    }
}

impl fmt::Display for MatrixFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixFailure::RoundTrip { scenario, detail } => {
                write!(f, "[{scenario}] LEF/DEF round-trip failed: {detail}")
            }
            MatrixFailure::FlowError {
                scenario,
                preset,
                detail,
            } => write!(f, "[{scenario}] flow failed under {preset}: {detail}"),
            MatrixFailure::EmptyCongestionFrames { scenario, preset } => write!(
                f,
                "[{scenario}] {preset}: routability iterations ran but no congestion \
                 frame was recorded"
            ),
            MatrixFailure::EmptySeries {
                scenario,
                preset,
                series,
            } => write!(
                f,
                "[{scenario}] {preset}: routability iterations ran but series `{series}` \
                 is empty"
            ),
            MatrixFailure::OrderingViolation {
                scenario,
                better,
                worse,
                better_drvs,
                worse_drvs,
                tolerance,
            } => write!(
                f,
                "[{scenario}] DRV ordering violated: {better} = {better_drvs:.1} > \
                 {worse} = {worse_drvs:.1} (tolerance {:.0} %)",
                tolerance * 100.0
            ),
        }
    }
}

/// Outcome of one preset on one scenario.
#[derive(Debug, Clone)]
pub struct PresetOutcome {
    /// The preset.
    pub preset: PlacerPreset,
    /// DRV proxy total from the fine-grid evaluation.
    pub drvs: f64,
    /// Final HPWL.
    pub hpwl: f64,
    /// Routability iterations executed.
    pub route_iterations: usize,
    /// Degraded-mode warnings the flow emitted.
    pub warnings: usize,
}

/// Outcome of one scenario row.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Whether the ordering gate applied.
    pub ordering_gated: bool,
    /// Per-column results, in `[Xplace, XplaceRoute, Ours]` order (a
    /// column that errored is absent).
    pub presets: Vec<PresetOutcome>,
    /// Failures attributed to this scenario.
    pub failures: Vec<MatrixFailure>,
}

/// Result of [`run_matrix`].
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Per-scenario outcomes, in matrix order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl MatrixReport {
    /// All failures across the matrix, in scenario order.
    pub fn failures(&self) -> impl Iterator<Item = &MatrixFailure> {
        self.outcomes.iter().flat_map(|o| o.failures.iter())
    }

    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Plain-text summary table (one row per scenario × preset).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<14} {:>9} {:>12} {:>6} {:>5}  gate\n",
            "scenario", "preset", "drvs", "hpwl", "iters", "warn"
        ));
        for o in &self.outcomes {
            for p in &o.presets {
                out.push_str(&format!(
                    "{:<18} {:<14} {:>9.1} {:>12.0} {:>6} {:>5}  {}\n",
                    o.name,
                    preset_name(p.preset),
                    p.drvs,
                    p.hpwl,
                    p.route_iterations,
                    p.warnings,
                    if o.ordering_gated {
                        "ordering"
                    } else {
                        "survival"
                    }
                ));
            }
            for fail in &o.failures {
                out.push_str(&format!("  FAIL {fail}\n"));
            }
        }
        out
    }
}

fn preset_name(p: PlacerPreset) -> &'static str {
    match p {
        PlacerPreset::Xplace => "xplace",
        PlacerPreset::XplaceRoute => "xplace-route",
        PlacerPreset::Ours => "ours",
    }
}

/// Runs the scenario matrix and collects every named failure.
///
/// # Errors
///
/// Returns `Err` only for harness-level problems (an unknown class name
/// in the filter, or an unwritable run directory) — scenario failures are
/// reported in the [`MatrixReport`], not as `Err`.
pub fn run_matrix(cfg: &MatrixConfig) -> Result<MatrixReport, String> {
    let all = scenario_matrix();
    let selected: Vec<Scenario> = match &cfg.classes {
        None => all,
        Some(filter) => {
            let mut picked = Vec::new();
            for name in filter {
                let s = all
                    .iter()
                    .find(|s| s.name == name)
                    .ok_or_else(|| format!("unknown scenario class `{name}`"))?;
                picked.push(s.clone());
            }
            picked
        }
    };

    let mut outcomes = Vec::with_capacity(selected.len());
    for scenario in &selected {
        outcomes.push(run_scenario(scenario, cfg)?);
    }
    Ok(MatrixReport { outcomes })
}

fn run_scenario(scenario: &Scenario, cfg: &MatrixConfig) -> Result<ScenarioOutcome, String> {
    let mut failures = Vec::new();
    let design = scenario.build(cfg.scale);

    // Gate 1: LEF/DEF-lite round-trip identity.
    let files = write_lefdef(&design);
    match read_lefdef(&files) {
        Ok(back) => {
            let again = write_lefdef(&back);
            if again != files {
                failures.push(MatrixFailure::RoundTrip {
                    scenario: scenario.name.to_string(),
                    detail: "re-emitted LEF/DEF differs from the original emission".to_string(),
                });
            }
        }
        Err(e) => failures.push(MatrixFailure::RoundTrip {
            scenario: scenario.name.to_string(),
            detail: e.to_string(),
        }),
    }

    // Gates 2–3: the three preset columns, with telemetry checks.
    let mut presets = Vec::new();
    for preset in [
        PlacerPreset::Xplace,
        PlacerPreset::XplaceRoute,
        PlacerPreset::Ours,
    ] {
        let pname = preset_name(preset);
        let mut d = design.clone();
        let obs = Collector::enabled();
        let flow_cfg = match cfg.scale {
            Scale::Small => RoutabilityConfig::preset_fast(preset),
            Scale::Full => RoutabilityConfig::preset(preset),
        };
        let mut ctrl = FlowControl::default();
        ctrl.obs = obs.clone();
        let flow = match run_flow_with(&mut d, &flow_cfg, ctrl) {
            Ok(flow) => flow,
            Err(e) => {
                failures.push(MatrixFailure::FlowError {
                    scenario: scenario.name.to_string(),
                    preset: pname,
                    detail: e.to_string(),
                });
                continue;
            }
        };
        let eval = rdp_drc::evaluate(&d, &rdp_drc::EvalConfig::default());
        obs.gauge_set("eval_drvs", eval.drvs);
        obs.gauge_set("eval_drwl", eval.drwl);
        obs.gauge_set("eval_drvias", eval.drvias);

        // Telemetry must exist whenever the routability loop ran: an
        // empty frame buffer or series here is a recording bug upstream,
        // and silently accepting it would turn the matrix into a no-op.
        if flow.route_iterations > 0 {
            if obs.frame_count() == 0 {
                failures.push(MatrixFailure::EmptyCongestionFrames {
                    scenario: scenario.name.to_string(),
                    preset: pname,
                });
            }
            let model = rdp_report::RunModel::from_collector(&obs).map_err(|e| e.to_string())?;
            for series in ["hpwl", "route_overflow", "max_congestion"] {
                if model.series.get(series).is_none_or(|s| s.is_empty()) {
                    failures.push(MatrixFailure::EmptySeries {
                        scenario: scenario.name.to_string(),
                        preset: pname,
                        series,
                    });
                }
            }
        }

        if let Some(root) = &cfg.run_dir {
            rdp_serve::store::write_run_dir(&root.join(scenario.name).join(pname), &obs)
                .map_err(|e| e.to_string())?;
        }

        presets.push(PresetOutcome {
            preset,
            drvs: eval.drvs,
            hpwl: flow.hpwl,
            route_iterations: flow.route_iterations,
            warnings: flow.warnings.len(),
        });
    }

    // Gate 4: Table-1 DRV ordering, within the class tolerance.
    if scenario.ordering_gated {
        let drvs_of = |name: &str| {
            presets
                .iter()
                .find(|o| preset_name(o.preset) == name)
                .map(|o| o.drvs)
        };
        let pairs = [("ours", "xplace-route"), ("xplace-route", "xplace")];
        for (better, worse) in pairs {
            if let (Some(b), Some(w)) = (drvs_of(better), drvs_of(worse)) {
                if b > w * (1.0 + scenario.tolerance) + scenario.abs_slack {
                    failures.push(MatrixFailure::OrderingViolation {
                        scenario: scenario.name.to_string(),
                        better,
                        worse,
                        better_drvs: b,
                        worse_drvs: w,
                        tolerance: scenario.tolerance,
                    });
                }
            }
        }
    }

    Ok(ScenarioOutcome {
        name: scenario.name,
        ordering_gated: scenario.ordering_gated,
        presets,
        failures,
    })
}
