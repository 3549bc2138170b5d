//! # rdp — routability-driven global placement
//!
//! A from-scratch Rust reproduction of *“Differentiable Net-Moving and
//! Local Congestion Mitigation for Routability-Driven Global Placement”*
//! (DAC 2025), including every substrate the paper depends on:
//!
//! | crate | contents |
//! |---|---|
//! | [`db`] | design database: netlist, floorplan, grids, maps |
//! | [`gen`] | synthetic ISPD-2015-like benchmark suite |
//! | [`parse`] | LEF/DEF-lite reader/writer (reads its own dialect, not standard LEF/DEF) |
//! | [`par`] | zero-dependency deterministic scoped thread pool |
//! | [`poisson`] | FFT/DCT spectral Poisson solver (ePlace numerics) |
//! | [`route`] | congestion-aware L/Z pattern global router + RUDY |
//! | [`core`] | the paper: electrostatic GP, net moving (DC), momentum inflation (MCI), pin-accessibility density (DPA) |
//! | [`legal`] | Tetris + Abacus legalization, detailed placement |
//! | [`drc`] | fine-grid evaluation routing and the DRV proxy |
//! | [`serve`] | crash-safe placement service: durable job queue, kill-anywhere recovery, lifetime job counters |
//!
//! The most common flow is one call:
//!
//! ```no_run
//! use rdp::{place_and_evaluate, PlacerPreset};
//!
//! let mut design = rdp::gen::generate_named("fft_1").unwrap();
//! let report = place_and_evaluate(
//!     &mut design,
//!     &rdp::core::RoutabilityConfig::preset(PlacerPreset::Ours),
//!     &rdp::drc::EvalConfig::default(),
//! )
//! .expect("placement diverged beyond recovery");
//! println!(
//!     "DRWL {:.0} um, vias {:.0}, DRVs {:.0}",
//!     report.eval.drwl, report.eval.drvias, report.eval.drvs
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod render;

pub use rdp_core as core;
pub use rdp_db as db;
pub use rdp_drc as drc;
pub use rdp_gen as gen;
pub use rdp_legal as legal;
pub use rdp_obs as obs;
pub use rdp_par as par;
pub use rdp_parse as parse;
pub use rdp_poisson as poisson;
pub use rdp_report as report;
pub use rdp_route as route;
pub use rdp_serve as serve;

pub use rdp_core::{PlacerPreset, RoutabilityConfig};
pub use rdp_db::Design;
pub use rdp_drc::{EvalConfig, EvalReport};

/// Combined result of the end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Global-placement flow report (Fig. 2 stages).
    pub flow: rdp_core::FlowReport,
    /// Legalization statistics.
    pub legal: rdp_legal::LegalizeReport,
    /// HPWL improvement from detailed placement.
    pub detailed_gain: f64,
    /// Post-routing evaluation (the Table I columns).
    pub eval: EvalReport,
}

/// Runs the complete pipeline the paper evaluates with: global placement
/// (Fig. 2) → legalization → detailed placement → fine-grid routing and
/// the DRV proxy. `rdp flow`, the Table I/II harnesses and the benchmark
/// all run it.
///
/// Numerical blow-ups inside the flow roll back and re-tune
/// automatically; an `Err` means the run diverged beyond the health
/// policy's rollback budget (or the configuration was invalid) and the
/// design was left unplaced-by-this-call.
pub fn place_and_evaluate(
    design: &mut Design,
    cfg: &RoutabilityConfig,
    eval_cfg: &EvalConfig,
) -> Result<PipelineReport, rdp_core::RdpError> {
    place_and_evaluate_obs(design, cfg, eval_cfg, &rdp_obs::Collector::disabled())
}

/// [`place_and_evaluate`] with every pipeline stage traced on `obs`: the
/// flow's spans/series/warnings (via [`core::FlowControl`]), a
/// `"legalize"` and `"detailed_place"` span, and a `"drc_eval"` span
/// around the fine-grid evaluation. The collector only records;
/// placement results are bitwise identical with tracing on or off.
pub fn place_and_evaluate_obs(
    design: &mut Design,
    cfg: &RoutabilityConfig,
    eval_cfg: &EvalConfig,
    obs: &rdp_obs::Collector,
) -> Result<PipelineReport, rdp_core::RdpError> {
    let mut ctrl = rdp_core::FlowControl::default();
    ctrl.obs = obs.clone();
    let flow = rdp_core::run_flow_with(design, cfg, ctrl)?;
    let (legal, detailed_gain) = legalize_after_flow(design, &flow, obs);
    let eval = {
        let _span = obs.span("drc_eval", "eval");
        rdp_drc::evaluate(design, eval_cfg)
    };
    if obs.is_enabled() {
        obs.gauge_set("eval_drwl", eval.drwl);
        obs.gauge_set("eval_drvias", eval.drvias);
        obs.gauge_set("eval_drvs", eval.drvs);
    }
    Ok(PipelineReport {
        flow,
        legal,
        detailed_gain,
        eval,
    })
}

/// Legalizes and detail-places `design` after the flow that produced
/// `flow`, returning the legalization report and the detailed-placement
/// HPWL gain. When the flow ran with cell inflation, both steps use the
/// inflated **virtual widths** (width × √ratio) so the congestion-driven
/// spacing survives: the routability-driven LG/DP of the paper's Fig. 2.
pub fn legalize_after_flow(
    design: &mut Design,
    flow: &rdp_core::FlowReport,
    obs: &rdp_obs::Collector,
) -> (rdp_legal::LegalizeReport, f64) {
    let lcfg = rdp_legal::LegalizeConfig::default();
    let dcfg = rdp_legal::DetailedConfig::default();
    match &flow.inflation_ratios {
        Some(ratios) => {
            let widths: Vec<f64> = design
                .cells()
                .iter()
                .zip(ratios)
                .map(|(c, r)| c.w * r.max(1.0).sqrt())
                .collect();
            (
                rdp_legal::legalize_virtual_obs(design, &lcfg, &widths, obs),
                rdp_legal::detailed_place_virtual_obs(design, &dcfg, &widths, obs),
            )
        }
        None => (
            rdp_legal::legalize_obs(design, &lcfg, obs),
            rdp_legal::detailed_place_obs(design, &dcfg, obs),
        ),
    }
}
