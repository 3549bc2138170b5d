//! The routability-driven global placement flow of Fig. 2.
//!
//! ```text
//!   PG-rail selection  →  wirelength-driven GP (Xplace)  →  loop {
//!       global route → congestion map
//!       momentum cell inflation (MCI)
//!       dynamic pin-accessibility density (DPA)
//!       congestion gradients for net moving (DC) + λ₂
//!       Nesterov steps on problem (5)
//!   } until C(x,y) stops decreasing or the iteration cap
//! ```
//!
//! The same entry point also runs the two baselines of Table I by
//! configuration: **Xplace** (no routability loop) and **Xplace-Route**
//! (monotone inflation + static PG density, no net moving).
//!
//! ## Robustness (rdp-guard)
//!
//! The flow is guarded end to end:
//!
//! - every Nesterov step runs NaN/Inf sentinels (see
//!   [`rdp_guard::HealthPolicy`]); a poisoned or diverging step is rolled
//!   back to the last good optimizer state with γ boosted and λ₁ damped,
//!   up to `max_rollbacks` times before a typed
//!   [`RdpError::Diverged`](rdp_guard::RdpError) is returned;
//! - an unusable router congestion map degrades to the RUDY estimate and
//!   a non-finite PG density skips the D^PG addend — both recorded as
//!   [`Warning`]s in the [`FlowReport`], never panics;
//! - [`run_flow_with`] can emit a [`FlowCheckpoint`] at the top of every
//!   routability iteration and resume from one bit-for-bit.

use std::time::Instant;

use rdp_db::{Design, Point};
use rdp_guard::{fnv1a64, HealthPolicy, RdpError, SnapshotReader, SnapshotWriter, Stage, Warning};
use rdp_obs::Collector;
use rdp_route::GlobalRouter;

use crate::congestion::CongestionField;
use crate::dpa::PgDensity;
use crate::inflate::{InflationPolicy, InflationSnapshot, InflationState};
use crate::netmove::{congestion_gradients, lambda2};
use crate::placer::{
    GpSession, GpSnapshot, PlacerConfig, StepExtras, STOP_OVERFLOW, TARGET_DENSITY,
};

/// Which congestion model feeds the differentiable congestion field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcSource {
    /// The paper: demand/capacity from the global router (Eq. (3)).
    Router,
    /// The RUDY bounding-box estimate the paper argues against
    /// (Fig. 1(b)) — kept for the router-vs-RUDY ablation.
    Rudy,
}

/// How the pin-accessibility density is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpaMode {
    /// Static pre-placement adjustment (the Xplace-Route baseline).
    Static,
    /// The paper's congestion-gated dynamic adjustment (Eqs. (13)–(15)).
    Dynamic,
}

/// Named placer presets corresponding to the columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacerPreset {
    /// Wirelength-driven placement only.
    Xplace,
    /// Monotone historical inflation + static PG density.
    XplaceRoute,
    /// The paper: momentum inflation + differentiable net moving + dynamic
    /// pin-accessibility density.
    Ours,
}

/// Full configuration of the routability-driven flow.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutabilityConfig {
    /// Global-placement engine options.
    pub gp: PlacerConfig,
    /// Cell inflation policy (MCI and its baselines).
    pub inflation: InflationPolicy,
    /// Enable the differentiable congestion / net-moving term (DC).
    pub enable_dc: bool,
    /// Pin-accessibility density mode, or `None` to disable.
    pub dpa: Option<DpaMode>,
    /// Maximum routability iterations (router invocations).
    pub max_route_iters: usize,
    /// Nesterov steps of problem (5) per routability iteration.
    pub gp_iters_per_route: usize,
    /// Stop after this many consecutive non-improving routability
    /// iterations (the "C(x,y) no longer decreases" rule).
    pub stop_patience: usize,
    /// Congestion model feeding the DC field (router per the paper, or
    /// RUDY for the ablation).
    pub dc_source: DcSource,
    /// λ₁ re-anchoring factor applied at each routability iteration
    /// (see [`GpSession::rebalance_lambda1`]).
    pub lambda1_rebalance: f64,
    /// Scale on the Eq. (10) congestion weight λ₂ (1.0 = the paper's
    /// formula; exposed for the ablation benches).
    pub lambda2_scale: f64,
}

impl RoutabilityConfig {
    /// The configuration used for a Table I column.
    pub fn preset(p: PlacerPreset) -> Self {
        let base = RoutabilityConfig {
            gp: PlacerConfig::default(),
            inflation: InflationPolicy::None,
            enable_dc: false,
            dpa: None,
            max_route_iters: 0,
            gp_iters_per_route: 24,
            stop_patience: 2,
            dc_source: DcSource::Router,
            lambda1_rebalance: 2.0,
            lambda2_scale: 1.0,
        };
        match p {
            PlacerPreset::Xplace => base,
            PlacerPreset::XplaceRoute => RoutabilityConfig {
                inflation: InflationPolicy::Monotone { beta: 0.6 },
                dpa: Some(DpaMode::Static),
                max_route_iters: 8,
                ..base
            },
            PlacerPreset::Ours => RoutabilityConfig {
                inflation: InflationPolicy::Momentum { alpha: 0.4 },
                enable_dc: true,
                dpa: Some(DpaMode::Dynamic),
                max_route_iters: 10,
                lambda2_scale: 0.5,
                ..base
            },
        }
    }

    /// A CI-sized variant of [`RoutabilityConfig::preset`]: the same
    /// technique mix with tighter iteration budgets, for the scenario
    /// matrix and other fast gates running many small instances.
    pub fn preset_fast(p: PlacerPreset) -> Self {
        let mut cfg = RoutabilityConfig::preset(p);
        cfg.gp.max_iters = cfg.gp.max_iters.min(220);
        cfg.gp_iters_per_route = 16;
        cfg.max_route_iters = match p {
            PlacerPreset::Xplace => 0,
            PlacerPreset::XplaceRoute => 4,
            PlacerPreset::Ours => 5,
        };
        cfg
    }

    /// FNV-1a hash of the configuration's `Debug` text, which prints
    /// every field and every float exactly. A [`FlowCheckpoint`] carries
    /// it, so a flow resumes only under the configuration that wrote it.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }
}

impl std::str::FromStr for PlacerPreset {
    type Err = String;

    /// Accepts the Table-1 column names as used by the CLI:
    /// `xplace`, `xplace-route` (or `xr`), and `ours`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "xplace" => Ok(PlacerPreset::Xplace),
            "xplace-route" | "xplace_route" | "xr" => Ok(PlacerPreset::XplaceRoute),
            "ours" => Ok(PlacerPreset::Ours),
            other => Err(format!(
                "unknown preset `{other}` (expected xplace, xplace-route, or ours)"
            )),
        }
    }
}

impl Default for RoutabilityConfig {
    fn default() -> Self {
        RoutabilityConfig::preset(PlacerPreset::Ours)
    }
}

/// One entry of the flow's stage log (for the Fig. 2 walk-through).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteIterLog {
    /// Routability iteration number (1-based).
    pub iter: usize,
    /// Total routing overflow after this iteration's routing.
    pub overflow: f64,
    /// Maximum Eq. (3) congestion.
    pub max_congestion: f64,
    /// Congestion penalty C(x, y) (0 when DC is disabled).
    pub c_penalty: f64,
    /// λ₂ used (0 when DC is disabled).
    pub lambda2: f64,
    /// Virtual cells created by net moving.
    pub virtual_cells: usize,
    /// HPWL after the placement steps of this iteration.
    pub hpwl: f64,
}

/// Result of [`run_flow`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Wall-clock placement time in seconds (the PT column of Table I).
    pub place_seconds: f64,
    /// Iterations of the wirelength-driven phase.
    pub gp_iterations: usize,
    /// Routability iterations executed.
    pub route_iterations: usize,
    /// Final HPWL of the global placement.
    pub hpwl: f64,
    /// Final density overflow.
    pub density_overflow: f64,
    /// Per-iteration log.
    pub log: Vec<RouteIterLog>,
    /// Final effective inflation ratios (present when an inflation policy
    /// ran); downstream legalization can preserve the congestion-driven
    /// spacing by legalizing with these as virtual widths.
    pub inflation_ratios: Option<Vec<f64>>,
    /// Degraded-mode events the flow worked around (RUDY fallback,
    /// skipped D^PG addend, divergence rollbacks).
    pub warnings: Vec<Warning>,
    /// Divergence rollbacks performed across both phases.
    pub rollbacks: usize,
    /// When the flow was resumed from a [`FlowCheckpoint`], the
    /// routability iteration it restarted at.
    pub resumed_from: Option<usize>,
}

impl std::fmt::Display for FlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "flow: {} wirelength iters + {} routability iters in {:.2}s",
            self.gp_iterations, self.route_iterations, self.place_seconds
        )?;
        writeln!(
            f,
            "  HPWL {:.0} um, density overflow {:.3}",
            self.hpwl, self.density_overflow
        )?;
        if let Some(last) = self.log.last() {
            write!(
                f,
                "  final routing overflow {:.1}, max congestion {:.2}, {} virtual cells",
                last.overflow, last.max_congestion, last.virtual_cells
            )?;
        } else {
            write!(f, "  (no routability iterations)")?;
        }
        if !self.warnings.is_empty() || self.rollbacks > 0 {
            write!(
                f,
                "\n  degraded: {} warning(s), {} rollback(s)",
                self.warnings.len(),
                self.rollbacks
            )?;
            for w in &self.warnings {
                write!(f, "\n    {w}")?;
            }
        }
        Ok(())
    }
}

/// Deterministic fault injected into [`run_flow_with`] by the robustness
/// suite. Each fault fires at most once.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowFault {
    /// Poison the Nesterov reference state with NaN right before GP step
    /// `gp_iter` of routability iteration `route_iter` (`route_iter == 0`
    /// targets the wirelength phase).
    NanReference {
        /// Routability iteration (0 = wirelength phase).
        route_iter: usize,
        /// GP step within that iteration.
        gp_iter: usize,
    },
    /// Poison the first net-moving congestion gradient at routability
    /// iteration `route_iter`.
    NanCongestionGrad {
        /// Routability iteration at which to poison the gradient.
        route_iter: usize,
    },
}

/// Checkpoint/resume and fault-injection hooks for [`run_flow_with`].
#[derive(Default)]
pub struct FlowControl<'a> {
    /// Resume from this checkpoint instead of running phase 1.
    pub resume: Option<FlowCheckpoint>,
    /// Called with a fresh checkpoint at the top of every routability
    /// iteration (before that iteration's routing).
    pub on_checkpoint: Option<&'a mut dyn FnMut(&FlowCheckpoint)>,
    /// Polled at the top of every routability iteration, right after
    /// `on_checkpoint`. Returning `Some(err)` aborts the flow with that
    /// error — the service layer uses this for deadlines, cancellation,
    /// and drain, so the last persisted checkpoint is at most one
    /// iteration stale when the flow stops.
    pub interrupt: Option<&'a mut dyn FnMut(usize) -> Option<RdpError>>,
    /// Deterministic one-shot fault injection (robustness suite).
    pub fault: Option<FlowFault>,
    /// Observability sink (disabled by default): every flow stage gets a
    /// span, per-iteration convergence series are recorded, and each
    /// [`Warning`]/rollback is mirrored as a structured event the moment
    /// it happens. The collector only records — timestamps never feed
    /// computation — so results are bitwise identical either way.
    pub obs: Collector,
}

/// Complete flow state captured at the top of a routability iteration.
///
/// A flow resumed from a checkpoint reproduces the uninterrupted run
/// bit-for-bit: the checkpoint lands exactly where
/// [`GpSession::restart_momentum`] resets the Nesterov momentum, so the
/// optimizer scalars plus positions are the whole state. Everything that
/// is *not* stored here (PG rails, base γ, first-step distance) is
/// recomputed deterministically from the design.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCheckpoint {
    /// [`RoutabilityConfig::fingerprint`] of the run that wrote it.
    pub config: u64,
    /// Routability iteration the resumed flow starts at (1-based).
    pub next_route_iter: usize,
    /// Wirelength-phase iterations already completed.
    pub gp_iterations: usize,
    /// All cell positions (fixed cells included) at checkpoint time.
    pub positions: Vec<Point>,
    /// Optimizer scalars + movable positions of the GP session.
    pub session: GpSnapshot,
    /// Inflation controller state (MCI momentum etc.).
    pub inflation: InflationSnapshot,
    /// Best stopping-rule score seen so far.
    pub best_penalty: f64,
    /// Consecutive non-improving iterations.
    pub stale: usize,
    /// Best-snapshot guard: (score, all-cell positions).
    pub best: Option<(f64, Vec<Point>)>,
    /// Per-iteration log accumulated so far.
    pub log: Vec<RouteIterLog>,
    /// Warnings accumulated so far.
    pub warnings: Vec<Warning>,
    /// Rollbacks performed so far.
    pub rollbacks: usize,
}

fn stage_code(s: Stage) -> u64 {
    match s {
        Stage::Parse => 0,
        Stage::Design => 1,
        Stage::WirelengthGp => 2,
        Stage::Routability => 3,
        Stage::Routing => 4,
        Stage::Poisson => 5,
        Stage::NetMoving => 6,
        Stage::Inflation => 7,
        Stage::Dpa => 8,
        Stage::Checkpoint => 9,
    }
}

fn stage_from_code(c: u64) -> Result<Stage, RdpError> {
    Ok(match c {
        0 => Stage::Parse,
        1 => Stage::Design,
        2 => Stage::WirelengthGp,
        3 => Stage::Routability,
        4 => Stage::Routing,
        5 => Stage::Poisson,
        6 => Stage::NetMoving,
        7 => Stage::Inflation,
        8 => Stage::Dpa,
        9 => Stage::Checkpoint,
        _ => return Err(RdpError::checkpoint(format!("unknown stage code {c}"))),
    })
}

impl FlowCheckpoint {
    /// Checkpoint format version. [`FlowCheckpoint::from_bytes`] reads
    /// this version only: a checkpoint written by a build with another
    /// version is a typed `Checkpoint` error, never a misread.
    pub const VERSION: u32 = 4;

    /// Fails with a typed `Checkpoint` error unless this checkpoint was
    /// written under the configuration whose fingerprint is `config`:
    /// resuming under other settings would silently run a hybrid flow.
    pub fn check_config(&self, config: u64) -> Result<(), RdpError> {
        if self.config == config {
            return Ok(());
        }
        Err(RdpError::checkpoint(format!(
            "checkpoint was written under configuration {:#018x}, this run's is {config:#018x}; \
             resume with the flags that wrote it",
            self.config
        )))
    }

    /// Serializes into the versioned, checksummed `RDPSNAP` binary format.
    /// All floats are stored bit-exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(Self::VERSION);
        w.put_u64(self.config);
        w.put_u64(self.next_route_iter as u64);
        w.put_u64(self.gp_iterations as u64);
        w.put_points(&self.positions);
        w.put_points(&self.session.positions);
        w.put_f64(self.session.lambda1);
        w.put_f64(self.session.last_overflow);
        w.put_f64(self.session.gamma_boost);
        w.put_u64(self.session.steps_done);
        w.put_f64s(&self.inflation.r);
        w.put_f64s(&self.inflation.effective);
        w.put_f64s(&self.inflation.delta_r);
        w.put_f64s(&self.inflation.c_prev);
        w.put_f64(self.inflation.mean_prev);
        w.put_u64(self.inflation.t);
        w.put_f64(self.best_penalty);
        w.put_u64(self.stale as u64);
        match &self.best {
            Some((score, positions)) => {
                w.put_u64(1);
                w.put_f64(*score);
                w.put_points(positions);
            }
            None => w.put_u64(0),
        }
        w.put_u64(self.log.len() as u64);
        for l in &self.log {
            w.put_u64(l.iter as u64);
            w.put_f64(l.overflow);
            w.put_f64(l.max_congestion);
            w.put_f64(l.c_penalty);
            w.put_f64(l.lambda2);
            w.put_u64(l.virtual_cells as u64);
            w.put_f64(l.hpwl);
        }
        w.put_u64(self.warnings.len() as u64);
        for warn in &self.warnings {
            w.put_u64(stage_code(warn.stage));
            w.put_u64(warn.iteration as u64);
            w.put_str(&warn.message);
        }
        w.put_u64(self.rollbacks as u64);
        w.finish()
    }

    /// Deserializes [`FlowCheckpoint::to_bytes`] output, validating magic,
    /// version, checksum, and exact length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RdpError> {
        let mut r = SnapshotReader::new(bytes, Self::VERSION)?;
        let config = r.take_u64()?;
        let next_route_iter = r.take_u64()? as usize;
        let gp_iterations = r.take_u64()? as usize;
        let positions = r.take_points()?;
        let session = GpSnapshot {
            positions: r.take_points()?,
            lambda1: r.take_f64()?,
            last_overflow: r.take_f64()?,
            gamma_boost: r.take_f64()?,
            steps_done: r.take_u64()?,
        };
        let inflation = InflationSnapshot {
            r: r.take_f64s()?,
            effective: r.take_f64s()?,
            delta_r: r.take_f64s()?,
            c_prev: r.take_f64s()?,
            mean_prev: r.take_f64()?,
            t: r.take_u64()?,
        };
        let best_penalty = r.take_f64()?;
        let stale = r.take_u64()? as usize;
        let best = match r.take_u64()? {
            0 => None,
            1 => Some((r.take_f64()?, r.take_points()?)),
            other => {
                return Err(RdpError::checkpoint(format!(
                    "invalid best-snapshot flag {other}"
                )))
            }
        };
        let n_log = r.take_u64()? as usize;
        if n_log > bytes.len() {
            return Err(RdpError::checkpoint(format!(
                "implausible log length {n_log}"
            )));
        }
        let mut log = Vec::with_capacity(n_log);
        for _ in 0..n_log {
            log.push(RouteIterLog {
                iter: r.take_u64()? as usize,
                overflow: r.take_f64()?,
                max_congestion: r.take_f64()?,
                c_penalty: r.take_f64()?,
                lambda2: r.take_f64()?,
                virtual_cells: r.take_u64()? as usize,
                hpwl: r.take_f64()?,
            });
        }
        let n_warn = r.take_u64()? as usize;
        if n_warn > bytes.len() {
            return Err(RdpError::checkpoint(format!(
                "implausible warning count {n_warn}"
            )));
        }
        let mut warnings = Vec::with_capacity(n_warn);
        for _ in 0..n_warn {
            let stage = stage_from_code(r.take_u64()?)?;
            let iteration = r.take_u64()? as usize;
            let message = r.take_str()?;
            warnings.push(Warning {
                stage,
                iteration,
                message,
            });
        }
        let rollbacks = r.take_u64()? as usize;
        r.finish()?;
        Ok(FlowCheckpoint {
            config,
            next_route_iter,
            gp_iterations,
            positions,
            session,
            inflation,
            best_penalty,
            stale,
            best,
            log,
            warnings,
            rollbacks,
        })
    }
}

/// Where the flow steps its GP session.
#[derive(Debug, Clone, Copy)]
enum Burst {
    /// Phase 1, problem (2): up to `max_iters` steps, stopping after
    /// step 20 once the density overflow is below [`STOP_OVERFLOW`].
    Wirelength { max_iters: usize },
    /// Routability iteration `t`, problem (5): `steps` steps.
    Routability { t: usize, steps: usize },
}

/// The flow's degraded-mode record — the warnings and rollbacks that the
/// report and every checkpoint carry — with the health policy, the
/// injected fault still to fire, and the trace each event is mirrored to.
struct Guard {
    health: HealthPolicy,
    obs: Collector,
    fault: Option<FlowFault>,
    warnings: Vec<Warning>,
    rollbacks: usize,
}

impl Guard {
    /// Records a degraded-mode warning in the report **and** mirrors it
    /// into the trace as a `guard_warning` instant at emission time
    /// (satisfying the report/trace parity contract — see
    /// `tests/obs_integration.rs`).
    fn warn(&mut self, w: Warning) {
        self.obs
            .instant("guard_warning", w.iteration as i64, w.to_string());
        self.obs.counter_add("guard_warnings", 1);
        self.warnings.push(w);
    }

    /// Consumes the injected fault if it is exactly `f` (each fault fires
    /// at most once).
    fn take_fault(&mut self, f: FlowFault) -> bool {
        let hit = self.fault == Some(f);
        if hit {
            self.fault = None;
        }
        hit
    }

    /// Runs one guarded burst of GP steps and returns how many steps it
    /// accepted and the γ of the last one (NaN when it accepted none).
    ///
    /// A step that trips a health sentinel or blows the density overflow
    /// up is rolled back to the last good optimizer state, the session is
    /// re-tuned (γ boosted, λ₁ damped) and the step is retried. Each
    /// rollback is counted, traced as a `rollback` instant and noted as a
    /// warning; once `max_rollbacks` are spent the burst fails with
    /// [`RdpError::Diverged`]. An injected [`FlowFault::NanReference`]
    /// fires here.
    fn burst(
        &mut self,
        burst: Burst,
        session: &mut GpSession,
        design: &mut Design,
        extras: &StepExtras<'_>,
    ) -> Result<(usize, f64), RdpError> {
        let (stage, route_iter, max_steps) = match burst {
            Burst::Wirelength { max_iters } => (Stage::WirelengthGp, 0, max_iters),
            Burst::Routability { t, steps } => (Stage::Routability, t, steps),
        };
        // Rollback target: the last optimizer state that passed the health
        // checks, re-captured into the same buffer after every accepted
        // step.
        let mut good = session.save_state();
        let mut k = 0usize;
        let mut last_gamma = f64::NAN;
        while k < max_steps {
            let fault = FlowFault::NanReference {
                route_iter,
                gp_iter: k,
            };
            if self.take_fault(fault) {
                session.inject_nan_reference();
            }
            match session.step(design, extras) {
                Ok(report) if !self.health.is_blowup(good.last_overflow, report.overflow) => {
                    last_gamma = report.gamma;
                    session.save_state_into(&mut good);
                    let stop = matches!(burst, Burst::Wirelength { .. })
                        && k >= 20
                        && report.overflow < STOP_OVERFLOW;
                    k += 1;
                    if stop {
                        break;
                    }
                }
                outcome => {
                    let detail = match outcome {
                        Err(e) => e.to_string(),
                        Ok(r) => format!("density overflow blew up to {:.3e}", r.overflow),
                    };
                    // The two phases label the burst step differently in
                    // their rollback messages.
                    let (routability, traced, noted) = match burst {
                        Burst::Wirelength { .. } => (false, "wirelength GP step", "step"),
                        Burst::Routability { .. } => (true, "GP step", "GP step"),
                    };
                    if self.rollbacks >= self.health.max_rollbacks {
                        // The failed step's session count: the counter the
                        // sentinel in `detail` prints.
                        return Err(RdpError::Diverged {
                            stage,
                            route_iter: routability.then_some(route_iter),
                            gp_step: good.steps_done as usize,
                            rollbacks: self.rollbacks,
                            detail,
                        });
                    }
                    session.restore_state(design, &good)?;
                    session.retune_after_rollback();
                    self.rollbacks += 1;
                    let at = route_iter as i64;
                    self.obs
                        .instant("rollback", at, format!("{traced} {k}: {detail}"));
                    self.obs.counter_add("rollbacks", 1);
                    let boost = session.gamma_boost();
                    let message =
                        format!("{noted} {k} rolled back ({detail}); γ ×{boost:.2}, λ₁ damped");
                    self.warn(Warning::new(stage, route_iter, message));
                }
            }
        }
        Ok((k, last_gamma))
    }
}

/// Runs the full global-placement flow on the design (Fig. 2), mutating
/// cell positions. Legalization/detailed placement and routing evaluation
/// live in `rdp-legal` / `rdp-drc`.
///
/// Numerical blow-ups roll back and re-tune automatically (up to
/// `cfg.gp.health.max_rollbacks`); unrecoverable divergence or invalid
/// configuration returns a typed [`RdpError`] instead of panicking.
pub fn run_flow(design: &mut Design, cfg: &RoutabilityConfig) -> Result<FlowReport, RdpError> {
    run_flow_with(design, cfg, FlowControl::default())
}

/// [`run_flow`] with checkpoint/resume and fault-injection hooks.
pub fn run_flow_with(
    design: &mut Design,
    cfg: &RoutabilityConfig,
    mut ctrl: FlowControl<'_>,
) -> Result<FlowReport, RdpError> {
    let t0 = Instant::now();
    let health = cfg.gp.health;
    let grid = design.gcell_grid();

    let config = cfg.fingerprint();
    let resume = ctrl.resume.take();
    if let Some(cp) = &resume {
        cp.check_config(config)?;
    }
    let resumed_from = resume.as_ref().map(|cp| cp.next_route_iter);
    let obs = ctrl.obs.clone();
    let mut guard = Guard {
        health,
        obs: obs.clone(),
        fault: ctrl.fault,
        warnings: Vec::new(),
        rollbacks: 0,
    };

    // Degraded mode: a design with no movable cells (all-fixed netlists
    // and similar adversarial inputs) has nothing to optimize. Report the
    // placement as-is with a warning instead of diverging or panicking on
    // the empty optimizer state.
    if design.movable_cells().next().is_none() {
        guard.warn(Warning::new(
            Stage::WirelengthGp,
            0,
            "no movable cells; skipping placement (degraded mode)",
        ));
        if obs.is_enabled() {
            obs.gauge_set("final_hpwl", design.hpwl());
            obs.gauge_set("final_density_overflow", 0.0);
        }
        return Ok(FlowReport {
            place_seconds: t0.elapsed().as_secs_f64(),
            gp_iterations: 0,
            route_iterations: 0,
            hpwl: design.hpwl(),
            density_overflow: 0.0,
            log: Vec::new(),
            inflation_ratios: None,
            warnings: guard.warnings,
            rollbacks: 0,
            resumed_from,
        });
    }

    // PG rail selection (before placement, Fig. 2 top). Rails and macro
    // outlines are fixed, so this is position-independent and recomputes
    // identically on resume. A non-finite track density (degenerate rail
    // geometry) skips the D^PG addend instead of poisoning the density.
    let pg = match cfg.dpa {
        Some(_) => {
            let degenerate_rail = design.rails().iter().any(|r| {
                !(r.rect.lo.x.is_finite()
                    && r.rect.lo.y.is_finite()
                    && r.rect.hi.x.is_finite()
                    && r.rect.hi.y.is_finite())
            });
            let derived = if degenerate_rail {
                Err(RdpError::non_finite(
                    Stage::Dpa,
                    "PG rail geometry",
                    None,
                    0,
                    f64::NAN,
                ))
            } else {
                let p = PgDensity::new(design, &grid);
                health
                    .check_map(Stage::Dpa, "PG track density", None, &p.density_map(None))
                    .map(|()| p)
            };
            match derived {
                Ok(p) => Some(p),
                Err(e) => {
                    if resume.is_none() {
                        let msg = format!("{e}; skipping the D^PG addend");
                        guard.warn(Warning::new(Stage::Dpa, 0, msg));
                    }
                    None
                }
            }
        }
        None => None,
    };
    let static_pg = match (cfg.dpa, &pg) {
        (Some(DpaMode::Static), Some(p)) => Some(p.density_map(None)),
        _ => None,
    };

    let mut inflation = InflationState::new(design.num_cells(), cfg.inflation);
    let gp_iterations;
    let mut log: Vec<RouteIterLog> = Vec::new();
    let mut best_penalty = f64::INFINITY;
    let mut stale = 0usize;
    let mut route_iterations = 0usize;
    let mut best_positions: Option<(f64, Vec<Point>)> = None;
    let start_iter;

    let mut session = match resume {
        Some(cp) => {
            if cp.positions.len() != design.num_cells() {
                return Err(RdpError::checkpoint(format!(
                    "checkpoint carries {} cell positions, design has {}",
                    cp.positions.len(),
                    design.num_cells()
                )));
            }
            design.set_positions(&cp.positions);
            let mut session = GpSession::resume(design, cfg.gp.clone(), &cp.session)?;
            session.set_obs(obs.clone());
            inflation.restore_state(&cp.inflation)?;
            gp_iterations = cp.gp_iterations;
            log = cp.log;
            best_penalty = cp.best_penalty;
            stale = cp.stale;
            best_positions = cp.best;
            route_iterations = cp.next_route_iter.saturating_sub(1);
            guard.warnings = cp.warnings;
            guard.rollbacks = cp.rollbacks;
            start_iter = cp.next_route_iter;
            session
        }
        None => {
            // Phase 1: wirelength-driven global placement, guarded.
            let _wl_span = obs.span("wirelength_gp", "flow");
            let mut session = GpSession::new(design, cfg.gp.clone());
            session.set_obs(obs.clone());
            let extras = StepExtras {
                extra_density: static_pg.as_ref(),
                ..Default::default()
            };
            let burst = Burst::Wirelength {
                max_iters: cfg.gp.max_iters,
            };
            (gp_iterations, _) = guard.burst(burst, &mut session, design, &extras)?;
            start_iter = 1;
            session
        }
    };

    // Phase 2: routability-driven iterations.
    session.set_stage(Stage::Routability);
    let router = GlobalRouter::default();
    // Best-so-far snapshot: the routability iterations can regress (or,
    // with aggressive settings, diverge), so the flow keeps the placement
    // with the lowest observed score and restores it at the end. Total
    // overflow alone would reward scattering (spreading cells thins the
    // per-G-cell demand while total wirelength explodes), so the score
    // adds the routed wirelength in G-cell pitches with a small weight.
    // Overlapped intermediate placements route deceptively well (stacked
    // cells make nets short), so the score also penalizes real-area
    // density overflow beyond what legalization absorbs cheaply.
    let pitch = 0.5 * (grid.bin_w() + grid.bin_h());
    let overflow_allowance = (1.5 * STOP_OVERFLOW).max(0.12);
    let snapshot_score = |route: &rdp_route::RouteResult, real_density_overflow: f64| {
        route.maps.total_overflow()
            + 0.02 * route.wirelength / pitch
            + 1e6 * (real_density_overflow - overflow_allowance).max(0.0)
    };
    let real_density_overflow = |session: &GpSession, design: &Design| {
        session
            .model()
            .compute(design, None, None, TARGET_DENSITY)
            .overflow
    };

    for t in start_iter..=cfg.max_route_iters {
        let _iter_span = obs.span_iter("route_iter", "flow", t as i64);
        if let Some(cb) = ctrl.on_checkpoint.as_mut() {
            let _cp_span = obs.span_iter("checkpoint", "flow", t as i64);
            obs.instant("checkpoint", t as i64, format!("routability iteration {t}"));
            let cp = FlowCheckpoint {
                config,
                next_route_iter: t,
                gp_iterations,
                positions: design.positions().to_vec(),
                session: session.save_state(),
                inflation: inflation.save_state(),
                best_penalty,
                stale,
                best: best_positions.clone(),
                log: log.clone(),
                warnings: guard.warnings.clone(),
                rollbacks: guard.rollbacks,
            };
            cb(&cp);
        }
        if let Some(poll) = ctrl.interrupt.as_mut() {
            if let Some(e) = poll(t) {
                return Err(e);
            }
        }

        let route = {
            let _route_span = obs.span_iter("route", "route", t as i64);
            router.route_obs(design, &obs)
        };
        let field = {
            let _field_span = obs.span_iter("congestion_field", "flow", t as i64);
            match cfg.dc_source {
                DcSource::Router => {
                    match CongestionField::try_from_route(design, &route, &health) {
                        Ok(f) => f,
                        Err(e) => {
                            // Degraded mode: an unusable routed congestion map
                            // (e.g. zero-capacity layers ⇒ Eq. (3) = +∞) falls
                            // back to the RUDY estimate, which clamps capacity.
                            let msg =
                                format!("router congestion unusable ({e}); falling back to RUDY");
                            guard.warn(Warning::new(Stage::Routing, t, msg));
                            CongestionField::try_from_rudy(design, &health)?
                        }
                    }
                }
                DcSource::Rudy => CongestionField::try_from_rudy(design, &health)?,
            }
        };
        // One density evaluation serves both the snapshot score and the
        // per-iteration frame capture, so traced runs perform exactly the
        // same arithmetic as untraced ones (frames only *read* the field).
        let dens = session.model().compute(design, None, None, TARGET_DENSITY);
        if obs.is_enabled() {
            obs.frame(
                "congestion",
                t as i64,
                route.congestion.nx(),
                route.congestion.ny(),
                route.congestion.as_slice(),
            );
            obs.frame(
                "density",
                t as i64,
                dens.density.nx(),
                dens.density.ny(),
                dens.density.as_slice(),
            );
        }
        let score_now = snapshot_score(&route, dens.overflow);
        if best_positions
            .as_ref()
            .map(|(s, _)| score_now < *s)
            .unwrap_or(true)
        {
            best_positions = Some((score_now, design.positions().to_vec()));
        }

        // MCI.
        {
            let _mci_span = obs.span_iter("mci_update", "flow", t as i64);
            inflation.update(design, &field);
        }
        let ratios = match cfg.inflation {
            InflationPolicy::None => None,
            _ => Some(inflation.ratios()),
        };

        // DPA.
        let pg_map = {
            let _dpa_span = obs.span_iter("dpa_density", "flow", t as i64);
            match (cfg.dpa, &pg) {
                (Some(DpaMode::Dynamic), Some(p)) => {
                    let m = p.density_map(Some(&field));
                    match health.check_map(Stage::Dpa, "dynamic PG density", Some(t), &m) {
                        Ok(()) => Some(m),
                        Err(e) => {
                            let msg = format!("{e}; skipping the D^PG addend this iteration");
                            guard.warn(Warning::new(Stage::Dpa, t, msg));
                            None
                        }
                    }
                }
                (Some(DpaMode::Static), _) => static_pg.clone(),
                _ => None,
            }
        };

        // DC: net-moving congestion gradients + λ₂. A non-finite gradient
        // skips net moving for this iteration (degraded mode) rather than
        // feeding NaN into the optimizer.
        let (cgrad, l2, c_penalty, virtual_cells) = if cfg.enable_dc {
            let _nm_span = obs.span_iter("netmove", "flow", t as i64);
            let mut g = congestion_gradients(design, &field);
            if guard.take_fault(FlowFault::NanCongestionGrad { route_iter: t }) {
                if let Some(p) = g.grad.first_mut() {
                    p.x = f64::NAN;
                }
            }
            match health.check_points(Stage::NetMoving, "congestion gradient", Some(t), &g.grad) {
                Err(e) => {
                    let msg = format!("{e}; skipping net moving this iteration");
                    guard.warn(Warning::new(Stage::NetMoving, t, msg));
                    (None, 0.0, 0.0, 0)
                }
                Ok(()) => {
                    let l2 = cfg.lambda2_scale * lambda2(design, &field, &g);
                    if l2.is_finite() {
                        if obs.is_enabled() {
                            // Net-moving displacement pressure: L1 norm of
                            // the congestion gradient over all cells.
                            let grad_l1: f64 = g.grad.iter().map(|p| p.x.abs() + p.y.abs()).sum();
                            obs.series_push("netmove_grad_l1", t as u64, grad_l1);
                        }
                        let pen = g.penalty;
                        let vc = g.virtual_cells;
                        (Some(g), l2, pen, vc)
                    } else {
                        let msg =
                            format!("λ₂ evaluated to {l2}; skipping net moving this iteration");
                        guard.warn(Warning::new(Stage::NetMoving, t, msg));
                        (None, 0.0, 0.0, 0)
                    }
                }
            }
        } else {
            (None, 0.0, 0.0, 0)
        };

        // Solve problem (5) for a burst of Nesterov steps, re-anchoring
        // the density weight so wirelength stays in the objective.
        let burst_span = obs.span_iter("gp_burst", "gp", t as i64);
        session.restart_momentum();
        let extras = StepExtras {
            inflation: ratios,
            extra_density: pg_map.as_ref(),
            congestion_grad: cgrad.as_ref().map(|g| (g.grad.as_slice(), l2)),
        };
        session.rebalance_lambda1(design, &extras, cfg.lambda1_rebalance)?;
        let burst = Burst::Routability {
            t,
            steps: cfg.gp_iters_per_route,
        };
        let (_, last_gamma) = guard.burst(burst, &mut session, design, &extras)?;
        drop(burst_span);

        route_iterations = t;
        let hpwl_now = design.hpwl();
        let iter_overflow = route.maps.total_overflow();
        log.push(RouteIterLog {
            iter: t,
            overflow: iter_overflow,
            max_congestion: route.max_congestion(),
            c_penalty,
            lambda2: l2,
            virtual_cells,
            hpwl: hpwl_now,
        });
        if obs.is_enabled() {
            // Per-iteration convergence telemetry (recorded, never read).
            let step = t as u64;
            obs.series_push("hpwl", step, hpwl_now);
            obs.series_push("route_overflow", step, iter_overflow);
            obs.series_push("max_congestion", step, route.max_congestion());
            obs.series_push(
                "overflowed_gcells",
                step,
                route.maps.overflowed_gcells() as f64,
            );
            obs.series_push("c_penalty", step, c_penalty);
            obs.series_push("lambda2", step, l2);
            obs.series_push("virtual_cells", step, virtual_cells as f64);
            obs.series_push("density_overflow", step, session.overflow());
            obs.series_push("lambda1", step, session.lambda1());
            if last_gamma.is_finite() {
                obs.series_push("gamma", step, last_gamma);
            }
            if let Some(r) = ratios {
                obs.series_push("inflation_total", step, r.iter().sum::<f64>());
            }
        }

        // Stop when the congestion objective no longer decreases
        // (C(x, y) when DC is active; routing overflow otherwise).
        let score = if cfg.enable_dc {
            c_penalty
        } else {
            iter_overflow
        };
        if score < best_penalty - 1e-9 {
            best_penalty = score;
            stale = 0;
        } else {
            stale += 1;
            if stale >= cfg.stop_patience {
                break;
            }
        }
    }

    // Score the final placement too, then restore the best snapshot.
    if cfg.max_route_iters > 0 {
        let _final_span = obs.span("final_route", "route");
        let final_score = snapshot_score(
            &router.route_obs(design, &obs),
            real_density_overflow(&session, design),
        );
        if let Some((best_score, positions)) = &best_positions {
            if *best_score < final_score {
                design.set_positions(positions);
            }
        }
    }

    let inflation_ratios = match cfg.inflation {
        InflationPolicy::None => None,
        _ if cfg.max_route_iters == 0 => None,
        _ => Some(inflation.ratios().to_vec()),
    };

    if obs.is_enabled() {
        obs.gauge_set("final_hpwl", design.hpwl());
        obs.gauge_set("final_density_overflow", session.overflow());
        obs.counter_add("gp_iterations", gp_iterations as u64);
        obs.counter_add("route_iterations", route_iterations as u64);
    }

    Ok(FlowReport {
        place_seconds: t0.elapsed().as_secs_f64(),
        gp_iterations,
        route_iterations,
        hpwl: design.hpwl(),
        density_overflow: session.overflow(),
        log,
        inflation_ratios,
        warnings: guard.warnings,
        rollbacks: guard.rollbacks,
        resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_gen::{generate, GenParams};

    fn congested_design(seed: u64) -> Design {
        generate(
            "flow",
            &GenParams {
                num_cells: 400,
                num_macros: 2,
                macro_fraction: 0.12,
                utilization: 0.6,
                congestion_margin: 0.8,
                io_terminals: 8,
                high_fanout_nets: 3,
                rail_pitch: 1.0,
                seed,
                ..GenParams::default()
            },
        )
    }

    #[test]
    fn xplace_preset_runs_no_routability_iters() {
        let mut d = congested_design(1);
        let r = run_flow(&mut d, &RoutabilityConfig::preset(PlacerPreset::Xplace)).unwrap();
        assert_eq!(r.route_iterations, 0);
        assert!(r.log.is_empty());
        assert!(r.gp_iterations > 20);
        assert!(r.hpwl > 0.0);
        assert!(r.warnings.is_empty());
        assert_eq!(r.rollbacks, 0);
        assert_eq!(r.resumed_from, None);
    }

    #[test]
    fn ours_preset_runs_and_logs() {
        let mut d = congested_design(2);
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        cfg.gp.max_iters = 120;
        cfg.max_route_iters = 4;
        cfg.gp_iters_per_route = 10;
        let r = run_flow(&mut d, &cfg).unwrap();
        assert!(r.route_iterations >= 1);
        assert_eq!(r.log.len(), r.route_iterations);
        // DC is active: λ₂ and virtual cells appear once congestion exists.
        let any_virtual = r.log.iter().any(|l| l.virtual_cells > 0);
        assert!(any_virtual, "log: {:?}", r.log);
        assert!(r.place_seconds > 0.0);
    }

    #[test]
    fn ours_reduces_routing_overflow_vs_xplace() {
        // The headline claim in miniature: the routability flow must not
        // route worse than the wirelength-only flow on a congested design.
        let mut d_x = congested_design(3);
        let mut d_o = congested_design(3);

        let mut xcfg = RoutabilityConfig::preset(PlacerPreset::Xplace);
        xcfg.gp.max_iters = 150;
        run_flow(&mut d_x, &xcfg).unwrap();

        let mut ocfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        ocfg.gp.max_iters = 150;
        ocfg.max_route_iters = 5;
        ocfg.gp_iters_per_route = 12;
        run_flow(&mut d_o, &ocfg).unwrap();

        let router = GlobalRouter::default();
        let over_x = router.route(&d_x).maps.total_overflow();
        let over_o = router.route(&d_o).maps.total_overflow();
        assert!(over_o <= over_x * 1.05, "ours {over_o} vs xplace {over_x}");
    }

    #[test]
    fn flow_is_deterministic() {
        let mut d1 = congested_design(4);
        let mut d2 = congested_design(4);
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        cfg.gp.max_iters = 80;
        cfg.max_route_iters = 2;
        cfg.gp_iters_per_route = 6;
        let r1 = run_flow(&mut d1, &cfg).unwrap();
        let r2 = run_flow(&mut d2, &cfg).unwrap();
        assert_eq!(d1.positions(), d2.positions());
        assert_eq!(r1.route_iterations, r2.route_iterations);
    }

    /// The health sentinels are on by default and must not perturb a
    /// healthy run: disabling them entirely yields bit-identical results.
    #[test]
    fn health_monitoring_does_not_change_healthy_runs() {
        let mut d1 = congested_design(4);
        let mut d2 = congested_design(4);
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        cfg.gp.max_iters = 60;
        cfg.max_route_iters = 2;
        cfg.gp_iters_per_route = 6;
        let r1 = run_flow(&mut d1, &cfg).unwrap();
        cfg.gp.health = rdp_guard::HealthPolicy::disabled();
        let r2 = run_flow(&mut d2, &cfg).unwrap();
        assert_eq!(d1.positions(), d2.positions());
        assert_eq!(r1.hpwl.to_bits(), r2.hpwl.to_bits());
        assert_eq!(r1.rollbacks, 0);
        assert!(r1.warnings.is_empty());
    }

    /// The best-snapshot guard: the final placement's routed overflow is
    /// never dramatically worse than the best iteration observed in the
    /// log (catches the divergence failure mode).
    #[test]
    fn snapshot_restore_bounds_final_overflow() {
        let mut d = congested_design(6);
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        cfg.gp.max_iters = 120;
        cfg.max_route_iters = 8;
        cfg.gp_iters_per_route = 16;
        cfg.stop_patience = 99; // never stop early: stress the guard
        let r = run_flow(&mut d, &cfg).unwrap();
        let best_logged = r
            .log
            .iter()
            .map(|l| l.overflow)
            .fold(f64::INFINITY, f64::min);
        let final_overflow = GlobalRouter::default().route(&d).maps.total_overflow();
        assert!(
            final_overflow <= best_logged * 1.5 + 10.0,
            "final {final_overflow} vs best logged {best_logged}"
        );
    }

    #[test]
    fn inflation_ratios_reported_only_with_inflation() {
        let mut d = congested_design(7);
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::XplaceRoute);
        cfg.gp.max_iters = 80;
        cfg.max_route_iters = 2;
        cfg.gp_iters_per_route = 6;
        let r = run_flow(&mut d, &cfg).unwrap();
        let ratios = r.inflation_ratios.expect("monotone inflation ran");
        assert_eq!(ratios.len(), d.num_cells());
        assert!(ratios.iter().all(|&x| x >= 0.9 && x <= 2.0));
    }

    #[test]
    fn flow_report_display_is_informative() {
        let mut d = congested_design(8);
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        cfg.gp.max_iters = 60;
        cfg.max_route_iters = 2;
        cfg.gp_iters_per_route = 4;
        let r = run_flow(&mut d, &cfg).unwrap();
        let shown = format!("{r}");
        assert!(shown.contains("routability iters"));
        assert!(shown.contains("HPWL"));
        assert!(shown.contains("virtual cells"));
    }

    #[test]
    fn presets_differ() {
        let x = RoutabilityConfig::preset(PlacerPreset::Xplace);
        let xr = RoutabilityConfig::preset(PlacerPreset::XplaceRoute);
        let ours = RoutabilityConfig::preset(PlacerPreset::Ours);
        assert_eq!(x.max_route_iters, 0);
        assert!(!xr.enable_dc && ours.enable_dc);
        assert_eq!(xr.dpa, Some(DpaMode::Static));
        assert_eq!(ours.dpa, Some(DpaMode::Dynamic));
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let cp = FlowCheckpoint {
            config: 0x0123_4567_89ab_cdef,
            next_route_iter: 3,
            gp_iterations: 42,
            positions: vec![Point::new(1.5, -2.25), Point::new(0.0, 7.0)],
            session: GpSnapshot {
                positions: vec![Point::new(1.5, -2.25)],
                lambda1: 0.125,
                last_overflow: 0.3,
                gamma_boost: 1.5,
                steps_done: 99,
            },
            inflation: InflationSnapshot {
                r: vec![1.0, 1.1],
                effective: vec![1.0, 1.05],
                delta_r: vec![0.0, 0.1],
                c_prev: vec![0.2, 0.0],
                mean_prev: 0.1,
                t: 2,
            },
            best_penalty: 12.5,
            stale: 1,
            best: Some((3.75, vec![Point::new(4.0, 4.0), Point::new(5.0, 5.0)])),
            log: vec![
                RouteIterLog {
                    iter: 1,
                    overflow: 10.0,
                    max_congestion: 1.5,
                    c_penalty: 0.4,
                    lambda2: 0.01,
                    virtual_cells: 7,
                    hpwl: 1234.5,
                },
                RouteIterLog {
                    iter: 2,
                    overflow: 9.0,
                    max_congestion: 1.25,
                    c_penalty: 0.35,
                    lambda2: 0.01,
                    virtual_cells: 5,
                    hpwl: 1230.0,
                },
            ],
            warnings: vec![Warning::new(Stage::Routing, 2, "fell back to RUDY")],
            rollbacks: 1,
        };
        let bytes = cp.to_bytes();
        let back = FlowCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn corrupted_checkpoint_is_a_typed_error() {
        let cp = FlowCheckpoint {
            config: RoutabilityConfig::default().fingerprint(),
            next_route_iter: 1,
            gp_iterations: 0,
            positions: vec![Point::new(1.0, 2.0)],
            session: GpSnapshot::default(),
            inflation: InflationSnapshot::default(),
            best_penalty: f64::INFINITY,
            stale: 0,
            best: None,
            log: Vec::new(),
            warnings: Vec::new(),
            rollbacks: 0,
        };
        let mut bytes = cp.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        let err = FlowCheckpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.stage(), Some(Stage::Checkpoint), "{err}");
        // Truncation is also caught.
        let cut = cp.to_bytes();
        let err2 = FlowCheckpoint::from_bytes(&cut[..cut.len() - 3]).unwrap_err();
        assert_eq!(err2.stage(), Some(Stage::Checkpoint), "{err2}");
    }

    /// Kill-and-resume: a flow checkpointed at a routability iteration and
    /// resumed in a fresh process state reproduces the uninterrupted run's
    /// final HPWL and overflow **bitwise**.
    #[test]
    fn resume_from_checkpoint_is_bitwise_identical() {
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        cfg.gp.max_iters = 60;
        cfg.max_route_iters = 3;
        cfg.gp_iters_per_route = 6;
        cfg.stop_patience = 99;

        // Uninterrupted run, capturing a checkpoint at iteration 2.
        let mut d_full = congested_design(11);
        let mut captured: Option<Vec<u8>> = None;
        let mut cb = |cp: &FlowCheckpoint| {
            if cp.next_route_iter == 2 {
                captured = Some(cp.to_bytes());
            }
        };
        let r_full = run_flow_with(
            &mut d_full,
            &cfg,
            FlowControl {
                on_checkpoint: Some(&mut cb),
                ..Default::default()
            },
        )
        .unwrap();
        let bytes = captured.expect("checkpoint at iteration 2");

        // "Killed" run: a fresh design resumed from the serialized bytes.
        let mut d_res = congested_design(11);
        let cp = FlowCheckpoint::from_bytes(&bytes).unwrap();
        let r_res = run_flow_with(
            &mut d_res,
            &cfg,
            FlowControl {
                resume: Some(cp),
                ..Default::default()
            },
        )
        .unwrap();

        assert_eq!(r_res.resumed_from, Some(2));
        assert_eq!(r_full.hpwl.to_bits(), r_res.hpwl.to_bits());
        assert_eq!(
            r_full.density_overflow.to_bits(),
            r_res.density_overflow.to_bits()
        );
        assert_eq!(d_full.positions(), d_res.positions());
        assert_eq!(r_full.route_iterations, r_res.route_iterations);
        assert_eq!(r_full.log, r_res.log);

        // Under a configuration one float away, the same checkpoint is a
        // typed error and the design is left untouched.
        let mut other = cfg.clone();
        other.lambda2_scale = f64::from_bits(cfg.lambda2_scale.to_bits() + 1);
        let mut d_other = congested_design(11);
        let err = run_flow_with(
            &mut d_other,
            &other,
            FlowControl {
                resume: Some(FlowCheckpoint::from_bytes(&bytes).unwrap()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.stage(), Some(Stage::Checkpoint), "{err}");
        assert_eq!(d_other.positions(), congested_design(11).positions());
    }

    /// A NaN injected mid-flow is caught by the sentinels, rolled back,
    /// and the flow still completes with a report (not a panic, not an
    /// error) while recording the rollback.
    #[test]
    fn injected_nan_rolls_back_and_completes() {
        let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
        cfg.gp.max_iters = 60;
        cfg.max_route_iters = 2;
        cfg.gp_iters_per_route = 6;
        let mut d = congested_design(12);
        let r = run_flow_with(
            &mut d,
            &cfg,
            FlowControl {
                fault: Some(FlowFault::NanReference {
                    route_iter: 1,
                    gp_iter: 2,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.rollbacks >= 1, "{r}");
        assert!(!r.warnings.is_empty());
        assert!(r.hpwl.is_finite());
        assert!(d
            .positions()
            .iter()
            .all(|p| p.x.is_finite() && p.y.is_finite()));
    }
}
