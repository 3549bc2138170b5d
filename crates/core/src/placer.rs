//! The electrostatic global-placement engine.
//!
//! [`GpSession`] is one optimization session of the analytical model: the
//! WA wirelength term, the electro-density term, and (optionally) the
//! paper's routability extras — inflated areas, the DPA density addend,
//! and the net-moving congestion gradient with its λ₂ weight. The plain
//! wirelength-driven placer (the "Xplace" baseline of Table I) is
//! [`crate::run_flow`] with [`crate::PlacerPreset::Xplace`]: a session run
//! with no extras until the density overflow target is reached.

use rdp_db::{CellId, Design, Map2d, Point};
use rdp_guard::{HealthPolicy, RdpError, Stage};
use rdp_obs::Collector;

use crate::density::{DensityField, DensityModel};
use crate::nesterov::NesterovSolver;
use crate::wirelength::{WaModel, WaScratch};
use rdp_par::Pool;

/// Configuration of the global-placement engine.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// Target bin utilization for the overflow metric and stop criterion.
    pub target_density: f64,
    /// Hard iteration cap of the wirelength-driven phase.
    pub max_iters: usize,
    /// Stop when density overflow drops below this value.
    pub stop_overflow: f64,
    /// Base γ of the WA model, in units of mean bin extent.
    pub gamma_factor: f64,
    /// Multiplicative growth of the density weight λ₁ per iteration.
    pub lambda_growth: f64,
    /// Spread movable cells around the die center before optimizing
    /// (the ePlace/Xplace initialization). When false the current
    /// positions are used as the starting point.
    pub center_init: bool,
    /// Numerical-health monitor policy (sentinels + rollback budget).
    pub health: HealthPolicy,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            target_density: 0.9,
            max_iters: 500,
            stop_overflow: 0.08,
            gamma_factor: 0.5,
            lambda_growth: 1.05,
            center_init: true,
            health: HealthPolicy::default(),
        }
    }
}

/// Optional routability inputs for one optimization step (the Eq. (5)
/// extras).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepExtras<'a> {
    /// Per-cell area inflation ratios (MCI), indexed by cell id.
    pub inflation: Option<&'a [f64]>,
    /// Additive density map (DPA's `D^PG`).
    pub extra_density: Option<&'a Map2d<f64>>,
    /// Pre-computed congestion gradient per cell (Algorithm 2) and its
    /// weight λ₂.
    pub congestion_grad: Option<(&'a [Point], f64)>,
}

/// Result snapshot of a session step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Density overflow after the step.
    pub overflow: f64,
    /// Density penalty D(x, y) at the reference positions.
    pub density_penalty: f64,
    /// Current λ₁.
    pub lambda1: f64,
    /// γ used this step.
    pub gamma: f64,
}

/// Portable capture of a session's evolving optimizer state, taken with
/// [`GpSession::save_state`] and applied with [`GpSession::restore_state`].
/// Positions are in movable-cell order. Used both as the per-step
/// last-good state for divergence rollback and as part of the flow
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GpSnapshot {
    /// Committed positions of the movable cells (optimization order).
    pub positions: Vec<Point>,
    /// Density weight λ₁.
    pub lambda1: f64,
    /// Overflow at the most recent gradient evaluation.
    pub last_overflow: f64,
    /// Rollback γ boost (1.0 until a rollback re-tunes the session).
    pub gamma_boost: f64,
    /// Total Nesterov steps executed.
    pub steps_done: u64,
}

/// One live global-placement optimization session.
#[derive(Debug)]
pub struct GpSession {
    cfg: PlacerConfig,
    model: DensityModel,
    movable: Vec<CellId>,
    solver: NesterovSolver,
    lambda1: f64,
    base_gamma: f64,
    /// Multiplier on the base γ, raised by divergence rollbacks to smooth
    /// the WA model. 1.0 on healthy runs, so results are untouched.
    gamma_boost: f64,
    last_overflow: f64,
    /// Total steps executed (error/warning context).
    steps_done: u64,
    /// Stage label attached to health errors (the flow switches it to
    /// `Routability` for phase 2).
    stage: Stage,
    /// Full-design gradient scratch reused across iterations.
    full_grad: Vec<Point>,
    /// WA scratch reused across iterations: per-pin buffer plus the flat
    /// netlist view of the session's design.
    wa_scratch: WaScratch,
    /// Observability sink (disabled by default). Records spans and
    /// convergence telemetry only; nothing here is ever read back, so
    /// results are identical with tracing on or off.
    obs: Collector,
}

impl GpSession {
    /// Starts a session on the design. When `cfg.center_init` is set, the
    /// movable cells are gathered around the die center with a small
    /// deterministic jitter first.
    pub fn new(design: &mut Design, cfg: PlacerConfig) -> Self {
        let model = DensityModel::new(design);
        let movable: Vec<CellId> = design.movable_cells().collect();
        if cfg.center_init {
            let grid = model.grid();
            let c = design.die().center();
            let amp = 1.0 * (grid.bin_w() + grid.bin_h());
            for (k, &id) in movable.iter().enumerate() {
                // Deterministic jitter from a tiny splitmix-style hash.
                let h = splitmix(k as u64 ^ 0x9e37_79b9_7f4a_7c15);
                let jx = ((h & 0xffff) as f64 / 65535.0 - 0.5) * amp;
                let jy = (((h >> 16) & 0xffff) as f64 / 65535.0 - 0.5) * amp;
                design.set_pos(id, design.die().clamp_point(c.offset(jx, jy)));
            }
        }
        let mut session = GpSession::assemble(design, cfg, model, movable);

        // Initial λ₁ = ‖∇WA‖₁ / ‖∇D‖₁ (ePlace). The first gradient binds
        // the session's WA scratch (and its flat netlist view) to the
        // design; every later step reuses it.
        let field = session
            .model
            .compute(design, None, None, session.cfg.target_density);
        session.last_overflow = field.overflow;
        let (l1_w, l1_d) = session.gradient_l1_norms(design, &field, None);
        session.lambda1 = if l1_d > 1e-12 { l1_w / l1_d } else { 1.0 };
        session
    }

    /// Rebuilds a session around the design's **current** positions with
    /// explicit optimizer scalars — the checkpoint-resume constructor.
    /// Unlike [`GpSession::new`] it never re-initializes positions and
    /// never recomputes λ₁, so a resumed flow continues bit-for-bit where
    /// the checkpointed one left off.
    pub fn resume(
        design: &mut Design,
        cfg: PlacerConfig,
        snap: &GpSnapshot,
    ) -> Result<Self, RdpError> {
        let model = DensityModel::new(design);
        let movable: Vec<CellId> = design.movable_cells().collect();
        let mut session = GpSession::assemble(design, cfg, model, movable);
        session.restore_state(design, snap)?;
        Ok(session)
    }

    /// The construction [`GpSession::new`] and [`GpSession::resume`]
    /// share: the base γ and first step from the bin grid, and a Nesterov
    /// solver started at the movable cells' current positions. The
    /// optimizer scalars are a fresh session's; the callers set them.
    fn assemble(
        design: &Design,
        cfg: PlacerConfig,
        model: DensityModel,
        movable: Vec<CellId>,
    ) -> Self {
        let grid = model.grid();
        let base_gamma = cfg.gamma_factor * 0.5 * (grid.bin_w() + grid.bin_h());
        let first_step = grid.bin_w().min(grid.bin_h());
        let init: Vec<Point> = movable.iter().map(|&c| design.pos(c)).collect();
        GpSession {
            cfg,
            model,
            movable,
            solver: NesterovSolver::new(init, first_step),
            lambda1: 1.0,
            base_gamma,
            gamma_boost: 1.0,
            last_overflow: 0.0,
            steps_done: 0,
            stage: Stage::WirelengthGp,
            full_grad: vec![Point::default(); design.num_cells()],
            wa_scratch: WaScratch::new(),
            obs: Collector::disabled(),
        }
    }

    /// Attaches an observability collector to the session (and its density
    /// model): GP steps and the WA/density/Poisson kernels get spans, and
    /// per-step convergence gauges are recorded.
    pub fn set_obs(&mut self, obs: Collector) {
        self.model.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Captures the evolving optimizer state (positions + scalars).
    pub fn save_state(&self) -> GpSnapshot {
        let mut snap = GpSnapshot::default();
        self.save_state_into(&mut snap);
        snap
    }

    /// [`GpSession::save_state`] into an existing buffer — no allocation
    /// after the first call, cheap enough to run every step for the
    /// last-good rollback state.
    pub fn save_state_into(&self, snap: &mut GpSnapshot) {
        snap.positions.resize(self.movable.len(), Point::default());
        snap.positions.copy_from_slice(self.solver.positions());
        snap.lambda1 = self.lambda1;
        snap.last_overflow = self.last_overflow;
        snap.gamma_boost = self.gamma_boost;
        snap.steps_done = self.steps_done;
    }

    /// Restores a [`GpSession::save_state`] capture: positions are written
    /// back into the design, the Nesterov solver is rebuilt (momentum is
    /// deliberately discarded — the saved state is a restart point), and
    /// the optimizer scalars are reinstated.
    pub fn restore_state(
        &mut self,
        design: &mut Design,
        snap: &GpSnapshot,
    ) -> Result<(), RdpError> {
        if snap.positions.len() != self.movable.len() {
            return Err(RdpError::checkpoint(format!(
                "session snapshot has {} movable positions, design has {}",
                snap.positions.len(),
                self.movable.len()
            )));
        }
        for (k, &id) in self.movable.iter().enumerate() {
            design.set_pos(id, snap.positions[k]);
        }
        self.solver = NesterovSolver::new(snap.positions.clone(), self.solver.first_step_distance);
        self.lambda1 = snap.lambda1;
        self.last_overflow = snap.last_overflow;
        self.gamma_boost = snap.gamma_boost;
        self.steps_done = snap.steps_done;
        Ok(())
    }

    /// Re-tunes the model after a divergence rollback: boosts γ (smoother
    /// WA, tamer gradients) and damps λ₁ per the health policy.
    pub fn retune_after_rollback(&mut self) {
        self.gamma_boost *= self.cfg.health.gamma_boost_on_rollback;
        self.lambda1 *= self.cfg.health.lambda_damp_on_rollback;
    }

    /// Labels subsequent health errors with `stage` (the flow switches to
    /// [`Stage::Routability`] for phase 2).
    pub fn set_stage(&mut self, stage: Stage) {
        self.stage = stage;
    }

    /// Current rollback γ boost (1.0 when no rollback has occurred).
    pub fn gamma_boost(&self) -> f64 {
        self.gamma_boost
    }

    /// Fault-injection hook (robustness suite): poisons the solver's
    /// reference state with NaN so the next step fails exactly as a real
    /// numerical blow-up would.
    #[doc(hidden)]
    pub fn inject_nan_reference(&mut self) {
        self.solver.poison_reference();
    }

    /// The density model (shared bin grid).
    pub fn model(&self) -> &DensityModel {
        &self.model
    }

    /// Movable cell ids in optimization order.
    pub fn movable(&self) -> &[CellId] {
        &self.movable
    }

    /// Density overflow observed at the most recent gradient evaluation.
    pub fn overflow(&self) -> f64 {
        self.last_overflow
    }

    /// Current λ₁.
    pub fn lambda1(&self) -> f64 {
        self.lambda1
    }

    /// Restarts Nesterov momentum from the current positions (used at
    /// routability-iteration boundaries where the objective jumps).
    pub fn restart_momentum(&mut self) {
        self.solver.reset_momentum();
    }

    /// Re-balances λ₁ to `factor · ‖∇WA‖₁ / ‖∇D‖₁` at the current
    /// positions. The wirelength-driven phase grows λ₁ geometrically; by
    /// the routability phase the density term would otherwise dwarf the
    /// wirelength and congestion terms, so each routability iteration
    /// re-anchors it (with `factor` > 1 keeping density dominant enough
    /// to realize the inflation-driven spreading).
    pub fn rebalance_lambda1(
        &mut self,
        design: &Design,
        extras: &StepExtras<'_>,
        factor: f64,
    ) -> Result<(), RdpError> {
        let field = self.model.compute(
            design,
            extras.inflation,
            extras.extra_density,
            self.cfg.target_density,
        );
        let (l1_w, l1_d) = self.gradient_l1_norms(design, &field, extras.inflation);
        let it = Some(self.steps_done as usize);
        let health = &self.cfg.health;
        health.check_scalar(self.stage, "wirelength gradient norm", it, l1_w)?;
        health.check_scalar(self.stage, "density gradient norm", it, l1_d)?;
        if l1_d > 1e-12 {
            self.lambda1 = factor * l1_w / l1_d;
        }
        Ok(())
    }

    /// ‖∇WA‖₁ and ‖∇D‖₁ over the movable cells at the current positions,
    /// the ratio λ₁ is set from: the WA gradient at the session's current
    /// γ, and the density gradient of `field` at unit weight.
    ///
    /// ‖∇D‖₁ is ‖A·E‖₁, the norm of the descent direction the step
    /// follows, not of the exact gradient of the penalty D: ψ is sampled
    /// bilinearly while E is its spectral derivative, and cells are
    /// binned by area overlap (DESIGN.md §4).
    fn gradient_l1_norms(
        &mut self,
        design: &Design,
        field: &DensityField,
        inflation: Option<&[f64]>,
    ) -> (f64, f64) {
        let mut gw = vec![Point::default(); design.num_cells()];
        WaModel::new(self.wa_gamma()).accumulate_gradient_with(
            design,
            &mut gw,
            Pool::global(),
            &mut self.wa_scratch,
        );
        let mut gd = vec![Point::default(); design.num_cells()];
        self.model
            .accumulate_gradient(design, field, inflation, 1.0, &mut gd);
        let l1_w: f64 = self.movable.iter().map(|&c| l1(gw[c.index()])).sum();
        let l1_d: f64 = self.movable.iter().map(|&c| l1(gd[c.index()])).sum();
        (l1_w, l1_d)
    }

    /// γ of the WA model at the session's current overflow and rollback
    /// boost.
    fn wa_gamma(&self) -> f64 {
        self.gamma_boost * self.base_gamma * gamma_scale(self.last_overflow)
    }

    /// Runs one Nesterov step of problem (2)/(5) and writes the updated
    /// positions back into the design.
    ///
    /// With the health monitor enabled, the WA + density + congestion
    /// gradient, the density metrics, and the proposed positions are
    /// sentinel-checked; a trip returns a typed [`RdpError`] and leaves
    /// the design in an **undefined intermediate state** — callers must
    /// either roll back via [`GpSession::restore_state`] or abandon the
    /// session (the flow does the former).
    pub fn step(
        &mut self,
        design: &mut Design,
        extras: &StepExtras<'_>,
    ) -> Result<StepReport, RdpError> {
        let bounds = design.die().clamp_box();
        let gamma = self.wa_gamma();
        let wa = WaModel::new(gamma);
        let target = self.cfg.target_density;
        let health = self.cfg.health;
        let stage = self.stage;
        let iteration = Some(self.steps_done as usize);

        let mut overflow = self.last_overflow;
        let mut density_penalty = 0.0;
        let mut health_err: Option<RdpError> = None;
        let lambda1 = self.lambda1;
        let pool = Pool::global();
        let obs = self.obs.clone();
        let _step_span = obs.span("gp_step", "gp");
        let GpSession {
            model,
            movable,
            solver,
            full_grad,
            wa_scratch,
            ..
        } = self;

        solver.step(
            |v, g| {
                // A poisoned reference (NaN/Inf coordinate) would send the
                // density model indexing bins out of range; screen it
                // while scattering, before any physics runs. With the
                // check tripped the gradient stays zero and the error
                // surfaces after the solver update, which the caller then
                // rolls back.
                for (k, (&id, &p)) in movable.iter().zip(v).enumerate() {
                    if let Err(e) =
                        health.check_point(stage, "reference positions", iteration, k, p)
                    {
                        health_err = Some(e);
                        return;
                    }
                    design.set_pos(id, p);
                }
                let field: DensityField =
                    model.compute(design, extras.inflation, extras.extra_density, target);
                overflow = field.overflow;

                full_grad.iter_mut().for_each(|p| *p = Point::default());
                {
                    let _wa_span = obs.span("wa_grad", "gp");
                    wa.accumulate_gradient_with(design, full_grad, pool, wa_scratch);
                }
                {
                    let _dg_span = obs.span("density_grad", "gp");
                    density_penalty = model.accumulate_gradient(
                        design,
                        &field,
                        extras.inflation,
                        lambda1,
                        full_grad,
                    );
                }
                if let Some((cgrad, lambda2)) = extras.congestion_grad {
                    for &id in movable.iter() {
                        full_grad[id.index()].x += lambda2 * cgrad[id.index()].x;
                        full_grad[id.index()].y += lambda2 * cgrad[id.index()].y;
                    }
                }

                // The two scalars cover the field; the gather scans the
                // summed WA + density + congestion gradient as it goes.
                if let Err(e) = health
                    .check_scalar(stage, "density overflow", iteration, field.overflow)
                    .and_then(|_| {
                        health.check_scalar(stage, "density penalty", iteration, density_penalty)
                    })
                {
                    health_err = Some(e);
                }
                for (k, (&id, gk)) in movable.iter().zip(g.iter_mut()).enumerate() {
                    *gk = full_grad[id.index()];
                    if health_err.is_none() {
                        health_err = health
                            .check_point(stage, "objective gradient", iteration, k, *gk)
                            .err();
                    }
                }
            },
            |p| bounds.clamp_closed(p),
        );

        if let Some(e) = health_err {
            return Err(e);
        }
        // Commit the major solution, checking it on the way: this catches
        // step-length blow-ups that turn finite gradients into non-finite
        // proposals (projection keeps NaN as NaN).
        for (k, (&id, &p)) in self.movable.iter().zip(self.solver.positions()).enumerate() {
            self.cfg
                .health
                .check_point(stage, "cell positions", iteration, k, p)?;
            design.set_pos(id, p);
        }
        self.last_overflow = overflow;
        self.lambda1 *= self.cfg.lambda_growth;
        self.steps_done += 1;
        if obs.is_enabled() {
            obs.gauge_set("gamma", gamma);
            obs.gauge_set("lambda1", self.lambda1);
            obs.gauge_set("nesterov_alpha", self.solver.last_alpha());
            obs.series_push("gp_overflow", self.steps_done, overflow);
            obs.observe("gp_step_overflow", overflow);
        }
        Ok(StepReport {
            overflow,
            density_penalty,
            lambda1: self.lambda1,
            gamma,
        })
    }
}

/// γ annealing: large γ early (heavy smoothing) while overflow is high,
/// tightening toward the base value as the placement spreads.
fn gamma_scale(overflow: f64) -> f64 {
    1.0 + 9.0 * overflow.clamp(0.0, 1.0)
}

fn l1(p: Point) -> f64 {
    p.x.abs() + p.y.abs()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_flow, PlacerPreset, RoutabilityConfig};
    use rdp_gen::{generate, GenParams};

    fn small() -> Design {
        generate(
            "p",
            &GenParams {
                num_cells: 250,
                num_macros: 0,
                utilization: 0.55,
                io_terminals: 8,
                high_fanout_nets: 2,
                rail_pitch: 0.0,
                seed: 11,
                ..GenParams::default()
            },
        )
    }

    /// The Xplace preset of the flow (wirelength-driven GP only) spreads
    /// the cells below the overflow target within 300 steps, inside the
    /// die, at a small multiple of the compact tile placement's HPWL.
    #[test]
    fn xplace_placement_spreads_inside_the_die() {
        let mut d = small();
        let tile_hpwl = d.hpwl();
        let r = run_flow(&mut d, &RoutabilityConfig::preset(PlacerPreset::Xplace)).unwrap();
        assert!(
            r.gp_iterations <= 300 && r.density_overflow < 0.12,
            "overflow {} after {} iters",
            r.density_overflow,
            r.gp_iterations
        );
        assert!(
            r.hpwl < tile_hpwl * 3.0,
            "hpwl {} vs tile {tile_hpwl}",
            r.hpwl
        );
        let die = d.die();
        for c in d.movable_cells() {
            assert!(die.contains(d.pos(c)), "{c} at {} outside", d.pos(c));
        }
    }

    #[test]
    fn extras_congestion_gradient_shifts_cells() {
        let mut d = small();
        run_flow(&mut d, &RoutabilityConfig::preset(PlacerPreset::Xplace)).unwrap();
        // A uniform rightward descent-gradient (negative x) pushes cells
        // right when applied via extras.
        let mut session = GpSession::new(
            &mut d,
            PlacerConfig {
                center_init: false,
                ..PlacerConfig::default()
            },
        );
        let before: f64 = session.movable().iter().map(|&c| d.pos(c).x).sum::<f64>();
        let cgrad = vec![Point::new(-1.0, 0.0); d.num_cells()];
        let extras = StepExtras {
            congestion_grad: Some((&cgrad, 1e3)),
            ..Default::default()
        };
        for _ in 0..5 {
            session.step(&mut d, &extras).unwrap();
        }
        let after: f64 = session.movable().iter().map(|&c| d.pos(c).x).sum::<f64>();
        assert!(after > before, "after {after} !> before {before}");
    }

    #[test]
    fn rebalance_lambda1_scales_linearly_with_factor() {
        let mut d = small();
        let mut session = GpSession::new(&mut d, PlacerConfig::default());
        for _ in 0..10 {
            session.step(&mut d, &StepExtras::default()).unwrap();
        }
        session
            .rebalance_lambda1(&d, &StepExtras::default(), 1.0)
            .unwrap();
        let base = session.lambda1();
        assert!(base > 0.0 && base.is_finite());
        session
            .rebalance_lambda1(&d, &StepExtras::default(), 3.0)
            .unwrap();
        let tripled = session.lambda1();
        assert!(
            (tripled - 3.0 * base).abs() < 1e-9 * tripled,
            "{tripled} vs 3x{base}"
        );
    }

    #[test]
    fn gamma_scale_monotone() {
        assert!(gamma_scale(1.0) > gamma_scale(0.5));
        assert!(gamma_scale(0.5) > gamma_scale(0.0));
        assert_eq!(gamma_scale(0.0), 1.0);
        assert_eq!(gamma_scale(2.0), 10.0);
    }
}
