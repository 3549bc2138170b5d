//! Nesterov accelerated gradient solver with Barzilai–Borwein step size —
//! the optimizer of ePlace, used for both the wirelength-driven model
//! (Eq. 2) and the routability-driven model (Eq. 5).

use rdp_db::Point;

/// Nesterov solver state over a vector of 2-D positions.
///
/// The caller supplies a gradient evaluator per step; the solver maintains
/// the major (`u`) and reference (`v`) sequences, the acceleration
/// parameter `a_k`, and a BB-estimated step length.
#[derive(Debug, Clone)]
pub struct NesterovSolver {
    u: Vec<Point>,
    v: Vec<Point>,
    prev_v: Vec<Point>,
    prev_grad: Vec<Point>,
    grad: Vec<Point>,
    a: f64,
    iter: usize,
    /// Step length α used by the most recent [`NesterovSolver::step`]
    /// (telemetry only — never read back into the update).
    last_alpha: f64,
    /// Reference length used for the first step: the first update moves
    /// the largest-gradient coordinate by exactly this distance.
    pub first_step_distance: f64,
}

impl NesterovSolver {
    /// Creates a solver starting from `init`.
    pub fn new(init: Vec<Point>, first_step_distance: f64) -> Self {
        let n = init.len();
        NesterovSolver {
            u: init.clone(),
            v: init,
            prev_v: vec![Point::default(); n],
            prev_grad: vec![Point::default(); n],
            grad: vec![Point::default(); n],
            a: 1.0,
            iter: 0,
            last_alpha: 0.0,
            first_step_distance,
        }
    }

    /// Current major solution `u_k`.
    pub fn positions(&self) -> &[Point] {
        &self.u
    }

    /// Reference solution `v_k` (where gradients are evaluated).
    pub fn reference(&self) -> &[Point] {
        &self.v
    }

    /// Iterations completed.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Step length α of the most recent step (0 before any step). Exposed
    /// for convergence telemetry; the solver never reads it back.
    pub fn last_alpha(&self) -> f64 {
        self.last_alpha
    }

    /// Re-seeds the momentum state (used when the objective changes
    /// discontinuously, e.g. on a new routability iteration with fresh
    /// inflation ratios).
    pub fn reset_momentum(&mut self) {
        self.a = 1.0;
        self.v.copy_from_slice(&self.u);
        self.iter = 0;
    }

    /// Fault-injection hook for the robustness suite: corrupts the first
    /// reference coordinate with NaN so the next gradient evaluation sees
    /// poisoned state, exactly as a numerical blow-up would produce.
    #[doc(hidden)]
    pub fn poison_reference(&mut self) {
        if let Some(p) = self.v.first_mut() {
            p.x = f64::NAN;
        }
    }

    /// One Nesterov iteration.
    ///
    /// `eval` receives the reference positions and must write the gradient
    /// into its second argument (pre-zeroed). `project` clamps a proposed
    /// position into the feasible region (the die).
    pub fn step(
        &mut self,
        mut eval: impl FnMut(&[Point], &mut [Point]),
        project: impl Fn(Point) -> Point,
    ) {
        for g in self.grad.iter_mut() {
            *g = Point::default();
        }
        eval(&self.v, &mut self.grad);

        // Step length.
        let alpha = if self.iter == 0 {
            let max_g = self
                .grad
                .iter()
                .map(|g| g.norm())
                .fold(0.0f64, f64::max)
                .max(1e-12);
            self.first_step_distance / max_g
        } else {
            let mut num = 0.0;
            let mut den = 0.0;
            for i in 0..self.v.len() {
                let dv = self.v[i] - self.prev_v[i];
                let dg = self.grad[i] - self.prev_grad[i];
                num += dv.dot(dv);
                den += dv.dot(dg);
            }
            // BB1 step; fall back to a tiny step when curvature vanishes
            // or is negative.
            if den.abs() > 1e-18 && num / den > 0.0 {
                num / den
            } else {
                let max_g = self
                    .grad
                    .iter()
                    .map(|g| g.norm())
                    .fold(0.0f64, f64::max)
                    .max(1e-12);
                self.first_step_distance / max_g
            }
        };

        // Acceleration.
        let a_next = (1.0 + (4.0 * self.a * self.a + 1.0).sqrt()) / 2.0;
        let coef = (self.a - 1.0) / a_next;
        // One pass per cell: u_{k+1} = P(v_k − α∇f(v_k)), the v_k save,
        // and v_{k+1} = P(u_{k+1} + coef·(u_{k+1} − u_k)). Each entry
        // reads only its own index before writing it, so `u` and `v` are
        // updated in place.
        let cells = self
            .u
            .iter_mut()
            .zip(self.v.iter_mut())
            .zip(self.prev_v.iter_mut())
            .zip(&self.grad);
        for (((u, v), prev_v), g) in cells {
            let u_next = project(*v - g.scale(alpha));
            *prev_v = *v;
            *v = project(u_next + (u_next - *u).scale(coef));
            *u = u_next;
        }
        // The next step zeroes `grad` before evaluating, so the old
        // `prev_grad` buffer can take its place.
        std::mem::swap(&mut self.prev_grad, &mut self.grad);
        self.a = a_next;
        self.iter += 1;
        self.last_alpha = alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_quadratic(targets: &[Point], init: Vec<Point>, iters: usize) -> Vec<Point> {
        let mut solver = NesterovSolver::new(init, 1.0);
        for _ in 0..iters {
            solver.step(
                |v, g| {
                    for i in 0..v.len() {
                        g[i] = (v[i] - targets[i]).scale(2.0);
                    }
                },
                |p| p,
            );
        }
        solver.positions().to_vec()
    }

    #[test]
    fn converges_on_quadratic() {
        let targets = vec![Point::new(3.0, -2.0), Point::new(-1.0, 5.0)];
        let init = vec![Point::new(10.0, 10.0), Point::new(-8.0, 0.0)];
        let out = run_quadratic(&targets, init, 60);
        for (p, t) in out.iter().zip(&targets) {
            assert!(p.distance(*t) < 1e-3, "{p} vs {t}");
        }
    }

    #[test]
    fn converges_on_anisotropic_quadratic() {
        // f = 10(x−1)² + 0.1(y−2)²: poorly conditioned.
        let mut solver = NesterovSolver::new(vec![Point::new(30.0, -10.0)], 1.0);
        for _ in 0..300 {
            solver.step(
                |v, g| {
                    g[0] = Point::new(20.0 * (v[0].x - 1.0), 0.2 * (v[0].y - 2.0));
                },
                |p| p,
            );
        }
        let p = solver.positions()[0];
        assert!((p.x - 1.0).abs() < 1e-2, "{p}");
        assert!((p.y - 2.0).abs() < 1e-2, "{p}");
    }

    #[test]
    fn projection_is_respected() {
        let mut solver = NesterovSolver::new(vec![Point::new(0.5, 0.5)], 1.0);
        let clamp = |p: Point| Point::new(p.x.clamp(0.0, 1.0), p.y.clamp(0.0, 1.0));
        for _ in 0..50 {
            // Pull hard toward (10, 10): must stay clamped at (1,1).
            solver.step(
                |v, g| {
                    g[0] = (v[0] - Point::new(10.0, 10.0)).scale(2.0);
                },
                clamp,
            );
            let p = solver.positions()[0];
            assert!(p.x <= 1.0 && p.y <= 1.0);
        }
        let p = solver.positions()[0];
        assert!((p.x - 1.0).abs() < 1e-9 && (p.y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn first_step_distance_controls_initial_move() {
        let mut solver = NesterovSolver::new(vec![Point::new(0.0, 0.0)], 2.5);
        solver.step(
            |_, g| {
                g[0] = Point::new(1.0, 0.0); // unit gradient
            },
            |p| p,
        );
        // u1 = v0 − α·g with α = 2.5 / max|g| = 2.5.
        assert!((solver.positions()[0].x + 2.5).abs() < 1e-12);
    }

    #[test]
    fn reset_momentum_restarts_acceleration() {
        let targets = vec![Point::new(1.0, 1.0)];
        let mut solver = NesterovSolver::new(vec![Point::new(0.0, 0.0)], 1.0);
        for _ in 0..5 {
            solver.step(
                |v, g| {
                    g[0] = (v[0] - targets[0]).scale(2.0);
                },
                |p| p,
            );
        }
        assert_eq!(solver.iterations(), 5);
        solver.reset_momentum();
        assert_eq!(solver.iterations(), 0);
        assert_eq!(solver.reference(), solver.positions());
    }
}
