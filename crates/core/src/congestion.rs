//! The differentiable congestion field of Section II-B: the routing
//! utilization `Dmd/Cap` is used as the charge density of Poisson's
//! equation, giving a potential ψ_c and field E_c that the net-moving
//! machinery ([`crate::netmove`]) turns into cell gradients.

use rdp_db::{Design, GridSpec, Map2d, Point};
use rdp_guard::{HealthPolicy, RdpError, Stage};
use rdp_poisson::PoissonSolver;
use rdp_route::RouteResult;

/// Congestion potential/field over the G-cell grid.
#[derive(Debug, Clone)]
pub struct CongestionField {
    grid: GridSpec,
    /// Eq. (3) congestion map `max(Dmd/Cap − 1, 0)`.
    pub cmap: Map2d<f64>,
    /// Congestion potential ψ_c.
    pub psi: Map2d<f64>,
    /// Field x-component.
    pub ex: Map2d<f64>,
    /// Field y-component.
    pub ey: Map2d<f64>,
    /// Mean congestion C̄ over all G-cells (used by MCI and DPA).
    pub mean_congestion: f64,
}

impl CongestionField {
    /// Builds the field from a routing result on the design's G-cell grid.
    ///
    /// A grid mismatch is a typed [`RdpError::Config`], the router's
    /// congestion map is screened for NaN/Inf, and the solve runs through
    /// [`rdp_poisson::PoissonSolver::solve_checked`], which screens the
    /// charge density before solving. A pathological routing result
    /// (e.g. zero-capacity layers driving Eq. (3) to +∞, or their empty
    /// G-cells to a 0/0 charge) is therefore an error, which the guarded
    /// flow degrades to the RUDY fallback rather than poisoning the
    /// placement gradients.
    pub fn try_from_route(
        design: &Design,
        route: &RouteResult,
        health: &HealthPolicy,
    ) -> Result<Self, RdpError> {
        let grid = design.gcell_grid();
        if route.congestion.nx() != grid.nx() || route.congestion.ny() != grid.ny() {
            return Err(RdpError::Config {
                detail: format!(
                    "route congestion grid {}x{} does not match the design G-cell grid {}x{}",
                    route.congestion.nx(),
                    route.congestion.ny(),
                    grid.nx(),
                    grid.ny()
                ),
            });
        }
        health.check_map(Stage::Routing, "congestion map", None, &route.congestion)?;
        let charge = route.maps.charge_density();
        Self::from_charge(grid, route.congestion.clone(), &charge, health)
    }

    /// Builds the field from a **RUDY** estimate instead of a routed
    /// demand map — the bounding-box congestion model the paper argues
    /// against (Fig. 1(b)): every G-cell inside a net's box is charged
    /// whether or not the net's wire goes there. It is the router-vs-RUDY
    /// ablation's source ([`crate::DcSource::Rudy`]) and the guarded
    /// flow's degraded-mode fallback: RUDY clamps capacity away from zero,
    /// so this succeeds on designs whose routed congestion is unusable.
    ///
    /// The utilization charge is saturated at [`Self::RUDY_CHARGE_CEIL`]:
    /// a G-cell at 8× capacity is already maximally repulsive, and the
    /// near-zero-capacity ratios RUDY's clamp produces (∼10⁹) would
    /// otherwise drive the Poisson potential — and through it the DC
    /// gradients — far past what the placer can follow, turning a
    /// degraded run into a divergent one.
    pub fn try_from_rudy(design: &Design, health: &HealthPolicy) -> Result<Self, RdpError> {
        let grid = design.gcell_grid();
        let rudy = rdp_route::rudy_map(design, &grid);
        let caps = rdp_route::CapacityMaps::build(design);
        // RUDY is wirelength per unit area; convert to track units per
        // G-cell (wire crossing a G-cell consumes one track over its
        // extent) and ratio against the total capacity.
        let extent = 0.5 * (grid.bin_w() + grid.bin_h());
        let mut charge = Map2d::new(grid.nx(), grid.ny());
        let mut cmap = Map2d::new(grid.nx(), grid.ny());
        for iy in 0..grid.ny() {
            for ix in 0..grid.nx() {
                let demand_tracks = rudy[(ix, iy)] * grid.bin_area() / extent;
                let cap = caps.h[(ix, iy)] + caps.v[(ix, iy)];
                let ratio = (demand_tracks / cap.max(1e-9)).min(Self::RUDY_CHARGE_CEIL);
                charge[(ix, iy)] = ratio;
                cmap[(ix, iy)] = (ratio - 1.0).max(0.0);
            }
        }
        health.check_map(Stage::Routing, "RUDY congestion map", None, &cmap)?;
        Self::from_charge(grid, cmap, &charge, health)
    }

    /// Saturation ceiling for the RUDY utilization charge (see
    /// [`CongestionField::try_from_rudy`]). Healthy designs sit far below
    /// it, so saturation only engages on pathological capacity
    /// (zero-capacity layers, absurd demand).
    pub const RUDY_CHARGE_CEIL: f64 = 8.0;

    /// Builds a field from an explicit congestion map with the potential
    /// solved from that map directly (testing and what-if analyses; the
    /// production path is [`CongestionField::try_from_route`]).
    ///
    /// # Panics
    ///
    /// Panics if `cmap` does not match the design's G-cell grid or holds
    /// a non-finite value.
    pub fn synthetic(design: &Design, cmap: Map2d<f64>) -> Self {
        let grid = design.gcell_grid();
        assert_eq!(cmap.nx(), grid.nx());
        assert_eq!(cmap.ny(), grid.ny());
        let charge = cmap.clone();
        Self::from_charge(grid, cmap, &charge, &HealthPolicy::default())
            .expect("synthetic congestion map must be finite")
    }

    /// Solves Poisson's equation on the G-cell grid with `charge` as the
    /// charge density — through [`PoissonSolver::try_new`] and
    /// [`PoissonSolver::solve_checked`], so a degenerate grid or a
    /// non-finite ψ/E is a typed error — and packs the field around the
    /// Eq. (3) map `cmap`.
    fn from_charge(
        grid: GridSpec,
        cmap: Map2d<f64>,
        charge: &Map2d<f64>,
        health: &HealthPolicy,
    ) -> Result<Self, RdpError> {
        let solver = PoissonSolver::try_new(
            grid.nx(),
            grid.ny(),
            grid.region().width(),
            grid.region().height(),
        )?;
        let sol = solver.solve_checked(charge.as_slice(), health)?;
        let mean_congestion = cmap.mean();
        Ok(CongestionField {
            grid,
            cmap,
            psi: Map2d::from_vec(grid.nx(), grid.ny(), sol.psi),
            ex: Map2d::from_vec(grid.nx(), grid.ny(), sol.ex),
            ey: Map2d::from_vec(grid.nx(), grid.ny(), sol.ey),
            mean_congestion,
        })
    }

    /// The G-cell grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Eq. (3) congestion value of the G-cell containing `p`.
    pub fn congestion_at(&self, p: Point) -> f64 {
        let (ix, iy) = self.grid.bin_of(p);
        self.cmap[(ix, iy)]
    }

    /// Bilinearly interpolated congestion field `E_c` at `p`.
    pub fn field_at(&self, p: Point) -> Point {
        Point::new(
            self.grid.sample_bilinear(&self.ex, p),
            self.grid.sample_bilinear(&self.ey, p),
        )
    }

    /// Bilinearly interpolated congestion potential ψ_c at `p`.
    pub fn psi_at(&self, p: Point) -> f64 {
        self.grid.sample_bilinear(&self.psi, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, DesignBuilder, Rect, RoutingSpec};
    use rdp_route::GlobalRouter;

    /// Many parallel nets through the middle row create a congested
    /// horizontal stripe; the field must point away from it vertically.
    #[test]
    fn field_points_away_from_congested_stripe() {
        let mut b = DesignBuilder::new("c", Rect::new(0.0, 0.0, 64.0, 64.0));
        let mut pairs = Vec::new();
        for i in 0..30 {
            let y = 30.0 + (i % 4) as f64;
            let a = b.add_cell(Cell::std(format!("a{i}"), 1.0, 1.0), Point::new(2.0, y));
            let c = b.add_cell(Cell::std(format!("b{i}"), 1.0, 1.0), Point::new(62.0, y));
            pairs.push((a, c));
        }
        for (i, (a, c)) in pairs.iter().enumerate() {
            b.add_net(
                format!("n{i}"),
                vec![(*a, Point::default()), (*c, Point::default())],
            );
        }
        b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
        let d = b.build().unwrap();
        let route = GlobalRouter::default().route(&d);
        let field = CongestionField::try_from_route(&d, &route, &HealthPolicy::default()).unwrap();

        assert!(field.congestion_at(Point::new(32.0, 31.0)) > 0.0);
        assert!(field.cmap.as_slice().iter().any(|&c| c > 0.0));
        // Above the stripe the field pushes up, below it pushes down.
        assert!(field.field_at(Point::new(32.0, 50.0)).y > 0.0);
        assert!(field.field_at(Point::new(32.0, 12.0)).y < 0.0);
        // Potential peaks at the stripe.
        assert!(field.psi_at(Point::new(32.0, 31.0)) > field.psi_at(Point::new(32.0, 56.0)));
        assert!(field.mean_congestion >= 0.0);
    }

    /// With zero-capacity layers and no nets every G-cell's charge is
    /// 0/0 = NaN, while Eq. (3) reads 0 there (`f64::max` drops the NaN):
    /// the congestion map passes its check, and the charge must still be
    /// a typed non-finite error, which the flow degrades to RUDY.
    #[test]
    fn nan_charge_with_finite_congestion_is_a_typed_error() {
        let mut b = DesignBuilder::new("z", Rect::new(0.0, 0.0, 64.0, 64.0));
        b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(32.0, 32.0));
        b.routing(RoutingSpec::uniform(4, 0.0, 16, 16));
        let d = b.build().unwrap();
        let route = GlobalRouter::default().route(&d);
        assert!(route.congestion.as_slice().iter().all(|&c| c == 0.0));
        let err = CongestionField::try_from_route(&d, &route, &HealthPolicy::default())
            .expect_err("a NaN charge must not reach the solve");
        match err {
            RdpError::NonFinite {
                quantity, value, ..
            } => {
                assert_eq!(quantity, "charge density");
                assert!(value.is_nan(), "value {value}");
            }
            other => panic!("expected a non-finite charge error, got {other}"),
        }
    }

    /// The RUDY-based field charges the whole bounding box (the Fig. 1(b)
    /// overreach): for a single diagonal net, the box corners far from
    /// any plausible route still receive charge, whereas the routed field
    /// only charges cells on the chosen pattern.
    #[test]
    fn rudy_field_charges_the_whole_bounding_box() {
        let mut b = DesignBuilder::new("r", Rect::new(0.0, 0.0, 64.0, 64.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(6.0, 6.0));
        let c = b.add_cell(Cell::std("b", 1.0, 1.0), Point::new(58.0, 58.0));
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())]);
        b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
        let d = b.build().unwrap();

        let rudy_field = CongestionField::try_from_rudy(&d, &HealthPolicy::default()).unwrap();
        // RUDY deposits density over the whole box, including the
        // anti-diagonal corners.
        let corner = rdp_db::Point::new(6.0, 58.0);
        let grid = d.gcell_grid();
        let (ix, iy) = grid.bin_of(corner);
        let rudy_map = rdp_route::rudy_map(&d, &grid);
        assert!(rudy_map[(ix, iy)] > 0.0, "RUDY is zero at the corner");

        // Field is well-formed.
        assert!(rudy_field.mean_congestion >= 0.0);
        assert_eq!(rudy_field.cmap.nx(), 16);
        let p = rudy_field.field_at(Point::new(32.0, 32.0));
        assert!(p.x.is_finite() && p.y.is_finite());
    }
}
