//! Cell inflation for local routing congestion — the paper's
//! momentum-based technique (Eqs. (11)–(12)) plus the two prior-art
//! baselines it is compared against.

use rdp_db::Design;

use crate::congestion::CongestionField;

/// How inflation ratios react to congestion over the routability
/// iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InflationPolicy {
    /// No inflation (the plain wirelength-driven placer).
    None,
    /// Present-congestion-only (DREAMPlace/RePlAce style, refs [3, 5]):
    /// `r = 1 + β·C`. Cells deflate instantly when moved out of
    /// congestion, which lets them drift back.
    PresentOnly {
        /// Congestion-to-ratio gain β.
        beta: f64,
    },
    /// Monotone historical inflation (Xplace-Route style, paper ref.\[8\]):
    /// `r_t = r_{t−1} + β·C_t`, never decreasing — can over-inflate.
    Monotone {
        /// Congestion-to-ratio gain β.
        beta: f64,
    },
    /// The paper's momentum-based inflation with the deflation trigger of
    /// Eq. (12).
    Momentum {
        /// Momentum coefficient α (0.4 in the paper).
        alpha: f64,
    },
}

impl Default for InflationPolicy {
    fn default() -> Self {
        InflationPolicy::Momentum { alpha: 0.4 }
    }
}

/// Ratio clamp bounds (`r_min`, `r_max` of Eq. (11)) and the global area
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflationBounds {
    /// Lower clamp (0.9 in the paper — mild deflation is allowed).
    pub r_min: f64,
    /// Upper clamp (2.0 in the paper).
    pub r_max: f64,
    /// Maximum total inflated area as a fraction of the design's free
    /// area. When the per-cell ratios would exceed it, every cell's
    /// inflation *excess* `(r − 1)` is scaled down by a common factor.
    /// Without this budget, high-utilization designs become infeasible
    /// under inflation: the placer piles cells at the die boundary and
    /// legalization tears the placement apart.
    pub area_budget: f64,
}

impl Default for InflationBounds {
    fn default() -> Self {
        InflationBounds {
            r_min: 0.9,
            r_max: 2.0,
            area_budget: 0.92,
        }
    }
}

/// Portable capture of an [`InflationState`]'s evolving fields, used by
/// the flow checkpoint (`FlowCheckpoint`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InflationSnapshot {
    /// Raw policy ratios `r_i^t`.
    pub r: Vec<f64>,
    /// Budget-enforced effective ratios.
    pub effective: Vec<f64>,
    /// Momentum terms Δr.
    pub delta_r: Vec<f64>,
    /// Previous-iteration congestion per cell.
    pub c_prev: Vec<f64>,
    /// Previous-iteration mean congestion.
    pub mean_prev: f64,
    /// Inflation iterations performed.
    pub t: u64,
}

/// Per-cell inflation state across routability iterations.
#[derive(Debug, Clone)]
pub struct InflationState {
    policy: InflationPolicy,
    bounds: InflationBounds,
    r: Vec<f64>,
    effective: Vec<f64>,
    delta_r: Vec<f64>,
    c_prev: Vec<f64>,
    mean_prev: f64,
    t: usize,
}

impl InflationState {
    /// Creates the state for `num_cells` cells, all at ratio 1.
    pub fn new(num_cells: usize, policy: InflationPolicy, bounds: InflationBounds) -> Self {
        InflationState {
            policy,
            bounds,
            r: vec![1.0; num_cells],
            effective: vec![1.0; num_cells],
            delta_r: vec![0.0; num_cells],
            c_prev: vec![0.0; num_cells],
            mean_prev: 0.0,
            t: 0,
        }
    }

    /// Current **area** inflation ratios after budget enforcement,
    /// indexed by cell id.
    pub fn ratios(&self) -> &[f64] {
        &self.effective
    }

    /// Raw policy ratios before the area budget (the `r_i^t` of Eq. (11)).
    pub fn raw_ratios(&self) -> &[f64] {
        &self.r
    }

    /// Inflation iterations performed.
    pub fn iteration(&self) -> usize {
        self.t
    }

    /// Captures the full evolving state for a flow checkpoint. The policy
    /// and bounds are configuration, not state — the restoring side
    /// supplies them again via [`InflationState::new`].
    pub fn save_state(&self) -> InflationSnapshot {
        InflationSnapshot {
            r: self.r.clone(),
            effective: self.effective.clone(),
            delta_r: self.delta_r.clone(),
            c_prev: self.c_prev.clone(),
            mean_prev: self.mean_prev,
            t: self.t as u64,
        }
    }

    /// Restores a [`save_state`](InflationState::save_state) capture onto
    /// a freshly-constructed state with the same cell count.
    pub fn restore_state(&mut self, snap: &InflationSnapshot) -> Result<(), rdp_guard::RdpError> {
        let n = self.r.len();
        if snap.r.len() != n
            || snap.effective.len() != n
            || snap.delta_r.len() != n
            || snap.c_prev.len() != n
        {
            return Err(rdp_guard::RdpError::checkpoint(format!(
                "inflation snapshot covers {} cells, design has {n}",
                snap.r.len()
            )));
        }
        self.r.copy_from_slice(&snap.r);
        self.effective.copy_from_slice(&snap.effective);
        self.delta_r.copy_from_slice(&snap.delta_r);
        self.c_prev.copy_from_slice(&snap.c_prev);
        self.mean_prev = snap.mean_prev;
        self.t = snap.t as usize;
        Ok(())
    }

    /// Advances one inflation iteration using the congestion of each
    /// movable cell's G-cell (Eq. (11)); fixed cells keep ratio 1.
    pub fn update(&mut self, design: &Design, field: &CongestionField) {
        self.t += 1;
        let mean = field.mean_congestion;
        for cid in design.movable_cells() {
            let i = cid.index();
            // Saturate the congestion input: beyond 2x-over-capacity the
            // appropriate reaction is the same, and raw Eq. (3) values can
            // reach 3+ on stressed designs, which would slam ratios to
            // r_max in a single iteration and thrash the placement.
            let c = field.congestion_at(design.pos(cid)).min(1.0);
            match self.policy {
                InflationPolicy::None => {}
                InflationPolicy::PresentOnly { beta } => {
                    self.r[i] = (1.0 + beta * c).clamp(self.bounds.r_min, self.bounds.r_max);
                }
                InflationPolicy::Monotone { beta } => {
                    self.r[i] = (self.r[i] + beta * c).clamp(self.bounds.r_min, self.bounds.r_max);
                }
                InflationPolicy::Momentum { alpha } => {
                    let delta = if self.t == 1 {
                        // Δr¹ = C¹ (Eq. (11)).
                        c
                    } else {
                        // Eq. (12): δ = −|C_prev/C̄_prev − C/C̄| when the
                        // cell moved from an above-average-congestion
                        // G-cell to a below-average one, else δ = 1; the
                        // correction factor is s = δ·C. The C factor damps
                        // the (mean-normalized, hence large) deflation
                        // strength; a fully escaped cell (C = 0) keeps its
                        // size, and Δr decays by α so growth stops.
                        let delta_factor = if c < mean && self.c_prev[i] > self.mean_prev {
                            -(self.c_prev[i] / self.mean_prev.max(1e-12) - c / mean.max(1e-12))
                                .abs()
                        } else {
                            1.0
                        };
                        let s = delta_factor * c;
                        alpha * self.delta_r[i] + (1.0 - alpha) * s
                    };
                    self.delta_r[i] = delta;
                    self.r[i] = (self.r[i] + delta).clamp(self.bounds.r_min, self.bounds.r_max);
                }
            }
            self.c_prev[i] = c;
        }
        self.mean_prev = mean;

        // Enforce the global area budget on the effective ratios.
        self.effective.copy_from_slice(&self.r);
        let mut base = 0.0;
        let mut inflated = 0.0;
        for cid in design.movable_cells() {
            let a = design.cell(cid).area();
            base += a;
            inflated += a * self.r[cid.index()];
        }
        let budget = self.bounds.area_budget * design.free_area();
        if inflated > budget && inflated > base {
            let scale = ((budget - base) / (inflated - base)).clamp(0.0, 1.0);
            for cid in design.movable_cells() {
                let i = cid.index();
                if self.r[i] > 1.0 {
                    self.effective[i] = 1.0 + (self.r[i] - 1.0) * scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, CellId, DesignBuilder, Point, Rect, RoutingSpec};
    use rdp_guard::HealthPolicy;
    use rdp_route::GlobalRouter;

    /// Builds a design whose left half is congested and returns it with
    /// its congestion field.
    fn congested_design() -> (Design, CongestionField) {
        let mut b = DesignBuilder::new("i", Rect::new(0.0, 0.0, 64.0, 64.0));
        let mut pairs = Vec::new();
        for i in 0..40 {
            let y = 28.0 + (i % 8) as f64;
            let a = b.add_cell(Cell::std(format!("a{i}"), 1.0, 1.0), Point::new(2.0, y));
            let c = b.add_cell(Cell::std(format!("b{i}"), 1.0, 1.0), Point::new(30.0, y));
            pairs.push((a, c));
        }
        // A quiet cell far from congestion.
        let q = b.add_cell(Cell::std("quiet", 1.0, 1.0), Point::new(60.0, 4.0));
        let q2 = b.add_cell(Cell::std("quiet2", 1.0, 1.0), Point::new(58.0, 4.0));
        for (i, (a, c)) in pairs.iter().enumerate() {
            b.add_net(
                format!("n{i}"),
                vec![(*a, Point::default()), (*c, Point::default())],
            );
        }
        b.add_net("qn", vec![(q, Point::default()), (q2, Point::default())]);
        b.routing(RoutingSpec::uniform(4, 1.5, 16, 16));
        let d = b.build().unwrap();
        let route = GlobalRouter::default().route(&d);
        let f = CongestionField::try_from_route(&d, &route, &HealthPolicy::default()).unwrap();
        (d, f)
    }

    #[test]
    fn ratios_start_at_one_and_stay_bounded() {
        let (d, f) = congested_design();
        let mut st = InflationState::new(
            d.num_cells(),
            InflationPolicy::default(),
            InflationBounds::default(),
        );
        assert!(st.ratios().iter().all(|&r| r == 1.0));
        for _ in 0..10 {
            st.update(&d, &f);
            for &r in st.ratios() {
                assert!((0.9..=2.0).contains(&r), "ratio {r} out of bounds");
            }
        }
        assert_eq!(st.iteration(), 10);
    }

    #[test]
    fn congested_cells_inflate_quiet_cells_do_not() {
        let (d, f) = congested_design();
        let mut st = InflationState::new(
            d.num_cells(),
            InflationPolicy::default(),
            InflationBounds::default(),
        );
        for _ in 0..3 {
            st.update(&d, &f);
        }
        let congested_cell = d.find_cell("a0").unwrap();
        let quiet = d.find_cell("quiet").unwrap();
        if f.congestion_at(d.pos(congested_cell)) > 0.0 {
            assert!(st.ratios()[congested_cell.index()] > 1.0);
        }
        assert!((st.ratios()[quiet.index()] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn momentum_growth_stalls_for_fully_escaped_cell() {
        let (mut d, f) = congested_design();
        let mut st = InflationState::new(
            d.num_cells(),
            InflationPolicy::Momentum { alpha: 0.4 },
            InflationBounds::default(),
        );
        let victim = d.find_cell("a0").unwrap();
        st.update(&d, &f);
        let r_inflated = st.ratios()[victim.index()];
        assert!(
            r_inflated > 1.0,
            "victim should inflate first (C = {})",
            f.congestion_at(d.pos(victim))
        );
        // Teleport the cell into the quiet corner (C = 0): Δr decays by α
        // each iteration, so the total future growth is bounded by the
        // geometric tail Δr·α/(1−α).
        d.set_pos(victim, Point::new(60.0, 6.0));
        for _ in 0..8 {
            st.update(&d, &f);
        }
        let r_after = st.ratios()[victim.index()];
        let bound = r_inflated + (r_inflated - 1.0) * 0.4 / 0.6 + 1e-9;
        assert!(
            r_after <= bound,
            "growth did not stall: {r_after} > {bound}"
        );
    }

    /// True deflation per Eq. (12): a cell that moves from an
    /// above-average G-cell to a below-average but still nonzero one gets
    /// a negative correction.
    #[test]
    fn momentum_deflates_on_mild_congestion_after_escape() {
        use crate::congestion::CongestionField;
        use rdp_db::Map2d;

        let mut b = DesignBuilder::new("s", Rect::new(0.0, 0.0, 64.0, 64.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(2.0, 2.0));
        let c = b.add_cell(Cell::std("b", 1.0, 1.0), Point::new(62.0, 62.0));
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())]);
        b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
        let mut d = b.build().unwrap();

        // Congestion: hot G-cell (0,0) = 1.0; mild G-cell (15,15) = 0.05;
        // a band of 0.5s elsewhere keeps the mean above 0.05.
        // Hot cell C = 1.0 ≫ mean ≈ 0.104; mild cell C = 0.099 sits just
        // below the mean, where Eq. (12)'s normalized strength
        // |C_prev/C̄ − C/C̄| ≈ 8.7 is big enough for s = δ·C to overcome
        // the α·Δr momentum.
        let mut cmap = Map2d::new(16, 16);
        cmap[(0, 0)] = 1.0;
        cmap[(15, 15)] = 0.099;
        for iy in 8..11 {
            for ix in 0..16 {
                cmap[(ix, iy)] = 0.53;
            }
        }
        let f = CongestionField::synthetic(&d, cmap);
        assert!(f.mean_congestion > 0.099 && f.mean_congestion < 0.12);

        let mut st = InflationState::new(
            d.num_cells(),
            InflationPolicy::Momentum { alpha: 0.4 },
            InflationBounds::default(),
        );
        let victim = rdp_db::CellId(0);
        st.update(&d, &f); // inflates at C = 1.0
        let r_hot = st.ratios()[victim.index()];
        assert!(r_hot > 1.5);
        // Move to the mild cell: deflation branch fires and shrinks r.
        d.set_pos(victim, Point::new(62.0, 62.0));
        st.update(&d, &f);
        let r_mild = st.ratios()[victim.index()];
        assert!(r_mild < r_hot, "no deflation: {r_mild} !< {r_hot}");
    }

    #[test]
    fn present_only_forgets_history() {
        let (mut d, f) = congested_design();
        let mut st = InflationState::new(
            d.num_cells(),
            InflationPolicy::PresentOnly { beta: 1.0 },
            InflationBounds::default(),
        );
        let victim = d.find_cell("a0").unwrap();
        st.update(&d, &f);
        assert!(st.ratios()[victim.index()] > 1.0);
        d.set_pos(victim, Point::new(60.0, 6.0));
        st.update(&d, &f);
        // Fully reverts to 1: the failure mode the paper criticises.
        assert!((st.ratios()[victim.index()] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_never_deflates() {
        let (mut d, f) = congested_design();
        let mut st = InflationState::new(
            d.num_cells(),
            InflationPolicy::Monotone { beta: 0.6 },
            InflationBounds::default(),
        );
        let victim = d.find_cell("a0").unwrap();
        st.update(&d, &f);
        let r1 = st.ratios()[victim.index()];
        d.set_pos(victim, Point::new(60.0, 6.0));
        st.update(&d, &f);
        let r2 = st.ratios()[victim.index()];
        assert!(r2 >= r1, "monotone deflated: {r2} < {r1}");
    }

    #[test]
    fn none_policy_is_inert() {
        let (d, f) = congested_design();
        let mut st = InflationState::new(
            d.num_cells(),
            InflationPolicy::None,
            InflationBounds::default(),
        );
        for _ in 0..5 {
            st.update(&d, &f);
        }
        assert!(st.ratios().iter().all(|&r| r == 1.0));
        let _ = CellId(0);
    }
}
