//! Net-moving congestion gradients — Algorithms 1 and 2 of the paper.
//!
//! The electric-field force of the congestion Poisson problem is not
//! applied to cells directly. Instead:
//!
//! * **Two-pin nets** (Algorithm 1): a *virtual cell* is created at the
//!   most congested point along the pin-to-pin segment (Eqs. (6)–(8)); its
//!   field gradient is projected onto the segment normal n̂ and distributed
//!   to the two endpoint cells with the `L/(2·d_iv)` lever-arm weighting
//!   of Eq. (9), so the whole net slides sideways out of the congested
//!   region.
//! * **Multi-pin cells** (Algorithm 2): cells with more pins than the
//!   design average sitting in G-cells with congestion above 0.7 receive
//!   the raw field gradient.
//!
//! All gradients use the descent convention (`position ← position −
//! η·grad` moves cells away from congestion), matching the wirelength and
//! density terms.

use std::collections::HashSet;

use rdp_db::{Design, NetId, Point};

use crate::congestion::CongestionField;

/// Lower bound on the pin-to-virtual-cell distance `d_iv` as a fraction
/// of the G-cell extent, guarding the `L/(2·d_iv)` lever arm.
const MIN_DISTANCE_FRACTION: f64 = 0.25;

/// Congestion above which a multi-pin cell receives the raw field
/// gradient (Algorithm 2, line 11).
const MULTI_PIN_THRESHOLD: f64 = 0.7;

/// Output of the congestion-gradient update (Algorithm 2 over all nets).
#[derive(Debug, Clone)]
pub struct CongestionGradients {
    /// Per-cell congestion gradient `CGrad`, indexed by cell id.
    pub grad: Vec<Point>,
    /// The congestion penalty `C(x, y) = ½·Σ_{i∈V'} Aᵢψᵢ` over the set V'
    /// of virtual cells and selected multi-pin cells.
    pub penalty: f64,
    /// Number of virtual cells created.
    pub virtual_cells: usize,
    /// Number of distinct multi-pin cells that received a field gradient.
    pub multi_pin_cells: usize,
}

/// Computes `CGrad` for every cell by traversing all nets (Algorithm 2).
pub fn congestion_gradients(design: &Design, field: &CongestionField) -> CongestionGradients {
    let mut grad = vec![Point::default(); design.num_cells()];
    let mut penalty = 0.0;
    let mut virtual_cells = 0usize;

    // Size of "a standard cell" for the virtual cell's charge: the mean
    // movable cell area.
    let (mut area_sum, mut n_mov) = (0.0, 0usize);
    for c in design.movable_cells() {
        area_sum += design.cell(c).area();
        n_mov += 1;
    }
    let std_area = if n_mov > 0 {
        area_sum / n_mov as f64
    } else {
        1.0
    };

    let n_bar = design.avg_pins_per_cell();
    let mut selected_multi: HashSet<u32> = HashSet::new();

    for ni in 0..design.num_nets() {
        let net_id = NetId::from_index(ni);
        let net = design.net(net_id);

        // Two-pin net: Algorithm 1.
        if net.is_two_pin() {
            if let Some(v) = two_pin_gradient(design, field, net_id, std_area) {
                if design.cell(v.cell1).is_movable() {
                    grad[v.cell1.index()].x += v.g1.x;
                    grad[v.cell1.index()].y += v.g1.y;
                }
                if design.cell(v.cell2).is_movable() {
                    grad[v.cell2.index()].x += v.g2.x;
                    grad[v.cell2.index()].y += v.g2.y;
                }
                penalty += std_area * field.psi_at(v.pos);
                virtual_cells += 1;
            }
        }

        // Multi-pin cell update (Algorithm 2, lines 7–15), superposed per
        // net occurrence.
        for &pid in &net.pins {
            let cid = design.pin(pid).cell;
            let cell = design.cell(cid);
            if !cell.is_movable() {
                continue;
            }
            let n_pins = design.pins_of_cell(cid).len() as f64;
            let pos = design.pos(cid);
            if n_pins > n_bar && field.congestion_at(pos) > MULTI_PIN_THRESHOLD {
                let e = field.field_at(pos);
                grad[cid.index()].x -= cell.area() * e.x;
                grad[cid.index()].y -= cell.area() * e.y;
                if selected_multi.insert(cid.0) {
                    penalty += cell.area() * field.psi_at(pos);
                }
            }
        }
    }

    CongestionGradients {
        grad,
        penalty: 0.5 * penalty,
        virtual_cells,
        multi_pin_cells: selected_multi.len(),
    }
}

/// Geometry of one two-pin-net virtual cell (exposed for the Fig. 3
/// demonstration binary).
#[derive(Debug, Clone, Copy)]
pub struct VirtualCellInfo {
    /// The endpoint cells.
    pub cell1: rdp_db::CellId,
    /// Second endpoint cell.
    pub cell2: rdp_db::CellId,
    /// Virtual cell position `(x_v, y_v)` (Eq. (8)).
    pub pos: Point,
    /// Raw field gradient `∇C_cv` at the virtual cell.
    pub grad_v: Point,
    /// Oriented unit normal n̂ of the segment.
    pub normal: Point,
    /// Projected gradient `∇C⊥`.
    pub proj: Point,
    /// Final gradient for cell 1 (Eq. (9)).
    pub g1: Point,
    /// Final gradient for cell 2.
    pub g2: Point,
}

/// Algorithm 1 for one two-pin net. Returns `None` when the net spans no
/// G-cell boundary (k = 0), has coincident pins, or sees a vanishing
/// field.
pub fn two_pin_gradient(
    design: &Design,
    field: &CongestionField,
    net: NetId,
    std_area: f64,
) -> Option<VirtualCellInfo> {
    let pins = &design.net(net).pins;
    if pins.len() != 2 {
        // Degenerate (single-pin) or multi-pin nets have no two-pin
        // decomposition here; treat like k = 0 instead of aborting.
        return None;
    }
    let p1 = design.pin_position(pins[0]);
    let p2 = design.pin_position(pins[1]);
    let c1 = design.pin(pins[0]).cell;
    let c2 = design.pin(pins[1]).cell;

    let grid = field.grid();
    let (lx, ly) = (grid.bin_w(), grid.bin_h());

    // Eq. (6): number of candidate points.
    let k = (((p1.x - p2.x).abs() / lx).floor() as usize)
        .max(((p1.y - p2.y).abs() / ly).floor() as usize);
    if k == 0 {
        return None;
    }

    // Eqs. (7)–(8): pick the candidate with maximum congestion.
    let dir = p2 - p1;
    let mut best = (f64::NEG_INFINITY, p1);
    for i in 1..=k {
        let t = i as f64 / (k + 1) as f64;
        let cand = p1 + dir.scale(t);
        let c = field.congestion_at(cand);
        if c > best.0 {
            best = (c, cand);
        }
    }
    let pos = best.1;

    // Line 3: field gradient of the virtual cell (descent convention).
    let e = field.field_at(pos);
    let grad_v = Point::new(-std_area * e.x, -std_area * e.y);
    if grad_v.norm() < 1e-15 {
        return None;
    }

    // Lines 4–5: segment length and oriented normal.
    let len = p1.distance(p2);
    let n = Point::new(-dir.y, dir.x).normalized()?;
    let normal = if n.dot(grad_v) >= 0.0 {
        n
    } else {
        n.scale(-1.0)
    };

    // Lines 6–9: project and distribute with the lever-arm weighting.
    let proj = normal.scale(grad_v.dot(normal));
    let d_min = MIN_DISTANCE_FRACTION * lx.max(ly);
    let d1 = p1.distance(pos).max(d_min);
    let d2 = p2.distance(pos).max(d_min);
    let g1 = proj.scale(len / (2.0 * d1));
    let g2 = proj.scale(len / (2.0 * d2));

    Some(VirtualCellInfo {
        cell1: c1,
        cell2: c2,
        pos,
        grad_v,
        normal,
        proj,
        g1,
        g2,
    })
}

/// The adaptive congestion weight λ₂ of Eq. (10):
/// `λ₂ = (2·N_C/N) · ‖∇W‖₁ / ‖∇C‖₁`, where `N_C` counts cells in
/// congested G-cells and `N` is the total cell count.
pub fn lambda2(design: &Design, field: &CongestionField, cgrad: &CongestionGradients) -> f64 {
    let n = design.num_cells().max(1);
    let mut n_c = 0usize;
    for i in 0..design.num_cells() {
        let pos = design.positions()[i];
        if field.congestion_at(pos) > 0.0 {
            n_c += 1;
        }
    }
    let wa = crate::wirelength::WaModel::new(field.grid().bin_w().max(1e-9));
    let mut gw = vec![Point::default(); design.num_cells()];
    wa.accumulate_gradient(design, &mut gw);
    let l1_w: f64 = gw.iter().map(|g| g.x.abs() + g.y.abs()).sum();
    let l1_c: f64 = cgrad.grad.iter().map(|g| g.x.abs() + g.y.abs()).sum();
    if l1_c < 1e-12 {
        return 0.0;
    }
    (2.0 * n_c as f64 / n as f64) * l1_w / l1_c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, DesignBuilder, Rect, RoutingSpec};
    use rdp_guard::HealthPolicy;
    use rdp_route::GlobalRouter;

    /// A design with a congested horizontal stripe in the middle and one
    /// horizontal two-pin net crossing it.
    fn stripe_design() -> Design {
        let mut b = DesignBuilder::new("s", Rect::new(0.0, 0.0, 64.0, 64.0));
        let mut pairs = Vec::new();
        for i in 0..40 {
            let y = 30.0 + (i % 4) as f64;
            let a = b.add_cell(Cell::std(format!("a{i}"), 1.0, 1.0), Point::new(2.0, y));
            let c = b.add_cell(Cell::std(format!("b{i}"), 1.0, 1.0), Point::new(62.0, y));
            pairs.push((a, c));
        }
        // The observed net: crosses the stripe but runs along it at y=31.
        let t1 = b.add_cell(Cell::std("t1", 1.0, 1.0), Point::new(10.0, 31.0));
        let t2 = b.add_cell(Cell::std("t2", 1.0, 1.0), Point::new(54.0, 31.0));
        for (i, (a, c)) in pairs.iter().enumerate() {
            b.add_net(
                format!("n{i}"),
                vec![(*a, Point::default()), (*c, Point::default())],
            );
        }
        b.add_net(
            "probe",
            vec![(t1, Point::default()), (t2, Point::default())],
        );
        b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
        b.build().unwrap()
    }

    fn field_of(d: &Design) -> CongestionField {
        let route = GlobalRouter::default().route(d);
        CongestionField::try_from_route(d, &route, &HealthPolicy::default()).unwrap()
    }

    #[test]
    fn virtual_cell_lands_in_congested_gcell() {
        let d = stripe_design();
        let f = field_of(&d);
        let probe = NetId::from_index(d.num_nets() - 1);
        let info = two_pin_gradient(&d, &f, probe, 1.0).expect("net spans many G-cells");
        // The stripe is at y≈30–34; candidates lie along y=31 so the
        // virtual cell must be in the stripe.
        assert!(info.pos.y > 28.0 && info.pos.y < 36.0, "{}", info.pos);
        assert!(f.congestion_at(info.pos) > 0.0);
    }

    #[test]
    fn normal_is_unit_perpendicular_and_acute_with_gradient() {
        let d = stripe_design();
        let f = field_of(&d);
        let probe = NetId::from_index(d.num_nets() - 1);
        let info = two_pin_gradient(&d, &f, probe, 1.0).unwrap();
        let dir = Point::new(1.0, 0.0); // probe net is horizontal
        assert!(
            info.normal.dot(dir).abs() < 1e-9,
            "normal not perpendicular"
        );
        assert!((info.normal.norm() - 1.0).abs() < 1e-12);
        assert!(info.normal.dot(info.grad_v) >= 0.0, "not acute");
        // Projection is parallel to the normal.
        let cross = info.proj.x * info.normal.y - info.proj.y * info.normal.x;
        assert!(cross.abs() < 1e-12);
    }

    #[test]
    fn descent_moves_net_away_from_stripe() {
        let d = stripe_design();
        let f = field_of(&d);
        let probe = NetId::from_index(d.num_nets() - 1);
        let info = two_pin_gradient(&d, &f, probe, 1.0).unwrap();
        // The probe net runs along the stripe center (y=31); the stripe
        // spans roughly y∈[30,34]. Descent −g moves both cells in the same
        // vertical direction, out of the stripe.
        assert!(info.g1.y.signum() == info.g2.y.signum());
        assert!(info.g1.y.abs() > 0.0);
        // Both endpoint gradients are parallel to ∇C⊥ (same direction).
        assert!(info.g1.dot(info.proj) > 0.0);
        assert!(info.g2.dot(info.proj) > 0.0);
    }

    #[test]
    fn closer_pin_gets_larger_gradient() {
        let mut b = DesignBuilder::new("s", Rect::new(0.0, 0.0, 64.0, 64.0));
        // Congestion generators.
        let mut pairs = Vec::new();
        for i in 0..40 {
            let y = 30.0 + (i % 4) as f64;
            let a = b.add_cell(Cell::std(format!("a{i}"), 1.0, 1.0), Point::new(2.0, y));
            let c = b.add_cell(Cell::std(format!("b{i}"), 1.0, 1.0), Point::new(62.0, y));
            pairs.push((a, c));
        }
        // Probe: diagonal net entering the stripe near its left pin.
        let t1 = b.add_cell(Cell::std("t1", 1.0, 1.0), Point::new(20.0, 36.0));
        let t2 = b.add_cell(Cell::std("t2", 1.0, 1.0), Point::new(60.0, 60.0));
        for (i, (a, c)) in pairs.iter().enumerate() {
            b.add_net(
                format!("n{i}"),
                vec![(*a, Point::default()), (*c, Point::default())],
            );
        }
        b.add_net(
            "probe",
            vec![(t1, Point::default()), (t2, Point::default())],
        );
        b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
        let d = b.build().unwrap();
        let f = field_of(&d);
        let probe = NetId::from_index(d.num_nets() - 1);
        let info = two_pin_gradient(&d, &f, probe, 1.0).unwrap();
        let d1 = Point::new(20.0, 36.0).distance(info.pos);
        let d2 = Point::new(60.0, 60.0).distance(info.pos);
        if d1 < d2 {
            assert!(info.g1.norm() > info.g2.norm());
        } else {
            assert!(info.g2.norm() > info.g1.norm());
        }
    }

    #[test]
    fn same_gcell_net_is_skipped() {
        let d = stripe_design();
        let f = field_of(&d);
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 64.0, 64.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(10.0, 10.0));
        let c = b.add_cell(Cell::std("b", 1.0, 1.0), Point::new(10.5, 10.5));
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())]);
        b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
        let tiny = b.build().unwrap();
        assert!(two_pin_gradient(&tiny, &f, NetId::from_index(0), 1.0).is_none());
    }

    #[test]
    fn gradients_accumulate_and_penalty_positive_in_congested_design() {
        let d = stripe_design();
        let f = field_of(&d);
        let out = congestion_gradients(&d, &f);
        assert!(out.virtual_cells > 0);
        let total: f64 = out.grad.iter().map(|g| g.norm()).sum();
        assert!(total > 0.0);
        // ψ is positive at the congested stripe where V' members sit.
        assert!(out.penalty != 0.0);
    }

    #[test]
    fn lambda2_scales_with_congested_fraction() {
        let d = stripe_design();
        let f = field_of(&d);
        let out = congestion_gradients(&d, &f);
        let l2 = lambda2(&d, &f, &out);
        assert!(l2 > 0.0, "lambda2 {l2}");
        assert!(l2.is_finite());
    }

    /// λ₂ follows Eq. (10) exactly: (2·N_C/N)·‖∇W‖₁/‖∇C‖₁.
    #[test]
    fn lambda2_matches_hand_computation() {
        let d = stripe_design();
        let f = field_of(&d);
        let out = congestion_gradients(&d, &f);
        let l2 = lambda2(&d, &f, &out);

        let n = d.num_cells();
        let n_c = (0..n)
            .filter(|&i| f.congestion_at(d.positions()[i]) > 0.0)
            .count();
        let wa = crate::wirelength::WaModel::new(f.grid().bin_w());
        let mut gw = vec![Point::default(); n];
        wa.accumulate_gradient(&d, &mut gw);
        let l1_w: f64 = gw.iter().map(|g| g.x.abs() + g.y.abs()).sum();
        let l1_c: f64 = out.grad.iter().map(|g| g.x.abs() + g.y.abs()).sum();
        let expect = 2.0 * n_c as f64 / n as f64 * l1_w / l1_c;
        assert!(
            (l2 - expect).abs() < 1e-9 * expect.max(1.0),
            "{l2} vs {expect}"
        );
    }

    /// The multi-pin condition needs BOTH pins > n̄ and C > threshold.
    #[test]
    fn multi_pin_selection_respects_both_conditions() {
        // Stripe congestion plus a 6-pin hub cell sitting inside the
        // stripe and a 6-pin hub in the quiet corner.
        let mut b = DesignBuilder::new("m", Rect::new(0.0, 0.0, 64.0, 64.0));
        let mut pairs = Vec::new();
        for i in 0..40 {
            let y = 30.0 + (i % 4) as f64;
            let a = b.add_cell(Cell::std(format!("a{i}"), 1.0, 1.0), Point::new(2.0, y));
            let c = b.add_cell(Cell::std(format!("b{i}"), 1.0, 1.0), Point::new(62.0, y));
            pairs.push((a, c));
        }
        let hub_hot = b.add_cell(Cell::std("hub_hot", 1.0, 1.0), Point::new(32.0, 31.0));
        let hub_cold = b.add_cell(Cell::std("hub_cold", 1.0, 1.0), Point::new(60.0, 4.0));
        for (i, (a, c)) in pairs.iter().enumerate() {
            b.add_net(
                format!("n{i}"),
                vec![(*a, Point::default()), (*c, Point::default())],
            );
        }
        for i in 0..6 {
            let (a, c) = pairs[i];
            b.add_net(
                format!("hh{i}"),
                vec![(hub_hot, Point::default()), (a, Point::default())],
            );
            b.add_net(
                format!("hc{i}"),
                vec![(hub_cold, Point::default()), (c, Point::default())],
            );
        }
        b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
        let d = b.build().unwrap();
        let f = field_of(&d);
        assert!(
            f.congestion_at(d.pos(hub_hot)) > MULTI_PIN_THRESHOLD,
            "test premise: hub_hot sits in heavy congestion ({})",
            f.congestion_at(d.pos(hub_hot))
        );
        assert!(f.congestion_at(d.pos(hub_cold)) < MULTI_PIN_THRESHOLD);

        let paper = congestion_gradients(&d, &f);
        // The hot hub qualifies (pins > n̄ AND C > 0.7); the cold hub has
        // the pins but not the congestion, so it receives no multi-pin
        // field gradient. (Stripe endpoint cells with hub nets may also
        // qualify — both conditions, so that is correct behavior.)
        assert!(paper.multi_pin_cells >= 1);
        assert!(paper.grad[hub_hot.index()].norm() > 0.0);
        // hub_cold gets no multi-pin term: its gradient is exactly what
        // the two-pin virtual-cell path of its own nets gives it, summed
        // in net order as `congestion_gradients` does (unit-area cells,
        // so the virtual cell's area is 1).
        let mut two_pin_only = Point::default();
        for ni in 0..d.num_nets() {
            if let Some(v) = two_pin_gradient(&d, &f, NetId::from_index(ni), 1.0) {
                for (cell, g) in [(v.cell1, v.g1), (v.cell2, v.g2)] {
                    if cell == hub_cold {
                        two_pin_only.x += g.x;
                        two_pin_only.y += g.y;
                    }
                }
            }
        }
        assert_eq!(paper.grad[hub_cold.index()], two_pin_only);
    }

    #[test]
    fn fixed_cells_receive_no_gradient() {
        let g = rdp_gen::generate(
            "x",
            &rdp_gen::GenParams {
                num_cells: 200,
                io_terminals: 8,
                seed: 3,
                ..rdp_gen::GenParams::default()
            },
        );
        let route = GlobalRouter::default().route(&g);
        let cf = CongestionField::try_from_route(&g, &route, &HealthPolicy::default()).unwrap();
        let cg = congestion_gradients(&g, &cf);
        for (i, _) in g.cells().iter().enumerate().filter(|(_, c)| c.fixed) {
            assert_eq!(cg.grad[i], Point::default());
        }
    }
}
