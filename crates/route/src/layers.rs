//! Layer assignment: distributing the 2-D routed demand onto the actual
//! metal stack.
//!
//! The placement loop only needs the layer-summed maps of Eq. (3), but
//! the evaluation flow (and any downstream detailed-routing experiment)
//! wants per-layer utilization: macros block the lower layers, so the
//! same 2-D demand can be fine on an open G-cell and overflowing on a
//! blocked one. Demand is split across same-direction layers in
//! proportion to each layer's *remaining* capacity — the balanced
//! assignment a layer-aware router converges to — and via demand is
//! charged to every layer pair it crosses.

use rdp_db::{Design, Dir, GridSpec, Map2d};

use crate::capacity::MACRO_BLOCKED_LAYERS;
use crate::maps::RouteMaps;

/// Per-layer demand/capacity maps.
#[derive(Debug, Clone)]
pub struct LayerAssignment {
    /// Layer names, bottom-up (mirrors the design's stack).
    pub names: Vec<String>,
    /// Preferred direction per layer.
    pub dirs: Vec<Dir>,
    /// Wire demand per layer per G-cell.
    pub demand: Vec<Map2d<f64>>,
    /// Capacity per layer per G-cell (after blockages).
    pub capacity: Vec<Map2d<f64>>,
}

impl LayerAssignment {
    /// Total overflow of one layer (track units).
    pub fn layer_overflow(&self, layer: usize) -> f64 {
        let mut acc = 0.0;
        for iy in 0..self.demand[layer].ny() {
            for ix in 0..self.demand[layer].nx() {
                acc += (self.demand[layer][(ix, iy)] - self.capacity[layer][(ix, iy)]).max(0.0);
            }
        }
        acc
    }

    /// The most overflowed layer and its overflow.
    pub fn worst_layer(&self) -> (usize, f64) {
        (0..self.demand.len())
            .map(|l| (l, self.layer_overflow(l)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, 0.0))
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.demand.len()
    }
}

/// Splits the routed 2-D demand across the design's layer stack on the
/// given grid.
///
/// Wire demand in each direction is divided among that direction's layers
/// proportionally to their per-G-cell capacity (so macro-blocked lower
/// layers receive proportionally less). Via demand is spread uniformly
/// over interior layers (a via stack crosses them all).
pub fn assign_layers(design: &Design, maps: &RouteMaps, grid: &GridSpec) -> LayerAssignment {
    let spec = design.routing();
    let n = spec.num_layers();
    let (nx, ny) = (grid.nx(), grid.ny());

    // Per-layer capacity maps: start from the layer's nominal capacity and
    // apply the same macro/rail blockage model as CapacityMaps, but per
    // layer rather than direction-summed.
    let blocked = MACRO_BLOCKED_LAYERS.min(n);
    let mut capacity: Vec<Map2d<f64>> = spec
        .layers
        .iter()
        .map(|l| Map2d::filled(nx, ny, l.capacity))
        .collect();
    let bin_area = grid.bin_area();
    for mid in design.macros() {
        let r = design.cell_rect(mid);
        let Some((x0, y0, x1, y1)) = grid.bins_overlapping(&r) else {
            continue;
        };
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                let f = grid.bin_rect(ix, iy).overlap_area(&r) / bin_area;
                for (li, cap) in capacity.iter_mut().enumerate().take(blocked) {
                    cap[(ix, iy)] -= spec.layers[li].capacity * f;
                }
            }
        }
    }
    for cap_map in capacity.iter_mut() {
        cap_map.map_in_place(|c| *c = c.max(0.0));
    }

    // Proportional split of directional demand.
    let mut demand: Vec<Map2d<f64>> = (0..n).map(|_| Map2d::new(nx, ny)).collect();
    for iy in 0..ny {
        for ix in 0..nx {
            for (total, dir) in [
                (maps.h_demand[(ix, iy)], Dir::Horizontal),
                (maps.v_demand[(ix, iy)], Dir::Vertical),
            ] {
                if total <= 0.0 {
                    continue;
                }
                let cap_sum: f64 = (0..n)
                    .filter(|&l| spec.layers[l].dir == dir)
                    .map(|l| capacity[l][(ix, iy)])
                    .sum();
                if cap_sum > 1e-12 {
                    for l in 0..n {
                        if spec.layers[l].dir == dir {
                            demand[l][(ix, iy)] += total * capacity[l][(ix, iy)] / cap_sum;
                        }
                    }
                } else {
                    // Fully blocked: dump on the topmost layer of the
                    // direction (it will overflow, which is the point).
                    if let Some(top) = (0..n).rev().find(|&l| spec.layers[l].dir == dir) {
                        demand[top][(ix, iy)] += total;
                    }
                }
            }
            // Vias: each via crosses the interior layers.
            let vias = maps.via_demand[(ix, iy)] * maps.via_weight;
            if vias > 0.0 && n > 2 {
                let share = vias / (n - 2) as f64;
                for l in 1..n - 1 {
                    demand[l][(ix, iy)] += share;
                }
            }
        }
    }

    LayerAssignment {
        names: spec.layers.iter().map(|l| l.name.clone()).collect(),
        dirs: spec.layers.iter().map(|l| l.dir).collect(),
        demand,
        capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::GlobalRouter;
    use rdp_db::{Cell, DesignBuilder, Point, Rect, RoutingSpec};

    fn routed_design(with_macro: bool) -> (Design, crate::router::RouteResult) {
        let mut b = DesignBuilder::new("l", Rect::new(0.0, 0.0, 80.0, 80.0));
        if with_macro {
            b.add_cell(Cell::fixed_macro("m", 30.0, 30.0), Point::new(40.0, 40.0));
        }
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(5.0, 45.0));
        let c = b.add_cell(Cell::std("b", 1.0, 1.0), Point::new(75.0, 45.0));
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())]);
        b.routing(RoutingSpec::uniform(6, 10.0, 8, 8));
        let d = b.build().unwrap();
        let r = GlobalRouter::default().route(&d);
        (d, r)
    }

    #[test]
    fn conservation_per_direction() {
        let (d, r) = routed_design(false);
        let grid = d.gcell_grid();
        let asg = assign_layers(&d, &r.maps, &grid);
        // Sum of H layers == h_demand in cells without via demand (via
        // stacks add interior-layer demand on top of the wire share).
        for iy in 0..8 {
            for ix in 0..8 {
                if r.maps.via_demand[(ix, iy)] > 0.0 {
                    continue;
                }
                let h_sum: f64 = (0..6)
                    .filter(|&l| asg.dirs[l] == Dir::Horizontal)
                    .map(|l| asg.demand[l][(ix, iy)])
                    .sum();
                assert!(
                    (h_sum - r.maps.h_demand[(ix, iy)]).abs() < 1e-9,
                    "({ix},{iy}): {h_sum} vs {}",
                    r.maps.h_demand[(ix, iy)]
                );
            }
        }
    }

    #[test]
    fn uniform_stack_splits_evenly() {
        let (d, r) = routed_design(false);
        let grid = d.gcell_grid();
        let asg = assign_layers(&d, &r.maps, &grid);
        // Straight horizontal route at row 4: three H layers get equal
        // shares (no via demand on pure cells away from pins).
        let cell = (3usize, 4usize);
        let shares: Vec<f64> = (0..6)
            .filter(|&l| asg.dirs[l] == Dir::Horizontal)
            .map(|l| asg.demand[l][cell])
            .collect();
        assert!(
            shares.iter().all(|&s| (s - shares[0]).abs() < 1e-9),
            "{shares:?}"
        );
    }

    #[test]
    fn blocked_layers_receive_less_under_macro() {
        let (d, r) = routed_design(true);
        let grid = d.gcell_grid();
        let asg = assign_layers(&d, &r.maps, &grid);
        // G-cell fully under the macro: M1 capacity 0, M5 keeps nominal.
        let cell = (4usize, 4usize);
        assert!(asg.capacity[0][cell] < 1e-9, "M1 should be blocked");
        assert!((asg.capacity[4][cell] - 10.0).abs() < 1e-9);
        // Demand routed over the macro must avoid the blocked M1.
        if r.maps.h_demand[cell] > 0.0 {
            assert!(asg.demand[0][cell] < 1e-9);
        }
    }

    #[test]
    fn worst_layer_identifies_overflow() {
        let (d, r) = routed_design(false);
        let grid = d.gcell_grid();
        let mut asg = assign_layers(&d, &r.maps, &grid);
        // Synthetic overload on layer 2.
        asg.demand[2][(0, 0)] = 1000.0;
        let (worst, over) = asg.worst_layer();
        assert_eq!(worst, 2);
        assert!(over > 900.0);
        assert_eq!(asg.num_layers(), 6);
    }
}
