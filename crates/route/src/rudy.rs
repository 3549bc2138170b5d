//! RUDY (Rectangular Uniform wire DensitY) congestion estimation
//! (Spindler & Johannes, DATE 2007).
//!
//! The cheap bounding-box estimator the paper contrasts with its
//! Poisson-based congestion model: each net spreads `HPWL / bbox-area`
//! uniformly over its bounding box, so every G-cell inside the box is
//! charged equally — including congestion "not contributed by the net"
//! (the Fig. 1(b) overreach this paper fixes).

use rdp_db::{Design, GridSpec, Map2d, NetId};
use rdp_par::{chunk_len, Pool};

/// Computes the RUDY map of a design on the given grid.
///
/// Returns wire density in demand units per G-cell area; comparable in
/// spirit (not in absolute units) to the router's demand maps.
///
/// Nets are binned on [`Pool::global`] into per-chunk partial maps
/// (chunk boundaries depend only on the net count) merged in chunk
/// order, so the result is bit-identical for any thread count.
pub fn rudy_map(design: &Design, grid: &GridSpec) -> Map2d<f64> {
    let num_nets = design.num_nets();
    let chunk = chunk_len(num_nets, 16, 128);
    let partials = Pool::global().map_chunks(num_nets, chunk, |_ci, range| {
        let mut map = Map2d::new(grid.nx(), grid.ny());
        for ni in range {
            rudy_net(design, grid, ni, &mut map);
        }
        map
    });
    let mut map = Map2d::new(grid.nx(), grid.ny());
    for part in &partials {
        map.add_assign_map(part);
    }
    map
}

/// Deposits one net's RUDY contribution onto `map`.
fn rudy_net(design: &Design, grid: &GridSpec, ni: usize, map: &mut Map2d<f64>) {
    let bin_area = grid.bin_area();
    let id = NetId::from_index(ni);
    let Some(bbox) = design.net_bbox(id) else {
        return;
    };
    let hpwl = bbox.width() + bbox.height();
    if hpwl <= 0.0 {
        return;
    }
    // Uniform wire density: wirelength spread over the bbox area.
    // Degenerate (zero-area) boxes get a one-bin-thick extent.
    let w = bbox.width().max(grid.bin_w() * 0.5);
    let h = bbox.height().max(grid.bin_h() * 0.5);
    let density = hpwl / (w * h);
    let Some((x0, y0, x1, y1)) = grid.bins_overlapping(&bbox) else {
        return;
    };
    for iy in y0..=y1 {
        for ix in x0..=x1 {
            let ov = grid.bin_rect(ix, iy).overlap_area(&bbox).max(
                // degenerate boxes still deposit on the bins they touch
                if bbox.area() == 0.0 {
                    bin_area * 0.25
                } else {
                    0.0
                },
            );
            map[(ix, iy)] += density * ov / bin_area;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, DesignBuilder, Point, Rect, RoutingSpec};

    fn design(pins: &[(f64, f64)]) -> Design {
        let mut b = DesignBuilder::new("r", Rect::new(0.0, 0.0, 40.0, 40.0));
        let ids: Vec<_> = pins
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| b.add_cell(Cell::std(format!("c{i}"), 1.0, 1.0), Point::new(x, y)))
            .collect();
        b.add_net("n", ids.iter().map(|&c| (c, Point::default())).collect());
        b.routing(RoutingSpec::uniform(2, 10.0, 4, 4));
        b.build().unwrap()
    }

    #[test]
    fn rudy_uniform_inside_bbox_zero_outside() {
        let d = design(&[(5.0, 5.0), (25.0, 25.0)]);
        let grid = d.grid(4, 4);
        let m = rudy_map(&d, &grid);
        // bbox [5,25]² covers bins (0..2, 0..2) partially; bins (3,*) are
        // untouched.
        assert!(m[(0, 0)] > 0.0);
        assert!(m[(1, 1)] > 0.0);
        assert_eq!(m[(3, 3)], 0.0);
        assert_eq!(m[(3, 0)], 0.0);
        // Fully covered bin (1,1) carries density = hpwl/area = 40/400 = .1
        assert!((m[(1, 1)] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rudy_total_mass_is_hpwl() {
        let d = design(&[(5.0, 5.0), (35.0, 25.0)]);
        let grid = d.grid(4, 4);
        let m = rudy_map(&d, &grid);
        // Σ map · bin_area = hpwl (30 + 20)
        let mass: f64 = m.sum() * grid.bin_area();
        assert!((mass - 50.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn degenerate_net_handled() {
        // Horizontal net: zero-height bbox must still deposit demand.
        let d = design(&[(5.0, 15.0), (35.0, 15.0)]);
        let grid = d.grid(4, 4);
        let m = rudy_map(&d, &grid);
        assert!(m.sum() > 0.0);
        // Row 1 only.
        assert_eq!(m[(0, 3)], 0.0);
    }
}
