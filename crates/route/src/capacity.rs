//! Routing capacity modelling: per-G-cell track capacity derived from the
//! layer stack, reduced by macro blockages and PG rails.

use rdp_db::{Design, Dir, Map2d};

/// Number of lowest metal layers fully blocked by a macro (macros are
/// routable over their top; ISPD-2015-style macros block M1–M4 of a
/// 6-layer stack). Clamped to the stack height.
pub(crate) const MACRO_BLOCKED_LAYERS: usize = 4;
/// Fraction of its own layer's capacity a PG rail consumes in the G-cells
/// it covers, scaled by area overlap.
const RAIL_BLOCKAGE: f64 = 0.5;
/// Minimum capacity left in any G-cell, as a fraction of the unblocked
/// capacity (avoids division blow-ups in fully blocked cells).
const MIN_CAPACITY_FRACTION: f64 = 0.05;

/// Per-direction capacity maps for a design's G-cell grid.
#[derive(Debug, Clone)]
pub struct CapacityMaps {
    /// Horizontal track capacity per G-cell.
    pub h: Map2d<f64>,
    /// Vertical track capacity per G-cell.
    pub v: Map2d<f64>,
}

impl CapacityMaps {
    /// Builds capacity maps for `design` on its G-cell grid.
    pub fn build(design: &Design) -> CapacityMaps {
        let grid = design.gcell_grid();
        let spec = design.routing();
        let blocked = MACRO_BLOCKED_LAYERS.min(spec.num_layers());

        let total_h = spec.total_h_capacity();
        let total_v = spec.total_v_capacity();
        // Capacity fraction living on blocked layers, per direction.
        let blocked_h: f64 = spec.layers[..blocked]
            .iter()
            .filter(|l| l.dir == Dir::Horizontal)
            .map(|l| l.capacity)
            .sum();
        let blocked_v: f64 = spec.layers[..blocked]
            .iter()
            .filter(|l| l.dir == Dir::Vertical)
            .map(|l| l.capacity)
            .sum();

        let mut h = Map2d::filled(grid.nx(), grid.ny(), total_h);
        let mut v = Map2d::filled(grid.nx(), grid.ny(), total_v);
        let bin_area = grid.bin_area();

        // Macro blockages: remove the blocked-layer share scaled by overlap.
        for mid in design.macros() {
            let r = design.cell_rect(mid);
            let Some((x0, y0, x1, y1)) = grid.bins_overlapping(&r) else {
                continue;
            };
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    let f = grid.bin_rect(ix, iy).overlap_area(&r) / bin_area;
                    h[(ix, iy)] -= blocked_h * f;
                    v[(ix, iy)] -= blocked_v * f;
                }
            }
        }

        // Routing obstructions remove their whole layer's capacity in the
        // G-cells they cover, scaled by area overlap. Entries referencing a
        // layer above the stack are ignored (parsers accept them so hostile
        // inputs stay loadable).
        for obs in design.obstructions() {
            let li = obs.layer as usize;
            if li >= spec.num_layers() {
                continue;
            }
            let layer = &spec.layers[li];
            let Some((x0, y0, x1, y1)) = grid.bins_overlapping(&obs.rect) else {
                continue;
            };
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    let f = grid.bin_rect(ix, iy).overlap_area(&obs.rect) / bin_area;
                    match layer.dir {
                        Dir::Horizontal => h[(ix, iy)] -= layer.capacity * f,
                        Dir::Vertical => v[(ix, iy)] -= layer.capacity * f,
                    }
                }
            }
        }

        // PG rails consume part of their own layer's capacity.
        for rail in design.rails() {
            let li = rail.layer as usize;
            if li >= spec.num_layers() {
                continue;
            }
            let layer = &spec.layers[li];
            let Some((x0, y0, x1, y1)) = grid.bins_overlapping(&rail.rect) else {
                continue;
            };
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    let f = grid.bin_rect(ix, iy).overlap_area(&rail.rect) / bin_area;
                    let cut = layer.capacity * RAIL_BLOCKAGE * f;
                    match layer.dir {
                        Dir::Horizontal => h[(ix, iy)] -= cut,
                        Dir::Vertical => v[(ix, iy)] -= cut,
                    }
                }
            }
        }

        // Floors.
        let floor_h = total_h * MIN_CAPACITY_FRACTION;
        let floor_v = total_v * MIN_CAPACITY_FRACTION;
        h.map_in_place(|c| *c = c.max(floor_h));
        v.map_in_place(|c| *c = c.max(floor_v));

        CapacityMaps { h, v }
    }

    /// Total capacity map `Cap_{m,n} = Σ_l Cap_{m,n,l}` (Eq. (3) denominator).
    pub fn total(&self) -> Map2d<f64> {
        let mut t = self.h.clone();
        t.add_assign_map(&self.v);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, DesignBuilder, Obstruction, PgRail, Point, Rect, RoutingSpec};

    fn design_with_macro() -> Design {
        macro_design(&[])
    }

    /// A 50×50 macro over the lower-left quarter, a rail on M2, and
    /// routing obstructions over the macro on `obstructed_layers`.
    fn macro_design(obstructed_layers: &[u8]) -> Design {
        let mut b = DesignBuilder::new("c", Rect::new(0.0, 0.0, 100.0, 100.0));
        let m = b.add_cell(Cell::fixed_macro("m", 50.0, 50.0), Point::new(25.0, 25.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(80.0, 80.0));
        b.add_net("n", vec![(m, Point::default()), (a, Point::default())]);
        b.add_rail(PgRail {
            layer: 1,
            dir: Dir::Horizontal,
            rect: Rect::new(0.0, 70.0, 100.0, 72.0),
        });
        for &layer in obstructed_layers {
            b.add_obstruction(Obstruction {
                layer,
                rect: Rect::new(0.0, 0.0, 50.0, 50.0),
            });
        }
        b.routing(RoutingSpec::uniform(6, 10.0, 10, 10));
        b.build().unwrap()
    }

    #[test]
    fn open_area_has_full_capacity() {
        let d = design_with_macro();
        let caps = CapacityMaps::build(&d);
        // G-cell (9, 0) is far from macro and rails.
        assert_eq!(caps.h[(9, 0)], 30.0);
        assert_eq!(caps.v[(9, 0)], 30.0);
        assert_eq!(caps.total()[(9, 0)], 60.0);
    }

    #[test]
    fn macro_blocks_lower_layers() {
        let d = design_with_macro();
        let caps = CapacityMaps::build(&d);
        // G-cell (1,1) fully inside the macro: 4 of 6 layers blocked.
        // H layers are M1, M3, M5 → blocked M1, M3 = 20 of 30.
        assert!((caps.h[(1, 1)] - 10.0).abs() < 1e-9);
        // V layers are M2, M4, M6 → blocked M2, M4 = 20 of 30.
        assert!((caps.v[(1, 1)] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rail_reduces_its_layer_share() {
        let d = design_with_macro();
        let caps = CapacityMaps::build(&d);
        // Rail on M2 (vertical in the uniform stack) covers y∈[70,72]:
        // overlap fraction in G-cell row 7 = (100·2)/(10·10·10 cells) → per
        // cell 2·10/100 = 0.2 → cut = 10 · 0.5 · 0.2 = 1.0.
        assert!((caps.v[(5, 7)] - 29.0).abs() < 1e-9);
        assert_eq!(caps.h[(5, 7)], 30.0);
    }

    #[test]
    fn capacity_never_below_floor() {
        // The macro blocks M1–M4; obstructions on M5 and M6 take the two
        // layers it leaves open, so the G-cells under it have nothing left.
        let caps = CapacityMaps::build(&macro_design(&[4, 5]));
        for (_, _, &c) in caps.h.iter_coords() {
            assert!(c >= 30.0 * 0.05 - 1e-12);
        }
        // Fully-blocked interior cell pinned at the floor.
        assert!((caps.h[(1, 1)] - 1.5).abs() < 1e-9);
        assert!((caps.v[(1, 1)] - 1.5).abs() < 1e-9);
    }
}
