//! Dynamic pin-accessibility density optimization (Section III-C).
//!
//! Cells placed under M2 power/ground rails are hard to connect on M1, so
//! the paper raises placement density under *selected* rails wherever the
//! routing congestion is above average, pushing cells out and reserving
//! pin-access space:
//!
//! 1. **PG rail selection** (Fig. 4): every macro bounding box is expanded
//!    by 10 %, the rails are cut by the expanded boxes, and only cut rails
//!    at least 0.2× the placement region's extent survive.
//! 2. **Dynamic density** (Eqs. (13)–(15)): each bin covered by a selected
//!    rail gains `η_b·(1 + C_b)·A_{PG∩b}/A_b`, with `η_b = 1` iff the
//!    bin's congestion exceeds the average.

use rdp_db::{Design, Dir, GridSpec, Map2d, PgRail, Rect};

use crate::congestion::CongestionField;

/// Macro bounding-box expansion fraction of PG-rail selection (0.1 =
/// 10 % per side, per the paper).
pub const PG_MACRO_EXPAND: f64 = 0.1;
/// Minimum surviving rail length in PG-rail selection, as a fraction of
/// the die extent in the rail's direction (0.2 per the paper).
pub const PG_MIN_LENGTH_FRACTION: f64 = 0.2;

/// Pre-processed PG-rail density state: the selected rails and their
/// per-bin overlap fractions.
#[derive(Debug, Clone)]
pub struct PgDensity {
    selected: Vec<PgRail>,
    /// Σ A_{PG∩b} / A_b per bin.
    overlap: Map2d<f64>,
}

impl PgDensity {
    /// Runs PG-rail selection on the design and precomputes bin overlaps
    /// on `grid`.
    pub fn new(design: &Design, grid: &GridSpec) -> Self {
        let selected = select_rails(design);
        let mut overlap = Map2d::new(grid.nx(), grid.ny());
        let bin_area = grid.bin_area();
        for rail in &selected {
            let Some((x0, y0, x1, y1)) = grid.bins_overlapping(&rail.rect) else {
                continue;
            };
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    overlap[(ix, iy)] += grid.bin_rect(ix, iy).overlap_area(&rail.rect) / bin_area;
                }
            }
        }
        PgDensity { selected, overlap }
    }

    /// The rails that survived selection.
    pub fn selected_rails(&self) -> &[PgRail] {
        &self.selected
    }

    /// The static per-bin rail coverage Σ A_{PG∩b}/A_b.
    pub fn overlap_map(&self) -> &Map2d<f64> {
        &self.overlap
    }

    /// The density addend `D^PG` of Eq. (14).
    ///
    /// With a congestion field, the dynamic weighting of Eq. (15) is
    /// applied: only bins with above-average congestion receive density,
    /// scaled by `1 + C_b`. Without one (the Xplace-Route baseline's
    /// static pre-placement adjustment) the raw coverage is returned.
    pub fn density_map(&self, field: Option<&CongestionField>) -> Map2d<f64> {
        let mut out = self.overlap.clone();
        if let Some(f) = field {
            let mean = f.cmap.mean();
            for iy in 0..out.ny() {
                for ix in 0..out.nx() {
                    let c = f.cmap[(ix, iy)];
                    let eta = if c > mean { 1.0 } else { 0.0 };
                    out[(ix, iy)] *= eta * (1.0 + c);
                }
            }
        }
        out
    }
}

/// PG-rail selection (Fig. 4): cut rails by expanded macro boxes, keep
/// long survivors.
pub fn select_rails(design: &Design) -> Vec<PgRail> {
    let die = design.die();
    let boxes: Vec<Rect> = design
        .macros()
        .map(|m| design.cell_rect(m).expanded_fraction(PG_MACRO_EXPAND))
        .collect();
    let mut out = Vec::new();
    for rail in design.rails() {
        let min_len = match rail.dir {
            Dir::Horizontal => PG_MIN_LENGTH_FRACTION * die.width(),
            Dir::Vertical => PG_MIN_LENGTH_FRACTION * die.height(),
        };
        for piece in cut_rail(rail, &boxes) {
            if piece.length() >= min_len {
                out.push(piece);
            }
        }
    }
    out
}

/// Cuts one rail by a set of blocking boxes, returning the uncovered
/// pieces.
fn cut_rail(rail: &PgRail, boxes: &[Rect]) -> Vec<PgRail> {
    // Blocked intervals along the rail's running axis.
    let (lo, hi) = match rail.dir {
        Dir::Horizontal => (rail.rect.lo.x, rail.rect.hi.x),
        Dir::Vertical => (rail.rect.lo.y, rail.rect.hi.y),
    };
    let mut blocked: Vec<(f64, f64)> = boxes
        .iter()
        .filter(|b| b.intersects(&rail.rect))
        .map(|b| match rail.dir {
            Dir::Horizontal => (b.lo.x.max(lo), b.hi.x.min(hi)),
            Dir::Vertical => (b.lo.y.max(lo), b.hi.y.min(hi)),
        })
        .collect();
    blocked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for iv in blocked {
        match merged.last_mut() {
            Some(last) if iv.0 <= last.1 => last.1 = last.1.max(iv.1),
            _ => merged.push(iv),
        }
    }
    let mut pieces = Vec::new();
    let mut cursor = lo;
    let push = |a: f64, b: f64, pieces: &mut Vec<PgRail>| {
        if b > a {
            let rect = match rail.dir {
                Dir::Horizontal => Rect::new(a, rail.rect.lo.y, b, rail.rect.hi.y),
                Dir::Vertical => Rect::new(rail.rect.lo.x, a, rail.rect.hi.x, b),
            };
            pieces.push(PgRail {
                layer: rail.layer,
                dir: rail.dir,
                rect,
            });
        }
    };
    for (a, b) in merged {
        push(cursor, a, &mut pieces);
        cursor = cursor.max(b);
    }
    push(cursor, hi, &mut pieces);
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, DesignBuilder, Point, RoutingSpec};
    use rdp_guard::HealthPolicy;

    /// 100×100 die, one 30×30 macro in the center, vertical rails every
    /// 10 µm.
    fn rail_design() -> Design {
        rail_design_with_macro(30.0)
    }

    /// [`rail_design`] with a `side`×`side` macro.
    fn rail_design_with_macro(side: f64) -> Design {
        let mut b = DesignBuilder::new("r", Rect::new(0.0, 0.0, 100.0, 100.0));
        let m = b.add_cell(Cell::fixed_macro("m", side, side), Point::new(50.0, 50.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(10.0, 10.0));
        b.add_net("n", vec![(m, Point::default()), (a, Point::default())]);
        for i in 0..10 {
            let x = 5.0 + 10.0 * i as f64;
            b.add_rail(PgRail {
                layer: 1,
                dir: Dir::Vertical,
                rect: Rect::new(x - 0.2, 0.0, x + 0.2, 100.0),
            });
        }
        b.routing(RoutingSpec::uniform(4, 10.0, 16, 16));
        b.build().unwrap()
    }

    #[test]
    fn rails_clear_of_macro_survive_whole() {
        let d = rail_design();
        let rails = select_rails(&d);
        // Expanded macro box: 30×30 +10% per side → spans x ∈ [32, 68].
        // Rails at x=5..25 and 75..95 are untouched (length 100); rails at
        // 35..65 are cut into two 33.5-length pieces (≥ 20) → survive too.
        let whole = rails.iter().filter(|r| (r.length() - 100.0).abs() < 1e-9);
        assert_eq!(whole.count(), 6);
        assert!(rails.len() > 6, "cut pieces should survive");
        for r in &rails {
            assert!(r.length() >= 20.0);
        }
    }

    #[test]
    fn cut_pieces_avoid_expanded_macro() {
        let d = rail_design();
        let rails = select_rails(&d);
        let expanded = d.cell_rect(rdp_db::CellId(0)).expanded_fraction(0.1);
        for r in &rails {
            assert!(
                !r.rect.intersects(&expanded),
                "rail {:?} overlaps expanded macro",
                r.rect
            );
        }
    }

    #[test]
    fn short_pieces_are_dropped() {
        // Expanded 60×60 macro: 60 +10% per side spans x, y ∈ [14, 86],
        // so the rails at x = 15..85 are cut into 14-long pieces, below
        // the 0.2 × 100 = 20 minimum: only the rails at x = 5 and 95
        // survive, whole.
        let d = rail_design_with_macro(60.0);
        let rails = select_rails(&d);
        assert_eq!(rails.len(), 2);
        for r in &rails {
            assert!((r.length() - 100.0).abs() < 1e-9, "{:?}", r.rect);
        }
    }

    #[test]
    fn static_density_matches_coverage() {
        let d = rail_design();
        let grid = d.gcell_grid();
        let pg = PgDensity::new(&d, &grid);
        let dm = pg.density_map(None);
        assert_eq!(&dm, pg.overlap_map());
        assert!(dm.sum() > 0.0);
    }

    #[test]
    fn dynamic_density_gated_by_congestion() {
        let d = rail_design();
        let grid = d.gcell_grid();
        let pg = PgDensity::new(&d, &grid);
        // Synthetic congestion field: congested stripe in bins iy ∈ {4}.
        let route = rdp_route::GlobalRouter::default().route(&d);
        let mut field =
            CongestionField::try_from_route(&d, &route, &HealthPolicy::default()).unwrap();
        field.cmap.clear();
        for ix in 0..16 {
            field.cmap[(ix, 4)] = 1.0;
        }
        let dm = pg.density_map(Some(&field));
        // Rows without congestion get zero PG density.
        for ix in 0..16 {
            assert_eq!(dm[(ix, 10)], 0.0, "ix={ix}");
        }
        // Congested row gets coverage × (1 + C) = coverage × 2.
        let cov = pg.overlap_map();
        for ix in 0..16 {
            assert!((dm[(ix, 4)] - cov[(ix, 4)] * 2.0).abs() < 1e-12);
        }
    }
}
