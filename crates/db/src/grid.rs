//! Uniform grid over the die: shared geometry for placement bins and
//! routing G-cells.
//!
//! The paper predefines G-cells and density bins to have the same
//! dimensions (Section II-B), which lets congestion values map one-to-one
//! onto bins. [`GridSpec`] captures that shared discretization.

use crate::geom::{Point, Rect};

/// A uniform `nx × ny` grid covering a rectangular region.
///
/// The bin geometry (`bin_w`/`bin_h`/`bin_area`) is computed once at
/// construction — bitwise the same divisions the accessors used to
/// perform per call, just cached, since every hot traversal (density
/// binning, bilinear sampling, G-cell lookup) asks for them per element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    region: Rect,
    nx: usize,
    ny: usize,
    bw: f64,
    bh: f64,
    barea: f64,
    /// Cached reciprocals for the bilinear samplers (a multiply instead
    /// of a divide per sampled cell). The index-quantizing lookups
    /// (`bin_of`, `bins_overlapping`) keep the true division: their
    /// floor/fract edge semantics must not move with reciprocal rounding.
    inv_bw: f64,
    inv_bh: f64,
}

impl GridSpec {
    /// Creates a grid with `nx × ny` bins over `region`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or the region is degenerate.
    pub fn new(region: Rect, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        assert!(
            region.width() > 0.0 && region.height() > 0.0,
            "grid region must have positive area"
        );
        let bw = region.width() / nx as f64;
        let bh = region.height() / ny as f64;
        GridSpec {
            region,
            nx,
            ny,
            bw,
            bh,
            barea: bw * bh,
            inv_bw: 1.0 / bw,
            inv_bh: 1.0 / bh,
        }
    }

    /// The covered region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Bin count in x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Bin count in y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Width `l_x` of one bin / G-cell.
    #[inline]
    pub fn bin_w(&self) -> f64 {
        self.bw
    }

    /// Height `l_y` of one bin / G-cell.
    #[inline]
    pub fn bin_h(&self) -> f64 {
        self.bh
    }

    /// Area of one bin.
    #[inline]
    pub fn bin_area(&self) -> f64 {
        self.barea
    }

    /// Bin indices containing point `p`, clamped into the grid so that
    /// points on or beyond the upper boundary land in the last bin.
    pub fn bin_of(&self, p: Point) -> (usize, usize) {
        let fx = (p.x - self.region.lo.x) / self.bin_w();
        let fy = (p.y - self.region.lo.y) / self.bin_h();
        let ix = (fx.floor().max(0.0) as usize).min(self.nx - 1);
        let iy = (fy.floor().max(0.0) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// Geometric extent of bin `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the indices are out of range.
    pub fn bin_rect(&self, ix: usize, iy: usize) -> Rect {
        debug_assert!(ix < self.nx && iy < self.ny);
        let x0 = self.region.lo.x + ix as f64 * self.bin_w();
        let y0 = self.region.lo.y + iy as f64 * self.bin_h();
        Rect::new(x0, y0, x0 + self.bin_w(), y0 + self.bin_h())
    }

    /// Center of bin `(ix, iy)`.
    pub fn bin_center(&self, ix: usize, iy: usize) -> Point {
        self.bin_rect(ix, iy).center()
    }

    /// Inclusive index range of bins overlapping `r`, or `None` when the
    /// rectangle lies entirely outside the grid region.
    pub fn bins_overlapping(&self, r: &Rect) -> Option<(usize, usize, usize, usize)> {
        if !self.region.intersects(r) {
            return None;
        }
        let x0 = ((r.lo.x - self.region.lo.x) / self.bin_w())
            .floor()
            .max(0.0) as usize;
        let y0 = ((r.lo.y - self.region.lo.y) / self.bin_h())
            .floor()
            .max(0.0) as usize;
        // hi is exclusive geometry: a rect ending exactly on a bin boundary
        // does not overlap the next bin.
        let x1f = (r.hi.x - self.region.lo.x) / self.bin_w();
        let y1f = (r.hi.y - self.region.lo.y) / self.bin_h();
        let x1 = if x1f.fract() == 0.0 {
            x1f as usize - 1
        } else {
            x1f.floor() as usize
        };
        let y1 = if y1f.fract() == 0.0 {
            y1f as usize - 1
        } else {
            y1f.floor() as usize
        };
        Some((
            x0.min(self.nx - 1),
            y0.min(self.ny - 1),
            x1.min(self.nx - 1).max(x0.min(self.nx - 1)),
            y1.min(self.ny - 1).max(y0.min(self.ny - 1)),
        ))
    }

    /// Bilinear interpolation of a bin-centered field at point `p`.
    ///
    /// `field` must be an `nx × ny` map whose values live at bin centers.
    /// Points beyond the outer ring of centers are clamped (constant
    /// extrapolation), which matches the Neumann boundary condition of the
    /// placement Poisson problem.
    ///
    /// The clamped coordinate is ≥ 0 or NaN, and for such values `as
    /// usize` truncation equals `floor()` (NaN casts to 0 either way), so
    /// the index needs no out-of-line `floor` call.
    #[inline]
    pub fn sample_bilinear(&self, field: &crate::Map2d<f64>, p: Point) -> f64 {
        assert_eq!(field.nx(), self.nx);
        assert_eq!(field.ny(), self.ny);
        let gx = (p.x - self.region.lo.x) * self.inv_bw - 0.5;
        let gy = (p.y - self.region.lo.y) * self.inv_bh - 0.5;
        let gx = gx.clamp(0.0, (self.nx - 1) as f64);
        let gy = gy.clamp(0.0, (self.ny - 1) as f64);
        let x0 = gx as usize;
        let y0 = gy as usize;
        let x1 = (x0 + 1).min(self.nx - 1);
        let y1 = (y0 + 1).min(self.ny - 1);
        let tx = gx - x0 as f64;
        let ty = gy - y0 as f64;
        let f00 = field[(x0, y0)];
        let f10 = field[(x1, y0)];
        let f01 = field[(x0, y1)];
        let f11 = field[(x1, y1)];
        f00 * (1.0 - tx) * (1.0 - ty)
            + f10 * tx * (1.0 - ty)
            + f01 * (1.0 - tx) * ty
            + f11 * tx * ty
    }

    /// [`sample_bilinear`](GridSpec::sample_bilinear) of **three** fields
    /// at one point, sharing the index/weight computation. Each component
    /// is the exact expression of the single-field sampler, so the results
    /// are bitwise identical to three separate calls — the density
    /// gradient samples ψ, `E_x` and `E_y` at every movable cell.
    #[inline]
    pub fn sample_bilinear3(
        &self,
        fa: &crate::Map2d<f64>,
        fb: &crate::Map2d<f64>,
        fc: &crate::Map2d<f64>,
        p: Point,
    ) -> (f64, f64, f64) {
        for f in [fa, fb, fc] {
            assert_eq!(f.nx(), self.nx);
            assert_eq!(f.ny(), self.ny);
        }
        let gx = (p.x - self.region.lo.x) * self.inv_bw - 0.5;
        let gy = (p.y - self.region.lo.y) * self.inv_bh - 0.5;
        let gx = gx.clamp(0.0, (self.nx - 1) as f64);
        let gy = gy.clamp(0.0, (self.ny - 1) as f64);
        let x0 = gx as usize;
        let y0 = gy as usize;
        let x1 = (x0 + 1).min(self.nx - 1);
        let y1 = (y0 + 1).min(self.ny - 1);
        let tx = gx - x0 as f64;
        let ty = gy - y0 as f64;
        let sample = |f: &crate::Map2d<f64>| {
            f[(x0, y0)] * (1.0 - tx) * (1.0 - ty)
                + f[(x1, y0)] * tx * (1.0 - ty)
                + f[(x0, y1)] * (1.0 - tx) * ty
                + f[(x1, y1)] * tx * ty
        };
        (sample(fa), sample(fb), sample(fc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Map2d;

    fn grid() -> GridSpec {
        GridSpec::new(Rect::new(0.0, 0.0, 100.0, 50.0), 10, 5)
    }

    #[test]
    fn bin_dims() {
        let g = grid();
        assert_eq!(g.bin_w(), 10.0);
        assert_eq!(g.bin_h(), 10.0);
        assert_eq!(g.bin_area(), 100.0);
    }

    #[test]
    fn bin_of_clamps() {
        let g = grid();
        assert_eq!(g.bin_of(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.bin_of(Point::new(99.9, 49.9)), (9, 4));
        assert_eq!(g.bin_of(Point::new(100.0, 50.0)), (9, 4));
        assert_eq!(g.bin_of(Point::new(-5.0, -5.0)), (0, 0));
        assert_eq!(g.bin_of(Point::new(25.0, 35.0)), (2, 3));
    }

    #[test]
    fn bin_rect_tiles_region() {
        let g = grid();
        let mut area = 0.0;
        for iy in 0..g.ny() {
            for ix in 0..g.nx() {
                area += g.bin_rect(ix, iy).area();
            }
        }
        assert!((area - g.region().area()).abs() < 1e-9);
        assert_eq!(g.bin_rect(0, 0).lo, Point::new(0.0, 0.0));
        assert_eq!(g.bin_rect(9, 4).hi, Point::new(100.0, 50.0));
    }

    #[test]
    fn bins_overlapping_interior() {
        let g = grid();
        let r = Rect::new(12.0, 8.0, 37.0, 22.0);
        assert_eq!(g.bins_overlapping(&r), Some((1, 0, 3, 2)));
    }

    #[test]
    fn bins_overlapping_boundary_exclusive() {
        let g = grid();
        // Ends exactly on a boundary: must not claim the next bin.
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(g.bins_overlapping(&r), Some((0, 0, 0, 0)));
    }

    #[test]
    fn bins_overlapping_outside() {
        let g = grid();
        assert_eq!(
            g.bins_overlapping(&Rect::new(200.0, 0.0, 210.0, 10.0)),
            None
        );
    }

    #[test]
    fn bilinear_constant_field() {
        let g = grid();
        let f = Map2d::filled(10, 5, 3.5);
        for p in [
            Point::new(0.0, 0.0),
            Point::new(55.0, 25.0),
            Point::new(99.0, 49.0),
        ] {
            assert!((g.sample_bilinear(&f, p) - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn bilinear3_matches_three_single_samples_bitwise() {
        let g = grid();
        let mut fa = Map2d::new(10, 5);
        let mut fb = Map2d::new(10, 5);
        let mut fc = Map2d::new(10, 5);
        for iy in 0..5 {
            for ix in 0..10 {
                fa[(ix, iy)] = (ix * 7 + iy * 3) as f64 * 0.37 - 2.0;
                fb[(ix, iy)] = (ix as f64 * 1.3).sin() + iy as f64;
                fc[(ix, iy)] = (iy as f64 * 0.7).cos() - ix as f64 * 1e-3;
            }
        }
        for p in [
            Point::new(0.0, 0.0),
            Point::new(3.2, 48.7),
            Point::new(55.5, 25.1),
            Point::new(99.99, 0.01),
            Point::new(-4.0, 60.0),
        ] {
            let (a, b, c) = g.sample_bilinear3(&fa, &fb, &fc, p);
            assert_eq!(a.to_bits(), g.sample_bilinear(&fa, p).to_bits());
            assert_eq!(b.to_bits(), g.sample_bilinear(&fb, p).to_bits());
            assert_eq!(c.to_bits(), g.sample_bilinear(&fc, p).to_bits());
        }
    }

    #[test]
    fn bilinear_linear_ramp_exact_inside() {
        let g = grid();
        // field value = x coordinate of bin center
        let mut f = Map2d::new(10, 5);
        for iy in 0..5 {
            for ix in 0..10 {
                f[(ix, iy)] = g.bin_center(ix, iy).x;
            }
        }
        // Interior point: bilinear reproduces linear functions exactly.
        let p = Point::new(42.0, 25.0);
        assert!((g.sample_bilinear(&f, p) - 42.0).abs() < 1e-9);
    }
}
