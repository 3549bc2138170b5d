//! Planar geometry primitives used throughout the placement stack.
//!
//! All coordinates are in microns stored as `f64`. Analytical global
//! placement works in continuous space, so a floating representation is the
//! natural choice; fixed structures (die, rows, rails) simply carry integral
//! values.

use std::fmt;

/// A point in the placement plane (microns).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in microns.
    pub x: f64,
    /// Vertical coordinate in microns.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// ```
    /// use rdp_db::Point;
    /// let p = Point::new(3.0, 4.0);
    /// assert_eq!(p.norm(), 5.0);
    /// ```
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean length of the vector from the origin to this point.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Component-wise addition.
    pub fn offset(self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Dot product treating both points as vectors.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Scales both components by `s`.
    #[inline]
    pub fn scale(self, s: f64) -> Point {
        Point::new(self.x * s, self.y * s)
    }

    /// Returns the unit vector in this direction, or `None` for a
    /// (near-)zero vector.
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self.scale(1.0 / n))
        }
    }
}

impl std::ops::Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// An axis-aligned rectangle, `lo` inclusive, `hi` exclusive by convention.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x0 > x1` or `y0 > y1`.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        debug_assert!(x0 <= x1 && y0 <= y1, "malformed rect {x0},{y0},{x1},{y1}");
        Rect {
            lo: Point::new(x0, y0),
            hi: Point::new(x1, y1),
        }
    }

    /// Creates a rectangle centered at `c` with the given width and height.
    pub fn centered(c: Point, w: f64, h: f64) -> Self {
        Rect::new(c.x - w / 2.0, c.y - h / 2.0, c.x + w / 2.0, c.y + h / 2.0)
    }

    /// Width (always non-negative).
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height (always non-negative).
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) / 2.0, (self.lo.y + self.hi.y) / 2.0)
    }

    /// Whether the point lies inside (lo-inclusive, hi-exclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x < self.hi.x && p.y >= self.lo.y && p.y < self.hi.y
    }

    /// Overlap area with another rectangle (0 when disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.hi.x.min(other.hi.x) - self.lo.x.max(other.lo.x)).max(0.0);
        let h = (self.hi.y.min(other.hi.y) - self.lo.y.max(other.lo.y)).max(0.0);
        w * h
    }

    /// Whether the two rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
    }

    /// Rectangle expanded by `f` of its own dimensions on every side
    /// (`f = 0.1` grows a 10 × 10 rect to 12 × 12, i.e. by 10 % per side,
    /// matching the macro-bounding-box expansion of the paper's Fig. 4).
    pub fn expanded_fraction(&self, f: f64) -> Rect {
        let dx = self.width() * f;
        let dy = self.height() * f;
        Rect::new(
            self.lo.x - dx,
            self.lo.y - dy,
            self.hi.x + dx,
            self.hi.y + dy,
        )
    }

    /// Rectangle expanded by an absolute margin on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect::new(
            self.lo.x - margin,
            self.lo.y - margin,
            self.hi.x + margin,
            self.hi.y + margin,
        )
    }

    /// Clamps a point into the rectangle (hi-exclusive by a tiny epsilon so
    /// the result always satisfies [`Rect::contains`]).
    #[inline]
    pub fn clamp_point(&self, p: Point) -> Point {
        self.clamp_box().clamp_closed(p)
    }

    /// The closed box [`Rect::clamp_point`] clamps into: `hi` pulled in by
    /// a tiny epsilon, never below `lo`. Compute it once to clamp many
    /// points with [`Rect::clamp_closed`]; the result is the same.
    #[inline]
    pub fn clamp_box(&self) -> Rect {
        let eps = 1e-9 * (1.0 + self.width().max(self.height()));
        Rect {
            lo: self.lo,
            hi: Point::new(
                (self.hi.x - eps).max(self.lo.x),
                (self.hi.y - eps).max(self.lo.y),
            ),
        }
    }

    /// Clamps a point into the rectangle with both edges inclusive.
    #[inline]
    pub fn clamp_closed(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.lo.x, self.hi.x),
            p.y.clamp(self.lo.y, self.hi.y),
        )
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            self.lo.x.min(other.lo.x),
            self.lo.y.min(other.lo.y),
            self.hi.x.max(other.hi.x),
            self.hi.y.max(other.hi.y),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.lo, self.hi)
    }
}

/// Orientation of a one-dimensional structure (row, rail, routing layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Horizontal: extends in x.
    Horizontal,
    /// Vertical: extends in y.
    Vertical,
}

impl Dir {
    /// The perpendicular direction.
    pub fn perp(self) -> Dir {
        match self {
            Dir::Horizontal => Dir::Vertical,
            Dir::Vertical => Dir::Horizontal,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Horizontal => write!(f, "H"),
            Dir::Vertical => write!(f, "V"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arith() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!((b - a), Point::new(3.0, 4.0));
        assert_eq!((b - a).norm(), 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!((a + b), Point::new(5.0, 8.0));
        assert_eq!(a.dot(b), 16.0);
    }

    #[test]
    fn normalized_unit_and_zero() {
        let v = Point::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(Point::new(0.0, 0.0).normalized().is_none());
    }

    #[test]
    fn rect_basics() {
        let r = Rect::new(0.0, 0.0, 10.0, 4.0);
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 40.0);
        assert_eq!(r.center(), Point::new(5.0, 2.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(!r.contains(Point::new(10.0, 2.0)));
    }

    #[test]
    fn rect_overlap() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(2.0, 2.0, 6.0, 6.0);
        assert_eq!(a.overlap_area(&b), 4.0);
        assert!(a.intersects(&b));
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.overlap_area(&c), 0.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn rect_touching_edges_do_not_intersect() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(4.0, 0.0, 8.0, 4.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn rect_expansion_fraction() {
        let r = Rect::new(10.0, 10.0, 20.0, 30.0);
        let e = r.expanded_fraction(0.1);
        assert!((e.width() - 12.0).abs() < 1e-12);
        assert!((e.height() - 24.0).abs() < 1e-12);
        assert_eq!(e.center(), r.center());
    }

    #[test]
    fn rect_clamp_point_stays_inside() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        let p = r.clamp_point(Point::new(50.0, -3.0));
        assert!(r.contains(p));
        let q = r.clamp_point(Point::new(5.0, 5.0));
        assert_eq!(q, Point::new(5.0, 5.0));
        let b = r.clamp_box();
        for p in [
            Point::new(50.0, -3.0),
            Point::new(-1.0, 10.0),
            Point::new(2.5, 9.5),
        ] {
            assert_eq!(b.clamp_closed(p), r.clamp_point(p));
        }
    }

    #[test]
    fn rect_union_covers_both() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(5.0, -1.0, 6.0, 1.0);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(0.0, -1.0, 6.0, 2.0));
    }

    #[test]
    fn dir_perp() {
        assert_eq!(Dir::Horizontal.perp(), Dir::Vertical);
        assert_eq!(Dir::Vertical.perp(), Dir::Horizontal);
        assert_eq!(format!("{}/{}", Dir::Horizontal, Dir::Vertical), "H/V");
    }
}
