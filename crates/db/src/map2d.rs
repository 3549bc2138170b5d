//! Dense 2-D maps over a uniform grid.
//!
//! [`Map2d`] is the common currency between the router (demand / capacity /
//! congestion maps), the Poisson solver (charge density, potential, field),
//! and the placer (bin densities). Storage is row-major: index
//! `(ix, iy) → iy * nx + ix` where `ix ∈ [0, nx)` runs along x.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `nx × ny` grid of values.
#[derive(Clone, PartialEq)]
pub struct Map2d<T> {
    nx: usize,
    ny: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> Map2d<T> {
    /// Creates a map filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "Map2d dimensions must be positive");
        Map2d {
            nx,
            ny,
            data: vec![T::default(); nx * ny],
        }
    }

    /// Creates a map filled with copies of `value`.
    pub fn filled(nx: usize, ny: usize, value: T) -> Self {
        assert!(nx > 0 && ny > 0, "Map2d dimensions must be positive");
        Map2d {
            nx,
            ny,
            data: vec![value; nx * ny],
        }
    }

    /// Resets every element to `T::default()`.
    pub fn clear(&mut self) {
        self.data.fill(T::default());
    }
}

impl<T> Map2d<T> {
    /// Builds a map from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx * ny`.
    pub fn from_vec(nx: usize, ny: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), nx * ny, "buffer length mismatch");
        Map2d { nx, ny, data }
    }

    /// Number of columns (extent in x).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows (extent in y).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map has no elements (never true: dimensions are positive).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the map and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Bounds-checked access.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> Option<&T> {
        if ix < self.nx && iy < self.ny {
            Some(&self.data[iy * self.nx + ix])
        } else {
            None
        }
    }

    /// Bounds-checked mutable access.
    #[inline]
    pub fn get_mut(&mut self, ix: usize, iy: usize) -> Option<&mut T> {
        if ix < self.nx && iy < self.ny {
            Some(&mut self.data[iy * self.nx + ix])
        } else {
            None
        }
    }

    /// Iterates over `(ix, iy, &value)` in row-major order.
    pub fn iter_coords(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let nx = self.nx;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (i % nx, i / nx, v))
    }

    /// Row `iy` as a contiguous slice (the fast path for row sweeps —
    /// no per-element index arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if `iy >= ny`.
    #[inline]
    pub fn row(&self, iy: usize) -> &[T] {
        &self.data[iy * self.nx..(iy + 1) * self.nx]
    }

    /// Mutable row `iy` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `iy >= ny`.
    #[inline]
    pub fn row_mut(&mut self, iy: usize) -> &mut [T] {
        &mut self.data[iy * self.nx..(iy + 1) * self.nx]
    }

    /// Iterates over rows bottom-up (`iy = 0` first), each a contiguous
    /// slice of length `nx`.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.nx)
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }
}

/// Fixed accumulator lane width for the `Map2d<f64>` reductions: four
/// independent partials folded in a fixed pairwise order, so the
/// operation sequence depends only on the element count (thread-count
/// invariant by construction) while LLVM gets a clean `f64x4` reduction.
/// Changing this changes last-bit sums and requires a bench re-baseline
/// (DESIGN.md §11).
const LANES: usize = 4;

impl Map2d<f64> {
    /// Sum of all elements (fixed-width reduction over `LANES` = 4 lanes).
    pub fn sum(&self) -> f64 {
        let mut acc = [0.0f64; LANES];
        let mut chunks = self.data.chunks_exact(LANES);
        for c in &mut chunks {
            for l in 0..LANES {
                acc[l] += c[l];
            }
        }
        for (l, &x) in chunks.remainder().iter().enumerate() {
            acc[l] += x;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// Maximum element (`-inf` is impossible: maps are non-empty).
    pub fn max(&self) -> f64 {
        let mut acc = [f64::NEG_INFINITY; LANES];
        let mut chunks = self.data.chunks_exact(LANES);
        for c in &mut chunks {
            for l in 0..LANES {
                acc[l] = acc[l].max(c[l]);
            }
        }
        for (l, &x) in chunks.remainder().iter().enumerate() {
            acc[l] = acc[l].max(x);
        }
        (acc[0].max(acc[1])).max(acc[2].max(acc[3]))
    }

    /// Minimum element.
    pub fn min(&self) -> f64 {
        let mut acc = [f64::INFINITY; LANES];
        let mut chunks = self.data.chunks_exact(LANES);
        for c in &mut chunks {
            for l in 0..LANES {
                acc[l] = acc[l].min(c[l]);
            }
        }
        for (l, &x) in chunks.remainder().iter().enumerate() {
            acc[l] = acc[l].min(x);
        }
        (acc[0].min(acc[1])).min(acc[2].min(acc[3]))
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Adds `other` element-wise.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add_assign_map(&mut self, other: &Map2d<f64>) {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Renders a coarse ASCII heat map (darker character = larger value),
    /// top row printed first. Intended for the figure harness binaries.
    pub fn ascii_heatmap(&self, max_cols: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let step_x = (self.nx + max_cols - 1) / max_cols;
        let step_y = step_x;
        let hi = self.max().max(1e-12);
        let mut out = String::new();
        let mut iy = self.ny;
        while iy > 0 {
            let y0 = iy.saturating_sub(step_y);
            for x0 in (0..self.nx).step_by(step_x) {
                let mut acc: f64 = 0.0;
                let mut cnt = 0usize;
                for yy in y0..iy {
                    for xx in x0..(x0 + step_x).min(self.nx) {
                        acc += self.data[yy * self.nx + xx];
                        cnt += 1;
                    }
                }
                let v = if cnt == 0 { 0.0 } else { acc / cnt as f64 };
                let idx = ((v / hi) * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
            }
            out.push('\n');
            iy = y0;
        }
        out
    }
}

impl<T> Index<(usize, usize)> for Map2d<T> {
    type Output = T;
    #[inline]
    fn index(&self, (ix, iy): (usize, usize)) -> &T {
        debug_assert!(ix < self.nx && iy < self.ny, "Map2d index out of bounds");
        &self.data[iy * self.nx + ix]
    }
}

impl<T> IndexMut<(usize, usize)> for Map2d<T> {
    #[inline]
    fn index_mut(&mut self, (ix, iy): (usize, usize)) -> &mut T {
        debug_assert!(ix < self.nx && iy < self.ny, "Map2d index out of bounds");
        &mut self.data[iy * self.nx + ix]
    }
}

impl<T: fmt::Debug> fmt::Debug for Map2d<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Map2d<{}x{}>", self.nx, self.ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_layout_row_major() {
        let mut m = Map2d::<f64>::new(3, 2);
        m[(2, 1)] = 7.0;
        assert_eq!(m.as_slice()[1 * 3 + 2], 7.0);
        assert_eq!(m[(2, 1)], 7.0);
        assert_eq!(m.get(2, 1), Some(&7.0));
        assert_eq!(m.get(3, 0), None);
        assert_eq!(m.get(0, 2), None);
    }

    #[test]
    fn stats() {
        let m = Map2d::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.mean(), 2.5);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Map2d::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Map2d::from_vec(2, 1, vec![10.0, 20.0]);
        a.add_assign_map(&b);
        a.scale_in_place(0.5);
        assert_eq!(a.as_slice(), &[5.5, 11.0]);
    }

    #[test]
    #[should_panic]
    fn add_dimension_mismatch_panics() {
        let mut a = Map2d::<f64>::new(2, 2);
        let b = Map2d::<f64>::new(3, 2);
        a.add_assign_map(&b);
    }

    #[test]
    fn iter_coords_covers_all() {
        let m = Map2d::from_vec(2, 2, vec![0, 1, 2, 3]);
        let v: Vec<_> = m.iter_coords().map(|(x, y, &v)| (x, y, v)).collect();
        assert_eq!(v, vec![(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 3)]);
    }

    #[test]
    fn clear_resets() {
        let mut m = Map2d::filled(2, 2, 5.0f64);
        m.clear();
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn row_accessors_match_layout() {
        let m = Map2d::from_vec(3, 2, vec![0, 1, 2, 10, 11, 12]);
        assert_eq!(m.row(0), &[0, 1, 2]);
        assert_eq!(m.row(1), &[10, 11, 12]);
        let rows: Vec<_> = m.rows().collect();
        assert_eq!(rows, vec![&[0, 1, 2][..], &[10, 11, 12][..]]);
        let mut m = m;
        m.row_mut(1)[2] = 99;
        assert_eq!(m[(2, 1)], 99);
    }

    #[test]
    fn lane_reductions_cover_remainders() {
        // Lengths exercising 0..LANES-1 remainder lanes.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9] {
            let data: Vec<f64> = (0..n).map(|i| (i as f64 - 2.5) * 1.3).collect();
            let m = Map2d::from_vec(n, 1, data.clone());
            let naive_sum: f64 = data.iter().sum();
            assert!((m.sum() - naive_sum).abs() < 1e-12, "sum n={n}");
            let naive_max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let naive_min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(m.max(), naive_max, "max n={n}");
            assert_eq!(m.min(), naive_min, "min n={n}");
        }
    }

    #[test]
    fn ascii_heatmap_shape() {
        let m = Map2d::from_vec(4, 4, (0..16).map(|i| i as f64).collect());
        let s = m.ascii_heatmap(4);
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == 4));
    }
}
