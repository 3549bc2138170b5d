//! Electrostatic density model (ePlace): bin densities from (optionally
//! inflated) cell areas plus the paper's dynamic PG-rail density, the
//! potential/field from the Poisson solver, the density penalty
//! `D = ½·Σ Aᵢψᵢ`, and its gradient `∇ᵢD = −Aᵢ·E(xᵢ)`.

use rdp_db::{CellKind, Design, GridSpec, Map2d, Point};
use rdp_obs::Collector;
use rdp_par::{chunk_len, Pool};
use rdp_poisson::PoissonSolver;

/// Cells per binning chunk: at most 16 chunks bound the per-chunk bin
/// maps' memory; the floor keeps scheduling overhead negligible.
fn cell_chunk(num_cells: usize) -> usize {
    chunk_len(num_cells, 16, 128)
}

/// Bin index of the grid coordinate `f` (in bins), clamped into
/// `0..n`: `(f.floor().max(0.0) as usize).min(n - 1)` without the
/// `floor`, which baseline x86-64 lowers to a libm call. After
/// `max(0.0)` the value is ≥ 0 (NaN maps to 0.0), and for such values
/// `as usize` truncation equals `floor` — saturating to `usize::MAX` past
/// the top, exactly as the floored cast does — so the index is unchanged.
#[inline]
fn clamp_bin(f: f64, n: usize) -> usize {
    (f.max(0.0) as usize).min(n - 1)
}

/// Accumulator lane count for flat reductions. Part of the numeric
/// contract: changing it reorders sums and requires re-baselining
/// (DESIGN.md §11).
const LANES: usize = 4;

/// Electro-density state for one gradient evaluation.
#[derive(Debug, Clone)]
pub struct DensityField {
    /// Bin utilization ρ_b (dimensionless, 1.0 = full).
    pub density: Map2d<f64>,
    /// Electric potential ψ on bins.
    pub psi: Map2d<f64>,
    /// Field x-component (−∂ψ/∂x).
    pub ex: Map2d<f64>,
    /// Field y-component.
    pub ey: Map2d<f64>,
    /// Density overflow τ = Σ_b max(ρ_b − target, 0)·A_b / Σ movable area.
    pub overflow: f64,
}

/// Density model bound to a design's bin grid.
#[derive(Debug, Clone)]
pub struct DensityModel {
    grid: GridSpec,
    solver: PoissonSolver,
    /// Observability sink (disabled by default; timing only, never read).
    obs: Collector,
}

impl DensityModel {
    /// Creates the model on the design's G-cell grid (bins ≡ G-cells,
    /// Section II-B of the paper).
    pub fn new(design: &Design) -> Self {
        let grid = design.gcell_grid();
        let solver = PoissonSolver::new(
            grid.nx(),
            grid.ny(),
            grid.region().width(),
            grid.region().height(),
        );
        DensityModel {
            grid,
            solver,
            obs: Collector::disabled(),
        }
    }

    /// Attaches an observability collector; spans cover the density/Poisson
    /// kernels from then on.
    pub fn set_obs(&mut self, obs: Collector) {
        self.obs = obs;
    }

    /// The bin grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Computes bin densities and solves the Poisson problem.
    ///
    /// * `inflation` — optional per-cell **area** inflation ratios
    ///   (indexed by cell id; only movable cells are inflated).
    /// * `extra_density` — optional additive density map (the DPA term
    ///   `D^PG` of Eq. (14)).
    /// * `target` — target utilization for the overflow metric.
    pub fn compute(
        &self,
        design: &Design,
        inflation: Option<&[f64]>,
        extra_density: Option<&Map2d<f64>>,
        target: f64,
    ) -> DensityField {
        self.compute_with(design, inflation, extra_density, target, Pool::global())
    }

    /// [`compute`](DensityModel::compute) on an explicit pool.
    ///
    /// Cells are binned into per-chunk density maps (fixed chunking over
    /// the cell array) that are merged in chunk order, so the entire field
    /// is bit-identical for any thread count.
    pub fn compute_with(
        &self,
        design: &Design,
        inflation: Option<&[f64]>,
        extra_density: Option<&Map2d<f64>>,
        target: f64,
        pool: Pool,
    ) -> DensityField {
        let _span = self.obs.span("density_field", "gp");
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let bin_area = self.grid.bin_area();
        let n = design.num_cells();
        let chunk = cell_chunk(n);

        let bin_w = self.grid.bin_w();
        let bin_h = self.grid.bin_h();
        let region_lo = self.grid.region().lo;
        let (inv_bw, inv_bh) = (1.0 / bin_w, 1.0 / bin_h);
        // Division-free bin-range quantization (`clamp_bin` of the
        // reciprocal products), local to this kernel: a
        // reciprocal-rounding off-by-one at an exact bin boundary only
        // adds a bin whose clamped overlap width is exactly 0.0, so the
        // accumulated density is unaffected (the shared
        // `GridSpec::bins_overlapping` keeps the true division because
        // its callers rely on the exclusive-boundary index itself).
        let cells = design.cells();
        let positions = design.positions();
        let parts = pool.map_chunks(n, chunk, |_ci, range| {
            let mut local = Map2d::new(nx, ny);
            // Per-column overlap widths of the current cell rect, already
            // divided by the bin area. The overlap fraction factors as
            // (width(ix)/A_b)·height(iy), so computing the scaled widths
            // once per cell (instead of per bin) removes the redundant
            // min/max and the division from the inner loop.
            let mut wx: Vec<f64> = Vec::new();
            for i in range {
                let cell = &cells[i];
                if cell.kind == CellKind::Terminal {
                    continue;
                }
                let scale = match inflation {
                    Some(r) if cell.is_movable() => r[i].max(0.0).sqrt(),
                    _ => 1.0,
                };
                let rect = rdp_db::Rect::centered(positions[i], cell.w * scale, cell.h * scale);
                let x0 = clamp_bin((rect.lo.x - region_lo.x) * inv_bw, nx);
                let y0 = clamp_bin((rect.lo.y - region_lo.y) * inv_bh, ny);
                let x1 = clamp_bin((rect.hi.x - region_lo.x) * inv_bw, nx).max(x0);
                let y1 = clamp_bin((rect.hi.y - region_lo.y) * inv_bh, ny).max(y0);
                wx.clear();
                for ix in x0..=x1 {
                    let bx0 = region_lo.x + ix as f64 * bin_w;
                    let bx1 = bx0 + bin_w;
                    wx.push((bx1.min(rect.hi.x) - bx0.max(rect.lo.x)).max(0.0) / bin_area);
                }
                for iy in y0..=y1 {
                    let by0 = region_lo.y + iy as f64 * bin_h;
                    let by1 = by0 + bin_h;
                    let h = (by1.min(rect.hi.y) - by0.max(rect.lo.y)).max(0.0);
                    let row = &mut local.row_mut(iy)[x0..=x1];
                    for (cell_bin, &w) in row.iter_mut().zip(wx.iter()) {
                        *cell_bin += w * h;
                    }
                }
            }
            local
        });
        // Ordered merge: chunk 0 first, chunk k last.
        let mut density = Map2d::new(nx, ny);
        for part in &parts {
            density.add_assign_map(part);
        }
        if let Some(extra) = extra_density {
            density.add_assign_map(extra);
        }

        let sol = {
            let _poisson = self.obs.span("poisson_solve", "gp");
            self.solver.solve_with(density.as_slice(), pool)
        };
        let psi = Map2d::from_vec(nx, ny, sol.psi);
        let ex = Map2d::from_vec(nx, ny, sol.ex);
        let ey = Map2d::from_vec(nx, ny, sol.ey);

        // Overflow against the target utilization: branch-free lane
        // accumulation over the flat bin slice (fixed LANES partials,
        // fixed pairwise fold — see DESIGN.md §11).
        let vals = density.as_slice();
        let mut lanes = [0.0f64; LANES];
        let mut chunks = vals.chunks_exact(LANES);
        for c in chunks.by_ref() {
            for (lane, &d) in lanes.iter_mut().zip(c.iter()) {
                *lane += (d - target).max(0.0);
            }
        }
        let mut tail = 0.0;
        for &d in chunks.remainder() {
            tail += (d - target).max(0.0);
        }
        let over = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail) * bin_area;
        let movable_area: f64 = design.movable_area().max(1e-12);
        let overflow = over / movable_area;

        DensityField {
            density,
            psi,
            ex,
            ey,
            overflow,
        }
    }

    /// Accumulates `λ·∇D` into `grad`: for each movable cell,
    /// `∇ᵢD = −Aᵢ·E(xᵢ)` (inflated area as the charge). Returns the
    /// density penalty `D = ½ Σ Aᵢ ψ(xᵢ)` over the movable cells, sampled
    /// in the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != design.num_cells()`.
    pub fn accumulate_gradient(
        &self,
        design: &Design,
        field: &DensityField,
        inflation: Option<&[f64]>,
        lambda: f64,
        grad: &mut [Point],
    ) -> f64 {
        self.accumulate_gradient_with(design, field, inflation, lambda, grad, Pool::global())
    }

    /// [`accumulate_gradient`](DensityModel::accumulate_gradient) on an
    /// explicit pool. Each cell's entry is updated exactly once from a
    /// disjoint chunk of the gradient buffer, and the penalty is summed
    /// per `cell_chunk` chunk in cell order, then over the chunks in
    /// chunk order, so both are bit-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != design.num_cells()`.
    pub fn accumulate_gradient_with(
        &self,
        design: &Design,
        field: &DensityField,
        inflation: Option<&[f64]>,
        lambda: f64,
        grad: &mut [Point],
        pool: Pool,
    ) -> f64 {
        assert_eq!(
            grad.len(),
            design.num_cells(),
            "one gradient entry per cell"
        );
        let chunk = cell_chunk(grad.len());
        let cells = design.cells();
        let positions = design.positions();
        // One job per chunk: its window of the gradient and its penalty
        // partial.
        let mut jobs: Vec<(&mut [Point], f64)> = grad.chunks_mut(chunk).map(|w| (w, 0.0)).collect();
        pool.for_chunks_mut(
            &mut jobs,
            1,
            || (),
            |(), ci, _, job| {
                let (window, partial) = &mut job[0];
                let offset = ci * chunk;
                for (k, g) in window.iter_mut().enumerate() {
                    let i = offset + k;
                    let cell = &cells[i];
                    if !cell.is_movable() {
                        continue;
                    }
                    let a = cell.area() * inflation.map(|r| r[i]).unwrap_or(1.0);
                    let (psi, ex, ey) =
                        self.grid
                            .sample_bilinear3(&field.psi, &field.ex, &field.ey, positions[i]);
                    *partial += a * psi;
                    g.x -= lambda * a * ex;
                    g.y -= lambda * a * ey;
                }
            },
        );
        let penalty: f64 = jobs.into_iter().map(|(_, partial)| partial).sum();
        penalty * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, CellId, DesignBuilder, Rect, RoutingSpec};
    use rdp_testkit::{prop_assert_eq, prop_check, range, Gen, PropConfig, Rng};

    fn cluster_design() -> Design {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 64.0, 64.0));
        // A tight cluster near (16,32) and one lone cell at (48,32).
        let mut ids = Vec::new();
        for i in 0..9 {
            let dx = (i % 3) as f64 * 2.0;
            let dy = (i / 3) as f64 * 2.0;
            ids.push(b.add_cell(
                Cell::std(format!("c{i}"), 2.0, 2.0),
                Point::new(14.0 + dx, 30.0 + dy),
            ));
        }
        let lone = b.add_cell(Cell::std("lone", 2.0, 2.0), Point::new(48.0, 32.0));
        b.add_net(
            "n",
            vec![(ids[0], Point::default()), (lone, Point::default())],
        );
        b.routing(RoutingSpec::uniform(4, 8.0, 16, 16));
        b.build().unwrap()
    }

    #[test]
    fn density_mass_equals_cell_area() {
        let d = cluster_design();
        let m = DensityModel::new(&d);
        let f = m.compute(&d, None, None, 1.0);
        let mass = f.density.sum() * m.grid().bin_area();
        assert!((mass - 40.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn field_pushes_cluster_apart() {
        let d = cluster_design();
        let m = DensityModel::new(&d);
        let f = m.compute(&d, None, None, 1.0);
        let mut grad = vec![Point::default(); d.num_cells()];
        m.accumulate_gradient(&d, &f, None, 1.0, &mut grad);
        // Descent −grad must push the cluster's left cell left and right
        // cell right.
        let left = grad[0]; // cell at (14,30)
        let right = grad[2]; // cell at (18,30)
        assert!(-left.x < 0.0, "left cell moves left: {left:?}");
        assert!(-right.x >= -1e-12, "right cell moves right: {right:?}");
    }

    #[test]
    fn inflation_increases_local_density_and_overflow() {
        let d = cluster_design();
        let m = DensityModel::new(&d);
        let base = m.compute(&d, None, None, 0.5);
        let mut ratios = vec![1.0; d.num_cells()];
        for i in 0..9 {
            ratios[i] = 2.0;
        }
        let inflated = m.compute(&d, Some(&ratios), None, 0.5);
        assert!(inflated.density.max() > base.density.max());
        assert!(inflated.overflow > base.overflow);
    }

    #[test]
    fn extra_density_map_is_added() {
        let d = cluster_design();
        let m = DensityModel::new(&d);
        let mut extra = Map2d::new(16, 16);
        extra[(8, 8)] = 5.0;
        let f = m.compute(&d, None, Some(&extra), 1.0);
        let base = m.compute(&d, None, None, 1.0);
        assert!((f.density[(8, 8)] - base.density[(8, 8)] - 5.0).abs() < 1e-12);
        // Extra charge changes the field.
        assert_ne!(f.ex, base.ex);
    }

    #[test]
    fn penalty_decreases_when_cluster_spreads() {
        let mut d = cluster_design();
        let m = DensityModel::new(&d);
        let penalty = |d: &Design| {
            let f = m.compute(d, None, None, 1.0);
            let mut grad = vec![Point::default(); d.num_cells()];
            m.accumulate_gradient(d, &f, None, 1.0, &mut grad)
        };
        let before = penalty(&d);
        // Spread the cluster out.
        for i in 0..9 {
            let id = CellId::from_index(i);
            let p = d.pos(id);
            d.set_pos(
                id,
                Point::new(8.0 + (p.x - 16.0) * 6.0, 32.0 + (p.y - 32.0) * 6.0),
            );
        }
        let after = penalty(&d);
        assert!(after < before, "penalty {after} !< {before}");
    }

    #[test]
    fn overflow_zero_when_under_target() {
        let d = cluster_design();
        let m = DensityModel::new(&d);
        let f = m.compute(&d, None, None, 10.0);
        assert_eq!(f.overflow, 0.0);
    }

    /// Adversarial grid coordinates, in bins, for an axis of `n` bins:
    /// NaN, ±0, ±∞, subnormals, negatives in (−1, 0], exact bin edges
    /// and centres, one ulp either side of an edge, values past `n`,
    /// and plain in-range values.
    struct GridCoord {
        n: usize,
    }

    impl Gen for GridCoord {
        type Value = f64;
        fn generate(&self, rng: &mut Rng) -> f64 {
            const SPECIAL: [f64; 12] = [
                f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                5e-324,
                -5e-324,
                f64::MIN_POSITIVE / 3.0,
                -f64::MIN_POSITIVE / 3.0,
                f64::MAX,
                f64::MIN,
                18_446_744_073_709_551_616.0, // 2^64: saturates `as usize`
            ];
            let edge = rng.gen_range(0..=self.n + 2) as f64;
            match rng.gen_range(0u32..8) {
                0 => *rng.choose(&SPECIAL).expect("non-empty"),
                1 => -rng.next_f64(),
                2 => edge,
                3 => edge + 0.5,
                4 => edge.next_down(),
                5 => edge.next_up(),
                6 => self.n as f64 + rng.gen_range(0.0..1e6),
                _ => rng.gen_range(-2.0..self.n as f64 + 2.0),
            }
        }
    }

    #[test]
    fn floor_free_bin_index_matches_floored_index() {
        prop_check!(
            PropConfig::cases(2048),
            (GridCoord { n: 12 }, range(1usize..13)),
            |(f, n): (f64, usize)| {
                prop_assert_eq!(clamp_bin(f, n), (f.floor().max(0.0) as usize).min(n - 1));
                Ok(())
            }
        );
    }

    /// The bilinear samplers as they were with `floor`, for the bitwise
    /// comparison below (same expressions, same order).
    fn floored_bilinear2(g: &GridSpec, fa: &Map2d<f64>, fb: &Map2d<f64>, p: Point) -> (f64, f64) {
        let (nx, ny) = (g.nx(), g.ny());
        let gx = (p.x - g.region().lo.x) * (1.0 / g.bin_w()) - 0.5;
        let gy = (p.y - g.region().lo.y) * (1.0 / g.bin_h()) - 0.5;
        let gx = gx.clamp(0.0, (nx - 1) as f64);
        let gy = gy.clamp(0.0, (ny - 1) as f64);
        let x0 = gx.floor() as usize;
        let y0 = gy.floor() as usize;
        let x1 = (x0 + 1).min(nx - 1);
        let y1 = (y0 + 1).min(ny - 1);
        let tx = gx - x0 as f64;
        let ty = gy - y0 as f64;
        let sample = |f: &Map2d<f64>| {
            f[(x0, y0)] * (1.0 - tx) * (1.0 - ty)
                + f[(x1, y0)] * tx * (1.0 - ty)
                + f[(x0, y1)] * (1.0 - tx) * ty
                + f[(x1, y1)] * tx * ty
        };
        (sample(fa), sample(fb))
    }

    #[test]
    fn floor_free_samplers_match_floored_copy_bitwise() {
        let (nx, ny) = (10, 7);
        let g = GridSpec::new(Rect::new(-3.5, 2.0, 96.5, 52.0), nx, ny);
        let mut fa = Map2d::new(nx, ny);
        let mut fb = Map2d::new(nx, ny);
        for iy in 0..ny {
            for ix in 0..nx {
                fa[(ix, iy)] = ((ix * 7 + iy * 3) % 11) as f64 * 0.37 - 2.0;
                fb[(ix, iy)] = (ix as f64 * 1.3).sin() + iy as f64;
            }
        }
        prop_check!(
            PropConfig::cases(2048),
            (GridCoord { n: nx }, GridCoord { n: ny }, range(0u8..2)),
            |(cx, cy, raw): (f64, f64, u8)| {
                // Either the coordinate is the sampler's bin-centred grid
                // value, or (NaN, ±∞ and friends) the raw point itself.
                let p = if raw == 1 {
                    Point::new(cx, cy)
                } else {
                    let lo = g.region().lo;
                    Point::new(lo.x + (cx + 0.5) * g.bin_w(), lo.y + (cy + 0.5) * g.bin_h())
                };
                let (wa, wb) = floored_bilinear2(&g, &fa, &fb, p);
                let (a, b, c) = g.sample_bilinear3(&fa, &fb, &fa, p);
                prop_assert_eq!(a.to_bits(), wa.to_bits(), "bilinear3 a at {p:?}");
                prop_assert_eq!(b.to_bits(), wb.to_bits(), "bilinear3 b at {p:?}");
                prop_assert_eq!(c.to_bits(), wa.to_bits(), "bilinear3 c at {p:?}");
                let (sa, sb) = (g.sample_bilinear(&fa, p), g.sample_bilinear(&fb, p));
                prop_assert_eq!(sa.to_bits(), wa.to_bits(), "bilinear a at {p:?}");
                prop_assert_eq!(sb.to_bits(), wb.to_bits(), "bilinear b at {p:?}");
                Ok(())
            }
        );
    }

    #[test]
    fn macros_contribute_density_but_get_no_gradient() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 64.0, 64.0));
        let m0 = b.add_cell(Cell::fixed_macro("m", 16.0, 16.0), Point::new(32.0, 32.0));
        let a = b.add_cell(Cell::std("a", 2.0, 2.0), Point::new(8.0, 8.0));
        b.add_net("n", vec![(m0, Point::default()), (a, Point::default())]);
        b.routing(RoutingSpec::uniform(4, 8.0, 16, 16));
        let d = b.build().unwrap();
        let m = DensityModel::new(&d);
        let f = m.compute(&d, None, None, 1.0);
        assert!(f.density[(8, 8)] > 0.9); // macro-covered bin
        let mut grad = vec![Point::default(); d.num_cells()];
        m.accumulate_gradient(&d, &f, None, 1.0, &mut grad);
        assert_eq!(grad[0], Point::default()); // fixed macro untouched
        assert!(grad[1].x != 0.0 || grad[1].y != 0.0);
    }
}
