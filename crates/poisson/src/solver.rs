//! Spectral solver for the placement Poisson problem (Eq. (1) of the
//! paper, following ePlace):
//!
//! ```text
//!   ∇·∇ψ(x,y) = −ρ(x,y)   in R,
//!   n·∇ψ(x,y) = 0          on ∂R   (Neumann),
//!   ∬ρ = ∬ψ = 0            (compatibility / zero mean).
//! ```
//!
//! With Neumann boundaries the eigenbasis is the half-sample-shifted
//! cosine basis, so the solution is three fast transforms: a forward 2-D
//! DCT of ρ, a frequency-domain division by `w_u² + w_v²`, and inverse
//! cosine/sine evaluations for the potential ψ and the field
//! `E = −∇ψ`.
//!
//! The same solver serves both uses in the paper: cell density (charge =
//! cell area, Section II-A) and routing congestion (charge = demand ÷
//! capacity, Section II-B).

use crate::dct::{idct_with, idxst_with, transpose_tiled, DctScratch};
use crate::fft::is_power_of_two;
use rdp_par::{chunk_len, Pool};

/// Potential and field returned by [`PoissonSolver::solve`], all row-major
/// `nx × ny` grids sampled at bin centers.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonSolution {
    /// Electric potential ψ.
    pub psi: Vec<f64>,
    /// Field x-component `E_x = −∂ψ/∂x`.
    pub ex: Vec<f64>,
    /// Field y-component `E_y = −∂ψ/∂y`.
    pub ey: Vec<f64>,
}

/// Spectral Neumann Poisson solver on a fixed `nx × ny` grid covering a
/// `width × height` physical region.
///
/// ```
/// use rdp_poisson::PoissonSolver;
///
/// let solver = PoissonSolver::new(8, 8, 80.0, 80.0);
/// // a centered positive charge blob
/// let mut rho = vec![0.0; 64];
/// rho[8 * 4 + 4] = 1.0;
/// let sol = solver.solve(&rho);
/// // zero-mean potential (compatibility condition)
/// let mean: f64 = sol.psi.iter().sum::<f64>() / 64.0;
/// assert!(mean.abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonSolver {
    nx: usize,
    ny: usize,
    /// Frequencies w_u = πu / width.
    wx: Vec<f64>,
    /// Frequencies w_v = πv / height.
    wy: Vec<f64>,
}

impl PoissonSolver {
    /// Creates a solver for an `nx × ny` grid over a `width × height`
    /// region (microns).
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are powers of two ≥ 2 and the region
    /// has positive extent.
    pub fn new(nx: usize, ny: usize, width: f64, height: f64) -> Self {
        assert!(
            is_power_of_two(nx) && is_power_of_two(ny) && nx >= 2 && ny >= 2,
            "grid dims must be powers of two >= 2, got {nx}x{ny}"
        );
        assert!(
            width > 0.0 && height > 0.0,
            "region must have positive size"
        );
        let wx = (0..nx)
            .map(|u| std::f64::consts::PI * u as f64 / width)
            .collect();
        let wy = (0..ny)
            .map(|v| std::f64::consts::PI * v as f64 / height)
            .collect();
        PoissonSolver { nx, ny, wx, wy }
    }

    /// Non-panicking [`PoissonSolver::new`]: returns a typed error on bad
    /// grid dimensions or a degenerate region instead of aborting.
    pub fn try_new(
        nx: usize,
        ny: usize,
        width: f64,
        height: f64,
    ) -> Result<Self, rdp_guard::RdpError> {
        if !(is_power_of_two(nx) && is_power_of_two(ny) && nx >= 2 && ny >= 2) {
            return Err(rdp_guard::RdpError::Config {
                detail: format!("poisson grid dims must be powers of two >= 2, got {nx}x{ny}"),
            });
        }
        if !(width > 0.0 && height > 0.0) || !width.is_finite() || !height.is_finite() {
            return Err(rdp_guard::RdpError::Config {
                detail: format!(
                    "poisson region must have positive finite size, got {width}x{height}"
                ),
            });
        }
        Ok(PoissonSolver::new(nx, ny, width, height))
    }

    /// [`PoissonSolver::solve`] with input/output health sentinels: the
    /// charge map must be the right size and finite, and the returned
    /// ψ/E fields are scanned before being handed back.
    pub fn solve_checked(
        &self,
        rho: &[f64],
        health: &rdp_guard::HealthPolicy,
    ) -> Result<PoissonSolution, rdp_guard::RdpError> {
        use rdp_guard::Stage;
        if rho.len() != self.nx * self.ny {
            return Err(rdp_guard::RdpError::Config {
                detail: format!(
                    "poisson charge buffer has {} entries, grid wants {}",
                    rho.len(),
                    self.nx * self.ny
                ),
            });
        }
        health.check_slice(Stage::Poisson, "charge density", None, rho)?;
        let sol = self.solve(rho);
        health.check_slice(Stage::Poisson, "potential psi", None, &sol.psi)?;
        health.check_slice(Stage::Poisson, "field ex", None, &sol.ex)?;
        health.check_slice(Stage::Poisson, "field ey", None, &sol.ey)?;
        Ok(sol)
    }

    /// Grid width in bins.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in bins.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Solves `∇²ψ = −ρ` and returns ψ together with `E = −∇ψ`.
    ///
    /// The mean of `rho` is implicitly removed (the DC mode is dropped),
    /// enforcing the compatibility condition; callers may pass any map.
    ///
    /// Every 1-D transform inside the solve operates on its own row or
    /// column window of [`Pool::global`], so the result is bit-identical
    /// for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `rho.len() != nx * ny`.
    pub fn solve(&self, rho: &[f64]) -> PoissonSolution {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(rho.len(), nx * ny, "density buffer size mismatch");
        let pool = Pool::global();

        // Forward analysis: A[u,v] = Σ ρ cos·cos  (row-major, u along x).
        let a = crate::dct::dct2_2d(rho, nx, ny);

        // Series coefficients of ψ: the inverse-DCT normalization 4/(nx·ny)
        // and the ½ weights at u=0 / v=0 cancel against the full-weight
        // series evaluation below, leaving a single uniform constant.
        let norm = 4.0 / (nx as f64 * ny as f64);
        let mut q = vec![0.0; nx * ny];
        for v in 0..ny {
            for u in 0..nx {
                if u == 0 && v == 0 {
                    continue; // DC mode dropped: zero-mean ψ.
                }
                let w2 = self.wx[u] * self.wx[u] + self.wy[v] * self.wy[v];
                q[v * nx + u] = norm * a[v * nx + u] / w2;
            }
        }

        // ψ and E_y share their pass-1: E_y's row-v transform input is
        // wy[v]·q[v·nx..], and the per-row weight is constant along the
        // row, so E_y's pass-1 equals ψ's pass-1 scaled row-wise by wy[v].
        // One transform sweep (ny inverse DCTs) is replaced by nx·ny
        // multiplies. E_x cannot share: its pass-1 uses the sine basis.
        let t_cos = self.pass1(&q, Basis::Cos, None, pool);
        let psi = self.pass2(&t_cos, Basis::Cos, pool);
        let ex = {
            let t = self.pass1(&q, Basis::Sin, Some(&self.wx), pool);
            self.pass2(&t, Basis::Cos, pool)
        };
        let ey = {
            let mut t = t_cos;
            for (v, row) in t.chunks_mut(nx).enumerate() {
                let w = self.wy[v];
                for x in row {
                    *x *= w;
                }
            }
            self.pass2(&t, Basis::Sin, pool)
        };
        PoissonSolution { psi, ex, ey }
    }

    /// Series-evaluation pass 1: transforms along u for every v,
    /// optionally premultiplying the coefficients by per-`u` weights (the
    /// ∂/∂x factor). Each row of the result is an independent 1-D inverse
    /// transform, so rows parallelize with no change to per-element
    /// arithmetic. A per-`v` weight is applied by the caller scaling the
    /// returned rows (constant along a row — see `solve`).
    fn pass1(&self, q: &[f64], bx: Basis, weight_x: Option<&[f64]>, pool: Pool) -> Vec<f64> {
        let (nx, ny) = (self.nx, self.ny);
        let mut t = vec![0.0; nx * ny];
        let row_chunk = chunk_len(ny, 32, 4);
        pool.for_chunks_mut(
            &mut t,
            row_chunk * nx,
            || (DctScratch::new(), vec![0.0; nx]),
            |(scratch, row), _ci, offset, window| {
                for (r, out_row) in window.chunks_mut(nx).enumerate() {
                    let v = offset / nx + r;
                    for u in 0..nx {
                        let mut c = q[v * nx + u];
                        if let Some(w) = weight_x {
                            c *= w[u];
                        }
                        // `idct` halves its k = 0 term; that halving is
                        // exactly the c₀ = ½ factor of the inverse-DCT
                        // normalization, so the coefficients are passed
                        // through unmodified.
                        row[u] = c;
                    }
                    match bx {
                        Basis::Cos => idct_with(row, out_row, scratch),
                        Basis::Sin => idxst_with(row, out_row, scratch),
                    }
                }
            },
        );
        t
    }

    /// Series-evaluation pass 2: transforms along v for every n. One
    /// cache-blocked transpose makes every column a contiguous slice (the
    /// former per-column gather walked the whole `t` buffer once per
    /// column), then a second transpose restores row-major order.
    fn pass2(&self, t: &[f64], by: Basis, pool: Pool) -> Vec<f64> {
        let (nx, ny) = (self.nx, self.ny);
        let mut tt = vec![0.0; nx * ny];
        transpose_tiled(t, nx, ny, &mut tt);
        let mut cols = vec![0.0; nx * ny];
        let col_chunk = chunk_len(nx, 32, 4);
        pool.for_chunks_mut(
            &mut cols,
            col_chunk * ny,
            DctScratch::new,
            |scratch, _ci, offset, window| {
                for (c, out_col) in window.chunks_mut(ny).enumerate() {
                    let n = offset / ny + c;
                    let col = &tt[n * ny..(n + 1) * ny];
                    match by {
                        Basis::Cos => idct_with(col, out_col, scratch),
                        Basis::Sin => idxst_with(col, out_col, scratch),
                    }
                }
            },
        );
        let mut out = vec![0.0; nx * ny];
        transpose_tiled(&cols, ny, nx, &mut out);
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Basis {
    Cos,
    Sin,
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI: f64 = std::f64::consts::PI;

    /// Single (u0,v0) cosine mode must be an exact eigenfunction.
    #[test]
    fn single_mode_eigenfunction() {
        let (nx, ny) = (16, 8);
        let (w, h) = (32.0, 16.0);
        let solver = PoissonSolver::new(nx, ny, w, h);
        let (u0, v0) = (3usize, 2usize);
        let wu = PI * u0 as f64 / w;
        let wv = PI * v0 as f64 / h;
        let mut rho = vec![0.0; nx * ny];
        for m in 0..ny {
            for n in 0..nx {
                rho[m * nx + n] = (PI * u0 as f64 * (n as f64 + 0.5) / nx as f64).cos()
                    * (PI * v0 as f64 * (m as f64 + 0.5) / ny as f64).cos();
            }
        }
        let sol = solver.solve(&rho);
        let k = 1.0 / (wu * wu + wv * wv);
        for m in 0..ny {
            for n in 0..nx {
                let expected_psi = k * rho[m * nx + n];
                assert!(
                    (sol.psi[m * nx + n] - expected_psi).abs() < 1e-9,
                    "psi({n},{m}) = {} expected {expected_psi}",
                    sol.psi[m * nx + n]
                );
                let expected_ex = k
                    * wu
                    * (PI * u0 as f64 * (n as f64 + 0.5) / nx as f64).sin()
                    * (PI * v0 as f64 * (m as f64 + 0.5) / ny as f64).cos();
                assert!(
                    (sol.ex[m * nx + n] - expected_ex).abs() < 1e-9,
                    "ex({n},{m}) = {} expected {expected_ex}",
                    sol.ex[m * nx + n]
                );
                let expected_ey = k
                    * wv
                    * (PI * u0 as f64 * (n as f64 + 0.5) / nx as f64).cos()
                    * (PI * v0 as f64 * (m as f64 + 0.5) / ny as f64).sin();
                assert!((sol.ey[m * nx + n] - expected_ey).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn constant_density_gives_zero_everything() {
        let solver = PoissonSolver::new(8, 8, 10.0, 10.0);
        let rho = vec![2.5; 64];
        let sol = solver.solve(&rho);
        for i in 0..64 {
            assert!(sol.psi[i].abs() < 1e-9);
            assert!(sol.ex[i].abs() < 1e-9);
            assert!(sol.ey[i].abs() < 1e-9);
        }
    }

    #[test]
    fn psi_has_zero_mean() {
        let solver = PoissonSolver::new(16, 16, 50.0, 50.0);
        let rho: Vec<f64> = (0..256).map(|i| ((i * 31 % 13) as f64) - 3.0).collect();
        let sol = solver.solve(&rho);
        let mean: f64 = sol.psi.iter().sum::<f64>() / 256.0;
        assert!(mean.abs() < 1e-9);
    }

    /// A positive charge blob pushes test charges away: E points outward.
    #[test]
    fn field_points_away_from_charge() {
        let (nx, ny) = (32, 32);
        let solver = PoissonSolver::new(nx, ny, 64.0, 64.0);
        let mut rho = vec![0.0; nx * ny];
        // Blob around (10, 16).
        for m in 14..19 {
            for n in 8..13 {
                rho[m * nx + n] = 1.0;
            }
        }
        let sol = solver.solve(&rho);
        // Right of the blob, Ex must be positive (pointing right/away);
        // left of the blob, negative.
        let m = 16;
        assert!(
            sol.ex[m * nx + 16] > 0.0,
            "ex right of blob: {}",
            sol.ex[m * nx + 16]
        );
        assert!(
            sol.ex[m * nx + 4] < 0.0,
            "ex left of blob: {}",
            sol.ex[m * nx + 4]
        );
        // Above the blob Ey > 0, below Ey < 0.
        let n = 10;
        assert!(sol.ey[22 * nx + n] > 0.0);
        assert!(sol.ey[10 * nx + n] < 0.0);
        // Potential is highest at the blob.
        let peak = sol.psi[16 * nx + 10];
        assert!(peak >= sol.psi[16 * nx + 30]);
        assert!(peak >= sol.psi[2 * nx + 10]);
    }

    /// E must approximate −∇ψ: central finite differences on a smooth blob.
    #[test]
    fn field_is_negative_gradient_of_potential() {
        let (nx, ny) = (32, 32);
        let (w, h) = (32.0, 32.0);
        let solver = PoissonSolver::new(nx, ny, w, h);
        let mut rho = vec![0.0; nx * ny];
        for m in 0..ny {
            for n in 0..nx {
                let dx = (n as f64 - 15.5) / 4.0;
                let dy = (m as f64 - 15.5) / 4.0;
                rho[m * nx + n] = (-0.5 * (dx * dx + dy * dy)).exp();
            }
        }
        let sol = solver.solve(&rho);
        let hx = w / nx as f64;
        let hy = h / ny as f64;
        let mut max_rel = 0.0f64;
        for m in 2..ny - 2 {
            for n in 2..nx - 2 {
                let dpsi_dx = (sol.psi[m * nx + n + 1] - sol.psi[m * nx + n - 1]) / (2.0 * hx);
                let dpsi_dy = (sol.psi[(m + 1) * nx + n] - sol.psi[(m - 1) * nx + n]) / (2.0 * hy);
                let scale = sol.ex[m * nx + n].abs().max(0.05);
                max_rel = max_rel.max(((sol.ex[m * nx + n] + dpsi_dx) / scale).abs());
                let scale_y = sol.ey[m * nx + n].abs().max(0.05);
                max_rel = max_rel.max(((sol.ey[m * nx + n] + dpsi_dy) / scale_y).abs());
            }
        }
        assert!(max_rel < 0.08, "max relative deviation {max_rel}");
    }

    /// Discrete Laplacian of ψ reproduces −ρ in the interior for a smooth,
    /// band-limited density.
    #[test]
    fn laplacian_residual_small_for_smooth_density() {
        let (nx, ny) = (64, 64);
        let (w, h) = (64.0, 64.0);
        let solver = PoissonSolver::new(nx, ny, w, h);
        // Smooth low-frequency density, zero mean by construction below.
        let mut rho = vec![0.0; nx * ny];
        for m in 0..ny {
            for n in 0..nx {
                rho[m * nx + n] = (PI * 2.0 * (n as f64 + 0.5) / nx as f64).cos()
                    + 0.5 * (PI * 3.0 * (m as f64 + 0.5) / ny as f64).cos();
            }
        }
        let sol = solver.solve(&rho);
        let hx = w / nx as f64;
        for m in 1..ny - 1 {
            for n in 1..nx - 1 {
                let lap = (sol.psi[m * nx + n + 1]
                    + sol.psi[m * nx + n - 1]
                    + sol.psi[(m + 1) * nx + n]
                    + sol.psi[(m - 1) * nx + n]
                    - 4.0 * sol.psi[m * nx + n])
                    / (hx * hx);
                // 2nd-order FD error for these low frequencies is ≲ 1 %.
                assert!(
                    (lap + rho[m * nx + n]).abs() < 0.02,
                    "residual at ({n},{m}): {}",
                    (lap + rho[m * nx + n]).abs()
                );
            }
        }
    }

    #[test]
    fn linearity_of_solver() {
        let solver = PoissonSolver::new(8, 8, 8.0, 8.0);
        let r1: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let r2: Vec<f64> = (0..64).map(|i| ((i * 3) % 5) as f64 - 2.0).collect();
        let sum: Vec<f64> = r1.iter().zip(&r2).map(|(a, b)| 2.0 * a + b).collect();
        let s1 = solver.solve(&r1);
        let s2 = solver.solve(&r2);
        let s = solver.solve(&sum);
        for i in 0..64 {
            assert!((s.psi[i] - (2.0 * s1.psi[i] + s2.psi[i])).abs() < 1e-9);
            assert!((s.ex[i] - (2.0 * s1.ex[i] + s2.ex[i])).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn bad_dims_panic() {
        PoissonSolver::new(12, 8, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn bad_buffer_panics() {
        let s = PoissonSolver::new(8, 8, 1.0, 1.0);
        s.solve(&[0.0; 10]);
    }

    #[test]
    fn try_new_rejects_bad_config_without_panicking() {
        assert!(PoissonSolver::try_new(12, 8, 1.0, 1.0).is_err());
        assert!(PoissonSolver::try_new(8, 8, 0.0, 1.0).is_err());
        assert!(PoissonSolver::try_new(8, 8, f64::NAN, 1.0).is_err());
        assert!(PoissonSolver::try_new(8, 8, 8.0, 8.0).is_ok());
    }

    #[test]
    fn solve_checked_flags_bad_charge_and_matches_solve() {
        let s = PoissonSolver::new(8, 8, 8.0, 8.0);
        let health = rdp_guard::HealthPolicy::default();
        // Wrong size: typed error, no panic.
        assert!(s.solve_checked(&[0.0; 10], &health).is_err());
        // NaN charge: typed error.
        let mut rho = vec![0.0; 64];
        rho[5] = f64::NAN;
        assert!(s.solve_checked(&rho, &health).is_err());
        // Healthy charge: identical to the unchecked path.
        rho[5] = 1.0;
        let a = s.solve(&rho);
        let b = s.solve_checked(&rho, &health).unwrap();
        assert_eq!(a, b);
    }
}
