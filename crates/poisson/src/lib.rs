//! # rdp-poisson — spectral Poisson solver for electrostatic placement
//!
//! Implements the numerics behind ePlace-style electrostatic placement
//! (Lu et al., TODAES 2015), reused by the paper both for cell density and
//! for its differentiable routing-congestion function:
//!
//! * a radix-2 complex [FFT](fft_in_place),
//! * fast DCT-II / DCT-III / shifted-DST transforms ([`dct2`], [`idct`],
//!   [`idxst`]),
//! * the Neumann-boundary [`PoissonSolver`] returning potential ψ and field
//!   `E = −∇ψ` on the bin grid.
//!
//! The crate operates on plain `&[f64]` row-major buffers so it can be
//! reused outside the placement stack. The 2-D transform and the solve
//! run on [`rdp_par::Pool::global`], whose width `RDP_THREADS`,
//! `set_global_threads` or a `with_local_threads` scope sets; results are
//! bit-identical for any thread count — see the `rdp-par` crate docs for
//! the determinism contract.
//!
//! ```
//! use rdp_poisson::PoissonSolver;
//!
//! let solver = PoissonSolver::new(16, 16, 100.0, 100.0);
//! let mut rho = vec![0.0; 256];
//! rho[16 * 8 + 8] = 4.0; // a point charge
//! let sol = solver.solve(&rho);
//! assert_eq!(sol.psi.len(), 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod dct;
mod fft;
mod solver;

pub use complex::Complex;
pub use dct::{dct2, dct2_2d, dct2_with, idct, idct_with, idxst, idxst_with, DctScratch};
pub use fft::{
    fft_in_place, fft_in_place_tw, fill_twiddles, ifft_in_place, ifft_unnormalized_in_place,
    ifft_unnormalized_in_place_tw, is_power_of_two,
};
pub use solver::{PoissonSolution, PoissonSolver};
