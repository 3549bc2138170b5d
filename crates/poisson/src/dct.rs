//! Fast cosine/sine transforms built on the radix-2 FFT (Makhoul's
//! single-FFT formulation).
//!
//! Conventions (all lengths are powers of two):
//!
//! * [`dct2`]:  `X[k] = Σ_{n} x[n]·cos(πk(n+½)/N)` — the analysis transform.
//! * [`idct`]:  `y[n] = X[0]/2 + Σ_{k≥1} X[k]·cos(πk(n+½)/N)` — the cosine
//!   series evaluation (DCT-III), so `idct(dct2(x)) = (N/2)·x`.
//! * [`idxst`]: `y[n] = Σ_{k} X[k]·sin(πk(n+½)/N)` — the shifted sine series
//!   used for the electric field components (DREAMPlace's "IDXST").

use crate::complex::Complex;
use crate::fft::{fft_in_place_tw, fill_twiddles, ifft_unnormalized_in_place_tw, is_power_of_two};
use rdp_par::{chunk_len, Pool};

/// Reusable buffers for the scratch-based transform variants
/// ([`dct2_with`], [`idct_with`], [`idxst_with`]): one complex FFT
/// buffer, a real staging buffer, and cached twiddle tables. A worker
/// allocates one scratch and reuses it across every row/column it
/// transforms, so the trigonometry for a transform length is computed
/// once per worker instead of once per element per call — the per-call
/// `cis` loops were the dominant cost of the 2-D passes.
#[derive(Debug, Clone, Default)]
pub struct DctScratch {
    v: Vec<Complex>,
    tmp: Vec<f64>,
    /// Quarter-wave table `e^{iπk/2n}` for `k < n` (the Makhoul pre/post
    /// twiddles; the forward transform conjugates on read).
    quarter: Vec<Complex>,
    /// FFT half-spectrum table from [`fill_twiddles`].
    fft_tw: Vec<Complex>,
    /// Transform length the tables are built for (0 = none yet).
    tw_len: usize,
}

impl DctScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DctScratch::default()
    }

    /// (Re)builds the twiddle tables for transform length `n`. The 1-D
    /// kernels call this on entry; alternating lengths through one
    /// scratch works but rebuilds the tables each switch, so the 2-D
    /// passes keep one scratch per pass (fixed length within a pass).
    fn ensure_tables(&mut self, n: usize) {
        if self.tw_len == n {
            return;
        }
        let step = std::f64::consts::PI / (2.0 * n as f64);
        self.quarter.clear();
        self.quarter
            .extend((0..n).map(|k| Complex::cis(step * k as f64)));
        fill_twiddles(n, &mut self.fft_tw);
        self.tw_len = n;
    }
}

/// Cache-blocked out-of-place transpose of a row-major `h × w` matrix
/// (`h` rows of length `w`): `dst[c·h + r] = src[r·w + c]`. The 2-D
/// transform passes use it so every 1-D transform reads a contiguous
/// slice instead of gathering a strided column — at 256×256 and up the
/// strided gather misses cache on every element.
///
/// # Panics
///
/// Panics if either buffer's length differs from `w·h`.
pub(crate) fn transpose_tiled(src: &[f64], w: usize, h: usize, dst: &mut [f64]) {
    const TILE: usize = 32;
    assert_eq!(src.len(), w * h, "transpose source size");
    assert_eq!(dst.len(), w * h, "transpose destination size");
    let mut r0 = 0;
    while r0 < h {
        let r1 = (r0 + TILE).min(h);
        let mut c0 = 0;
        while c0 < w {
            let c1 = (c0 + TILE).min(w);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * h + r] = src[r * w + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// DCT-II of `x`: `X[k] = Σ_n x[n]·cos(πk(n+½)/N)`.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn dct2(x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    dct2_with(x, &mut out, &mut DctScratch::new());
    out
}

/// [`dct2`] into a caller-owned output slice with reusable scratch
/// (no per-call allocation once the scratch has grown).
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two or `out.len() != x.len()`.
pub fn dct2_with(x: &[f64], out: &mut [f64], scratch: &mut DctScratch) {
    let n = x.len();
    assert!(is_power_of_two(n), "DCT length {n} is not a power of two");
    assert_eq!(out.len(), n, "output buffer size");
    if n == 1 {
        out[0] = x[0];
        return;
    }
    // Makhoul reordering: evens ascending then odds descending.
    scratch.ensure_tables(n);
    let DctScratch {
        v, quarter, fft_tw, ..
    } = scratch;
    v.clear();
    v.resize(n, Complex::ZERO);
    let half = n.div_ceil(2);
    for i in 0..half {
        v[i] = Complex::new(x[2 * i], 0.0);
    }
    for i in 0..n / 2 {
        v[n - 1 - i] = Complex::new(x[2 * i + 1], 0.0);
    }
    fft_in_place_tw(v, fft_tw);
    // Post-twiddle by conj(quarter[k]) = e^{-iπk/2n}, real part only:
    // (a+bi)(c-si).re = a·c + b·s.
    for ((o, vk), q) in out.iter_mut().zip(v.iter()).zip(quarter.iter()) {
        *o = vk.re * q.re + vk.im * q.im;
    }
}

/// Cosine-series evaluation (DCT-III):
/// `y[n] = X[0]/2 + Σ_{k=1}^{N-1} X[k]·cos(πk(n+½)/N)`.
///
/// Together with [`dct2`]: `idct(dct2(x)) == (N/2)·x`.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn idct(coeffs: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; coeffs.len()];
    idct_with(coeffs, &mut out, &mut DctScratch::new());
    out
}

/// [`idct`] into a caller-owned output slice with reusable scratch.
///
/// # Panics
///
/// Panics if the length is not a power of two or `out.len()` mismatches.
pub fn idct_with(coeffs: &[f64], out: &mut [f64], scratch: &mut DctScratch) {
    let n = coeffs.len();
    assert!(is_power_of_two(n), "IDCT length {n} is not a power of two");
    assert_eq!(out.len(), n, "output buffer size");
    if n == 1 {
        out[0] = coeffs[0] / 2.0;
        return;
    }
    // Rebuild the spectrum of the Makhoul-reordered sequence:
    // V[k] = e^{iπk/2N}·(C[k] − i·C[N−k]), with C[N] = 0.
    scratch.ensure_tables(n);
    let DctScratch {
        v, quarter, fft_tw, ..
    } = scratch;
    v.clear();
    v.resize(n, Complex::ZERO);
    v[0] = Complex::new(coeffs[0], 0.0);
    for k in 1..n {
        let c_k = coeffs[k];
        let c_nk = coeffs[n - k];
        v[k] = quarter[k] * Complex::new(c_k, -c_nk);
    }
    ifft_unnormalized_in_place_tw(v, fft_tw);
    // The unnormalized inverse yields N·v; the exact inverse of dct2 is
    // x[n] = (2/N)(C[0]/2 + Σ …), so the series value is (N/2)·x = v/2.
    let half = n.div_ceil(2);
    for i in 0..half {
        out[2 * i] = v[i].re / 2.0;
    }
    for i in 0..n / 2 {
        out[2 * i + 1] = v[n - 1 - i].re / 2.0;
    }
}

/// Shifted sine-series evaluation:
/// `y[n] = Σ_{k=0}^{N-1} X[k]·sin(πk(n+½)/N)` (the `k = 0` term vanishes).
///
/// Uses the identity `sin(πk(n+½)/N) = (−1)ⁿ·cos(π(N−k)(n+½)/N)`, reducing
/// to an [`idct`] on the index-reversed coefficients.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn idxst(coeffs: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; coeffs.len()];
    idxst_with(coeffs, &mut out, &mut DctScratch::new());
    out
}

/// [`idxst`] into a caller-owned output slice with reusable scratch.
///
/// # Panics
///
/// Panics if the length is not a power of two or `out.len()` mismatches.
pub fn idxst_with(coeffs: &[f64], out: &mut [f64], scratch: &mut DctScratch) {
    let n = coeffs.len();
    assert!(is_power_of_two(n), "IDXST length {n} is not a power of two");
    assert_eq!(out.len(), n, "output buffer size");
    let mut flipped = std::mem::take(&mut scratch.tmp);
    flipped.clear();
    flipped.resize(n, 0.0);
    for k in 1..n {
        flipped[k] = coeffs[n - k];
    }
    idct_with(&flipped, out, scratch);
    scratch.tmp = flipped;
    for (i, v) in out.iter_mut().enumerate() {
        if i % 2 == 1 {
            *v = -*v;
        }
    }
}

/// 2-D DCT-II of a row-major `nx × ny` grid:
/// `A[u,v] = Σ_{n,m} x[n,m]·cos(πu(n+½)/nx)·cos(πv(m+½)/ny)`,
/// returned row-major with `u` along x.
///
/// Rows and columns are independent 1-D transforms written to disjoint
/// output windows on [`Pool::global`], so the result is bit-identical
/// for any thread count.
///
/// # Panics
///
/// Panics if either dimension is not a power of two or the buffer size is
/// inconsistent.
pub fn dct2_2d(data: &[f64], nx: usize, ny: usize) -> Vec<f64> {
    assert_eq!(data.len(), nx * ny);
    let pool = Pool::global();
    // Row pass: transform each row into its own window.
    let mut rows = vec![0.0; nx * ny];
    let row_chunk = chunk_len(ny, 32, 4);
    pool.for_chunks_mut(
        &mut rows,
        row_chunk * nx,
        DctScratch::new,
        |scratch, _ci, offset, window| {
            for (r, out_row) in window.chunks_mut(nx).enumerate() {
                let iy = offset / nx + r;
                dct2_with(&data[iy * nx..(iy + 1) * nx], out_row, scratch);
            }
        },
    );
    // Transpose once (cache-blocked), transform contiguous columns,
    // transpose back. The former per-column strided gather walked the
    // whole `rows` buffer once per column.
    let mut rowst = vec![0.0; nx * ny];
    transpose_tiled(&rows, nx, ny, &mut rowst);
    let mut cols = vec![0.0; nx * ny];
    let col_chunk = chunk_len(nx, 32, 4);
    pool.for_chunks_mut(
        &mut cols,
        col_chunk * ny,
        DctScratch::new,
        |scratch, _ci, offset, window| {
            for (c, out_col) in window.chunks_mut(ny).enumerate() {
                let u = offset / ny + c;
                dct2_with(&rowst[u * ny..(u + 1) * ny], out_col, scratch);
            }
        },
    );
    let mut out = vec![0.0; nx * ny];
    transpose_tiled(&cols, ny, nx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        v * (std::f64::consts::PI * k as f64 * (i as f64 + 0.5) / n as f64).cos()
                    })
                    .sum()
            })
            .collect()
    }

    fn naive_idct(c: &[f64]) -> Vec<f64> {
        let n = c.len();
        (0..n)
            .map(|i| {
                c[0] / 2.0
                    + (1..n)
                        .map(|k| {
                            c[k] * (std::f64::consts::PI * k as f64 * (i as f64 + 0.5) / n as f64)
                                .cos()
                        })
                        .sum::<f64>()
            })
            .collect()
    }

    fn naive_idxst(c: &[f64]) -> Vec<f64> {
        let n = c.len();
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|k| {
                        c[k] * (std::f64::consts::PI * k as f64 * (i as f64 + 0.5) / n as f64).sin()
                    })
                    .sum()
            })
            .collect()
    }

    fn test_vec(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 11) as f64 - 5.0) * 0.7 + (i as f64 * 0.31).sin())
            .collect()
    }

    #[test]
    fn dct2_matches_naive() {
        for n in [2usize, 4, 8, 32] {
            let x = test_vec(n);
            let fast = dct2(&x);
            let slow = naive_dct2(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn idct_matches_naive() {
        for n in [2usize, 4, 16] {
            let c = test_vec(n);
            let fast = idct(&c);
            let slow = naive_idct(&c);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn idxst_matches_naive() {
        for n in [2usize, 4, 8, 64] {
            let c = test_vec(n);
            let fast = idxst(&c);
            let slow = naive_idxst(&c);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn roundtrip_scaling() {
        let x = test_vec(16);
        let y = idct(&dct2(&x));
        for (a, b) in y.iter().zip(&x) {
            assert!((a - b * 8.0).abs() < 1e-9, "{a} vs {}", b * 8.0);
        }
    }

    #[test]
    fn length_one() {
        assert_eq!(dct2(&[5.0]), vec![5.0]);
        assert_eq!(idct(&[5.0]), vec![2.5]);
    }

    #[test]
    fn dct2_2d_matches_naive() {
        let nx = 4;
        let ny = 8;
        let data = test_vec(nx * ny);
        let fast = dct2_2d(&data, nx, ny);
        for u in 0..nx {
            for v in 0..ny {
                let mut acc = 0.0;
                for n in 0..nx {
                    for m in 0..ny {
                        acc += data[m * nx + n]
                            * (std::f64::consts::PI * u as f64 * (n as f64 + 0.5) / nx as f64)
                                .cos()
                            * (std::f64::consts::PI * v as f64 * (m as f64 + 0.5) / ny as f64)
                                .cos();
                    }
                }
                assert!(
                    (fast[v * nx + u] - acc).abs() < 1e-8,
                    "u={u} v={v}: {} vs {acc}",
                    fast[v * nx + u]
                );
            }
        }
    }

    #[test]
    fn dct_of_constant_concentrates_at_dc() {
        let x = vec![3.0; 16];
        let c = dct2(&x);
        assert!((c[0] - 48.0).abs() < 1e-9);
        for &v in &c[1..] {
            assert!(v.abs() < 1e-9);
        }
    }
}
