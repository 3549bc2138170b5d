//! Host-speed normalization.
//!
//! The benchmark runs on shared machines whose speed drifts by 10–50%
//! over seconds to minutes as neighbours come and go, and that drift
//! slows an operation and a short kernel run next to it together. Every
//! timed operation is therefore bracketed by runs of a fixed reference
//! kernel (a stencil sweep and a scattered gather over 8 MB, the access
//! pattern of the placer's density and wirelength kernels). An
//! operation's time is reported in *reference seconds*: its wall time
//! scaled by the ratio of [`NOMINAL_S`] to the mean of the kernel times
//! just before and just after it, raised to [`ELASTICITY`]. On a host as
//! fast as the measurement machine when quiet, reference seconds equal
//! wall seconds.
//!
//! The kernel is part of the benchmark, not of rdp, so a change to rdp
//! never changes the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// Grid side of the reference kernel (1024² `f64` = 8 MB).
const SIDE: usize = 1024;
/// Stencil sweeps per kernel run.
const SWEEPS: usize = 2;
/// Scattered reads per sweep.
const GATHERS: usize = 400_000;

/// Median time of one reference-kernel run on the measurement machine
/// (2-vCPU Intel Xeon VM, Linux 6.18) while its host was quiet.
pub const NOMINAL_S: f64 = 0.0155;

/// How much more the flow slows than the kernel when the host slows:
/// across 16-s windows of superblue14 flows, the logarithm of the median
/// flow time moved 1.3–1.6 times as much as that of the kernel time.
pub const ELASTICITY: f64 = 1.5;

/// The reference kernel and the last time it took.
pub struct SpeedRef {
    grid: Vec<f64>,
    idx: Vec<u32>,
    last_s: f64,
    /// Every kernel time measured, in seconds.
    pub samples: Vec<f64>,
}

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall time in seconds.
    pub wall_s: f64,
    /// Reference seconds per wall second around the operation.
    pub scale: f64,
}

impl Timed {
    /// The operation's time in reference seconds.
    pub fn ref_s(&self) -> f64 {
        self.wall_s * self.scale
    }
}

impl SpeedRef {
    /// Allocates the kernel's data and runs it until its pages are
    /// resident, so the first bracket is not a cold one.
    pub fn new() -> SpeedRef {
        let mut r = SpeedRef {
            grid: (0..SIDE * SIDE).map(|i| (i % 97) as f64).collect(),
            idx: (0..GATHERS)
                .map(|i| ((i as u64 * 102_967) % (SIDE * SIDE) as u64) as u32)
                .collect(),
            last_s: 0.0,
            samples: Vec::new(),
        };
        r.kernel_s();
        r.samples.clear();
        r.last_s = r.kernel_s();
        r
    }

    /// Runs the kernel once and returns its wall time.
    fn kernel_s(&mut self) -> f64 {
        let t = Instant::now();
        let n = SIDE;
        let g = &mut self.grid;
        let mut acc = 0.0;
        for _ in 0..SWEEPS {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = y * n + x;
                    g[i] = 0.2 * (g[i] + g[i - 1] + g[i + 1] + g[i - n] + g[i + n]);
                }
            }
            for &j in &self.idx {
                acc += g[j as usize];
            }
        }
        black_box(acc);
        let s = t.elapsed().as_secs_f64();
        self.samples.push(s);
        s
    }

    /// Runs `op`, then the kernel, and returns `op`'s result with its
    /// wall time and scale. The kernel run after one operation is the run
    /// before the next.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last_s;
        let t = Instant::now();
        let out = op();
        let wall_s = t.elapsed().as_secs_f64();
        self.last_s = self.kernel_s();
        let scale = (NOMINAL_S / (0.5 * (before + self.last_s))).powf(ELASTICITY);
        (out, Timed { wall_s, scale })
    }
}

impl Default for SpeedRef {
    fn default() -> Self {
        SpeedRef::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_bracketing_kernel_times() {
        let mut r = SpeedRef::new();
        let before = r.last_s;
        let (v, t) = r.time(|| 7);
        assert_eq!(v, 7);
        let after = *r.samples.last().unwrap();
        assert_eq!(
            t.scale,
            (NOMINAL_S / (0.5 * (before + after))).powf(ELASTICITY)
        );
        assert!(t.wall_s >= 0.0 && t.scale > 0.0);
        assert_eq!(t.ref_s(), t.wall_s * t.scale);
    }
}
