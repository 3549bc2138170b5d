//! Numerical-health monitor: cheap NaN/Inf/magnitude sentinels and
//! divergence detection for the Nesterov outer loops.
//!
//! The sentinels are single-pass scans built on one comparison per value:
//! `!(v.abs() <= ceiling)` is true exactly when `v` is NaN, ±Inf, or has
//! blown past the magnitude ceiling, so a healthy scan costs one abs and
//! one predictable branch per element (< 2% of a GP step on the 20k-cell
//! kernel benches — see `BENCH_guard.json`).

use crate::error::{RdpError, Stage};
use rdp_db::{Map2d, Point};

/// Magnitude ceiling for monitored quantities (gradients, fields,
/// positions). Values with |v| above it trip the sentinel even when
/// finite — by then the step is numerically meaningless anyway.
const MAX_MAGNITUDE: f64 = 1e18;

/// Overflow blow-up factor: a step whose density overflow exceeds
/// `DIVERGENCE_FACTOR * (last_good + 1)` is treated as divergence.
/// Deliberately loose so healthy runs are never touched.
const DIVERGENCE_FACTOR: f64 = 50.0;

/// Multiplier applied to the γ boost on each divergence rollback
/// (smoothing the WA model to damp the gradient that diverged).
pub const GAMMA_BOOST_ON_ROLLBACK: f64 = 1.5;

/// Multiplier applied to λ (density weight) on each divergence rollback.
pub const LAMBDA_DAMP_ON_ROLLBACK: f64 = 0.5;

/// Policy knobs for the health monitor and divergence rollback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Master switch. When false every check is a no-op, for apples-to-
    /// apples benchmarking of the sentinel overhead.
    pub enabled: bool,
    /// How many rollback + re-tune attempts before giving up with
    /// [`RdpError::Diverged`].
    pub max_rollbacks: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            enabled: true,
            max_rollbacks: 3,
        }
    }
}

impl HealthPolicy {
    /// A policy with every check disabled.
    pub fn disabled() -> Self {
        HealthPolicy {
            enabled: false,
            ..HealthPolicy::default()
        }
    }

    /// Scans a scalar buffer; returns the first unhealthy entry.
    pub fn check_slice(
        &self,
        stage: Stage,
        quantity: &str,
        iteration: Option<usize>,
        values: &[f64],
    ) -> Result<(), RdpError> {
        if !self.enabled {
            return Ok(());
        }
        for (i, &v) in values.iter().enumerate() {
            if !(v.abs() <= MAX_MAGNITUDE) {
                return Err(RdpError::non_finite(stage, quantity, iteration, i, v));
            }
        }
        Ok(())
    }

    /// Scans a point buffer (both coordinates).
    pub fn check_points(
        &self,
        stage: Stage,
        quantity: &str,
        iteration: Option<usize>,
        values: &[Point],
    ) -> Result<(), RdpError> {
        if !self.enabled {
            return Ok(());
        }
        for (i, &p) in values.iter().enumerate() {
            self.check_point(stage, quantity, iteration, i, p)?;
        }
        Ok(())
    }

    /// Checks entry `index` of a point buffer exactly as
    /// [`check_points`](HealthPolicy::check_points) does, for a caller
    /// that folds the scan into a loop of its own: checked in index
    /// order, the first error is the one `check_points` returns.
    #[inline]
    pub fn check_point(
        &self,
        stage: Stage,
        quantity: &str,
        iteration: Option<usize>,
        index: usize,
        p: Point,
    ) -> Result<(), RdpError> {
        if !self.enabled {
            return Ok(());
        }
        if !(p.x.abs() <= MAX_MAGNITUDE) {
            return Err(RdpError::non_finite(stage, quantity, iteration, index, p.x));
        }
        if !(p.y.abs() <= MAX_MAGNITUDE) {
            return Err(RdpError::non_finite(stage, quantity, iteration, index, p.y));
        }
        Ok(())
    }

    /// Scans a 2-D field.
    pub fn check_map(
        &self,
        stage: Stage,
        quantity: &str,
        iteration: Option<usize>,
        map: &Map2d<f64>,
    ) -> Result<(), RdpError> {
        self.check_slice(stage, quantity, iteration, map.as_slice())
    }

    /// Scans a single scalar (overflow, penalty, λ, …).
    pub fn check_scalar(
        &self,
        stage: Stage,
        quantity: &str,
        iteration: Option<usize>,
        value: f64,
    ) -> Result<(), RdpError> {
        if self.enabled && !(value.abs() <= MAX_MAGNITUDE) {
            return Err(RdpError::non_finite(stage, quantity, iteration, 0, value));
        }
        Ok(())
    }

    /// Divergence test for the outer loop: did `value` blow up relative to
    /// the last known-good `baseline`? Non-finite values always count.
    pub fn is_blowup(&self, baseline: f64, value: f64) -> bool {
        if !self.enabled {
            return false;
        }
        if !value.is_finite() {
            return true;
        }
        value > DIVERGENCE_FACTOR * (baseline.abs() + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_catches_nan_inf_and_magnitude() {
        let h = HealthPolicy::default();
        assert!(h
            .check_slice(Stage::Poisson, "psi", None, &[0.0, 1.0, -3.5])
            .is_ok());
        let e = h
            .check_slice(Stage::Poisson, "psi", Some(2), &[0.0, f64::NAN])
            .unwrap_err();
        match e {
            RdpError::NonFinite { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(h
            .check_slice(Stage::Poisson, "psi", None, &[f64::INFINITY])
            .is_err());
        assert!(h.check_slice(Stage::Poisson, "psi", None, &[1e19]).is_err());
        assert!(h
            .check_slice(Stage::Poisson, "psi", None, &[-1e19])
            .is_err());
    }

    #[test]
    fn points_and_scalars_checked_componentwise() {
        let h = HealthPolicy::default();
        let pts = [Point::new(1.0, 2.0), Point::new(3.0, f64::NAN)];
        let e = h
            .check_points(Stage::WirelengthGp, "grad", Some(1), &pts)
            .unwrap_err();
        match e {
            RdpError::NonFinite { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(h
            .check_scalar(Stage::Routability, "overflow", None, 0.5)
            .is_ok());
        assert!(h
            .check_scalar(Stage::Routability, "overflow", None, f64::NAN)
            .is_err());
    }

    #[test]
    fn disabled_policy_is_a_noop() {
        let h = HealthPolicy::disabled();
        assert!(h
            .check_slice(Stage::Poisson, "psi", None, &[f64::NAN])
            .is_ok());
        assert!(!h.is_blowup(1.0, f64::INFINITY));
    }

    #[test]
    fn blowup_is_loose() {
        let h = HealthPolicy::default();
        // Ordinary overflow wobble must never trip.
        assert!(!h.is_blowup(0.8, 1.0));
        assert!(!h.is_blowup(0.1, 5.0));
        // True explosions do.
        assert!(h.is_blowup(0.5, 100.0));
        assert!(h.is_blowup(0.5, f64::NAN));
    }
}
