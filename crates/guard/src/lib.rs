//! # rdp-guard — robustness layer for the placement/routing flow
//!
//! Four pillars, threaded through `rdp-parse`, `rdp-core`, `rdp-route`,
//! `rdp-poisson`, and the top-level pipeline:
//!
//! 1. **Structured errors** ([`RdpError`], [`Stage`]): every non-test
//!    failure path reports a typed error with stage/iteration context
//!    instead of panicking.
//! 2. **Numerical-health monitor** ([`HealthPolicy`]): single-comparison
//!    NaN/Inf/magnitude sentinels over gradients, fields, and Poisson
//!    solutions, plus a loose divergence test that drives automatic step
//!    rollback with γ/λ re-tuning in `rdp-core`.
//! 3. **Versioned binary snapshots** ([`SnapshotWriter`],
//!    [`SnapshotReader`]): bit-exact checkpoint/restore so an interrupted
//!    flow resumes to the same answer, verified bitwise.
//! 4. **Warnings** ([`Warning`]): degraded-mode completions (RUDY-only
//!    congestion fallback, skipped DPA addend, rollbacks) are recorded in
//!    the flow report rather than lost in a log.
//!
//! The fault-injection side lives in `rdp-testkit` (`FaultPlan`) and the
//! workspace `tests/robustness.rs` suite.

mod error;
mod health;
mod snapshot;

pub use error::{RdpError, Stage};
pub use health::HealthPolicy;
pub use snapshot::{fnv1a64, SnapshotReader, SnapshotWriter, SNAPSHOT_MAGIC};

use std::fmt;

/// A recoverable anomaly the flow worked around in degraded mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    /// Stage that degraded.
    pub stage: Stage,
    /// Routability iteration (0 = wirelength phase / setup).
    pub iteration: usize,
    /// Human-readable description of what happened and the fallback taken.
    pub message: String,
}

impl Warning {
    pub fn new(stage: Stage, iteration: usize, message: impl Into<String>) -> Self {
        Warning {
            stage,
            iteration,
            message: message.into(),
        }
    }
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}#{}] {}", self.stage, self.iteration, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warning_display() {
        let w = Warning::new(
            Stage::Routing,
            3,
            "router congestion non-finite; using RUDY",
        );
        let s = w.to_string();
        assert!(
            s.contains("routing") && s.contains('3') && s.contains("RUDY"),
            "{s}"
        );
    }
}
