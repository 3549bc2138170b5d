//! Workspace-wide structured error type.
//!
//! Every fallible stage of the flow — parsing, global placement, the
//! Poisson solve, routing, net-moving, inflation, checkpointing — reports
//! failures through [`RdpError`] instead of panicking. Each variant
//! carries enough context (stage, iteration, offending quantity) to make
//! the failure reproducible and actionable.

use std::fmt;

/// Pipeline stage in which an error was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Reading an input file into the design database.
    Parse,
    /// Design-level validation (netlist structure, geometry).
    Design,
    /// Wirelength-driven global placement (phase 1).
    WirelengthGp,
    /// The outer routability loop (phase 2).
    Routability,
    /// Global routing / congestion-map construction.
    Routing,
    /// Spectral Poisson solve.
    Poisson,
    /// Differentiable net-moving (DC) gradients.
    NetMoving,
    /// Momentum cell inflation (MCI).
    Inflation,
    /// Dynamic pin-accessibility (DPA) density.
    Dpa,
    /// Checkpoint encode/decode or resume validation.
    Checkpoint,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Parse => "parse",
            Stage::Design => "design",
            Stage::WirelengthGp => "wirelength-gp",
            Stage::Routability => "routability",
            Stage::Routing => "routing",
            Stage::Poisson => "poisson",
            Stage::NetMoving => "net-moving",
            Stage::Inflation => "inflation",
            Stage::Dpa => "dpa",
            Stage::Checkpoint => "checkpoint",
        };
        f.write_str(name)
    }
}

/// Structured error for the whole placement/routing pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum RdpError {
    /// An input file could not be parsed. `line` is 1-based when known.
    Parse {
        context: String,
        line: Option<usize>,
        message: String,
    },
    /// The design itself is unusable (degenerate netlist, bad geometry).
    Design { message: String },
    /// A monitored quantity became NaN/Inf or exceeded the magnitude
    /// ceiling. `value` is the first offending value, `index` its position
    /// in the scanned buffer.
    NonFinite {
        stage: Stage,
        quantity: String,
        iteration: Option<usize>,
        index: usize,
        value: f64,
    },
    /// The optimizer kept diverging after exhausting the rollback budget.
    /// `route_iter` is the routability iteration (`None` in the
    /// wirelength phase) and `gp_step` the GP session's step count, the
    /// counter the health sentinels print.
    Diverged {
        stage: Stage,
        route_iter: Option<usize>,
        gp_step: usize,
        rollbacks: usize,
        detail: String,
    },
    /// A checkpoint could not be encoded, decoded, or applied.
    Checkpoint { detail: String },
    /// A configuration value is unusable for the given design.
    Config { detail: String },
    /// A wall-clock deadline expired. Enforced at checkpoint boundaries,
    /// so the last persisted checkpoint is at most one iteration stale.
    Deadline {
        detail: String,
        /// Wall-clock milliseconds consumed when the deadline tripped.
        elapsed_ms: u64,
        /// The configured budget in milliseconds.
        budget_ms: u64,
    },
    /// Work was cancelled before completing (client request or drain).
    Cancelled { detail: String },
    /// A wire-protocol violation: malformed, oversized, or truncated
    /// frames, or an I/O deadline exceeded on a connection.
    Protocol { detail: String },
    /// A bounded queue or resource rejected the request; retry after the
    /// indicated backoff.
    Busy {
        detail: String,
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// An internal invariant failed (e.g. a panic caught at a job
    /// boundary). Never retried automatically.
    Internal { detail: String },
}

impl RdpError {
    /// Convenience constructor for non-finite sentinel trips.
    pub fn non_finite(
        stage: Stage,
        quantity: impl Into<String>,
        iteration: Option<usize>,
        index: usize,
        value: f64,
    ) -> Self {
        RdpError::NonFinite {
            stage,
            quantity: quantity.into(),
            iteration,
            index,
            value,
        }
    }

    /// Convenience constructor for checkpoint failures.
    pub fn checkpoint(detail: impl Into<String>) -> Self {
        RdpError::Checkpoint {
            detail: detail.into(),
        }
    }

    /// The stage the error belongs to, when one is attached.
    pub fn stage(&self) -> Option<Stage> {
        match self {
            RdpError::Parse { .. } => Some(Stage::Parse),
            RdpError::Design { .. } => Some(Stage::Design),
            RdpError::NonFinite { stage, .. } | RdpError::Diverged { stage, .. } => Some(*stage),
            RdpError::Checkpoint { .. } => Some(Stage::Checkpoint),
            RdpError::Config { .. }
            | RdpError::Deadline { .. }
            | RdpError::Cancelled { .. }
            | RdpError::Protocol { .. }
            | RdpError::Busy { .. }
            | RdpError::Internal { .. } => None,
        }
    }

    /// Convenience constructor for protocol violations.
    pub fn protocol(detail: impl Into<String>) -> Self {
        RdpError::Protocol {
            detail: detail.into(),
        }
    }

    /// Convenience constructor for internal invariant failures.
    pub fn internal(detail: impl Into<String>) -> Self {
        RdpError::Internal {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdpError::Parse {
                context,
                line,
                message,
            } => match line {
                Some(n) => write!(f, "parse error in {context} at line {n}: {message}"),
                None => write!(f, "parse error in {context}: {message}"),
            },
            RdpError::Design { message } => write!(f, "design error: {message}"),
            RdpError::NonFinite {
                stage,
                quantity,
                iteration,
                index,
                value,
            } => {
                write!(f, "[{stage}] non-finite or oversized {quantity}")?;
                if let Some(it) = iteration {
                    write!(f, " at iteration {it}")?;
                }
                write!(f, " (index {index}, value {value})")
            }
            RdpError::Diverged {
                stage,
                route_iter,
                gp_step,
                rollbacks,
                detail,
            } => {
                write!(f, "[{stage}] diverged at ")?;
                if let Some(t) = route_iter {
                    write!(f, "routability iteration {t}, ")?;
                }
                write!(
                    f,
                    "GP step {gp_step} after {rollbacks} rollback(s): {detail}"
                )
            }
            RdpError::Checkpoint { detail } => write!(f, "checkpoint error: {detail}"),
            RdpError::Config { detail } => write!(f, "config error: {detail}"),
            RdpError::Deadline {
                detail,
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded after {elapsed_ms} ms (budget {budget_ms} ms): {detail}"
            ),
            RdpError::Cancelled { detail } => write!(f, "cancelled: {detail}"),
            RdpError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            RdpError::Busy {
                detail,
                retry_after_ms,
            } => write!(f, "busy: {detail} (retry after {retry_after_ms} ms)"),
            RdpError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for RdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = RdpError::Parse {
            context: "nodes".into(),
            line: Some(12),
            message: "bad width".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("nodes") && s.contains("12") && s.contains("bad width"),
            "{s}"
        );

        let e = RdpError::non_finite(Stage::WirelengthGp, "wa gradient", Some(7), 3, f64::NAN);
        let s = e.to_string();
        assert!(
            s.contains("wirelength-gp") && s.contains("iteration 7"),
            "{s}"
        );
        assert_eq!(e.stage(), Some(Stage::WirelengthGp));
    }

    #[test]
    fn service_variants_carry_no_stage_and_display_context() {
        let e = RdpError::Deadline {
            detail: "job 3".into(),
            elapsed_ms: 1500,
            budget_ms: 1000,
        };
        assert_eq!(e.stage(), None);
        let s = e.to_string();
        assert!(
            s.contains("1500") && s.contains("1000") && s.contains("job 3"),
            "{s}"
        );

        let e = RdpError::Busy {
            detail: "queue full (8 jobs)".into(),
            retry_after_ms: 250,
        };
        assert_eq!(e.stage(), None);
        assert!(e.to_string().contains("retry after 250 ms"), "{e}");

        assert!(RdpError::protocol("oversized frame")
            .to_string()
            .contains("protocol error"));
        assert!(RdpError::internal("worker panicked")
            .to_string()
            .contains("internal error"));
        assert!(RdpError::Cancelled {
            detail: "drain".into()
        }
        .to_string()
        .contains("cancelled"));
    }

    #[test]
    fn stage_display_is_stable() {
        // Checkpoint format warnings embed stage names; keep them stable.
        assert_eq!(Stage::Routability.to_string(), "routability");
        assert_eq!(Stage::Dpa.to_string(), "dpa");
    }
}
