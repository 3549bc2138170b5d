//! # rdp-core — routability-driven electrostatic global placement
//!
//! A from-scratch implementation of *“Differentiable Net-Moving and Local
//! Congestion Mitigation for Routability-Driven Global Placement”*
//! (DAC 2025):
//!
//! * [`WaModel`] — the weighted-average wirelength surrogate (Section II-A),
//! * [`DensityModel`] — ePlace electrostatic density on the bin grid,
//! * [`NesterovSolver`] — the accelerated first-order solver,
//! * [`GpSession`] — the placement engine; one session runs both phases
//!   of the flow,
//! * [`CongestionField`] — the differentiable congestion function from
//!   Poisson's equation over `Dmd/Cap` (Section II-B),
//! * [`congestion_gradients`] — virtual-cell net moving and multi-pin cell
//!   gradients (Algorithms 1–2, Eqs. (6)–(10)),
//! * [`InflationState`] — momentum-based cell inflation (Eqs. (11)–(12))
//!   plus the present-only and monotone baselines,
//! * [`PgDensity`] — dynamic pin-accessibility density around PG rails
//!   (Eqs. (13)–(15), Fig. 4),
//! * [`run_flow`] — the complete Fig. 2 flow with the Table I presets
//!   ([`PlacerPreset`]); the plain wirelength-driven placer (problem (2),
//!   the "Xplace" baseline) is `run_flow` with [`PlacerPreset::Xplace`].
//!
//! ```no_run
//! use rdp_core::{run_flow, PlacerPreset, RoutabilityConfig};
//! use rdp_gen::generate_named;
//!
//! let mut design = generate_named("fft_1").unwrap();
//! let report = run_flow(&mut design, &RoutabilityConfig::preset(PlacerPreset::Ours))
//!     .expect("flow diverged beyond recovery");
//! println!("placed in {:.1}s, HPWL {:.0}", report.place_seconds, report.hpwl);
//! ```
//!
//! `run_flow` returns `Result`: numerical blow-ups are detected by the
//! [`rdp_guard`] health sentinels, rolled back, and re-tuned
//! automatically; only unrecoverable divergence or invalid configuration
//! surfaces as an [`RdpError`]. See [`run_flow_with`] for
//! checkpoint/resume ([`FlowCheckpoint`]) and degraded-mode reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod congestion;
mod density;
mod dpa;
mod flow;
mod inflate;
mod nesterov;
mod netmove;
mod placer;
pub mod wirelength;

pub use congestion::CongestionField;
pub use density::{DensityField, DensityModel};
pub use dpa::{select_rails, DpaConfig, PgDensity};
pub use flow::{
    run_flow, run_flow_with, DcSource, DpaMode, FlowCheckpoint, FlowControl, FlowFault, FlowReport,
    PlacerPreset, RoutabilityConfig, RouteIterLog,
};
pub use inflate::{InflationBounds, InflationPolicy, InflationSnapshot, InflationState};
pub use nesterov::NesterovSolver;
pub use netmove::{
    congestion_gradients, lambda2, two_pin_gradient, CongestionGradients, NetMoveConfig,
    VirtualCellInfo,
};
pub use placer::{GpSession, GpSnapshot, PlacerConfig, StepExtras, StepReport};
pub use rdp_guard::{HealthPolicy, RdpError, Stage, Warning};
pub use wirelength::{WaModel, WaScratch};
