//! # rdp-legal — legalization and detailed placement
//!
//! The back end of the placement flow (the paper adopts Xplace-Route's
//! legalization + detailed placement; this crate is our equivalent):
//!
//! * [`build_segments`] — rows split into free intervals around macros,
//! * [`legalize`] — Tetris row assignment + Abacus in-row placement +
//!   site snapping,
//! * [`detailed_place`] — HPWL-driven adjacent swaps and order-preserving
//!   in-row shifts,
//! * [`check_legality`] — the invariant checker used by tests and flows.
//!
//! ```
//! use rdp_gen::{generate, GenParams};
//! use rdp_legal::{check_legality, legalize, LegalizeConfig};
//!
//! let mut design = generate("demo", &GenParams { num_cells: 200, ..GenParams::default() });
//! let report = legalize(&mut design, &LegalizeConfig::default());
//! assert_eq!(report.failed, 0);
//! assert!(check_legality(&design).is_legal());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod detailed;
mod legalize;
mod segments;

pub use check::{check_legality, LegalityReport};
pub use detailed::{
    detailed_place, detailed_place_obs, detailed_place_virtual_obs, DetailedConfig,
};
pub use legalize::{legalize, legalize_obs, legalize_virtual_obs, LegalizeConfig, LegalizeReport};
pub use segments::{build_segments, Segment};
