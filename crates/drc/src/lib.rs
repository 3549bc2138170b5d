//! # rdp-drc — post-placement routing evaluation and DRV proxy
//!
//! The paper measures placement quality by feeding each placer's result
//! through Cadence Innovus global + detailed routing and counting detailed
//! routing wirelength (DRWL), vias (#DRVias), and violations (#DRVs).
//! Innovus is unavailable here, so this crate implements the closest
//! synthetic equivalent: the legalized placement is routed on a grid
//! **finer** than the placement G-cells, and #DRVs is a proxy combining
//! the three phenomena detailed routers actually report violations for —
//!
//! * **routing overflow** — demand beyond capacity in a fine G-cell means
//!   shorts/spacing violations there,
//! * **pin-access overload** — more pins in a fine G-cell than its access
//!   budget means unreachable pins,
//! * **PG-rail blockage** — cells under M2 rails in congested cells
//!   cannot get their pins out on M1 (the phenomenon the paper's DPA
//!   technique targets).
//!
//! The proxy preserves the paper's *relative* claims (who wins, by what
//! rough factor); absolute counts are not comparable to Innovus numbers.
//! Its weights, the grid refinement and the evaluation router's effort
//! are constants: they define Table I's columns, and no run records them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod hotspots;

pub use eval::{evaluate, EvalConfig, EvalReport};
pub use hotspots::{classify, hotspots, overflow_centroid, Hotspot};
