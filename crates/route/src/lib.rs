//! # rdp-route — grid global routing for congestion estimation
//!
//! A CPU reimplementation of the congestion-estimation stack the paper
//! relies on:
//!
//! * [`rsmt`] — net decomposition into two-pin segments (Prim MST),
//! * [`CapacityMaps`] — per-G-cell track capacity with macro and PG-rail
//!   blockages,
//! * [`GlobalRouter`] — congestion-aware L/Z-shape pattern routing with
//!   rip-up-and-reroute passes (stand-in for the GPU router of Lin & Wong
//!   \[18\] used by the paper),
//! * [`RouteMaps`] — demand maps and the Eq. (3) congestion map
//!   `C = max(Dmd/Cap − 1, 0)` plus the `Dmd/Cap` charge density that
//!   feeds the paper's congestion Poisson equation,
//! * [`rudy_map`] — the classic RUDY bounding-box estimator as a baseline.
//!
//! ```
//! use rdp_db::{Cell, DesignBuilder, Point, Rect, RoutingSpec};
//! use rdp_route::GlobalRouter;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DesignBuilder::new("demo", Rect::new(0.0, 0.0, 80.0, 80.0));
//! let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::new(5.0, 5.0));
//! let c = b.add_cell(Cell::std("b", 1.0, 1.0), Point::new(75.0, 75.0));
//! b.add_net("n0", vec![(a, Point::default()), (c, Point::default())]);
//! b.routing(RoutingSpec::uniform(4, 10.0, 8, 8));
//! let design = b.build()?;
//!
//! let result = GlobalRouter::default().route(&design);
//! assert!(result.wirelength > 0.0);
//! assert_eq!(result.congestion.nx(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod layers;
mod maps;
mod maze;
mod router;
pub mod rsmt;
mod rudy;

pub use capacity::{CapacityMaps, CapacityOptions};
pub use layers::{assign_layers, LayerAssignment};
pub use maps::RouteMaps;
pub use maze::{astar, MazePath, MazeStep};
pub use router::{GlobalRouter, RouteResult, RouterConfig};
pub use rudy::{rudy_map, rudy_map_with};
