//! # rdp-parse — the LEF/DEF-lite design format
//!
//! [`write_lefdef`] / [`read_lefdef`] carry a design to and from a
//! documented subset of the LEF/DEF pair. `read(write(design))` preserves
//! the netlist, the geometry to 1/1000 µm, the floorplan and the routing
//! environment.
//!
//! The reader reads what the writer emits and nothing more: pins as
//! `( comp dx dy )` offsets on one net line, `N` rows only, and the
//! nonstandard `GCELLGRID a b ;` / `LAYERCAP` statements. It cannot load a
//! standard DEF (named LEF pins, multi-line nets, rows in other
//! orientations), so the ISPD 2015 benchmarks do not load; a construct it
//! does not know is a typed [`ParseDesignError`] with its line number.
//!
//! ```
//! use rdp_gen::{generate, GenParams};
//! use rdp_parse::{read_lefdef, write_lefdef};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate("demo", &GenParams { num_cells: 50, ..GenParams::default() });
//! let files = write_lefdef(&design);
//! let back = read_lefdef(&files)?;
//! assert_eq!(back.num_nets(), design.num_nets());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deflite;
mod error;

pub use deflite::{read_lefdef, read_lefdef_obs, write_lefdef, LefDefFiles};
pub use error::ParseDesignError;
