//! Netlist entities: cells, pins, and nets.
//!
//! A circuit is the hypergraph `H = (V, E)` of Section II-A: cells are the
//! vertices, nets the hyperedges, and pins tie a net to a location on a
//! cell (an offset from the cell center).

use crate::geom::Point;
use crate::ids::{CellId, NetId, PinId};

/// What kind of physical object a cell is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A movable standard cell sitting in a row.
    Std,
    /// A macro block (typically fixed, much larger than row height).
    Macro,
    /// A fixed terminal (I/O pad); zero placement area.
    Terminal,
}

/// A cell: a standard cell, macro block, or fixed terminal.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name (unique within a design).
    pub name: String,
    /// Physical kind.
    pub kind: CellKind,
    /// Width in microns.
    pub w: f64,
    /// Height in microns.
    pub h: f64,
    /// Whether the placer may move this cell.
    pub fixed: bool,
}

impl Cell {
    /// Creates a movable standard cell.
    pub fn std(name: impl Into<String>, w: f64, h: f64) -> Self {
        Cell {
            name: name.into(),
            kind: CellKind::Std,
            w,
            h,
            fixed: false,
        }
    }

    /// Creates a fixed macro block.
    pub fn fixed_macro(name: impl Into<String>, w: f64, h: f64) -> Self {
        Cell {
            name: name.into(),
            kind: CellKind::Macro,
            w,
            h,
            fixed: true,
        }
    }

    /// Creates a fixed zero-area terminal (I/O pad).
    pub fn terminal(name: impl Into<String>) -> Self {
        Cell {
            name: name.into(),
            kind: CellKind::Terminal,
            w: 0.0,
            h: 0.0,
            fixed: true,
        }
    }

    /// Placement area in square microns.
    #[inline]
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Whether this cell contributes movable area.
    #[inline]
    pub fn is_movable(&self) -> bool {
        !self.fixed
    }
}

/// A pin: the attachment of a net to a cell at a fixed offset from the
/// cell center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// Owning cell.
    pub cell: CellId,
    /// Net this pin belongs to.
    pub net: NetId,
    /// Offset from the owning cell's center, in microns.
    pub offset: Point,
}

/// A net: a hyperedge connecting two or more pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name (unique within a design).
    pub name: String,
    /// Member pins, in arbitrary order.
    pub pins: Vec<PinId>,
    /// Wirelength weight (1.0 for ordinary signal nets).
    pub weight: f64,
}

impl Net {
    /// Creates a unit-weight net with the given pins.
    pub fn new(name: impl Into<String>, pins: Vec<PinId>) -> Self {
        Net {
            name: name.into(),
            pins,
            weight: 1.0,
        }
    }

    /// Pin count (net degree).
    pub fn degree(&self) -> usize {
        self.pins.len()
    }

    /// Whether this is a two-pin net — the nets the paper's virtual-cell
    /// net-moving technique (Algorithm 1) applies to.
    pub fn is_two_pin(&self) -> bool {
        self.pins.len() == 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_constructors() {
        let c = Cell::std("u1", 1.2, 2.8);
        assert_eq!(c.kind, CellKind::Std);
        assert!(c.is_movable());
        assert!((c.area() - 3.36).abs() < 1e-12);

        let m = Cell::fixed_macro("m0", 100.0, 80.0);
        assert_eq!(m.kind, CellKind::Macro);
        assert!(!m.is_movable());

        let t = Cell::terminal("io0");
        assert_eq!(t.kind, CellKind::Terminal);
        assert_eq!(t.area(), 0.0);
        assert!(t.fixed);
    }

    #[test]
    fn net_degree() {
        let n = Net::new("n0", vec![PinId(0), PinId(1)]);
        assert_eq!(n.degree(), 2);
        assert!(n.is_two_pin());
        assert_eq!(n.weight, 1.0);

        let n3 = Net::new("n1", vec![PinId(0), PinId(1), PinId(2)]);
        assert!(!n3.is_two_pin());
    }
}
