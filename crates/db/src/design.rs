//! The design database: one [`Design`] owns the netlist, floorplan, and
//! current placement of a circuit.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::floorplan::{Obstruction, PgRail, RoutingSpec, Row};
use crate::geom::{Point, Rect};
use crate::grid::GridSpec;
use crate::ids::{CellId, NetId, PinId};
use crate::netlist::{Cell, CellKind, Net, Pin};

/// Error produced when assembling or validating a design.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildDesignError {
    /// The die rectangle has non-positive area.
    EmptyDie,
    /// A cell name was used twice.
    DuplicateCellName(String),
    /// A net name was used twice.
    DuplicateNetName(String),
    /// A net has fewer than two pins.
    DegenerateNet(String),
    /// A pin references a cell id that does not exist.
    DanglingPin {
        /// Name of the offending net.
        net: String,
        /// The unknown raw cell index.
        cell: u32,
    },
    /// No routing specification was provided.
    MissingRouting,
}

impl fmt::Display for BuildDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDesignError::EmptyDie => write!(f, "die rectangle has non-positive area"),
            BuildDesignError::DuplicateCellName(n) => write!(f, "duplicate cell name `{n}`"),
            BuildDesignError::DuplicateNetName(n) => write!(f, "duplicate net name `{n}`"),
            BuildDesignError::DegenerateNet(n) => {
                write!(f, "net `{n}` has fewer than two pins")
            }
            BuildDesignError::DanglingPin { net, cell } => {
                write!(f, "net `{net}` references unknown cell index {cell}")
            }
            BuildDesignError::MissingRouting => write!(f, "no routing specification provided"),
        }
    }
}

impl Error for BuildDesignError {}

/// A placed circuit: netlist + floorplan + per-cell positions.
///
/// Positions are **cell centers** in microns, the convention of analytical
/// placement. Use [`Design::cell_rect`] for the physical footprint.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    /// Identity of the netlist (cells, nets, pins), fixed at build time.
    netlist_id: u64,
    die: Rect,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    cell_pins: Vec<Vec<PinId>>,
    pos: Vec<Point>,
    rows: Vec<Row>,
    rails: Vec<PgRail>,
    obstructions: Vec<Obstruction>,
    routing: RoutingSpec,
}

impl Design {
    /// Identity of this design's netlist: unique per
    /// [`DesignBuilder::build`] call in the process, shared by clones.
    /// Cells, nets and pins cannot change after the build, so two designs
    /// with the same id have the same netlist — the key for caches
    /// derived from the netlist alone.
    pub fn netlist_id(&self) -> u64 {
        self.netlist_id
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Die (placement region) rectangle — the region `R` of Eq. (1).
    pub fn die(&self) -> Rect {
        self.die
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All pins.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Placement rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Power/ground rails.
    pub fn rails(&self) -> &[PgRail] {
        &self.rails
    }

    /// Routing blockages (macro obstructions and standalone blockage
    /// rectangles).
    pub fn obstructions(&self) -> &[Obstruction] {
        &self.obstructions
    }

    /// Routing environment.
    pub fn routing(&self) -> &RoutingSpec {
        &self.routing
    }

    /// Replaces the routing environment (used by the benchmark generator's
    /// capacity calibration pass).
    pub fn set_routing(&mut self, spec: RoutingSpec) {
        self.routing = spec;
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// A pin by id.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Pins attached to a cell.
    pub fn pins_of_cell(&self, id: CellId) -> &[PinId] {
        &self.cell_pins[id.index()]
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Current center position of a cell.
    #[inline]
    pub fn pos(&self, id: CellId) -> Point {
        self.pos[id.index()]
    }

    /// All positions, indexed by cell id.
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    /// Moves a cell center (no legality checks; the placer clamps itself).
    #[inline]
    pub fn set_pos(&mut self, id: CellId, p: Point) {
        self.pos[id.index()] = p;
    }

    /// Overwrites all positions.
    ///
    /// # Panics
    ///
    /// Panics if `pos.len() != num_cells()`.
    pub fn set_positions(&mut self, pos: &[Point]) {
        assert_eq!(pos.len(), self.pos.len(), "position count mismatch");
        self.pos.copy_from_slice(pos);
    }

    /// Physical footprint of a cell at its current position.
    pub fn cell_rect(&self, id: CellId) -> Rect {
        let c = &self.cells[id.index()];
        Rect::centered(self.pos[id.index()], c.w, c.h)
    }

    /// Absolute position of a pin (cell center + pin offset).
    pub fn pin_position(&self, id: PinId) -> Point {
        let pin = &self.pins[id.index()];
        self.pos[pin.cell.index()] + pin.offset
    }

    /// Iterator over ids of movable cells.
    pub fn movable_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_movable())
            .map(|(i, _)| CellId::from_index(i))
    }

    /// Iterator over ids of fixed macro blocks.
    pub fn macros(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::Macro)
            .map(|(i, _)| CellId::from_index(i))
    }

    /// Bounding box of a net's pins, or `None` for a pinless net.
    pub fn net_bbox(&self, id: NetId) -> Option<Rect> {
        let net = &self.nets[id.index()];
        let mut it = net.pins.iter().map(|&p| self.pin_position(p));
        let first = it.next()?;
        let mut r = Rect::new(first.x, first.y, first.x, first.y);
        for p in it {
            r.lo.x = r.lo.x.min(p.x);
            r.lo.y = r.lo.y.min(p.y);
            r.hi.x = r.hi.x.max(p.x);
            r.hi.y = r.hi.y.max(p.y);
        }
        Some(r)
    }

    /// Half-perimeter wirelength of one net.
    pub fn net_hpwl(&self, id: NetId) -> f64 {
        self.net_bbox(id)
            .map(|r| (r.width() + r.height()) * self.nets[id.index()].weight)
            .unwrap_or(0.0)
    }

    /// Total weighted half-perimeter wirelength of the design.
    pub fn hpwl(&self) -> f64 {
        (0..self.nets.len())
            .map(|i| self.net_hpwl(NetId::from_index(i)))
            .sum()
    }

    /// Average number of pins per cell — the `n̄` threshold of Algorithm 2.
    pub fn avg_pins_per_cell(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.pins.len() as f64 / self.cells.len() as f64
    }

    /// A bin grid of the requested dimensions over the die.
    pub fn grid(&self, nx: usize, ny: usize) -> GridSpec {
        GridSpec::new(self.die, nx, ny)
    }

    /// The G-cell grid defined by the routing spec (identical to the
    /// density-bin grid per Section II-B of the paper).
    pub fn gcell_grid(&self) -> GridSpec {
        GridSpec::new(self.die, self.routing.gx, self.routing.gy)
    }

    /// Total area of movable cells.
    pub fn movable_area(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.is_movable())
            .map(|c| c.area())
            .sum()
    }

    /// Area of the die minus fixed macro area (the space available to
    /// movable cells).
    pub fn free_area(&self) -> f64 {
        let macro_area: f64 = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.fixed && c.kind == CellKind::Macro)
            .map(|(i, c)| Rect::centered(self.pos[i], c.w, c.h).overlap_area(&self.die))
            .sum();
        (self.die.area() - macro_area).max(0.0)
    }

    /// Design utilization: movable area / free area.
    pub fn utilization(&self) -> f64 {
        let free = self.free_area();
        if free <= 0.0 {
            f64::INFINITY
        } else {
            self.movable_area() / free
        }
    }

    /// Looks up a cell id by instance name (linear scan; build your own map
    /// for bulk lookups).
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(CellId::from_index)
    }

    /// Deep-checks the database invariants: cross-references between pins,
    /// nets and cells, finite geometry, and positive movable-cell sizes.
    /// Returns a list of human-readable problems (empty = sound).
    ///
    /// The builder enforces these on construction; `validate` exists for
    /// data that entered through parsers or manual mutation.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.die.area() <= 0.0 {
            problems.push("die has non-positive area".to_string());
        }
        for (i, p) in self.pins.iter().enumerate() {
            if p.cell.index() >= self.cells.len() {
                problems.push(format!("pin p{i} references unknown cell {}", p.cell));
            }
            if p.net.index() >= self.nets.len() {
                problems.push(format!("pin p{i} references unknown net {}", p.net));
            }
            if !p.offset.x.is_finite() || !p.offset.y.is_finite() {
                problems.push(format!("pin p{i} has a non-finite offset"));
            }
        }
        for (i, n) in self.nets.iter().enumerate() {
            if n.pins.len() < 2 {
                problems.push(format!("net `{}` has fewer than two pins", n.name));
            }
            for &pid in &n.pins {
                if pid.index() >= self.pins.len() {
                    problems.push(format!("net `{}` references unknown pin {pid}", n.name));
                } else if self.pins[pid.index()].net.index() != i {
                    problems.push(format!(
                        "pin {pid} back-reference mismatch for net `{}`",
                        n.name
                    ));
                }
            }
        }
        for (i, o) in self.obstructions.iter().enumerate() {
            if !(o.rect.lo.x.is_finite()
                && o.rect.lo.y.is_finite()
                && o.rect.hi.x.is_finite()
                && o.rect.hi.y.is_finite())
            {
                problems.push(format!("obstruction {i} has non-finite geometry"));
            }
        }
        for (i, c) in self.cells.iter().enumerate() {
            if c.is_movable() && (c.w <= 0.0 || c.h <= 0.0) {
                problems.push(format!("movable cell `{}` has non-positive size", c.name));
            }
            let p = self.pos[i];
            if !p.x.is_finite() || !p.y.is_finite() {
                problems.push(format!("cell `{}` has a non-finite position", c.name));
            }
        }
        if self.routing.layers.is_empty() {
            problems.push("routing spec has no layers".to_string());
        }
        if self.routing.gx == 0 || self.routing.gy == 0 {
            problems.push("routing grid has a zero dimension".to_string());
        }
        problems
    }
}

/// Incremental builder for [`Design`] (C-BUILDER).
///
/// ```
/// use rdp_db::{DesignBuilder, Cell, Point, Rect, RoutingSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DesignBuilder::new("tiny", Rect::new(0.0, 0.0, 100.0, 100.0));
/// let a = b.add_cell(Cell::std("a", 1.0, 2.0), Point::new(10.0, 10.0));
/// let c = b.add_cell(Cell::std("b", 1.0, 2.0), Point::new(90.0, 90.0));
/// b.add_net("n0", vec![(a, Point::default()), (c, Point::default())]);
/// b.routing(RoutingSpec::uniform(4, 10.0, 10, 10));
/// let design = b.build()?;
/// assert_eq!(design.num_cells(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesignBuilder {
    name: String,
    die: Rect,
    cells: Vec<Cell>,
    pos: Vec<Point>,
    nets: Vec<(String, f64, Vec<(CellId, Point)>)>,
    rows: Vec<Row>,
    rails: Vec<PgRail>,
    obstructions: Vec<Obstruction>,
    routing: Option<RoutingSpec>,
}

impl DesignBuilder {
    /// Starts a design with a name and die rectangle.
    pub fn new(name: impl Into<String>, die: Rect) -> Self {
        DesignBuilder {
            name: name.into(),
            die,
            cells: Vec::new(),
            pos: Vec::new(),
            nets: Vec::new(),
            rows: Vec::new(),
            rails: Vec::new(),
            obstructions: Vec::new(),
            routing: None,
        }
    }

    /// Adds a cell at an initial center position and returns its id.
    pub fn add_cell(&mut self, cell: Cell, center: Point) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.cells.push(cell);
        self.pos.push(center);
        id
    }

    /// Adds a unit-weight net given `(cell, pin-offset)` pairs.
    pub fn add_net(&mut self, name: impl Into<String>, pins: Vec<(CellId, Point)>) -> &mut Self {
        self.nets.push((name.into(), 1.0, pins));
        self
    }

    /// Adds a weighted net.
    pub fn add_weighted_net(
        &mut self,
        name: impl Into<String>,
        weight: f64,
        pins: Vec<(CellId, Point)>,
    ) -> &mut Self {
        self.nets.push((name.into(), weight, pins));
        self
    }

    /// Adds one placement row.
    pub fn add_row(&mut self, row: Row) -> &mut Self {
        self.rows.push(row);
        self
    }

    /// Adds one PG rail.
    pub fn add_rail(&mut self, rail: PgRail) -> &mut Self {
        self.rails.push(rail);
        self
    }

    /// Adds one routing obstruction.
    pub fn add_obstruction(&mut self, obs: Obstruction) -> &mut Self {
        self.obstructions.push(obs);
        self
    }

    /// Sets the routing environment (required).
    pub fn routing(&mut self, spec: RoutingSpec) -> &mut Self {
        self.routing = Some(spec);
        self
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Validates and assembles the design.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildDesignError`] for a degenerate die, duplicate names,
    /// nets with fewer than two pins, pins referencing unknown cells, or a
    /// missing routing spec.
    pub fn build(self) -> Result<Design, BuildDesignError> {
        if self.die.area() <= 0.0 {
            return Err(BuildDesignError::EmptyDie);
        }
        let routing = self.routing.ok_or(BuildDesignError::MissingRouting)?;

        // The checks borrow the names; they run in the order the
        // assembly below would meet each fault, so the first one is
        // reported.
        let mut seen = HashSet::with_capacity(self.cells.len());
        for c in &self.cells {
            if !seen.insert(c.name.as_str()) {
                return Err(BuildDesignError::DuplicateCellName(c.name.clone()));
            }
        }
        let mut seen_nets = HashSet::with_capacity(self.nets.len());
        for (name, _, members) in &self.nets {
            if !seen_nets.insert(name.as_str()) {
                return Err(BuildDesignError::DuplicateNetName(name.clone()));
            }
            if members.len() < 2 {
                return Err(BuildDesignError::DegenerateNet(name.clone()));
            }
            if let Some((cell, _)) = members.iter().find(|(c, _)| c.index() >= self.cells.len()) {
                return Err(BuildDesignError::DanglingPin {
                    net: name.clone(),
                    cell: cell.0,
                });
            }
        }

        let num_pins = self.nets.iter().map(|(_, _, m)| m.len()).sum();
        let mut pins: Vec<Pin> = Vec::with_capacity(num_pins);
        let mut nets: Vec<Net> = Vec::with_capacity(self.nets.len());
        let mut cell_pins: Vec<Vec<PinId>> = vec![Vec::new(); self.cells.len()];

        for (name, weight, members) in self.nets {
            let net_id = NetId::from_index(nets.len());
            let mut pin_ids = Vec::with_capacity(members.len());
            for (cell, offset) in members {
                let pid = PinId::from_index(pins.len());
                pins.push(Pin {
                    cell,
                    net: net_id,
                    offset,
                });
                cell_pins[cell.index()].push(pid);
                pin_ids.push(pid);
            }
            nets.push(Net {
                name,
                pins: pin_ids,
                weight,
            });
        }

        // A plain counter: ids only need to be unique, and publish no data.
        static NEXT_NETLIST_ID: AtomicU64 = AtomicU64::new(0);
        Ok(Design {
            name: self.name,
            netlist_id: NEXT_NETLIST_ID.fetch_add(1, Ordering::Relaxed),
            die: self.die,
            cells: self.cells,
            nets,
            pins,
            cell_pins,
            pos: self.pos,
            rows: self.rows,
            rails: self.rails,
            obstructions: self.obstructions,
            routing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dir;

    fn tiny() -> Design {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 100.0, 100.0));
        let a = b.add_cell(Cell::std("a", 2.0, 2.0), Point::new(10.0, 10.0));
        let c = b.add_cell(Cell::std("b", 2.0, 2.0), Point::new(90.0, 20.0));
        let m = b.add_cell(Cell::fixed_macro("m", 20.0, 20.0), Point::new(50.0, 50.0));
        b.add_net(
            "n0",
            vec![
                (a, Point::new(0.5, 0.0)),
                (c, Point::new(-0.5, 0.0)),
                (m, Point::default()),
            ],
        );
        b.add_net("n1", vec![(a, Point::default()), (c, Point::default())]);
        b.routing(RoutingSpec::uniform(4, 10.0, 10, 10));
        b.build().unwrap()
    }

    #[test]
    fn build_and_query() {
        let d = tiny();
        assert_eq!(d.num_cells(), 3);
        assert_eq!(d.num_nets(), 2);
        assert_eq!(d.num_pins(), 5);
        assert_eq!(d.pins_of_cell(CellId(0)).len(), 2);
        assert_eq!(d.movable_cells().count(), 2);
        assert_eq!(d.macros().count(), 1);
        assert!((d.avg_pins_per_cell() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pin_positions_and_hpwl() {
        let d = tiny();
        // n1 connects centers (10,10) and (90,20): HPWL = 80 + 10.
        assert_eq!(d.net_hpwl(NetId(1)), 90.0);
        // n0 pins: (10.5,10), (89.5,20), (50,50): HPWL = 79 + 40.
        assert_eq!(d.net_hpwl(NetId(0)), 119.0);
        assert_eq!(d.hpwl(), 209.0);
    }

    #[test]
    fn set_positions_moves_pins() {
        let mut d = tiny();
        d.set_pos(CellId(0), Point::new(20.0, 10.0));
        assert_eq!(d.pin_position(PinId(3)), Point::new(20.0, 10.0));
        assert_eq!(d.net_hpwl(NetId(1)), 80.0);
    }

    #[test]
    fn utilization_accounts_macros() {
        let d = tiny();
        let free = 100.0 * 100.0 - 400.0;
        assert!((d.free_area() - free).abs() < 1e-9);
        assert!((d.utilization() - 8.0 / free).abs() < 1e-12);
    }

    #[test]
    fn cell_rect_is_centered() {
        let d = tiny();
        let r = d.cell_rect(CellId(2));
        assert_eq!(r, Rect::new(40.0, 40.0, 60.0, 60.0));
    }

    #[test]
    fn net_bbox() {
        let d = tiny();
        let bb = d.net_bbox(NetId(1)).unwrap();
        assert_eq!(bb, Rect::new(10.0, 10.0, 90.0, 20.0));
    }

    #[test]
    fn duplicate_cell_name_rejected() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_cell(Cell::std("a", 1.0, 1.0), Point::default());
        b.add_cell(Cell::std("a", 1.0, 1.0), Point::default());
        b.routing(RoutingSpec::uniform(2, 1.0, 2, 2));
        assert_eq!(
            b.build().unwrap_err(),
            BuildDesignError::DuplicateCellName("a".into())
        );
    }

    #[test]
    fn degenerate_net_rejected() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::default());
        b.add_net("n", vec![(a, Point::default())]);
        b.routing(RoutingSpec::uniform(2, 1.0, 2, 2));
        assert_eq!(
            b.build().unwrap_err(),
            BuildDesignError::DegenerateNet("n".into())
        );
    }

    #[test]
    fn missing_routing_rejected() {
        let b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(b.build().unwrap_err(), BuildDesignError::MissingRouting);
    }

    #[test]
    fn dangling_pin_rejected() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::default());
        b.add_net(
            "n",
            vec![(a, Point::default()), (CellId(99), Point::default())],
        );
        b.routing(RoutingSpec::uniform(2, 1.0, 2, 2));
        assert!(matches!(
            b.build().unwrap_err(),
            BuildDesignError::DanglingPin { .. }
        ));
    }

    #[test]
    fn find_cell_by_name() {
        let d = tiny();
        assert_eq!(d.find_cell("b"), Some(CellId(1)));
        assert_eq!(d.find_cell("zz"), None);
    }

    #[test]
    fn validate_accepts_built_design() {
        let d = tiny();
        assert!(d.validate().is_empty(), "{:?}", d.validate());
    }

    #[test]
    fn validate_detects_nonfinite_position() {
        let mut d = tiny();
        d.set_pos(CellId(0), Point::new(f64::NAN, 0.0));
        let problems = d.validate();
        assert!(problems.iter().any(|p| p.contains("non-finite position")));
    }

    #[test]
    fn rails_and_rows_roundtrip() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell(Cell::std("a", 1.0, 1.0), Point::default());
        let c = b.add_cell(Cell::std("b", 1.0, 1.0), Point::default());
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())]);
        b.add_row(Row {
            y: 0.0,
            height: 2.0,
            x0: 0.0,
            x1: 10.0,
            site_w: 0.5,
        });
        b.add_rail(PgRail {
            layer: 1,
            dir: Dir::Horizontal,
            rect: Rect::new(0.0, 2.0, 10.0, 2.2),
        });
        b.routing(RoutingSpec::uniform(2, 1.0, 2, 2));
        let d = b.build().unwrap();
        assert_eq!(d.rows().len(), 1);
        assert_eq!(d.rails().len(), 1);
    }
}
