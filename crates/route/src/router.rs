//! Congestion-aware L/Z-shape pattern global router.
//!
//! A CPU stand-in for the GPU-accelerated 3-D Z-shape router of Lin & Wong
//! (ICCAD 2022) that the paper invokes for congestion estimation. Every
//! net is decomposed into two-pin segments ([`crate::rsmt`]); each segment
//! is routed with the cheapest of its straight / L-shape / Z-shape
//! candidates under a logistic congestion cost, and its demand is
//! committed to the maps. A configurable number of rip-up-and-reroute
//! passes refines the solution against the accumulated demand.

use crate::capacity::CapacityMaps;
use crate::maps::RouteMaps;
use crate::maze::MazeStep;
use crate::rsmt;
use rdp_db::{Design, GridSpec, Map2d, NetId};
use rdp_obs::Collector;
use rdp_par::{chunk_len, fast_exp, Pool};

/// Demand units consumed by one via in a G-cell.
const VIA_WEIGHT: f64 = 0.5;
/// Cost charged per bend (via) when comparing candidates.
const VIA_COST: f64 = 1.0;
/// Logistic congestion-cost amplitude.
const COST_AMPLITUDE: f64 = 12.0;
/// Logistic congestion-cost sharpness.
const COST_SHARPNESS: f64 = 6.0;
/// Vias added per pin for the connection from the pin layer up into the
/// routing layers.
const PIN_VIA: f64 = 0.5;

/// Effort settings of [`GlobalRouter`]. The cost and capacity model is
/// fixed; these three settings are what the in-loop congestion
/// estimator, the evaluation router and the generator's calibration
/// route differ in.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Number of interior bend positions sampled per Z-shape family.
    pub z_candidates: usize,
    /// Routing passes; passes beyond the first rip up and reroute every
    /// net against the then-current demand.
    pub passes: usize,
    /// Maximum number of overflow-crossing segments ripped up and
    /// re-routed with the A* maze router after the pattern passes
    /// (0 disables the maze phase; the evaluation flow enables it to let
    /// congested placements pay real detours).
    pub maze_rip_up: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            z_candidates: 4,
            passes: 2,
            maze_rip_up: 0,
        }
    }
}

/// Result of routing a design.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Demand and capacity maps after routing.
    pub maps: RouteMaps,
    /// Total routed wirelength in microns (including maze detours).
    pub wirelength: f64,
    /// Total via count (bend vias + pin vias).
    pub vias: f64,
    /// Cached Eq. (3) congestion map.
    pub congestion: Map2d<f64>,
    /// Segments re-routed by the maze phase.
    pub maze_rerouted: usize,
    /// Extra wirelength (microns) spent on maze detours.
    pub detour_wirelength: f64,
}

impl RouteResult {
    /// Convenience: maximum congestion value.
    pub fn max_congestion(&self) -> f64 {
        self.congestion.max()
    }
}

/// One monotone run of a committed path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Run {
    /// True for a horizontal run.
    horizontal: bool,
    /// Row (for horizontal) or column (for vertical).
    fixed: usize,
    /// Inclusive start index along the run.
    from: usize,
    /// Inclusive end index along the run.
    to: usize,
}

/// A pattern route: at most three monotone runs plus the bend count,
/// stored inline. Candidate enumeration creates and discards dozens of
/// these per segment, so the fixed-size representation (no heap) matters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Path {
    runs: [Run; 3],
    nruns: u8,
    bends: u8,
}

impl Path {
    #[inline]
    fn one(r: Run) -> Path {
        Path {
            runs: [r, Run::default(), Run::default()],
            nruns: 1,
            bends: 0,
        }
    }

    #[inline]
    fn two(a: Run, b: Run) -> Path {
        Path {
            runs: [a, b, Run::default()],
            nruns: 2,
            bends: 1,
        }
    }

    #[inline]
    fn three(a: Run, b: Run, c: Run) -> Path {
        Path {
            runs: [a, b, c],
            nruns: 3,
            bends: 2,
        }
    }

    /// The populated runs.
    #[inline]
    fn runs(&self) -> &[Run] {
        &self.runs[..self.nruns as usize]
    }

    /// Bend count (0 for straight, 1 for L, 2 for Z).
    #[inline]
    fn bends(&self) -> usize {
        self.bends as usize
    }
}

/// Committed route of one two-pin segment: the pattern path, or the
/// bends and extra length of the maze detour that replaced it.
#[derive(Debug, Clone, Default)]
struct SegRoute {
    /// Pattern route; cleared (empty) when a maze detour replaced it.
    path: Path,
    /// Bends of the maze detour.
    maze_bends: usize,
    /// Extra wirelength (microns) the maze detour added.
    detour: f64,
}

/// A two-pin segment in G-cell coordinates.
type Seg = ((usize, usize), (usize, usize));

/// Per-net decomposition: the data a route needs about a net.
#[derive(Debug, Clone, Default)]
struct NetDecomp {
    /// Two-pin segments in G-cell coordinates.
    cells: Vec<Seg>,
    /// G-cells of the net's pins (one pin-via charge each).
    pin_bins: Vec<(usize, usize)>,
    /// Total pin-via demand of the net.
    pin_vias: f64,
    /// RSMT wirelength of the net in microns.
    net_len: f64,
}

/// Adds (`sign = 1.0`) or subtracts (`sign = -1.0`) a pattern path's
/// demand. Wire demand is ±1 per cell, bend vias ±1 at run joints — all
/// dyadic, so add/subtract pairs cancel exactly.
fn apply_path(maps: &mut RouteMaps, path: &Path, sign: f64) {
    for run in path.runs() {
        for i in run.from..=run.to {
            if run.horizontal {
                maps.h_demand[(i, run.fixed)] += sign;
            } else {
                maps.v_demand[(run.fixed, i)] += sign;
            }
        }
    }
    // Bend vias at run joints: charged at the start cell of each
    // follow-up run.
    for w in path.runs().windows(2) {
        let joint = joint_cell(&w[0], &w[1]);
        maps.via_demand[joint] += sign;
    }
}

/// Adds a maze detour's demand: +1 wire per step in its direction, +1 via
/// at each direction change.
fn apply_maze(maps: &mut RouteMaps, steps: &[MazeStep]) {
    for step in steps {
        if step.horizontal {
            maps.h_demand[step.cell] += 1.0;
        } else {
            maps.v_demand[step.cell] += 1.0;
        }
    }
    let mut prev_dir: Option<bool> = None;
    for step in steps {
        if let Some(pd) = prev_dir {
            if pd != step.horizontal {
                maps.via_demand[step.cell] += 1.0;
            }
        }
        prev_dir = Some(step.horizontal);
    }
}

/// Builds a [`RouteResult`] from the per-net decomposition and committed
/// segments. All sums run in flat net order.
fn summarize(
    maps: RouteMaps,
    decomp: &[NetDecomp],
    committed: &[Vec<SegRoute>],
    maze_rerouted: usize,
) -> RouteResult {
    let mut wirelength = 0.0;
    let mut pin_vias = 0.0;
    for d in decomp {
        wirelength += d.net_len;
        pin_vias += d.pin_vias;
    }
    let mut bend_vias = 0.0;
    let mut detour = 0.0;
    for seg in committed.iter().flatten() {
        bend_vias += seg.path.bends() as f64 + seg.maze_bends as f64;
        detour += seg.detour;
    }
    let congestion = maps.congestion_eq3();
    RouteResult {
        maps,
        wirelength: wirelength + detour,
        vias: bend_vias + pin_vias,
        congestion,
        maze_rerouted,
        detour_wirelength: detour,
    }
}

/// Congestion-aware pattern router.
#[derive(Debug, Clone, Default)]
pub struct GlobalRouter {
    cfg: RouterConfig,
}

impl GlobalRouter {
    /// Creates a router with the given configuration.
    pub fn new(cfg: RouterConfig) -> Self {
        GlobalRouter { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Routes the design on its G-cell grid.
    ///
    /// Net decomposition runs on [`Pool::global`] in fixed chunks; the
    /// pattern passes price and commit every segment serially in
    /// (net, segment) order, so the result is bit-identical for any
    /// thread count.
    pub fn route(&self, design: &Design) -> RouteResult {
        self.route_obs(design, &Collector::disabled())
    }

    /// [`route`](GlobalRouter::route) with observability: the decomposition,
    /// each pattern pass and the maze phase are recorded as spans, plus
    /// the maze reroute counter. Results are identical to
    /// [`route`](GlobalRouter::route).
    pub fn route_obs(&self, design: &Design, obs: &Collector) -> RouteResult {
        let grid = design.gcell_grid();
        let caps = CapacityMaps::build(design);
        let mut maps = RouteMaps::new(caps, VIA_WEIGHT);
        let decomp = self.decompose(design, &grid, obs);

        // Commit pin vias once in net order, independent of pass structure.
        for d in &decomp {
            for &pb in &d.pin_bins {
                maps.via_demand[pb] += PIN_VIA;
            }
        }

        let cells: Vec<&[Seg]> = decomp.iter().map(|d| d.cells.as_slice()).collect();
        let mut committed: Vec<Vec<SegRoute>> = vec![Vec::new(); decomp.len()];
        self.pattern_passes(&mut maps, &cells, &mut committed, obs);
        let maze_rerouted = self.maze_phase(&mut maps, &grid, &cells, &mut committed, obs);
        obs.counter_add("route_maze_rerouted", maze_rerouted as u64);
        summarize(maps, &decomp, &committed, maze_rerouted)
    }

    /// Decomposes one net into two-pin G-cell segments.
    fn decompose_net(&self, design: &Design, grid: &GridSpec, ni: usize) -> NetDecomp {
        let pins: Vec<_> = design
            .net(NetId::from_index(ni))
            .pins
            .iter()
            .map(|&p| design.pin_position(p))
            .collect();
        let segs = rsmt::decompose(&pins);
        let net_len = rsmt::total_length(&segs);
        let cells: Vec<Seg> = segs
            .iter()
            .map(|s| (grid.bin_of(s.a), grid.bin_of(s.b)))
            .collect();
        let pin_bins: Vec<_> = pins.iter().map(|p| grid.bin_of(*p)).collect();
        NetDecomp {
            cells,
            pin_vias: PIN_VIA * pins.len() as f64,
            pin_bins,
            net_len,
        }
    }

    /// Decomposes every net in parallel (fixed chunking, results in net
    /// order).
    fn decompose(&self, design: &Design, grid: &GridSpec, obs: &Collector) -> Vec<NetDecomp> {
        let _span = obs.span("route_decompose", "route");
        let n = design.num_nets();
        let chunk = chunk_len(n, 64, 32);
        Pool::global()
            .map_chunks(n, chunk, |_ci, range| {
                range
                    .map(|ni| self.decompose_net(design, grid, ni))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// The pattern passes: pass 0 routes every segment, passes 1.. rip up
    /// each net and reroute it against the then-current demand. Segments
    /// are priced against the live maps and committed one at a time in
    /// (net, segment) order. `committed[ri]` must start empty and receives
    /// net `ri`'s segment routes.
    fn pattern_passes(
        &self,
        maps: &mut RouteMaps,
        cells: &[&[Seg]],
        committed: &mut [Vec<SegRoute>],
        obs: &Collector,
    ) {
        for pass in 0..self.cfg.passes.max(1) {
            let _pass_span = obs.span_iter("route_pass", "route", pass as i64);
            for (segs, routes) in cells.iter().zip(committed.iter_mut()) {
                for seg in routes.drain(..) {
                    apply_path(maps, &seg.path, -1.0);
                }
                for &(a, b) in segs.iter() {
                    let path = self.best_path(maps, a, b);
                    apply_path(maps, &path, 1.0);
                    routes.push(SegRoute {
                        path,
                        ..SegRoute::default()
                    });
                }
            }
        }
    }

    /// Maze phase: rips up the worst overflow-crossing committed segments
    /// and lets A* find detours, recording the detour's bends and extra
    /// length in the segment's [`SegRoute`]. Returns the reroute count.
    /// No-op when `maze_rip_up` is 0.
    fn maze_phase(
        &self,
        maps: &mut RouteMaps,
        grid: &GridSpec,
        cells: &[&[Seg]],
        committed: &mut [Vec<SegRoute>],
        obs: &Collector,
    ) -> usize {
        if self.cfg.maze_rip_up == 0 {
            return 0;
        }
        let _maze_span = obs.span("route_maze", "route");
        let mut maze_rerouted = 0usize;
        // Score each committed segment by the overflow it crosses.
        let mut scored: Vec<(f64, usize, usize)> = Vec::new(); // (score, req idx, seg idx)
        for (ri, segs) in committed.iter().enumerate() {
            for (si, seg) in segs.iter().enumerate() {
                let mut score = 0.0;
                for run in seg.path.runs() {
                    for i in run.from..=run.to {
                        let (ix, iy) = if run.horizontal {
                            (i, run.fixed)
                        } else {
                            (run.fixed, i)
                        };
                        score += (maps.demand_at(ix, iy) - maps.capacity_at(ix, iy)).max(0.0);
                    }
                }
                if score > 0.0 {
                    scored.push((score, ri, si));
                }
            }
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored.truncate(self.cfg.maze_rip_up);

        let pitch = 0.5 * (grid.bin_w() + grid.bin_h());
        for (_, ri, si) in scored {
            let old = committed[ri][si].path;
            apply_path(maps, &old, -1.0);
            let (a, b) = cells[ri][si];
            let found = {
                let frozen: &RouteMaps = maps;
                let cost = |ix: usize, iy: usize, horizontal: bool| {
                    self.cell_cost(frozen, ix, iy, horizontal)
                };
                crate::maze::astar(frozen, a, b, &cost, VIA_COST)
            };
            match found {
                Some(mp) => {
                    apply_maze(maps, &mp.steps);
                    let manhattan =
                        (a.0 as f64 - b.0 as f64).abs() + (a.1 as f64 - b.1 as f64).abs();
                    let extra = (mp.steps.len() as f64 - manhattan).max(0.0) * pitch;
                    maze_rerouted += 1;
                    let seg = &mut committed[ri][si];
                    seg.path = Path::default(); // consumed
                    seg.maze_bends = mp.bends;
                    seg.detour = extra;
                }
                None => {
                    // Restore the pattern route (degenerate grids only).
                    apply_path(maps, &old, 1.0);
                }
            }
        }
        maze_rerouted
    }

    /// Logistic congestion cost of pushing one more unit of demand through
    /// a G-cell in the given direction. Uses the deterministic inlinable
    /// [`fast_exp`] so the surrounding loops vectorize.
    #[inline]
    fn cell_cost(&self, maps: &RouteMaps, ix: usize, iy: usize, horizontal: bool) -> f64 {
        let (dem, cap) = if horizontal {
            (maps.h_demand[(ix, iy)], maps.caps.h[(ix, iy)])
        } else {
            (maps.v_demand[(ix, iy)], maps.caps.v[(ix, iy)])
        };
        let u = (dem + 1.0 + maps.via_weight * maps.via_demand[(ix, iy)]) / cap;
        1.0 + COST_AMPLITUDE / (1.0 + fast_exp(-COST_SHARPNESS * (u - 1.0)))
    }

    /// Cost of one monotone run. Horizontal runs read contiguous row
    /// slices (the hot case: repeated index math dominates the scalar
    /// version); vertical runs fall back to per-cell indexing.
    fn run_cost(&self, maps: &RouteMaps, run: &Run) -> f64 {
        let mut acc = 0.0;
        if run.horizontal {
            let h = maps.h_demand.row(run.fixed);
            let ch = maps.caps.h.row(run.fixed);
            let via = maps.via_demand.row(run.fixed);
            let w = maps.via_weight;
            for i in run.from..=run.to {
                let u = (h[i] + 1.0 + w * via[i]) / ch[i];
                acc += 1.0 + COST_AMPLITUDE / (1.0 + fast_exp(-COST_SHARPNESS * (u - 1.0)));
            }
        } else {
            for i in run.from..=run.to {
                acc += self.cell_cost(maps, run.fixed, i, false);
            }
        }
        acc
    }

    fn path_cost(&self, maps: &RouteMaps, path: &Path) -> f64 {
        let mut acc = 0.0;
        for r in path.runs() {
            acc += self.run_cost(maps, r);
        }
        acc + VIA_COST * path.bends as f64
    }

    /// Enumerates straight / L / Z candidates and returns the cheapest.
    ///
    /// Candidates are evaluated in a fixed order with `<=` replacement, so
    /// the **last** minimum wins — the same tie-break as the previous
    /// `Iterator::min_by` implementation, without materializing the
    /// candidate list.
    fn best_path(&self, maps: &RouteMaps, a: (usize, usize), b: (usize, usize)) -> Path {
        let (ax, ay) = a;
        let (bx, by) = b;
        if ax == bx && ay == by {
            return Path::default();
        }
        if ay == by {
            return Path::one(hrun(ay, ax, bx));
        }
        if ax == bx {
            return Path::one(vrun(ax, ay, by));
        }

        // L-shapes.
        let mut best = Path::two(hrun(ay, ax, bx), vrun(bx, ay, by));
        let mut best_cost = self.path_cost(maps, &best);
        let cand = Path::two(vrun(ax, ay, by), hrun(by, ax, bx));
        let c = self.path_cost(maps, &cand);
        if c <= best_cost {
            best = cand;
            best_cost = c;
        }
        // Z-shapes: H-V-H with interior bend column, V-H-V with interior
        // bend row.
        let (xlo, xhi) = (ax.min(bx), ax.max(bx));
        let (ylo, yhi) = (ay.min(by), ay.max(by));
        for t in 1..=self.cfg.z_candidates {
            let xm = xlo + t * (xhi - xlo) / (self.cfg.z_candidates + 1);
            if xm > xlo && xm < xhi {
                let cand = Path::three(hrun(ay, ax, xm), vrun(xm, ay, by), hrun(by, xm, bx));
                let c = self.path_cost(maps, &cand);
                if c <= best_cost {
                    best = cand;
                    best_cost = c;
                }
            }
            let ym = ylo + t * (yhi - ylo) / (self.cfg.z_candidates + 1);
            if ym > ylo && ym < yhi {
                let cand = Path::three(vrun(ax, ay, ym), hrun(ym, ax, bx), vrun(bx, ym, by));
                let c = self.path_cost(maps, &cand);
                if c <= best_cost {
                    best = cand;
                    best_cost = c;
                }
            }
        }
        best
    }
}

fn hrun(y: usize, x0: usize, x1: usize) -> Run {
    Run {
        horizontal: true,
        fixed: y,
        from: x0.min(x1),
        to: x0.max(x1),
    }
}

fn vrun(x: usize, y0: usize, y1: usize) -> Run {
    Run {
        horizontal: false,
        fixed: x,
        from: y0.min(y1),
        to: y0.max(y1),
    }
}

/// The G-cell where two consecutive runs meet.
fn joint_cell(a: &Run, b: &Run) -> (usize, usize) {
    // One is horizontal, the other vertical: the joint is (v.fixed, h.fixed).
    if a.horizontal {
        (b.fixed, a.fixed)
    } else {
        (a.fixed, b.fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, DesignBuilder, Point, Rect, RoutingSpec};

    fn two_pin_design(a: Point, b: Point) -> Design {
        let mut db = DesignBuilder::new("t", Rect::new(0.0, 0.0, 80.0, 80.0));
        let c1 = db.add_cell(Cell::std("a", 1.0, 1.0), a);
        let c2 = db.add_cell(Cell::std("b", 1.0, 1.0), b);
        db.add_net("n", vec![(c1, Point::default()), (c2, Point::default())]);
        db.routing(RoutingSpec::uniform(4, 10.0, 8, 8));
        db.build().unwrap()
    }

    #[test]
    fn straight_segment_consumes_h_demand_only() {
        let d = two_pin_design(Point::new(5.0, 45.0), Point::new(75.0, 45.0));
        let r = GlobalRouter::default().route(&d);
        // Row 4 G-cells 0..=7 each get 1 unit of horizontal demand.
        for ix in 0..8 {
            assert_eq!(r.maps.h_demand[(ix, 4)], 1.0, "ix={ix}");
        }
        assert_eq!(r.maps.v_demand.sum(), 0.0);
        // Only pin vias, no bends.
        assert_eq!(r.vias, 1.0);
        assert!((r.wirelength - 70.0).abs() < 1e-9);
    }

    #[test]
    fn l_or_z_route_conserves_demand() {
        let d = two_pin_design(Point::new(5.0, 5.0), Point::new(75.0, 75.0));
        let r = GlobalRouter::default().route(&d);
        // A monotone path spans 8 columns + 8 rows; the joint cell is
        // counted once per direction it is traversed in.
        let total = r.maps.h_demand.sum() + r.maps.v_demand.sum();
        // 8 horizontal cells + 8 vertical cells, with the bends double
        // counted once per bend (each bend cell carries both H and V).
        assert!(total >= 16.0 && total <= 18.0, "total demand {total}");
        assert!(r.vias >= 2.0); // 1 pin via total + >=1 bend
    }

    #[test]
    fn same_gcell_net_adds_no_wire_demand() {
        let d = two_pin_design(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        let r = GlobalRouter::default().route(&d);
        assert_eq!(r.maps.h_demand.sum(), 0.0);
        assert_eq!(r.maps.v_demand.sum(), 0.0);
        assert_eq!(r.maps.via_demand.sum(), 1.0); // two pin vias à 0.5
    }

    #[test]
    fn router_avoids_congested_column() {
        // Jam the direct column with fake demand, then route a vertical
        // segment: with Z-candidates the router can sidestep; since a
        // vertical segment has only the straight candidate, use a diagonal
        // segment whose L candidates differ in congestion.
        let d = two_pin_design(Point::new(5.0, 5.0), Point::new(75.0, 75.0));
        let caps = CapacityMaps::build(&d);
        let mut maps = RouteMaps::new(caps, VIA_WEIGHT);
        // Make column x=0 (the V leg of the VH L-shape) very expensive.
        for iy in 0..8 {
            maps.v_demand[(0, iy)] = 500.0;
        }
        let router = GlobalRouter::default();
        let path = router.best_path(&maps, (0, 0), (7, 7));
        // The chosen path must not run vertically along column 0.
        for run in path.runs() {
            assert!(
                run.horizontal || run.fixed != 0,
                "path used congested column: {path:?}"
            );
        }
    }

    #[test]
    fn multi_pin_net_routes_all_mst_edges() {
        let mut db = DesignBuilder::new("t", Rect::new(0.0, 0.0, 80.0, 80.0));
        let c1 = db.add_cell(Cell::std("a", 1.0, 1.0), Point::new(5.0, 5.0));
        let c2 = db.add_cell(Cell::std("b", 1.0, 1.0), Point::new(75.0, 5.0));
        let c3 = db.add_cell(Cell::std("c", 1.0, 1.0), Point::new(5.0, 75.0));
        db.add_net(
            "n",
            vec![
                (c1, Point::default()),
                (c2, Point::default()),
                (c3, Point::default()),
            ],
        );
        db.routing(RoutingSpec::uniform(4, 10.0, 8, 8));
        let d = db.build().unwrap();
        let r = GlobalRouter::default().route(&d);
        assert!((r.wirelength - 140.0).abs() < 1e-9);
        // Both MST edges are axis-aligned: 8+8 cells of wire demand.
        assert_eq!(r.maps.h_demand.sum() + r.maps.v_demand.sum(), 16.0);
    }

    #[test]
    fn second_pass_never_worse() {
        // With many overlapping nets, pass 2 should not increase overflow.
        let mut db = DesignBuilder::new("t", Rect::new(0.0, 0.0, 80.0, 80.0));
        let mut ids = Vec::new();
        for i in 0..40 {
            let y = 35.0 + (i % 4) as f64;
            let a = db.add_cell(Cell::std(format!("a{i}"), 1.0, 1.0), Point::new(5.0, y));
            let b = db.add_cell(
                Cell::std(format!("b{i}"), 1.0, 1.0),
                Point::new(75.0, 75.0 - y),
            );
            ids.push((a, b));
        }
        for (i, (a, b)) in ids.iter().enumerate() {
            db.add_net(
                format!("n{i}"),
                vec![(*a, Point::default()), (*b, Point::default())],
            );
        }
        db.routing(RoutingSpec::uniform(4, 3.0, 8, 8));
        let d = db.build().unwrap();
        let one_pass = GlobalRouter::new(RouterConfig {
            passes: 1,
            ..Default::default()
        })
        .route(&d);
        let two_pass = GlobalRouter::new(RouterConfig {
            passes: 2,
            ..Default::default()
        })
        .route(&d);
        assert!(
            two_pass.maps.total_overflow() <= one_pass.maps.total_overflow() + 1e-9,
            "pass2 {} vs pass1 {}",
            two_pass.maps.total_overflow(),
            one_pass.maps.total_overflow()
        );
    }

    #[test]
    fn congestion_map_dimensions_match_grid() {
        let d = two_pin_design(Point::new(5.0, 5.0), Point::new(75.0, 75.0));
        let r = GlobalRouter::default().route(&d);
        assert_eq!(r.congestion.nx(), 8);
        assert_eq!(r.congestion.ny(), 8);
        assert!(r.max_congestion() >= 0.0);
    }
}
