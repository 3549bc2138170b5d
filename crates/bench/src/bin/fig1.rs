//! Regenerates **Fig. 1**: demonstrates the two congestion species and
//! the bounding-box overreach that motivates the paper's virtual-cell
//! net moving.
//!
//! (a) *Local* routing congestion from a dense cell cluster (movable by
//!     relocating cells) vs *global* routing congestion from a net bundle
//!     crossing a region that contains no cells at all (not fixable by
//!     moving cells out of the region — the nets themselves must move).
//! (b) A two-pin net whose bounding box contains congestion the net does
//!     not cause: a BB-based penalty (RUDY-style) charges the net for it,
//!     while the paper's virtual cell lands only on the congestion that
//!     lies on the net's own segment.
//!
//! ```sh
//! cargo run --release -p rdp-bench --bin fig1
//! ```

use rdp_core::{two_pin_gradient, CongestionField, HealthPolicy};
use rdp_db::{Cell, DesignBuilder, NetId, Point, Rect, RoutingSpec};
use rdp_route::{rudy_map, GlobalRouter};

fn main() {
    // ---- (a) local + global congestion in one design --------------------
    let mut b = DesignBuilder::new("fig1", Rect::new(0.0, 0.0, 96.0, 96.0));
    // Local congestion: a dense cluster of connected cells bottom-left.
    let mut cluster = Vec::new();
    for i in 0..60 {
        let x = 8.0 + (i % 10) as f64 * 1.5;
        let y = 8.0 + (i / 10) as f64 * 2.0;
        cluster.push(b.add_cell(Cell::std(format!("lc{i}"), 1.2, 2.0), Point::new(x, y)));
    }
    for i in 0..55 {
        b.add_net(
            format!("ln{i}"),
            vec![
                (cluster[i], Point::default()),
                (cluster[(i * 7 + 3) % 60], Point::default()),
            ],
        );
    }
    // Global congestion: a bundle of long nets crossing the empty top
    // stripe (no cells live there).
    let mut bundle = Vec::new();
    for i in 0..25 {
        let y = 76.0 + (i % 4) as f64;
        let a = b.add_cell(Cell::std(format!("ga{i}"), 1.2, 2.0), Point::new(4.0, y));
        let c = b.add_cell(Cell::std(format!("gb{i}"), 1.2, 2.0), Point::new(92.0, y));
        bundle.push((a, c));
    }
    for (i, (a, c)) in bundle.iter().enumerate() {
        b.add_net(
            format!("gn{i}"),
            vec![(*a, Point::default()), (*c, Point::default())],
        );
    }
    // The probe net of Fig. 1(b): crosses the global stripe; its BB also
    // swallows the unrelated cluster congestion at the bottom-left.
    let p1 = b.add_cell(Cell::std("p1", 1.2, 2.0), Point::new(20.0, 88.0));
    let p2 = b.add_cell(Cell::std("p2", 1.2, 2.0), Point::new(88.0, 60.0));
    b.add_net(
        "probe",
        vec![(p1, Point::default()), (p2, Point::default())],
    );
    b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
    let design = b.build().unwrap();

    let route = GlobalRouter::default().route(&design);
    let field = CongestionField::try_from_route(&design, &route, &HealthPolicy::default())
        .expect("finite congestion field");
    let grid = design.gcell_grid();

    println!("== Fig. 1(a): congestion map (Eq. 3) ==");
    println!("{}", route.congestion.ascii_heatmap(32));

    let local_c = field.congestion_at(Point::new(14.0, 12.0));
    let global_c = field.congestion_at(Point::new(48.0, 78.0));
    let cells_in_stripe = design
        .movable_cells()
        .filter(|&c| {
            let p = design.pos(c);
            (40.0..72.0).contains(&p.x) && p.y > 72.0
        })
        .count();
    println!("local congestion at the cell cluster:  C = {local_c:.2}");
    println!("global congestion in the net stripe:   C = {global_c:.2}");
    println!("cells inside the congested stripe region x∈[40,72]: {cells_in_stripe}");
    println!("→ the stripe congestion cannot be fixed by moving cells out of it\n");

    // ---- (b) BB overreach vs the virtual cell ----------------------------
    let probe = NetId::from_index(design.num_nets() - 1);
    let bb = design.net_bbox(probe).unwrap();
    let rudy = rudy_map(&design, &grid);

    // Congestion inside the BB split into "on the net's segment" vs not.
    let mut bb_congestion = 0.0;
    let mut bb_cells = 0;
    for (ix, iy, &c) in field.cmap.iter_coords() {
        if bb.intersects(&grid.bin_rect(ix, iy)) && c > 0.0 {
            bb_congestion += c;
            bb_cells += 1;
        }
    }
    let info = two_pin_gradient(&design, &field, probe, 1.0).expect("probe net spans G-cells");
    println!("== Fig. 1(b): probe net bounding box {bb} ==");
    println!(
        "congested G-cells inside the BB: {bb_cells} (total C = {bb_congestion:.1}) — RUDY max inside BB {:.2}",
        max_in(&rudy, &grid, &bb)
    );
    println!(
        "virtual cell placed at {} with segment congestion C = {:.2}",
        info.pos,
        field.congestion_at(info.pos)
    );
    println!(
        "→ a BB penalty charges the net for all {bb_cells} congested cells; the\n  virtual cell reacts only to congestion on the net's own segment"
    );
}

fn max_in(map: &rdp_db::Map2d<f64>, grid: &rdp_db::GridSpec, r: &Rect) -> f64 {
    let mut m: f64 = 0.0;
    for (ix, iy, &v) in map.iter_coords() {
        if r.intersects(&grid.bin_rect(ix, iy)) {
            m = m.max(v);
        }
    }
    m
}
