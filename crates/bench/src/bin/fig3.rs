//! Regenerates **Fig. 3**: the virtual-cell geometry of Algorithm 1 on a
//! crafted two-pin net crossing a congested stripe — prints the candidate
//! points (Eq. 7), the chosen virtual cell (Eq. 8), the field gradient
//! ∇C_cv, the oriented normal n̂, the projection ∇C⊥, and the final
//! lever-arm-weighted per-cell gradients (Eq. 9).
//!
//! ```sh
//! cargo run --release -p rdp-bench --bin fig3
//! ```

use rdp_core::{two_pin_gradient, CongestionField, HealthPolicy};
use rdp_db::{Cell, DesignBuilder, NetId, Point, Rect, RoutingSpec};
use rdp_route::GlobalRouter;

fn main() {
    // A congested horizontal stripe (the red region of Fig. 3) and one
    // diagonal probe net crossing it.
    let mut b = DesignBuilder::new("fig3", Rect::new(0.0, 0.0, 64.0, 64.0));
    let mut pairs = Vec::new();
    for i in 0..40 {
        let y = 28.0 + (i % 5) as f64;
        let a = b.add_cell(Cell::std(format!("a{i}"), 1.0, 2.0), Point::new(2.0, y));
        let c = b.add_cell(Cell::std(format!("b{i}"), 1.0, 2.0), Point::new(62.0, y));
        pairs.push((a, c));
    }
    for (i, (a, c)) in pairs.iter().enumerate() {
        b.add_net(
            format!("n{i}"),
            vec![(*a, Point::default()), (*c, Point::default())],
        );
    }
    let c1 = b.add_cell(Cell::std("c1", 1.0, 2.0), Point::new(14.0, 20.0));
    let c2 = b.add_cell(Cell::std("c2", 1.0, 2.0), Point::new(52.0, 44.0));
    b.add_net(
        "probe",
        vec![(c1, Point::default()), (c2, Point::default())],
    );
    b.routing(RoutingSpec::uniform(4, 2.0, 16, 16));
    let design = b.build().unwrap();

    let route = GlobalRouter::default().route(&design);
    let field = CongestionField::try_from_route(&design, &route, &HealthPolicy::default())
        .expect("finite congestion field");
    println!("congestion map (the red stripe):");
    println!("{}", field.cmap.ascii_heatmap(32));

    let probe = NetId::from_index(design.num_nets() - 1);
    let pins = &design.net(probe).pins;
    let p1 = design.pin_position(pins[0]);
    let p2 = design.pin_position(pins[1]);
    let grid = design.gcell_grid();

    // Eq. (6): candidate count.
    let k = (((p1.x - p2.x).abs() / grid.bin_w()).floor() as usize)
        .max(((p1.y - p2.y).abs() / grid.bin_h()).floor() as usize);
    println!("pins p1 = {p1}, p2 = {p2}; Eq. (6) gives k = {k} candidates");
    println!("{:>4} {:>22} {:>8}", "i", "candidate (Eq. 7)", "C (Eq. 3)");
    for i in 1..=k {
        let t = i as f64 / (k + 1) as f64;
        let cand = p1 + (p2 - p1).scale(t);
        println!(
            "{:>4} {:>22} {:>8.3}",
            i,
            format!("{cand}"),
            field.congestion_at(cand)
        );
    }

    let info = two_pin_gradient(&design, &field, probe, 1.0).expect("probe spans G-cells");
    println!("\nvirtual cell c_v (Eq. 8):    {}", info.pos);
    println!(
        "field gradient ∇C_cv:        ({:+.4}, {:+.4})",
        info.grad_v.x, info.grad_v.y
    );
    println!(
        "oriented unit normal n̂:      ({:+.4}, {:+.4})",
        info.normal.x, info.normal.y
    );
    println!(
        "projection ∇C⊥ = (∇C·n̂)n̂:    ({:+.4}, {:+.4})",
        info.proj.x, info.proj.y
    );
    let l = p1.distance(p2);
    let d1 = p1.distance(info.pos);
    let d2 = p2.distance(info.pos);
    println!("\nEq. (9) lever arms: L = {l:.2}, d1v = {d1:.2}, d2v = {d2:.2}");
    println!(
        "∇C_c1 = L/(2·d1v)·∇C⊥ = ({:+.4}, {:+.4})   |∇C_c1| = {:.4}",
        info.g1.x,
        info.g1.y,
        info.g1.norm()
    );
    println!(
        "∇C_c2 = L/(2·d2v)·∇C⊥ = ({:+.4}, {:+.4})   |∇C_c2| = {:.4}",
        info.g2.x,
        info.g2.y,
        info.g2.norm()
    );
    println!(
        "\n→ descent −∇C moves the whole net {} out of the stripe, the closer pin faster",
        if info.g1.y > 0.0 {
            "downward"
        } else {
            "upward"
        }
    );
}
