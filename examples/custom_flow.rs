//! Assembling a custom routability flow: hand-tuned configuration,
//! per-iteration log inspection, and hotspot diagnostics — the APIs a
//! downstream placer project would build on.
//!
//! ```sh
//! cargo run --release --example custom_flow
//! ```

use rdp::core::{run_flow, DpaMode, InflationPolicy, RoutabilityConfig};
use rdp::route::GlobalRouter;

fn main() {
    let mut design = rdp::gen::generate(
        "custom",
        &rdp::gen::GenParams {
            num_cells: 1500,
            num_macros: 3,
            macro_fraction: 0.18,
            utilization: 0.6,
            congestion_margin: 0.8,
            rail_pitch: 1.0,
            seed: 123,
            ..rdp::gen::GenParams::default()
        },
    );

    // A custom configuration: gentler inflation and a longer, more
    // patient routability loop with shorter placement bursts.
    let cfg = RoutabilityConfig {
        inflation: InflationPolicy::Momentum { alpha: 0.3 },
        enable_dc: true,
        dpa: Some(DpaMode::Dynamic),
        max_route_iters: 8,
        gp_iters_per_route: 20,
        stop_patience: 3,
        ..RoutabilityConfig::default()
    };

    let report = run_flow(&mut design, &cfg).expect("flow diverged beyond recovery");
    println!(
        "flow finished: {} + {} iterations, HPWL {:.0} um, {:.2}s",
        report.gp_iterations, report.route_iterations, report.hpwl, report.place_seconds
    );
    println!("\nper-iteration congestion objective:");
    for l in &report.log {
        println!(
            "  iter {:>2}: overflow {:>8.1}, C(x,y) {:>10.2}, λ₂ {:.4}, {} virtual cells",
            l.iter, l.overflow, l.c_penalty, l.lambda2, l.virtual_cells
        );
    }

    // Legalize and detail-place (preserving inflation spacing), then
    // diagnose what remains.
    rdp::legalize_after_flow(&mut design, &report, &rdp::obs::Collector::disabled());

    let route = GlobalRouter::default().route(&design);
    let grid = design.gcell_grid();
    let spots = rdp::drc::hotspots(&design, &route, &grid, 5);
    println!("\ntop remaining hotspots:");
    if spots.is_empty() {
        println!("  none — the placement routes within capacity");
    }
    for s in &spots {
        println!(
            "  G-cell {:?} at {}: overflow {:.1} tracks, util {:.2}, {} cells, {} pins → {}",
            s.gcell,
            s.region.center(),
            s.overflow,
            s.utilization,
            s.cells,
            s.pins,
            rdp::drc::classify(s)
        );
    }
    if let Some(c) = rdp::drc::overflow_centroid(&route, &grid) {
        println!("overflow centroid: {c}");
    }
}
