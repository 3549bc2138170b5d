//! Regenerates **Fig. 2**: a walk-through of the routability-driven flow,
//! printing each stage and the per-iteration loop state (router → MCI →
//! DPA → DC → Nesterov) including the C(x,y) stopping rule.
//!
//! ```sh
//! cargo run --release -p rdp-bench --bin fig2 [design]
//! ```

use rdp_core::{run_flow, select_rails, DpaConfig, PlacerPreset, RoutabilityConfig};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "fft_b".into());
    let entry = rdp_gen::ispd2015_suite()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("unknown design `{name}`"));
    let mut design = rdp_bench::prepare_design(&entry);

    println!("== Fig. 2 flow walk-through on `{name}` ==\n");
    println!("[1] PG rail selection for pin accessibility");
    let selected = select_rails(&design, &DpaConfig::default());
    println!(
        "    {} rails in the design → {} selected pieces after macro cutting + length filter",
        design.rails().len(),
        selected.len()
    );

    println!("[2] wirelength-driven global placement (Xplace engine)");
    let cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
    let report = run_flow(&mut design, &cfg).expect("flow diverged");
    println!(
        "    {} Nesterov iterations → HPWL {:.0} um, density overflow {:.3}",
        report.gp_iterations, report.hpwl, report.density_overflow
    );

    println!("[3] routability-driven iterations (route → MCI → DPA → DC → solve Eq. (5))");
    println!(
        "    {:>4} {:>12} {:>8} {:>12} {:>10} {:>9} {:>12}",
        "iter", "overflow", "maxC", "C(x,y)", "lambda2", "virtual", "HPWL"
    );
    for l in &report.log {
        println!(
            "    {:>4} {:>12.1} {:>8.2} {:>12.4} {:>10.4} {:>9} {:>12.0}",
            l.iter, l.overflow, l.max_congestion, l.c_penalty, l.lambda2, l.virtual_cells, l.hpwl
        );
    }
    println!(
        "    stopped after {} iterations ({}); placement time {:.2}s",
        report.route_iterations,
        if report.route_iterations < cfg.max_route_iters {
            "C(x,y) stopped decreasing"
        } else {
            "iteration cap"
        },
        report.place_seconds
    );

    println!("[4] legalization + detailed placement with virtual widths (rdp-legal)");
    let (legal, gain) =
        rdp::legalize_after_flow(&mut design, &report, &rdp_obs::Collector::disabled());
    println!(
        "    max displacement {:.2} um, detailed placement gained {:.0} um HPWL",
        legal.max_displacement, gain
    );
    let check = rdp_legal::check_legality(&design);
    println!("    legality: {check:?}");
}
