//! rdp-testkit benchmarks of the placement stages: one Nesterov step, the
//! full wirelength-driven placement, legalization + detailed placement,
//! and the end-to-end routability flow on a small design.

use rdp_testkit::BenchHarness;
use std::hint::black_box;

use rdp_core::{run_flow, GpSession, PlacerConfig, PlacerPreset, RoutabilityConfig, StepExtras};
use rdp_drc::{evaluate, EvalConfig};
use rdp_gen::{generate, GenParams};
use rdp_legal::{detailed_place, legalize, DetailedConfig, LegalizeConfig};

fn small_design() -> rdp_db::Design {
    generate(
        "bench-place",
        &GenParams {
            num_cells: 1000,
            num_macros: 2,
            macro_fraction: 0.15,
            utilization: 0.6,
            congestion_margin: 0.85,
            rail_pitch: 1.0,
            seed: 77,
            ..GenParams::default()
        },
    )
}

fn placement(c: &mut BenchHarness) {
    // One Nesterov step of the analytical model.
    c.bench_function("gp_single_step_1k_cells", |b| {
        let mut design = small_design();
        let mut session = GpSession::new(&mut design, PlacerConfig::default());
        b.iter(|| {
            let r = session.step(&mut design, &StepExtras::default()).unwrap();
            black_box(r.overflow)
        })
    });

    // Full wirelength-driven placement (the Xplace preset).
    let xplace = RoutabilityConfig::preset(PlacerPreset::Xplace);
    c.bench_function("global_place_1k_cells", |b| {
        b.iter(|| {
            let mut design = small_design();
            let r = run_flow(&mut design, &xplace).unwrap();
            black_box(r.hpwl)
        })
    });

    // Legalization + detailed placement of a placed design.
    c.bench_function("legalize_and_dp_1k_cells", |b| {
        let mut placed = small_design();
        run_flow(&mut placed, &xplace).unwrap();
        b.iter(|| {
            let mut d = placed.clone();
            legalize(&mut d, &LegalizeConfig::default());
            black_box(detailed_place(&mut d, &DetailedConfig::default()))
        })
    });

    // End-to-end routability flow (paper preset).
    c.bench_function("full_flow_ours_1k_cells", |b| {
        b.iter(|| {
            let mut design = small_design();
            let r = run_flow(&mut design, &RoutabilityConfig::preset(PlacerPreset::Ours)).unwrap();
            black_box(r.route_iterations)
        })
    });

    // Evaluation routing + DRV proxy.
    c.bench_function("evaluate_1k_cells", |b| {
        let mut placed = small_design();
        run_flow(&mut placed, &xplace).unwrap();
        legalize(&mut placed, &LegalizeConfig::default());
        b.iter(|| black_box(evaluate(&placed, &EvalConfig::default()).drvs))
    });
}

fn main() {
    let mut harness = BenchHarness::new("placement").sample_size(10);
    placement(&mut harness);
    harness.finish();
}
