//! rdp-testkit benchmarks of the per-iteration cost of each routability
//! technique (the runtime side of the Table II ablation): inflation
//! policy updates, the DPA density map, the net-moving gradients, and
//! the λ₂ computation.

use rdp_testkit::BenchHarness;
use std::hint::black_box;

use rdp_core::{
    congestion_gradients, lambda2, CongestionField, HealthPolicy, InflationPolicy, InflationState,
    PgDensity,
};
use rdp_gen::{generate, GenParams};
use rdp_route::GlobalRouter;

fn ablation(c: &mut BenchHarness) {
    let design = generate(
        "bench-abl",
        &GenParams {
            num_cells: 2000,
            num_macros: 2,
            macro_fraction: 0.15,
            utilization: 0.65,
            congestion_margin: 0.8,
            rail_pitch: 1.0,
            seed: 99,
            ..GenParams::default()
        },
    );
    let route = GlobalRouter::default().route(&design);
    let field = CongestionField::try_from_route(&design, &route, &HealthPolicy::default())
        .expect("finite congestion field");

    // Inflation policies (MCI vs the two baselines).
    for (name, policy) in [
        (
            "inflation_momentum",
            InflationPolicy::Momentum { alpha: 0.4 },
        ),
        (
            "inflation_monotone",
            InflationPolicy::Monotone { beta: 0.6 },
        ),
        (
            "inflation_present_only",
            InflationPolicy::PresentOnly { beta: 1.0 },
        ),
    ] {
        c.bench_function(name, |b| {
            let mut st = InflationState::new(design.num_cells(), policy);
            b.iter(|| {
                st.update(&design, &field);
                black_box(st.ratios()[0])
            })
        });
    }

    // DPA: rail selection (once) + dynamic density map per iteration.
    let grid = design.gcell_grid();
    c.bench_function("dpa_rail_selection", |b| {
        b.iter(|| black_box(PgDensity::new(&design, &grid).selected_rails().len()))
    });
    let pg = PgDensity::new(&design, &grid);
    c.bench_function("dpa_dynamic_density_map", |b| {
        b.iter(|| black_box(pg.density_map(Some(&field)).sum()))
    });

    // Net moving (Algorithms 1–2).
    c.bench_function("netmove_gradients", |b| {
        b.iter(|| black_box(congestion_gradients(&design, &field).multi_pin_cells))
    });

    // λ₂ (Eq. 10).
    let grads = congestion_gradients(&design, &field);
    c.bench_function("lambda2_eq10", |b| {
        b.iter(|| black_box(lambda2(&design, &field, &grads)))
    });
}

fn main() {
    let mut harness = BenchHarness::new("ablation").sample_size(20);
    ablation(&mut harness);
    harness.finish();
}
