//! rdp-testkit micro-benchmarks of the numerical kernels: FFT, DCT,
//! spectral Poisson solve, WA wirelength gradient, density map, net
//! decomposition, and pattern routing.

use rdp_testkit::BenchHarness;
use std::hint::black_box;

use rdp_core::{
    congestion_gradients, run_flow, CongestionField, DensityModel, GpSession, HealthPolicy,
    NetMoveConfig, PlacerConfig, PlacerPreset, RoutabilityConfig, StepExtras, WaModel, WaScratch,
};
use rdp_db::Point;
use rdp_gen::{generate, GenParams};
use rdp_par::Pool;
use rdp_poisson::{dct2, fft_in_place, Complex, PoissonSolver};
use rdp_route::{rudy_map, rudy_map_with, GlobalRouter};

fn bench_design() -> rdp_db::Design {
    generate(
        "bench",
        &GenParams {
            num_cells: 2000,
            num_macros: 2,
            macro_fraction: 0.15,
            utilization: 0.65,
            congestion_margin: 0.85,
            rail_pitch: 1.0,
            seed: 42,
            ..GenParams::default()
        },
    )
}

/// Larger design for the serial-vs-parallel comparisons, where the
/// per-chunk work is big enough for threading to pay off.
fn large_design() -> rdp_db::Design {
    generate(
        "bench_large",
        &GenParams {
            num_cells: 20_000,
            num_macros: 4,
            macro_fraction: 0.12,
            utilization: 0.65,
            congestion_margin: 0.85,
            rail_pitch: 1.0,
            seed: 43,
            ..GenParams::default()
        },
    )
}

/// 200k-cell tier: an order of magnitude past the parallel tier, sized so
/// cache-blocking and lane vectorization dominate rather than threading
/// overheads. Only the per-iteration placement kernels run here — the
/// router tier stays at 20k (see `route_20k_*`).
fn huge_design() -> rdp_db::Design {
    generate(
        "bench_huge",
        &GenParams {
            num_cells: 200_000,
            num_macros: 8,
            macro_fraction: 0.10,
            utilization: 0.65,
            congestion_margin: 0.85,
            rail_pitch: 1.0,
            seed: 47,
            ..GenParams::default()
        },
    )
}

fn kernels(c: &mut BenchHarness) {
    // FFT 1024.
    let signal: Vec<Complex> = (0..1024)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
        .collect();
    c.bench_function("fft_1024", |b| {
        b.iter(|| {
            let mut buf = signal.clone();
            fft_in_place(&mut buf);
            black_box(buf[0].re)
        })
    });

    // DCT-II 1024.
    let real: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.11).cos()).collect();
    c.bench_function("dct2_1024", |b| {
        b.iter(|| black_box(dct2(black_box(&real))[3]))
    });

    // Poisson solves.
    for n in [64usize, 128] {
        let solver = PoissonSolver::new(n, n, 100.0, 100.0);
        let rho: Vec<f64> = (0..n * n).map(|i| ((i * 31) % 17) as f64).collect();
        c.bench_function(&format!("poisson_solve_{n}x{n}"), |b| {
            b.iter(|| black_box(solver.solve(black_box(&rho)).psi[0]))
        });
    }

    let design = bench_design();

    // WA wirelength gradient.
    let wa = WaModel::new(2.0);
    c.bench_function("wa_gradient_2k_cells", |b| {
        b.iter(|| {
            let mut grad = vec![Point::default(); design.num_cells()];
            wa.accumulate_gradient(&design, &mut grad);
            black_box(grad[0].x)
        })
    });

    // Density map + field.
    let model = DensityModel::new(&design);
    c.bench_function("density_field_2k_cells", |b| {
        b.iter(|| black_box(model.compute(&design, None, None, 0.9)))
    });

    // Global routing.
    let router = GlobalRouter::default();
    c.bench_function("route_2k_cells", |b| {
        b.iter(|| black_box(router.route(&design).wirelength))
    });

    // RUDY baseline estimator.
    let grid = design.gcell_grid();
    c.bench_function("rudy_2k_cells", |b| {
        b.iter(|| black_box(rudy_map(&design, &grid).sum()))
    });

    // Net-moving congestion gradients (Algorithms 1–2).
    let route = router.route(&design);
    let field = CongestionField::try_from_route(&design, &route, &HealthPolicy::default())
        .expect("finite congestion field");
    c.bench_function("netmove_gradients_2k_cells", |b| {
        b.iter(|| {
            black_box(
                congestion_gradients(&design, &field, &NetMoveConfig::default()).virtual_cells,
            )
        })
    });
}

/// Serial (1-thread) vs parallel (4-thread) runs of the ported kernels
/// on the 20k-cell design. Both variants produce bit-identical results;
/// the comparison measures wall-clock only.
fn parallel_kernels(c: &mut BenchHarness) {
    let design = large_design();
    let pools = [("t1", Pool::serial()), ("t4", Pool::new(4))];

    // Dispatch cost alone: one 2-wide region whose two chunks do nothing.
    c.bench_function("pool_region_t2", |b| {
        b.iter(|| black_box(Pool::new(2).map_chunks(2, 1, |ci, _| ci)))
    });

    let wa = WaModel::new(2.0);
    for (tag, pool) in pools {
        let mut grad = vec![Point::default(); design.num_cells()];
        let mut scratch = WaScratch::new();
        c.bench_function(&format!("wa_gradient_20k_cells_{tag}"), |b| {
            b.iter(|| {
                grad.iter_mut().for_each(|p| *p = Point::default());
                wa.accumulate_gradient_with(&design, &mut grad, pool, &mut scratch);
                black_box(grad[0].x)
            })
        });
    }

    let model = DensityModel::new(&design);
    for (tag, pool) in pools {
        c.bench_function(&format!("density_field_20k_cells_{tag}"), |b| {
            b.iter(|| black_box(model.compute_with(&design, None, None, 0.9, pool)))
        });
    }

    let solver = PoissonSolver::new(256, 256, 100.0, 100.0);
    let rho: Vec<f64> = (0..256 * 256).map(|i| ((i * 31) % 17) as f64).collect();
    for (tag, pool) in pools {
        c.bench_function(&format!("poisson_solve_256x256_{tag}"), |b| {
            b.iter(|| black_box(solver.solve_with(black_box(&rho), pool).psi[0]))
        });
    }

    let grid = design.gcell_grid();
    for (tag, pool) in pools {
        c.bench_function(&format!("rudy_20k_cells_{tag}"), |b| {
            b.iter(|| black_box(rudy_map_with(&design, &grid, pool).sum()))
        });
    }

    // The router reads the global pool internally.
    let router = GlobalRouter::default();
    for (tag, threads) in [("t1", 1), ("t4", 4)] {
        rdp_par::set_global_threads(threads);
        c.bench_function(&format!("route_20k_cells_{tag}"), |b| {
            b.iter(|| black_box(router.route(&design).wirelength))
        });
    }
    rdp_par::set_global_threads(1);

    // Scalar pre-vectorization WA reference (libm exp, single
    // accumulator): the `wa_gradient_20k_cells_t1` / `_scalar_ref` pair
    // records the lane-kernel speedup trajectory in BENCH_kernels.json.
    {
        use rdp_core::wirelength::reference;
        use rdp_db::NetId;
        let gamma = 2.0;
        let mut grad = vec![Point::default(); design.num_cells()];
        let (mut xs, mut ys, mut gx, mut gy) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        c.bench_function("wa_gradient_20k_scalar_ref", |b| {
            b.iter(|| {
                grad.iter_mut().for_each(|p| *p = Point::default());
                for ni in 0..design.num_nets() {
                    let net = design.net(NetId::from_index(ni));
                    if net.pins.len() < 2 {
                        continue;
                    }
                    xs.clear();
                    ys.clear();
                    for &p in &net.pins {
                        let pos = design.pin_position(p);
                        xs.push(pos.x);
                        ys.push(pos.y);
                    }
                    gx.resize(xs.len(), 0.0);
                    gy.resize(ys.len(), 0.0);
                    reference::wa_grad_1d(&xs, gamma, &mut gx);
                    reference::wa_grad_1d(&ys, gamma, &mut gy);
                    for (k, &pid) in net.pins.iter().enumerate() {
                        let ci = design.pin(pid).cell.index();
                        grad[ci].x += net.weight * gx[k];
                        grad[ci].y += net.weight * gy[k];
                    }
                }
                black_box(grad[0].x)
            })
        });
    }
}

/// The 200k tier: per-iteration placement kernels only, 4 threads (the
/// realistic configuration at this scale; thread invariance is already
/// proven at 20k).
fn huge_kernels(c: &mut BenchHarness) {
    let design = huge_design();
    rdp_par::set_global_threads(4);
    let pool = Pool::new(4);

    let wa = WaModel::new(2.0);
    let mut grad = vec![Point::default(); design.num_cells()];
    let mut scratch = WaScratch::new();
    c.bench_function("wa_gradient_200k_cells_t4", |b| {
        b.iter(|| {
            grad.iter_mut().for_each(|p| *p = Point::default());
            wa.accumulate_gradient_with(&design, &mut grad, pool, &mut scratch);
            black_box(grad[0].x)
        })
    });

    let model = DensityModel::new(&design);
    c.bench_function("density_field_200k_cells_t4", |b| {
        b.iter(|| black_box(model.compute_with(&design, None, None, 0.9, pool)))
    });

    let grid = design.gcell_grid();
    c.bench_function("rudy_200k_cells_t4", |b| {
        b.iter(|| black_box(rudy_map_with(&design, &grid, pool).sum()))
    });
    rdp_par::set_global_threads(1);
}

/// The single-thread pass around the GP kernels on the suite's
/// superblue14 (18k cells, the flow benchmark's `gp_heavy` design): the
/// LEF/DEF reader, one GP step and detailed placement.
fn superblue14_stages(c: &mut BenchHarness) {
    let design = rdp_gen::generate_named("superblue14").expect("suite design");

    let files = rdp_parse::write_lefdef(&design);
    c.bench_function("parse_lefdef_superblue14", |b| {
        b.iter(|| black_box(rdp_parse::read_lefdef(black_box(&files)).expect("parses")))
    });

    // One Nesterov step, always from the state after 50 steps, so every
    // iteration does the same work.
    let mut d = design.clone();
    let mut session = GpSession::new(&mut d, PlacerConfig::default());
    for _ in 0..50 {
        session
            .step(&mut d, &StepExtras::default())
            .expect("healthy step");
    }
    let snap = session.save_state();
    c.bench_function("gp_step_superblue14", |b| {
        b.iter(|| {
            session.restore_state(&mut d, &snap).expect("same session");
            black_box(
                session
                    .step(&mut d, &StepExtras::default())
                    .expect("healthy step"),
            )
        })
    });

    // Detailed placement from one legalized global placement.
    let mut d = design;
    run_flow(&mut d, &RoutabilityConfig::preset(PlacerPreset::Xplace)).expect("global placement");
    rdp_legal::legalize(&mut d, &rdp_legal::LegalizeConfig::default());
    let legal = d.positions().to_vec();
    let cfg = rdp_legal::DetailedConfig::default();
    c.bench_function("detailed_place_superblue14", |b| {
        b.iter(|| {
            d.set_positions(&legal);
            black_box(rdp_legal::detailed_place(&mut d, &cfg))
        })
    });
}

fn main() {
    let mut harness = BenchHarness::new("kernels").sample_size(20);
    kernels(&mut harness);
    parallel_kernels(&mut harness);
    huge_kernels(&mut harness);
    superblue14_stages(&mut harness);
    harness.finish();
}
