//! Thread-count invariance: every parallel kernel must produce results
//! **bit-identical** to its serial evaluation, for any worker count.
//!
//! This is the workspace's parallelism contract (see `crates/par`): fixed
//! chunking, per-chunk scratch, and ordered reduction make the FP
//! operation sequence independent of how many threads execute it. Each
//! test pins the width of [`Pool::global`](rdp::par::Pool::global) with
//! `with_local_threads` and compares a 1-thread run with wider ones, from
//! single kernels up to whole placements and routes.

use rdp::core::{run_flow, DensityModel, PlacerPreset, RoutabilityConfig, WaModel, WaScratch};
use rdp::db::Point;
use rdp::gen::{generate, GenParams};
use rdp::par::with_local_threads;
use rdp::poisson::PoissonSolver;
use rdp::route::{rudy_map, GlobalRouter};

fn test_design() -> rdp::db::Design {
    generate(
        "pardet",
        &GenParams {
            num_cells: 600,
            num_macros: 1,
            macro_fraction: 0.1,
            utilization: 0.6,
            io_terminals: 12,
            high_fanout_nets: 3,
            rail_pitch: 1.0,
            seed: 0x7a11,
            ..GenParams::default()
        },
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn point_bits(v: &[Point]) -> Vec<(u64, u64)> {
    v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
}

#[test]
fn wa_wirelength_and_gradient_thread_invariant() {
    let design = test_design();
    let wa = WaModel::new(2.0);

    assert_eq!(
        with_local_threads(1, || wa.wirelength(&design)).to_bits(),
        with_local_threads(4, || wa.wirelength(&design)).to_bits(),
        "WA wirelength differs between 1 and 4 threads"
    );

    let mut g1 = vec![Point::default(); design.num_cells()];
    let mut g4 = vec![Point::default(); design.num_cells()];
    let mut scratch = WaScratch::new();
    with_local_threads(1, || {
        wa.accumulate_gradient_with(&design, &mut g1, &mut scratch)
    });
    with_local_threads(4, || {
        wa.accumulate_gradient_with(&design, &mut g4, &mut scratch)
    });
    assert_eq!(
        point_bits(&g1),
        point_bits(&g4),
        "WA gradient differs between 1 and 4 threads"
    );
}

#[test]
fn density_field_and_gradient_thread_invariant() {
    let design = test_design();
    let model = DensityModel::new(&design);

    let f1 = with_local_threads(1, || model.compute(&design, None, None, 0.9));
    let f4 = with_local_threads(4, || model.compute(&design, None, None, 0.9));
    assert_eq!(bits(f1.density.as_slice()), bits(f4.density.as_slice()));
    assert_eq!(bits(f1.psi.as_slice()), bits(f4.psi.as_slice()));
    assert_eq!(bits(f1.ex.as_slice()), bits(f4.ex.as_slice()));
    assert_eq!(bits(f1.ey.as_slice()), bits(f4.ey.as_slice()));
    assert_eq!(f1.overflow.to_bits(), f4.overflow.to_bits());

    let mut g1 = vec![Point::default(); design.num_cells()];
    let mut g4 = vec![Point::default(); design.num_cells()];
    let p1 = with_local_threads(1, || {
        model.accumulate_gradient(&design, &f1, None, 1.7, &mut g1)
    });
    let p4 = with_local_threads(4, || {
        model.accumulate_gradient(&design, &f4, None, 1.7, &mut g4)
    });
    assert_eq!(p1.to_bits(), p4.to_bits());
    assert_eq!(point_bits(&g1), point_bits(&g4));
}

#[test]
fn poisson_solution_thread_invariant() {
    let solver = PoissonSolver::new(64, 32, 120.0, 60.0);
    let rho: Vec<f64> = (0..64 * 32)
        .map(|i| (((i * 37) % 23) as f64) - 11.0)
        .collect();
    let s1 = with_local_threads(1, || solver.solve(&rho));
    for threads in [2, 4, 7] {
        let sn = with_local_threads(threads, || solver.solve(&rho));
        assert_eq!(bits(&s1.psi), bits(&sn.psi), "psi @ {threads} threads");
        assert_eq!(bits(&s1.ex), bits(&sn.ex), "ex @ {threads} threads");
        assert_eq!(bits(&s1.ey), bits(&sn.ey), "ey @ {threads} threads");
    }
}

/// The vectorized 2-D DCT (twiddle-table FFT butterflies, tiled
/// transposes) parallelizes over rows/columns; the transform must stay
/// bit-identical across pool sizes.
#[test]
fn dct_2d_thread_invariant() {
    use rdp::poisson::dct2_2d;
    let (nx, ny) = (128, 64);
    let data: Vec<f64> = (0..nx * ny)
        .map(|i| (((i * 131) % 97) as f64) / 9.7 - 5.0)
        .collect();
    let c1 = with_local_threads(1, || dct2_2d(&data, nx, ny));
    for threads in [2, 4] {
        let cn = with_local_threads(threads, || dct2_2d(&data, nx, ny));
        assert_eq!(bits(&c1), bits(&cn), "dct2_2d @ {threads} threads");
    }
}

/// Reusing a `DctScratch` (cached quarter-wave and twiddle tables) must
/// be bitwise indistinguishable from fresh scratch: table caching is a
/// pure allocation optimization, never a numeric one.
#[test]
fn dct_scratch_reuse_is_bitwise_stable() {
    use rdp::poisson::{dct2_with, idct_with, idxst_with, DctScratch};
    let n = 256;
    let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();

    let mut reused = DctScratch::new();
    // Warm the tables at a different size first, then at `n`.
    let mut warm = vec![0.0; 64];
    dct2_with(&x[..64], &mut warm, &mut reused);

    let mut a = vec![0.0; n];
    let mut b = vec![0.0; n];
    dct2_with(&x, &mut a, &mut reused);
    dct2_with(&x, &mut b, &mut DctScratch::new());
    assert_eq!(bits(&a), bits(&b), "dct2 scratch reuse");

    idct_with(&x, &mut a, &mut reused);
    idct_with(&x, &mut b, &mut DctScratch::new());
    assert_eq!(bits(&a), bits(&b), "idct scratch reuse");

    idxst_with(&x, &mut a, &mut reused);
    idxst_with(&x, &mut b, &mut DctScratch::new());
    assert_eq!(bits(&a), bits(&b), "idxst scratch reuse");
}

/// The lane-chunked WA kernels differ from the scalar reference
/// (`wirelength::reference`) only by summation order and the ≈2-ulp
/// `fast_exp`, so on a real design the totals must agree to a tight
/// relative tolerance — while the lane result itself stays bitwise
/// thread-invariant (checked above).
#[test]
fn wa_lanes_track_scalar_reference() {
    use rdp::core::wirelength::reference;
    use rdp::db::NetId;
    let design = test_design();
    let gamma = 2.0;
    let wa = WaModel::new(gamma);

    let mut ref_total = 0.0;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
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
        ref_total += (reference::wa_1d(&xs, gamma) + reference::wa_1d(&ys, gamma)) * net.weight;
    }

    let lanes = with_local_threads(1, || wa.wirelength(&design));
    let rel = (lanes - ref_total).abs() / ref_total.abs().max(1.0);
    assert!(
        rel < 1e-12,
        "lane WA {lanes} vs scalar reference {ref_total} (rel {rel:e})"
    );
}

#[test]
fn rudy_map_thread_invariant() {
    let design = test_design();
    let grid = design.gcell_grid();
    let m1 = with_local_threads(1, || rudy_map(&design, &grid));
    let m4 = with_local_threads(4, || rudy_map(&design, &grid));
    assert_eq!(bits(m1.as_slice()), bits(m4.as_slice()));
}

/// A whole global placement and a route of its result, at 1 and at 4
/// threads.
#[test]
fn route_and_placement_thread_invariant_end_to_end() {
    let xplace = RoutabilityConfig::preset(PlacerPreset::Xplace);
    let place_and_route = |threads: usize| {
        with_local_threads(threads, || {
            let mut d = test_design();
            let stats = run_flow(&mut d, &xplace).unwrap();
            let r = GlobalRouter::default().route(&d);
            (d, stats, r)
        })
    };
    let (d1, stats1, r1) = place_and_route(1);
    let (d4, stats4, r4) = place_and_route(4);

    assert_eq!(stats1.gp_iterations, stats4.gp_iterations);
    assert_eq!(
        stats1.hpwl.to_bits(),
        stats4.hpwl.to_bits(),
        "post-GP HPWL differs between 1 and 4 threads"
    );
    assert_eq!(
        stats1.density_overflow.to_bits(),
        stats4.density_overflow.to_bits(),
        "post-GP overflow differs between 1 and 4 threads"
    );
    assert_eq!(d1.positions(), d4.positions());

    assert_eq!(r1.wirelength.to_bits(), r4.wirelength.to_bits());
    assert_eq!(r1.vias.to_bits(), r4.vias.to_bits());
    assert_eq!(
        bits(r1.maps.h_demand.as_slice()),
        bits(r4.maps.h_demand.as_slice())
    );
    assert_eq!(
        bits(r1.maps.v_demand.as_slice()),
        bits(r4.maps.v_demand.as_slice())
    );
    assert_eq!(
        bits(r1.congestion.as_slice()),
        bits(r4.congestion.as_slice())
    );
}
