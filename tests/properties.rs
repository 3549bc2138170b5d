//! Property-based integration tests across the crates: arbitrary small
//! designs must always legalize cleanly, route consistently, and keep the
//! paper's invariants. (rdp-testkit harness.)

use rdp::gen::{generate, GenParams};
use rdp::legal::{check_legality, detailed_place, legalize, DetailedConfig, LegalizeConfig};
use rdp::route::GlobalRouter;
use rdp_testkit::{prop_assert, prop_assert_eq, prop_check, range, PropConfig};

type ParamTuple = (usize, usize, f64, f64, u64);

fn arb_params() -> impl rdp_testkit::Gen<Value = ParamTuple> {
    (
        range(100usize..400),
        range(0usize..3),
        range(0.3f64..0.75),
        range(0.6f64..0.95),
        range(1u64..1000),
    )
}

fn params_of((cells, macros, util, margin, seed): ParamTuple) -> GenParams {
    GenParams {
        num_cells: cells,
        num_macros: macros,
        macro_fraction: if macros == 0 { 0.0 } else { 0.15 },
        utilization: util,
        congestion_margin: margin,
        io_terminals: 6,
        high_fanout_nets: 2,
        rail_pitch: 1.0,
        seed,
        ..GenParams::default()
    }
}

/// Any generated design legalizes with zero failures and passes the
/// legality checker, and detailed placement never degrades HPWL.
#[test]
fn legalization_always_succeeds() {
    prop_check!(PropConfig::cases(12), arb_params(), |t: ParamTuple| {
        let mut d = generate("prop", &params_of(t));
        let report = legalize(&mut d, &LegalizeConfig::default());
        prop_assert_eq!(report.failed, 0);
        let check = check_legality(&d);
        prop_assert!(check.is_legal(), "violations: {:?}", check);
        let before = d.hpwl();
        let gain = detailed_place(&mut d, &DetailedConfig::default());
        prop_assert!(gain >= -1e-6);
        prop_assert!(d.hpwl() <= before + 1e-6);
        prop_assert!(check_legality(&d).is_legal());
        Ok(())
    });
}

/// Routing invariants: wirelength lower-bounded by the sum of net
/// spans, congestion map non-negative, demand non-negative.
#[test]
fn routing_invariants() {
    prop_check!(PropConfig::cases(12), arb_params(), |t: ParamTuple| {
        let d = generate("prop", &params_of(t));
        let r = GlobalRouter::default().route(&d);
        // Routed (pattern) wirelength equals the RSMT decomposition's
        // Manhattan length, which upper-bounds the sum of net HPWLs.
        let hpwl_sum: f64 = d.hpwl();
        prop_assert!(r.wirelength >= hpwl_sum * 0.99 - 1.0);
        prop_assert!(r.congestion.min() >= 0.0);
        prop_assert!(r.maps.h_demand.min() >= 0.0);
        prop_assert!(r.maps.v_demand.min() >= 0.0);
        prop_assert!(r.vias >= 0.0);
        prop_assert!(r.maps.total_overflow() >= 0.0);
        Ok(())
    });
}

/// Bookshelf round trip is exact for arbitrary generated designs.
#[test]
fn bookshelf_roundtrip() {
    prop_check!(PropConfig::cases(12), arb_params(), |t: ParamTuple| {
        let d = generate("prop", &params_of(t));
        let back = rdp::parse::read_bookshelf("prop", &rdp::parse::write_bookshelf(&d)).unwrap();
        prop_assert_eq!(back.num_cells(), d.num_cells());
        prop_assert_eq!(back.num_pins(), d.num_pins());
        prop_assert!((back.hpwl() - d.hpwl()).abs() < 1e-6 * d.hpwl().max(1.0));
        Ok(())
    });
}

/// The WA wirelength lower-bounds HPWL on generated designs at any γ.
#[test]
fn wa_bounds_hpwl() {
    prop_check!(
        PropConfig::cases(12),
        (arb_params(), range(0.1f64..8.0)),
        |(t, gamma): (ParamTuple, f64)| {
            let d = generate("prop", &params_of(t));
            let wa = rdp::core::WaModel::new(gamma).wirelength(&d);
            prop_assert!(wa <= d.hpwl() + 1e-6, "wa {} > hpwl {}", wa, d.hpwl());
            Ok(())
        }
    );
}

/// The density penalty and the gradient pass that reports it
/// (`DensityModel::accumulate_gradient`) at the design's positions.
fn density_penalty_and_gradient(
    model: &rdp::core::DensityModel,
    d: &rdp::Design,
) -> (f64, Vec<rdp::db::Point>) {
    let field = model.compute(d, None, None, 1.0);
    let mut grad = vec![rdp::db::Point::default(); d.num_cells()];
    let penalty = model.accumulate_gradient(d, &field, None, 1.0, &mut grad);
    (penalty, grad)
}

/// A scenario design with its movable cells pulled toward a cluster at
/// (`fx`, `fy`) of the die by the factor `pull`.
fn clustered_scenario(name: &str, fx: f64, fy: f64, pull: f64) -> rdp::Design {
    let mut d = rdp::gen::scenario_by_name(name)
        .expect("scenario")
        .build(rdp::gen::Scale::Small);
    let die = d.die();
    let c = rdp::db::Point::new(die.lo.x + fx * die.width(), die.lo.y + fy * die.height());
    let movable: Vec<_> = d.movable_cells().collect();
    for id in movable {
        let p = d.pos(id);
        d.set_pos(id, die.clamp_point(c + (p - c).scale(pull)));
    }
    d
}

/// Cases of the density descent property.
const CASES_DENSITY_DESCENT: u32 = 48;

/// The density term descends along its gradient: on every generated
/// scenario class, with the movable cells pulled toward a cluster, a
/// small step along the negative density gradient lowers the penalty the
/// same gradient pass reports.
///
/// `−A·E` is a descent direction but not the exact gradient of that
/// penalty (DESIGN.md §4): the penalty samples ψ bilinearly between bin
/// centres, while `E` is the spectral derivative of ψ and the cells are
/// binned by area overlap. Central differences of the penalty in one
/// cell's x, measured on the same cases, differ from `−A·E` by a median
/// relative error of about 0.4, with a few cells of opposite sign; the
/// check below only bounds that median.
#[test]
fn density_penalty_descends_along_its_gradient() {
    let classes: Vec<&str> = rdp::gen::scenario_matrix()
        .into_iter()
        .filter(|s| s.ordering_gated)
        .map(|s| s.name)
        .collect();
    let rel_errors = std::cell::RefCell::new(Vec::new());
    prop_check!(
        PropConfig::cases(CASES_DENSITY_DESCENT),
        (
            rdp_testkit::select(classes),
            range(0.2f64..0.8),
            range(0.2f64..0.8),
            range(0.15f64..0.6),
            range(0.01f64..0.1),
        ),
        |(name, fx, fy, pull, step): (&str, f64, f64, f64, f64)| {
            let mut d = clustered_scenario(name, fx, fy, pull);
            let model = rdp::core::DensityModel::new(&d);
            let (before, grad) = density_penalty_and_gradient(&model, &d);
            let movable: Vec<_> = d.movable_cells().collect();
            let gmax = movable
                .iter()
                .map(|&c| grad[c.index()].norm())
                .fold(0.0, f64::max);
            prop_assert!(gmax > 0.0, "{name}: no density gradient");
            let bin = model.grid().bin_w().min(model.grid().bin_h());

            // Central differences in x at a few cells, against −A·E.
            let h = 1e-4 * bin;
            for &c in movable.iter().step_by((movable.len() / 4).max(1)) {
                let p = d.pos(c);
                d.set_pos(c, rdp::db::Point::new(p.x + h, p.y));
                let (plus, _) = density_penalty_and_gradient(&model, &d);
                d.set_pos(c, rdp::db::Point::new(p.x - h, p.y));
                let (minus, _) = density_penalty_and_gradient(&model, &d);
                d.set_pos(c, p);
                let fd = (plus - minus) / (2.0 * h);
                let g = grad[c.index()].x;
                let scale = fd.abs().max(g.abs());
                if scale > 0.0 {
                    rel_errors.borrow_mut().push((fd - g).abs() / scale);
                }
            }

            // The largest move is `step` of a bin.
            let t = step * bin / gmax;
            for &c in &movable {
                d.set_pos(c, d.pos(c) - grad[c.index()].scale(t));
            }
            let (after, _) = density_penalty_and_gradient(&model, &d);
            prop_assert!(
                after < before,
                "{name}: penalty {after} after a step along −∇D, {before} before"
            );
            Ok(())
        }
    );
    let mut rel = rel_errors.into_inner();
    rel.sort_by(f64::total_cmp);
    let median = rel[rel.len() / 2];
    eprintln!(
        "density gradient vs central differences: n={} median relative error {median:.3} p90 {:.3} max {:.3}",
        rel.len(),
        rel[rel.len() * 9 / 10],
        rel[rel.len() - 1]
    );
    assert!(
        median < 1.0,
        "−A·E no longer tracks the penalty: median relative error {median}"
    );
}
