//! Observability contract, end to end: tracing is a pure observer.
//!
//! The rdp-obs collector records spans, instants and metrics from every
//! layer of the flow, but timestamps never feed computation — so a
//! traced run must be **bitwise identical** to an untraced one, every
//! guard warning the report counts must appear in the trace, and the
//! exported run reads back through `RunModel` (the one reader of
//! `trace.jsonl`) into an HTML report that passes its validator.

use rdp::core::{
    run_flow_with, FlowCheckpoint, FlowControl, FlowFault, PlacerPreset, RoutabilityConfig,
};
use rdp::gen::{generate, GenParams};
use rdp::obs::Collector;
use rdp::report::{render_report, validate_report, RunModel};

/// Span names a complete traced flow contains. `checkpoint` is covered
/// because [`trace_covers_every_flow_stage`] installs an `on_checkpoint`
/// hook.
const REQUIRED_SPANS: [&str; 17] = [
    "wirelength_gp",
    "gp_step",
    "wa_grad",
    "density_grad",
    "density_field",
    "poisson_solve",
    "route_iter",
    "route",
    "route_decompose",
    "route_pass",
    "congestion_field",
    "mci_update",
    "dpa_density",
    "netmove",
    "gp_burst",
    "checkpoint",
    "final_route",
];

fn small_design() -> rdp::Design {
    generate(
        "obs-it",
        &GenParams {
            num_cells: 500,
            num_macros: 2,
            utilization: 0.62,
            congestion_margin: 0.85,
            seed: 11,
            ..GenParams::default()
        },
    )
}

fn run(
    design: &mut rdp::Design,
    obs: &Collector,
    fault: Option<FlowFault>,
    on_checkpoint: Option<&mut dyn FnMut(&FlowCheckpoint)>,
) -> rdp::core::FlowReport {
    let ctrl = FlowControl {
        obs: obs.clone(),
        fault,
        on_checkpoint,
        ..Default::default()
    };
    run_flow_with(design, &RoutabilityConfig::preset(PlacerPreset::Ours), ctrl)
        .expect("flow converges")
}

/// Tracing on vs off: identical post-flow positions, HPWL and density
/// overflow down to the last bit.
#[test]
fn tracing_does_not_change_results_bitwise() {
    let mut plain = small_design();
    let mut traced = small_design();
    let r_plain = run(&mut plain, &Collector::disabled(), None, None);
    let r_traced = run(&mut traced, &Collector::enabled(), None, None);

    assert_eq!(r_plain.hpwl.to_bits(), r_traced.hpwl.to_bits());
    assert_eq!(r_plain.gp_iterations, r_traced.gp_iterations);
    assert_eq!(r_plain.route_iterations, r_traced.route_iterations);
    for (a, b) in plain.positions().iter().zip(traced.positions()) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
    }
}

/// Every warning the report counts is mirrored as a `guard_warning`
/// instant the moment it is emitted (forced here by fault injection),
/// and rollback counts agree the same way.
#[test]
fn warning_parity_between_report_and_trace() {
    let mut design = small_design();
    let obs = Collector::enabled();
    let report = run(
        &mut design,
        &obs,
        Some(FlowFault::NanCongestionGrad { route_iter: 1 }),
        None,
    );

    let model = RunModel::from_collector(&obs).expect("trace reads back");
    let count = |name: &str| model.instants.iter().filter(|i| i.name == name).count();
    assert!(
        !report.warnings.is_empty(),
        "injected fault must produce at least one warning"
    );
    assert_eq!(count("guard_warning"), report.warnings.len());
    assert_eq!(count("rollback"), report.rollbacks);
}

/// A traced flow covers every stage of Fig. 2 with at least one span, and
/// its HTML report passes the validator with a congestion frame for every
/// routability iteration.
#[test]
fn trace_covers_every_flow_stage() {
    let mut design = small_design();
    let obs = Collector::enabled();
    let mut on_checkpoint = |_: &FlowCheckpoint| {};
    run(&mut design, &obs, None, Some(&mut on_checkpoint));

    let model = RunModel::from_collector(&obs).expect("trace reads back");
    let rows = model.stage_rows();
    for name in REQUIRED_SPANS {
        assert!(
            rows.iter().any(|r| r.name == name),
            "missing span `{name}`; got {:?}",
            rows.iter().map(|r| &r.name).collect::<Vec<_>>()
        );
    }

    let html = render_report(&model, "obs integration");
    validate_report(&html, &model).expect("report passes its validator");
    let route_iters = model.route_iterations();
    assert!(!route_iters.is_empty(), "no route_iter spans");
    for it in route_iters {
        assert!(
            model
                .frames
                .iter()
                .any(|f| f.name == "congestion" && f.iter == Some(it)),
            "no congestion frame for routability iteration {it}"
        );
    }
}

/// Convergence series are recorded once per routability iteration.
#[test]
fn convergence_series_match_iteration_count() {
    let mut design = small_design();
    let obs = Collector::enabled();
    let report = run(&mut design, &obs, None, None);

    let lens = obs
        .with_snapshot(|_events, registry, _dropped| {
            ["hpwl", "route_overflow", "lambda2", "density_overflow"]
                .map(|name| registry.series.get(name).map_or(0, |s| s.len()))
        })
        .expect("collector enabled");
    for (name, len) in ["hpwl", "route_overflow", "lambda2", "density_overflow"]
        .iter()
        .zip(lens)
    {
        assert_eq!(
            len, report.route_iterations,
            "series `{name}` has {len} points for {} iterations",
            report.route_iterations
        );
    }
}
