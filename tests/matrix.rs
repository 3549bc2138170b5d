//! Integration tests for the scenario-matrix harness (`rdp::matrix`):
//! degenerate inputs complete the flow, failures are named, and the gate
//! catches violations instead of passing silently.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rdp::core::{run_flow_with, FlowControl, RoutabilityConfig};
use rdp::matrix::{run_matrix, MatrixConfig, MatrixFailure};
use rdp::{gen::scenario_by_name, gen::Scale, PlacerPreset};

/// The degenerate survival classes complete a full matrix pass: no flow
/// errors, no divergence, no telemetry failures.
#[test]
fn degenerate_classes_survive_the_matrix() {
    let cfg = MatrixConfig {
        classes: Some(
            [
                "single_cell",
                "all_fixed",
                "full_die_net",
                "coincident_pins",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ),
        ..MatrixConfig::default()
    };
    let report = run_matrix(&cfg).expect("harness runs");
    let failures: Vec<String> = report.failures().map(|f| f.to_string()).collect();
    assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    assert_eq!(report.outcomes.len(), 4);
    for o in &report.outcomes {
        assert!(!o.ordering_gated, "{} should be survival-only", o.name);
        assert_eq!(o.presets.len(), 3, "{}: a column errored", o.name);
    }
    // The zero-movable design must take the degraded path: no iterations,
    // and a warning saying so.
    let all_fixed = report
        .outcomes
        .iter()
        .find(|o| o.name == "all_fixed")
        .unwrap();
    for p in &all_fixed.presets {
        assert_eq!(p.route_iterations, 0);
        assert!(p.warnings >= 1, "degraded mode must warn");
    }
}

/// `run_flow` on each hand-built degenerate design never panics and never
/// diverges, at any preset.
#[test]
fn degenerate_designs_run_flow_without_panic_or_divergence() {
    for name in [
        "single_cell",
        "all_fixed",
        "full_die_net",
        "coincident_pins",
    ] {
        let scenario = scenario_by_name(name).expect("known scenario");
        for preset in [
            PlacerPreset::Xplace,
            PlacerPreset::XplaceRoute,
            PlacerPreset::Ours,
        ] {
            let mut d = scenario.build(Scale::Small);
            let cfg = RoutabilityConfig::preset_fast(preset);
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_flow_with(&mut d, &cfg, FlowControl::default())
            }));
            let result = out.unwrap_or_else(|_| panic!("{name} panicked under {preset:?}"));
            let flow = result.unwrap_or_else(|e| panic!("{name} failed under {preset:?}: {e}"));
            assert!(flow.hpwl.is_finite(), "{name}: non-finite HPWL");
        }
    }
}

/// One ordering-gated class passes end-to-end at the fast tier, records
/// telemetry for every preset, and reports the Table-1 gate.
#[test]
fn gated_class_passes_fast_tier() {
    let cfg = MatrixConfig {
        classes: Some(vec!["single_row_core".to_string()]),
        ..MatrixConfig::default()
    };
    let report = run_matrix(&cfg).expect("harness runs");
    let failures: Vec<String> = report.failures().map(|f| f.to_string()).collect();
    assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    let o = &report.outcomes[0];
    assert!(o.ordering_gated);
    assert_eq!(o.presets.len(), 3);
    // The routability columns must actually have exercised the loop —
    // otherwise the ordering gate compares identical placements.
    for p in &o.presets {
        if p.preset != PlacerPreset::Xplace {
            assert!(p.route_iterations > 0, "{:?} skipped the loop", p.preset);
        }
    }
    let table = report.table();
    assert!(table.contains("single_row_core"), "table lists the class");
    assert!(table.contains("ordering"), "table shows the gate kind");
}

/// Filtering on an unknown class is a harness error naming the class, not
/// a silent empty pass.
#[test]
fn unknown_class_is_a_named_harness_error() {
    let cfg = MatrixConfig {
        classes: Some(vec!["no_such_scenario".to_string()]),
        ..MatrixConfig::default()
    };
    let err = run_matrix(&cfg).expect_err("must not silently pass");
    assert!(
        err.contains("no_such_scenario"),
        "error names the class: {err}"
    );
}

/// Every failure variant names its scenario in both the accessor and the
/// rendered message — the gate can never fail anonymously.
#[test]
fn failures_name_their_scenario() {
    let failures = [
        MatrixFailure::RoundTrip {
            scenario: "klass".into(),
            detail: "drift".into(),
        },
        MatrixFailure::FlowError {
            scenario: "klass".into(),
            preset: "ours",
            detail: "diverged".into(),
        },
        MatrixFailure::EmptyCongestionFrames {
            scenario: "klass".into(),
            preset: "ours",
        },
        MatrixFailure::EmptySeries {
            scenario: "klass".into(),
            preset: "ours",
            series: "hpwl",
        },
        MatrixFailure::OrderingViolation {
            scenario: "klass".into(),
            better: "ours",
            worse: "xplace-route",
            better_drvs: 9.0,
            worse_drvs: 1.0,
            tolerance: 0.15,
        },
    ];
    for f in &failures {
        assert_eq!(f.scenario(), "klass");
        assert!(
            f.to_string().contains("klass"),
            "message must name the class: {f}"
        );
    }
    // Empty-telemetry failures are phrased as what they are: a recording
    // bug, not a QoR problem.
    assert!(failures[2].to_string().contains("no congestion frame"));
    assert!(failures[3].to_string().contains("series `hpwl` is empty"));
}

/// A matrix run with a run directory writes `rdp report`-compatible
/// artifacts per (scenario, preset).
#[test]
fn run_dir_writes_trace_and_metrics() {
    let root = std::env::temp_dir().join(format!("rdp_matrix_test_{}", std::process::id()));
    let cfg = MatrixConfig {
        classes: Some(vec!["single_cell".to_string()]),
        run_dir: Some(root.clone()),
        ..MatrixConfig::default()
    };
    let report = run_matrix(&cfg).expect("harness runs");
    assert!(report.passed());
    for preset in ["xplace", "xplace-route", "ours"] {
        let dir = root.join("single_cell").join(preset);
        assert!(dir.join("trace.jsonl").is_file(), "{}", dir.display());
        assert!(dir.join("metrics.json").is_file(), "{}", dir.display());
    }
    std::fs::remove_dir_all(&root).ok();
}
