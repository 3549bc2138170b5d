//! Workspace robustness suite: deterministic fault injection against the
//! full pipeline.
//!
//! Every [`FaultPlan`] below names one fault, where it strikes, and the
//! contract the pipeline must honor when it does:
//!
//! * [`FaultExpectation::TypedError`] — the stage returns a clean typed
//!   error (with a line number for parse faults, `Stage::Checkpoint` for
//!   snapshot faults). Never a panic.
//! * [`FaultExpectation::DegradedOk`] — the flow completes and records a
//!   warning describing the degraded mode it fell into.
//! * [`FaultExpectation::RecoveredOk`] — the flow rolls back to the last
//!   good state, re-tunes, and still completes with finite results.
//!
//! Each scenario runs under `catch_unwind`, so a panic anywhere in the
//! pipeline fails the suite with the scenario's name attached. The whole
//! table is deterministic: a failure replays exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rdp::core::{
    run_flow, run_flow_with, FlowCheckpoint, FlowControl, FlowFault, PlacerPreset, RdpError,
    RoutabilityConfig, Stage,
};
use rdp::db::{Cell, Design, DesignBuilder, Dir, PgRail, Point, Rect, RoutingSpec};
use rdp::gen::{generate, GenParams};
use rdp::obs::{Collector, Event};
use rdp_guard::fnv1a64;
use rdp_testkit::{FaultExpectation, FaultKind, FaultPlan};

fn small_design(seed: u64) -> Design {
    generate(
        "robust",
        &GenParams {
            num_cells: 300,
            num_macros: 2,
            macro_fraction: 0.12,
            utilization: 0.6,
            congestion_margin: 0.8,
            io_terminals: 8,
            high_fanout_nets: 2,
            rail_pitch: 1.0,
            seed,
            ..GenParams::default()
        },
    )
}

fn fast_cfg() -> RoutabilityConfig {
    let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
    cfg.gp.max_iters = 120;
    cfg.max_route_iters = 3;
    cfg.gp_iters_per_route = 8;
    cfg
}

/// A design with a NaN power rail. `Rect` fields are built directly
/// because `Rect::new` (rightly) rejects malformed corners in debug
/// builds — this models a corrupted database, not a parser product.
fn design_with_degenerate_rail() -> Design {
    let die = Rect::new(0.0, 0.0, 60.0, 60.0);
    let mut b = DesignBuilder::new("degenerate-rails", die);
    let mut ids = Vec::new();
    for i in 0..48 {
        let x = 5.0 + 6.0 * (i % 8) as f64;
        let y = 5.0 + 8.0 * (i / 8) as f64;
        ids.push(b.add_cell(Cell::std(format!("c{i}"), 1.5, 1.0), Point::new(x, y)));
    }
    for (i, w) in ids.windows(2).enumerate() {
        b.add_net(
            format!("n{i}"),
            vec![(w[0], Point::default()), (w[1], Point::default())],
        );
    }
    b.routing(RoutingSpec::uniform(4, 1.5, 16, 16));
    b.add_rail(PgRail {
        layer: 1,
        dir: Dir::Horizontal,
        rect: Rect {
            lo: Point::new(f64::NAN, f64::NAN),
            hi: Point::new(f64::NAN, f64::NAN),
        },
    });
    b.build()
        .expect("degenerate rail geometry is a runtime fault, not a build error")
}

/// Runs a full flow once and returns the serialized checkpoint captured
/// at the top of routability iteration `at_iter`.
fn capture_checkpoint(seed: u64, at_iter: usize) -> Vec<u8> {
    let mut design = small_design(seed);
    let cfg = fast_cfg();
    let mut captured: Option<Vec<u8>> = None;
    let mut hook = |cp: &FlowCheckpoint| {
        if cp.next_route_iter == at_iter && captured.is_none() {
            captured = Some(cp.to_bytes());
        }
    };
    run_flow_with(
        &mut design,
        &cfg,
        FlowControl {
            on_checkpoint: Some(&mut hook),
            ..Default::default()
        },
    )
    .expect("healthy capture run must complete");
    captured.expect("flow emitted no checkpoint at the requested iteration")
}

/// Executes one scenario and checks its contract. Returns `Err` with a
/// human-readable description when the contract is violated.
fn run_plan(plan: &FaultPlan) -> Result<(), String> {
    match &plan.kind {
        // ------------------------------------------------------- parse --
        FaultKind::CorruptNumber { .. }
        | FaultKind::NonFiniteNumber { .. }
        | FaultKind::DropLinesContaining { .. }
        | FaultKind::TruncateLines { .. } => {
            let original = small_design(11);
            let err = match plan.name {
                "corrupt-bookshelf-number" | "nan-bookshelf-number" => {
                    let mut files = rdp::parse::write_bookshelf(&original);
                    files.nodes = plan.kind.mutate_text(&files.nodes);
                    rdp::parse::read_bookshelf("robust", &files)
                        .map(|_| ())
                        .map_err(|e| e)
                }
                "truncated-bookshelf-nets" | "dropped-net-degrees" => {
                    let mut files = rdp::parse::write_bookshelf(&original);
                    files.nets = plan.kind.mutate_text(&files.nets);
                    rdp::parse::read_bookshelf("robust", &files)
                        .map(|_| ())
                        .map_err(|e| e)
                }
                "corrupt-def-number" => {
                    let mut files = rdp::parse::write_lefdef(&original);
                    files.def = plan.kind.mutate_text(&files.def);
                    rdp::parse::read_lefdef(&files).map(|_| ()).map_err(|e| e)
                }
                "truncated-lef" => {
                    let mut files = rdp::parse::write_lefdef(&original);
                    files.lef = plan.kind.mutate_text(&files.lef);
                    rdp::parse::read_lefdef(&files).map(|_| ()).map_err(|e| e)
                }
                other => return Err(format!("unmapped parse scenario `{other}`")),
            };
            let e = err.err().ok_or("parser accepted a faulted file")?;
            if matches!(
                plan.kind,
                FaultKind::CorruptNumber { .. } | FaultKind::NonFiniteNumber { .. }
            ) && e.line.is_none()
            {
                return Err(format!("parse error lost its line number: {e}"));
            }
            Ok(())
        }

        // -------------------------------------------------------- flow --
        FaultKind::NanReference {
            route_iter,
            gp_iter,
        } => {
            let mut design = small_design(21);
            let cfg = fast_cfg();
            let report = run_flow_with(
                &mut design,
                &cfg,
                FlowControl {
                    fault: Some(FlowFault::NanReference {
                        route_iter: *route_iter,
                        gp_iter: *gp_iter,
                    }),
                    ..Default::default()
                },
            )
            .map_err(|e| format!("flow did not recover: {e}"))?;
            if report.rollbacks == 0 {
                return Err("injected NaN produced no rollback".into());
            }
            if !report.hpwl.is_finite() {
                return Err(format!(
                    "recovered flow has non-finite HPWL {}",
                    report.hpwl
                ));
            }
            if design
                .positions()
                .iter()
                .any(|p| !p.x.is_finite() || !p.y.is_finite())
            {
                return Err("recovered flow left non-finite positions".into());
            }
            Ok(())
        }
        FaultKind::NanCongestionGrad { route_iter } => {
            let mut design = small_design(22);
            let cfg = fast_cfg();
            let report = run_flow_with(
                &mut design,
                &cfg,
                FlowControl {
                    fault: Some(FlowFault::NanCongestionGrad {
                        route_iter: *route_iter,
                    }),
                    ..Default::default()
                },
            )
            .map_err(|e| format!("flow did not degrade cleanly: {e}"))?;
            if !report
                .warnings
                .iter()
                .any(|w| w.message.contains("skipping net moving"))
            {
                return Err(format!(
                    "expected a net-moving skip warning, got {:?}",
                    report.warnings
                ));
            }
            if !report.hpwl.is_finite() {
                return Err("degraded flow has non-finite HPWL".into());
            }
            Ok(())
        }
        FaultKind::ZeroCapacity => {
            let mut design = small_design(23);
            design.set_routing(RoutingSpec::uniform(4, 0.0, 16, 16));
            let cfg = fast_cfg();
            let report = run_flow(&mut design, &cfg)
                .map_err(|e| format!("zero capacity must degrade, not fail: {e}"))?;
            if !report
                .warnings
                .iter()
                .any(|w| w.message.contains("falling back to RUDY"))
            {
                return Err(format!(
                    "expected a RUDY-fallback warning, got {:?}",
                    report.warnings
                ));
            }
            if !report.hpwl.is_finite() {
                return Err("degraded flow has non-finite HPWL".into());
            }
            Ok(())
        }
        FaultKind::DegenerateRails => {
            let mut design = design_with_degenerate_rail();
            let cfg = fast_cfg();
            let report = run_flow(&mut design, &cfg)
                .map_err(|e| format!("degenerate rails must degrade, not fail: {e}"))?;
            if !report
                .warnings
                .iter()
                .any(|w| w.stage == Stage::Dpa && w.message.contains("D^PG"))
            {
                return Err(format!(
                    "expected a D^PG skip warning, got {:?}",
                    report.warnings
                ));
            }
            Ok(())
        }

        // -------------------------------------------------- checkpoint --
        FaultKind::CorruptCheckpointByte { .. } | FaultKind::TruncateBytes { .. } => {
            let bytes = capture_checkpoint(31, 2);
            let bad = plan.kind.mutate_bytes(&bytes);
            match FlowCheckpoint::from_bytes(&bad) {
                Ok(_) => Err("corrupted checkpoint deserialized successfully".into()),
                Err(e) if e.stage() == Some(Stage::Checkpoint) => Ok(()),
                Err(e) => Err(format!("wrong error stage for corrupt checkpoint: {e}")),
            }
        }

        // Service faults are driven against a live server by
        // `tests/serve_robustness.rs`, not through the flow harness.
        FaultKind::KillServer { .. }
        | FaultKind::GarbageFrame
        | FaultKind::OversizedFrame
        | FaultKind::TruncatedFrame
        | FaultKind::SlowClient => {
            unreachable!("service faults belong to the serve robustness suite")
        }
    }
}

fn plans() -> Vec<FaultPlan> {
    use FaultExpectation::*;
    vec![
        FaultPlan::new(
            "corrupt-bookshelf-number",
            FaultKind::CorruptNumber { occurrence: 6 },
            TypedError,
        ),
        FaultPlan::new(
            "nan-bookshelf-number",
            FaultKind::NonFiniteNumber { occurrence: 6 },
            TypedError,
        ),
        FaultPlan::new(
            "truncated-bookshelf-nets",
            FaultKind::TruncateLines { keep: 4 },
            TypedError,
        ),
        FaultPlan::new(
            "dropped-net-degrees",
            FaultKind::DropLinesContaining {
                needle: "NetDegree",
            },
            TypedError,
        ),
        FaultPlan::new(
            "corrupt-def-number",
            FaultKind::CorruptNumber { occurrence: 10 },
            TypedError,
        ),
        FaultPlan::new(
            "truncated-lef",
            FaultKind::TruncateLines { keep: 3 },
            TypedError,
        ),
        FaultPlan::new(
            "nan-reference-wirelength",
            FaultKind::NanReference {
                route_iter: 0,
                gp_iter: 5,
            },
            RecoveredOk,
        ),
        FaultPlan::new(
            "nan-reference-routability",
            FaultKind::NanReference {
                route_iter: 1,
                gp_iter: 2,
            },
            RecoveredOk,
        ),
        FaultPlan::new(
            "nan-congestion-grad",
            FaultKind::NanCongestionGrad { route_iter: 1 },
            DegradedOk,
        ),
        FaultPlan::new("zero-capacity-routing", FaultKind::ZeroCapacity, DegradedOk),
        FaultPlan::new(
            "degenerate-pg-rails",
            FaultKind::DegenerateRails,
            DegradedOk,
        ),
        FaultPlan::new(
            "corrupt-checkpoint-byte",
            FaultKind::CorruptCheckpointByte { offset: 37 },
            TypedError,
        ),
        FaultPlan::new(
            "corrupt-checkpoint-magic",
            FaultKind::CorruptCheckpointByte { offset: 0 },
            TypedError,
        ),
        FaultPlan::new(
            "torn-checkpoint-write",
            FaultKind::TruncateBytes { keep: 40 },
            TypedError,
        ),
    ]
}

#[test]
fn every_fault_plan_honors_its_contract_without_panicking() {
    let mut failures = Vec::new();
    for plan in plans() {
        let name = plan.name;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_plan(&plan)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => failures.push(format!("{name}: contract violated: {msg}")),
            Err(_) => failures.push(format!("{name}: PANICKED")),
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// A truncated checkpoint stream (killed mid-write) must be a typed
/// checkpoint error at every cut point, never a panic or a bogus resume.
#[test]
fn truncated_checkpoints_are_typed_errors() {
    let bytes = capture_checkpoint(32, 1);
    for cut in [0, 1, 7, 8, 12, bytes.len() / 2, bytes.len() - 1] {
        let out = catch_unwind(AssertUnwindSafe(|| {
            FlowCheckpoint::from_bytes(&bytes[..cut])
        }));
        match out {
            Ok(Ok(_)) => panic!("truncation at {cut} deserialized successfully"),
            Ok(Err(e)) => assert_eq!(
                e.stage(),
                Some(Stage::Checkpoint),
                "truncation at {cut}: wrong stage: {e}"
            ),
            Err(_) => panic!("truncation at {cut} panicked"),
        }
    }
}

/// The acceptance bar for checkpoint/restore: a run killed after
/// routability iteration 1 and resumed from its checkpoint must reproduce
/// the uninterrupted run's post-GP HPWL and overflow **bitwise**. The CI
/// harness runs this suite at `RDP_THREADS=1` and `RDP_THREADS=4`.
#[test]
fn killed_and_resumed_flow_is_bitwise_identical() {
    let cfg = fast_cfg();

    let mut uninterrupted = small_design(7);
    let full = run_flow(&mut uninterrupted, &cfg).unwrap();

    // "Kill" a second run by capturing the checkpoint written at the top
    // of routability iteration 2 and discarding everything after it.
    let mut captured: Option<Vec<u8>> = None;
    {
        let mut victim = small_design(7);
        let mut hook = |cp: &FlowCheckpoint| {
            if cp.next_route_iter == 2 && captured.is_none() {
                captured = Some(cp.to_bytes());
            }
        };
        run_flow_with(
            &mut victim,
            &cfg,
            FlowControl {
                on_checkpoint: Some(&mut hook),
                ..Default::default()
            },
        )
        .unwrap();
    }
    let bytes = captured.expect("no checkpoint captured at iteration 2");

    let checkpoint = FlowCheckpoint::from_bytes(&bytes).unwrap();
    let mut resumed_design = small_design(7);
    let resumed = run_flow_with(
        &mut resumed_design,
        &cfg,
        FlowControl {
            resume: Some(checkpoint),
            ..Default::default()
        },
    )
    .unwrap();

    assert_eq!(resumed.resumed_from, Some(2));
    assert_eq!(
        resumed.hpwl.to_bits(),
        full.hpwl.to_bits(),
        "resumed HPWL differs: {} vs {}",
        resumed.hpwl,
        full.hpwl
    );
    assert_eq!(
        resumed.density_overflow.to_bits(),
        full.density_overflow.to_bits(),
        "resumed overflow differs: {} vs {}",
        resumed.density_overflow,
        full.density_overflow
    );
    assert_eq!(resumed.route_iterations, full.route_iterations);
    assert_eq!(resumed_design.positions(), uninterrupted.positions());
}

/// Everything a NaN fault at (`route_iter`, `gp_iter`) leaves behind, one
/// fact a line: an FNV-1a hash of the final positions, the report's
/// rollbacks, wirelength-phase iterations and warnings (or the `Diverged`
/// error's fields and text), and the traced `rollback` instants.
fn rollback_transcript(route_iter: usize, gp_iter: usize, max_rollbacks: usize) -> String {
    let mut design = small_design(21);
    let mut cfg = fast_cfg();
    cfg.gp.health.max_rollbacks = max_rollbacks;
    let obs = Collector::enabled();
    let ctrl = FlowControl {
        fault: Some(FlowFault::NanReference {
            route_iter,
            gp_iter,
        }),
        obs: obs.clone(),
        ..Default::default()
    };
    let result = run_flow_with(&mut design, &cfg, ctrl);
    let bits: Vec<u8> = design
        .positions()
        .iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
        .flat_map(u64::to_le_bytes)
        .collect();
    let mut out = format!("NaN at ({route_iter}, {gp_iter}), rollback budget {max_rollbacks}\n");
    out += &format!("positions {:#018x}\n", fnv1a64(&bits));
    match &result {
        Ok(r) => {
            out += &format!(
                "rollbacks {} gp_iterations {}\n",
                r.rollbacks, r.gp_iterations
            );
            for w in &r.warnings {
                out += &format!("warning {:?} {} {}\n", w.stage, w.iteration, w.message);
            }
        }
        Err(
            e @ RdpError::Diverged {
                stage,
                iteration,
                rollbacks,
                detail,
            },
        ) => {
            out += &format!("diverged {stage:?} {iteration} {rollbacks} {detail}\nerror {e}\n");
        }
        Err(e) => panic!("expected a report or a Diverged error, got {e}"),
    }
    obs.with_snapshot(|events, _, _| {
        for ev in events {
            if let Event::Instant {
                name: "rollback",
                iter,
                detail,
                ..
            } = ev
            {
                out += &format!("rollback {iter} {detail}\n");
            }
        }
    })
    .expect("collector enabled");
    out
}

/// What a rollback leaves behind, pinned exactly: a NaN injected in the
/// wirelength phase (step 5) and in routability iteration 2 (step 3),
/// with the default rollback budget (one rollback, then the flow
/// completes) and with none (a `Diverged` error). The CI harness runs
/// this suite at `RDP_THREADS=1` and `RDP_THREADS=4`.
#[test]
fn rollback_outcomes_match_the_oracle() {
    const ORACLE: &str = "\
NaN at (0, 5), rollback budget 3
positions 0xf96e85d12dca5dcf
rollbacks 1 gp_iterations 96
warning WirelengthGp 0 step 5 rolled back ([wirelength-gp] non-finite or oversized reference positions at iteration 5 (index 0, value NaN)); γ ×1.50, λ₁ damped
rollback 0 wirelength GP step 5: [wirelength-gp] non-finite or oversized reference positions at iteration 5 (index 0, value NaN)
NaN at (2, 3), rollback budget 3
positions 0xda9e5d5cfbc1c54d
rollbacks 1 gp_iterations 89
warning Routability 2 GP step 3 rolled back ([routability] non-finite or oversized reference positions at iteration 100 (index 0, value NaN)); γ ×1.50, λ₁ damped
rollback 2 GP step 3: [routability] non-finite or oversized reference positions at iteration 100 (index 0, value NaN)
NaN at (0, 5), rollback budget 0
positions 0x9523ac81825ef7ab
diverged WirelengthGp 5 0 [wirelength-gp] non-finite or oversized reference positions at iteration 5 (index 0, value NaN)
error [wirelength-gp] diverged at iteration 5 after 0 rollback(s): [wirelength-gp] non-finite or oversized reference positions at iteration 5 (index 0, value NaN)
NaN at (2, 3), rollback budget 0
positions 0x92ddb5fe3d319fe6
diverged Routability 2 0 [routability] non-finite or oversized reference positions at iteration 100 (index 0, value NaN)
error [routability] diverged at iteration 2 after 0 rollback(s): [routability] non-finite or oversized reference positions at iteration 100 (index 0, value NaN)
";
    let budget = fast_cfg().gp.health.max_rollbacks;
    let got: String = [(0, 5, budget), (2, 3, budget), (0, 5, 0), (2, 3, 0)]
        .into_iter()
        .map(|(route_iter, gp_iter, max)| rollback_transcript(route_iter, gp_iter, max))
        .collect();
    assert_eq!(got, ORACLE);
}
