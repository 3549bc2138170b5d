//! rdp-guard overhead micro-benchmark: one Nesterov GP step on a
//! 20k-cell design with the numerical-health sentinels enabled (the
//! default [`HealthPolicy`]) against the same step with monitoring
//! disabled. The sentinels are O(n) scans over quantities the step
//! already produced, so the guarded step must stay within 2 % of the
//! unguarded one — `BENCH_guard.json` records both.
//!
//! With `RDP_SERVE_BENCH=1` (or `RDP_SERVE_ASSERT=1`) the suite also
//! measures the **service overhead**: the same 5k-cell placement job
//! run submit-to-result through a live `rdp serve` instance against the
//! direct in-process flow. The service path adds one durable job record
//! per state transition, one checkpoint write per routability
//! iteration, and two protocol roundtrips — all O(1)-per-iteration
//! against a multi-second flow, so it must stay within 5 % of the
//! direct run (`RDP_SERVE_ASSERT=1` turns the budget into a hard
//! failure; CI does). These benchmarks run full flows, so they are
//! env-gated and excluded from the per-commit regression baseline.

use rdp_testkit::BenchHarness;
use std::hint::black_box;

use rdp_core::{GpSession, HealthPolicy, PlacerConfig, StepExtras};
use rdp_gen::{generate, GenParams};
use rdp_serve::worker::reference_run;
use rdp_serve::{Client, JobSpec, ServeConfig, Server};

fn design_20k() -> rdp_db::Design {
    generate(
        "bench-guard",
        &GenParams {
            num_cells: 20_000,
            num_macros: 4,
            macro_fraction: 0.12,
            utilization: 0.6,
            congestion_margin: 0.85,
            rail_pitch: 1.0,
            seed: 77,
            ..GenParams::default()
        },
    )
}

fn guard(c: &mut BenchHarness) {
    c.bench_function("gp_step_20k_guarded", |b| {
        let mut design = design_20k();
        let mut session = GpSession::new(&mut design, PlacerConfig::default());
        b.iter(|| {
            let r = session.step(&mut design, &StepExtras::default()).unwrap();
            black_box(r.overflow)
        })
    });

    c.bench_function("gp_step_20k_unguarded", |b| {
        let mut design = design_20k();
        let mut cfg = PlacerConfig::default();
        cfg.health = HealthPolicy::disabled();
        let mut session = GpSession::new(&mut design, cfg);
        b.iter(|| {
            let r = session.step(&mut design, &StepExtras::default()).unwrap();
            black_box(r.overflow)
        })
    });
}

/// The serve smoke/overhead design: 5k cells, written to disk as
/// LEF/DEF so the served job and the direct run parse the identical
/// input (the job-record path includes input resolution).
fn serve_spec(dir: &std::path::Path) -> JobSpec {
    let design = generate(
        "bench_serve_5k",
        &GenParams {
            num_cells: 5_000,
            num_macros: 2,
            macro_fraction: 0.12,
            utilization: 0.88,
            congestion_margin: 0.72,
            rail_pitch: 1.0,
            seed: 901,
            ..GenParams::default()
        },
    );
    let files = rdp_parse::write_lefdef(&design);
    let (lef, def) = (
        dir.join("bench_serve_5k.lef"),
        dir.join("bench_serve_5k.def"),
    );
    std::fs::write(&lef, files.lef).expect("write LEF input");
    std::fs::write(&def, files.def).expect("write DEF input");
    JobSpec {
        input: format!("lefdef:{}:{}", lef.display(), def.display()),
        preset: "ours".into(),
        gp_max_iters: Some(900),
        max_route_iters: Some(4),
        gp_iters_per_route: Some(80),
        ..JobSpec::default()
    }
}

/// Measured overhead of the median direct/served pair:
/// `(overhead_fraction, direct_seconds, served_seconds)`.
struct ServeOverhead {
    overhead: f64,
    direct_s: f64,
    served_s: f64,
}

fn serve_overhead(c: &mut BenchHarness, root: &std::path::Path) -> ServeOverhead {
    let spec = serve_spec(root);

    let server = Server::start(ServeConfig {
        dir: root.join("store"),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("serve start");
    let client = Client::new(server.local_addr().to_string());

    c.bench_function("direct_place_5k", |b| {
        b.iter(|| {
            let (res, _) = reference_run(&spec).expect("direct flow");
            black_box(res.hpwl)
        })
    });
    c.bench_function("serve_submit_to_result_5k", |b| {
        b.iter(|| {
            let id = client.submit(&spec).expect("submit");
            let out = client.wait(id, 5, 600_000).expect("result");
            black_box(out.hpwl)
        })
    });

    // The gate itself runs direct and served back-to-back in pairs so
    // slow machine drift (thermals, background load) cancels out of the
    // ratio, and gates on the median pair — robust against one leg of
    // one pair catching a noise spike in either direction. One transient
    // system stall (a writeback flush stalling the served leg's fsyncs,
    // say) can still inflate a whole pair set on a single-core box, so a
    // failing median is re-measured once before it counts: a genuine
    // service regression reproduces; a stall does not.
    let mut gate = median_pair(&client, &spec);
    if gate.overhead >= 0.05 {
        println!(
            "service overhead: median pair {:+.2}% over budget — re-measuring once",
            gate.overhead * 100.0
        );
        gate = median_pair(&client, &spec);
    }
    server.shutdown().expect("serve shutdown");
    gate
}

/// One served submit-to-result leg, timed (no bulk positions).
fn timed_served(client: &Client, spec: &JobSpec) -> f64 {
    let t = std::time::Instant::now();
    let id = client.submit(spec).expect("submit");
    let out = loop {
        match client.result_wait(id, false, 10_000) {
            Err(e) if matches!(e, rdp_core::RdpError::Busy { .. }) => continue,
            other => break other.expect("served result"),
        }
    };
    black_box(out.hpwl);
    t.elapsed().as_secs_f64()
}

/// Median of three interleaved direct/served pairs. The served leg
/// long-polls without bulk positions: the QoR result is the
/// submit-to-result deliverable; position transfer is a separate
/// opt-in fetch.
fn median_pair(client: &Client, spec: &JobSpec) -> ServeOverhead {
    let mut pairs: Vec<ServeOverhead> = Vec::new();
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let (res, _) = reference_run(spec).expect("direct flow");
        black_box(res.hpwl);
        let direct_s = t.elapsed().as_secs_f64();

        let served_s = timed_served(client, spec);

        pairs.push(ServeOverhead {
            overhead: served_s / direct_s - 1.0,
            direct_s,
            served_s,
        });
    }
    pairs.sort_by(|a, b| a.overhead.total_cmp(&b.overhead));
    pairs.swap_remove(pairs.len() / 2)
}

fn main() {
    let mut harness = BenchHarness::new("guard").sample_size(20);
    guard(&mut harness);

    let serve_assert = std::env::var("RDP_SERVE_ASSERT").as_deref() == Ok("1");
    let serve_bench =
        serve_assert || std::env::var("RDP_SERVE_BENCH").as_deref() == Ok("1") || harness.test_mode;
    let root = std::env::temp_dir().join(format!("rdp-bench-serve-{}", std::process::id()));
    let mut gate = None;
    if serve_bench {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("bench scratch dir");
        // Full flows per iteration: a few samples keep the wall-clock in
        // seconds (these two benches are informational; the gate below
        // measures its own interleaved pairs).
        harness.samples = harness.samples.min(3);
        gate = Some(serve_overhead(&mut harness, &root));
    }
    harness.finish();
    if serve_bench {
        let _ = std::fs::remove_dir_all(&root);
    }

    if let Some(gate) = gate {
        println!(
            "service overhead: {:+.2}% (submit-to-result {:.0} ms vs direct {:.0} ms, median of 3 interleaved pairs)",
            gate.overhead * 100.0,
            gate.served_s * 1e3,
            gate.direct_s * 1e3,
        );
        if serve_assert {
            assert!(
                gate.overhead < 0.05,
                "service overhead {:.2}% exceeds the 5% budget",
                gate.overhead * 100.0
            );
            println!("service overhead budget: PASS (< 5%)");
        }
    }
}
