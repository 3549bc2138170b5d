//! rdp-obs overhead micro-benchmark: one Nesterov GP step on a 20k-cell
//! design with tracing enabled (spans + per-step telemetry recorded into
//! the ring buffer) against the identical step with the collector
//! disabled. A span on the disabled path is one `Option::is_none` branch
//! and an enabled span is two monotonic reads plus a mutex push, so the
//! traced step must stay within 6 % of the untraced one —
//! `BENCH_obs.json` records both. Set `RDP_OBS_ASSERT=1` to turn the
//! budget into a hard failure (CI does). The budget is a fraction of
//! the step, so it moves when the step does: the kernel vectorization
//! that roughly halved the 20k GP step doubled the same absolute
//! tracing cost (~0.25 ms) as a percentage, hence 6 % now where the
//! pre-vectorization step fit in 3 %.

use rdp_testkit::BenchHarness;
use std::hint::black_box;

use rdp_core::{GpSession, PlacerConfig, StepExtras};
use rdp_gen::{generate, GenParams};
use rdp_obs::Collector;

fn design_20k() -> rdp_db::Design {
    generate(
        "bench-obs",
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

fn obs(c: &mut BenchHarness) {
    c.bench_function("gp_step_20k_untraced", |b| {
        let mut design = design_20k();
        let mut session = GpSession::new(&mut design, PlacerConfig::default());
        b.iter(|| {
            let r = session.step(&mut design, &StepExtras::default()).unwrap();
            black_box(r.overflow)
        })
    });

    c.bench_function("gp_step_20k_traced", |b| {
        let mut design = design_20k();
        let mut session = GpSession::new(&mut design, PlacerConfig::default());
        session.set_obs(Collector::enabled());
        b.iter(|| {
            let r = session.step(&mut design, &StepExtras::default()).unwrap();
            black_box(r.overflow)
        })
    });
}

fn main() {
    let mut harness = BenchHarness::new("obs").sample_size(20);
    obs(&mut harness);
    let smoke = harness.test_mode;
    let results = harness.finish();
    if smoke {
        // A smoke run takes no samples, so there is no overhead to report.
        return;
    }

    let min_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("bench ran")
    };
    let untraced = min_of("gp_step_20k_untraced");
    let traced = min_of("gp_step_20k_traced");
    let overhead = traced / untraced - 1.0;
    println!(
        "tracing overhead: {:+.2}% (traced {:.0} ns vs untraced {:.0} ns, min over samples)",
        overhead * 100.0,
        traced,
        untraced
    );
    if std::env::var("RDP_OBS_ASSERT").as_deref() == Ok("1") {
        assert!(
            overhead < 0.06,
            "tracing overhead {:.2}% exceeds the 6% budget",
            overhead * 100.0
        );
        println!("overhead budget: PASS (< 6%)");
    }
}
