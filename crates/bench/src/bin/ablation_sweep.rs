//! Design-choice ablation sweeps (the A1 index entry of DESIGN.md):
//! hyper-parameters the paper fixes without exploration are swept here to
//! show the sensitivity of the method —
//!
//! * momentum coefficient α of Eq. (11) (paper: 0.4),
//! * the λ₂ scale on Eq. (10) (our preset: 0.5),
//! * the DPA mode (off / static / dynamic),
//! * the inflation policy family (none / present-only / monotone / momentum).
//!
//! ```sh
//! cargo run --release -p rdp-bench --bin ablation_sweep [-- --designs a,b,c]
//! ```

use rdp_bench::{prepare_design, run_pipeline};
use rdp_core::{DcSource, DpaMode, InflationPolicy, PlacerPreset, RoutabilityConfig};
use rdp_drc::EvalConfig;
use rdp_obs::Collector;

fn designs_from_args() -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--designs")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            vec![
                "fft_b".to_string(),
                "des_perf_a".to_string(),
                "edit_dist_a".to_string(),
            ]
        })
}

fn main() {
    let designs = designs_from_args();
    let eval_cfg = EvalConfig::default();
    let bases: Vec<_> = designs
        .iter()
        .map(|name| {
            let entry = rdp_gen::ispd2015_suite()
                .into_iter()
                .find(|e| e.name == name.as_str())
                .unwrap_or_else(|| panic!("unknown design `{name}`"));
            (name.clone(), prepare_design(&entry))
        })
        .collect();

    let run = |label: &str, cfg: &RoutabilityConfig| {
        let mut total_drvs = 0.0;
        let mut total_drwl = 0.0;
        for (_, base) in &bases {
            let mut d = base.clone();
            let row = run_pipeline(&mut d, cfg, &eval_cfg, &Collector::disabled());
            total_drvs += row.eval.drvs;
            total_drwl += row.eval.drwl;
        }
        println!(
            "{label:<28} total DRVs {:>8.0}   total DRWL {:>10.0}",
            total_drvs, total_drwl
        );
    };

    println!("== momentum coefficient α (Eq. 11; paper = 0.4) ==");
    for alpha in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let cfg = RoutabilityConfig {
            inflation: InflationPolicy::Momentum { alpha },
            ..RoutabilityConfig::preset(PlacerPreset::Ours)
        };
        run(&format!("alpha = {alpha}"), &cfg);
    }

    println!("\n== λ₂ scale on Eq. (10) (preset = 0.5) ==");
    for scale in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let cfg = RoutabilityConfig {
            lambda2_scale: scale,
            ..RoutabilityConfig::preset(PlacerPreset::Ours)
        };
        run(&format!("lambda2_scale = {scale}"), &cfg);
    }

    println!("\n== DPA mode ==");
    for (label, dpa) in [
        ("dpa = off", None),
        ("dpa = static (Xplace-Route)", Some(DpaMode::Static)),
        ("dpa = dynamic (paper)", Some(DpaMode::Dynamic)),
    ] {
        let cfg = RoutabilityConfig {
            dpa,
            ..RoutabilityConfig::preset(PlacerPreset::Ours)
        };
        run(label, &cfg);
    }

    println!("\n== DC congestion source (router = paper, RUDY = Fig. 1(b) strawman) ==");
    for (label, src) in [
        ("dc source = router (paper)", DcSource::Router),
        ("dc source = RUDY", DcSource::Rudy),
    ] {
        let cfg = RoutabilityConfig {
            dc_source: src,
            ..RoutabilityConfig::preset(PlacerPreset::Ours)
        };
        run(label, &cfg);
    }

    println!("\n== inflation policy family ==");
    for (label, policy) in [
        ("inflation = none", InflationPolicy::None),
        (
            "inflation = present-only",
            InflationPolicy::PresentOnly { beta: 1.0 },
        ),
        (
            "inflation = monotone",
            InflationPolicy::Monotone { beta: 0.6 },
        ),
        (
            "inflation = momentum (paper)",
            InflationPolicy::Momentum { alpha: 0.4 },
        ),
    ] {
        let cfg = RoutabilityConfig {
            inflation: policy,
            ..RoutabilityConfig::preset(PlacerPreset::Ours)
        };
        run(label, &cfg);
    }
}
