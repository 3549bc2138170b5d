//! Regenerates **Table II** (ablation): starting from the Xplace-Route
//! baseline, the paper's techniques are enabled one at a time —
//! momentum-based cell inflation (MCI), the differentiable congestion /
//! net-moving term (DC), and dynamic pin-accessibility density (DPA) —
//! and the mean DRWL / #DRVias / #DRVs ratios are reported against the
//! full method (last row = 1.00).
//!
//! ```sh
//! cargo run --release -p rdp-bench --bin table2 [-- --designs fft_b,des_perf_a]
//! ```

use rdp_bench::{mean_ratios, prepare_design, run_pipeline, RowResult};
use rdp_core::{DpaMode, InflationPolicy, PlacerPreset, RoutabilityConfig};
use rdp_drc::EvalConfig;

fn ablation_config(mci: bool, dc: bool, dpa: bool) -> RoutabilityConfig {
    if !mci && !dc && !dpa {
        // Row 1 of Table II is the Xplace-Route baseline.
        return RoutabilityConfig::preset(PlacerPreset::XplaceRoute);
    }
    let mut cfg = RoutabilityConfig::preset(PlacerPreset::Ours);
    cfg.inflation = if mci {
        InflationPolicy::Momentum { alpha: 0.4 }
    } else {
        InflationPolicy::Monotone { beta: 0.6 }
    };
    cfg.enable_dc = dc;
    cfg.dpa = if dpa { Some(DpaMode::Dynamic) } else { None };
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let designs: Vec<String> = args
        .iter()
        .position(|a| a == "--designs")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| {
            rdp_gen::ispd2015_suite()
                .iter()
                .map(|e| e.name.to_string())
                .collect()
        });

    let rows_cfg = [
        ("-    -    -  ", (false, false, false)),
        ("MCI  -    -  ", (true, false, false)),
        ("MCI  DC   -  ", (true, true, false)),
        ("MCI  DC   DPA", (true, true, true)),
    ];

    let eval_cfg = EvalConfig::default();
    let mut results: Vec<Vec<RowResult>> = vec![Vec::new(); rows_cfg.len()];
    for name in &designs {
        let entry = rdp_gen::ispd2015_suite()
            .into_iter()
            .find(|e| e.name == name.as_str())
            .unwrap_or_else(|| panic!("unknown design `{name}`"));
        let base = prepare_design(&entry);
        eprintln!("[{name}] prepared");
        for (ri, (_, (mci, dc, dpa))) in rows_cfg.iter().enumerate() {
            let mut d = base.clone();
            let row = run_pipeline(&mut d, &ablation_config(*mci, *dc, *dpa), &eval_cfg);
            eprintln!(
                "[{name}] {}: drvs {:.0}, drwl {:.0}",
                rows_cfg[ri].0, row.eval.drvs, row.eval.drwl
            );
            results[ri].push(row);
        }
    }

    let full = results.last().expect("non-empty").clone();
    println!(
        "\nTable II: Ablation Experiment ({} designs)",
        designs.len()
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "Methods", "DRWL", "#DRVias", "#DRVs"
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "MCI  DC   DPA", "Avg.Ratio", "Avg.Ratio", "Avg.Ratio"
    );
    for (ri, (label, _)) in rows_cfg.iter().enumerate() {
        let (w, v, d) = mean_ratios(&results[ri], &full);
        println!("{:<16} {:>12.2} {:>12.2} {:>12.2}", label, w, v, d);
    }
}
