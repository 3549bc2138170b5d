//! Regenerates **Table I**: all 20 suite designs × {Xplace, Xplace-Route,
//! Ours}, reporting DRWL, #DRVias, #DRVs, placement time (PT) and routing
//! time (RT), plus the per-metric average ratios normalized to Ours.
//!
//! ```sh
//! cargo run --release -p rdp-bench --bin table1            # all 20 designs
//! cargo run --release -p rdp-bench --bin table1 -- --designs fft_1,fft_2
//! cargo run --release -p rdp-bench --bin table1 -- --profile   # + stage time table
//! ```

use rdp_bench::{mean_ratio_by, mean_ratios, prepare_design, run_pipeline_obs, RowResult};
use rdp_core::{PlacerPreset, RoutabilityConfig};
use rdp_drc::EvalConfig;

const PRESETS: [(&str, PlacerPreset); 3] = [
    ("Xplace", PlacerPreset::Xplace),
    ("Xplace-Route", PlacerPreset::XplaceRoute),
    ("Ours", PlacerPreset::Ours),
];

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

    // --profile: trace every run into one collector and append the
    // aggregate per-stage time table after the Table I rows.
    let obs = if args.iter().any(|a| a == "--profile") {
        rdp_obs::Collector::enabled()
    } else {
        rdp_obs::Collector::disabled()
    };

    let eval_cfg = EvalConfig::default();
    let mut results: Vec<Vec<RowResult>> = vec![Vec::new(); PRESETS.len()];

    println!(
        "{:<16} | {:>10} {:>8} {:>7} {:>6} {:>6} | {:>10} {:>8} {:>7} {:>6} {:>6} | {:>10} {:>8} {:>7} {:>6} {:>6}",
        "Design",
        "DRWL/um", "#DRVias", "#DRVs", "PT/s", "RT/s",
        "DRWL/um", "#DRVias", "#DRVs", "PT/s", "RT/s",
        "DRWL/um", "#DRVias", "#DRVs", "PT/s", "RT/s"
    );
    println!(
        "{:<16} | {:^41} | {:^41} | {:^41}",
        "", "Xplace", "Xplace-Route", "Ours"
    );

    for name in &designs {
        let entry = rdp_gen::ispd2015_suite()
            .into_iter()
            .find(|e| e.name == name.as_str())
            .unwrap_or_else(|| panic!("unknown design `{name}`"));
        let base = prepare_design(&entry);
        let mut cells = String::new();
        for (pi, (_, preset)) in PRESETS.iter().enumerate() {
            let mut d = base.clone();
            let row =
                run_pipeline_obs(&mut d, &RoutabilityConfig::preset(*preset), &eval_cfg, &obs);
            cells.push_str(&format!(
                " | {:>10.0} {:>8.0} {:>7.0} {:>6.2} {:>6.2}",
                row.eval.drwl, row.eval.drvias, row.eval.drvs, row.pt, row.eval.route_seconds
            ));
            results[pi].push(row);
        }
        println!("{name:<16}{cells}");
    }

    // Average ratios normalized to Ours (the paper's last row).
    let ours = results.last().expect("presets non-empty").clone();
    println!("{}", "-".repeat(16 + 3 * 44));
    let mut footer = format!("{:<16}", "Avg. Ratio");
    for rows in &results {
        let (w, v, d) = mean_ratios(rows, &ours);
        let pt = mean_ratio_by(rows, &ours, |r| r.pt);
        let rt = mean_ratio_by(rows, &ours, |r| r.eval.route_seconds);
        footer.push_str(&format!(
            " | {:>10.2} {:>8.2} {:>7.2} {:>6.2} {:>6.2}",
            w, v, d, pt, rt
        ));
    }
    println!("{footer}");
    println!(
        "\n(DRV ratios floor both sides at {} DRVs — measurement noise on the synthetic suite)",
        rdp_bench::DRV_NOISE_FLOOR
    );
    println!(
        "paper Table I avg ratios      |  DRWL 1.00  vias 1.00  DRVs 5.00 (Xplace)  |  1.00 / 0.99 / 1.40 (Xplace-Route)  |  1.00 / 1.00 / 1.00 (Ours)"
    );
    if obs.is_enabled() {
        println!("\nstage profile (all designs × presets aggregated):");
        print!("{}", rdp_obs::stage_table(&obs));
    }
}
