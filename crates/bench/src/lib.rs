//! # rdp-bench — experiment harnesses
//!
//! Binaries that regenerate every table and figure of the paper on the
//! synthetic suite, plus micro-benchmarks of the hot kernels on the
//! in-repo `rdp-testkit` bench harness:
//!
//! | target | artifact |
//! |---|---|
//! | `cargo run -p rdp-bench --release --bin table1` | Table I (20 designs × 3 placers) |
//! | `cargo run -p rdp-bench --release --bin table2` | Table II (ablation) |
//! | `cargo run -p rdp-bench --release --bin fig1`   | Fig. 1 (local vs global congestion) |
//! | `cargo run -p rdp-bench --release --bin fig2`   | Fig. 2 (flow walk-through) |
//! | `cargo run -p rdp-bench --release --bin fig3`   | Fig. 3 (virtual-cell geometry) |
//! | `cargo run -p rdp-bench --release --bin fig4`   | Fig. 4 (PG-rail selection) |
//! | `cargo bench -p rdp-bench` | kernel / placement / ablation micro-benches |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rdp_core::{run_flow, PlacerPreset, RoutabilityConfig};
use rdp_db::Design;
use rdp_drc::{EvalConfig, EvalReport};
use rdp_gen::SuiteEntry;
use rdp_legal::{detailed_place, legalize, DetailedConfig, LegalizeConfig};

/// Generates one suite design and pins its routing capacity so that the
/// wirelength-driven baseline exhibits the calibrated congestion stress.
///
/// The generator's own capacity calibration anchors on its compact tile
/// placement, which over-estimates routed demand; re-anchoring on an
/// actual Xplace placement makes `congestion_margin` mean exactly "this
/// fraction of G-cells stays under capacity for the baseline placer" —
/// the per-design technology stress of Table I.
pub fn prepare_design(entry: &SuiteEntry) -> Design {
    let mut design = rdp_gen::generate(entry.name, &entry.params);
    let mut probe = design.clone();
    run_flow(&mut probe, &RoutabilityConfig::preset(PlacerPreset::Xplace))
        .expect("calibration probe placement diverged");
    legalize(&mut probe, &LegalizeConfig::default());
    detailed_place(&mut probe, &DetailedConfig::default());
    let spec = rdp_gen::calibrate_routing(&probe, entry.params.congestion_margin);
    design.set_routing(spec);
    design
}

/// One Table-I-style result row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowResult {
    /// Design name.
    pub design: String,
    /// Placement time (s).
    pub pt: f64,
    /// Post-routing evaluation: DRWL, #DRVias, #DRVs and the routing
    /// time of the Table I columns.
    pub eval: EvalReport,
}

/// Runs the complete pipeline (place → legalize → detailed place →
/// evaluate) for one design under one flow configuration, with every
/// stage traced on `obs`. It runs [`rdp::place_and_evaluate_obs`], the
/// pipeline `rdp flow` runs, so the published tables come from the code
/// users run. Results are bitwise identical with tracing on or off; the
/// collector only records.
pub fn run_pipeline(
    design: &mut Design,
    cfg: &RoutabilityConfig,
    eval_cfg: &EvalConfig,
    obs: &rdp_obs::Collector,
) -> RowResult {
    let r = rdp::place_and_evaluate_obs(design, cfg, eval_cfg, obs)
        .expect("flow diverged beyond recovery");
    RowResult {
        design: design.name().to_string(),
        pt: r.flow.place_seconds,
        eval: r.eval,
    }
}

/// DRV counts below this level are measurement noise on the synthetic
/// suite; per-design DRV ratios floor both sides here so that a
/// 121-vs-3 design does not contribute a 40x outlier to the mean (the
/// paper's designs never approach zero DRVs, so it never faces this).
pub const DRV_NOISE_FLOOR: f64 = 10.0;

/// Per-metric mean ratios of `rows` against `baseline` rows (matched by
/// index): the "Avg. Ratio" line of the paper's tables. DRV ratios floor
/// both numerator and denominator at [`DRV_NOISE_FLOOR`].
pub fn mean_ratios(rows: &[RowResult], baseline: &[RowResult]) -> (f64, f64, f64) {
    assert_eq!(rows.len(), baseline.len());
    assert!(!rows.is_empty());
    let mut acc = (0.0, 0.0, 0.0);
    for (r, b) in rows.iter().zip(baseline) {
        let (r, b) = (&r.eval, &b.eval);
        acc.0 += r.drwl / b.drwl.max(1.0);
        acc.1 += r.drvias / b.drvias.max(1.0);
        acc.2 += r.drvs.max(DRV_NOISE_FLOOR) / b.drvs.max(DRV_NOISE_FLOOR);
    }
    let n = rows.len() as f64;
    (acc.0 / n, acc.1 / n, acc.2 / n)
}

/// Mean ratio of one extracted metric against a baseline, with a floor on
/// the denominator.
pub fn mean_ratio_by(
    rows: &[RowResult],
    baseline: &[RowResult],
    f: impl Fn(&RowResult) -> f64,
) -> f64 {
    assert_eq!(rows.len(), baseline.len());
    let mut acc = 0.0;
    for (r, b) in rows.iter().zip(baseline) {
        acc += f(r).max(1e-9) / f(b).max(1e-9);
    }
    acc / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, drwl: f64, vias: f64, drvs: f64) -> RowResult {
        RowResult {
            design: name.into(),
            pt: 1.0,
            eval: EvalReport {
                drwl,
                drvias: vias,
                drvs,
                drv_overflow: drvs,
                drv_pin_access: 0.0,
                drv_rail: 0.0,
                route_seconds: 1.0,
                overflowed_gcells: 0,
            },
        }
    }

    #[test]
    fn ratios_identity() {
        let rows = vec![row("a", 10.0, 5.0, 100.0), row("b", 20.0, 8.0, 50.0)];
        let (w, v, d) = mean_ratios(&rows, &rows);
        assert!((w - 1.0).abs() < 1e-12);
        assert!((v - 1.0).abs() < 1e-12);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_scale() {
        let ours = vec![row("a", 10.0, 5.0, 100.0)];
        let other = vec![row("a", 20.0, 5.0, 140.0)];
        let (w, _, d) = mean_ratios(&other, &ours);
        assert!((w - 2.0).abs() < 1e-12);
        assert!((d - 1.4).abs() < 1e-12);
    }

    #[test]
    fn zero_drvs_floored_at_noise_level() {
        let ours = vec![row("a", 10.0, 5.0, 0.0)];
        let other = vec![row("a", 10.0, 5.0, 3.0)];
        let (_, _, d) = mean_ratios(&other, &ours);
        // Both sides below the noise floor: ratio is 1, not 3/0.
        assert_eq!(d, 1.0);

        let other = vec![row("a", 10.0, 5.0, 100.0)];
        let (_, _, d) = mean_ratios(&other, &ours);
        assert_eq!(d, 10.0); // 100 / floor(0 → 10)
    }

    #[test]
    fn pt_ratio_by_extractor() {
        let a = vec![row("a", 1.0, 1.0, 1.0)];
        let mut b = a.clone();
        b[0].pt = 4.0;
        let r = mean_ratio_by(&b, &a, |r| r.pt);
        assert_eq!(r, 4.0);
    }
}
