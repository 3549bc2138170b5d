//! End-to-end determinism: the workspace-wide contract *same seed →
//! same design → same placement metrics*, enforced on the smallest
//! design of the synthetic suite.
//!
//! Every future performance or robustness PR regresses against this
//! test: any change that breaks bit-reproducibility of generation or
//! placement must be intentional and update the contract here.

use rdp::core::{run_flow, PlacerPreset, RoutabilityConfig};
use rdp::db::DesignStats;
use rdp::gen::{generate, ispd2015_suite, GenParams, SuiteEntry};
use rdp::parse::write_lefdef;

/// The smallest design of the 20-entry suite (by movable-cell count).
fn smallest_entry() -> SuiteEntry {
    ispd2015_suite()
        .into_iter()
        .min_by_key(|e| e.params.num_cells)
        .expect("suite is non-empty")
}

/// Same-seed generation is **byte-identical** across two runs: the full
/// LEF/DEF serialization (cell types, components, nets, rows, routing
/// grid, PG rails, blockages) of two independent generations compares
/// equal, and so do the positions at full f64 precision.
#[test]
fn same_seed_generation_is_byte_identical() {
    let entry = smallest_entry();
    let a = generate(entry.name, &entry.params);
    let b = generate(entry.name, &entry.params);

    let fa = write_lefdef(&a);
    let fb = write_lefdef(&b);
    assert_eq!(fa.lef, fb.lef);
    assert_eq!(fa.def, fb.def);
    assert_eq!(a.positions(), b.positions());
}

/// Netlist statistics and post-global-placement HPWL/overflow agree to
/// the last ULP between two same-seed runs.
#[test]
fn same_seed_placement_metrics_identical_to_last_ulp() {
    let entry = smallest_entry();
    let mut a = generate(entry.name, &entry.params);
    let mut b = generate(entry.name, &entry.params);

    // Identical netlist stats before placement.
    assert_eq!(DesignStats::of(&a), DesignStats::of(&b));

    let xplace = RoutabilityConfig::preset(PlacerPreset::Xplace);
    let sa = run_flow(&mut a, &xplace).unwrap();
    let sb = run_flow(&mut b, &xplace).unwrap();

    assert_eq!(sa.gp_iterations, sb.gp_iterations);
    // Bitwise comparison: `to_bits` distinguishes even -0.0 from 0.0, so
    // equality here means identical to the last ULP.
    assert_eq!(sa.hpwl.to_bits(), sb.hpwl.to_bits(), "hpwl differs");
    assert_eq!(
        sa.density_overflow.to_bits(),
        sb.density_overflow.to_bits(),
        "overflow differs"
    );
    assert_eq!(a.positions(), b.positions());
    assert_eq!(a.hpwl().to_bits(), b.hpwl().to_bits());
}

/// A different seed must actually change the generated design (guards
/// against the RNG being ignored).
#[test]
fn different_seed_changes_the_design() {
    let entry = smallest_entry();
    let a = generate(entry.name, &entry.params);
    let mut params2 = entry.params.clone();
    params2.seed ^= 0x5eed;
    let b = generate(entry.name, &params2);
    assert_ne!(a.hpwl().to_bits(), b.hpwl().to_bits());
}

/// Enabling a scenario extension must not perturb the base design: the
/// cells, base nets and placement of a design generated with hotspots /
/// obstructions / pitches enabled are a superset-compatible extension of
/// the default-off generation (same cells, positions and rows).
#[test]
fn scenario_extensions_do_not_perturb_base_stream() {
    let base = GenParams {
        num_cells: 300,
        num_macros: 2,
        macro_fraction: 0.15,
        utilization: 0.55,
        io_terminals: 6,
        seed: 77,
        ..GenParams::default()
    };
    let extended = GenParams {
        hotspot_clusters: 2,
        global_net_frac: 0.2,
        obstruction_layers: 2,
        random_obstructions: 4,
        track_pitch: 0.4,
        ..base.clone()
    };
    let a = generate("ext", &base);
    let b = generate("ext", &extended);
    // Identical cell population, placement and row structure...
    assert_eq!(a.cells(), b.cells());
    assert_eq!(a.positions(), b.positions());
    assert_eq!(a.rows(), b.rows());
    // ...and the base netlist is a prefix of the extended one.
    assert!(b.num_nets() > a.num_nets(), "extensions should add nets");
    assert_eq!(&b.nets()[..a.num_nets()], a.nets());
    for net in a.nets() {
        for &pid in &net.pins {
            assert_eq!(a.pin(pid), b.pin(pid));
        }
    }
    assert!(!b.obstructions().is_empty());
}

/// The determinism contract also holds for hand-rolled parameters (not
/// just suite entries), at a size small enough to exercise quickly.
#[test]
fn tiny_design_determinism() {
    let params = GenParams {
        num_cells: 250,
        num_macros: 1,
        macro_fraction: 0.1,
        utilization: 0.55,
        io_terminals: 6,
        rail_pitch: 1.0,
        seed: 0xD5,
        ..GenParams::default()
    };
    let mut a = generate("tiny", &params);
    let mut b = generate("tiny", &params);
    let xplace = RoutabilityConfig::preset(PlacerPreset::Xplace);
    let sa = run_flow(&mut a, &xplace).unwrap();
    let sb = run_flow(&mut b, &xplace).unwrap();
    assert_eq!(sa.hpwl.to_bits(), sb.hpwl.to_bits());
    assert_eq!(sa.density_overflow.to_bits(), sb.density_overflow.to_bits());
    assert_eq!(a.positions(), b.positions());
}
