//! Integration tests of the LEF/DEF format: a design survives a disk
//! round trip through the input resolver and then behaves like the
//! original in the placement flow and the router.

use rdp::core::{run_flow, PlacerPreset, RoutabilityConfig};
use rdp::gen::{generate, GenParams};
use rdp::obs::Collector;
use rdp::parse::{read_lefdef, write_lefdef};
use rdp::serve::resolve_input;

fn sample(seed: u64) -> rdp::Design {
    generate(
        "fmt",
        &GenParams {
            num_cells: 300,
            num_macros: 2,
            macro_fraction: 0.15,
            utilization: 0.55,
            rail_pitch: 1.0,
            io_terminals: 6,
            seed,
            ..GenParams::default()
        },
    )
}

#[test]
fn lefdef_roundtrip_preserves_placement_behavior() {
    let original = sample(11);
    let mut reparsed = read_lefdef(&write_lefdef(&original)).expect("parse");

    // The parsed design places like the original: positions differ by
    // under 1/1000 µm, so the runs agree to the same tolerance.
    let mut orig_copy = original.clone();
    let xplace = RoutabilityConfig::preset(PlacerPreset::Xplace);
    let s1 = run_flow(&mut orig_copy, &xplace).unwrap();
    let s2 = run_flow(&mut reparsed, &xplace).unwrap();
    assert_eq!(s1.gp_iterations, s2.gp_iterations);
    assert!((s1.hpwl - s2.hpwl).abs() / s1.hpwl < 1e-3);
}

#[test]
fn lefdef_disk_roundtrip() {
    let original = sample(12);
    let dir = std::env::temp_dir().join(format!("rdp_it_lefdef_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let files = write_lefdef(&original);
    let (lef, def) = (dir.join("fmt.lef"), dir.join("fmt.def"));
    std::fs::write(&lef, &files.lef).expect("write LEF");
    std::fs::write(&def, &files.def).expect("write DEF");
    let input = format!("lefdef:{}:{}", lef.display(), def.display());
    let loaded = resolve_input(&input, &Collector::disabled());
    std::fs::remove_dir_all(&dir).ok();
    let loaded = loaded.expect("load");
    assert_eq!(loaded.num_cells(), original.num_cells());
    assert_eq!(loaded.num_nets(), original.num_nets());
    assert!((loaded.hpwl() - original.hpwl()).abs() / original.hpwl() < 1e-3);
}

#[test]
fn lefdef_roundtrip_preserves_routing_environment() {
    let original = sample(13);
    let parsed = read_lefdef(&write_lefdef(&original)).expect("parse");
    assert_eq!(parsed.routing().gx, original.routing().gx);
    assert_eq!(parsed.routing().gy, original.routing().gy);
    assert_eq!(
        parsed.routing().num_layers(),
        original.routing().num_layers()
    );
    for (a, b) in original
        .routing()
        .layers
        .iter()
        .zip(&parsed.routing().layers)
    {
        assert_eq!(a.dir, b.dir);
        assert!((a.capacity - b.capacity).abs() < 1e-9);
    }
    // Routed congestion of the parsed design matches closely (positions
    // differ by < 1/1000 µm).
    let ra = rdp::route::GlobalRouter::default().route(&original);
    let rb = rdp::route::GlobalRouter::default().route(&parsed);
    assert!((ra.wirelength - rb.wirelength).abs() / ra.wirelength < 1e-3);
}
