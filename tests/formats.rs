//! Integration tests of the file formats: a design survives a disk round
//! trip and then behaves identically in the placement flow.

use rdp::core::{run_flow, PlacerPreset, RoutabilityConfig};
use rdp::gen::{generate, GenParams};
use rdp::parse::{load_bookshelf, read_lefdef, save_bookshelf, write_bookshelf, write_lefdef};

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
fn bookshelf_roundtrip_preserves_placement_behavior() {
    let original = sample(11);
    let files = rdp::parse::write_bookshelf(&original);
    let mut reparsed = rdp::parse::read_bookshelf("fmt", &files).expect("parse");

    // The parsed design places identically to the original.
    let mut orig_copy = original.clone();
    let xplace = RoutabilityConfig::preset(PlacerPreset::Xplace);
    let s1 = run_flow(&mut orig_copy, &xplace).unwrap();
    let s2 = run_flow(&mut reparsed, &xplace).unwrap();
    assert_eq!(s1.gp_iterations, s2.gp_iterations);
    assert!((s1.hpwl - s2.hpwl).abs() < 1e-6 * s1.hpwl.max(1.0));
}

#[test]
fn bookshelf_disk_roundtrip() {
    let original = sample(12);
    let dir = std::env::temp_dir().join("rdp_it_bookshelf");
    save_bookshelf(&original, &dir, "fmt").expect("save");
    let loaded = load_bookshelf(&dir, "fmt").expect("load");
    assert_eq!(loaded.num_cells(), original.num_cells());
    assert_eq!(loaded.num_nets(), original.num_nets());
    assert!((loaded.hpwl() - original.hpwl()).abs() < 1e-6);
    std::fs::remove_dir_all(&dir).ok();
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

#[test]
fn formats_cross_agree() {
    let original = sample(14);
    let via_bookshelf = rdp::parse::read_bookshelf("fmt", &write_bookshelf(&original)).unwrap();
    let via_def = read_lefdef(&write_lefdef(&original)).unwrap();
    assert_eq!(via_bookshelf.num_pins(), via_def.num_pins());
    assert!((via_bookshelf.hpwl() - via_def.hpwl()).abs() / original.hpwl() < 1e-3);
}
