//! Writes a generated design to Bookshelf-lite and LEF/DEF-lite, reads
//! both back, and verifies the round trip — the on-ramp for loading real
//! benchmark data into the flow.
//!
//! ```sh
//! cargo run --release --example file_roundtrip
//! ```

use rdp::parse::{load_bookshelf, read_lefdef, save_bookshelf, write_lefdef};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = rdp::gen::generate(
        "roundtrip",
        &rdp::gen::GenParams {
            num_cells: 800,
            num_macros: 3,
            macro_fraction: 0.18,
            utilization: 0.6,
            rail_pitch: 1.0,
            seed: 9,
            ..rdp::gen::GenParams::default()
        },
    );
    println!("{}", rdp::db::DesignStats::of(&design));

    // Bookshelf-lite to disk and back.
    let dir = std::env::temp_dir().join("rdp_roundtrip");
    save_bookshelf(&design, &dir, "roundtrip")?;
    println!("\nwrote Bookshelf bundle to {}", dir.display());
    let from_bookshelf = load_bookshelf(&dir, "roundtrip")?;
    assert_eq!(from_bookshelf.num_cells(), design.num_cells());
    assert!((from_bookshelf.hpwl() - design.hpwl()).abs() < 1e-6);
    println!(
        "bookshelf round trip ✓ (HPWL {:.1} um preserved)",
        design.hpwl()
    );

    // LEF/DEF-lite in memory.
    let lefdef = write_lefdef(&design);
    let from_def = read_lefdef(&lefdef)?;
    assert_eq!(from_def.num_nets(), design.num_nets());
    let rel = (from_def.hpwl() - design.hpwl()).abs() / design.hpwl();
    assert!(rel < 1e-3, "HPWL drift {rel}");
    println!(
        "lef/def round trip ✓ ({} LEF bytes, {} DEF bytes, HPWL drift {:.2e})",
        lefdef.lef.len(),
        lefdef.def.len(),
        rel
    );

    // A parsed design drops straight into the placer.
    let mut placed = from_def;
    let report = rdp::core::run_flow(
        &mut placed,
        &rdp::RoutabilityConfig::preset(rdp::PlacerPreset::Xplace),
    )
    .expect("placement diverged");
    println!(
        "\nplaced the parsed design: {} iters, HPWL {:.0} um, overflow {:.3}",
        report.gp_iterations, report.hpwl, report.density_overflow
    );
    Ok(())
}
