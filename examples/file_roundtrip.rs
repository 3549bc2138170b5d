//! Writes a generated design to LEF/DEF-lite, reads it back through the
//! input resolver the CLI and the service use (`lefdef:LEF:DEF`), and
//! places the parsed design.
//!
//! ```sh
//! cargo run --release --example file_roundtrip
//! ```

use rdp::parse::write_lefdef;

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

    // LEF/DEF-lite to a per-process directory and back.
    let dir = std::env::temp_dir().join(format!("rdp_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let files = write_lefdef(&design);
    let (lef, def) = (dir.join("roundtrip.lef"), dir.join("roundtrip.def"));
    std::fs::write(&lef, &files.lef)?;
    std::fs::write(&def, &files.def)?;
    let input = format!("lefdef:{}:{}", lef.display(), def.display());
    let parsed = rdp::serve::resolve_input(&input, &rdp::obs::Collector::disabled());
    std::fs::remove_dir_all(&dir)?;
    let parsed = parsed?;
    assert_eq!(parsed.num_cells(), design.num_cells());
    assert_eq!(parsed.num_nets(), design.num_nets());
    let rel = (parsed.hpwl() - design.hpwl()).abs() / design.hpwl();
    assert!(rel < 1e-3, "HPWL drift {rel}");
    println!(
        "\nlef/def round trip ✓ ({} LEF bytes, {} DEF bytes, HPWL drift {:.2e})",
        files.lef.len(),
        files.def.len(),
        rel
    );

    // A parsed design drops straight into the placer.
    let mut placed = parsed;
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
