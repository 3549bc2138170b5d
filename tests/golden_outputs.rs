//! Golden hashes of the LEF/DEF reader's output and of the post-detailed-
//! placement positions.
//!
//! Speed work on the reader, the global placer and the detailed placer
//! must keep every output bit. These FNV-1a hashes cover everything the
//! reader produces (names, positions as bits, nets, pins, rows, rails,
//! obstructions and the routing environment) and the exact positions
//! after global placement, legalization and detailed placement, with and
//! without virtual widths, and the density penalty the GP step checks.
//! Update a golden only for an intentional change of the output, and say
//! so in the change log.

use rdp::core::{run_flow, DensityModel, PlacerConfig, PlacerPreset, RoutabilityConfig};
use rdp::db::{CellKind, Design, Dir};
use rdp::gen::{generate_named, scenario_by_name, scenario_matrix, Scale};
use rdp::legal::{
    detailed_place, detailed_place_virtual, legalize, legalize_virtual, DetailedConfig,
    LegalizeConfig,
};
use rdp::parse::{read_lefdef, write_lefdef, LefDefFiles};

/// FNV-1a over a stream of fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Hash of everything a design holds: names, kinds, sizes, positions,
/// nets with their pins, rows, rails, obstructions and routing.
fn design_hash(d: &Design) -> u64 {
    let mut h = Fnv::new();
    h.str(d.name());
    let die = d.die();
    for v in [die.lo.x, die.lo.y, die.hi.x, die.hi.y] {
        h.f64(v);
    }
    h.u64(d.num_cells() as u64);
    for (c, p) in d.cells().iter().zip(d.positions()) {
        h.str(&c.name);
        h.u64(match c.kind {
            CellKind::Std => 0,
            CellKind::Macro => 1,
            CellKind::Terminal => 2,
        });
        h.f64(c.w);
        h.f64(c.h);
        h.u64(c.fixed as u64);
        h.f64(p.x);
        h.f64(p.y);
    }
    h.u64(d.num_nets() as u64);
    for net in d.nets() {
        h.str(&net.name);
        h.f64(net.weight);
        h.u64(net.pins.len() as u64);
        for &pid in &net.pins {
            let pin = d.pin(pid);
            h.u64(pid.index() as u64);
            h.u64(pin.cell.index() as u64);
            h.u64(pin.net.index() as u64);
            h.f64(pin.offset.x);
            h.f64(pin.offset.y);
        }
    }
    h.u64(d.rows().len() as u64);
    for r in d.rows() {
        for v in [r.y, r.height, r.x0, r.x1, r.site_w] {
            h.f64(v);
        }
    }
    let dir = |d: Dir| match d {
        Dir::Horizontal => 0,
        Dir::Vertical => 1,
    };
    h.u64(d.rails().len() as u64);
    for r in d.rails() {
        h.u64(r.layer as u64);
        h.u64(dir(r.dir));
        for v in [r.rect.lo.x, r.rect.lo.y, r.rect.hi.x, r.rect.hi.y] {
            h.f64(v);
        }
    }
    h.u64(d.obstructions().len() as u64);
    for o in d.obstructions() {
        h.u64(o.layer as u64);
        for v in [o.rect.lo.x, o.rect.lo.y, o.rect.hi.x, o.rect.hi.y] {
            h.f64(v);
        }
    }
    let routing = d.routing();
    h.u64(routing.gx as u64);
    h.u64(routing.gy as u64);
    h.u64(routing.layers.len() as u64);
    for l in &routing.layers {
        h.str(&l.name);
        h.u64(dir(l.dir));
        h.f64(l.capacity);
        h.f64(l.pitch);
    }
    h.0
}

fn positions_hash(d: &Design) -> u64 {
    let mut h = Fnv::new();
    for p in d.positions() {
        h.f64(p.x);
        h.f64(p.y);
    }
    h.0
}

fn reparsed(d: &Design) -> Design {
    read_lefdef(&write_lefdef(d)).expect("written LEF/DEF parses")
}

#[test]
fn read_lefdef_suite_designs_match_golden_hashes() {
    const GOLDEN: [(&str, u64); 3] = [
        ("fft_a", 0x191148cc0a99af00),
        ("des_perf_b", 0x3606f2d16f83b931),
        ("pci_bridge32_a", 0xb9ae9c1be3f06d0e),
    ];
    for (name, want) in GOLDEN {
        let d = generate_named(name).expect("suite design");
        let got = design_hash(&reparsed(&d));
        assert_eq!(got, want, "{name}: read_lefdef output {got:#018x} drifted");
    }
}

#[test]
fn read_lefdef_scenario_classes_match_golden_hashes() {
    const GOLDEN: [(&str, u64); 12] = [
        ("baseline", 0xbe7934493ecd879e),
        ("macro_obstructed", 0x4650f0eb883ce759),
        ("fpga_sites", 0x655a36602196b83b),
        ("high_rent", 0x11effb328744e6a0),
        ("near_full_util", 0x757b5a83fc1b0a17),
        ("pin_hotspots", 0x6b974725dac37ff3),
        ("single_row_core", 0x62e05be422fc5329),
        ("obstruction_maze", 0x5a6140e3f596d38f),
        ("single_cell", 0x8cdc8c8029e493f6),
        ("all_fixed", 0x502f286d5829bb60),
        ("full_die_net", 0xb6848cfd91bca4ab),
        ("coincident_pins", 0x35ba861f4ee64d59),
    ];
    assert_eq!(
        GOLDEN.len(),
        scenario_matrix().len(),
        "one golden per class"
    );
    for (name, want) in GOLDEN {
        let d = scenario_by_name(name)
            .expect("scenario")
            .build(Scale::Small);
        let got = design_hash(&reparsed(&d));
        assert_eq!(got, want, "{name}: read_lefdef output {got:#018x} drifted");
    }
}

/// Malformed inputs fail with the same message and line number.
#[test]
fn read_lefdef_errors_keep_their_messages() {
    let d = scenario_by_name("macro_obstructed")
        .expect("scenario")
        .build(Scale::Small);
    let files = write_lefdef(&d);
    let (c0, c1) = (&d.cells()[0].name, &d.cells()[1].name);
    let (n0, n1) = (&d.nets()[0].name, &d.nets()[1].name);
    let first_size = files
        .lef
        .lines()
        .find(|l| l.trim_start().starts_with("SIZE "))
        .expect("a SIZE line")
        .to_string();
    let def_edits: [(String, String, &str); 6] = [
        (
            format!("- {c1} "),
            format!("- {c0} "),
            "def line 41: duplicate component `m0`",
        ),
        (
            format!("( {c0} "),
            "( nowhere ".into(),
            "def: net `mnet0` references `nowhere`",
        ),
        (
            " PLACED ( ".into(),
            " PLACED ( 1x2 ".into(),
            "def line 44: bad integer `1x2`",
        ),
        (
            "END BLOCKAGES".into(),
            "- LAYER M1 RECT ;\nEND BLOCKAGES".into(),
            "def line 982: malformed blockage line",
        ),
        (
            format!("- {n1} ("),
            format!("- {n0} ("),
            "build: duplicate net name `n0`",
        ),
        ("DIEAREA".into(), "DIEAREAX".into(), "def: missing DIEAREA"),
    ];
    for (from, to, want) in &def_edits {
        let mut g = files.clone();
        assert!(g.def.contains(from.as_str()), "DEF has no `{from}`");
        g.def = g.def.replacen(from.as_str(), to, 1);
        let got = read_lefdef(&g).expect_err("malformed DEF").to_string();
        assert_eq!(&got, want, "DEF edit `{from}` -> `{to}`");
    }
    let lef_edits: [(String, String, &str); 3] = [
        (
            "MACRO T0".into(),
            "MACRO TX".into(),
            "def: unknown type `T0`",
        ),
        (
            "MACRO T1".into(),
            "MACRO T0".into(),
            "lef line 33: duplicate macro `T0`",
        ),
        (
            first_size,
            "  SIZE inf BY 1 ;".into(),
            "lef line 31: non-finite number `inf`",
        ),
    ];
    for (from, to, want) in &lef_edits {
        let mut g: LefDefFiles = files.clone();
        assert!(g.lef.contains(from.as_str()), "LEF has no `{from}`");
        g.lef = g.lef.replacen(from.as_str(), to, 1);
        let got = read_lefdef(&g).expect_err("malformed LEF").to_string();
        assert_eq!(&got, want, "LEF edit `{from}` -> `{to}`");
    }
}

/// Wirelength-driven global placement (the Xplace preset of the flow),
/// capped at `max_iters` steps.
fn global_place(d: &mut Design, max_iters: usize) {
    let cfg = RoutabilityConfig {
        gp: PlacerConfig {
            max_iters,
            ..PlacerConfig::default()
        },
        ..RoutabilityConfig::preset(PlacerPreset::Xplace)
    };
    run_flow(d, &cfg).expect("global placement");
}

/// Global placement (a short run), legalization and detailed placement;
/// with `inflate`, both back-end steps use virtual widths.
fn post_dp_hash(mut d: Design, inflate: bool) -> u64 {
    global_place(&mut d, 60);
    let gain = if inflate {
        let widths: Vec<f64> = d
            .cells()
            .iter()
            .enumerate()
            .map(|(i, c)| c.w * (1.0 + 0.1 * (i % 3) as f64))
            .collect();
        legalize_virtual(&mut d, &LegalizeConfig::default(), &widths);
        detailed_place_virtual(&mut d, &DetailedConfig::default(), &widths)
    } else {
        legalize(&mut d, &LegalizeConfig::default());
        detailed_place(&mut d, &DetailedConfig::default())
    };
    let mut h = Fnv(positions_hash(&d));
    h.f64(gain);
    h.0
}

#[test]
fn post_detailed_placement_positions_match_golden_hashes() {
    const GOLDEN: [(&str, bool, u64); 6] = [
        ("baseline", false, 0x980d9c432fdb6de3),
        ("baseline", true, 0x3871d02cc811c4e3),
        ("macro_obstructed", false, 0xb911840658b38dc0),
        ("macro_obstructed", true, 0xff34a8e94b0d0244),
        ("pci_bridge32_a", false, 0x58edd36223df5cd4),
        ("pci_bridge32_a", true, 0xe2532e33460cc182),
    ];
    for (name, inflate, want) in GOLDEN {
        let d = scenario_by_name(name)
            .map(|s| s.build(Scale::Small))
            .or_else(|| generate_named(name))
            .expect("design");
        let got = post_dp_hash(d, inflate);
        assert_eq!(
            got, want,
            "{name} (virtual widths: {inflate}): post-DP positions {got:#018x} drifted"
        );
    }
}

/// The density penalty, with and without inflation, after a short global
/// placement: the gradient pass that reports it must sum the same terms
/// in the same order (per cell chunk, then over the chunks).
#[test]
fn density_penalty_matches_golden_bits() {
    const GOLDEN: [(&str, u64, u64); 2] = [
        ("macro_obstructed", 0x40d2da4c82bd9d18, 0x40d7ebb52d12390c),
        ("pci_bridge32_a", 0x412d5e994a5d70f2, 0x4132f400962a2ee4),
    ];
    for (name, plain, inflated) in GOLDEN {
        let mut d = scenario_by_name(name)
            .map(|s| s.build(Scale::Small))
            .or_else(|| generate_named(name))
            .expect("design");
        global_place(&mut d, 30);
        let model = DensityModel::new(&d);
        let ratios: Vec<f64> = (0..d.num_cells())
            .map(|i| 1.0 + 0.1 * (i % 4) as f64)
            .collect();
        for (inflation, want) in [(None, plain), (Some(ratios.as_slice()), inflated)] {
            let field = model.compute(&d, inflation, None, 0.9);
            let mut grad = vec![rdp::db::Point::default(); d.num_cells()];
            let got = model.accumulate_gradient(&d, &field, inflation, 1.0, &mut grad);
            assert_eq!(
                got.to_bits(),
                want,
                "{name} (inflated: {}): penalty {got:e} drifted",
                inflation.is_some()
            );
        }
    }
}
