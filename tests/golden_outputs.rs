//! Golden hashes of the generator's and the LEF/DEF reader's output and
//! of the post-detailed-placement positions.
//!
//! Speed work on the reader, the global placer and the detailed placer
//! must keep every output bit. These FNV-1a hashes cover everything the
//! reader produces (names, positions as bits, nets, pins, rows, rails,
//! obstructions and the routing environment) and the exact positions
//! after global placement, legalization and detailed placement, with and
//! without virtual widths, and the density penalty the GP step checks.
//! The router, the evaluator and the routability presets are pinned the
//! same way: the routed demand and capacity maps, every field of the
//! evaluation report but its timing, the positions and per-iteration log
//! of the fast XplaceRoute and Ours flows, and PG-rail selection. A
//! mistyped model constant moves one of these hashes long before it moves
//! a table number.
//! Update a golden only for an intentional change of the output, and say
//! so in the change log.

use rdp::core::{
    run_flow, select_rails, DensityModel, PgDensity, PlacerConfig, PlacerPreset, RoutabilityConfig,
};
use rdp::db::{CellKind, Design, Dir, Map2d};
use rdp::drc::{evaluate, EvalConfig, EvalReport};
use rdp::gen::{generate_named, scenario_by_name, scenario_matrix, Scale};
use rdp::legal::{
    detailed_place, detailed_place_virtual_obs, legalize, legalize_virtual_obs, DetailedConfig,
    LegalizeConfig,
};
use rdp::obs::Collector;
use rdp::parse::{read_lefdef, write_lefdef, LefDefFiles};
use rdp::route::GlobalRouter;

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

/// Cross-version generator guard: pinned seeds still generate the same
/// design to the last bit of every coordinate (LEF/DEF text would quantize
/// to 1/1000 µm and miss sub-nanometre drift). New `GenParams` scenario
/// fields must default off and draw from forked RNG streams, so extending
/// the generator never perturbs the PRNG stream of existing default
/// configs. If this fails, a code change silently re-rolled every
/// existing benchmark.
#[test]
fn pinned_seeds_match_golden_hashes() {
    const GOLDEN: [(&str, u64); 3] = [
        ("fft_a", 0xa749c1b97c83ea70),
        ("des_perf_b", 0x058e03725111d8c2),
        ("pci_bridge32_a", 0xb7cf7825e6569019),
    ];
    for (name, want) in GOLDEN {
        let d = generate_named(name).expect("suite design");
        let got = design_hash(&d);
        assert_eq!(got, want, "{name}: generated design {got:#018x} drifted");
    }
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
    let net1_line = files
        .def
        .lines()
        .find(|l| l.starts_with(&format!("- {n1} (")))
        .expect("a net line")
        .to_string();
    let def_edits: [(String, String, &str); 11] = [
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
        (
            " N DO ".into(),
            " FS DO ".into(),
            "def line 5: unsupported ROW form (expected `ROW name site x y N DO n BY 1 STEP w 0 ;`)",
        ),
        (
            "END SPECIALNETS".into(),
            "- PG M1 H ;\nEND SPECIALNETS".into(),
            "def line 984: short rail line",
        ),
        (
            "END SPECIALNETS".into(),
            "- PG M1 D RECT ( 0 0 ) ( 10 10 ) ;\nEND SPECIALNETS".into(),
            "def line 984: bad rail dir `D`",
        ),
        (
            "END DESIGN".into(),
            String::new(),
            "def: missing END DESIGN (truncated file?)",
        ),
        (
            format!("{net1_line}\n"),
            String::new(),
            "def line 477: NETS declares 486 entries but 485 follow",
        ),
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
        let obs = Collector::disabled();
        legalize_virtual_obs(&mut d, &LegalizeConfig::default(), &widths, &obs);
        detailed_place_virtual_obs(&mut d, &DetailedConfig::default(), &widths, &obs)
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

fn map_hash(h: &mut Fnv, m: &Map2d<f64>) {
    h.u64(m.nx() as u64);
    h.u64(m.ny() as u64);
    for &v in m.as_slice() {
        h.f64(v);
    }
}

/// Every field of an evaluation report except its wall-clock time.
fn eval_hash(h: &mut Fnv, e: &EvalReport) {
    for v in [
        e.drwl,
        e.drvias,
        e.drvs,
        e.drv_overflow,
        e.drv_pin_access,
        e.drv_rail,
    ] {
        h.f64(v);
    }
    h.u64(e.overflowed_gcells as u64);
}

/// A small-scale scenario class, or a suite design by name.
fn named_design(name: &str) -> Design {
    scenario_by_name(name)
        .map(|s| s.build(Scale::Small))
        .or_else(|| generate_named(name))
        .expect("design")
}

/// Compares every `(label, hash)` against its golden and names each one
/// that drifted, so one run shows the whole picture.
fn assert_goldens(what: &str, got: &[(String, u64)], golden: &[(&str, u64)]) {
    assert_eq!(got.len(), golden.len(), "{what}: one golden per case");
    let drifted: Vec<String> = got
        .iter()
        .zip(golden)
        .filter(|((_, g), (_, w))| g != w)
        .map(|((label, g), (_, w))| format!("{label}: {g:#018x} (golden {w:#018x})"))
        .collect();
    for ((label, _), (want_label, _)) in got.iter().zip(golden) {
        assert_eq!(label, want_label, "{what}: case order");
    }
    assert!(
        drifted.is_empty(),
        "{what} drifted:\n{}",
        drifted.join("\n")
    );
}

/// The default router on every generated scenario class: demand,
/// capacity and congestion maps, wirelength and vias.
#[test]
fn global_route_maps_match_golden_hashes() {
    const GOLDEN: [(&str, u64); 8] = [
        ("baseline", 0xae507ed2f541fabc),
        ("macro_obstructed", 0xf3e9608fff0c9854),
        ("fpga_sites", 0x28684f33d250299f),
        ("high_rent", 0x7af4b8c5450d1b9c),
        ("near_full_util", 0xda30bf4bab7b41f7),
        ("pin_hotspots", 0x6191842e55e24918),
        ("single_row_core", 0xbc1f074f582eafa9),
        ("obstruction_maze", 0xbc34d02c02cc9fb5),
    ];
    let got: Vec<(String, u64)> = scenario_matrix()
        .iter()
        .filter(|s| s.params(Scale::Small).is_some())
        .map(|s| {
            let d = s.build(Scale::Small);
            let r = GlobalRouter::default().route(&d);
            let mut h = Fnv::new();
            for m in [
                &r.maps.h_demand,
                &r.maps.v_demand,
                &r.maps.via_demand,
                &r.maps.caps.h,
                &r.maps.caps.v,
                &r.congestion,
            ] {
                map_hash(&mut h, m);
            }
            h.f64(r.wirelength);
            h.f64(r.vias);
            (s.name.to_string(), h.0)
        })
        .collect();
    assert_goldens("routed maps", &got, &GOLDEN);
}

/// The evaluation router and DRV proxy after a short, legalized Xplace
/// flow.
#[test]
fn evaluation_reports_match_golden_hashes() {
    const GOLDEN: [(&str, u64); 4] = [
        ("baseline", 0xeab44c79fe4e7099),
        ("macro_obstructed", 0x436aebdae2ac0ede),
        ("pci_bridge32_a", 0xd1b61b50b69e5079),
        ("fft_1", 0xfebb0fc3900ed314),
    ];
    let got: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(name, _)| {
            let mut d = named_design(name);
            let cfg = RoutabilityConfig {
                gp: PlacerConfig {
                    max_iters: 60,
                    ..PlacerConfig::default()
                },
                ..RoutabilityConfig::preset(PlacerPreset::Xplace)
            };
            let flow = run_flow(&mut d, &cfg).expect("global placement");
            rdp::legalize_after_flow(&mut d, &flow, &Collector::disabled());
            let mut h = Fnv::new();
            eval_hash(&mut h, &evaluate(&d, &EvalConfig::default()));
            (name.to_string(), h.0)
        })
        .collect();
    assert_goldens("evaluation reports", &got, &GOLDEN);
}

/// The whole pipeline under the fast XplaceRoute and Ours presets:
/// positions, the routability log and the evaluation report.
#[test]
fn routability_presets_match_golden_hashes() {
    const GOLDEN: [(&str, u64); 4] = [
        ("baseline/xplace-route", 0xf44ebdd10673e9dc),
        ("baseline/ours", 0xfea2a0ac06ad6004),
        ("macro_obstructed/xplace-route", 0xf6db724d44d2abd4),
        ("macro_obstructed/ours", 0x7e3d2b9f047a9015),
    ];
    let mut got = Vec::new();
    for name in ["baseline", "macro_obstructed"] {
        for (label, preset) in [
            ("xplace-route", PlacerPreset::XplaceRoute),
            ("ours", PlacerPreset::Ours),
        ] {
            let mut d = named_design(name);
            let cfg = RoutabilityConfig::preset_fast(preset);
            let r =
                rdp::place_and_evaluate(&mut d, &cfg, &EvalConfig::default()).expect("pipeline");
            let mut h = Fnv(positions_hash(&d));
            h.u64(r.flow.gp_iterations as u64);
            h.u64(r.flow.route_iterations as u64);
            h.u64(r.flow.log.len() as u64);
            for l in &r.flow.log {
                h.u64(l.iter as u64);
                for v in [l.overflow, l.max_congestion, l.c_penalty, l.lambda2, l.hpwl] {
                    h.f64(v);
                }
                h.u64(l.virtual_cells as u64);
            }
            eval_hash(&mut h, &r.eval);
            got.push((format!("{name}/{label}"), h.0));
        }
    }
    assert_goldens("routability pipelines", &got, &GOLDEN);
}

/// PG-rail selection (Fig. 4) and the static DPA density it induces.
#[test]
fn pg_rail_selection_matches_golden_hashes() {
    const GOLDEN: [(&str, u64); 2] = [
        ("rails", 0x4f1e137031b85af6),
        ("density", 0x2d4994bdc80a31fa),
    ];
    let d = generate_named("matrix_mult_a").expect("suite design");
    let mut rails = Fnv::new();
    let selected = select_rails(&d);
    rails.u64(selected.len() as u64);
    for r in &selected {
        rails.u64(r.layer as u64);
        rails.u64(matches!(r.dir, Dir::Vertical) as u64);
        for v in [r.rect.lo.x, r.rect.lo.y, r.rect.hi.x, r.rect.hi.y] {
            rails.f64(v);
        }
    }
    let mut density = Fnv::new();
    let pg = PgDensity::new(&d, &d.gcell_grid());
    map_hash(&mut density, &pg.density_map(None));
    let got = vec![
        ("rails".to_string(), rails.0),
        ("density".to_string(), density.0),
    ];
    assert_goldens("PG-rail selection", &got, &GOLDEN);
}
