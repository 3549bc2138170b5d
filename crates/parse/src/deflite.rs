//! LEF/DEF-lite writer and reader.
//!
//! A dialect of the LEF/DEF pair, sufficient to carry everything the
//! routability flow needs. The reader reads this writer's output; it is
//! not a reader for standard LEF/DEF, and the ISPD 2015 benchmarks do not
//! load. Deliberate simplifications, documented here:
//!
//! * LEF `MACRO`s carry `CLASS`, `SIZE`, and optional `OBS` routing
//!   blockage geometry; one macro is emitted per distinct (class, w, h)
//!   combination. `OBS` rectangles are materialized per placed component.
//! * LEF `LAYER` blocks carry `DIRECTION` and `PITCH` for each routing
//!   layer of the stack.
//! * DEF `NETS` list `( <component> <dx> <dy> )` pin triples with offsets
//!   from the component **center** instead of LEF pin names.
//! * DEF `TRACKS` statements record the track grid (origin/count/step) per
//!   layer; the step doubles as the layer pitch when the LEF omits it.
//! * DEF `BLOCKAGES` entries carry standalone routing blockages.
//! * PG rails are written as `SPECIALNETS` wire rectangles on their layer.
//! * A nonstandard `GCELLGRID`/`LAYERCAP` pair records the routing grid
//!   and per-layer capacities (DEF has no capacity construct). When the
//!   DEF has no `LAYERCAP` entries the stack is reconstructed from the
//!   LEF `LAYER` blocks, with capacity estimated from the track pitch.
//!
//! Distances are DEF database units at `UNITS DISTANCE MICRONS 1000`, so
//! geometry round-trips to 1/1000 µm.
//!
//! What the reader cannot read: LEF `PIN`/`PORT` geometry and DEF nets
//! that name LEF pins (`( comp pin )`), nets split over several lines,
//! `ROW`s in any orientation but `N` or with another `DO … BY … STEP`
//! shape, `PINS`, and `SPECIALNETS` wiring other than one
//! `- PG M<k> H|V RECT …` rectangle per line. A `ROW` or rail line it
//! cannot read is a typed error with its line number, and so is a
//! `COMPONENTS`/`NETS`/`BLOCKAGES`/`SPECIALNETS` section whose entries do
//! not number what its header declares (a DEF that lost lines) and a DEF
//! without `END DESIGN` (a truncated file); a DEF without `GCELLGRID`
//! gets a 16×16 grid.

use std::collections::HashMap;

use rdp_db::{
    Cell, CellId, CellKind, Design, DesignBuilder, Dir, Obstruction, PgRail, Point, Rect,
    RoutingLayer, RoutingSpec, Row,
};

use crate::error::ParseDesignError;

const DBU: f64 = 1000.0;

/// A LEF-lite + DEF-lite pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LefDefFiles {
    /// The LEF-lite library (cell classes and sizes).
    pub lef: String,
    /// The DEF-lite design.
    pub def: String,
}

fn dbu(v: f64) -> i64 {
    (v * DBU).round() as i64
}

fn from_dbu(v: i64) -> f64 {
    v as f64 / DBU
}

/// Serializes a design to a LEF/DEF-lite pair.
pub fn write_lefdef(design: &Design) -> LefDefFiles {
    // Distinct cell types.
    let mut types: Vec<(CellKind, i64, i64)> = Vec::new();
    let mut type_of: Vec<usize> = Vec::with_capacity(design.num_cells());
    for c in design.cells() {
        let key = (c.kind, dbu(c.w), dbu(c.h));
        let idx = match types.iter().position(|t| *t == key) {
            Some(i) => i,
            None => {
                types.push(key);
                types.len() - 1
            }
        };
        type_of.push(idx);
    }

    let mut lef = String::from("VERSION 5.8 ;\nUNITS\n  DATABASE MICRONS 1000 ;\nEND UNITS\n");
    for l in &design.routing().layers {
        let dir = match l.dir {
            Dir::Horizontal => "HORIZONTAL",
            Dir::Vertical => "VERTICAL",
        };
        lef.push_str(&format!(
            "LAYER {}\n  TYPE ROUTING ;\n  DIRECTION {dir} ;\n",
            l.name
        ));
        if l.pitch > 0.0 {
            lef.push_str(&format!("  PITCH {} ;\n", l.pitch));
        }
        lef.push_str(&format!("END {}\n", l.name));
    }
    for (i, (kind, w, h)) in types.iter().enumerate() {
        let class = match kind {
            CellKind::Std => "CORE",
            CellKind::Macro => "BLOCK",
            CellKind::Terminal => "PAD",
        };
        lef.push_str(&format!(
            "MACRO T{i}\n  CLASS {class} ;\n  SIZE {} BY {} ;\nEND T{i}\n",
            from_dbu(*w),
            from_dbu(*h)
        ));
    }
    lef.push_str("END LIBRARY\n");

    let die = design.die();
    let mut def = String::new();
    def.push_str("VERSION 5.8 ;\n");
    def.push_str(&format!("DESIGN {} ;\n", design.name()));
    def.push_str("UNITS DISTANCE MICRONS 1000 ;\n");
    def.push_str(&format!(
        "DIEAREA ( {} {} ) ( {} {} ) ;\n",
        dbu(die.lo.x),
        dbu(die.lo.y),
        dbu(die.hi.x),
        dbu(die.hi.y)
    ));
    for (i, r) in design.rows().iter().enumerate() {
        def.push_str(&format!(
            "ROW row_{i} core {} {} N DO {} BY 1 STEP {} 0 ;\n",
            dbu(r.x0),
            dbu(r.y),
            r.num_sites(),
            dbu(r.site_w)
        ));
    }
    def.push_str(&format!(
        "GCELLGRID {} {} ;\n",
        design.routing().gx,
        design.routing().gy
    ));
    for l in &design.routing().layers {
        def.push_str(&format!("LAYERCAP {} {} {} ;\n", l.name, l.dir, l.capacity));
    }
    for l in &design.routing().layers {
        if l.pitch <= 0.0 {
            continue;
        }
        // Vertical wires run at x positions (TRACKS X), horizontal at y.
        let (axis, lo, hi) = match l.dir {
            Dir::Vertical => ("X", die.lo.x, die.hi.x),
            Dir::Horizontal => ("Y", die.lo.y, die.hi.y),
        };
        // Track count in integer dbu space, so a 1-ULP wiggle of the
        // micron values after a round-trip cannot change the count.
        let step = dbu(l.pitch).max(1);
        let n = ((dbu(hi) - dbu(lo)) / step).max(1);
        def.push_str(&format!(
            "TRACKS {axis} {} DO {n} STEP {step} LAYER {} ;\n",
            dbu(lo + l.pitch / 2.0),
            l.name
        ));
    }

    def.push_str(&format!("COMPONENTS {} ;\n", design.num_cells()));
    for (i, c) in design.cells().iter().enumerate() {
        let p = design.positions()[i];
        let ll = (dbu(p.x - c.w / 2.0), dbu(p.y - c.h / 2.0));
        let state = if c.fixed { "FIXED" } else { "PLACED" };
        def.push_str(&format!(
            "- {} T{} + {state} ( {} {} ) N ;\n",
            c.name, type_of[i], ll.0, ll.1
        ));
    }
    def.push_str("END COMPONENTS\n");

    def.push_str(&format!("NETS {} ;\n", design.num_nets()));
    for net in design.nets() {
        def.push_str(&format!("- {}", net.name));
        for &p in &net.pins {
            let pin = design.pin(p);
            def.push_str(&format!(
                " ( {} {} {} )",
                design.cell(pin.cell).name,
                dbu(pin.offset.x),
                dbu(pin.offset.y)
            ));
        }
        def.push_str(" ;\n");
    }
    def.push_str("END NETS\n");

    if !design.obstructions().is_empty() {
        def.push_str(&format!("BLOCKAGES {} ;\n", design.obstructions().len()));
        for o in design.obstructions() {
            let lname = design
                .routing()
                .layers
                .get(o.layer as usize)
                .map(|l| l.name.clone())
                .unwrap_or_else(|| format!("M{}", o.layer + 1));
            def.push_str(&format!(
                "- LAYER {lname} RECT ( {} {} ) ( {} {} ) ;\n",
                dbu(o.rect.lo.x),
                dbu(o.rect.lo.y),
                dbu(o.rect.hi.x),
                dbu(o.rect.hi.y)
            ));
        }
        def.push_str("END BLOCKAGES\n");
    }

    def.push_str(&format!("SPECIALNETS {} ;\n", design.rails().len()));
    for r in design.rails() {
        def.push_str(&format!(
            "- PG M{} {} RECT ( {} {} ) ( {} {} ) ;\n",
            r.layer + 1,
            r.dir,
            dbu(r.rect.lo.x),
            dbu(r.rect.lo.y),
            dbu(r.rect.hi.x),
            dbu(r.rect.hi.y)
        ));
    }
    def.push_str("END SPECIALNETS\nEND DESIGN\n");

    LefDefFiles { lef, def }
}

/// Parses a LEF/DEF-lite pair back into a design.
///
/// # Errors
///
/// Returns [`ParseDesignError`] on malformed content or dangling
/// references.
pub fn read_lefdef(files: &LefDefFiles) -> Result<Design, ParseDesignError> {
    read_lefdef_obs(files, &rdp_obs::Collector::disabled())
}

/// [`read_lefdef`] with parsing timed under a `parse_lefdef` span, so
/// `--profile` covers input parsing too.
///
/// # Errors
///
/// Same as [`read_lefdef`].
pub fn read_lefdef_obs(
    files: &LefDefFiles,
    obs: &rdp_obs::Collector,
) -> Result<Design, ParseDesignError> {
    let _span = obs.span("parse_lefdef", "parse");
    // --- LEF: layer stack + cell types -----------------------------------
    // Names stay borrowed from the input text until a cell, net or layer
    // of the design needs its owned copy, and every line is split into
    // one reused token buffer.
    struct TypeRec<'a> {
        kind: CellKind,
        w: f64,
        h: f64,
        /// OBS rectangles (layer name, rect relative to the macro's
        /// lower-left corner), materialized per placed component.
        obs: Vec<(&'a str, Rect)>,
    }
    /// A LEF `LAYER` block: direction + pitch, capacity unknown.
    struct LayerRec<'a> {
        name: &'a str,
        dir: Dir,
        pitch: f64,
    }
    let mut toks: Vec<&str> = Vec::new();
    let mut types: HashMap<&str, TypeRec> = HashMap::new();
    let mut lef_layers: Vec<LayerRec> = Vec::new();
    let mut cur: Option<&str> = None;
    let mut cur_layer: Option<usize> = None; // index into lef_layers
    let mut in_obs = false;
    let mut obs_layer: Option<&str> = None;
    for (ln, line) in files.lef.lines().enumerate() {
        toks.clear();
        toks.extend(line.split_whitespace());
        match toks.as_slice() {
            ["MACRO", name] => {
                if types.contains_key(*name) {
                    return Err(ParseDesignError::new(
                        "lef",
                        Some(ln + 1),
                        format!("duplicate macro `{name}`"),
                    ));
                }
                cur = Some(name);
                types.insert(
                    name,
                    TypeRec {
                        kind: CellKind::Std,
                        w: 0.0,
                        h: 0.0,
                        obs: Vec::new(),
                    },
                );
            }
            ["LAYER", name] if cur.is_none() => {
                if lef_layers.iter().any(|l| l.name == *name) {
                    return Err(ParseDesignError::new(
                        "lef",
                        Some(ln + 1),
                        format!("duplicate layer `{name}`"),
                    ));
                }
                lef_layers.push(LayerRec {
                    name,
                    dir: if lef_layers.len() % 2 == 0 {
                        Dir::Horizontal
                    } else {
                        Dir::Vertical
                    },
                    pitch: 0.0,
                });
                cur_layer = Some(lef_layers.len() - 1);
            }
            ["DIRECTION", dir, ";"] => {
                if let Some(i) = cur_layer {
                    lef_layers[i].dir = match *dir {
                        "HORIZONTAL" => Dir::Horizontal,
                        "VERTICAL" => Dir::Vertical,
                        other => {
                            return Err(ParseDesignError::new(
                                "lef",
                                Some(ln + 1),
                                format!("unknown direction `{other}`"),
                            ))
                        }
                    };
                }
            }
            ["PITCH", p, ";"] => {
                if let Some(i) = cur_layer {
                    let pitch = num("lef", ln, p)?;
                    if pitch < 0.0 {
                        return Err(ParseDesignError::new(
                            "lef",
                            Some(ln + 1),
                            format!("negative pitch `{p}`"),
                        ));
                    }
                    lef_layers[i].pitch = pitch;
                }
            }
            ["CLASS", class, ";"] => {
                if let Some(name) = cur {
                    let rec = types.get_mut(name).ok_or_else(|| {
                        ParseDesignError::new("lef", Some(ln + 1), "CLASS outside MACRO")
                    })?;
                    rec.kind = match *class {
                        "CORE" => CellKind::Std,
                        "BLOCK" => CellKind::Macro,
                        "PAD" => CellKind::Terminal,
                        other => {
                            return Err(ParseDesignError::new(
                                "lef",
                                Some(ln + 1),
                                format!("unknown class `{other}`"),
                            ))
                        }
                    };
                }
            }
            ["SIZE", w, "BY", h, ";"] => {
                if let Some(name) = cur {
                    let rec = types.get_mut(name).ok_or_else(|| {
                        ParseDesignError::new("lef", Some(ln + 1), "SIZE outside MACRO")
                    })?;
                    rec.w = num("lef", ln, w)?;
                    rec.h = num("lef", ln, h)?;
                }
            }
            ["OBS"] if cur.is_some() => {
                in_obs = true;
                obs_layer = None;
            }
            ["LAYER", name, ";"] if in_obs => obs_layer = Some(name),
            ["RECT", a, b, c, d, ";"] if in_obs => {
                let name = cur.expect("OBS implies a current macro");
                let layer = obs_layer.ok_or_else(|| {
                    ParseDesignError::new("lef", Some(ln + 1), "OBS RECT before LAYER")
                })?;
                let rect = rect(
                    "lef",
                    ln,
                    num("lef", ln, a)?,
                    num("lef", ln, b)?,
                    num("lef", ln, c)?,
                    num("lef", ln, d)?,
                )?;
                types
                    .get_mut(name)
                    .ok_or_else(|| {
                        ParseDesignError::new("lef", Some(ln + 1), "RECT outside MACRO")
                    })?
                    .obs
                    .push((layer, rect));
            }
            ["END"] if in_obs => {
                in_obs = false;
                obs_layer = None;
            }
            ["END", name] if Some(*name) == cur => {
                cur = None;
                in_obs = false;
            }
            ["END", name] if cur_layer.is_some_and(|i| lef_layers[i].name == *name) => {
                cur_layer = None;
            }
            _ => {}
        }
    }

    // --- DEF --------------------------------------------------------------
    let mut design_name = "design";
    let mut die: Option<Rect> = None;
    let mut rows: Vec<Row> = Vec::new();
    let mut gx = 16usize;
    let mut gy = 16usize;
    let mut layers: Vec<RoutingLayer> = Vec::new();
    let mut comps: Vec<(&str, &str, Point, bool)> = Vec::new(); // name, type, ll(µm), fixed
    let mut comp_index: HashMap<&str, usize> = HashMap::new(); // name -> index into `comps`
    let mut net_pins: Vec<(&str, Point)> = Vec::new(); // every net's (component, offset) pins
    let mut nets: Vec<(&str, std::ops::Range<usize>)> = Vec::new(); // name, range in `net_pins`
    let mut rails: Vec<PgRail> = Vec::new();
    let mut tracks: Vec<(&str, f64)> = Vec::new(); // layer name, step (µm)
    let mut blockages: Vec<(&str, Rect, usize)> = Vec::new(); // layer name, rect, line

    // The open section: its keyword, the entry count its header declares
    // and the header's line. `read` counts its `- ` entry lines.
    let mut section: (&str, usize, usize) = ("", 0, 0);
    let mut read = 0usize;
    let close = |(kw, declared, header): (&str, usize, usize), read: usize| {
        if kw.is_empty() || declared == read {
            return Ok(());
        }
        Err(ParseDesignError::new(
            "def",
            Some(header + 1),
            format!("{kw} declares {declared} entries but {read} follow"),
        ))
    };
    let mut ended = false;

    for (ln, line) in files.def.lines().enumerate() {
        toks.clear();
        toks.extend(line.split_whitespace());
        read += usize::from(line.starts_with('-'));
        match toks.as_slice() {
            ["DESIGN", name, ";"] => design_name = name,
            ["DIEAREA", "(", a, b, ")", "(", c, d, ")", ";"] => {
                die = Some(rect(
                    "def",
                    ln,
                    from_dbu(int("def", ln, a)?),
                    from_dbu(int("def", ln, b)?),
                    from_dbu(int("def", ln, c)?),
                    from_dbu(int("def", ln, d)?),
                )?);
            }
            ["ROW", _name, _site, x, y, "N", "DO", n, "BY", "1", "STEP", sw, "0", ";"] => {
                let x0 = from_dbu(int("def", ln, x)?);
                let site_w = from_dbu(int("def", ln, sw)?);
                let sites: usize = n
                    .parse()
                    .map_err(|_| ParseDesignError::new("def", Some(ln + 1), "bad site count"))?;
                rows.push(Row {
                    y: from_dbu(int("def", ln, y)?),
                    height: 0.0, // filled below from the row pitch
                    x0,
                    x1: x0 + sites as f64 * site_w,
                    site_w,
                });
            }
            ["ROW", ..] => {
                return Err(ParseDesignError::new(
                    "def",
                    Some(ln + 1),
                    "unsupported ROW form (expected `ROW name site x y N DO n BY 1 STEP w 0 ;`)",
                ))
            }
            ["GCELLGRID", a, b, ";"] => {
                gx = a
                    .parse()
                    .map_err(|_| ParseDesignError::new("def", Some(ln + 1), "bad gcell x"))?;
                gy = b
                    .parse()
                    .map_err(|_| ParseDesignError::new("def", Some(ln + 1), "bad gcell y"))?;
            }
            ["LAYERCAP", name, dir, cap, ";"] => layers.push(RoutingLayer {
                name: (*name).to_string(),
                dir: match *dir {
                    "H" => Dir::Horizontal,
                    "V" => Dir::Vertical,
                    other => {
                        return Err(ParseDesignError::new(
                            "def",
                            Some(ln + 1),
                            format!("bad dir `{other}`"),
                        ))
                    }
                },
                capacity: num("def", ln, cap)?,
                pitch: 0.0, // filled from LEF LAYER / DEF TRACKS below
            }),
            ["TRACKS", axis, _start, "DO", n, "STEP", step, "LAYER", name, ";"] => {
                if *axis != "X" && *axis != "Y" {
                    return Err(ParseDesignError::new(
                        "def",
                        Some(ln + 1),
                        format!("bad tracks axis `{axis}`"),
                    ));
                }
                let count: i64 = int("def", ln, n)?;
                if count <= 0 {
                    return Err(ParseDesignError::new(
                        "def",
                        Some(ln + 1),
                        "bad track count",
                    ));
                }
                tracks.push((name, from_dbu(int("def", ln, step)?)));
            }
            [kw @ ("COMPONENTS" | "NETS" | "BLOCKAGES" | "SPECIALNETS"), n, ";"] => {
                close(section, read)?;
                let declared = usize::try_from(int("def", ln, n)?).map_err(|_| {
                    ParseDesignError::new("def", Some(ln + 1), format!("bad {kw} count `{n}`"))
                })?;
                section = (kw, declared, ln);
                read = 0;
            }
            ["COMPONENTS" | "NETS" | "BLOCKAGES" | "SPECIALNETS", ..] => {
                return Err(ParseDesignError::new(
                    "def",
                    Some(ln + 1),
                    format!("malformed section header (expected `{} n ;`)", toks[0]),
                ))
            }
            ["END", rest @ ..] => {
                close(section, read)?;
                section = ("", 0, 0);
                ended |= rest == ["DESIGN"];
            }
            _ if line.starts_with('-') => match section.0 {
                "COMPONENTS" => {
                    // - name Tk + STATE ( x y ) N ;
                    if toks.len() < 10 {
                        return Err(ParseDesignError::new(
                            "def",
                            Some(ln + 1),
                            "short component line",
                        ));
                    }
                    // - name Tk + STATE ( x y ) N ;
                    if comp_index.insert(toks[1], comps.len()).is_some() {
                        return Err(ParseDesignError::new(
                            "def",
                            Some(ln + 1),
                            format!("duplicate component `{}`", toks[1]),
                        ));
                    }
                    let fixed = toks[4] == "FIXED";
                    comps.push((
                        toks[1],
                        toks[2],
                        Point::new(
                            from_dbu(int("def", ln, toks[6])?),
                            from_dbu(int("def", ln, toks[7])?),
                        ),
                        fixed,
                    ));
                }
                "NETS" => {
                    // - name ( comp dx dy ) ... ;
                    if toks.len() < 2 {
                        return Err(ParseDesignError::new("def", Some(ln + 1), "short net line"));
                    }
                    let start = net_pins.len();
                    let mut i = 2;
                    while i + 4 < toks.len() {
                        if toks[i] == "(" {
                            net_pins.push((
                                toks[i + 1],
                                Point::new(
                                    from_dbu(int("def", ln, toks[i + 2])?),
                                    from_dbu(int("def", ln, toks[i + 3])?),
                                ),
                            ));
                            i += 5;
                        } else {
                            i += 1;
                        }
                    }
                    nets.push((toks[1], start..net_pins.len()));
                }
                "BLOCKAGES" => {
                    // - LAYER <name> RECT ( a b ) ( c d ) ;
                    match toks.as_slice() {
                        ["-", "LAYER", name, "RECT", "(", a, b, ")", "(", c, d, ")", ";"] => {
                            blockages.push((
                                name,
                                rect(
                                    "def",
                                    ln,
                                    from_dbu(int("def", ln, a)?),
                                    from_dbu(int("def", ln, b)?),
                                    from_dbu(int("def", ln, c)?),
                                    from_dbu(int("def", ln, d)?),
                                )?,
                                ln,
                            ));
                        }
                        _ => {
                            return Err(ParseDesignError::new(
                                "def",
                                Some(ln + 1),
                                "malformed blockage line",
                            ))
                        }
                    }
                }
                "SPECIALNETS" => {
                    // - PG M<k> <dir> RECT ( a b ) ( c d ) ;
                    if toks.len() < 13 {
                        return Err(ParseDesignError::new(
                            "def",
                            Some(ln + 1),
                            "short rail line",
                        ));
                    }
                    let layer: u8 = toks[2]
                        .trim_start_matches('M')
                        .parse::<u8>()
                        .ok()
                        .and_then(|m| m.checked_sub(1))
                        .ok_or_else(|| {
                            ParseDesignError::new("def", Some(ln + 1), "bad rail layer")
                        })?;
                    let dir = match toks[3] {
                        "H" => Dir::Horizontal,
                        "V" => Dir::Vertical,
                        other => {
                            return Err(ParseDesignError::new(
                                "def",
                                Some(ln + 1),
                                format!("bad rail dir `{other}`"),
                            ))
                        }
                    };
                    rails.push(PgRail {
                        layer,
                        dir,
                        rect: rect(
                            "def",
                            ln,
                            from_dbu(int("def", ln, toks[6])?),
                            from_dbu(int("def", ln, toks[7])?),
                            from_dbu(int("def", ln, toks[10])?),
                            from_dbu(int("def", ln, toks[11])?),
                        )?,
                    });
                }
                _ => {}
            },
            _ => {}
        }
    }

    let die = die.ok_or_else(|| ParseDesignError::new("def", None, "missing DIEAREA"))?;
    // A DEF cut short anywhere would otherwise load as a smaller design.
    if !ended {
        return Err(ParseDesignError::new(
            "def",
            None,
            "missing END DESIGN (truncated file?)",
        ));
    }

    // Row height = pitch between consecutive rows (or a default).
    let height = if rows.len() >= 2 {
        (rows[1].y - rows[0].y).abs()
    } else {
        2.0
    };
    for r in &mut rows {
        r.height = height;
    }

    // --- Layer stack: LAYERCAP (authoritative), pitch from LEF/TRACKS ----
    if layers.is_empty() {
        // No LAYERCAP: reconstruct the stack from the LEF LAYER blocks,
        // estimating capacity as tracks-per-G-cell from the pitch.
        if lef_layers.is_empty() {
            return Err(ParseDesignError::new(
                "def",
                None,
                "no LAYERCAP entries and no LEF LAYER blocks",
            ));
        }
        const DEFAULT_CAPACITY: f64 = 10.0;
        for l in lef_layers.iter() {
            let pitch = if l.pitch > 0.0 {
                l.pitch
            } else {
                tracks
                    .iter()
                    .find(|(n, _)| *n == l.name)
                    .map(|(_, s)| *s)
                    .unwrap_or(0.0)
            };
            let gcell_extent = match l.dir {
                Dir::Horizontal => die.height() / gy.max(1) as f64,
                Dir::Vertical => die.width() / gx.max(1) as f64,
            };
            let capacity = if pitch > 0.0 && gcell_extent.is_finite() {
                (gcell_extent / pitch).max(1.0)
            } else {
                DEFAULT_CAPACITY
            };
            layers.push(RoutingLayer {
                name: l.name.to_string(),
                dir: l.dir,
                capacity,
                pitch,
            });
        }
    } else {
        for l in layers.iter_mut() {
            if let Some(rec) = lef_layers.iter().find(|r| r.name == l.name) {
                l.pitch = rec.pitch;
            }
            if l.pitch <= 0.0 {
                if let Some((_, step)) = tracks.iter().find(|(n, _)| *n == l.name) {
                    l.pitch = *step;
                }
            }
        }
    }

    // Resolves a layer name against the final stack; `M<k>` names fall
    // back to a 1-based index so blockages above the stack stay loadable.
    let layer_index = |name: &str, ln: Option<usize>| -> Result<u8, ParseDesignError> {
        if let Some(i) = layers.iter().position(|l| l.name == name) {
            return u8::try_from(i)
                .map_err(|_| ParseDesignError::new("def", ln, "layer index overflow"));
        }
        name.strip_prefix('M')
            .and_then(|k| k.parse::<u8>().ok())
            .and_then(|k| k.checked_sub(1))
            .ok_or_else(|| {
                ParseDesignError::new("def", ln, format!("unknown blockage layer `{name}`"))
            })
    };

    let mut b = DesignBuilder::new(design_name, die);
    let mut ids: Vec<CellId> = Vec::with_capacity(comps.len());
    for (name, ty, ll, fixed) in comps {
        let rec = types
            .get(ty)
            .ok_or_else(|| ParseDesignError::new("def", None, format!("unknown type `{ty}`")))?;
        let center = Point::new(ll.x + rec.w / 2.0, ll.y + rec.h / 2.0);
        // Materialize the macro's OBS geometry at this placement.
        for (lname, r) in &rec.obs {
            b.add_obstruction(Obstruction {
                layer: layer_index(lname, None)?,
                rect: Rect::new(ll.x + r.lo.x, ll.y + r.lo.y, ll.x + r.hi.x, ll.y + r.hi.y),
            });
        }
        let cell = Cell {
            name: name.to_string(),
            kind: rec.kind,
            w: rec.w,
            h: rec.h,
            fixed,
        };
        ids.push(b.add_cell(cell, center));
    }
    for (lname, rect, ln) in blockages {
        b.add_obstruction(Obstruction {
            layer: layer_index(lname, Some(ln + 1))?,
            rect,
        });
    }
    for (name, range) in nets {
        let mut resolved = Vec::with_capacity(range.len());
        for &(comp, off) in &net_pins[range] {
            let k = *comp_index.get(comp).ok_or_else(|| {
                ParseDesignError::new("def", None, format!("net `{name}` references `{comp}`"))
            })?;
            resolved.push((ids[k], off));
        }
        b.add_net(name, resolved);
    }
    for r in rows {
        b.add_row(r);
    }
    for r in rails {
        b.add_rail(r);
    }
    b.routing(RoutingSpec { layers, gx, gy });
    b.build()
        .map_err(|e| ParseDesignError::new("build", None, e.to_string()))
}

/// Builds a [`Rect`] with a typed error (instead of the debug-build panic
/// in [`Rect::new`]) when the coordinates are inverted or non-finite.
fn rect(
    ctx: &str,
    line: usize,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
) -> Result<Rect, ParseDesignError> {
    let finite = x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite();
    if !finite || x0 > x1 || y0 > y1 {
        return Err(ParseDesignError::new(
            ctx,
            Some(line + 1),
            format!("malformed rect ( {x0} {y0} ) ( {x1} {y1} )"),
        ));
    }
    Ok(Rect::new(x0, y0, x1, y1))
}

fn num(ctx: &str, line: usize, tok: &str) -> Result<f64, ParseDesignError> {
    let v: f64 = tok
        .parse()
        .map_err(|_| ParseDesignError::new(ctx, Some(line + 1), format!("bad number `{tok}`")))?;
    if !v.is_finite() {
        return Err(ParseDesignError::new(
            ctx,
            Some(line + 1),
            format!("non-finite number `{tok}`"),
        ));
    }
    Ok(v)
}

fn int(ctx: &str, line: usize, tok: &str) -> Result<i64, ParseDesignError> {
    tok.parse()
        .map_err(|_| ParseDesignError::new(ctx, Some(line + 1), format!("bad integer `{tok}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_gen::{generate, GenParams};

    fn sample() -> Design {
        generate(
            "ld",
            &GenParams {
                num_cells: 100,
                num_macros: 2,
                macro_fraction: 0.15,
                utilization: 0.5,
                io_terminals: 4,
                rail_pitch: 1.0,
                seed: 33,
                ..GenParams::default()
            },
        )
    }

    #[test]
    fn roundtrip_counts_and_structure() {
        let d = sample();
        let back = read_lefdef(&write_lefdef(&d)).expect("parse");
        assert_eq!(back.num_cells(), d.num_cells());
        assert_eq!(back.num_nets(), d.num_nets());
        assert_eq!(back.num_pins(), d.num_pins());
        assert_eq!(back.rails().len(), d.rails().len());
        assert_eq!(back.rows().len(), d.rows().len());
        assert_eq!(back.routing().gx, d.routing().gx);
        assert_eq!(back.routing().num_layers(), d.routing().num_layers());
    }

    #[test]
    fn roundtrip_geometry_within_dbu() {
        let d = sample();
        let back = read_lefdef(&write_lefdef(&d)).unwrap();
        for i in 0..d.num_cells() {
            let a = d.positions()[i];
            let b = back.positions()[i];
            assert!(a.distance(b) < 2e-3, "cell {i}: {a} vs {b}");
        }
        assert!((back.hpwl() - d.hpwl()).abs() / d.hpwl().max(1.0) < 1e-3);
    }

    #[test]
    fn roundtrip_kinds() {
        let d = sample();
        let back = read_lefdef(&write_lefdef(&d)).unwrap();
        for (a, b) in d.cells().iter().zip(back.cells()) {
            assert_eq!(a.kind, b.kind, "{}", a.name);
            assert_eq!(a.fixed, b.fixed, "{}", a.name);
        }
    }

    #[test]
    fn missing_diearea_is_error() {
        let d = sample();
        let mut files = write_lefdef(&d);
        files.def = files
            .def
            .lines()
            .filter(|l| !l.starts_with("DIEAREA"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(read_lefdef(&files).is_err());
    }

    #[test]
    fn unknown_component_type_is_error() {
        let d = sample();
        let mut files = write_lefdef(&d);
        files.lef = files.lef.replace("MACRO T0", "MACRO TX");
        // T0 components now reference a missing type — but only if TX
        // didn't leave an END mismatch; rebuild minimal check:
        let err = read_lefdef(&files);
        assert!(err.is_err());
    }
}
