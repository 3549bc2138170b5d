//! SVG rendering of placements and congestion maps.
//!
//! Produces self-contained SVG documents for design inspection: die
//! outline, macros, standard cells, PG rails, terminals, and an optional
//! congestion heat overlay. Used by the `rdp render` CLI command and
//! handy in notebooks/docs.

use rdp_db::{CellKind, Design, Map2d};

/// Output image width in pixels (the height follows the die aspect).
const WIDTH_PX: f64 = 900.0;

/// Renders the design to an SVG string, with `congestion` (a map on the
/// design's G-cell grid) drawn as a translucent heat overlay when given.
///
/// ```
/// use rdp::gen::{generate, GenParams};
/// use rdp::render::render_svg;
///
/// let design = generate("svg", &GenParams { num_cells: 50, ..GenParams::default() });
/// let svg = render_svg(&design, None);
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("</svg>"));
/// ```
pub fn render_svg(design: &Design, congestion: Option<&Map2d<f64>>) -> String {
    let die = design.die();
    let scale = WIDTH_PX / die.width();
    let h_px = die.height() * scale;
    // SVG y grows downward; flip so the die's y-up convention is kept.
    let tx = |x: f64| (x - die.lo.x) * scale;
    let ty = |y: f64| h_px - (y - die.lo.y) * scale;

    let mut svg = String::with_capacity(1 << 16);
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
         viewBox=\"0 0 {:.0} {:.0}\">\n",
        WIDTH_PX, h_px, WIDTH_PX, h_px
    ));
    svg.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#fcfcf8\" stroke=\"#333\"/>\n",
        WIDTH_PX, h_px
    ));

    // Congestion heat overlay (under the cells).
    if let Some(cmap) = congestion {
        let grid = design.gcell_grid();
        if cmap.nx() == grid.nx() && cmap.ny() == grid.ny() {
            let hi = cmap.max().max(1e-9);
            for (ix, iy, &c) in cmap.iter_coords() {
                if c <= 0.0 {
                    continue;
                }
                let r = grid.bin_rect(ix, iy);
                let alpha = (c / hi * 0.6).min(0.6);
                svg.push_str(&format!(
                    "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                     fill=\"#e03020\" fill-opacity=\"{:.2}\"/>\n",
                    tx(r.lo.x),
                    ty(r.hi.y),
                    r.width() * scale,
                    r.height() * scale,
                    alpha
                ));
            }
        }
    }

    // Cells.
    for (i, cell) in design.cells().iter().enumerate() {
        if cell.kind == CellKind::Terminal {
            continue;
        }
        let r = design.cell_rect(rdp_db::CellId::from_index(i));
        let (fill, stroke) = match cell.kind {
            CellKind::Macro => ("#5b7aa9", "#2d4a75"),
            _ => ("#9fc2e8", "#6b90b8"),
        };
        svg.push_str(&format!(
            "<rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
             fill=\"{fill}\" fill-opacity=\"0.8\" stroke=\"{stroke}\" stroke-width=\"0.3\"/>\n",
            tx(r.lo.x),
            ty(r.hi.y),
            r.width() * scale,
            r.height() * scale
        ));
    }

    // PG rails.
    for rail in design.rails() {
        let r = rail.rect;
        svg.push_str(&format!(
            "<rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
             fill=\"#8b4bb8\" fill-opacity=\"0.55\"/>\n",
            tx(r.lo.x),
            ty(r.hi.y),
            (r.width() * scale).max(0.8),
            (r.height() * scale).max(0.8)
        ));
    }

    // Terminals as dots on the boundary.
    for (i, cell) in design.cells().iter().enumerate() {
        if cell.kind != CellKind::Terminal {
            continue;
        }
        let p = design.positions()[i];
        svg.push_str(&format!(
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"#333\"/>\n",
            tx(p.x),
            ty(p.y)
        ));
    }

    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_gen::{generate, GenParams};

    fn design() -> Design {
        generate(
            "svg",
            &GenParams {
                num_cells: 80,
                num_macros: 1,
                macro_fraction: 0.1,
                utilization: 0.5,
                rail_pitch: 1.0,
                io_terminals: 4,
                seed: 4,
                ..GenParams::default()
            },
        )
    }

    #[test]
    fn svg_contains_all_layers() {
        let d = design();
        let svg = render_svg(&d, None);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // macro fill color present
        assert!(svg.contains("#5b7aa9"));
        // std cell fill
        assert!(svg.contains("#9fc2e8"));
        // rails
        assert!(svg.contains("#8b4bb8"));
        // terminals
        assert!(svg.contains("<circle"));
        // balanced tags: every <rect is self-closed
        assert_eq!(svg.matches("<svg").count(), 1);
    }

    #[test]
    fn congestion_overlay_rendered_when_dims_match() {
        let d = design();
        let route = rdp_route::GlobalRouter::default().route(&d);
        let svg = render_svg(&d, Some(&route.congestion));
        // The overlay color appears iff some congestion exists.
        if route.congestion.max() > 0.0 {
            assert!(svg.contains("#e03020"));
        }
    }

    #[test]
    fn element_count_scales_with_cells() {
        let d = design();
        let svg = render_svg(&d, None);
        let rects = svg.matches("<rect").count();
        // background + 80 std cells + 1 macro + rails
        assert!(rects > 80, "{rects}");
    }
}
