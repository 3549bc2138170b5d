//! Regenerates **Fig. 4**: PG-rail selection for density adjustment on
//! the `matrix_mult_a` design — all rails before selection (a), then the
//! surviving rail pieces after cutting by 10 %-expanded macro bounding
//! boxes and the 0.2×extent length filter (b).
//!
//! ```sh
//! cargo run --release -p rdp-bench --bin fig4
//! ```

use rdp_core::{select_rails, PG_MACRO_EXPAND, PG_MIN_LENGTH_FRACTION};
use rdp_db::{Dir, Map2d};

fn main() {
    let design = rdp_gen::generate_named("matrix_mult_a").expect("suite design");
    let die = design.die();
    println!(
        "design `matrix_mult_a`: die {:.0}×{:.0} um, {} macros, {} PG rails (M2, vertical)",
        die.width(),
        die.height(),
        design.macros().count(),
        design.rails().len()
    );

    let selected = select_rails(&design);
    let min_len = PG_MIN_LENGTH_FRACTION * die.height();
    println!(
        "macro boxes expanded by {:.0}%; surviving pieces must be ≥ {:.1} um ({}% of die height)",
        PG_MACRO_EXPAND * 100.0,
        min_len,
        (PG_MIN_LENGTH_FRACTION * 100.0) as u32
    );
    println!(
        "(a) rails before selection: {}   (b) selected pieces: {}\n",
        design.rails().len(),
        selected.len()
    );

    // ASCII rendering: macros as '#', original rails as '.', selected
    // pieces as '|'.
    let (w, h) = (64usize, 32usize);
    let mut canvas = Map2d::<f64>::new(w, h);
    let to_cell = |x: f64, y: f64| -> (usize, usize) {
        (
            ((x - die.lo.x) / die.width() * w as f64).min(w as f64 - 1.0) as usize,
            ((y - die.lo.y) / die.height() * h as f64).min(h as f64 - 1.0) as usize,
        )
    };
    for rail in design.rails() {
        let (cx, _) = to_cell(rail.rect.center().x, 0.0);
        for cy in 0..h {
            if canvas[(cx, cy)] == 0.0 {
                canvas[(cx, cy)] = 1.0;
            }
        }
    }
    for piece in &selected {
        debug_assert_eq!(piece.dir, Dir::Vertical);
        let (cx, y0) = to_cell(piece.rect.center().x, piece.rect.lo.y);
        let (_, y1) = to_cell(piece.rect.center().x, piece.rect.hi.y);
        for cy in y0..=y1 {
            canvas[(cx, cy)] = 2.0;
        }
    }
    for m in design.macros() {
        let r = design.cell_rect(m);
        let (x0, y0) = to_cell(r.lo.x, r.lo.y);
        let (x1, y1) = to_cell(r.hi.x, r.hi.y);
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                canvas[(cx, cy)] = 3.0;
            }
        }
    }
    let glyph = |v: f64| match v as u32 {
        0 => ' ',
        1 => '.',
        2 => '|',
        _ => '#',
    };
    for cy in (0..h).rev() {
        let line: String = (0..w).map(|cx| glyph(canvas[(cx, cy)])).collect();
        println!("{line}");
    }
    println!("\nlegend: '#' macro, '|' selected rail piece, '.' unselected rail span");

    // Summary per rail: how many pieces survived.
    let total_len: f64 = design.rails().iter().map(|r| r.length()).sum();
    let kept_len: f64 = selected.iter().map(|r| r.length()).sum();
    println!(
        "rail length kept for density adjustment: {:.0} of {:.0} um ({:.0}%)",
        kept_len,
        total_len,
        kept_len / total_len * 100.0
    );
}
