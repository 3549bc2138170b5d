//! Tetris-style row assignment followed by Abacus-style in-row placement.
//!
//! The paper's flow hands the routability-optimized global placement to
//! the legalization + detailed placement of Xplace-Route; this module is
//! our equivalent. Cells are greedily assigned to row segments in order
//! of their global x (Tetris), then each segment's cells are placed at
//! minimum weighted squared displacement without overlap (Abacus
//! clustering), and finally snapped to the site grid.

use crate::segments::{build_segments, Segment};
use rdp_db::{CellId, Design, Point};
use rdp_obs::Collector;

/// Configuration for [`legalize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalizeConfig {
    /// Initial row search window (rows above/below the cell's position).
    pub row_window: usize,
}

impl Default for LegalizeConfig {
    fn default() -> Self {
        LegalizeConfig { row_window: 16 }
    }
}

/// Outcome statistics of a legalization run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LegalizeReport {
    /// Largest cell displacement (microns).
    pub max_displacement: f64,
    /// Mean cell displacement (microns).
    pub avg_displacement: f64,
    /// Cells that could not be placed in any segment (left at their
    /// global position; should be zero for any sane utilization).
    pub failed: usize,
}

struct SegState {
    seg: Segment,
    /// Total width of cells assigned so far.
    used: f64,
    /// (cell, desired center x) in placement order.
    cells: Vec<(CellId, f64)>,
}

/// Legalizes all movable cells of the design in place.
///
/// Positions after this call are: inside the die, vertically centered in a
/// row, horizontally non-overlapping and site-aligned within each row
/// segment, and outside macro footprints.
pub fn legalize(design: &mut Design, cfg: &LegalizeConfig) -> LegalizeReport {
    legalize_obs(design, cfg, &Collector::disabled())
}

/// [`legalize`] with a `"legalize"` span recorded on `obs`; the report's
/// `failed` count is added to the `legalize_failed` counter.
pub fn legalize_obs(design: &mut Design, cfg: &LegalizeConfig, obs: &Collector) -> LegalizeReport {
    let _span = obs.span("legalize", "legal");
    let report = legalize_impl(design, cfg, None);
    obs.counter_add("legalize_failed", report.failed as u64);
    report
}

/// Routability-driven legalization: cells are legalized using **virtual
/// widths** (typically the inflated widths the routability-driven global
/// placement spread them by), then centered in their virtual slots. The
/// extra spacing that mitigates congestion survives legalization; real
/// footprints are strictly inside the virtual ones, so the result is
/// legal for the real widths too.
///
/// Falls back to plain [`legalize`] when the virtual widths do not fit
/// (e.g. a pathological ratio set on a full die).
///
/// # Panics
///
/// Panics if `virtual_widths.len() != design.num_cells()`.
pub fn legalize_virtual(
    design: &mut Design,
    cfg: &LegalizeConfig,
    virtual_widths: &[f64],
) -> LegalizeReport {
    legalize_virtual_obs(design, cfg, virtual_widths, &Collector::disabled())
}

/// [`legalize_virtual`] with a `"legalize"` span recorded on `obs`. A
/// `"legalize_virtual_fallback"` instant is emitted when the virtual
/// widths do not fit and the plain pass is used instead. The returned
/// report's `failed` count is added to the `legalize_failed` counter.
pub fn legalize_virtual_obs(
    design: &mut Design,
    cfg: &LegalizeConfig,
    virtual_widths: &[f64],
    obs: &Collector,
) -> LegalizeReport {
    assert_eq!(virtual_widths.len(), design.num_cells());
    let _span = obs.span("legalize", "legal");
    let saved: Vec<Point> = design.positions().to_vec();
    let mut report = legalize_impl(design, cfg, Some(virtual_widths));
    if report.failed > 0 {
        obs.instant(
            "legalize_virtual_fallback",
            rdp_obs::NO_ITER,
            format!("{} cells failed with virtual widths", report.failed),
        );
        design.set_positions(&saved);
        report = legalize_impl(design, cfg, None);
    }
    obs.counter_add("legalize_failed", report.failed as u64);
    report
}

fn legalize_impl(
    design: &mut Design,
    cfg: &LegalizeConfig,
    virtual_widths: Option<&[f64]>,
) -> LegalizeReport {
    let width_of = |design: &Design, cid: CellId| -> f64 {
        let real = design.cell(cid).w;
        match virtual_widths {
            Some(v) => v[cid.index()].max(real),
            None => real,
        }
    };
    let segments = build_segments(design);
    if segments.is_empty() {
        return LegalizeReport::default();
    }
    let mut states: Vec<SegState> = segments
        .iter()
        .map(|&seg| SegState {
            seg,
            used: 0.0,
            cells: Vec::new(),
        })
        .collect();
    // Segment indices grouped by row for windowed lookup.
    let num_rows = design.rows().len();
    let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); num_rows];
    for (i, s) in states.iter().enumerate() {
        by_row[s.seg.row].push(i);
    }
    let row_h = design.rows().first().map(|r| r.height).unwrap_or(1.0);

    // Tetris assignment in order of global x.
    let mut order: Vec<CellId> = design.movable_cells().collect();
    order.sort_by(|&a, &b| design.pos(a).x.total_cmp(&design.pos(b).x).then(a.cmp(&b)));

    let mut report = LegalizeReport::default();
    let mut displacement_sum = 0.0;
    let mut placed = 0usize;

    for cid in order {
        let cell_w = width_of(design, cid);
        let g = design.pos(cid);
        let desired_left = g.x - cell_w / 2.0;
        let row_guess = ((g.y - row_h / 2.0) / row_h).round().max(0.0) as usize;

        let mut best: Option<(f64, usize, f64)> = None; // (cost, seg idx, left x)
        let mut window = cfg.row_window;
        while best.is_none() && window < num_rows * 2 + cfg.row_window {
            let lo = row_guess.saturating_sub(window);
            let hi = (row_guess + window).min(num_rows.saturating_sub(1));
            for row in lo..=hi {
                for &si in &by_row[row] {
                    let s = &states[si];
                    // Capacity test: Abacus packs the segment afterward,
                    // so any segment with room left is a candidate.
                    if s.used + cell_w > s.seg.width() + 1e-9 {
                        continue;
                    }
                    // Cost: displacement to the clamped desired spot plus
                    // a crowding penalty steering cells to emptier rows.
                    // The weight (24 row heights at full fill) is tuned on
                    // the high-utilization suite designs: weaker weights
                    // let early cells pile into their nearest rows, and
                    // the spill displacement that follows destroys the
                    // congestion structure the placer built (measured:
                    // 4x the post-legalization routing overflow at weight
                    // 4 vs 24 on des_perf_1/matrix_mult_1).
                    let left = desired_left.clamp(s.seg.x0, s.seg.x1 - cell_w);
                    let cx = left + cell_w / 2.0;
                    let cy = s.seg.y + s.seg.height / 2.0;
                    let crowding = (s.used + cell_w) / s.seg.width() * 24.0 * row_h;
                    let cost = (cx - g.x).abs() + (cy - g.y).abs() + crowding;
                    if best.map(|(bc, _, _)| cost < bc).unwrap_or(true) {
                        best = Some((cost, si, left));
                    }
                }
            }
            window *= 2;
        }

        match best {
            Some((_, si, _left)) => {
                let s = &mut states[si];
                s.used += cell_w;
                s.cells.push((cid, g.x));
                placed += 1;
            }
            None => report.failed += 1,
        }
    }

    // Abacus refinement + site snapping per segment, then commit.
    for s in &states {
        if s.cells.is_empty() {
            continue;
        }
        let widths: Vec<f64> = s.cells.iter().map(|&(c, _)| width_of(design, c)).collect();
        let desired: Vec<f64> = s
            .cells
            .iter()
            .zip(&widths)
            .map(|(&(_, gx), w)| gx - w / 2.0)
            .collect();
        let lefts = abacus(&desired, &widths, s.seg.x0, s.seg.x1);
        let lefts = snap_to_sites(&lefts, &widths, s.seg);
        let cy = s.seg.y + s.seg.height / 2.0;
        for ((&(cid, _), w), left) in s.cells.iter().zip(&widths).zip(&lefts) {
            let before = design.pos(cid);
            let after = Point::new(left + w / 2.0, cy);
            design.set_pos(cid, after);
            let d = before.distance(after);
            displacement_sum += d;
            report.max_displacement = report.max_displacement.max(d);
        }
    }

    if placed > 0 {
        report.avg_displacement = displacement_sum / placed as f64;
    }
    report
}

/// Abacus clustering: given cells in left-to-right order with desired left
/// edges and widths, returns non-overlapping left edges within `[x0, x1]`
/// minimizing Σ wᵢ(xᵢ − desiredᵢ)².
pub(crate) fn abacus(desired: &[f64], widths: &[f64], x0: f64, x1: f64) -> Vec<f64> {
    #[derive(Debug, Clone, Copy)]
    struct Cluster {
        e: f64, // total weight
        q: f64, // Σ e_i (desired_i − offset_i)
        w: f64, // total width
        first: usize,
    }

    let n = desired.len();
    let mut clusters: Vec<Cluster> = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = Cluster {
            e: widths[i],
            q: widths[i] * desired[i],
            w: widths[i],
            first: i,
        };
        // Collapse while overlapping the previous cluster.
        loop {
            let pos = |c: &Cluster| (c.q / c.e).clamp(x0, (x1 - c.w).max(x0));
            match clusters.last() {
                Some(prev) if pos(prev) + prev.w > pos(&c) => {
                    let prev = clusters.pop().expect("checked non-empty");
                    // Merge c after prev: offsets of c's members shift by
                    // prev.w.
                    c = Cluster {
                        e: prev.e + c.e,
                        q: prev.q + c.q - c.e * prev.w,
                        w: prev.w + c.w,
                        first: prev.first,
                    };
                }
                _ => break,
            }
        }
        clusters.push(c);
    }

    let mut out = vec![0.0; n];
    for (ci, c) in clusters.iter().enumerate() {
        let x = (c.q / c.e).clamp(x0, (x1 - c.w).max(x0));
        let last = clusters.get(ci + 1).map(|nc| nc.first).unwrap_or(n);
        let mut cursor = x;
        for i in c.first..last {
            out[i] = cursor;
            cursor += widths[i];
        }
    }
    out
}

/// Snaps left edges to the segment's site grid without introducing
/// overlaps (monotone left-to-right flooring).
fn snap_to_sites(lefts: &[f64], widths: &[f64], seg: Segment) -> Vec<f64> {
    let mut out = Vec::with_capacity(lefts.len());
    let mut cursor = seg.x0;
    for (l, w) in lefts.iter().zip(widths) {
        let k = ((l - seg.x0) / seg.site_w).floor().max(0.0);
        let snapped = (seg.x0 + k * seg.site_w).max(cursor).min(seg.x1 - w);
        out.push(snapped);
        cursor = snapped + w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abacus_no_overlap_needed_keeps_positions() {
        let lefts = abacus(&[0.0, 10.0, 20.0], &[2.0, 2.0, 2.0], 0.0, 100.0);
        assert_eq!(lefts, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn abacus_resolves_overlap_at_weighted_mean() {
        // Two unit-weight cells both wanting position 10: cluster of width
        // 4 centered so that q/e = (10+10-2)/2 = 9.
        let lefts = abacus(&[10.0, 10.0], &[2.0, 2.0], 0.0, 100.0);
        assert!((lefts[0] - 9.0).abs() < 1e-9, "{lefts:?}");
        assert!((lefts[1] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn abacus_respects_bounds() {
        let lefts = abacus(&[-5.0, -4.0], &[2.0, 2.0], 0.0, 10.0);
        assert!(lefts[0] >= 0.0);
        assert_eq!(lefts[1], lefts[0] + 2.0);
        let lefts = abacus(&[9.0, 9.5], &[2.0, 2.0], 0.0, 10.0);
        assert!(lefts[1] + 2.0 <= 10.0 + 1e-9, "{lefts:?}");
    }

    #[test]
    fn abacus_output_is_sorted_and_disjoint() {
        let desired = vec![5.0, 1.0, 5.5, 5.2, 30.0, 2.0];
        let widths = vec![2.0, 1.0, 3.0, 1.0, 2.0, 1.5];
        let lefts = abacus(&desired, &widths, 0.0, 50.0);
        for i in 1..lefts.len() {
            assert!(lefts[i] >= lefts[i - 1] + widths[i - 1] - 1e-9, "{lefts:?}");
        }
    }
}
