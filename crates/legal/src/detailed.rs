//! Greedy detailed placement: order-preserving in-row re-optimization and
//! HPWL-driven adjacent swaps.

use crate::legalize::abacus;
use crate::segments::{build_segments, Segment};
use rdp_db::{CellId, Design, NetId, Point};
use rdp_obs::Collector;

/// Configuration for [`detailed_place`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedConfig {
    /// Number of improvement passes.
    pub passes: usize,
}

impl Default for DetailedConfig {
    fn default() -> Self {
        DetailedConfig { passes: 2 }
    }
}

/// Runs detailed placement on an already-legal design; returns the HPWL
/// improvement (positive = better). Legality is preserved.
pub fn detailed_place(design: &mut Design, cfg: &DetailedConfig) -> f64 {
    detailed_place_obs(design, cfg, &Collector::disabled())
}

/// [`detailed_place`] with a `"detailed_place"` span recorded on `obs`;
/// the HPWL improvement is recorded as the `detailed_hpwl_gain` gauge.
pub fn detailed_place_obs(design: &mut Design, cfg: &DetailedConfig, obs: &Collector) -> f64 {
    detailed_impl(design, cfg, None, obs)
}

/// Detailed placement that moves cells by their **virtual widths** (see
/// [`crate::legalize_virtual`]): the congestion-driven spacing from
/// inflation is preserved through the swap and shift moves.
///
/// # Panics
///
/// Panics if `virtual_widths.len() != design.num_cells()`.
pub fn detailed_place_virtual(
    design: &mut Design,
    cfg: &DetailedConfig,
    virtual_widths: &[f64],
) -> f64 {
    detailed_place_virtual_obs(design, cfg, virtual_widths, &Collector::disabled())
}

/// [`detailed_place_virtual`] with a `"detailed_place"` span recorded on
/// `obs`; the HPWL improvement is recorded as `detailed_hpwl_gain`.
pub fn detailed_place_virtual_obs(
    design: &mut Design,
    cfg: &DetailedConfig,
    virtual_widths: &[f64],
    obs: &Collector,
) -> f64 {
    assert_eq!(virtual_widths.len(), design.num_cells());
    detailed_impl(design, cfg, Some(virtual_widths), obs)
}

fn detailed_impl(
    design: &mut Design,
    cfg: &DetailedConfig,
    virtual_widths: Option<&[f64]>,
    obs: &Collector,
) -> f64 {
    let _span = obs.span("detailed_place", "legal");
    let before = design.hpwl();
    let segments = build_segments(design);
    let index = SegmentIndex::new(&segments);
    let eps = 1e-6;
    let mut per_seg: Vec<Vec<CellId>> = vec![Vec::new(); segments.len()];
    let mut scratch = Scratch::default();

    for _ in 0..cfg.passes.max(1) {
        // Group movable cells by segment.
        per_seg.iter_mut().for_each(Vec::clear);
        for c in design.movable_cells() {
            if let Some(si) = index.find(&segments, design.pos(c), eps) {
                per_seg[si].push(c);
            }
        }
        for cells in &mut per_seg {
            cells.sort_by(|&a, &b| design.pos(a).x.total_cmp(&design.pos(b).x));
        }

        // (a) adjacent swaps driven by HPWL delta. After an accepted swap
        // the next pair is skipped, so every swap stays inside its own
        // pair extent and legality is preserved.
        for cells in &per_seg {
            let mut i = 0;
            while i + 1 < cells.len() {
                if try_swap(
                    design,
                    cells[i],
                    cells[i + 1],
                    virtual_widths,
                    &mut scratch.nets,
                ) {
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }

        // (b) order-preserving in-row shift toward each cell's optimal x.
        for (si, cells) in per_seg.iter().enumerate() {
            if cells.is_empty() {
                continue;
            }
            shift_row(design, &segments[si], cells, virtual_widths, &mut scratch);
        }
    }
    let gain = before - design.hpwl();
    obs.gauge_set("detailed_hpwl_gain", gain);
    gain
}

/// Segments ordered by row centre, so a cell's segment is found without
/// scanning every segment.
struct SegmentIndex {
    /// `(centre y, segment index)` sorted by centre, equal centres in
    /// index order. A NaN centre matches no cell and is left out.
    by_centre: Vec<(f64, usize)>,
}

impl SegmentIndex {
    fn new(segments: &[Segment]) -> Self {
        let mut by_centre: Vec<(f64, usize)> = segments
            .iter()
            .enumerate()
            .map(|(i, s)| (s.y + s.height / 2.0, i))
            .filter(|(c, _)| !c.is_nan())
            .collect();
        by_centre.sort_by(|a, b| a.0.total_cmp(&b.0));
        SegmentIndex { by_centre }
    }

    /// The lowest-index segment whose centre lies within `eps` of `p.y`
    /// and whose extent, widened by `eps`, holds `p.x`: the first match a
    /// scan over all segments would find.
    fn find(&self, segments: &[Segment], p: Point, eps: f64) -> Option<usize> {
        // The rounded difference `c - p.y` never decreases as the centre
        // `c` grows, so the centres with `|c - p.y| < eps` form one run.
        let lo = self.by_centre.partition_point(|&(c, _)| c - p.y <= -eps);
        let hi = self.by_centre.partition_point(|&(c, _)| c - p.y < eps);
        self.by_centre[lo..hi]
            .iter()
            .map(|&(_, si)| si)
            .filter(|&si| p.x >= segments[si].x0 - eps && p.x <= segments[si].x1 + eps)
            .min()
    }
}

/// Buffers reused across the pairs and segments of a run.
#[derive(Default)]
struct Scratch {
    nets: Vec<NetId>,
    widths: Vec<f64>,
    desired: Vec<f64>,
    old: Vec<Point>,
    xs: Vec<f64>,
}

/// The width a move uses: the virtual width when given, never below the
/// real one.
fn move_width(design: &Design, c: CellId, virtual_widths: Option<&[f64]>) -> f64 {
    let real = design.cell(c).w;
    virtual_widths
        .map(|v| v[c.index()].max(real))
        .unwrap_or(real)
}

/// Swaps two same-row neighbors (`a` left of `b`) by exchanging their
/// extents — `b` moves to `a`'s left edge, `a` to `b`'s right edge — when
/// that reduces the HPWL of their nets. Returns whether the swap was kept.
/// Both new footprints stay inside the union of the old ones, so no other
/// cell can be collided with.
fn try_swap(
    design: &mut Design,
    a: CellId,
    b: CellId,
    virtual_widths: Option<&[f64]>,
    nets: &mut Vec<NetId>,
) -> bool {
    let (wa, wb) = (
        move_width(design, a, virtual_widths),
        move_width(design, b, virtual_widths),
    );
    nets_of(design, &[a, b], nets);
    let before: f64 = nets.iter().map(|&n| design.net_hpwl(n)).sum();
    let (pa, pb) = (design.pos(a), design.pos(b));
    let new_pa = Point::new(pb.x + wb / 2.0 - wa / 2.0, pa.y);
    let new_pb = Point::new(pa.x - wa / 2.0 + wb / 2.0, pb.y);
    design.set_pos(a, new_pa);
    design.set_pos(b, new_pb);
    let after: f64 = nets.iter().map(|&n| design.net_hpwl(n)).sum();
    if after >= before {
        design.set_pos(a, pa);
        design.set_pos(b, pb);
        return false;
    }
    true
}

/// The distinct nets touching `cells`, ascending, into `nets`.
fn nets_of(design: &Design, cells: &[CellId], nets: &mut Vec<NetId>) {
    nets.clear();
    nets.extend(
        cells
            .iter()
            .flat_map(|&c| design.pins_of_cell(c).iter().map(|&p| design.pin(p).net)),
    );
    nets.sort_unstable();
    nets.dedup();
}

/// Order-preserving Abacus shift of a row's cells toward the x that
/// minimizes each cell's connected-net HPWL (the median of the other pin
/// positions).
fn shift_row(
    design: &mut Design,
    seg: &Segment,
    cells: &[CellId],
    virtual_widths: Option<&[f64]>,
    scratch: &mut Scratch,
) {
    let Scratch {
        nets,
        widths,
        desired,
        old,
        xs,
    } = scratch;
    widths.clear();
    widths.extend(cells.iter().map(|&c| move_width(design, c, virtual_widths)));
    desired.clear();
    for (&c, w) in cells.iter().zip(widths.iter()) {
        let ox = optimal_x(design, c, xs).unwrap_or(design.pos(c).x);
        desired.push(ox - w / 2.0);
    }
    // Keep the current order (Abacus requires sorted desired input to
    // avoid reordering): clamp each desired to be ≥ its predecessor.
    for i in 1..desired.len() {
        if desired[i] < desired[i - 1] {
            desired[i] = desired[i - 1];
        }
    }
    let lefts = abacus(desired, widths, seg.x0, seg.x1);
    // Only the nets touching this segment's cells can change.
    nets_of(design, cells, nets);
    let hpwl_before: f64 = nets.iter().map(|&n| design.net_hpwl(n)).sum();
    old.clear();
    old.extend(cells.iter().map(|&c| design.pos(c)));
    // Snap to sites, monotone.
    let mut cursor = seg.x0;
    for ((&c, w), l) in cells.iter().zip(widths.iter()).zip(&lefts) {
        let k = ((l - seg.x0) / seg.site_w).floor().max(0.0);
        let x = (seg.x0 + k * seg.site_w).max(cursor).min(seg.x1 - w);
        design.set_pos(c, Point::new(x + w / 2.0, seg.y + seg.height / 2.0));
        cursor = x + w;
    }
    let hpwl_after: f64 = nets.iter().map(|&n| design.net_hpwl(n)).sum();
    if hpwl_after > hpwl_before {
        for (&c, &p) in cells.iter().zip(old.iter()) {
            design.set_pos(c, p);
        }
    }
}

/// The x minimizing the cell's total connected HPWL: median of the other
/// pins' x positions over all its nets (`xs` is scratch).
fn optimal_x(design: &Design, c: CellId, xs: &mut Vec<f64>) -> Option<f64> {
    xs.clear();
    for &pid in design.pins_of_cell(c) {
        let net = design.pin(pid).net;
        for &q in &design.net(net).pins {
            if design.pin(q).cell != c {
                xs.push(design.pin_position(q).x);
            }
        }
    }
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    Some(xs[xs.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_legality;
    use rdp_db::{Cell, DesignBuilder, Rect, RoutingSpec, Row};

    /// Two cells placed in swapped order relative to their connections:
    /// detailed placement must swap them.
    #[test]
    fn swap_improves_crossed_connections() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 40.0, 2.0));
        b.add_row(Row {
            y: 0.0,
            height: 2.0,
            x0: 0.0,
            x1: 40.0,
            site_w: 0.2,
        });
        let left_io = b.add_cell(Cell::terminal("l"), Point::new(0.0, 1.0));
        let right_io = b.add_cell(Cell::terminal("r"), Point::new(40.0, 1.0));
        // a wants to be right, b wants to be left — but placed crossed.
        let a = b.add_cell(Cell::std("a", 2.0, 2.0), Point::new(19.0, 1.0));
        let c = b.add_cell(Cell::std("b", 2.0, 2.0), Point::new(21.0, 1.0));
        b.add_net(
            "na",
            vec![(a, Point::default()), (right_io, Point::default())],
        );
        b.add_net(
            "nb",
            vec![(c, Point::default()), (left_io, Point::default())],
        );
        b.routing(RoutingSpec::uniform(2, 10.0, 4, 4));
        let mut d = b.build().unwrap();
        let improved = detailed_place(&mut d, &DetailedConfig::default());
        assert!(improved > 0.0, "no improvement: {improved}");
        assert!(design_x(&d, a) > design_x(&d, c), "cells not swapped");
        assert!(check_legality(&d).is_legal());
    }

    fn design_x(d: &Design, c: CellId) -> f64 {
        d.pos(c).x
    }

    /// The segment index finds what the scan over all segments it
    /// replaced finds, ties and near-misses at `eps` included.
    #[test]
    fn segment_index_matches_linear_scan() {
        use rdp_testkit::{prop_assert_eq, prop_check, range, PropConfig};
        let eps = 1e-6;
        prop_check!(
            PropConfig::cases(1024),
            (range(1u64..1 << 40), range(0usize..5), range(0usize..5)),
            |(seed, pick, off): (u64, usize, usize)| {
                let mut rng = rdp_testkit::Rng::new(seed);
                // Segments of rows that may share a y or overlap; two of
                // the heights put centres 5e-8 apart, inside `eps`.
                let segments: Vec<Segment> = (0..rng.gen_range(1usize..12))
                    .map(|row| {
                        let y = rng.gen_range(0u32..6) as f64 * 2.0;
                        let x0 = rng.gen_range(0.0..50.0);
                        Segment {
                            row,
                            y,
                            height: [2.0, 2.0 + 1e-7, 1.0][rng.gen_range(0usize..3)],
                            site_w: 0.2,
                            x0,
                            x1: x0 + rng.gen_range(0.2..50.0),
                        }
                    })
                    .collect();
                let s = &segments[pick % segments.len()];
                let c = s.y + s.height / 2.0;
                let y = [c, c + eps, c - eps, c + 0.9 * eps, c - 0.9 * eps][off];
                let xs = [
                    s.x0,
                    s.x1,
                    s.x0 - eps,
                    s.x1 + 2.0 * eps,
                    (s.x0 + s.x1) / 2.0,
                ];
                let index = SegmentIndex::new(&segments);
                for p in xs
                    .iter()
                    .map(|&x| Point::new(x, y))
                    .chain([Point::new(f64::NAN, y), Point::new(s.x0, f64::NAN)])
                {
                    let scan = segments.iter().position(|s| {
                        (s.y + s.height / 2.0 - p.y).abs() < eps
                            && p.x >= s.x0 - eps
                            && p.x <= s.x1 + eps
                    });
                    prop_assert_eq!(index.find(&segments, p, eps), scan, "at {p:?}");
                }
                Ok(())
            }
        );
    }

    #[test]
    fn shift_moves_cell_toward_its_net() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 40.0, 2.0));
        b.add_row(Row {
            y: 0.0,
            height: 2.0,
            x0: 0.0,
            x1: 40.0,
            site_w: 0.2,
        });
        let io = b.add_cell(Cell::terminal("io"), Point::new(40.0, 1.0));
        let a = b.add_cell(Cell::std("a", 2.0, 2.0), Point::new(5.0, 1.0));
        b.add_net("n", vec![(a, Point::default()), (io, Point::default())]);
        b.routing(RoutingSpec::uniform(2, 10.0, 4, 4));
        let mut d = b.build().unwrap();
        let improved = detailed_place(&mut d, &DetailedConfig::default());
        assert!(improved > 0.0);
        // Cell slides right toward the terminal (clamped by the row edge).
        assert!(d.pos(a).x > 30.0, "x = {}", d.pos(a).x);
        assert!(check_legality(&d).is_legal());
    }

    #[test]
    fn detailed_never_degrades_hpwl() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 40.0, 4.0));
        for r in 0..2 {
            b.add_row(Row {
                y: r as f64 * 2.0,
                height: 2.0,
                x0: 0.0,
                x1: 40.0,
                site_w: 0.2,
            });
        }
        let mut ids = Vec::new();
        for i in 0..16 {
            let x = 1.0 + (i % 8) as f64 * 4.8;
            let y = if i < 8 { 1.0 } else { 3.0 };
            ids.push(b.add_cell(Cell::std(format!("c{i}"), 1.6, 2.0), Point::new(x, y)));
        }
        for i in 0..12 {
            b.add_net(
                format!("n{i}"),
                vec![
                    (ids[i], Point::default()),
                    (ids[(i * 7 + 3) % 16], Point::default()),
                ],
            );
        }
        b.routing(RoutingSpec::uniform(2, 10.0, 4, 4));
        let mut d = b.build().unwrap();
        let improved = detailed_place(&mut d, &DetailedConfig { passes: 3 });
        assert!(improved >= -1e-9);
        let rep = check_legality(&d);
        assert!(rep.is_legal(), "{rep:?}");
    }
}
