//! Self-contained HTML report renderer.
//!
//! One run in, one `.html` string out: no scripts, no external fetches,
//! every chart an inline SVG. Charts carry `data-series`/`data-points`
//! and heatmaps carry `data-frame`/`data-iter` attributes so the
//! [validator](crate::validate) can cross-check the markup against the
//! ingested [`RunModel`] instead of trusting the renderer.

use crate::model::{FrameRec, RunModel};
use std::fmt::Write as _;

/// Chart geometry shared by every series plot.
const CHART_W: f64 = 560.0;
const CHART_H: f64 = 150.0;
const PAD_L: f64 = 10.0;
const PAD_R: f64 = 10.0;
const PAD_T: f64 = 8.0;
const PAD_B: f64 = 8.0;

/// Ten-step white→red ramp used by the congestion/density heatmaps.
const HEAT_RAMP: [&str; 10] = [
    "#f7f7f5", "#fee8d8", "#fdd0a2", "#fdae6b", "#fd8d3c", "#f16913", "#d94801", "#a63603",
    "#7f2704", "#4a1486",
];

/// HTML-escape text content and attribute values.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Compact numeric formatting for labels (6 significant digits).
fn fnum(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if (1e-3..1e7).contains(&a) {
        let s = format!("{v:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    } else {
        format!("{v:.3e}")
    }
}

/// Render the full report document.
pub fn render_report(model: &RunModel, title: &str) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", esc(title));
    out.push_str("<style>\n");
    out.push_str(CSS);
    out.push_str("</style>\n</head>\n<body>\n");
    let _ = writeln!(out, "<h1>{}</h1>", esc(title));

    render_drop_banner(&mut out, model);
    render_summary(&mut out, model);
    render_series(&mut out, model);
    render_stages(&mut out, model);
    render_timeline(&mut out, model);
    render_frames(&mut out, model);

    out.push_str("</body>\n</html>\n");
    out
}

const CSS: &str = "body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; \
max-width: 1180px; color: #222; }\n\
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; \
border-bottom: 1px solid #ddd; }\n\
table { border-collapse: collapse; } td, th { padding: 2px 10px; \
text-align: right; border-bottom: 1px solid #eee; }\n\
th { text-align: left; } td.name { text-align: left; font-family: monospace; }\n\
.banner { background: #fff3cd; border: 1px solid #e0c060; padding: 8px 12px; \
border-radius: 4px; }\n\
.chart { display: inline-block; margin: 6px 12px 6px 0; vertical-align: top; }\n\
.chart figcaption { font-family: monospace; font-size: 12px; }\n\
.ev-warning { color: #a06000; } .ev-rollback { color: #b00020; } \
.ev-checkpoint { color: #456; }\n\
.heat { display: inline-block; margin: 6px 12px 6px 0; vertical-align: top; }\n\
.heat figcaption { font-family: monospace; font-size: 12px; }\n";

fn render_drop_banner(out: &mut String, model: &RunModel) {
    if model.dropped_events > 0 || model.dropped_frames > 0 {
        let _ = writeln!(
            out,
            "<p class=\"banner\">warning: the trace is incomplete — {} events and {} frames \
             were dropped by the collector's memory bounds; totals below undercount.</p>",
            model.dropped_events, model.dropped_frames
        );
    }
}

fn render_summary(out: &mut String, model: &RunModel) {
    out.push_str("<h2>Summary</h2>\n<table>\n<tr><th>metric</th><th>value</th></tr>\n");
    for (k, v) in &model.gauges {
        let _ = writeln!(
            out,
            "<tr><td class=\"name\">{}</td><td>{}</td></tr>",
            esc(k),
            fnum(*v)
        );
    }
    for (k, v) in &model.counters {
        let _ = writeln!(
            out,
            "<tr><td class=\"name\">{}</td><td>{}</td></tr>",
            esc(k),
            fnum(*v)
        );
    }
    for (k, h) in &model.histograms {
        let _ = writeln!(
            out,
            "<tr><td class=\"name\">{} (histogram)</td><td>n={} mean={} min={} max={}</td></tr>",
            esc(k),
            h.count,
            fnum(h.mean()),
            fnum(h.min),
            fnum(h.max)
        );
    }
    out.push_str("</table>\n");
}

fn render_series(out: &mut String, model: &RunModel) {
    if model.series.is_empty() {
        return;
    }
    out.push_str("<h2>Convergence series</h2>\n");
    for (name, points) in &model.series {
        render_line_chart(out, name, points);
    }
}

/// One series as an inline SVG polyline with min/max/last labels.
fn render_line_chart(out: &mut String, name: &str, points: &[(u64, f64)]) {
    let finite: Vec<(u64, f64)> = points.iter().copied().filter(|p| p.1.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |a, p| {
            (a.0.min(p.1), a.1.max(p.1))
        });
    let (x0, x1) = match (finite.first(), finite.last()) {
        (Some(f), Some(l)) => (f.0 as f64, l.0 as f64),
        _ => (0.0, 1.0),
    };
    let xspan = (x1 - x0).max(1e-12);
    let yspan = (hi - lo).max(1e-12);
    let px = |step: f64| PAD_L + (step - x0) / xspan * (CHART_W - PAD_L - PAD_R);
    let py = |v: f64| CHART_H - PAD_B - (v - lo) / yspan * (CHART_H - PAD_T - PAD_B);

    let _ = writeln!(out, "<figure class=\"chart\">");
    let _ = writeln!(
        out,
        "<svg data-series=\"{}\" data-points=\"{}\" width=\"{}\" height=\"{}\" \
         viewBox=\"0 0 {} {}\">",
        esc(name),
        points.len(),
        CHART_W,
        CHART_H,
        CHART_W,
        CHART_H
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{CHART_W}\" height=\"{CHART_H}\" fill=\"#fcfcfa\" \
         stroke=\"#ddd\"/>"
    );
    if finite.len() > 1 {
        let pts: Vec<String> = finite
            .iter()
            .map(|(s, v)| format!("{:.1},{:.1}", px(*s as f64), py(*v)))
            .collect();
        let _ = writeln!(
            out,
            "<polyline fill=\"none\" stroke=\"#2166ac\" stroke-width=\"1.5\" points=\"{}\"/>",
            pts.join(" ")
        );
    }
    for (s, v) in &finite {
        let _ = writeln!(
            out,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2\" fill=\"#2166ac\"/>",
            px(*s as f64),
            py(*v)
        );
    }
    out.push_str("</svg>\n");
    let last = finite.last().map(|p| fnum(p.1)).unwrap_or_default();
    let _ = writeln!(
        out,
        "<figcaption>{} — min {} · max {} · last {}</figcaption>",
        esc(name),
        fnum(if lo.is_finite() { lo } else { 0.0 }),
        fnum(if hi.is_finite() { hi } else { 0.0 }),
        last
    );
    out.push_str("</figure>\n");
}

fn render_stages(out: &mut String, model: &RunModel) {
    let rows = model.stage_rows();
    if rows.is_empty() {
        return;
    }
    let max_ns = rows[0].total_ns.max(1);

    out.push_str("<h2>Stage time breakdown</h2>\n<table>\n");
    out.push_str("<tr><th>stage</th><th>calls</th><th>total ms</th><th></th></tr>\n");
    for r in &rows {
        let bar_w = (260.0 * r.total_ns as f64 / max_ns as f64).max(1.0);
        let _ = writeln!(
            out,
            "<tr><td class=\"name\">{}</td><td>{}</td><td>{:.3}</td>\
             <td><svg width=\"264\" height=\"12\"><rect x=\"0\" y=\"1\" width=\"{:.1}\" \
             height=\"10\" fill=\"#74add1\"/></svg></td></tr>",
            esc(&r.name),
            r.calls,
            r.total_ns as f64 / 1e6,
            bar_w
        );
    }
    out.push_str("</table>\n");
}

fn render_timeline(out: &mut String, model: &RunModel) {
    if model.instants.is_empty() {
        return;
    }
    let mut events: Vec<&crate::model::InstantRec> = model.instants.iter().collect();
    events.sort_by_key(|e| e.ts_ns);
    out.push_str("<h2>Event timeline</h2>\n<table>\n");
    out.push_str("<tr><th>t (ms)</th><th>iter</th><th>event</th><th>detail</th></tr>\n");
    for e in events {
        let class = match e.name.as_str() {
            "guard_warning" => "ev-warning",
            "rollback" => "ev-rollback",
            _ => "ev-checkpoint",
        };
        let iter = e.iter.map(|i| i.to_string()).unwrap_or_else(|| "—".into());
        let _ = writeln!(
            out,
            "<tr class=\"{}\"><td>{:.2}</td><td>{}</td><td class=\"name\">{}</td>\
             <td class=\"name\">{}</td></tr>",
            class,
            e.ts_ns as f64 / 1e6,
            iter,
            esc(&e.name),
            esc(&e.detail)
        );
    }
    out.push_str("</table>\n");
}

fn render_frames(out: &mut String, model: &RunModel) {
    if model.frames.is_empty() {
        return;
    }
    out.push_str("<h2>Congestion / density frames</h2>\n");
    if model.dropped_frames > 0 {
        let _ = writeln!(
            out,
            "<p class=\"banner\">{} oldest frames were evicted by the frame byte budget; \
             the earliest iterations below may be missing.</p>",
            model.dropped_frames
        );
    }
    for f in &model.frames {
        render_heatmap(out, f);
    }
}

/// One frame as an SVG heatmap: values quantized to the 10-level ramp,
/// horizontal runs of equal level merged into single rects to keep the
/// document small. Row 0 of the frame is drawn at the bottom (placement
/// coordinates, not screen coordinates).
fn render_heatmap(out: &mut String, f: &FrameRec) {
    let cell = (240.0 / f.nx.max(1) as f64).clamp(3.0, 16.0);
    let w = cell * f.nx as f64;
    let h = cell * f.ny as f64;
    let (lo, hi) = f
        .data
        .iter()
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |a, v| {
            (a.0.min(*v), a.1.max(*v))
        });
    let span = (hi - lo).max(1e-12);
    let level = |v: f64| -> usize {
        if !v.is_finite() {
            return HEAT_RAMP.len() - 1;
        }
        (((v - lo) / span * (HEAT_RAMP.len() - 1) as f64).round() as usize).min(HEAT_RAMP.len() - 1)
    };

    let iter_attr = f
        .iter
        .map(|i| i.to_string())
        .unwrap_or_else(|| "none".into());
    let _ = writeln!(out, "<figure class=\"heat\">");
    let _ = writeln!(
        out,
        "<svg data-frame=\"{}\" data-iter=\"{}\" width=\"{:.0}\" height=\"{:.0}\" \
         viewBox=\"0 0 {:.0} {:.0}\">",
        esc(&f.name),
        iter_attr,
        w,
        h,
        w,
        h
    );
    for y in 0..f.ny {
        let sy = h - cell * (y + 1) as f64;
        let mut x = 0usize;
        while x < f.nx {
            let lv = level(f.data[y * f.nx + x]);
            let mut run = 1usize;
            while x + run < f.nx && level(f.data[y * f.nx + x + run]) == lv {
                run += 1;
            }
            // Level 0 is the background; skip it to shrink the file.
            if lv > 0 {
                let _ = writeln!(
                    out,
                    "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"{}\"/>",
                    cell * x as f64,
                    sy,
                    cell * run as f64,
                    cell,
                    HEAT_RAMP[lv]
                );
            }
            x += run;
        }
    }
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{w:.0}\" height=\"{h:.0}\" fill=\"none\" stroke=\"#bbb\"/>"
    );
    out.push_str("</svg>\n");
    let iter_cap = f.iter.map(|i| format!(" iter {i}")).unwrap_or_default();
    let _ = writeln!(
        out,
        "<figcaption>{}{} — min {} · max {}</figcaption>",
        esc(&f.name),
        iter_cap,
        fnum(if lo.is_finite() { lo } else { 0.0 }),
        fnum(if hi.is_finite() { hi } else { 0.0 })
    );
    out.push_str("</figure>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RunModel;
    use rdp_obs::Collector;

    fn model() -> RunModel {
        let c = Collector::enabled();
        {
            let _f = c.span("flow", "flow");
            let _r = c.span_iter("route_iter", "flow", 0);
        }
        c.instant("rollback", 0, "detail with <angle> & \"quote\"");
        c.gauge_set("final_hpwl", 42.0);
        c.series_push("hpwl", 0, 10.0);
        c.series_push("hpwl", 1, 9.0);
        c.frame(
            "congestion",
            0,
            4,
            4,
            &(0..16).map(|i| i as f64).collect::<Vec<_>>(),
        );
        RunModel::from_collector(&c).unwrap()
    }

    #[test]
    fn report_contains_tagged_charts_and_frames() {
        let html = render_report(&model(), "test run");
        assert!(html.contains("data-series=\"hpwl\" data-points=\"2\""));
        assert!(html.contains("data-frame=\"congestion\" data-iter=\"0\""));
        assert!(html.contains("final_hpwl"));
        assert!(html.contains("rollback"));
    }

    #[test]
    fn detail_text_is_escaped() {
        let html = render_report(&model(), "t");
        assert!(html.contains("&lt;angle&gt; &amp; &quot;quote&quot;"));
        assert!(!html.contains("<angle>"));
    }

    #[test]
    fn constant_series_and_frames_render() {
        let c = Collector::enabled();
        c.series_push("flat", 0, 5.0);
        c.series_push("flat", 1, 5.0);
        c.frame("density", 1, 2, 2, &[1.0; 4]);
        let m = RunModel::from_collector(&c).unwrap();
        let html = render_report(&m, "flat");
        assert!(html.contains("data-series=\"flat\""));
        assert!(html.contains("data-frame=\"density\""));
    }
}
