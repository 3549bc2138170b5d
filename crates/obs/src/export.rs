//! Exporters: the JSON-lines event log and the metrics JSON document, the
//! two files of a run directory. `rdp_report::RunModel` is their reader.
//!
//! All output is produced from a snapshot of the collector after the flow
//! has finished; ordering is deterministic (ring order for events, BTreeMap
//! order for metrics), though the timestamp *values* naturally vary run to
//! run.

use crate::json;
use crate::{Collector, Event};
use std::fmt::Write as _;

fn iter_json(iter: i64) -> String {
    if iter < 0 {
        "null".to_string()
    } else {
        iter.to_string()
    }
}

/// JSON-lines event log: one object per line. Span lines carry
/// `type,name,cat,tid,ts_ns,dur_ns,iter`; instant lines carry
/// `type,name,detail,tid,ts_ns,iter`; a final `meta` line carries totals.
pub fn export_jsonl(col: &Collector) -> String {
    let drops = col.drop_stats();
    col.with_snapshot(|events, _, dropped| {
        let mut out = String::new();
        for ev in events {
            match ev {
                Event::Span {
                    name,
                    cat,
                    tid,
                    start_ns,
                    dur_ns,
                    iter,
                } => {
                    let _ = writeln!(
                        out,
                        r#"{{"type":"span","name":"{}","cat":"{}","tid":{},"ts_ns":{},"dur_ns":{},"iter":{}}}"#,
                        json::escape(name),
                        json::escape(cat),
                        tid,
                        start_ns,
                        dur_ns,
                        iter_json(*iter)
                    );
                }
                Event::Instant {
                    name,
                    detail,
                    tid,
                    ts_ns,
                    iter,
                } => {
                    let _ = writeln!(
                        out,
                        r#"{{"type":"instant","name":"{}","detail":"{}","tid":{},"ts_ns":{},"iter":{}}}"#,
                        json::escape(name),
                        json::escape(detail),
                        tid,
                        ts_ns,
                        iter_json(*iter)
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            r#"{{"type":"meta","events":{},"dropped":{},"dropped_spans":{},"dropped_instants":{},"dropped_frames":{}}}"#,
            events.len(),
            dropped,
            drops.spans,
            drops.instants,
            drops.frames
        );
        out
    })
    .unwrap_or_default()
}

/// Metrics registry as a single JSON document: counters, gauges, histograms
/// (sparse log-2 buckets keyed by exponent), convergence series, captured
/// congestion/density frames, and the dropped-event/frame counts.
pub fn export_metrics_json(col: &Collector) -> String {
    let frames_json = col
        .with_frames(|frames, _| {
            let rendered: Vec<String> = frames
                .iter()
                .map(|f| {
                    let vals: Vec<String> = f.data.iter().map(|v| json::num(*v)).collect();
                    format!(
                        "    {{\"name\": \"{}\", \"iter\": {}, \"nx\": {}, \"ny\": {}, \"data\": [{}]}}",
                        json::escape(f.name),
                        f.iter,
                        f.nx,
                        f.ny,
                        vals.join(", ")
                    )
                })
                .collect();
            rendered.join(",\n")
        })
        .unwrap_or_default();
    let drops = col.drop_stats();
    col.with_snapshot(|_, metrics, dropped| {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"dropped_events\": {dropped},");
        let _ = writeln!(out, "  \"dropped_frames\": {},", drops.frames);

        out.push_str("  \"counters\": {");
        let counters: Vec<String> = metrics
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json::escape(k), v))
            .collect();
        out.push_str(&counters.join(", "));
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        let gauges: Vec<String> = metrics
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json::escape(k), json::num(*v)))
            .collect();
        out.push_str(&gauges.join(", "));
        out.push_str("},\n");

        out.push_str("  \"histograms\": {\n");
        let hists: Vec<String> = metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| format!("\"{}\": {}", i as i64 - 64, c))
                    .collect();
                format!(
                    "    \"{}\": {{\"count\": {}, \"zeros\": {}, \"negatives\": {}, \"non_finite\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"log2_buckets\": {{{}}}}}",
                    json::escape(k),
                    h.count,
                    h.zeros,
                    h.negatives,
                    h.non_finite,
                    json::num(h.sum),
                    json::num(h.min),
                    json::num(h.max),
                    buckets.join(", ")
                )
            })
            .collect();
        out.push_str(&hists.join(",\n"));
        out.push_str("\n  },\n");

        out.push_str("  \"series\": {\n");
        let series: Vec<String> = metrics
            .series
            .iter()
            .map(|(k, points)| {
                let pts: Vec<String> = points
                    .iter()
                    .map(|(step, v)| format!("[{}, {}]", step, json::num(*v)))
                    .collect();
                format!("    \"{}\": [{}]", json::escape(k), pts.join(", "))
            })
            .collect();
        out.push_str(&series.join(",\n"));
        out.push_str("\n  },\n");

        out.push_str("  \"frames\": [\n");
        out.push_str(&frames_json);
        out.push_str("\n  ]\n}\n");
        out
    })
    .unwrap_or_else(|| "{}\n".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn sample_collector() -> Collector {
        let c = Collector::enabled();
        {
            let _route = c.span_iter("route", "route", 0);
            let _gp = c.span_iter("gp_step", "gp", 0);
        }
        c.instant("guard_warning", 1, "router congestion non-finite");
        c.instant("rollback", 2, "divergence");
        c.counter_add("route_maze_rerouted", 7);
        c.gauge_set("gamma", 1.5);
        c.observe("wa_grad", 0.25);
        c.series_push("hpwl", 0, 123.0);
        c
    }

    /// The trailing `meta` line of a JSONL export, parsed.
    fn meta_line(jsonl: &str) -> Value {
        let meta = json::parse(jsonl.lines().last().expect("a meta line")).unwrap();
        assert_eq!(meta.get("type").and_then(Value::as_str), Some("meta"));
        meta
    }

    fn num(v: &Value, key: &str) -> f64 {
        v.get(key).and_then(Value::as_f64).expect(key)
    }

    #[test]
    fn jsonl_lines_are_json_objects_ending_in_meta() {
        let text = export_jsonl(&sample_collector());
        let lines: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        let types: Vec<&str> = lines
            .iter()
            .map(|v| v.get("type").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(types, ["span", "span", "instant", "instant", "meta"]);
        assert_eq!(
            lines[0].get("name").and_then(Value::as_str),
            Some("gp_step")
        );
        assert_eq!(num(&lines[2], "iter"), 1.0);
        assert_eq!(num(&meta_line(&text), "events"), 4.0);
        assert_eq!(num(&meta_line(&text), "dropped"), 0.0);
    }

    #[test]
    fn metrics_json_parses_and_carries_values() {
        let c = sample_collector();
        let text = export_metrics_json(&c);
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("route_maze_rerouted")
                .unwrap()
                .as_f64()
                .unwrap(),
            7.0
        );
        assert_eq!(
            v.get("gauges").unwrap().get("gamma").unwrap().as_f64(),
            Some(1.5)
        );
        let hist = v.get("histograms").unwrap().get("wa_grad").unwrap();
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(1.0));
        let series = v
            .get("series")
            .unwrap()
            .get("hpwl")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(series.len(), 1);
    }

    #[test]
    fn metrics_json_carries_frames() {
        let c = sample_collector();
        c.frame("congestion", 3, 2, 2, &[0.5, 1.0, 1.5, 2.0]);
        let text = export_metrics_json(&c);
        let v = json::parse(&text).unwrap();
        let frames = v.get("frames").unwrap().as_arr().unwrap();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(f.get("name").unwrap().as_str(), Some("congestion"));
        assert_eq!(f.get("iter").unwrap().as_f64(), Some(3.0));
        assert_eq!(f.get("nx").unwrap().as_f64(), Some(2.0));
        assert_eq!(f.get("data").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn metrics_json_without_frames_has_empty_array() {
        let c = sample_collector();
        let v = json::parse(&export_metrics_json(&c)).unwrap();
        assert!(v.get("frames").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn meta_line_carries_drop_breakdown() {
        let c = Collector::with_capacity(2);
        {
            let _a = c.span("gp_step", "gp");
        }
        c.instant("guard_warning", 0, "w1");
        c.instant("rollback", 1, "r1"); // evicts the span
        c.instant("note", 2, "n1"); // evicts the first instant
        let meta = meta_line(&export_jsonl(&c));
        assert_eq!(num(&meta, "events"), 2.0);
        assert_eq!(num(&meta, "dropped"), 2.0);
        assert_eq!(num(&meta, "dropped_spans"), 1.0);
        assert_eq!(num(&meta, "dropped_instants"), 1.0);
        assert_eq!(num(&meta, "dropped_frames"), 0.0);
    }

    #[test]
    fn disabled_collector_exports_are_empty() {
        let c = Collector::disabled();
        assert_eq!(export_jsonl(&c), "");
        assert_eq!(export_metrics_json(&c), "{}\n");
    }
}
