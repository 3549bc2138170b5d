//! Exporters: JSON-lines event log, Chrome `trace_event` JSON, metrics JSON,
//! and the human-readable per-stage time table — plus the tiny validators CI
//! uses to check the emitted files.
//!
//! All output is produced from a snapshot of the collector after the flow
//! has finished; ordering is deterministic (ring order for events, BTreeMap
//! order for metrics), though the timestamp *values* naturally vary run to
//! run.

use crate::json::{self, Value};
use crate::{Collector, Event};
use std::collections::{BTreeMap, BTreeSet};
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

/// Chrome `trace_event` JSON (load in chrome://tracing or
/// <https://ui.perfetto.dev>). Spans become `ph:"X"` complete events,
/// instants become `ph:"i"` thread-scoped instant events; `ts`/`dur` are
/// microseconds as the format requires.
pub fn export_chrome_trace(col: &Collector) -> String {
    col.with_snapshot(|events, _, dropped| {
        let mut parts: Vec<String> = Vec::with_capacity(events.len() + 1);
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
                    let args = if *iter >= 0 {
                        format!(r#","args":{{"iter":{iter}}}"#)
                    } else {
                        String::new()
                    };
                    parts.push(format!(
                        r#"{{"ph":"X","pid":1,"tid":{},"name":"{}","cat":"{}","ts":{},"dur":{}{}}}"#,
                        tid,
                        json::escape(name),
                        json::escape(cat),
                        json::num(*start_ns as f64 / 1000.0),
                        json::num(*dur_ns as f64 / 1000.0),
                        args
                    ));
                }
                Event::Instant {
                    name,
                    detail,
                    tid,
                    ts_ns,
                    iter,
                } => {
                    let iter_arg = if *iter >= 0 {
                        format!(r#","iter":{iter}"#)
                    } else {
                        String::new()
                    };
                    parts.push(format!(
                        r#"{{"ph":"i","s":"t","pid":1,"tid":{},"name":"{}","cat":"event","ts":{},"args":{{"detail":"{}"{}}}}}"#,
                        tid,
                        json::escape(name),
                        json::num(*ts_ns as f64 / 1000.0),
                        json::escape(detail),
                        iter_arg
                    ));
                }
            }
        }
        parts.push(format!(
            r#"{{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{{"name":"rdp ({} events, {} dropped)"}}}}"#,
            events.len(),
            dropped
        ));
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            parts.join(",\n")
        )
    })
    .unwrap_or_else(|| "{\"traceEvents\":[]}\n".to_string())
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

/// One row of the per-stage time table: spans aggregated by name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
    pub mean_ns: u64,
    pub pct_of_wall: f64,
}

/// Aggregate spans by name into rows sorted by total time (descending).
/// Wall time is the latest span end seen; nested spans mean percentages can
/// legitimately sum past 100.
pub fn stage_rows(col: &Collector) -> Vec<StageRow> {
    col.with_snapshot(|events, _, _| {
        let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut wall_ns: u64 = 0;
        for ev in events {
            if let Event::Span {
                name,
                start_ns,
                dur_ns,
                ..
            } = ev
            {
                let e = agg.entry(name).or_insert((0, 0));
                e.0 += 1;
                e.1 += dur_ns;
                wall_ns = wall_ns.max(start_ns + dur_ns);
            }
        }
        let mut rows: Vec<StageRow> = agg
            .into_iter()
            .map(|(name, (calls, total_ns))| StageRow {
                name: name.to_string(),
                calls,
                total_ns,
                mean_ns: total_ns / calls.max(1),
                pct_of_wall: if wall_ns > 0 {
                    100.0 * total_ns as f64 / wall_ns as f64
                } else {
                    0.0
                },
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        rows
    })
    .unwrap_or_default()
}

/// Human-readable per-stage table for end-of-run CLI output.
pub fn stage_table(col: &Collector) -> String {
    let rows = stage_rows(col);
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("(no spans recorded)\n");
    } else {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12} {:>8}",
            "stage", "calls", "total_ms", "mean_us", "%wall"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12.3} {:>12.1} {:>8.1}",
                r.name,
                r.calls,
                r.total_ns as f64 / 1e6,
                r.mean_ns as f64 / 1e3,
                r.pct_of_wall
            );
        }
    }
    // The rows sum spans only, so only dropped spans make them incomplete.
    let drops = col.drop_stats();
    if drops.spans > 0 {
        let _ = writeln!(
            out,
            "(warning: ring buffer dropped {} events: {} spans, {} instants; {} frames evicted — stage totals above are incomplete)",
            drops.events, drops.spans, drops.instants, drops.frames
        );
    }
    out
}

/// Summary returned by [`validate_trace_jsonl`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    pub spans: u64,
    pub instants: u64,
    /// Distinct span names seen.
    pub span_names: BTreeSet<String>,
    /// Instant events named `guard_warning`.
    pub guard_warnings: u64,
    /// Instant events named `rollback`.
    pub rollbacks: u64,
    /// Dropped-event count from the trailing meta line.
    pub dropped: u64,
    /// Dropped span events (from the optional meta breakdown).
    pub dropped_spans: u64,
    /// Dropped instant events (from the optional meta breakdown).
    pub dropped_instants: u64,
    /// Dropped congestion/density frames (from the optional meta breakdown).
    pub dropped_frames: u64,
}

fn field_num(obj: &Value, key: &str, line_no: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line_no}: missing numeric field \"{key}\""))
}

fn field_str<'v>(obj: &'v Value, key: &str, line_no: usize) -> Result<&'v str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {line_no}: missing string field \"{key}\""))
}

/// Validate a JSONL trace produced by [`export_jsonl`]: every line must be a
/// well-formed JSON object of a known `type` carrying its required fields,
/// ending with exactly one `meta` line.
pub fn validate_trace_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut saw_meta = false;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if saw_meta {
            return Err(format!("line {line_no}: content after meta line"));
        }
        let v = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let ty = field_str(&v, "type", line_no)?;
        match ty {
            "span" => {
                let name = field_str(&v, "name", line_no)?;
                field_str(&v, "cat", line_no)?;
                field_num(&v, "tid", line_no)?;
                let ts = field_num(&v, "ts_ns", line_no)?;
                let dur = field_num(&v, "dur_ns", line_no)?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("line {line_no}: negative span timing"));
                }
                summary.spans += 1;
                summary.span_names.insert(name.to_string());
            }
            "instant" => {
                let name = field_str(&v, "name", line_no)?;
                field_str(&v, "detail", line_no)?;
                field_num(&v, "tid", line_no)?;
                field_num(&v, "ts_ns", line_no)?;
                summary.instants += 1;
                match name {
                    "guard_warning" => summary.guard_warnings += 1,
                    "rollback" => summary.rollbacks += 1,
                    _ => {}
                }
            }
            "meta" => {
                let events = field_num(&v, "events", line_no)? as u64;
                summary.dropped = field_num(&v, "dropped", line_no)? as u64;
                // Drop breakdown is optional (older traces omit it) but must
                // reconcile with the total when present.
                let opt = |key: &str| v.get(key).and_then(Value::as_f64).map(|n| n as u64);
                summary.dropped_spans = opt("dropped_spans").unwrap_or(0);
                summary.dropped_instants = opt("dropped_instants").unwrap_or(0);
                summary.dropped_frames = opt("dropped_frames").unwrap_or(0);
                if opt("dropped_spans").is_some()
                    && summary.dropped_spans + summary.dropped_instants != summary.dropped
                {
                    return Err(format!(
                        "line {line_no}: drop breakdown {} + {} does not equal dropped {}",
                        summary.dropped_spans, summary.dropped_instants, summary.dropped
                    ));
                }
                let recorded = summary.spans + summary.instants;
                if events != recorded {
                    return Err(format!(
                        "line {line_no}: meta says {events} events but {recorded} lines precede"
                    ));
                }
                saw_meta = true;
            }
            other => return Err(format!("line {line_no}: unknown event type \"{other}\"")),
        }
    }
    if !saw_meta {
        return Err("missing trailing meta line".to_string());
    }
    Ok(summary)
}

/// Validate a Chrome trace produced by [`export_chrome_trace`]; returns the
/// number of trace events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "X" => {
                for key in ["ts", "dur", "pid", "tid"] {
                    ev.get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("event {i}: missing numeric {key}"))?;
                }
                ev.get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: missing name"))?;
            }
            "i" => {
                ev.get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected ph \"{other}\"")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_collector() -> Collector {
        let c = Collector::enabled();
        {
            let _route = c.span_iter("route", "route", 0);
            let _gp = c.span_iter("gp_step", "gp", 0);
        }
        c.instant("guard_warning", 1, "router congestion non-finite");
        c.instant("rollback", 2, "divergence");
        c.counter_add("route_batches", 7);
        c.gauge_set("gamma", 1.5);
        c.observe("wa_grad", 0.25);
        c.series_push("hpwl", 0, 123.0);
        c
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let c = sample_collector();
        let text = export_jsonl(&c);
        let summary = validate_trace_jsonl(&text).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 2);
        assert_eq!(summary.guard_warnings, 1);
        assert_eq!(summary.rollbacks, 1);
        assert!(summary.span_names.contains("gp_step"));
        assert!(summary.span_names.contains("route"));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let c = sample_collector();
        let text = export_chrome_trace(&c);
        let n = validate_chrome_trace(&text).unwrap();
        assert_eq!(n, 5); // 2 spans + 2 instants + metadata
    }

    #[test]
    fn metrics_json_parses_and_carries_values() {
        let c = sample_collector();
        let text = export_metrics_json(&c);
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("route_batches")
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
    fn stage_table_lists_spans() {
        let c = sample_collector();
        {
            let _x = c.span("gp_step", "gp");
        }
        let rows = stage_rows(&c);
        let gp = rows.iter().find(|r| r.name == "gp_step").unwrap();
        assert_eq!(gp.calls, 2);
        let table = stage_table(&c);
        assert!(
            table.contains("stage") && table.contains("gp_step"),
            "{table}"
        );
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_trace_jsonl("not json\n").is_err());
        assert!(validate_trace_jsonl("{\"type\":\"span\"}\n").is_err());
        assert!(validate_trace_jsonl("").is_err());
        // meta count mismatch: claims 5 events but none precede it
        let bad = "{\"type\":\"meta\",\"events\":5,\"dropped\":0}\n";
        assert!(validate_trace_jsonl(bad).is_err());
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
        let text = export_jsonl(&c);
        let summary = validate_trace_jsonl(&text).unwrap();
        assert_eq!(summary.dropped, 2);
        assert_eq!(summary.dropped_spans, 1);
        assert_eq!(summary.dropped_instants, 1);
        let table = stage_table(&c);
        assert!(table.contains("warning"), "{table}");
        assert!(table.contains("1 spans, 1 instants"), "{table}");
    }

    #[test]
    fn frame_eviction_alone_leaves_stage_totals_complete() {
        let c = Collector::with_capacity_and_frame_budget(64, 2 * 900);
        {
            let _gp = c.span("gp_step", "gp");
        }
        for i in 0..5 {
            c.frame("congestion", i, 10, 10, &vec![i as f64; 100]);
        }
        let drops = c.drop_stats();
        assert!(drops.frames > 0 && drops.events == 0, "{drops:?}");
        let table = stage_table(&c);
        assert!(table.contains("gp_step"), "{table}");
        assert!(!table.contains("incomplete"), "{table}");
    }

    #[test]
    fn validator_rejects_inconsistent_drop_breakdown() {
        let bad = "{\"type\":\"meta\",\"events\":0,\"dropped\":3,\"dropped_spans\":1,\"dropped_instants\":1,\"dropped_frames\":0}\n";
        let err = validate_trace_jsonl(bad).unwrap_err();
        assert!(err.contains("breakdown"), "{err}");
    }

    #[test]
    fn disabled_collector_exports_are_empty_but_valid() {
        let c = Collector::disabled();
        assert_eq!(export_jsonl(&c), "");
        assert!(validate_chrome_trace(&export_chrome_trace(&c)).is_ok());
        assert_eq!(export_metrics_json(&c), "{}\n");
        assert!(stage_rows(&c).is_empty());
    }
}
