//! Run ingestion: the obs artifacts (trace JSONL + metrics JSON) parsed
//! into one [`RunModel`] that the renderer, the differ and the stage
//! table share. This is the only reader of `trace.jsonl`.
//!
//! Ingestion is strict: both inputs were written by `rdp-obs` exporters,
//! so anything malformed — truncated trace, wrong types, missing meta —
//! is hostile or corrupt and surfaces as a typed [`RdpError::Parse`]
//! rather than a panic or a silently-empty model.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use rdp_guard::RdpError;
use rdp_obs::json::{self, Value};
use rdp_obs::{export_jsonl, export_metrics_json, Collector};

/// One completed span from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Stage name ("route", "gp_step", …).
    pub name: String,
    /// Layer the span belongs to ("gp", "route", "flow", …).
    pub cat: String,
    /// Stable per-OS-thread id.
    pub tid: u64,
    /// Start offset from collector creation, nanoseconds.
    pub ts_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Routability iteration, when the span was tagged with one.
    pub iter: Option<u64>,
}

/// One point event (warning, rollback, checkpoint, …) from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRec {
    /// Event name ("guard_warning", "rollback", "checkpoint", …).
    pub name: String,
    /// Free-form message attached at record time.
    pub detail: String,
    /// Offset from collector creation, nanoseconds.
    pub ts_ns: u64,
    /// Routability iteration, when tagged with one.
    pub iter: Option<u64>,
}

/// One captured 2-D field snapshot from the metrics document.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRec {
    /// Field name ("congestion", "density", …).
    pub name: String,
    /// Routability iteration the snapshot belongs to.
    pub iter: Option<u64>,
    /// Downsampled columns.
    pub nx: usize,
    /// Downsampled rows.
    pub ny: usize,
    /// Row-major `ny * nx` values.
    pub data: Vec<f64>,
}

/// One row of the per-stage time table: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Span name.
    pub name: String,
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// `total_ns / calls`, nanoseconds.
    pub mean_ns: u64,
    /// `total_ns` as a percentage of the wall time, the latest span end.
    /// Spans nest, so the column can sum past 100.
    pub pct_of_wall: f64,
}

/// Histogram summary (the sparse buckets are not needed for reporting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Finite observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramSummary {
    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything one run's obs artifacts contain, ready for rendering or
/// diffing. Constructed from exporter strings, from a live collector, or
/// from a run directory on disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunModel {
    /// Completed spans in trace order.
    pub spans: Vec<SpanRec>,
    /// Point events in trace order.
    pub instants: Vec<InstantRec>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, f64>,
    /// Last-write gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Convergence series: name → `(step, value)` points in push order.
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
    /// Captured congestion/density frames, oldest first.
    pub frames: Vec<FrameRec>,
    /// Events evicted from the collector's ring buffer.
    pub dropped_events: u64,
    /// Evicted events that were spans (from the trace's `meta` line).
    pub dropped_spans: u64,
    /// Evicted events that were instants (from the trace's `meta` line).
    pub dropped_instants: u64,
    /// Frames evicted by the frame byte budget.
    pub dropped_frames: u64,
    /// Torn-write leftovers (`*.tmp` siblings) found in the run directory:
    /// evidence the producing run was killed mid-capture. The artifacts
    /// that did land are intact (writes are tmp + rename), so the model
    /// loads normally, but reports should surface the partial-run warning.
    pub partial_artifacts: Vec<String>,
}

fn perr(context: &str, line: Option<usize>, message: impl Into<String>) -> RdpError {
    RdpError::Parse {
        context: context.to_string(),
        line,
        message: message.into(),
    }
}

fn opt_iter(v: &Value) -> Option<u64> {
    match v.get("iter") {
        Some(Value::Num(n)) if *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn req_str(v: &Value, key: &str, ctx: &str, line: Option<usize>) -> Result<String, RdpError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| perr(ctx, line, format!("missing string field \"{key}\"")))
}

fn req_num(v: &Value, key: &str, ctx: &str, line: Option<usize>) -> Result<f64, RdpError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| perr(ctx, line, format!("missing numeric field \"{key}\"")))
}

impl RunModel {
    /// Build a model from exporter output strings. `trace` may be absent
    /// (metrics-only runs still render a partial report); `metrics` is the
    /// metrics JSON document.
    pub fn from_strings(trace: Option<&str>, metrics: &str) -> Result<RunModel, RdpError> {
        let mut model = RunModel::default();
        if let Some(trace) = trace {
            model.ingest_trace(trace)?;
        }
        model.ingest_metrics(metrics)?;
        Ok(model)
    }

    /// Snapshot a live collector through its own exporters, so the model
    /// seen by an in-process report is byte-identical to what a run
    /// directory on disk would have produced. A disabled collector yields
    /// an empty model.
    pub fn from_collector(col: &Collector) -> Result<RunModel, RdpError> {
        if !col.is_enabled() {
            return Ok(RunModel::default());
        }
        Self::from_strings(Some(&export_jsonl(col)), &export_metrics_json(col))
    }

    /// Load a run directory written by `rdp … --run-dir DIR`: reads
    /// `DIR/metrics.json` (required) and `DIR/trace.jsonl` (optional). A
    /// path to a plain file is treated as a metrics document alone.
    pub fn load(path: &Path) -> Result<RunModel, RdpError> {
        let ctx = path.display().to_string();
        if path.is_file() {
            let metrics = std::fs::read_to_string(path)
                .map_err(|e| perr(&ctx, None, format!("cannot read metrics: {e}")))?;
            return Self::from_strings(None, &metrics);
        }
        // Torn-write leftovers first: artifacts are written tmp + rename,
        // so a `.tmp` sibling means the producing run was killed
        // mid-capture. Never panic on them — flag and keep loading.
        let mut partial: Vec<String> = ["trace.jsonl.tmp", "metrics.json.tmp"]
            .iter()
            .filter(|name| path.join(name).is_file())
            .map(|name| name.to_string())
            .collect();
        partial.sort();
        let metrics_path = path.join("metrics.json");
        let metrics = std::fs::read_to_string(&metrics_path).map_err(|e| {
            let hint = if partial.iter().any(|p| p == "metrics.json.tmp") {
                " (a metrics.json.tmp leftover exists: the run was killed mid-capture \
                 before the atomic rename)"
            } else {
                ""
            };
            perr(
                &ctx,
                None,
                format!("cannot read {}: {e}{hint}", metrics_path.display()),
            )
        })?;
        let trace_path = path.join("trace.jsonl");
        let trace = match std::fs::read_to_string(&trace_path) {
            Ok(t) => Some(t),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                return Err(perr(
                    &ctx,
                    None,
                    format!("cannot read {}: {e}", trace_path.display()),
                ))
            }
        };
        let mut model = Self::from_strings(trace.as_deref(), &metrics)?;
        model.partial_artifacts = partial;
        Ok(model)
    }

    /// Spans summed by name, sorted by total time (descending, then by
    /// name): the stage breakdown of a report, the time side of a diff and
    /// the `--profile` table.
    pub fn stage_rows(&self) -> Vec<StageRow> {
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut wall_ns: u64 = 0;
        for s in &self.spans {
            let e = agg.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            wall_ns = wall_ns.max(s.ts_ns + s.dur_ns);
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
    }

    /// [`RunModel::stage_rows`] as the plain-text table `--profile` prints,
    /// with a warning when dropped spans make the totals incomplete.
    pub fn stage_table(&self) -> String {
        let rows = self.stage_rows();
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
        if self.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "(warning: ring buffer dropped {} events: {} spans, {} instants; {} frames evicted — stage totals above are incomplete)",
                self.dropped_events, self.dropped_spans, self.dropped_instants, self.dropped_frames
            );
        }
        out
    }

    /// Distinct routability iterations seen on `route_iter` spans, in
    /// ascending order. The frame-coverage check keys off this.
    pub fn route_iterations(&self) -> Vec<u64> {
        let mut iters: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == "route_iter")
            .filter_map(|s| s.iter)
            .collect();
        iters.sort_unstable();
        iters.dedup();
        iters
    }

    /// Reads the JSONL trace in one pass. Every line is a JSON object of
    /// a known `type` with its required fields, span timing is
    /// non-negative, and exactly one `meta` line ends the trace: its
    /// `events` counts the lines before it and its optional drop
    /// breakdown adds up to `dropped`.
    fn ingest_trace(&mut self, trace: &str) -> Result<(), RdpError> {
        const CTX: &str = "trace.jsonl";
        let mut meta_seen = false;
        let mut last_line = 0;
        for (idx, line) in trace.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let line_no = Some(idx + 1);
            last_line = idx + 1;
            if meta_seen {
                return Err(perr(CTX, line_no, "content after meta line"));
            }
            let v = json::parse(line).map_err(|e| perr(CTX, line_no, e.to_string()))?;
            match req_str(&v, "type", CTX, line_no)?.as_str() {
                "span" => {
                    let name = req_str(&v, "name", CTX, line_no)?;
                    let cat = req_str(&v, "cat", CTX, line_no)?;
                    let tid = req_num(&v, "tid", CTX, line_no)?;
                    let ts = req_num(&v, "ts_ns", CTX, line_no)?;
                    let dur = req_num(&v, "dur_ns", CTX, line_no)?;
                    if ts < 0.0 || dur < 0.0 {
                        return Err(perr(CTX, line_no, "negative span timing"));
                    }
                    self.spans.push(SpanRec {
                        name,
                        cat,
                        tid: tid as u64,
                        ts_ns: ts as u64,
                        dur_ns: dur as u64,
                        iter: opt_iter(&v),
                    });
                }
                "instant" => {
                    let name = req_str(&v, "name", CTX, line_no)?;
                    let detail = req_str(&v, "detail", CTX, line_no)?;
                    req_num(&v, "tid", CTX, line_no)?;
                    let ts = req_num(&v, "ts_ns", CTX, line_no)?;
                    self.instants.push(InstantRec {
                        name,
                        detail,
                        ts_ns: ts as u64,
                        iter: opt_iter(&v),
                    });
                }
                "meta" => {
                    let events = req_num(&v, "events", CTX, line_no)? as u64;
                    self.dropped_events = req_num(&v, "dropped", CTX, line_no)? as u64;
                    let opt = |key: &str| v.get(key).and_then(Value::as_f64).map(|n| n as u64);
                    // The breakdown is optional but must reconcile when present.
                    if let Some(spans) = opt("dropped_spans") {
                        self.dropped_spans = spans;
                        self.dropped_instants = opt("dropped_instants").unwrap_or(0);
                        self.dropped_frames = opt("dropped_frames").unwrap_or(0);
                        if spans + self.dropped_instants != self.dropped_events {
                            return Err(perr(
                                CTX,
                                line_no,
                                format!(
                                    "drop breakdown {spans} + {} does not equal dropped {}",
                                    self.dropped_instants, self.dropped_events
                                ),
                            ));
                        }
                    }
                    let recorded = (self.spans.len() + self.instants.len()) as u64;
                    if events != recorded {
                        return Err(perr(
                            CTX,
                            line_no,
                            format!("meta says {events} events but {recorded} lines precede"),
                        ));
                    }
                    meta_seen = true;
                }
                other => {
                    return Err(perr(
                        CTX,
                        line_no,
                        format!("unknown event type \"{other}\""),
                    ))
                }
            }
        }
        if !meta_seen {
            return Err(perr(CTX, Some(last_line + 1), "missing trailing meta line"));
        }
        Ok(())
    }

    fn ingest_metrics(&mut self, metrics: &str) -> Result<(), RdpError> {
        const CTX: &str = "metrics.json";
        let doc = json::parse(metrics).map_err(|e| perr(CTX, None, e.to_string()))?;
        if !matches!(doc, Value::Obj(_)) {
            return Err(perr(CTX, None, "top level is not an object"));
        }
        // A disabled-collector export is `{}`; every section is optional
        // but must have the right type when present.
        if let Some(n) = doc.get("dropped_events") {
            self.dropped_events = n
                .as_f64()
                .ok_or_else(|| perr(CTX, None, "dropped_events is not a number"))?
                as u64;
        }
        if let Some(n) = doc.get("dropped_frames") {
            self.dropped_frames = n
                .as_f64()
                .ok_or_else(|| perr(CTX, None, "dropped_frames is not a number"))?
                as u64;
        }
        if let Some(c) = doc.get("counters") {
            for (k, v) in obj_entries(c, "counters")? {
                let n = v
                    .as_f64()
                    .ok_or_else(|| perr(CTX, None, format!("counter \"{k}\" is not a number")))?;
                self.counters.insert(k.clone(), n);
            }
        }
        if let Some(g) = doc.get("gauges") {
            for (k, v) in obj_entries(g, "gauges")? {
                let n = v
                    .as_f64()
                    .ok_or_else(|| perr(CTX, None, format!("gauge \"{k}\" is not a number")))?;
                self.gauges.insert(k.clone(), n);
            }
        }
        if let Some(h) = doc.get("histograms") {
            for (k, v) in obj_entries(h, "histograms")? {
                self.histograms.insert(
                    k.clone(),
                    HistogramSummary {
                        count: req_num(v, "count", CTX, None)? as u64,
                        sum: req_num(v, "sum", CTX, None)?,
                        min: req_num(v, "min", CTX, None)?,
                        max: req_num(v, "max", CTX, None)?,
                    },
                );
            }
        }
        if let Some(s) = doc.get("series") {
            for (k, v) in obj_entries(s, "series")? {
                let arr = v
                    .as_arr()
                    .ok_or_else(|| perr(CTX, None, format!("series \"{k}\" is not an array")))?;
                let mut points = Vec::with_capacity(arr.len());
                for p in arr {
                    let pair = p.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                        perr(CTX, None, format!("series \"{k}\" point is not a pair"))
                    })?;
                    let step = pair[0].as_f64().ok_or_else(|| {
                        perr(CTX, None, format!("series \"{k}\" step is not a number"))
                    })?;
                    let val = pair[1].as_f64().ok_or_else(|| {
                        perr(CTX, None, format!("series \"{k}\" value is not a number"))
                    })?;
                    points.push((step as u64, val));
                }
                self.series.insert(k.clone(), points);
            }
        }
        if let Some(f) = doc.get("frames") {
            let arr = f
                .as_arr()
                .ok_or_else(|| perr(CTX, None, "frames is not an array"))?;
            for fr in arr {
                let nx = req_num(fr, "nx", CTX, None)? as usize;
                let ny = req_num(fr, "ny", CTX, None)? as usize;
                let data_v = fr
                    .get("data")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| perr(CTX, None, "frame data is not an array"))?;
                let data: Vec<f64> = data_v.iter().filter_map(Value::as_f64).collect();
                if data.len() != data_v.len() || data.len() != nx * ny {
                    return Err(perr(
                        CTX,
                        None,
                        format!(
                            "frame data length {} does not match {}x{}",
                            data_v.len(),
                            nx,
                            ny
                        ),
                    ));
                }
                self.frames.push(FrameRec {
                    name: req_str(fr, "name", CTX, None)?,
                    iter: opt_iter(fr),
                    nx,
                    ny,
                    data,
                });
            }
        }
        Ok(())
    }
}

fn obj_entries<'v>(
    v: &'v Value,
    what: &str,
) -> Result<impl Iterator<Item = (&'v String, &'v Value)>, RdpError> {
    match v {
        Value::Obj(m) => Ok(m.iter()),
        _ => Err(perr(
            "metrics.json",
            None,
            format!("{what} is not an object"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_collector() -> Collector {
        let c = Collector::enabled();
        {
            let _f = c.span("flow", "flow");
            let _r = c.span_iter("route_iter", "flow", 0);
        }
        c.instant("guard_warning", 0, "something odd");
        c.counter_add("rollbacks", 1);
        c.gauge_set("final_hpwl", 1234.5);
        c.observe("wa_grad", 2.0);
        c.series_push("hpwl", 0, 1300.0);
        c.series_push("hpwl", 1, 1250.0);
        c.frame("congestion", 0, 3, 2, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        c
    }

    #[test]
    fn round_trips_from_collector() {
        let m = RunModel::from_collector(&traced_collector()).unwrap();
        assert_eq!(m.spans.len(), 2);
        assert_eq!(m.instants.len(), 1);
        assert_eq!(m.gauges["final_hpwl"], 1234.5);
        assert_eq!(m.counters["rollbacks"], 1.0);
        assert_eq!(m.series["hpwl"].len(), 2);
        assert_eq!(m.frames.len(), 1);
        assert_eq!(m.frames[0].data.len(), 6);
        assert_eq!(m.route_iterations(), vec![0]);
        assert_eq!(m.histograms["wa_grad"].count, 1);
    }

    #[test]
    fn disabled_collector_is_empty_model() {
        let m = RunModel::from_collector(&Collector::disabled()).unwrap();
        assert_eq!(m, RunModel::default());
    }

    #[test]
    fn truncated_trace_is_typed_error() {
        let c = traced_collector();
        let trace = export_jsonl(&c);
        let metrics = export_metrics_json(&c);
        // Cut the trace mid-file: the trailing meta line is gone.
        let cut = &trace[..trace.len() / 2];
        let err = RunModel::from_strings(Some(cut), &metrics).unwrap_err();
        assert!(matches!(err, RdpError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn hostile_metrics_are_typed_errors() {
        for bad in [
            "not json",
            "[1, 2]",
            "{\"series\": 5}\n",
            "{\"counters\": {\"x\": \"y\"}}\n",
            "{\"frames\": [{\"name\": \"f\", \"iter\": 0, \"nx\": 4, \"ny\": 4, \"data\": [1.0]}]}\n",
        ] {
            let err = RunModel::from_strings(None, bad).unwrap_err();
            assert!(matches!(err, RdpError::Parse { .. }), "input {bad:?}");
        }
    }

    #[test]
    fn empty_metrics_document_is_fine() {
        let m = RunModel::from_strings(None, "{}\n").unwrap();
        assert_eq!(m, RunModel::default());
    }

    #[test]
    fn stage_rows_aggregate_by_name_and_sort_by_total() {
        let span = |name: &str, ts_ns, dur_ns| SpanRec {
            name: name.into(),
            cat: "t".into(),
            tid: 0,
            ts_ns,
            dur_ns,
            iter: None,
        };
        let m = RunModel {
            spans: vec![
                span("route", 0, 30),
                span("gp_step", 30, 50),
                span("route", 80, 20),
            ],
            ..RunModel::default()
        };
        let rows = m.stage_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["gp_step", "route"]);
        assert_eq!(
            (rows[1].calls, rows[1].total_ns, rows[1].mean_ns),
            (2, 50, 25)
        );
        assert_eq!(rows[0].pct_of_wall, 50.0); // wall = latest span end, 100 ns
        let table = m.stage_table();
        assert!(table.starts_with("stage "), "{table}");
        assert!(
            table.contains("gp_step") && !table.contains("warning"),
            "{table}"
        );
        assert_eq!(RunModel::default().stage_table(), "(no spans recorded)\n");
    }

    #[test]
    fn stage_table_warns_only_when_spans_were_dropped() {
        let c = Collector::with_capacity(2);
        {
            let _a = c.span("gp_step", "gp");
        }
        c.instant("guard_warning", 0, "w1");
        c.instant("rollback", 1, "r1"); // evicts the span
        c.instant("note", 2, "n1"); // evicts the first instant
        let m = RunModel::from_collector(&c).unwrap();
        assert_eq!(
            (m.dropped_events, m.dropped_spans, m.dropped_instants),
            (2, 1, 1)
        );
        let table = m.stage_table();
        assert!(table.contains("warning"), "{table}");
        assert!(table.contains("1 spans, 1 instants"), "{table}");

        // Frames evicted by the byte budget leave the span totals whole.
        let c = Collector::with_capacity_and_frame_budget(64, 2 * 900);
        {
            let _gp = c.span("gp_step", "gp");
        }
        for i in 0..5 {
            c.frame("congestion", i, 10, 10, &vec![i as f64; 100]);
        }
        let m = RunModel::from_collector(&c).unwrap();
        assert!(m.dropped_frames > 0 && m.dropped_events == 0, "{m:?}");
        let table = m.stage_table();
        assert!(table.contains("gp_step"), "{table}");
        assert!(!table.contains("incomplete"), "{table}");
    }

    /// One hostile trace per check the reader makes; each is a typed
    /// parse error naming the offending line.
    #[test]
    fn hostile_traces_are_typed_errors_naming_their_line() {
        // Trace lines as (key, JSON value) pairs, so a case can drop any
        // one field.
        const SPAN: &[(&str, &str)] = &[
            ("type", "\"span\""),
            ("name", "\"route\""),
            ("cat", "\"route\""),
            ("tid", "0"),
            ("ts_ns", "5"),
            ("dur_ns", "7"),
            ("iter", "null"),
        ];
        const INSTANT: &[(&str, &str)] = &[
            ("type", "\"instant\""),
            ("name", "\"rollback\""),
            ("detail", "\"d\""),
            ("tid", "0"),
            ("ts_ns", "9"),
            ("iter", "1"),
        ];
        const META: &[(&str, &str)] = &[("type", "\"meta\""), ("events", "0"), ("dropped", "0")];
        let line = |fields: &[(&str, &str)], skip: &str| {
            let body: Vec<String> = fields
                .iter()
                .filter(|(k, _)| *k != skip)
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        let (span, instant) = (line(SPAN, ""), line(INSTANT, ""));
        let meta = |events: usize| format!(r#"{{"type":"meta","events":{events},"dropped":0}}"#);
        let mut cases: Vec<(String, usize, String)> =
            vec![
            (
                format!("{span}\n{}\n{span}\n", meta(1)),
                3,
                "content after meta line".into(),
            ),
            (
                r#"{"type":"counter","name":"x"}"#.into(),
                1,
                "unknown event type \"counter\"".into(),
            ),
            ("not json\n".into(), 1, "json parse error".into()),
            (
                format!("{span}\n{instant}\n"),
                3,
                "missing trailing meta line".into(),
            ),
            (String::new(), 1, "missing trailing meta line".into()),
            (
                format!("{span}\n{}\n", meta(5)),
                2,
                "meta says 5 events but 1 lines precede".into(),
            ),
            (
                r#"{"type":"meta","events":0,"dropped":3,"dropped_spans":1,"dropped_instants":1}"#
                    .into(),
                1,
                "drop breakdown 1 + 1 does not equal dropped 3".into(),
            ),
            (
                span.replace("\"ts_ns\":5", "\"ts_ns\":-5"),
                1,
                "negative span timing".into(),
            ),
            (
                format!("{instant}\n{}\n", span.replace("\"dur_ns\":7", "\"dur_ns\":-7")),
                2,
                "negative span timing".into(),
            ),
        ];
        for (fields, required) in [
            (SPAN, &["type", "name", "cat", "tid", "ts_ns", "dur_ns"][..]),
            (INSTANT, &["name", "detail", "tid", "ts_ns"][..]),
            (META, &["events", "dropped"][..]),
        ] {
            for field in required {
                cases.push((
                    format!("{}\n{}\n", line(fields, field), meta(1)),
                    1,
                    format!("field \"{field}\""),
                ));
            }
        }
        for (trace, want_line, want) in &cases {
            let err = RunModel::from_strings(Some(trace), "{}").unwrap_err();
            match &err {
                RdpError::Parse {
                    context,
                    line: Some(l),
                    message,
                } => {
                    assert_eq!(context, "trace.jsonl", "{trace:?}");
                    assert_eq!(l, want_line, "{trace:?}: {err}");
                    assert!(message.contains(want.as_str()), "{trace:?}: {err}");
                }
                other => panic!("{trace:?}: not a parse error naming its line: {other:?}"),
            }
        }
    }
}
