//! Fleet-level service telemetry for `rdp serve`.
//!
//! A [`ServiceMetrics`] is a long-lived, always-enabled [`Collector`]
//! that aggregates what the *server* does — per-protocol-op latency
//! histograms (the same IEEE-754 log-2 buckets the flow uses), lifecycle
//! counters (submits, completions, failures, retries, requeues,
//! cancellations, quarantined records, frame-limit and connection-slot
//! rejections), and point-in-time gauges (queue depth, running jobs, live
//! connections, uptime).
//!
//! Two disciplines keep this compatible with the determinism contract:
//!
//! * **Live state is read-side only.** `stats`/`watch` responses read a
//!   running job's [`Collector`] through [`Collector::with_metrics`] /
//!   [`Collector::since`] — snapshots under the collector mutex, never a
//!   write into flow state. A job polled continuously produces bitwise
//!   the same placement as an unobserved one.
//! * **Exported sessions reuse the run schema.** On drain the server
//!   writes its lifetime metrics through the standard exporters
//!   ([`rdp_obs::export_jsonl`] / [`rdp_obs::export_metrics_json`]) into
//!   `<dir>/service/`, so `rdp report` ingests a service session exactly
//!   like a run directory.
//!
//! The `stats` response shape is versioned ([`STATS_VERSION`]) and
//! checked by [`validate_stats_json`] — the CI smoke test validates
//! every scrape.

use std::sync::Arc;
use std::time::Instant;

use rdp_obs::json::{self, Value};
use rdp_obs::{export_metrics_json, Collector, Event};

use crate::job::{jstr, JobRecord, JobState};
use crate::protocol::{Request, PROTOCOL_VERSION};
use crate::store::RecoveryReport;
use crate::worker::JobControl;

/// Version of the `stats` response schema. Bumped when field names or
/// shapes change incompatibly; [`validate_stats_json`] pins it.
pub const STATS_VERSION: u64 = 1;

/// The server's own version string (reported by `ping` and `stats`).
pub const SERVER_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Event-ring capacity for the service collector: the server records
/// lifecycle instants, not per-iteration flow events, so a small ring
/// holds hours of traffic.
const SERVICE_EVENT_CAPACITY: usize = 1 << 14;

/// Series names surfaced in per-job live snapshots when no explicit
/// filter is given: HPWL, the density overflow of every GP step and the
/// routed overflow of every routability iteration.
pub const CANONICAL_SERIES: [&str; 3] = ["hpwl", "gp_overflow", "route_overflow"];

/// Cap on points returned per series in one `stats`/`watch` response.
/// Responses carry the tail (newest points) plus the series total, so a
/// poller can detect truncation and page with `after_step`.
pub const SERIES_TAIL_CAP: usize = 64;

/// Long-lived server telemetry: one enabled collector plus the start
/// instant for uptime. Cheap to clone (the collector is an `Arc`).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    col: Collector,
    started: Instant,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// A fresh, enabled service collector.
    pub fn new() -> Self {
        ServiceMetrics {
            col: Collector::with_capacity(SERVICE_EVENT_CAPACITY),
            started: Instant::now(),
        }
    }

    /// The underlying collector (exporters read it on drain).
    pub fn collector(&self) -> &Collector {
        &self.col
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Bump a lifecycle counter.
    pub fn incr(&self, name: &'static str) {
        self.col.counter_add(name, 1);
    }

    /// Add `delta` to a lifecycle counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if delta > 0 {
            self.col.counter_add(name, delta);
        }
    }

    /// Record one protocol op's latency into its per-op histogram.
    pub fn observe_op(&self, op: &'static str, elapsed_ms: f64) {
        self.col.observe(op, elapsed_ms);
    }

    /// Record a lifecycle instant (visible in the exported service trace).
    pub fn instant(&self, name: &'static str, detail: impl Into<String>) {
        self.col.instant(name, rdp_obs::NO_ITER, detail);
    }

    /// Refresh the point-in-time gauges. Called before every snapshot and
    /// before the drain export, so both always carry current values.
    pub fn set_gauges(&self, queue_depth: usize, running: usize, connections: usize) {
        self.col.gauge_set("queue_depth", queue_depth as f64);
        self.col.gauge_set("running_jobs", running as f64);
        self.col.gauge_set("connections", connections as f64);
        self.col.gauge_set("uptime_ms", self.uptime_ms() as f64);
    }

    /// Seed lifetime counters from the recovered store at startup, so
    /// counters are monotonic across restarts: terminal records found on
    /// disk are *re-counted once* (they will not run again), and killed
    /// `running` jobs count as requeues, exactly what recovery did.
    pub fn seed_from_records(
        &self,
        records: &std::collections::BTreeMap<u64, JobRecord>,
        recovery: &RecoveryReport,
    ) {
        let mut done = 0u64;
        let mut failed = 0u64;
        let mut cancelled = 0u64;
        for rec in records.values() {
            match rec.state {
                JobState::Done => done += 1,
                JobState::Failed => failed += 1,
                JobState::Cancelled => cancelled += 1,
                JobState::Queued | JobState::Running => {}
            }
        }
        // Every record on disk was once a submit.
        self.add("submits", records.len() as u64);
        self.add("completions", done);
        self.add("failures", failed);
        self.add("cancellations", cancelled);
        self.add("requeues", recovery.requeued_running as u64);
        self.add("quarantined", recovery.quarantined.len() as u64);
        if recovery.recovered > 0 {
            self.instant(
                "recovery",
                format!(
                    "recovered {} records ({} requeued, {} quarantined)",
                    recovery.recovered,
                    recovery.requeued_running,
                    recovery.quarantined.len()
                ),
            );
        }
    }

    /// Monotonic fleet-activity cursor: the sum of the lifecycle counters
    /// a fleet `watch` cares about. Any submit, settle, retry, requeue, or
    /// cancellation advances it, so a long-poll can wait on `activity() >
    /// seq` and never miss a transition.
    pub fn activity(&self) -> u64 {
        self.col
            .with_metrics(|m| {
                [
                    "submits",
                    "completions",
                    "failures",
                    "cancellations",
                    "retries",
                    "requeues",
                ]
                .iter()
                .map(|k| m.counters.get(*k).copied().unwrap_or(0))
                .sum()
            })
            .unwrap_or(0)
    }

    /// Render the full `stats` response. `jobs` are pre-rendered per-job
    /// objects (see [`job_live_json`]); gauges must already be refreshed.
    pub fn stats_json(&self, draining: bool, jobs: &[String]) -> String {
        let service = export_metrics_json(&self.col);
        let drops = self.col.drop_stats();
        format!(
            "{{\"ok\":true,\"stats_version\":{STATS_VERSION},\
             \"server_version\":{},\"protocol_version\":{PROTOCOL_VERSION},\
             \"uptime_ms\":{},\"draining\":{draining},\
             \"service\":{},\
             \"drops\":{{\"events\":{},\"spans\":{},\"instants\":{},\"frames\":{}}},\
             \"jobs\":[{}]}}",
            jstr(SERVER_VERSION),
            self.uptime_ms(),
            service.trim_end(),
            drops.events,
            drops.spans,
            drops.instants,
            drops.frames,
            jobs.join(",")
        )
    }
}

/// Stable per-op histogram name for a request (latency in milliseconds).
pub fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Ping => "op_ping_ms",
        Request::Submit(_) => "op_submit_ms",
        Request::Status(_) => "op_status_ms",
        Request::Cancel(_) => "op_cancel_ms",
        Request::Result(..) => "op_result_ms",
        Request::Stats => "op_stats_ms",
        Request::Watch(_) => "op_watch_ms",
        Request::Shutdown => "op_shutdown_ms",
    }
}

/// Append `"series":{...}` live-series tails (and a per-kind drop object
/// when anything dropped) read from a job's collector. `filter` restricts
/// the series names; empty means [`CANONICAL_SERIES`]. With `after_step`
/// only points past that step are returned (`watch` deltas); without it,
/// the newest [`SERIES_TAIL_CAP`] points. Returns whether any point was
/// rendered. Read-side only: one lock hold, no flow-visible effect.
fn push_live_series(
    out: &mut String,
    col: &Collector,
    filter: &[String],
    after_step: Option<u64>,
) -> bool {
    let mut any_points = false;
    let rendered = col.with_metrics(|m| {
        let mut parts = Vec::new();
        for (name, points) in &m.series {
            let wanted = if filter.is_empty() {
                CANONICAL_SERIES.contains(name)
            } else {
                filter.iter().any(|f| f == name)
            };
            if !wanted || points.is_empty() {
                continue;
            }
            let delta: Vec<(u64, f64)> = match after_step {
                Some(s) => points
                    .iter()
                    .filter(|(step, _)| *step > s)
                    .copied()
                    .collect(),
                None => points.to_vec(),
            };
            if after_step.is_some() && delta.is_empty() {
                continue;
            }
            let tail = &delta[delta.len().saturating_sub(SERIES_TAIL_CAP)..];
            any_points |= !tail.is_empty();
            let pts: Vec<String> = tail
                .iter()
                .map(|(step, v)| format!("[{step},{}]", json::num(*v)))
                .collect();
            parts.push(format!(
                "\"{}\":{{\"total\":{},\"points\":[{}]}}",
                json::escape(name),
                points.len(),
                pts.join(",")
            ));
        }
        parts.join(",")
    });
    if let Some(series) = rendered {
        out.push_str(&format!(",\"series\":{{{series}}}"));
    }
    let drops = col.drop_stats();
    if drops.any() {
        out.push_str(&format!(
            ",\"drops\":{{\"events\":{},\"spans\":{},\"instants\":{},\"frames\":{}}}",
            drops.events, drops.spans, drops.instants, drops.frames
        ));
    }
    any_points
}

/// One job's live snapshot object for `stats`/`watch`: identity + state +
/// checkpoint progress, and for a running captured job the in-flight
/// collector's convergence-series tails and per-kind drop accounting.
pub fn job_live_json(rec: &JobRecord, ctl: Option<&Arc<JobControl>>, filter: &[String]) -> String {
    let mut out = format!(
        "{{\"id\":{},\"state\":{},\"attempt\":{},\"consumed_ms\":{}",
        rec.id,
        jstr(rec.state.label()),
        rec.attempt,
        rec.consumed_ms
    );
    if let Some(res) = &rec.result {
        out.push_str(&format!(
            ",\"hpwl\":{},\"density_overflow\":{}",
            json::num(res.hpwl),
            json::num(res.density_overflow)
        ));
    }
    if let Some((kind, _)) = &rec.error {
        out.push_str(&format!(",\"kind\":{}", jstr(kind)));
    }
    if let Some(ctl) = ctl {
        let p = *ctl.progress.lock().unwrap();
        out.push_str(&format!(
            ",\"route_iter\":{},\"progress_hpwl\":{},\"progress_overflow\":{}",
            p.route_iter,
            json::num(p.hpwl),
            json::num(p.overflow)
        ));
        let col = ctl.obs.lock().unwrap().clone();
        push_live_series(&mut out, &col, filter, None);
    }
    out.push('}');
    out
}

/// Cap on trace events returned in one `watch` response frame; a poller
/// that fell behind pages through the backlog via the returned `seq`.
pub const WATCH_EVENT_CAP: usize = 512;

fn event_json(ev: &Event) -> String {
    match ev {
        Event::Span {
            name,
            cat,
            tid,
            start_ns,
            dur_ns,
            iter,
        } => format!(
            "{{\"type\":\"span\",\"name\":{},\"cat\":{},\"tid\":{tid},\
             \"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"iter\":{iter}}}",
            jstr(name),
            jstr(cat)
        ),
        Event::Instant {
            name,
            detail,
            tid,
            ts_ns,
            iter,
        } => format!(
            "{{\"type\":\"instant\",\"name\":{},\"detail\":{},\"tid\":{tid},\
             \"ts_ns\":{ts_ns},\"iter\":{iter}}}",
            jstr(name),
            jstr(detail)
        ),
    }
}

/// One job `watch` response: live status + series points past
/// `after_step` + trace events past the `seq` cursor (capped at
/// [`WATCH_EVENT_CAP`]; the returned `seq` resumes a truncated read),
/// plus `done` once the job is terminal. Returns `(json, next_seq,
/// has_news)` — `has_news` is false when nothing moved past the cursors,
/// letting the server keep the long-poll open.
pub fn job_watch_json(
    rec: &JobRecord,
    ctl: Option<&Arc<JobControl>>,
    p: &crate::protocol::WatchParams,
) -> (String, u64, bool) {
    let terminal = rec.state.is_terminal();
    let mut core = format!(
        "{{\"id\":{},\"state\":{},\"attempt\":{},\"consumed_ms\":{}",
        rec.id,
        jstr(rec.state.label()),
        rec.attempt,
        rec.consumed_ms
    );
    let col = ctl.map(|c| c.obs.lock().unwrap().clone());
    let mut series_news = false;
    if let Some(ctl) = ctl {
        let pr = *ctl.progress.lock().unwrap();
        core.push_str(&format!(
            ",\"route_iter\":{},\"progress_hpwl\":{},\"progress_overflow\":{}",
            pr.route_iter,
            json::num(pr.hpwl),
            json::num(pr.overflow)
        ));
    }
    if let Some(col) = &col {
        // No `after_step` means "send me the current tails" — which always
        // counts as news on the first poll; pollers pass the cursor back
        // to get true deltas afterwards.
        series_news = push_live_series(&mut core, col, &p.series, p.after_step);
    }
    core.push('}');
    let (events, first_seq, next_seq) = match col.as_ref().and_then(|c| c.since(p.seq)) {
        Some(delta) => {
            let kept = delta.events.len().min(WATCH_EVENT_CAP);
            let next = if kept < delta.events.len() {
                // Truncated: resume exactly after the last returned event.
                delta.first_seq + kept as u64 - 1
            } else {
                delta.high_seq
            };
            let rendered: Vec<String> = delta.events[..kept].iter().map(event_json).collect();
            (rendered.join(","), delta.first_seq, next)
        }
        // Disabled collector (no capture): no event stream, cursor parks.
        None => (String::new(), p.seq + 1, p.seq),
    };
    let has_news = terminal || series_news || !events.is_empty();
    let json = format!(
        "{{\"ok\":true,\"job\":{core},\"seq\":{next_seq},\"first_seq\":{first_seq},\
         \"events\":[{events}],\"done\":{terminal}}}"
    );
    (json, next_seq, has_news)
}

/// Summary returned by a successful [`validate_stats_json`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSummary {
    /// Number of per-job entries.
    pub jobs: usize,
    /// Sum over all lifecycle counters.
    pub counter_total: u64,
    /// Total observations across the per-op latency histograms.
    pub op_observations: u64,
}

fn req_num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("stats: missing or non-numeric `{key}`"))
}

/// Validate a `stats` response against the [`STATS_VERSION`] schema:
/// envelope fields present and typed, the embedded service metrics doc
/// structurally sound (histogram invariants included), per-kind drops
/// numeric, and every job entry carrying a known state label. Returns a
/// small summary on success, a diagnostic string on the first violation.
pub fn validate_stats_json(text: &str) -> Result<StatsSummary, String> {
    let v = json::parse(text).map_err(|e| format!("stats: bad JSON: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err("stats: `ok` is not true".into());
    }
    let version = req_num(&v, "stats_version")? as u64;
    if version != STATS_VERSION {
        return Err(format!(
            "stats: version {version} does not match supported {STATS_VERSION}"
        ));
    }
    v.get("server_version")
        .and_then(Value::as_str)
        .ok_or("stats: missing `server_version`")?;
    req_num(&v, "protocol_version")?;
    req_num(&v, "uptime_ms")?;
    if !matches!(v.get("draining"), Some(Value::Bool(_))) {
        return Err("stats: missing boolean `draining`".into());
    }

    let service = v.get("service").ok_or("stats: missing `service` object")?;
    let mut counter_total = 0u64;
    let mut op_observations = 0u64;
    match service.get("counters") {
        Some(Value::Obj(counters)) => {
            for (name, val) in counters {
                let n = val
                    .as_f64()
                    .ok_or_else(|| format!("stats: counter `{name}` is not numeric"))?;
                counter_total += n as u64;
            }
        }
        _ => return Err("stats: `service.counters` is not an object".into()),
    }
    if !matches!(service.get("gauges"), Some(Value::Obj(_))) {
        return Err("stats: `service.gauges` is not an object".into());
    }
    match service.get("histograms") {
        Some(Value::Obj(hists)) => {
            for (name, h) in hists {
                let count = req_num(h, "count")? as u64;
                let zeros = req_num(h, "zeros")? as u64;
                let non_finite = req_num(h, "non_finite")? as u64;
                let bucketed: u64 = match h.get("log2_buckets") {
                    Some(Value::Obj(buckets)) => buckets
                        .values()
                        .map(|c| c.as_f64().unwrap_or(0.0) as u64)
                        .sum(),
                    _ => {
                        return Err(format!(
                            "stats: histogram `{name}` is missing `log2_buckets`"
                        ))
                    }
                };
                if count != zeros + non_finite + bucketed {
                    return Err(format!(
                        "stats: histogram `{name}` breaks its invariant \
                         ({count} != {zeros} + {non_finite} + {bucketed})"
                    ));
                }
                if name.starts_with("op_") {
                    op_observations += count;
                }
            }
        }
        _ => return Err("stats: `service.histograms` is not an object".into()),
    }
    if !matches!(service.get("series"), Some(Value::Obj(_))) {
        return Err("stats: `service.series` is not an object".into());
    }

    let drops = v.get("drops").ok_or("stats: missing `drops` object")?;
    for key in ["events", "spans", "instants", "frames"] {
        req_num(drops, key)?;
    }

    let jobs = match v.get("jobs") {
        Some(Value::Arr(jobs)) => jobs,
        _ => return Err("stats: `jobs` is not an array".into()),
    };
    for job in jobs {
        let id = req_num(job, "id")? as u64;
        let state = job
            .get("state")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("stats: job {id} is missing `state`"))?;
        if JobState::from_label(state).is_none() {
            return Err(format!("stats: job {id} has unknown state `{state}`"));
        }
        req_num(job, "attempt")?;
        req_num(job, "consumed_ms")?;
    }
    Ok(StatsSummary {
        jobs: jobs.len(),
        counter_total,
        op_observations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    #[test]
    fn stats_json_passes_its_own_validator() {
        let m = ServiceMetrics::new();
        m.incr("submits");
        m.incr("completions");
        m.observe_op("op_ping_ms", 0.2);
        m.observe_op("op_submit_ms", 1.5);
        m.set_gauges(3, 1, 2);
        let rec = JobRecord::queued(7, JobSpec::default());
        let jobs = vec![job_live_json(&rec, None, &[])];
        let text = m.stats_json(false, &jobs);
        let summary = validate_stats_json(&text).expect("schema-valid stats");
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.counter_total, 2);
        assert_eq!(summary.op_observations, 2);
    }

    #[test]
    fn validator_rejects_broken_envelopes() {
        let m = ServiceMetrics::new();
        m.set_gauges(0, 0, 0);
        let good = m.stats_json(false, &[]);
        for (mangle, why) in [
            (good.replace("\"ok\":true", "\"ok\":false"), "ok"),
            (
                good.replace("\"stats_version\":1", "\"stats_version\":99"),
                "version",
            ),
            (
                good.replace("\"draining\":false", "\"draining\":3"),
                "drain",
            ),
            (good.replace("\"jobs\":[]", "\"jobs\":{}"), "jobs"),
        ] {
            assert!(validate_stats_json(&mangle).is_err(), "{why} not caught");
        }
        assert!(validate_stats_json("not json").is_err());
    }

    #[test]
    fn validator_catches_histogram_invariant_breaks() {
        let m = ServiceMetrics::new();
        m.observe_op("op_ping_ms", 1.0);
        m.set_gauges(0, 0, 0);
        let good = m.stats_json(false, &[]);
        let broken = good.replace("\"count\": 1", "\"count\": 5");
        assert!(validate_stats_json(&broken).is_err());
    }

    #[test]
    fn job_live_json_carries_series_tails_and_drops() {
        let rec = JobRecord {
            state: JobState::Running,
            ..JobRecord::queued(3, JobSpec::default())
        };
        let ctl = Arc::new(JobControl::default());
        let col = Collector::with_capacity(4);
        for i in 0..100 {
            col.series_push("hpwl", i, 1000.0 - i as f64);
            col.instant("tick", rdp_obs::NO_ITER, "");
        }
        col.series_push("not_canonical", 0, 1.0);
        *ctl.obs.lock().unwrap() = col;
        let text = job_live_json(&rec, Some(&ctl), &[]);
        let v = json::parse(&text).unwrap();
        let series = v.get("series").expect("series object");
        let hpwl = series.get("hpwl").expect("canonical series");
        assert_eq!(hpwl.get("total").and_then(Value::as_f64), Some(100.0));
        match hpwl.get("points") {
            Some(Value::Arr(pts)) => assert_eq!(pts.len(), SERIES_TAIL_CAP),
            other => panic!("points not an array: {other:?}"),
        }
        assert!(series.get("not_canonical").is_none());
        // The tiny ring dropped instants; the per-kind breakdown surfaces.
        let drops = v.get("drops").expect("drops object");
        assert!(drops.get("instants").and_then(Value::as_f64).unwrap() > 0.0);

        // An explicit filter overrides the canonical set.
        let filtered = job_live_json(&rec, Some(&ctl), &["not_canonical".to_string()]);
        let v = json::parse(&filtered).unwrap();
        assert!(v.get("series").unwrap().get("hpwl").is_none());
        assert!(v.get("series").unwrap().get("not_canonical").is_some());
    }
}
