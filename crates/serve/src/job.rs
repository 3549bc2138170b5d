//! Job model: specs, states, durable records, retry policy.
//!
//! A [`JobRecord`] is the unit of durability — one versioned,
//! FNV-1a-checksummed `RDPSNAP` record per job, rewritten atomically on
//! every state transition. The queue itself is implicit: recovery scans
//! the records and replays them in ascending job-id order, so there is no
//! separate queue file that could tear mid-write.

use std::cell::RefCell;

use rdp_core::{PlacerPreset, RoutabilityConfig};
use rdp_db::Point;
use rdp_guard::{RdpError, SnapshotReader, SnapshotWriter};
use rdp_obs::json::{self, Value};

use crate::protocol::{error_parts, parse_site, ParseSite};

/// A JSON string literal: quoted + escaped.
pub(crate) fn jstr(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// Job lifecycle: `Queued → Running → Done | Failed | Cancelled`. A
/// `Running` record found on disk at startup means the server died
/// mid-job; recovery requeues it (its checkpoint, if any, resumes the
/// flow bitwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing the flow.
    Running,
    /// Completed; the record carries a [`JobResult`].
    Done,
    /// Failed terminally; the record carries the error kind and detail.
    Failed,
    /// Cancelled by a client (or found cancelled on disk).
    Cancelled,
}

impl JobState {
    /// True for states no worker will touch again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Stable lowercase label (wire protocol, durable record and CLI
    /// output).
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// The state whose [`JobState::label`] is `label`.
    pub fn from_label(label: &str) -> Option<Self> {
        use JobState::*;
        [Queued, Running, Done, Failed, Cancelled]
            .into_iter()
            .find(|s| s.label() == label)
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What to place and under which policy: the one description of a flow
/// run. `rdp place`, `rdp flow` and `rdp submit` read their flags into
/// it, the submit request carries it verbatim, and the durable record
/// embeds its JSON, so a restarted server re-runs exactly what was asked.
/// [`flow_config`] turns it into the flow configuration everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Input spec: a suite design name, `bookshelf:DIR:BASE`, or
    /// `lefdef:LEF:DEF` (see [`crate::worker::resolve_input`]).
    pub input: String,
    /// Preset name, as [`PlacerPreset`]'s `FromStr` reads it.
    pub preset: String,
    /// Capture a run directory (trace.jsonl + metrics.json) next to the
    /// job record, compatible with `rdp report` / `rdp diff`.
    pub capture: bool,
    /// Wall-clock budget in milliseconds, enforced at checkpoint
    /// boundaries and accumulated across restarts. `None` = unbounded.
    pub deadline_ms: Option<u64>,
    /// Retry budget for retryable errors (divergence after rollback
    /// exhaustion); each retry re-runs with a damped configuration.
    pub max_retries: u32,
    /// Override `max_route_iters` when set.
    pub max_route_iters: Option<u64>,
    /// Override the wirelength-phase iteration cap when set.
    pub gp_max_iters: Option<u64>,
    /// Override the Nesterov steps per routability iteration when set.
    pub gp_iters_per_route: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            input: String::new(),
            preset: "ours".into(),
            capture: false,
            deadline_ms: None,
            max_retries: 0,
            max_route_iters: None,
            gp_max_iters: None,
            gp_iters_per_route: None,
        }
    }
}

impl JobSpec {
    /// Serializes as the `spec` object of a submit request (and of the
    /// durable record).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"input\":{},\"preset\":{},\"capture\":{},\"max_retries\":{}",
            jstr(&self.input),
            jstr(&self.preset),
            self.capture,
            self.max_retries
        );
        for (key, v) in [
            ("deadline_ms", self.deadline_ms),
            ("max_route_iters", self.max_route_iters),
            ("gp_max_iters", self.gp_max_iters),
            ("gp_iters_per_route", self.gp_iters_per_route),
        ] {
            if let Some(v) = v {
                out.push_str(&format!(",\"{key}\":{v}"));
            }
        }
        out.push('}');
        out
    }

    /// Parses [`JobSpec::to_json`] output. Malformed specs — a key it
    /// does not read (a typo, or a knob this build does not have), a
    /// missing `input`, or a value of the wrong type — are typed
    /// `Protocol` errors naming the key (the *content* is checked by
    /// [`flow_config`]).
    pub fn from_json(v: &Value) -> Result<Self, RdpError> {
        let Value::Obj(obj) = v else {
            return Err(RdpError::protocol("spec must be a JSON object"));
        };
        let read = RefCell::new(Vec::new());
        let get = |key: &'static str| {
            read.borrow_mut().push(key);
            obj.get(key).filter(|v| **v != Value::Null)
        };
        let wrong = |key: &str, what: &str| {
            RdpError::protocol(format!("spec field `{key}` must be {what}"))
        };
        let text = |key| match get(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(wrong(key, "a string")),
        };
        let num = |key| match get(key) {
            None => Ok(None),
            Some(Value::Num(n)) if n.fract() == 0.0 && *n >= 0.0 => Ok(Some(*n as u64)),
            Some(_) => Err(wrong(key, "a non-negative integer")),
        };
        let spec = JobSpec {
            input: text("input")?
                .ok_or_else(|| RdpError::protocol("spec needs a string `input`"))?,
            preset: text("preset")?.unwrap_or_else(|| "ours".into()),
            capture: match get("capture") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err(wrong("capture", "a bool")),
            },
            deadline_ms: num("deadline_ms")?,
            max_retries: num("max_retries")?.unwrap_or(0) as u32,
            max_route_iters: num("max_route_iters")?,
            gp_max_iters: num("gp_max_iters")?,
            gp_iters_per_route: num("gp_iters_per_route")?,
        };
        if let Some(key) = obj.keys().find(|k| !read.borrow().contains(&k.as_str())) {
            return Err(RdpError::protocol(format!(
                "spec has unknown field `{key}`"
            )));
        }
        Ok(spec)
    }
}

/// Final numbers of a completed job. Floats cross the wire through the
/// shortest-round-trip formatter, so `hpwl`, `density_overflow`, and the
/// positions are recovered **bitwise** by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Final HPWL in microns.
    pub hpwl: f64,
    /// Final density overflow.
    pub density_overflow: f64,
    /// Wirelength-phase iterations.
    pub gp_iterations: u64,
    /// Routability iterations.
    pub route_iterations: u64,
    /// Placement wall-clock of the *final* attempt in seconds
    /// (informational; not part of the determinism contract).
    pub place_seconds: f64,
    /// Degraded-mode warnings, as display strings.
    pub warnings: Vec<String>,
    /// Final positions of every cell.
    pub positions: Vec<Point>,
}

/// One durable job: spec + lifecycle + outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Monotonically increasing id; queue order is ascending id.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// What to run.
    pub spec: JobSpec,
    /// Retry attempts consumed so far (0 = first run).
    pub attempt: u32,
    /// Wall-clock milliseconds consumed across all attempts and restarts;
    /// deadlines are enforced against this total, so a crash-restart
    /// cycle cannot launder a job's budget.
    pub consumed_ms: u64,
    /// Terminal error as `(kind, detail)` when `state == Failed`.
    pub error: Option<(String, String)>,
    /// Context and line of a terminal `Parse` error.
    pub parse_site: Option<ParseSite>,
    /// Result when `state == Done`.
    pub result: Option<JobResult>,
}

impl JobRecord {
    /// Record format version. [`JobRecord::from_bytes`] reads this version
    /// only, so a record written by a build with another version is a
    /// typed `Checkpoint` error and `Store::scan` quarantines it.
    pub const VERSION: u32 = 5;

    /// A fresh queued record.
    pub fn queued(id: u64, spec: JobSpec) -> Self {
        JobRecord {
            id,
            state: JobState::Queued,
            spec,
            attempt: 0,
            consumed_ms: 0,
            error: None,
            parse_site: None,
            result: None,
        }
    }

    /// Records `e` as the terminal error in its wire form, or clears the
    /// error with `None`.
    pub fn set_error(&mut self, e: Option<&RdpError>) {
        self.error = e.map(|e| {
            let (kind, detail) = error_parts(e);
            (kind.to_string(), detail)
        });
        self.parse_site = e.and_then(parse_site);
    }

    /// Serializes into the versioned, checksummed `RDPSNAP` format. The
    /// spec travels as its wire JSON ([`JobSpec::to_json`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(Self::VERSION);
        w.put_u64(self.id);
        w.put_str(self.state.label());
        w.put_u64(self.attempt as u64);
        w.put_u64(self.consumed_ms);
        w.put_str(&self.spec.to_json());
        match &self.error {
            Some((kind, detail)) => {
                w.put_u64(1);
                w.put_str(kind);
                w.put_str(detail);
            }
            None => w.put_u64(0),
        }
        match &self.parse_site {
            Some((context, line)) => {
                w.put_u64(1);
                w.put_str(context);
                match line {
                    Some(l) => {
                        w.put_u64(1);
                        w.put_u64(*l);
                    }
                    None => w.put_u64(0),
                }
            }
            None => w.put_u64(0),
        }
        match &self.result {
            Some(r) => {
                w.put_u64(1);
                w.put_f64(r.hpwl);
                w.put_f64(r.density_overflow);
                w.put_u64(r.gp_iterations);
                w.put_u64(r.route_iterations);
                w.put_f64(r.place_seconds);
                w.put_u64(r.warnings.len() as u64);
                for warn in &r.warnings {
                    w.put_str(warn);
                }
                w.put_points(&r.positions);
            }
            None => w.put_u64(0),
        }
        w.finish()
    }

    /// Deserializes [`JobRecord::to_bytes`] output, validating magic,
    /// version, checksum, and exact length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RdpError> {
        let mut r = SnapshotReader::new(bytes, Self::VERSION)?;
        let id = r.take_u64()?;
        let label = r.take_str()?;
        let state = JobState::from_label(&label)
            .ok_or_else(|| RdpError::checkpoint(format!("unknown job state `{label}`")))?;
        let attempt = r.take_u64()? as u32;
        let consumed_ms = r.take_u64()?;
        let spec = json::parse(&r.take_str()?)
            .map_err(|e| e.to_string())
            .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))
            .map_err(|e| RdpError::checkpoint(format!("record spec: {e}")))?;
        let error = match r.take_u64()? {
            0 => None,
            _ => Some((r.take_str()?, r.take_str()?)),
        };
        let parse_site = match r.take_u64()? {
            0 => None,
            _ => {
                let context = r.take_str()?;
                let line = match r.take_u64()? {
                    0 => None,
                    _ => Some(r.take_u64()?),
                };
                Some((context, line))
            }
        };
        let result = match r.take_u64()? {
            0 => None,
            _ => {
                let hpwl = r.take_f64()?;
                let density_overflow = r.take_f64()?;
                let gp_iterations = r.take_u64()?;
                let route_iterations = r.take_u64()?;
                let place_seconds = r.take_f64()?;
                let n_warn = r.take_u64()? as usize;
                if n_warn > bytes.len() {
                    return Err(RdpError::checkpoint(format!(
                        "implausible warning count {n_warn}"
                    )));
                }
                let mut warnings = Vec::with_capacity(n_warn);
                for _ in 0..n_warn {
                    warnings.push(r.take_str()?);
                }
                Some(JobResult {
                    hpwl,
                    density_overflow,
                    gp_iterations,
                    route_iterations,
                    place_seconds,
                    warnings,
                    positions: r.take_points()?,
                })
            }
        };
        r.finish()?;
        Ok(JobRecord {
            id,
            state,
            spec,
            attempt,
            consumed_ms,
            error,
            parse_site,
            result,
        })
    }

    /// One status line as a JSON object (used by `status` responses).
    pub fn status_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"state\":{},\"attempt\":{},\"consumed_ms\":{}",
            self.id,
            jstr(self.state.label()),
            self.attempt,
            self.consumed_ms
        );
        if let Some((kind, detail)) = &self.error {
            // A parse error names its file and line, as the reader does.
            let detail = match &self.parse_site {
                Some((context, Some(line))) => format!("{context} line {line}: {detail}"),
                Some((context, None)) => format!("{context}: {detail}"),
                None => detail.clone(),
            };
            out.push_str(&format!(
                ",\"kind\":{},\"error\":{}",
                jstr(kind),
                jstr(&detail)
            ));
        }
        if let Some(res) = &self.result {
            out.push_str(&format!(
                ",\"hpwl\":{},\"density_overflow\":{},\"gp_iterations\":{},\"route_iterations\":{}",
                json::num(res.hpwl),
                json::num(res.density_overflow),
                res.gp_iterations,
                res.route_iterations
            ));
        }
        out.push('}');
        out
    }
}

/// True when the error class is worth a damped re-run: divergence after
/// rollback exhaustion and non-finite blow-ups respond to a gentler
/// schedule. Everything else — bad input, bad config, protocol noise,
/// deadlines, cancellation, internal panics — fails fast.
pub fn retryable(e: &RdpError) -> bool {
    matches!(e, RdpError::Diverged { .. } | RdpError::NonFinite { .. })
}

/// Builds the flow configuration for a spec at a given retry attempt:
/// the one spec-to-config builder. The CLI's `place` and `flow`, the
/// `submit` check on both sides of the wire, and the worker all call it.
/// Attempt 0 is the submitted configuration; each retry damps the
/// schedule exponentially — λ₁ re-anchoring and density growth halve
/// their distance to 1.0, and the rollback budget doubles — so a job
/// that diverged under aggressive settings converges under calmer ones.
pub fn flow_config(spec: &JobSpec, attempt: u32) -> Result<RoutabilityConfig, RdpError> {
    let preset: PlacerPreset = spec
        .preset
        .parse()
        .map_err(|e: String| RdpError::Config { detail: e })?;
    let mut cfg = RoutabilityConfig::preset(preset);
    if let Some(n) = spec.max_route_iters {
        cfg.max_route_iters = n as usize;
    }
    if let Some(n) = spec.gp_max_iters {
        if n == 0 {
            return Err(RdpError::Config {
                detail: "gp_max_iters must be at least 1".into(),
            });
        }
        cfg.gp.max_iters = n as usize;
    }
    if let Some(n) = spec.gp_iters_per_route {
        cfg.gp_iters_per_route = n as usize;
    }
    for _ in 0..attempt {
        cfg.lambda1_rebalance = 1.0 + (cfg.lambda1_rebalance - 1.0) * 0.5;
        cfg.gp.lambda_growth = 1.0 + (cfg.gp.lambda_growth - 1.0) * 0.5;
        cfg.gp.health.max_rollbacks = cfg.gp.health.max_rollbacks.saturating_mul(2).max(1);
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_guard::Stage;

    fn spec() -> JobSpec {
        JobSpec {
            input: "fft_1".into(),
            preset: "ours".into(),
            capture: true,
            deadline_ms: Some(60_000),
            max_retries: 2,
            max_route_iters: Some(3),
            gp_max_iters: Some(80),
            gp_iters_per_route: None,
        }
    }

    #[test]
    fn record_roundtrips_through_bytes() {
        let mut rec = JobRecord::queued(42, spec());
        rec.state = JobState::Done;
        rec.attempt = 1;
        rec.consumed_ms = 1234;
        rec.result = Some(JobResult {
            hpwl: 12345.678901234,
            density_overflow: 0.0625,
            gp_iterations: 80,
            route_iterations: 3,
            place_seconds: 1.5,
            warnings: vec!["fell back to RUDY".into()],
            positions: vec![Point::new(1.5, -2.25), Point::new(0.0, 7.0)],
        });
        let back = JobRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(rec, back);

        let failed = JobRecord {
            state: JobState::Failed,
            error: Some(("diverged".into(), "rollbacks exhausted".into())),
            result: None,
            ..rec
        };
        assert_eq!(failed, JobRecord::from_bytes(&failed.to_bytes()).unwrap());

        // A parse failure, with a line and without, comes back from a
        // stored record as the variant it was and displays the same.
        for line in [Some(41), None] {
            let e = RdpError::Parse {
                context: "def".into(),
                line,
                message: "duplicate component `m0`".into(),
            };
            let mut rec = failed.clone();
            rec.set_error(Some(&e));
            let back = JobRecord::from_bytes(&rec.to_bytes()).unwrap();
            assert_eq!(back, rec);
            let (kind, detail) = back.error.clone().unwrap();
            let typed = crate::protocol::error_from_parts(&kind, detail, back.parse_site, |_| 0);
            assert_eq!(typed, e);
            assert_eq!(typed.to_string(), e.to_string());
        }
    }

    #[test]
    fn corrupt_and_truncated_records_are_typed_errors() {
        let rec = JobRecord::queued(7, spec());
        let mut bytes = rec.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        assert!(JobRecord::from_bytes(&bytes).is_err());
        let whole = rec.to_bytes();
        let err = JobRecord::from_bytes(&whole[..whole.len() - 5]).unwrap_err();
        assert_eq!(err.stage(), Some(Stage::Checkpoint), "{err}");
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec();
        let v = json::parse(&s.to_json()).unwrap();
        assert_eq!(JobSpec::from_json(&v).unwrap(), s);

        // Optional fields default.
        let v = json::parse("{\"input\":\"fft_1\"}").unwrap();
        let d = JobSpec::from_json(&v).unwrap();
        assert_eq!(d.preset, "ours");
        assert_eq!(d.deadline_ms, None);
        assert!(!d.capture);

        // Bad field types and unknown keys (a typo, or a knob this build
        // does not have) are typed protocol errors naming the key.
        for (text, key) in [
            ("{\"input\":\"x\",\"deadline_ms\":\"soon\"}", "deadline_ms"),
            ("{\"input\":\"x\",\"preset\":5}", "preset"),
            ("{\"input\":\"x\",\"fast\":true}", "fast"),
            ("{\"input\":\"x\",\"capture\":1}", "capture"),
            (
                "{\"input\":\"fft_a\",\"max_route_iter\":3}",
                "max_route_iter",
            ),
            ("{\"input\":\"fft_a\",\"predict\":true}", "predict"),
        ] {
            let v = json::parse(text).unwrap();
            match JobSpec::from_json(&v) {
                Err(e @ RdpError::Protocol { .. }) => {
                    assert!(e.to_string().contains(&format!("`{key}`")), "{text}: {e}")
                }
                other => panic!("{text}: expected a protocol error, got {other:?}"),
            }
        }
        let v = json::parse("{\"preset\":\"ours\"}").unwrap();
        assert!(JobSpec::from_json(&v).is_err(), "missing input");
    }

    #[test]
    fn retry_damping_calms_the_schedule() {
        let base = flow_config(&spec(), 0).unwrap();
        let damped = flow_config(&spec(), 2).unwrap();
        assert!(damped.lambda1_rebalance < base.lambda1_rebalance);
        assert!(damped.gp.lambda_growth < base.gp.lambda_growth);
        assert!(damped.gp.health.max_rollbacks > base.gp.health.max_rollbacks);
        assert!(damped.lambda1_rebalance > 1.0);
        assert!(damped.gp.lambda_growth > 1.0);
        // Overrides stick.
        assert_eq!(damped.max_route_iters, 3);
        assert_eq!(damped.gp.max_iters, 80);
    }

    #[test]
    fn bad_preset_is_a_config_error_not_retryable() {
        let s = JobSpec {
            preset: "warp-speed".into(),
            ..spec()
        };
        let err = flow_config(&s, 0).unwrap_err();
        assert!(matches!(err, RdpError::Config { .. }), "{err}");
        assert!(!retryable(&err));
        assert!(retryable(&RdpError::Diverged {
            stage: Stage::Routability,
            iteration: 3,
            rollbacks: 8,
            detail: "overflow blew up".into(),
        }));
        assert!(!retryable(&RdpError::internal("panic")));
    }
}
