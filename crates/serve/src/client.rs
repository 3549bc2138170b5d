//! Typed client for the `rdp serve` protocol.
//!
//! One TCP connection per request (the protocol is stateless), every
//! connect/read/write under the [`FrameLimits`] deadline, and `ok:false`
//! responses rebuilt into typed [`RdpError`]s. Floats cross the wire via
//! the shortest-round-trip formatter, so results (`hpwl`, positions) are
//! recovered **bitwise** — [`JobOutcome::hpwl_bits`] carries the exact
//! bit pattern for scripted comparisons.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rdp_db::Point;
use rdp_guard::RdpError;
use rdp_obs::json::{self, Value};

use crate::job::{JobSpec, JobState};
use crate::protocol::{error_from_response, read_frame, write_frame, FrameLimits};

/// One job's status as reported by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Retry attempts consumed.
    pub attempt: u64,
    /// Wall-clock milliseconds consumed across attempts and restarts.
    pub consumed_ms: u64,
    /// Error `(kind, detail)` for failed jobs.
    pub error: Option<(String, String)>,
    /// Final HPWL for done jobs.
    pub hpwl: Option<f64>,
    /// Next routability iteration, for running jobs with progress.
    pub route_iter: Option<u64>,
}

/// A completed job's result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: u64,
    /// Final attempt number.
    pub attempt: u64,
    /// Total wall-clock milliseconds consumed.
    pub consumed_ms: u64,
    /// Final HPWL (bitwise-identical to the server's).
    pub hpwl: f64,
    /// Exact bit pattern of `hpwl` as transported in `hpwl_bits`.
    pub hpwl_bits: u64,
    /// Final density overflow.
    pub density_overflow: f64,
    /// Wirelength-phase iterations.
    pub gp_iterations: u64,
    /// Routability iterations.
    pub route_iterations: u64,
    /// Final attempt's placement wall-clock in seconds.
    pub place_seconds: f64,
    /// Degraded-mode warnings.
    pub warnings: Vec<String>,
    /// Cell positions (empty unless requested).
    pub positions: Vec<Point>,
}

fn take_u64(v: &Value, key: &str) -> Result<u64, RdpError> {
    v.get(key)
        .and_then(Value::as_f64)
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| RdpError::protocol(format!("response missing integer `{key}`")))
}

fn take_f64(v: &Value, key: &str) -> Result<f64, RdpError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| RdpError::protocol(format!("response missing number `{key}`")))
}

fn parse_status(v: &Value) -> Result<JobStatus, RdpError> {
    let label = v
        .get("state")
        .and_then(Value::as_str)
        .ok_or_else(|| RdpError::protocol("status missing `state`"))?;
    let state = JobState::from_label(label)
        .ok_or_else(|| RdpError::protocol(format!("unknown job state `{label}` in response")))?;
    Ok(JobStatus {
        id: take_u64(v, "id")?,
        state,
        attempt: take_u64(v, "attempt")?,
        consumed_ms: take_u64(v, "consumed_ms")?,
        error: match (
            v.get("kind").and_then(Value::as_str),
            v.get("error").and_then(Value::as_str),
        ) {
            (Some(k), Some(e)) => Some((k.to_string(), e.to_string())),
            _ => None,
        },
        hpwl: v.get("hpwl").and_then(Value::as_f64),
        route_iter: v
            .get("route_iter")
            .and_then(Value::as_f64)
            .map(|n| n as u64),
    })
}

/// One long-poll chunk issued by [`Client::wait`] (milliseconds). Kept
/// well under the default frame read deadline so a chunk can never trip
/// the client's own I/O timeout.
const WAIT_CHUNK_MS: u64 = 2_000;

/// Protocol client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    limits: FrameLimits,
}

impl Client {
    /// A client with default frame limits.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            limits: FrameLimits::default(),
        }
    }

    /// One request/response roundtrip on a fresh connection.
    fn roundtrip(&self, payload: &str) -> Result<Value, RdpError> {
        self.roundtrip_waiting(payload, 0)
    }

    /// Roundtrip whose *read* deadline is widened by `extra_wait_ms` —
    /// for long-poll requests where the server legitimately holds the
    /// response that long before answering.
    fn roundtrip_waiting(&self, payload: &str, extra_wait_ms: u64) -> Result<Value, RdpError> {
        self.roundtrip_text(payload, extra_wait_ms).map(|(_, v)| v)
    }

    /// Like [`Client::roundtrip_waiting`], but also hands back the exact
    /// response text — for callers that print or persist the raw payload
    /// (`rdp stats ADDR`).
    fn roundtrip_text(
        &self,
        payload: &str,
        extra_wait_ms: u64,
    ) -> Result<(String, Value), RdpError> {
        let target = self
            .addr
            .to_socket_addrs()
            .map_err(|e| RdpError::protocol(format!("resolve {}: {e}", self.addr)))?
            .next()
            .ok_or_else(|| RdpError::protocol(format!("{} resolves to nothing", self.addr)))?;
        let mut stream = TcpStream::connect_timeout(&target, self.limits.io_timeout)
            .map_err(|e| RdpError::protocol(format!("connect {}: {e}", self.addr)))?;
        // A server at its connection cap answers `Busy` and closes without
        // reading the request. If the request is still being written, the
        // close resets the connection under the write, but the answer has
        // already arrived: read it before reporting the failed write.
        let sent = write_frame(&mut stream, payload.as_bytes(), &self.limits);
        let read_limits = FrameLimits {
            max_frame: self.limits.max_frame,
            io_timeout: self.limits.io_timeout + Duration::from_millis(extra_wait_ms),
        };
        let response = match read_frame(&mut stream, &read_limits) {
            Ok(response) => response,
            Err(read_err) => return Err(sent.err().unwrap_or(read_err)),
        };
        let text = std::str::from_utf8(&response)
            .map_err(|e| RdpError::protocol(format!("response is not UTF-8: {e}")))?;
        let v =
            json::parse(text).map_err(|e| RdpError::protocol(format!("bad response JSON: {e}")))?;
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok((text.to_string(), v)),
            Some(Value::Bool(false)) => Err(error_from_response(&v)),
            _ => Err(RdpError::protocol("response missing `ok` field")),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), RdpError> {
        self.roundtrip("{\"cmd\":\"ping\"}").map(|_| ())
    }

    /// Fetches the server's lifetime job counters: the exact response
    /// text and its parsed form, `{"ok":true,"service":{"counters":{…}}}`.
    pub fn stats(&self) -> Result<(String, Value), RdpError> {
        self.roundtrip_text("{\"cmd\":\"stats\"}", 0)
    }

    /// Submits a job; returns its id.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, RdpError> {
        let v = self.roundtrip(&format!(
            "{{\"cmd\":\"submit\",\"spec\":{}}}",
            spec.to_json()
        ))?;
        take_u64(&v, "id")
    }

    /// Status of one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, RdpError> {
        let v = self.roundtrip(&format!("{{\"cmd\":\"status\",\"id\":{id}}}"))?;
        parse_status(
            v.get("job")
                .ok_or_else(|| RdpError::protocol("status response missing `job`"))?,
        )
    }

    /// Status of every job the server knows about.
    pub fn status_all(&self) -> Result<Vec<JobStatus>, RdpError> {
        let v = self.roundtrip("{\"cmd\":\"status\"}")?;
        let jobs = v
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or_else(|| RdpError::protocol("status response missing `jobs`"))?;
        jobs.iter().map(parse_status).collect()
    }

    /// Requests cancellation of a queued or running job.
    pub fn cancel(&self, id: u64) -> Result<(), RdpError> {
        self.roundtrip(&format!("{{\"cmd\":\"cancel\",\"id\":{id}}}"))
            .map(|_| ())
    }

    /// Fetches a terminal job's result. Queued/running jobs come back as
    /// `Busy` (poll again), failed jobs as their stored typed error.
    pub fn result(&self, id: u64, positions: bool) -> Result<JobOutcome, RdpError> {
        self.result_wait(id, positions, 0)
    }

    /// Like [`Client::result`], but asks the server to hold the request
    /// open up to `wait_ms` while the job is still queued/running
    /// (long-poll). The server caps the hold on its side; a capped or
    /// drained wait still answers `Busy`.
    pub fn result_wait(
        &self,
        id: u64,
        positions: bool,
        wait_ms: u64,
    ) -> Result<JobOutcome, RdpError> {
        let v = self.roundtrip_waiting(
            &format!("{{\"cmd\":\"result\",\"id\":{id},\"positions\":{positions},\"wait_ms\":{wait_ms}}}"),
            wait_ms,
        )?;
        let hpwl_bits = v
            .get("hpwl_bits")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or_else(|| RdpError::protocol("result missing `hpwl_bits`"))?;
        let warnings = v
            .get("warnings")
            .and_then(Value::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let mut out = JobOutcome {
            id: take_u64(&v, "id")?,
            attempt: take_u64(&v, "attempt")?,
            consumed_ms: take_u64(&v, "consumed_ms")?,
            hpwl: take_f64(&v, "hpwl")?,
            hpwl_bits,
            density_overflow: take_f64(&v, "density_overflow")?,
            gp_iterations: take_u64(&v, "gp_iterations")?,
            route_iterations: take_u64(&v, "route_iterations")?,
            place_seconds: take_f64(&v, "place_seconds")?,
            warnings,
            positions: Vec::new(),
        };
        if let Some(arr) = v.get("positions").and_then(Value::as_arr) {
            if arr.len() % 2 != 0 {
                return Err(RdpError::protocol("positions array has odd length"));
            }
            out.positions = arr
                .chunks(2)
                .map(|xy| match (xy[0].as_f64(), xy[1].as_f64()) {
                    (Some(x), Some(y)) => Ok(Point::new(x, y)),
                    _ => Err(RdpError::protocol("non-numeric position coordinate")),
                })
                .collect::<Result<_, _>>()?;
        }
        Ok(out)
    }

    /// Polls until the job is terminal, up to `budget_ms` wall-clock.
    /// Done jobs return their outcome (with positions); failed/cancelled
    /// jobs return their typed error; budget exhaustion is a typed
    /// `Deadline` error.
    pub fn wait(&self, id: u64, poll_ms: u64, budget_ms: u64) -> Result<JobOutcome, RdpError> {
        let start = Instant::now();
        loop {
            // Long-poll in bounded chunks: the server holds each request
            // until the job settles (or its own cap), so a waiting
            // client costs one held connection instead of a poll storm.
            let remaining = budget_ms.saturating_sub(start.elapsed().as_millis() as u64);
            match self.result_wait(id, true, remaining.min(WAIT_CHUNK_MS)) {
                Err(RdpError::Busy { .. }) => {}
                other => return other,
            }
            let elapsed = start.elapsed().as_millis() as u64;
            if elapsed >= budget_ms {
                return Err(RdpError::Deadline {
                    detail: format!("waiting for job {id}"),
                    elapsed_ms: elapsed,
                    budget_ms,
                });
            }
            // Only reached when the server answered `Busy` early (its
            // cap, or a drain); back off at the caller's poll interval.
            std::thread::sleep(Duration::from_millis(poll_ms.max(1)));
        }
    }

    /// Asks the server to drain and exit; returns how many still-live
    /// (queued/running) jobs the drain left durable for the next start
    /// (`0` when the server omits the count).
    pub fn shutdown(&self) -> Result<u64, RdpError> {
        let v = self.roundtrip("{\"cmd\":\"shutdown\"}")?;
        Ok(v.get("drained_jobs")
            .and_then(Value::as_f64)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as u64)
            .unwrap_or(0))
    }
}
