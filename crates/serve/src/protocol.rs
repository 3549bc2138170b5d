//! Length-prefixed JSON-over-TCP wire protocol.
//!
//! Frame layout: a 4-byte little-endian payload length followed by that
//! many bytes of UTF-8 JSON (one request or response object per frame).
//! Both directions enforce [`FrameLimits`]: a claimed length above
//! `max_frame` is rejected before any payload is read, and every read and
//! write carries a hard wall-clock deadline so a slow or stalled peer
//! produces a typed [`RdpError::Protocol`] instead of a hang.
//!
//! Requests are `{"cmd": "...", ...}` objects; responses carry
//! `{"ok": true, ...}` or `{"ok": false, "kind": K, "error": detail, ...}`
//! where `kind` is the stable label of the [`RdpError`] variant and
//! `detail` the variant's own detail ([`error_parts`]), letting clients
//! rebuild typed errors across the wire.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rdp_guard::RdpError;
use rdp_obs::json::{self, Value};

use crate::job::JobSpec;

/// Wire protocol version. Bumped whenever a request/response shape changes
/// incompatibly; `ping` reports it so a client can refuse a mismatched
/// peer. Version 6 dropped `watch` and cut `stats` to the job counters.
pub const PROTOCOL_VERSION: u64 = 6;

/// The server's own version string, reported by `ping`.
pub const SERVER_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Default cap on a single frame's payload (1 MiB holds the positions of
/// well over 30k cells; larger results stream in run-dir artifacts).
pub const MAX_FRAME_DEFAULT: usize = 1 << 20;

/// Default per-frame I/O deadline.
pub const IO_TIMEOUT_DEFAULT_MS: u64 = 5_000;

/// Per-connection frame bounds (shared by server and client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimits {
    /// Maximum payload bytes a frame may claim or carry.
    pub max_frame: usize,
    /// Wall-clock budget for reading or writing one complete frame.
    pub io_timeout: Duration,
}

impl Default for FrameLimits {
    fn default() -> Self {
        FrameLimits {
            max_frame: MAX_FRAME_DEFAULT,
            io_timeout: Duration::from_millis(IO_TIMEOUT_DEFAULT_MS),
        }
    }
}

fn io_protocol(what: &str, e: std::io::Error) -> RdpError {
    RdpError::protocol(format!("{what}: {e}"))
}

/// Reads exactly `buf.len()` bytes before `deadline`, whatever the peer's
/// pacing — a slow-loris sending one byte per poll still cannot extend
/// the total budget.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<(), RdpError> {
    let mut done = 0usize;
    while done < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(RdpError::protocol(format!(
                "read deadline exceeded after {done} of {} frame bytes",
                buf.len()
            )));
        }
        stream
            .set_read_timeout(Some(deadline - now))
            .map_err(|e| io_protocol("set_read_timeout", e))?;
        match stream.read(&mut buf[done..]) {
            Ok(0) => {
                return Err(RdpError::protocol(format!(
                    "connection closed mid-frame ({done} of {} bytes)",
                    buf.len()
                )))
            }
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(RdpError::protocol(format!(
                    "read deadline exceeded after {done} of {} frame bytes",
                    buf.len()
                )))
            }
            Err(e) => return Err(io_protocol("read", e)),
        }
    }
    Ok(())
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly before sending any header byte (the normal end of a session).
pub fn read_frame_opt(
    stream: &mut TcpStream,
    limits: &FrameLimits,
) -> Result<Option<Vec<u8>>, RdpError> {
    let deadline = Instant::now() + limits.io_timeout;
    let mut header = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a truncated header.
    stream
        .set_read_timeout(Some(limits.io_timeout))
        .map_err(|e| io_protocol("set_read_timeout", e))?;
    let first = loop {
        match stream.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break header[0],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(RdpError::protocol("read deadline exceeded awaiting frame"))
            }
            Err(e) => return Err(io_protocol("read", e)),
        }
    };
    header[0] = first;
    read_exact_deadline(stream, &mut header[1..], deadline)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > limits.max_frame {
        return Err(RdpError::protocol(format!(
            "frame of {len} bytes exceeds the {}-byte limit",
            limits.max_frame
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_deadline(stream, &mut payload, deadline)?;
    Ok(Some(payload))
}

/// Reads one frame, treating clean EOF as a protocol error (client side,
/// where a response is always expected).
pub fn read_frame(stream: &mut TcpStream, limits: &FrameLimits) -> Result<Vec<u8>, RdpError> {
    read_frame_opt(stream, limits)?
        .ok_or_else(|| RdpError::protocol("connection closed before a response frame"))
}

/// Writes one frame under the write deadline.
pub fn write_frame(
    stream: &mut TcpStream,
    payload: &[u8],
    limits: &FrameLimits,
) -> Result<(), RdpError> {
    if payload.len() > limits.max_frame {
        return Err(RdpError::protocol(format!(
            "refusing to send a {}-byte frame (limit {})",
            payload.len(),
            limits.max_frame
        )));
    }
    stream
        .set_write_timeout(Some(limits.io_timeout))
        .map_err(|e| io_protocol("set_write_timeout", e))?;
    let header = (payload.len() as u32).to_le_bytes();
    let write_all = |stream: &mut TcpStream, bytes: &[u8]| match stream.write_all(bytes) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => Err(
            RdpError::protocol("write deadline exceeded sending a frame"),
        ),
        Err(e) => Err(io_protocol("write", e)),
    };
    write_all(stream, &header)?;
    write_all(stream, payload)?;
    stream.flush().map_err(|e| io_protocol("flush", e))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue a job.
    Submit(JobSpec),
    /// Status of one job (`Some(id)`) or the whole queue (`None`).
    Status(Option<u64>),
    /// Cancel a queued or running job.
    Cancel(u64),
    /// Fetch a terminal job's result; `bool` asks for cell positions,
    /// the `u64` is a long-poll budget in milliseconds — the server
    /// holds the request open (bounded by its own cap) while the job is
    /// still queued/running, 0 answers immediately.
    Result(u64, bool, u64),
    /// The service's lifetime job counters.
    Stats,
    /// Graceful drain: stop accepting, checkpoint running jobs, exit.
    Shutdown,
}

fn need_id(v: &Value, cmd: &str) -> Result<u64, RdpError> {
    v.get("id")
        .and_then(Value::as_f64)
        .filter(|id| id.fract() == 0.0 && *id >= 0.0)
        .map(|id| id as u64)
        .ok_or_else(|| RdpError::protocol(format!("`{cmd}` needs a non-negative integer `id`")))
}

/// Parses a request frame. Any malformed input — invalid UTF-8, invalid
/// JSON, an unknown command, a missing field — is a typed `Protocol`
/// error, never a panic.
pub fn parse_request(payload: &[u8]) -> Result<Request, RdpError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| RdpError::protocol(format!("frame is not UTF-8: {e}")))?;
    let v = json::parse(text).map_err(|e| RdpError::protocol(format!("bad request JSON: {e}")))?;
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| RdpError::protocol("request object needs a string `cmd`"))?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let spec = v
                .get("spec")
                .ok_or_else(|| RdpError::protocol("`submit` needs a `spec` object"))?;
            Ok(Request::Submit(JobSpec::from_json(spec)?))
        }
        "status" => match v.get("id") {
            Some(_) => Ok(Request::Status(Some(need_id(&v, "status")?))),
            None => Ok(Request::Status(None)),
        },
        "cancel" => Ok(Request::Cancel(need_id(&v, "cancel")?)),
        "result" => {
            let positions = matches!(v.get("positions"), Some(Value::Bool(true)));
            let wait_ms = v
                .get("wait_ms")
                .and_then(Value::as_f64)
                .filter(|w| *w >= 0.0 && w.is_finite())
                .map_or(0, |w| w as u64);
            Ok(Request::Result(need_id(&v, "result")?, positions, wait_ms))
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(RdpError::protocol(format!("unknown command `{other}`"))),
    }
}

/// Whether an error is a frame-size rejection (either direction). The
/// server counts these separately from other protocol faults:
/// they indicate a peer pushing past [`FrameLimits::max_frame`], not a
/// malformed payload.
pub fn is_frame_limit(e: &RdpError) -> bool {
    matches!(e, RdpError::Protocol { detail } if detail.contains("-byte limit")
        || detail.contains("refusing to send"))
}

/// An error's wire form: the stable kind label of its [`RdpError`]
/// variant, and the variant's own detail (not its display text), so the
/// far side's `Display` frames it exactly once. A `Parse` error's detail
/// is its message; its context and line cross beside it as its
/// [`ParseSite`]. `NonFinite` and `Diverged` carry their whole display
/// text, since their structured fields do not cross.
pub fn error_parts(e: &RdpError) -> (&'static str, String) {
    match e {
        RdpError::Parse { message, .. } => ("parse", message.clone()),
        RdpError::Design { message } => ("design", message.clone()),
        RdpError::NonFinite { .. } => ("non-finite", e.to_string()),
        RdpError::Diverged { .. } => ("diverged", e.to_string()),
        RdpError::Checkpoint { detail } => ("checkpoint", detail.clone()),
        RdpError::Config { detail } => ("config", detail.clone()),
        RdpError::Deadline { detail, .. } => ("deadline", detail.clone()),
        RdpError::Cancelled { detail } => ("cancelled", detail.clone()),
        RdpError::Protocol { detail } => ("protocol", detail.clone()),
        RdpError::Busy { detail, .. } => ("busy", detail.clone()),
        RdpError::Internal { detail } => ("internal", detail.clone()),
    }
}

/// Where a `Parse` error failed: its context and 1-based line. It crosses
/// the wire (`context`, `line`) and the job record beside the kind and
/// detail, so the far side rebuilds the variant instead of wrapping its
/// text in a new one.
pub type ParseSite = (String, Option<u64>);

/// The [`ParseSite`] of a `Parse` error; `None` for every other variant.
pub fn parse_site(e: &RdpError) -> Option<ParseSite> {
    match e {
        RdpError::Parse { context, line, .. } => Some((context.clone(), line.map(|l| l as u64))),
        _ => None,
    }
}

/// Rebuilds a typed error from its [`error_parts`] (kind label and
/// detail), the [`ParseSite`] of a `Parse` error, and `num`, which looks
/// up the numeric fields (`retry_after_ms`, `elapsed_ms`, `budget_ms`).
/// The one kind-to-variant table: wire responses and stored job failures
/// both come back through it.
pub fn error_from_parts(
    kind: &str,
    detail: String,
    site: Option<ParseSite>,
    num: impl Fn(&str) -> u64,
) -> RdpError {
    match kind {
        "busy" => RdpError::Busy {
            detail,
            retry_after_ms: num("retry_after_ms"),
        },
        "deadline" => RdpError::Deadline {
            detail,
            elapsed_ms: num("elapsed_ms"),
            budget_ms: num("budget_ms"),
        },
        "cancelled" => RdpError::Cancelled { detail },
        "protocol" => RdpError::Protocol { detail },
        "config" => RdpError::Config { detail },
        "checkpoint" => RdpError::Checkpoint { detail },
        "parse" => {
            // A peer that sent no site still yields a typed error.
            let (context, line) = site.unwrap_or_else(|| ("serve response".into(), None));
            RdpError::Parse {
                context,
                line: line.and_then(|l| usize::try_from(l).ok()),
                message: detail,
            }
        }
        "design" => RdpError::Design { message: detail },
        _ => RdpError::Internal { detail },
    }
}

/// Serializes an error as an `{"ok":false,...}` response payload.
pub fn error_response(e: &RdpError) -> Vec<u8> {
    let (kind, detail) = error_parts(e);
    let mut out = format!(
        "{{\"ok\":false,\"kind\":{},\"error\":{}",
        crate::job::jstr(kind),
        crate::job::jstr(&detail)
    );
    if let RdpError::Busy { retry_after_ms, .. } = e {
        out.push_str(&format!(",\"retry_after_ms\":{retry_after_ms}"));
    }
    if let Some((context, line)) = parse_site(e) {
        out.push_str(&format!(",\"context\":{}", crate::job::jstr(&context)));
        if let Some(line) = line {
            out.push_str(&format!(",\"line\":{line}"));
        }
    }
    if let RdpError::Deadline {
        elapsed_ms,
        budget_ms,
        ..
    } = e
    {
        out.push_str(&format!(
            ",\"elapsed_ms\":{elapsed_ms},\"budget_ms\":{budget_ms}"
        ));
    }
    out.push('}');
    out.into_bytes()
}

/// Rebuilds a typed error from a parsed `{"ok":false,...}` response.
pub fn error_from_response(v: &Value) -> RdpError {
    error_from_parts(
        v.get("kind").and_then(Value::as_str).unwrap_or("internal"),
        v.get("error")
            .and_then(Value::as_str)
            .unwrap_or("(no detail)")
            .to_string(),
        v.get("context").and_then(Value::as_str).map(|context| {
            let line = v.get("line").and_then(Value::as_f64).map(|l| l as u64);
            (context.to_string(), line)
        }),
        |key| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_reject_garbage() {
        assert_eq!(parse_request(b"{\"cmd\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(b"{\"cmd\":\"status\"}").unwrap(),
            Request::Status(None)
        );
        assert_eq!(
            parse_request(b"{\"cmd\":\"status\",\"id\":7}").unwrap(),
            Request::Status(Some(7))
        );
        assert_eq!(
            parse_request(b"{\"cmd\":\"result\",\"id\":1,\"positions\":true}").unwrap(),
            Request::Result(1, true, 0)
        );
        assert_eq!(
            parse_request(b"{\"cmd\":\"result\",\"id\":1,\"wait_ms\":2500}").unwrap(),
            Request::Result(1, false, 2500)
        );
        assert_eq!(
            parse_request(b"{\"cmd\":\"result\",\"id\":1,\"wait_ms\":-4}").unwrap(),
            Request::Result(1, false, 0)
        );
        assert_eq!(
            parse_request(b"{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats
        );

        for bad in [
            &b"\xff\xfe"[..],
            b"not json",
            b"{\"cmd\":\"warp\"}",
            b"{\"cmd\":\"stream\",\"id\":1}",
            b"{\"cmd\":\"watch\",\"id\":1}",
            b"{\"cmd\":\"cancel\"}",
            b"{\"cmd\":\"cancel\",\"id\":-1}",
            b"{\"cmd\":\"cancel\",\"id\":1.5}",
            b"{\"no_cmd\":1}",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(matches!(err, RdpError::Protocol { .. }), "{bad:?}: {err}");
        }
    }

    #[test]
    fn frame_limit_errors_are_classified() {
        let read_side = RdpError::protocol("frame of 9999999 bytes exceeds the 1048576-byte limit");
        let write_side =
            RdpError::protocol("refusing to send a 2000000-byte frame (limit 1048576)");
        assert!(is_frame_limit(&read_side));
        assert!(is_frame_limit(&write_side));
        assert!(!is_frame_limit(&RdpError::protocol("bad request JSON: x")));
        assert!(!is_frame_limit(&RdpError::Busy {
            detail: "q".into(),
            retry_after_ms: 1,
        }));
    }

    /// Every variant with a plain detail crosses the wire and displays
    /// exactly as it did on the sending side: no framing is repeated.
    #[test]
    fn errors_roundtrip_through_the_wire_shape() {
        let cases = vec![
            RdpError::Config {
                detail: "unknown preset".into(),
            },
            RdpError::checkpoint("torn record"),
            RdpError::Cancelled {
                detail: "drain".into(),
            },
            RdpError::protocol("no such job 999"),
            RdpError::Busy {
                detail: "queue full (4 queued)".into(),
                retry_after_ms: 250,
            },
            RdpError::Deadline {
                detail: "job 3".into(),
                elapsed_ms: 900,
                budget_ms: 500,
            },
            RdpError::Design {
                message: "no rows".into(),
            },
            RdpError::internal("worker panicked"),
            RdpError::Parse {
                context: "/missing/x.def".into(),
                line: None,
                message: "No such file or directory (os error 2)".into(),
            },
            RdpError::Parse {
                context: "def".into(),
                line: Some(41),
                message: "duplicate component `m0`".into(),
            },
        ];
        for e in cases {
            let bytes = error_response(&e);
            let v = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
            let back = error_from_response(&v);
            assert_eq!(back, e);
            assert_eq!(back.to_string(), e.to_string());
        }
    }
}
