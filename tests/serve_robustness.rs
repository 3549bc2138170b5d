//! Service robustness suite: deterministic fault injection against
//! `rdp serve`, the crash-safe placement daemon.
//!
//! Each scenario is a [`FaultPlan`]-shaped contract from
//! `rdp-testkit` — the service descriptors ([`FaultKind::KillServer`],
//! [`FaultKind::GarbageFrame`], [`FaultKind::OversizedFrame`],
//! [`FaultKind::TruncatedFrame`], [`FaultKind::SlowClient`],
//! [`FaultKind::CorruptCheckpointByte`], [`FaultKind::TruncateBytes`])
//! are interpreted here as concrete attacks on a live server:
//!
//! * **kill-anywhere**: `kill -9` a real `rdp serve` process at staggered
//!   instants; after restarts the queue replays and every job's HPWL and
//!   positions are **bitwise** identical to an uninterrupted run.
//! * **hostile bytes**: corrupt/truncated job records and checkpoints are
//!   quarantined, torn `.tmp` files cleaned — recovery never panics.
//! * **hostile clients**: garbage, oversized, and truncated frames and
//!   slow-loris byte drips produce typed `Protocol` errors within the
//!   read deadline; the server survives every one of them.
//! * **bounded queue**: submits beyond the bound come back as typed
//!   `Busy { retry_after_ms }`, and cancelling frees the slot.
//! * **deadlines / cancel / drain**: budget expiry is a durable typed
//!   `Deadline` failure; cancel and graceful drain stop running jobs at
//!   their next checkpoint, and a drained job resumes bitwise.
//!
//! Nothing here is random: every fault is a deterministic function of
//! the plan, so a failing scenario replays exactly.

use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rdp::core::RdpError;
use rdp::obs::json;
use rdp::serve::protocol::{error_from_response, read_frame};
use rdp::serve::worker::reference_run;
use rdp::serve::{Client, FrameLimits, JobRecord, JobSpec, JobState, ServeConfig, Server, Store};
use rdp_testkit::{FaultExpectation, FaultKind, FaultPlan};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdp-serve-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The quick job every scenario that only needs *a* placement uses.
fn small_spec() -> JobSpec {
    JobSpec {
        input: "fft_1".into(),
        preset: "ours".into(),
        gp_max_iters: Some(40),
        max_route_iters: Some(2),
        gp_iters_per_route: Some(4),
        ..JobSpec::default()
    }
}

/// A job long enough to be caught mid-run (cancel, drain, kill).
fn longer_spec() -> JobSpec {
    JobSpec {
        input: "fft_1".into(),
        preset: "ours".into(),
        gp_max_iters: Some(80),
        max_route_iters: Some(4),
        gp_iters_per_route: Some(10),
        ..JobSpec::default()
    }
}

fn start(cfg: ServeConfig) -> (Server, Client) {
    let server = Server::start(cfg).expect("server start");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
}

/// Polls a job's status until `pred` holds, failing after `budget`.
fn poll_until(
    client: &Client,
    id: u64,
    budget: Duration,
    what: &str,
    pred: impl Fn(&rdp::serve::JobStatus) -> bool,
) -> rdp::serve::JobStatus {
    let start = Instant::now();
    loop {
        let status = client.status(id).expect("status");
        if pred(&status) {
            return status;
        }
        assert!(
            start.elapsed() < budget,
            "job {id} never reached `{what}` within {budget:?}; last state {}",
            status.state
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends raw bytes on a fresh connection and reads back one response
/// frame, rebuilding the typed error the server answered with.
fn raw_exchange(addr: &str, bytes: &[u8]) -> RdpError {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write raw bytes");
    stream.flush().expect("flush");
    let response = read_frame(&mut stream, &FrameLimits::default()).expect("read error frame");
    let v = json::parse(std::str::from_utf8(&response).expect("utf-8 response"))
        .expect("response JSON");
    assert_eq!(v.get("ok"), Some(&json::Value::Bool(false)));
    error_from_response(&v)
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------
// Hostile clients: every malformed frame is a typed error, the server
// survives, and no wait is unbounded.
// ---------------------------------------------------------------------

#[test]
fn garbage_frame_is_typed_protocol_error_and_server_survives() {
    let plan = FaultPlan::new(
        "garbage-frame",
        FaultKind::GarbageFrame,
        FaultExpectation::TypedError,
    );
    let root = tmp_root("garbage");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    for payload in [
        &b"not json at all"[..],
        b"\xff\xfe\xfd\x00",
        b"{\"cmd\":42}",
    ] {
        let err = raw_exchange(&addr, &frame_bytes(payload));
        assert!(
            matches!(err, RdpError::Protocol { .. }),
            "{}: {payload:?} should be a typed protocol error, got {err}",
            plan.name
        );
    }
    // The server shrugged all of it off.
    client.ping().expect("server must survive garbage frames");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_frame_is_rejected_before_any_payload_is_read() {
    let plan = FaultPlan::new(
        "oversized-frame",
        FaultKind::OversizedFrame,
        FaultExpectation::TypedError,
    );
    let root = tmp_root("oversized");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        max_frame: 1024,
        ..ServeConfig::default()
    });
    // Claim 2 KiB against a 1 KiB limit and send not a single payload
    // byte: the rejection must come from the header alone.
    let header = 2048u32.to_le_bytes();
    let started = Instant::now();
    let err = raw_exchange(&server.local_addr().to_string(), &header);
    assert!(
        matches!(err, RdpError::Protocol { .. }) && err.to_string().contains("exceeds"),
        "{}: got {err}",
        plan.name
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "{}: rejection must not wait for payload bytes that never come",
        plan.name
    );
    client.ping().expect("server must survive oversized frames");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_frame_hits_the_read_deadline_not_a_hang() {
    let plan = FaultPlan::new(
        "truncated-frame",
        FaultKind::TruncatedFrame,
        FaultExpectation::TypedError,
    );
    let root = tmp_root("truncated-frame");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        io_timeout_ms: 300,
        ..ServeConfig::default()
    });
    // Header promises 64 bytes; only 8 ever arrive.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&64u32.to_le_bytes()).unwrap();
    stream.write_all(b"truncate").unwrap();
    stream.flush().unwrap();
    let started = Instant::now();
    let response = read_frame(&mut stream, &FrameLimits::default()).expect("error frame");
    let v = json::parse(std::str::from_utf8(&response).unwrap()).unwrap();
    let err = error_from_response(&v);
    assert!(
        matches!(err, RdpError::Protocol { .. }) && err.to_string().contains("deadline"),
        "{}: got {err}",
        plan.name
    );
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "{}: the 300 ms read deadline must bound the wait",
        plan.name
    );
    client.ping().expect("server must survive truncated frames");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn slow_loris_client_cannot_hold_a_connection_open() {
    let plan = FaultPlan::new(
        "slow-client",
        FaultKind::SlowClient,
        FaultExpectation::TypedError,
    );
    let root = tmp_root("slow-client");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        io_timeout_ms: 300,
        ..ServeConfig::default()
    });
    // A perfectly valid ping, dripped one byte every 100 ms — the total
    // transfer would take ~1.8 s against a 300 ms per-frame deadline.
    let bytes = frame_bytes(b"{\"cmd\":\"ping\"}");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let started = Instant::now();
    let mut server_replied = Vec::new();
    for b in &bytes {
        if stream.write_all(std::slice::from_ref(b)).is_err() {
            break; // server already cut us off — that is the contract
        }
        let _ = stream.flush();
        std::thread::sleep(Duration::from_millis(100));
        if started.elapsed() > Duration::from_secs(3) {
            break;
        }
        if let Ok(frame) = read_frame(
            &mut stream,
            &FrameLimits {
                max_frame: 1 << 20,
                io_timeout: Duration::from_millis(1),
            },
        ) {
            server_replied = frame;
            break;
        }
    }
    if server_replied.is_empty() {
        // The deadline error frame may still be in flight; collect it.
        if let Ok(frame) = read_frame(&mut stream, &FrameLimits::default()) {
            server_replied = frame;
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "{}: the drip must be cut near the 300 ms deadline, not tolerated",
        plan.name
    );
    if !server_replied.is_empty() {
        let v = json::parse(std::str::from_utf8(&server_replied).unwrap()).unwrap();
        let err = error_from_response(&v);
        assert!(
            matches!(err, RdpError::Protocol { .. }),
            "{}: got {err}",
            plan.name
        );
    }
    client
        .ping()
        .expect("server must survive slow-loris clients");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Bounded queue and deadlines.
// ---------------------------------------------------------------------

#[test]
fn queue_full_backpressure_frees_a_slot_on_cancel() {
    let root = tmp_root("backpressure");
    // No workers: the queue cannot drain on its own, making the bound
    // and its release deterministic.
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        max_queue: 1,
        retry_after_ms: 120,
        ..ServeConfig::default()
    });
    let first = client.submit(&small_spec()).expect("first submit fits");
    match client.submit(&small_spec()) {
        Err(RdpError::Busy { retry_after_ms, .. }) => {
            assert_eq!(retry_after_ms, 120, "Busy must carry the configured hint")
        }
        other => panic!("queue-full submit must be typed Busy, got {other:?}"),
    }
    // Cancelling the queued job frees its slot.
    client.cancel(first).expect("cancel queued");
    client
        .submit(&small_spec())
        .expect("slot freed by cancellation");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deadline_expiry_is_a_typed_durable_failure() {
    let root = tmp_root("deadline");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    let id = client
        .submit(&JobSpec {
            deadline_ms: Some(0),
            ..small_spec()
        })
        .expect("submit");
    let err = client.wait(id, 10, 60_000).expect_err("budget of 0 ms");
    let status = client.status(id).unwrap();
    // The failure crosses the record and the wire with its own detail,
    // framed once, and reports the job's consumed time against its budget.
    assert_eq!(
        err,
        RdpError::Deadline {
            detail: format!("job {id} hit its wall-clock budget"),
            elapsed_ms: status.consumed_ms,
            budget_ms: 0,
        },
        "expired job must fetch as a typed Deadline"
    );
    assert_eq!(status.state, JobState::Failed);
    assert_eq!(
        status.error.as_ref().map(|(kind, _)| kind.as_str()),
        Some("deadline")
    );
    server.shutdown().unwrap();
    // Durable: the failure survives on disk, not just in memory.
    let store = Store::open(&root).unwrap();
    let rec = JobRecord::from_bytes(&std::fs::read(store.record_path(id)).unwrap()).unwrap();
    assert_eq!(rec.state, JobState::Failed);
    assert_eq!(
        rec.error.as_ref().map(|(k, _)| k.as_str()),
        Some("deadline")
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Hostile bytes on disk: recovery quarantines, cleans, never panics.
// ---------------------------------------------------------------------

#[test]
fn corrupt_job_record_is_quarantined_at_startup() {
    let plan = FaultPlan::new(
        "corrupt-record",
        FaultKind::CorruptCheckpointByte { offset: 0 },
        FaultExpectation::TypedError,
    );
    let root = tmp_root("corrupt-record");
    let store = Store::open(&root).unwrap();
    store
        .persist_record(&JobRecord::queued(1, small_spec()))
        .unwrap();
    let healthy = JobRecord::queued(3, small_spec()).to_bytes();
    let mid = healthy.len() / 2;
    let corrupt = FaultKind::CorruptCheckpointByte { offset: mid }.mutate_bytes(&healthy);
    assert_ne!(
        corrupt, healthy,
        "{}: the fault must actually strike",
        plan.name
    );
    std::fs::write(store.record_path(3), &corrupt).unwrap();

    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        ..ServeConfig::default()
    });
    let recovery = server.recovery();
    assert_eq!(recovery.recovered, 1, "{}: {recovery:?}", plan.name);
    assert!(
        recovery
            .quarantined
            .iter()
            .any(|name| name == "job-0000000003.rdpjob"),
        "{}: {recovery:?}",
        plan.name
    );
    assert!(
        root.join("jobs/job-0000000003.rdpjob.corrupt").exists(),
        "{}: the corrupt record must be kept for forensics",
        plan.name
    );
    // The healthy job is intact, and the quarantined id is not reused in
    // a way that collides: the next id continues past the healthy max.
    assert_eq!(client.status_all().unwrap().len(), 1);
    assert_eq!(client.submit(&small_spec()).unwrap(), 2);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_checkpoint_restarts_the_job_fresh_and_bitwise() {
    let plan = FaultPlan::new(
        "truncated-checkpoint",
        FaultKind::TruncateBytes { keep: 6 },
        FaultExpectation::RecoveredOk,
    );
    let root = tmp_root("truncated-ckpt");
    let store = Store::open(&root).unwrap();
    store
        .persist_record(&JobRecord::queued(1, small_spec()))
        .unwrap();
    // A torn checkpoint: only the first bytes of the magic survive.
    let torn = plan
        .kind
        .mutate_bytes(b"RDPSNAP-would-have-been-a-checkpoint");
    store.persist_checkpoint(1, &torn).unwrap();

    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    assert!(
        server
            .recovery()
            .quarantined
            .iter()
            .any(|name| name == "job-0000000001.ckpt"),
        "{}: {:?}",
        plan.name,
        server.recovery()
    );
    assert!(root.join("jobs/job-0000000001.ckpt.corrupt").exists());
    // With the checkpoint quarantined the job restarts from scratch and
    // still lands on the uninterrupted run's exact bits.
    let outcome = client.wait(1, 20, 180_000).expect("job completes fresh");
    let (reference, _) = reference_run(&small_spec()).unwrap();
    assert_eq!(outcome.hpwl_bits, reference.hpwl.to_bits(), "{}", plan.name);
    assert_eq!(outcome.positions, reference.positions, "{}", plan.name);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn leftover_tmp_files_are_cleaned_at_startup() {
    let root = tmp_root("tmp-clean");
    let store = Store::open(&root).unwrap();
    store
        .persist_record(&JobRecord::queued(1, small_spec()))
        .unwrap();
    std::fs::write(root.join("jobs/job-0000000007.rdpjob.tmp"), b"torn write").unwrap();
    std::fs::write(root.join("jobs/job-0000000001.ckpt.tmp"), b"torn ckpt").unwrap();

    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        ..ServeConfig::default()
    });
    assert_eq!(server.recovery().cleaned_tmp, 2, "{:?}", server.recovery());
    assert!(!root.join("jobs/job-0000000007.rdpjob.tmp").exists());
    assert!(!root.join("jobs/job-0000000001.ckpt.tmp").exists());
    assert_eq!(client.status_all().unwrap().len(), 1);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Cancel and graceful drain.
// ---------------------------------------------------------------------

#[test]
fn cancel_running_job_stops_at_the_next_checkpoint() {
    let root = tmp_root("cancel-running");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    let id = client.submit(&longer_spec()).expect("submit");
    poll_until(&client, id, Duration::from_secs(60), "running", |s| {
        s.state == JobState::Running
    });
    client.cancel(id).expect("cancel running");
    let terminal = poll_until(&client, id, Duration::from_secs(60), "terminal", |s| {
        s.state.is_terminal()
    });
    assert_eq!(terminal.state, JobState::Cancelled);
    let err = client.result(id, false).expect_err("cancelled result");
    assert!(matches!(err, RdpError::Cancelled { .. }), "{err}");
    server.shutdown().unwrap();
    // A cancelled job keeps no checkpoint around.
    let store = Store::open(&root).unwrap();
    assert!(!store.checkpoint_path(id).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn graceful_drain_requeues_the_running_job_and_it_resumes_bitwise() {
    let root = tmp_root("drain");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    let id = client.submit(&longer_spec()).expect("submit");
    poll_until(&client, id, Duration::from_secs(60), "running", |s| {
        s.state == JobState::Running
    });
    // Drain: the worker stops at its next checkpoint, requeues the job
    // with the checkpoint persisted, and the whole queue is durable.
    server.shutdown().unwrap();
    let store = Store::open(&root).unwrap();
    let rec = JobRecord::from_bytes(&std::fs::read(store.record_path(id)).unwrap()).unwrap();
    assert_eq!(rec.state, JobState::Queued, "drain must requeue, not lose");
    assert!(
        store.checkpoint_path(id).exists(),
        "the requeued job must keep its checkpoint"
    );

    // A second incarnation resumes from the checkpoint and lands on the
    // uninterrupted run's exact bits.
    let (server2, client2) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    assert!(server2.recovery().recovered >= 1);
    let outcome = client2
        .wait(id, 20, 180_000)
        .expect("resumed job completes");
    let (reference, _) = reference_run(&longer_spec()).unwrap();
    assert_eq!(outcome.hpwl_bits, reference.hpwl.to_bits());
    assert_eq!(outcome.positions, reference.positions);
    server2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// The headline invariant: kill -9 anywhere, results stay bitwise.
// ---------------------------------------------------------------------

fn spawn_serve(bin: &str, dir: &Path, port_file: &Path) -> Child {
    let _ = std::fs::remove_file(port_file);
    Command::new(bin)
        .args([
            "serve",
            "--dir",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rdp serve")
}

fn read_port(port_file: &Path, child: &mut Child) -> String {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_string();
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("rdp serve exited ({status}) before writing its port file");
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "rdp serve never wrote {}",
            port_file.display()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn kill_anywhere_queue_replays_and_results_stay_bitwise() {
    let kills = [
        FaultPlan::new(
            "kill-mid-first-job",
            FaultKind::KillServer { after_ms: 400 },
            FaultExpectation::RecoveredOk,
        ),
        FaultPlan::new(
            "kill-after-restart",
            FaultKind::KillServer { after_ms: 900 },
            FaultExpectation::RecoveredOk,
        ),
    ];
    let bin = env!("CARGO_BIN_EXE_rdp");
    let root = tmp_root("kill-anywhere");
    std::fs::create_dir_all(&root).unwrap();
    let port_file = root.join("serve.port");
    let store_dir = root.join("store");

    // Boot the first incarnation and enqueue two jobs.
    let mut child = spawn_serve(bin, &store_dir, &port_file);
    let addr = read_port(&port_file, &mut child);
    let client = Client::new(addr);
    client.ping().expect("first incarnation answers");
    let job_a = client.submit(&longer_spec()).expect("submit job A");
    let job_b = client.submit(&small_spec()).expect("submit job B");

    // kill -9 at each staggered instant, restarting in between. Whether
    // a kill lands mid-GP-burst, between checkpoints, mid-record-write,
    // or after a job already finished must not matter.
    for plan in &kills {
        let FaultKind::KillServer { after_ms } = plan.kind else {
            unreachable!()
        };
        std::thread::sleep(Duration::from_millis(after_ms));
        child
            .kill()
            .unwrap_or_else(|e| panic!("{}: kill: {e}", plan.name));
        child.wait().expect("reap killed server");
        child = spawn_serve(bin, &store_dir, &port_file);
        read_port(&port_file, &mut child);
    }

    // Final incarnation: let the replayed queue drain completely.
    let addr = read_port(&port_file, &mut child);
    let client = Client::new(addr);
    let outcome_a = client.wait(job_a, 25, 300_000).expect("job A completes");
    let outcome_b = client.wait(job_b, 25, 300_000).expect("job B completes");

    let (ref_a, _) = reference_run(&longer_spec()).unwrap();
    let (ref_b, _) = reference_run(&small_spec()).unwrap();
    assert_eq!(
        outcome_a.hpwl_bits,
        ref_a.hpwl.to_bits(),
        "job A HPWL must be bitwise identical to the uninterrupted run"
    );
    assert_eq!(outcome_a.positions, ref_a.positions);
    assert_eq!(
        outcome_b.hpwl_bits,
        ref_b.hpwl.to_bits(),
        "job B HPWL must be bitwise identical to the uninterrupted run"
    );
    assert_eq!(outcome_b.positions, ref_b.positions);

    client.shutdown().expect("graceful drain");
    child.wait().expect("server exits after drain");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Live service telemetry: the stats/watch surface stays typed under
// abuse, and observing a job never changes its bits.
// ---------------------------------------------------------------------

use rdp::report::RunModel;
use rdp::serve::{validate_stats_json, WatchParams, PROTOCOL_VERSION};

#[test]
fn stats_snapshot_validates_and_counts_the_fleet() {
    let root = tmp_root("stats-snapshot");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    let info = client.ping_info().expect("ping_info");
    assert_eq!(info.protocol_version, Some(PROTOCOL_VERSION));
    assert!(info.server_version.is_some(), "server must identify itself");
    let id = client.submit(&small_spec()).expect("submit");
    client.wait(id, 20, 180_000).expect("job completes");
    // `Client::stats` already runs the schema validator; re-run it on
    // the raw text to pin that the validator sees the exact wire bytes.
    let (text, summary) = client.stats().expect("stats");
    let revalidated = validate_stats_json(&text).expect("raw text validates");
    assert_eq!(revalidated, summary);
    assert_eq!(summary.jobs, 1, "one tracked job");
    let v = json::parse(&text).unwrap();
    let counters = v.get("service").and_then(|s| s.get("counters")).unwrap();
    let counter = |name: &str| counters.get(name).and_then(json::Value::as_f64);
    assert_eq!(counter("submits"), Some(1.0));
    assert_eq!(counter("completions"), Some(1.0));
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_watch_filters_are_typed_protocol_errors() {
    let root = tmp_root("watch-filter");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    // 17 series names against the cap of 16.
    let names: Vec<String> = (0..17).map(|i| format!("\"s{i}\"")).collect();
    let too_many = format!("{{\"cmd\":\"watch\",\"series\":[{}]}}", names.join(","));
    let err = raw_exchange(&addr, &frame_bytes(too_many.as_bytes()));
    assert!(
        matches!(err, RdpError::Protocol { .. }) && err.to_string().contains("oversized"),
        "17 filters must be a typed oversized-filter error, got {err}"
    );
    // One 65-byte name against the 64-byte cap.
    let long = format!("{{\"cmd\":\"watch\",\"series\":[\"{}\"]}}", "n".repeat(65));
    let err = raw_exchange(&addr, &frame_bytes(long.as_bytes()));
    assert!(
        matches!(err, RdpError::Protocol { .. }) && err.to_string().contains("64-byte"),
        "a 65-byte name must be a typed error, got {err}"
    );
    client.ping().expect("server must survive hostile filters");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn watch_long_poll_cap_answers_busy_with_the_retry_hint() {
    let root = tmp_root("watch-cap");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        retry_after_ms: 130,
        ..ServeConfig::default()
    });
    // Fleet watch on a silent server: the hold must end at wait_ms with
    // a typed Busy carrying the configured back-off hint.
    let started = Instant::now();
    let err = client
        .watch(&WatchParams {
            wait_ms: 250,
            ..WatchParams::default()
        })
        .expect_err("no activity inside the window");
    match err {
        RdpError::Busy { retry_after_ms, .. } => assert_eq!(retry_after_ms, 130),
        other => panic!("capped watch must be typed Busy, got {other:?}"),
    }
    let held = started.elapsed();
    assert!(
        held >= Duration::from_millis(250) && held < Duration::from_secs(5),
        "the hold must last ~wait_ms, not hang: {held:?}"
    );
    // A queued job (no workers) has no news either; same contract.
    let id = client.submit(&small_spec()).expect("submit");
    let err = client
        .watch(&WatchParams {
            id: Some(id),
            wait_ms: 100,
            ..WatchParams::default()
        })
        .expect_err("queued job has no news");
    assert!(matches!(err, RdpError::Busy { .. }), "{err}");
    // But fleet activity (the submit) IS news for a seq-0 watcher, and
    // wait_ms=0 must answer immediately.
    let v = client
        .watch(&WatchParams::default())
        .expect("submit counts as fleet activity");
    assert!(
        v.get("seq").and_then(json::Value::as_f64).unwrap_or(0.0) >= 1.0,
        "activity cursor must advance past the submit"
    );
    // Unknown job ids are typed errors, not hangs.
    let err = client
        .watch(&WatchParams {
            id: Some(999),
            ..WatchParams::default()
        })
        .expect_err("unknown id");
    assert!(matches!(err, RdpError::Protocol { .. }), "{err}");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stats_under_slot_exhaustion_is_busy_then_counts_the_rejections() {
    let root = tmp_root("stats-slots");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        workers: 0,
        max_connections: 1,
        ..ServeConfig::default()
    });
    // Hold the only slot open with an idle raw connection.
    let holder = TcpStream::connect(server.local_addr()).expect("holder connects");
    std::thread::sleep(Duration::from_millis(50));
    let err = client.stats().expect_err("no slot left for stats");
    assert!(
        matches!(err, RdpError::Busy { .. }),
        "slot exhaustion must be typed Busy, got {err}"
    );
    drop(holder);
    // With the slot free again, stats answers — and the snapshot itself
    // records the rejection it survived.
    // The release races the server's teardown of the holder's handler
    // thread: until it notices the closed socket, a fresh connect may
    // still bounce — as a clean Busy, or as a cut-off write if the
    // server closes while our request is in flight. Both are transient;
    // a slot must open well inside the deadline.
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        match client.stats() {
            Ok((text, _)) => break text,
            Err(e) if Instant::now() < deadline => {
                assert!(
                    matches!(e, RdpError::Busy { .. } | RdpError::Protocol { .. }),
                    "slot-release race must stay typed, got {e}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("stats after slot release: {e}"),
        }
    };
    let v = json::parse(&text).unwrap();
    let rejections = v
        .get("service")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get("slot_rejections"))
        .and_then(json::Value::as_f64)
        .unwrap_or(0.0);
    assert!(rejections >= 1.0, "got {rejections} slot rejections");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn watch_on_a_job_terminating_mid_poll_returns_done() {
    let root = tmp_root("watch-terminal");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    let id = client.submit(&longer_spec()).expect("submit");
    poll_until(&client, id, Duration::from_secs(60), "running", |s| {
        s.state == JobState::Running
    });
    // Cancel from a second thread while the watch below is parked on
    // the job: the settle must wake the watcher with `done:true`, well
    // before the wait_ms horizon.
    let canceller = {
        let client = client.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            client.cancel(id).expect("cancel running");
        })
    };
    let v = client
        .watch(&WatchParams {
            id: Some(id),
            wait_ms: 8_000,
            ..WatchParams::default()
        })
        .expect("watch returns when the job terminates");
    canceller.join().unwrap();
    assert_eq!(v.get("done"), Some(&json::Value::Bool(true)));
    assert_eq!(
        v.get("job")
            .and_then(|j| j.get("state"))
            .and_then(json::Value::as_str),
        Some("cancelled")
    );
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn observed_job_is_bitwise_identical_to_the_unobserved_run() {
    let root = tmp_root("observed-bitwise");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    let spec = JobSpec {
        capture: true,
        ..longer_spec()
    };
    let id = client.submit(&spec).expect("submit");
    // Hammer the job with stats and watch polls for its whole lifetime:
    // snapshots, event deltas, and series tails all read-side only.
    let hammer = {
        let client = client.clone();
        std::thread::spawn(move || {
            let mut seq = 0u64;
            let mut after_step = None;
            let mut polls = 0u64;
            let mut series_points = 0u64;
            let mut overflow_points = 0u64;
            loop {
                let _ = client.stats().expect("stats under load");
                match client.watch(&WatchParams {
                    id: Some(id),
                    seq,
                    after_step,
                    series: vec!["hpwl".into(), "gp_overflow".into(), "route_overflow".into()],
                    wait_ms: 50,
                }) {
                    Ok(v) => {
                        polls += 1;
                        if let Some(s) = v.get("seq").and_then(json::Value::as_f64) {
                            seq = s as u64;
                        }
                        if let Some(series) = v.get("job").and_then(|j| j.get("series")) {
                            for name in ["gp_overflow", "route_overflow"] {
                                overflow_points += series
                                    .get(name)
                                    .and_then(|s| s.get("points"))
                                    .and_then(json::Value::as_arr)
                                    .map_or(0, |pts| pts.len() as u64);
                            }
                            if let Some(pts) = series
                                .get("hpwl")
                                .and_then(|s| s.get("points"))
                                .and_then(json::Value::as_arr)
                            {
                                series_points += pts.len() as u64;
                                if let Some(last) = pts.last().and_then(json::Value::as_arr) {
                                    after_step = last
                                        .first()
                                        .and_then(json::Value::as_f64)
                                        .map(|s| s as u64);
                                }
                            }
                        }
                        if v.get("done") == Some(&json::Value::Bool(true)) {
                            return (polls, series_points, overflow_points);
                        }
                    }
                    Err(RdpError::Busy { .. }) => {}
                    Err(e) => panic!("watch under load: {e}"),
                }
            }
        })
    };
    let outcome = client
        .wait(id, 20, 300_000)
        .expect("observed job completes");
    let (polls, series_points, overflow_points) = hammer.join().expect("hammer thread");
    assert!(polls >= 1, "the watcher must have seen at least one delta");
    assert!(
        series_points >= 1,
        "a captured job's convergence series must be visible mid-flight"
    );
    assert!(
        overflow_points >= 1,
        "the filter must surface an overflow series the flow emits"
    );
    let (reference, _) = reference_run(&spec).unwrap();
    assert_eq!(
        outcome.hpwl_bits,
        reference.hpwl.to_bits(),
        "a stats/watch-hammered job must land on the unobserved run's exact bits"
    );
    assert_eq!(outcome.positions, reference.positions);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn service_session_export_is_ingestible_by_report() {
    let root = tmp_root("service-export");
    let (server, client) = start(ServeConfig {
        dir: root.clone(),
        ..ServeConfig::default()
    });
    let id = client.submit(&small_spec()).expect("submit");
    client.wait(id, 20, 180_000).expect("job completes");
    server.shutdown().unwrap();
    // The drain wrote `<dir>/service/{trace.jsonl,metrics.json}`; the
    // report model must load it exactly like a run directory.
    let model = RunModel::load(&root.join("service")).expect("service session loads");
    assert_eq!(model.counters.get("submits"), Some(&1.0));
    assert_eq!(model.counters.get("completions"), Some(&1.0));
    assert!(
        model.histograms.keys().any(|k| k == "op_submit_ms"),
        "op latency histograms must survive the export: {:?}",
        model.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        model.instants.iter().any(|i| i.name == "drain"),
        "the drain instant must be in the trace"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A served parse failure fetches as the error the input resolver
/// returned, with its context and line, and its display framed once.
#[test]
fn served_parse_failure_fetches_as_the_original_error() {
    let root = tmp_root("parse-error");
    std::fs::create_dir_all(&root).unwrap();
    // A LEF/DEF pair whose DEF has a bad integer on a known line.
    let design = rdp::gen::generate(
        "bad",
        &rdp::gen::GenParams {
            num_cells: 40,
            ..rdp::gen::GenParams::default()
        },
    );
    let files = rdp::parse::write_lefdef(&design);
    let (lef, def) = (root.join("bad.lef"), root.join("bad.def"));
    std::fs::write(&lef, &files.lef).unwrap();
    std::fs::write(&def, files.def.replacen(" PLACED ( ", " PLACED ( 1x2 ", 1)).unwrap();
    let inputs = [
        format!("bookshelf:{}:x", root.join("missing").display()),
        format!("lefdef:{}:{}", lef.display(), def.display()),
    ];
    let (server, client) = start(ServeConfig {
        dir: root.join("store"),
        ..ServeConfig::default()
    });
    for (input, line) in inputs.iter().zip([None, Some(())]) {
        let want = rdp::serve::resolve_input(input, &rdp::obs::Collector::disabled())
            .expect_err("input does not parse");
        assert!(
            matches!(&want, RdpError::Parse { line: l, .. } if l.is_some() == line.is_some()),
            "{want:?}"
        );
        let id = client
            .submit(&JobSpec {
                input: input.clone(),
                ..small_spec()
            })
            .expect("submit");
        let got = client.wait(id, 10, 60_000).expect_err("parse failure");
        assert_eq!(got, want);
        assert_eq!(got.to_string(), want.to_string());
        assert_eq!(
            got.to_string().matches("parse error in").count(),
            1,
            "{got}"
        );
    }
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
