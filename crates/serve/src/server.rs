//! The `rdp serve` daemon: listener, worker pool, durable queue glue.
//!
//! Startup replays the store ([`Store::scan`]) — killed `running` jobs
//! come back `queued` with their checkpoints intact — then binds the
//! listener and spawns the worker pool. The accept loop blocks in
//! `accept` (zero poll tax while jobs run); shutdown paths unblock it
//! with a loopback self-connect. Every other wait is bounded:
//! connection handlers inherit [`FrameLimits`] deadlines, workers wake
//! from the queue condvar at least every `POLL` (25 ms), `result`
//! long-polls are capped at `RESULT_WAIT_CAP_MS` (10 s) per request,
//! and live connections are capped (excess clients get a typed `Busy`
//! and a clean close).

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rdp_guard::RdpError;
use rdp_obs::json;

use crate::counters::{Counter, Counters};
use crate::job::{flow_config, JobRecord, JobState};
use crate::protocol::{
    error_from_parts, error_response, is_frame_limit, parse_request, read_frame_opt, write_frame,
    FrameLimits, Request, IO_TIMEOUT_DEFAULT_MS, MAX_FRAME_DEFAULT, PROTOCOL_VERSION,
    SERVER_VERSION,
};
use crate::store::{write_atomic, RecoveryReport, Store};
use crate::worker::{execute_job, Disposition, JobControl};

/// Server configuration (all bounds explicit; every default finite).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Store root directory (job records, checkpoints, run dirs).
    pub dir: PathBuf,
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads executing jobs concurrently.
    pub workers: usize,
    /// Maximum non-terminal (queued + running) jobs; submits beyond this
    /// bound are rejected with `Busy { retry_after_ms }`.
    pub max_queue: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame: usize,
    /// Per-frame I/O deadline in milliseconds.
    pub io_timeout_ms: u64,
    /// Suggested client back-off returned with `Busy` rejections.
    pub retry_after_ms: u64,
    /// Compute threads per job; 0 splits the global thread budget evenly
    /// across workers (at least 1 each).
    pub job_threads: usize,
    /// When set, the bound address is written here atomically after
    /// listen succeeds (`host:port\n`) — scripts poll it to rendezvous.
    pub port_file: Option<PathBuf>,
    /// Cap on simultaneously live client connections.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            dir: PathBuf::from("rdp-serve"),
            addr: "127.0.0.1:0".into(),
            workers: 1,
            max_queue: 64,
            max_frame: MAX_FRAME_DEFAULT,
            io_timeout_ms: IO_TIMEOUT_DEFAULT_MS,
            retry_after_ms: 250,
            job_threads: 0,
            port_file: None,
            max_connections: 64,
        }
    }
}

/// Poll interval for the worker condvar and accept-error backoff.
const POLL: Duration = Duration::from_millis(25);

/// Server-side cap on one `result` long-poll (milliseconds). Keeps every
/// held connection bounded regardless of what the client asked for;
/// clients with a larger budget simply re-issue the request.
const RESULT_WAIT_CAP_MS: u64 = 10_000;

/// Mutable server state behind one mutex.
struct Inner {
    records: BTreeMap<u64, JobRecord>,
    controls: BTreeMap<u64, Arc<JobControl>>,
    next_id: u64,
}

struct Shared {
    cfg: ServeConfig,
    limits: FrameLimits,
    store: Store,
    /// The actually-bound address; shutdown paths connect to it to wake
    /// the (blocking) accept loop.
    addr: SocketAddr,
    inner: Mutex<Inner>,
    queue_cv: Condvar,
    /// Signalled whenever a job reaches a terminal state; long-poll
    /// `result` requests wait on it instead of making clients poll.
    done_cv: Condvar,
    shutdown: AtomicBool,
    drain: AtomicBool,
    connections: AtomicUsize,
    /// Lifetime job counters, answered by `stats`.
    counters: Counters,
}

/// A running server instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    recovery: RecoveryReport,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens the store, replays the queue, binds, and spawns the pool.
    pub fn start(cfg: ServeConfig) -> Result<Server, RdpError> {
        let store = Store::open(&cfg.dir)?;
        let (records, recovery) = store.scan()?;
        let next_id = records.keys().next_back().map_or(1, |id| id + 1);
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| RdpError::protocol(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RdpError::protocol(format!("local_addr: {e}")))?;
        if let Some(path) = &cfg.port_file {
            write_atomic(path, format!("{addr}\n").as_bytes())?;
        }
        let limits = FrameLimits {
            max_frame: cfg.max_frame,
            io_timeout: Duration::from_millis(cfg.io_timeout_ms.max(1)),
        };
        let workers_n = cfg.workers;
        // Seed lifetime counters from the recovered store so they stay
        // monotonic across restarts (terminal records re-counted exactly
        // once — they never re-run).
        let counters = Counters::default();
        counters.seed_from_records(&records, &recovery);
        let shared = Arc::new(Shared {
            cfg,
            limits,
            store,
            addr,
            inner: Mutex::new(Inner {
                records,
                controls: BTreeMap::new(),
                next_id,
            }),
            queue_cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            counters,
        });
        let mut workers = Vec::with_capacity(workers_n);
        for w in 0..workers_n {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rdp-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| RdpError::internal(format!("spawn worker: {e}")))?,
            );
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rdp-serve-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| RdpError::internal(format!("spawn accept loop: {e}")))?
        };
        Ok(Server {
            shared,
            addr,
            recovery,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery found and did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Initiates graceful drain: stop accepting, interrupt running jobs
    /// at their next checkpoint (requeued durable), let workers exit.
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Waits for the accept loop and every worker to exit, then gives
    /// in-flight connections a bounded window (two frame deadlines) to
    /// finish writing their responses — so a caller dropping straight to
    /// process exit after `join` cannot cut a response off mid-frame.
    /// Returns once the whole queue is durable on disk.
    pub fn join(mut self) -> Result<(), RdpError> {
        if let Some(h) = self.accept.take() {
            h.join()
                .map_err(|_| RdpError::internal("accept loop panicked"))?;
        }
        for h in self.workers.drain(..) {
            h.join()
                .map_err(|_| RdpError::internal("worker thread panicked"))?;
        }
        let deadline = Instant::now() + 2 * self.shared.limits.io_timeout;
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
        Ok(())
    }

    /// `request_shutdown` + `join`.
    pub fn shutdown(self) -> Result<(), RdpError> {
        self.request_shutdown();
        self.join()
    }
}

/// Wakes the blocking accept loop by connecting to the server's own
/// address (the accepted connection is discarded once the shutdown flag
/// is observed). If loopback connect somehow fails, the accept loop is
/// still bounded: the next real client — or a listener error — also
/// lands on the shutdown check.
fn wake_accept(shared: &Shared) {
    for _ in 0..2 {
        if TcpStream::connect_timeout(&shared.addr, Duration::from_millis(250)).is_ok() {
            return;
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    // A *blocking* accept: no poll tax while jobs run, no accept
    // latency for clients. Shutdown paths unblock it via `wake_accept`.
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    drop(stream);
                    return;
                }
                if shared.connections.fetch_add(1, Ordering::SeqCst) >= shared.cfg.max_connections {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    shared.counters.incr(Counter::SlotRejections);
                    let mut stream = stream;
                    let busy = RdpError::Busy {
                        detail: format!("connection limit {} reached", shared.cfg.max_connections),
                        retry_after_ms: shared.cfg.retry_after_ms,
                    };
                    let _ = write_frame(&mut stream, &error_response(&busy), &shared.limits);
                    continue;
                }
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("rdp-serve-conn".into())
                    .spawn(move || {
                        handle_connection(&conn_shared, stream);
                        conn_shared.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            // Transient accept errors (EMFILE, ECONNABORTED): back off
            // one poll interval instead of spinning.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Serves one client connection: frames in, frames out, every I/O under
/// the configured deadline. A protocol error is answered (best-effort)
/// and ends the session; it never ends the server.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let payload = match read_frame_opt(&mut stream, &shared.limits) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) => {
                if is_frame_limit(&e) {
                    shared.counters.incr(Counter::FrameLimitRejections);
                }
                let _ = write_frame(&mut stream, &error_response(&e), &shared.limits);
                return;
            }
        };
        let response = match parse_request(&payload) {
            Ok(Request::Shutdown) => {
                // Answer *before* initiating the drain: the wake below
                // lets the accept loop — and with it the whole process —
                // exit, which must not cut this response off mid-frame.
                // The response reports how many non-terminal jobs the
                // drain leaves durable for the next incarnation.
                let drained_jobs = {
                    let inner = shared.inner.lock().unwrap();
                    inner
                        .records
                        .values()
                        .filter(|r| !r.state.is_terminal())
                        .count()
                };
                let _ = write_frame(
                    &mut stream,
                    format!("{{\"ok\":true,\"draining\":true,\"drained_jobs\":{drained_jobs}}}")
                        .as_bytes(),
                    &shared.limits,
                );
                begin_shutdown(shared);
                return;
            }
            Ok(req) => handle_request(shared, req),
            Err(e) => Err(e),
        };
        let bytes = match response {
            Ok(json) => json.into_bytes(),
            Err(e) => error_response(&e),
        };
        if write_frame(&mut stream, &bytes, &shared.limits).is_err() {
            return;
        }
        // Draining: finish the in-flight request, then close instead of
        // waiting (up to a full read deadline) for a next frame that may
        // never come — keeps the post-join connection window short.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn status_with_progress(inner: &Inner, rec: &JobRecord) -> String {
    let mut out = rec.status_json();
    if rec.state == JobState::Running {
        if let Some(ctl) = inner.controls.get(&rec.id) {
            let p = *ctl.progress.lock().unwrap();
            out.pop();
            out.push_str(&format!(
                ",\"route_iter\":{},\"progress_hpwl\":{},\"progress_overflow\":{}}}",
                p.route_iter,
                json::num(p.hpwl),
                json::num(p.overflow)
            ));
        }
    }
    out
}

fn handle_request(shared: &Arc<Shared>, req: Request) -> Result<String, RdpError> {
    match req {
        Request::Ping => Ok(format!(
            "{{\"ok\":true,\"pong\":true,\"server_version\":{},\"protocol_version\":{PROTOCOL_VERSION}}}",
            crate::job::jstr(SERVER_VERSION)
        )),
        Request::Submit(spec) => {
            // A spec no worker could run is refused before it costs a job
            // id or a durable record.
            flow_config(&spec, 0)?;
            if shared.drain.load(Ordering::SeqCst) {
                return Err(RdpError::Busy {
                    detail: "server is draining".into(),
                    retry_after_ms: shared.cfg.retry_after_ms,
                });
            }
            let mut inner = shared.inner.lock().unwrap();
            let pending = inner
                .records
                .values()
                .filter(|r| !r.state.is_terminal())
                .count();
            if pending >= shared.cfg.max_queue {
                return Err(RdpError::Busy {
                    detail: format!(
                        "queue full ({pending} of {} jobs pending)",
                        shared.cfg.max_queue
                    ),
                    retry_after_ms: shared.cfg.retry_after_ms,
                });
            }
            let id = inner.next_id;
            let rec = JobRecord::queued(id, spec);
            // Durability before visibility: the record must be on disk
            // before the submit is acknowledged.
            shared.store.persist_record(&rec)?;
            inner.next_id += 1;
            inner.records.insert(id, rec);
            drop(inner);
            shared.counters.incr(Counter::Submits);
            shared.queue_cv.notify_one();
            Ok(format!("{{\"ok\":true,\"id\":{id}}}"))
        }
        Request::Status(None) => {
            let inner = shared.inner.lock().unwrap();
            let jobs: Vec<String> = inner
                .records
                .values()
                .map(|r| status_with_progress(&inner, r))
                .collect();
            Ok(format!(
                "{{\"ok\":true,\"draining\":{},\"jobs\":[{}]}}",
                shared.drain.load(Ordering::SeqCst),
                jobs.join(",")
            ))
        }
        Request::Status(Some(id)) => {
            let inner = shared.inner.lock().unwrap();
            let rec = inner
                .records
                .get(&id)
                .ok_or_else(|| RdpError::protocol(format!("no such job {id}")))?;
            Ok(format!(
                "{{\"ok\":true,\"job\":{}}}",
                status_with_progress(&inner, rec)
            ))
        }
        Request::Cancel(id) => {
            let mut inner = shared.inner.lock().unwrap();
            let rec = inner
                .records
                .get_mut(&id)
                .ok_or_else(|| RdpError::protocol(format!("no such job {id}")))?;
            match rec.state {
                JobState::Queued => {
                    rec.state = JobState::Cancelled;
                    rec.set_error(Some(&RdpError::Cancelled {
                        detail: format!("job {id} cancelled while queued"),
                    }));
                    let rec = rec.clone();
                    shared.store.persist_record(&rec)?;
                    shared.store.remove_checkpoint(id);
                    shared.counters.incr(Counter::Cancellations);
                    shared.done_cv.notify_all();
                    Ok(format!(
                        "{{\"ok\":true,\"id\":{id},\"state\":\"cancelled\"}}"
                    ))
                }
                JobState::Running => {
                    if let Some(ctl) = inner.controls.get(&id) {
                        ctl.cancel.store(true, Ordering::SeqCst);
                    }
                    Ok(format!(
                        "{{\"ok\":true,\"id\":{id},\"state\":\"cancelling\"}}"
                    ))
                }
                terminal => Ok(format!(
                    "{{\"ok\":true,\"id\":{id},\"state\":{},\"already_terminal\":true}}",
                    crate::job::jstr(terminal.label())
                )),
            }
        }
        Request::Result(id, want_positions, wait_ms) => {
            // Long-poll: while the job is queued/running, wait on the
            // settle condvar up to min(wait_ms, RESULT_WAIT_CAP_MS) —
            // one held connection instead of a client poll storm, and
            // still a bounded wait. Timeout or shutdown answers `Busy`.
            let deadline = Instant::now() + Duration::from_millis(wait_ms.min(RESULT_WAIT_CAP_MS));
            let mut inner = shared.inner.lock().unwrap();
            loop {
                let state = inner
                    .records
                    .get(&id)
                    .ok_or_else(|| RdpError::protocol(format!("no such job {id}")))?
                    .state;
                if state.is_terminal() {
                    break;
                }
                let now = Instant::now();
                if now >= deadline || shared.shutdown.load(Ordering::SeqCst) {
                    return Err(RdpError::Busy {
                        detail: format!("job {id} is {state}"),
                        retry_after_ms: shared.cfg.retry_after_ms,
                    });
                }
                let (g, _timeout) = shared.done_cv.wait_timeout(inner, deadline - now).unwrap();
                inner = g;
            }
            let rec = inner.records.get(&id).unwrap();
            match rec.state {
                JobState::Done => {
                    let res = rec.result.as_ref().ok_or_else(|| {
                        RdpError::internal(format!("done job {id} has no result record"))
                    })?;
                    let mut out = format!(
                        "{{\"ok\":true,\"id\":{id},\"attempt\":{},\"consumed_ms\":{},\
                         \"hpwl\":{},\"hpwl_bits\":\"{:#018x}\",\"density_overflow\":{},\
                         \"gp_iterations\":{},\"route_iterations\":{},\"place_seconds\":{},\
                         \"warnings\":[{}]",
                        rec.attempt,
                        rec.consumed_ms,
                        json::num(res.hpwl),
                        res.hpwl.to_bits(),
                        json::num(res.density_overflow),
                        res.gp_iterations,
                        res.route_iterations,
                        json::num(res.place_seconds),
                        res.warnings
                            .iter()
                            .map(|w| crate::job::jstr(w))
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    if want_positions {
                        let mut coords = String::with_capacity(res.positions.len() * 16);
                        for (i, p) in res.positions.iter().enumerate() {
                            if i > 0 {
                                coords.push(',');
                            }
                            coords.push_str(&json::num(p.x));
                            coords.push(',');
                            coords.push_str(&json::num(p.y));
                        }
                        out.push_str(&format!(",\"positions\":[{coords}]"));
                    }
                    out.push('}');
                    Ok(out)
                }
                JobState::Failed | JobState::Cancelled => {
                    let (kind, detail) = rec
                        .error
                        .clone()
                        .unwrap_or_else(|| ("internal".into(), "no error recorded".into()));
                    // A deadline failure reports the job's whole consumed
                    // time against its budget.
                    Err(error_from_parts(&kind, detail, rec.parse_site.clone(), |key| match key {
                        "elapsed_ms" => rec.consumed_ms,
                        "budget_ms" => rec.spec.deadline_ms.unwrap_or(0),
                        _ => 0,
                    }))
                }
                JobState::Queued | JobState::Running => {
                    unreachable!("the wait loop exits only on a terminal state")
                }
            }
        }
        Request::Stats => Ok(shared.counters.stats_json()),
        Request::Shutdown => unreachable!("shutdown handled by the connection loop"),
    }
}

/// Flips the drain/shutdown flags and wakes every waiter: the worker
/// condvar, long-poll `result` holders (they recheck, see shutdown, and
/// answer `Busy` instead of riding out their full wait), and the
/// blocking accept loop.
fn begin_shutdown(shared: &Shared) {
    shared.drain.store(true, Ordering::SeqCst);
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    shared.done_cv.notify_all();
    wake_accept(shared);
}

/// Claims the lowest-id queued job, marks it running (durably), and
/// returns it with its control handle.
fn claim_next(shared: &Shared) -> Option<(JobRecord, Arc<JobControl>)> {
    let mut inner = shared.inner.lock().unwrap();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let next = inner
            .records
            .values()
            .find(|r| r.state == JobState::Queued)
            .map(|r| r.id);
        if let Some(id) = next {
            let rec = inner.records.get_mut(&id).unwrap();
            rec.state = JobState::Running;
            let snapshot = rec.clone();
            // Persist the transition before running: a crash from here on
            // leaves `running` evidence that recovery requeues.
            if let Err(e) = shared.store.persist_record(&snapshot) {
                eprintln!("serve: job {id}: running-state persist failed: {e}");
            }
            let ctl = Arc::new(JobControl::default());
            inner.controls.insert(id, Arc::clone(&ctl));
            return Some((snapshot, ctl));
        }
        let (g, _timeout) = shared.queue_cv.wait_timeout(inner, POLL).unwrap();
        inner = g;
    }
}

/// Applies a finished job's outcome to the in-memory map and the store,
/// and counts its settle disposition.
fn settle(shared: &Shared, rec: JobRecord, outcome: crate::worker::ExecOutcome) {
    let id = rec.id;
    let mut rec = rec;
    rec.consumed_ms = outcome.consumed_ms;
    let keep_checkpoint = match outcome.disposition {
        Disposition::Done(result) => {
            shared.counters.incr(Counter::Completions);
            rec.state = JobState::Done;
            rec.result = Some(*result);
            rec.set_error(None);
            false
        }
        Disposition::Failed(e) => {
            shared.counters.incr(Counter::Failures);
            rec.state = JobState::Failed;
            rec.set_error(Some(&e));
            false
        }
        Disposition::Cancelled(e) => {
            shared.counters.incr(Counter::Cancellations);
            rec.state = JobState::Cancelled;
            rec.set_error(Some(&e));
            false
        }
        Disposition::Retry(e) => {
            eprintln!(
                "serve: job {id}: attempt {} failed retryably ({e}); requeueing damped",
                rec.attempt
            );
            shared.counters.incr(Counter::Retries);
            rec.state = JobState::Queued;
            rec.attempt += 1;
            rec.set_error(None);
            // A fresh (damped) run must not resume the diverged trajectory.
            false
        }
        Disposition::Requeue => {
            shared.counters.incr(Counter::Requeues);
            rec.state = JobState::Queued;
            // Keep the checkpoint: the next incarnation resumes bitwise.
            true
        }
    };
    if !keep_checkpoint {
        shared.store.remove_checkpoint(id);
    }
    if let Err(e) = shared.store.persist_record(&rec) {
        eprintln!("serve: job {id}: outcome persist failed: {e}");
    }
    let mut inner = shared.inner.lock().unwrap();
    inner.controls.remove(&id);
    inner.records.insert(id, rec);
    drop(inner);
    shared.queue_cv.notify_one();
    shared.done_cv.notify_all();
}

fn worker_loop(shared: &Arc<Shared>) {
    let threads = if shared.cfg.job_threads > 0 {
        shared.cfg.job_threads
    } else {
        (rdp_par::global_threads() / shared.cfg.workers.max(1)).max(1)
    };
    while let Some((rec, ctl)) = claim_next(shared) {
        let outcome = rdp_par::with_local_threads(threads, || {
            execute_job(&shared.store, &rec, &ctl, &shared.drain)
        });
        settle(shared, rec, outcome);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::job::JobSpec;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rdp-serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

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

    #[test]
    fn submit_wait_fetch_roundtrip() {
        let root = tmp_root("roundtrip");
        let server = Server::start(ServeConfig {
            dir: root.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let client = Client::new(server.local_addr().to_string());
        client.ping().unwrap();
        let id = client.submit(&small_spec()).unwrap();
        let outcome = client.wait(id, 20, 120_000).unwrap();
        let (reference, _) = crate::worker::reference_run(&small_spec()).unwrap();
        assert_eq!(outcome.hpwl_bits, reference.hpwl.to_bits());
        assert_eq!(outcome.positions.len(), reference.positions.len());
        assert_eq!(outcome.positions, reference.positions);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn queue_full_is_typed_busy_with_retry_hint() {
        let root = tmp_root("busy");
        // No workers: jobs stay queued, making the bound deterministic.
        let server = Server::start(ServeConfig {
            dir: root.clone(),
            workers: 0,
            max_queue: 2,
            retry_after_ms: 350,
            ..ServeConfig::default()
        })
        .unwrap();
        let client = Client::new(server.local_addr().to_string());
        // A spec no worker could run is a typed Config error that takes
        // neither a queue slot nor a job id.
        for spec in [
            JobSpec {
                preset: "warp-speed".into(),
                ..small_spec()
            },
            JobSpec {
                gp_max_iters: Some(0),
                ..small_spec()
            },
        ] {
            let err = client.submit(&spec).unwrap_err();
            assert!(matches!(err, RdpError::Config { .. }), "{err}");
        }
        assert!(client.status_all().unwrap().is_empty());
        assert_eq!(client.submit(&small_spec()).unwrap(), 1);
        client.submit(&small_spec()).unwrap();
        let err = client.submit(&small_spec()).unwrap_err();
        match err {
            RdpError::Busy { retry_after_ms, .. } => assert_eq!(retry_after_ms, 350),
            other => panic!("expected Busy, got {other}"),
        }
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancel_queued_job_is_durable() {
        let root = tmp_root("cancel");
        let server = Server::start(ServeConfig {
            dir: root.clone(),
            workers: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let client = Client::new(server.local_addr().to_string());
        let id = client.submit(&small_spec()).unwrap();
        client.cancel(id).unwrap();
        let status = client.status(id).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        // Durable: the record on disk is cancelled too.
        let store = Store::open(&root).unwrap();
        let bytes = std::fs::read(store.record_path(id)).unwrap();
        assert_eq!(
            JobRecord::from_bytes(&bytes).unwrap().state,
            JobState::Cancelled
        );
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }
}
