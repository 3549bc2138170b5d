//! Crash-safe placement-as-a-service.
//!
//! `rdp-serve` puts a long-running daemon in front of the placement flow:
//! clients submit jobs over a length-prefixed JSON-over-TCP protocol
//! ([`protocol`]), a **durable job queue** persists every job as a
//! versioned `RDPSNAP`-style record ([`job`], [`store`]) through states
//! `queued → running → done/failed/cancelled`, and worker threads
//! ([`worker`], [`server`]) run the flow with the `rdp-guard` checkpoint
//! hooks so the server can be `kill -9`ed at **any** instant and, on
//! restart, replay the queue and resume partial placements
//! bitwise-identically (the flow's checkpoint/resume contract).
//!
//! Robustness invariants, each exercised by a named fault-injection
//! scenario in `tests/serve_robustness.rs`:
//!
//! - **Durability**: every job-state transition is written atomically
//!   (tmp + rename + fsync); a torn write can only lose the tmp file.
//!   Corrupt records and checkpoints found at startup are quarantined
//!   (renamed `*.corrupt`), never panicked on.
//! - **Deadlines**: per-job wall-clock budgets are enforced at checkpoint
//!   boundaries via [`rdp_core::FlowControl::interrupt`] — an expired job
//!   fails with a typed [`RdpError::Deadline`](rdp_guard::RdpError), it
//!   never wedges a worker.
//! - **Retry with backoff**: retryable failures (`Diverged`, `NonFinite`)
//!   re-run with an exponentially damped configuration up to the job's
//!   retry budget; `Parse`/`Config`/`Internal` fail fast.
//! - **Backpressure**: the queue is bounded; submits beyond the bound are
//!   rejected with a typed `Busy { retry_after_ms }`, never queued
//!   unboundedly.
//! - **No unbounded waits**: every accept, read, write, queue wait, and
//!   join path carries a deadline or poll bound. Slow-loris clients and
//!   garbage/oversized/truncated frames produce typed `Protocol` errors.
//! - **Graceful drain**: shutdown stops accepting, interrupts running
//!   jobs at their next checkpoint (requeueing them with the checkpoint
//!   persisted), and exits with the whole queue durable on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod protocol;
pub mod server;
pub mod store;
pub mod telemetry;
pub mod worker;

pub use client::{Client, JobStatus, PingInfo};
pub use job::{flow_config, retryable, JobRecord, JobResult, JobSpec, JobState};
pub use protocol::{error_parts, FrameLimits, Request, WatchParams, PROTOCOL_VERSION};
pub use server::{ServeConfig, Server};
pub use store::{RecoveryReport, Store};
pub use telemetry::{validate_stats_json, ServiceMetrics, StatsSummary, STATS_VERSION};
pub use worker::resolve_input;
