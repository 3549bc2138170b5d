//! # rdp-report — flow reports, run diffs, and regression gating
//!
//! The read-side of observability. `rdp-obs` collects and exports a run
//! directory (`trace.jsonl` + `metrics.json`); this crate is its one
//! reader and makes a run *inspectable* and *comparable*, std-only like
//! the rest of the workspace:
//!
//! * [`RunModel`] — one run's obs artifacts (trace JSONL + metrics JSON,
//!   including the per-iteration congestion/density frames) parsed into a
//!   single structure, in one pass over the trace. Hostile or truncated
//!   input yields a typed [`rdp_guard::RdpError::Parse`] naming its line,
//!   never a panic. [`RunModel::stage_rows`] is the per-stage time ledger
//!   and [`RunModel::stage_table`] the table `--profile` prints.
//! * [`render_report`] — a **single self-contained HTML file**: inline
//!   SVG charts for every convergence series (HPWL, overflow, λ₁/λ₂, γ,
//!   inflation), the per-stage time breakdown, the warning/rollback
//!   timeline, and one heatmap per captured congestion/density frame.
//!   No scripts, no external fetches.
//! * [`validate_report`] — proves those properties instead of assuming
//!   them: bans external-reference markup, checks tag balance, and
//!   cross-checks chart/heatmap counts against the ingested model.
//! * [`diff_runs`] — structured QoR deltas between two runs with a noise
//!   threshold ([`DiffThresholds`]), plus informational per-stage time
//!   deltas; drives the `rdp diff` CLI and its nonzero-on-regression exit.
//! * [`mod@bench`] — `BENCH_<suite>.json` parsing and median-of-N baseline
//!   comparison for `scripts/regress.sh`.
//!
//! The determinism contract carries over: reporting runs strictly after
//! the flow, on exported artifacts, so it can never perturb placement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod diff;
mod html;
mod model;
mod validate;

pub use diff::{diff_runs, Delta, DeltaKind, DiffThresholds, RunDiff};
pub use html::render_report;
pub use model::{FrameRec, HistogramSummary, InstantRec, RunModel, SpanRec, StageRow};
pub use validate::{validate_report, ReportStats};
