//! # rdp-obs — zero-dependency observability for the placement flow
//!
//! Four pieces, mirroring the `rdp-par`/`rdp-guard` style (std-only, no
//! external crates):
//!
//! 1. **Spans** ([`Collector::span`]): RAII guards that time a region with
//!    the monotonic clock and record it into a bounded ring buffer. Guards
//!    are thread-aware (each OS thread gets a small stable id) so spans
//!    recorded on `rdp-par` worker threads carry their own thread id.
//! 2. **Metrics** ([`Collector::counter_add`] / [`Collector::gauge_set`] /
//!    [`Collector::observe`] / [`Collector::series_push`]): counters,
//!    gauges, fixed log-2-bucket histograms, and per-iteration convergence
//!    series (HPWL, overflow, λ₁/λ₂, γ, inflation, …).
//! 3. **Frames** ([`Collector::frame`]): downsampled 2-D field snapshots
//!    (routed congestion, bin density) captured once per routability
//!    iteration under a fixed byte budget — the raw material for the
//!    per-iteration heatmaps in `rdp-report` HTML reports.
//! 4. **Exporters** ([`export_jsonl`], [`export_metrics_json`]): the
//!    JSON-lines event log and the metrics JSON document (series,
//!    histograms, frames) that make up a run directory, `trace.jsonl` and
//!    `metrics.json`. Their one reader is `rdp_report::RunModel`, which
//!    also builds the per-stage time table.
//!
//! ## Determinism contract
//!
//! Observability must never change results. Two rules enforce that:
//!
//! - **Timestamps never feed computation.** The collector only *records*;
//!   nothing in the flow reads a duration or clock back out of it. The
//!   only consumers of timing data are the exporters, which run after the
//!   flow finishes.
//! - **Disabled is (almost) free.** A [`Collector`] is an
//!   `Option<Arc<...>>`; when disabled every call is a single `is_none()`
//!   branch and no guard state is created, so production runs pay a few
//!   nanoseconds per span site and results are bitwise identical with
//!   tracing on or off at any `RDP_THREADS`.
//!
//! Memory is bounded: events land in a fixed-capacity ring (oldest evicted,
//! drops counted), metrics are aggregates.

mod export;
mod frame;
mod metrics;
mod ring;

pub mod json;

pub use export::{export_jsonl, export_metrics_json};
pub use frame::{downsample, Frame, DEFAULT_FRAME_BUDGET, FRAME_MAX_DIM};
pub use metrics::{Histogram, Registry, HIST_BUCKETS};
pub use ring::Ring;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default event-ring capacity for [`Collector::enabled`]. At ~100 bytes an
/// event this bounds trace memory to a few tens of MB on a full run.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 18;

/// Sentinel for "no iteration" on spans/instants outside the routability loop.
pub const NO_ITER: i64 = -1;

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Small, stable per-OS-thread id (assigned on first trace activity).
fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A timed region, recorded when its [`SpanGuard`] drops.
    Span {
        name: &'static str,
        cat: &'static str,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
        /// Routability iteration, or [`NO_ITER`].
        iter: i64,
    },
    /// A point-in-time occurrence (guard warning, rollback, checkpoint).
    Instant {
        name: &'static str,
        detail: String,
        tid: u64,
        ts_ns: u64,
        iter: i64,
    },
}

/// Drop accounting across every bounded store in the collector. Ring
/// eviction used to be visible only as one aggregate number; the per-kind
/// breakdown makes a truncated trace diagnosable (losing spans skews the
/// stage table, losing instants hides warnings — different failures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Total events evicted from the ring.
    pub events: u64,
    /// Evicted events that were spans.
    pub spans: u64,
    /// Evicted events that were instants.
    pub instants: u64,
    /// Frames evicted by the frame byte budget.
    pub frames: u64,
}

impl DropStats {
    /// Whether anything at all was dropped.
    pub fn any(&self) -> bool {
        self.events > 0 || self.frames > 0
    }
}

#[derive(Debug)]
struct State {
    events: Ring<Event>,
    /// Evicted-event breakdown (ring counts the total).
    dropped_spans: u64,
    dropped_instants: u64,
    metrics: Registry,
    frames: Vec<Frame>,
    frames_bytes: usize,
    frame_budget: usize,
    dropped_frames: u64,
    /// Recycled buffer from the last budget-evicted frame; the capture
    /// path downsamples into it instead of allocating per iteration.
    frame_spare: Vec<f64>,
}

impl State {
    /// Push into the ring, classifying any evicted event.
    fn push_event(&mut self, ev: Event) {
        match self.events.push(ev) {
            Some(Event::Span { .. }) => self.dropped_spans += 1,
            Some(Event::Instant { .. }) => self.dropped_instants += 1,
            None => {}
        }
    }
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    state: Mutex<State>,
}

/// Handle to an event/metrics sink. Cheap to clone (an `Arc`); the default
/// handle is *disabled* and records nothing.
#[derive(Debug, Clone, Default)]
pub struct Collector(Option<Arc<Inner>>);

impl Collector {
    /// A collector that records nothing; every call is a single branch.
    pub fn disabled() -> Self {
        Collector(None)
    }

    /// An enabled collector with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled collector holding at most `event_capacity` events.
    pub fn with_capacity(event_capacity: usize) -> Self {
        Self::with_capacity_and_frame_budget(event_capacity, DEFAULT_FRAME_BUDGET)
    }

    /// An enabled collector with explicit event capacity and frame byte
    /// budget (frames are evicted oldest-first past the budget).
    pub fn with_capacity_and_frame_budget(event_capacity: usize, frame_budget: usize) -> Self {
        Collector(Some(Arc::new(Inner {
            start: Instant::now(),
            state: Mutex::new(State {
                events: Ring::new(event_capacity),
                dropped_spans: 0,
                dropped_instants: 0,
                metrics: Registry::default(),
                frames: Vec::new(),
                frames_bytes: 0,
                frame_budget: frame_budget.max(1),
                dropped_frames: 0,
                frame_spare: Vec::new(),
            }),
        })))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn now_ns(inner: &Inner) -> u64 {
        inner.start.elapsed().as_nanos() as u64
    }

    /// Time a region until the returned guard drops. `cat` names the
    /// span's layer ("gp", "route", "flow", …).
    pub fn span(&self, name: &'static str, cat: &'static str) -> SpanGuard {
        self.span_iter(name, cat, NO_ITER)
    }

    /// Like [`Collector::span`], tagged with a routability iteration.
    pub fn span_iter(&self, name: &'static str, cat: &'static str, iter: i64) -> SpanGuard {
        match &self.0 {
            None => SpanGuard(None),
            Some(inner) => SpanGuard(Some(ActiveSpan {
                inner: Arc::clone(inner),
                name,
                cat,
                iter,
                tid: thread_id(),
                start_ns: Self::now_ns(inner),
            })),
        }
    }

    /// Record a point event (warning, rollback, checkpoint, …).
    pub fn instant(&self, name: &'static str, iter: i64, detail: impl Into<String>) {
        if let Some(inner) = &self.0 {
            let ev = Event::Instant {
                name,
                detail: detail.into(),
                tid: thread_id(),
                ts_ns: Self::now_ns(inner),
                iter,
            };
            inner.state.lock().unwrap().push_event(ev);
        }
    }

    /// Capture a 2-D field snapshot (e.g. the routed congestion map at a
    /// routability iteration). `data` is row-major `ny × nx`; it is
    /// box-averaged down to at most [`FRAME_MAX_DIM`] per axis *before*
    /// the collector lock is taken, and retained frames are bounded by the
    /// frame byte budget (oldest evicted, drops counted). Recording only —
    /// nothing in the flow ever reads a frame back.
    pub fn frame(&self, name: &'static str, iter: i64, nx: usize, ny: usize, data: &[f64]) {
        if let Some(inner) = &self.0 {
            // Downsample outside the lock, into the recycled buffer from
            // the last evicted frame (if any) to avoid a per-iteration
            // allocation on long flows.
            let mut buf = std::mem::take(&mut inner.state.lock().unwrap().frame_spare);
            let (dnx, dny) = frame::downsample_into(nx, ny, data, &mut buf);
            let frame = Frame {
                name,
                iter,
                nx: dnx,
                ny: dny,
                data: buf,
            };
            let bytes = frame.byte_size();
            let mut state = inner.state.lock().unwrap();
            state.frames.push(frame);
            state.frames_bytes += bytes;
            while state.frames_bytes > state.frame_budget && state.frames.len() > 1 {
                let evicted = state.frames.remove(0);
                state.frames_bytes -= evicted.byte_size();
                state.dropped_frames += 1;
                if evicted.data.capacity() > state.frame_spare.capacity() {
                    state.frame_spare = evicted.data;
                    state.frame_spare.clear();
                }
            }
        }
    }

    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.0 {
            inner.state.lock().unwrap().metrics.counter_add(name, delta);
        }
    }

    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.state.lock().unwrap().metrics.gauge_set(name, value);
        }
    }

    /// Add an observation to the named log-2 histogram.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.state.lock().unwrap().metrics.observe(name, value);
        }
    }

    /// Append `(step, value)` to the named convergence series.
    pub fn series_push(&self, name: &'static str, step: u64, value: f64) {
        if let Some(inner) = &self.0 {
            inner
                .state
                .lock()
                .unwrap()
                .metrics
                .series_push(name, step, value);
        }
    }

    /// Number of events evicted from the ring so far (0 when disabled).
    pub fn dropped_events(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(inner) => inner.state.lock().unwrap().events.dropped(),
        }
    }

    /// Number of events currently held (0 when disabled).
    pub fn event_count(&self) -> usize {
        match &self.0 {
            None => 0,
            Some(inner) => inner.state.lock().unwrap().events.len(),
        }
    }

    /// Number of frames currently held (0 when disabled).
    pub fn frame_count(&self) -> usize {
        match &self.0 {
            None => 0,
            Some(inner) => inner.state.lock().unwrap().frames.len(),
        }
    }

    /// Per-kind drop accounting (all zero when disabled).
    pub fn drop_stats(&self) -> DropStats {
        match &self.0 {
            None => DropStats::default(),
            Some(inner) => {
                let state = inner.state.lock().unwrap();
                DropStats {
                    events: state.events.dropped(),
                    spans: state.dropped_spans,
                    instants: state.dropped_instants,
                    frames: state.dropped_frames,
                }
            }
        }
    }

    /// Run `f` over a snapshot of `(events-oldest-first, metrics)`. Used by
    /// the exporters; returns `None` when disabled.
    ///
    /// This clones the **entire** event ring (up to the ring capacity) per
    /// call: the right trade for one-shot exporters at end of run. A
    /// reader that needs only the aggregates should use
    /// [`Collector::with_metrics`] (no ring copy at all).
    pub fn with_snapshot<R>(&self, f: impl FnOnce(&[Event], &Registry, u64) -> R) -> Option<R> {
        let inner = self.0.as_ref()?;
        let state = inner.state.lock().unwrap();
        let events: Vec<Event> = state.events.iter().cloned().collect();
        let dropped = state.events.dropped();
        Some(f(&events, &state.metrics, dropped))
    }

    /// Run `f` over the metrics registry alone — counters, gauges,
    /// histograms, series — without cloning the event ring. Returns `None`
    /// when disabled; recording calls on other threads block only for the
    /// duration of `f`.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Registry) -> R) -> Option<R> {
        let inner = self.0.as_ref()?;
        let state = inner.state.lock().unwrap();
        Some(f(&state.metrics))
    }

    /// Run `f` over the captured frames (oldest-first) and the dropped
    /// frame count; returns `None` when disabled.
    pub fn with_frames<R>(&self, f: impl FnOnce(&[Frame], u64) -> R) -> Option<R> {
        let inner = self.0.as_ref()?;
        let state = inner.state.lock().unwrap();
        Some(f(&state.frames, state.dropped_frames))
    }
}

#[derive(Debug)]
struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    cat: &'static str,
    iter: i64,
    tid: u64,
    start_ns: u64,
}

/// RAII span: records a [`Event::Span`] covering its lifetime when dropped.
#[derive(Debug)]
#[must_use = "a span guard times the region until it is dropped"]
pub struct SpanGuard(Option<ActiveSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let end_ns = Collector::now_ns(&s.inner);
            let ev = Event::Span {
                name: s.name,
                cat: s.cat,
                tid: s.tid,
                start_ns: s.start_ns,
                dur_ns: end_ns.saturating_sub(s.start_ns),
                iter: s.iter,
            };
            s.inner.state.lock().unwrap().push_event(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        {
            let _g = c.span("x", "test");
            c.instant("i", NO_ITER, "d");
            c.counter_add("n", 1);
            c.observe("h", 1.0);
            c.series_push("s", 0, 1.0);
            c.frame("f", NO_ITER, 2, 2, &[1.0, 2.0, 3.0, 4.0]);
        }
        assert!(!c.is_enabled());
        assert_eq!(c.event_count(), 0);
        assert_eq!(c.frame_count(), 0);
        assert_eq!(c.drop_stats(), DropStats::default());
        assert!(c.with_snapshot(|_, _, _| ()).is_none());
        assert!(c.with_frames(|_, _| ()).is_none());
    }

    #[test]
    fn frames_are_captured_and_downsampled() {
        let c = Collector::enabled();
        let big: Vec<f64> = vec![1.5; 100 * 100];
        c.frame("congestion", 1, 100, 100, &big);
        c.frame("congestion", 2, 10, 10, &vec![0.5; 100]);
        c.with_frames(|frames, dropped| {
            assert_eq!(dropped, 0);
            assert_eq!(frames.len(), 2);
            assert_eq!((frames[0].nx, frames[0].ny), (48, 48));
            assert!(frames[0].data.iter().all(|&v| (v - 1.5).abs() < 1e-12));
            assert_eq!((frames[1].nx, frames[1].ny), (10, 10));
            assert_eq!(frames[1].iter, 2);
        })
        .unwrap();
    }

    #[test]
    fn frame_budget_evicts_oldest_and_counts_drops() {
        // Budget for roughly two 10×10 frames (800 B data + struct each).
        let c = Collector::with_capacity_and_frame_budget(64, 2 * 900);
        for i in 0..5 {
            c.frame("congestion", i, 10, 10, &vec![i as f64; 100]);
        }
        let stats = c.drop_stats();
        assert!(stats.frames > 0, "budget never evicted: {stats:?}");
        assert!(stats.any());
        c.with_frames(|frames, dropped| {
            assert_eq!(dropped, stats.frames);
            // Newest frames survive.
            assert_eq!(frames.last().unwrap().iter, 4);
            let held: usize = frames.iter().map(Frame::byte_size).sum();
            assert!(held <= 2 * 900, "held {held} bytes over budget");
        })
        .unwrap();
    }

    #[test]
    fn ring_overflow_classifies_dropped_kinds() {
        let c = Collector::with_capacity(4);
        for _ in 0..3 {
            let _g = c.span("s", "test");
        }
        for _ in 0..4 {
            c.instant("i", NO_ITER, "d");
        }
        let stats = c.drop_stats();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.spans + stats.instants, stats.events);
        assert_eq!(stats.spans, 3); // the three oldest events were spans
        assert_eq!(c.event_count(), 4);
    }

    #[test]
    fn span_drop_order_is_inner_first() {
        let c = Collector::enabled();
        {
            let _outer = c.span("outer", "test");
            {
                let _inner = c.span("inner", "test");
            }
        }
        c.with_snapshot(|events, _, _| {
            let names: Vec<&str> = events
                .iter()
                .map(|e| match e {
                    Event::Span { name, .. } => *name,
                    Event::Instant { name, .. } => *name,
                })
                .collect();
            assert_eq!(names, vec!["inner", "outer"]);
            // The outer span must fully contain the inner one.
            if let (
                Event::Span {
                    start_ns: is_,
                    dur_ns: id,
                    ..
                },
                Event::Span {
                    start_ns: os,
                    dur_ns: od,
                    ..
                },
            ) = (&events[0], &events[1])
            {
                assert!(os <= is_);
                assert!(os + od >= is_ + id);
            } else {
                panic!("expected two spans");
            }
        })
        .unwrap();
    }

    #[test]
    fn with_metrics_reads_registry_without_events() {
        let c = Collector::enabled();
        c.counter_add("jobs", 3);
        c.series_push("hpwl", 1, 42.0);
        let (jobs, pts) = c
            .with_metrics(|m| (m.counters["jobs"], m.series["hpwl"].len()))
            .unwrap();
        assert_eq!((jobs, pts), (3, 1));
        assert!(Collector::disabled().with_metrics(|_| ()).is_none());
    }

    #[test]
    fn metrics_accumulate() {
        let c = Collector::enabled();
        c.counter_add("batches", 2);
        c.counter_add("batches", 3);
        c.gauge_set("gamma", 4.0);
        c.gauge_set("gamma", 2.0);
        c.series_push("hpwl", 0, 10.0);
        c.series_push("hpwl", 1, 9.0);
        c.with_snapshot(|_, m, _| {
            assert_eq!(m.counters["batches"], 5);
            assert_eq!(m.gauges["gamma"], 2.0);
            assert_eq!(m.series["hpwl"], vec![(0, 10.0), (1, 9.0)]);
        })
        .unwrap();
    }
}
