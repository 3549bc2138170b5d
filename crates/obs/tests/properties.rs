//! Property-style tests for rdp-obs: histogram edge cases, span nesting and
//! drop order, ring bounding, threaded recording under an rdp-par pool, and
//! exporter well-formedness. Exports are read back through
//! `rdp_report::RunModel`, the one reader of a run directory.

use rdp_obs::{export_jsonl, export_metrics_json, json, Collector, Event, Histogram, NO_ITER};
use rdp_par::Pool;
use rdp_report::RunModel;

#[test]
fn histogram_zero_subnormal_inf_edges() {
    let mut h = Histogram::default();
    h.observe(0.0);
    h.observe(-0.0);
    assert_eq!(h.zeros, 2);

    // Smallest positive subnormal and a mid-range subnormal.
    h.observe(5e-324);
    h.observe(f64::MIN_POSITIVE / 2.0);
    // Normal boundary values.
    h.observe(f64::MIN_POSITIVE);
    h.observe(f64::MAX);
    h.observe(1.0);

    // Non-finite inputs (these are what rdp-guard sentinels catch in the
    // flow; the histogram must tolerate them without poisoning sum/min/max).
    h.observe(f64::INFINITY);
    h.observe(f64::NEG_INFINITY);
    h.observe(f64::NAN);

    assert_eq!(h.count, 10);
    assert_eq!(h.non_finite, 3);
    assert!(h.consistent(), "count must equal non_finite+zeros+buckets");
    assert!(h.sum.is_finite());
    assert_eq!(h.max, f64::MAX);
    assert_eq!(h.min, 0.0);
}

#[test]
fn histogram_negative_magnitudes_bucket_by_abs() {
    let mut h = Histogram::default();
    h.observe(-8.0);
    h.observe(8.0);
    assert_eq!(h.negatives, 1);
    let nonzero: Vec<usize> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(nonzero.len(), 1, "both land in the |8| = 2^3 bucket");
    assert_eq!(h.buckets[nonzero[0]], 2);
}

#[test]
fn histogram_powers_of_two_span_distinct_buckets() {
    let mut h = Histogram::default();
    let mut v = 1.0_f64;
    for _ in 0..20 {
        h.observe(v);
        v *= 2.0;
    }
    let nonzero = h.buckets.iter().filter(|c| **c > 0).count();
    assert_eq!(nonzero, 20, "each power of two gets its own log-2 bucket");
    assert!(h.consistent());
}

#[test]
fn span_nesting_and_drop_order_across_pool_threads() {
    // Emulate RDP_THREADS=4: spans opened on pool worker threads must
    // record with distinct thread ids and still close inner-before-outer.
    let col = Collector::enabled();
    let pool = Pool::new(4);
    {
        let _outer = col.span("outer", "test");
        let per_chunk: Vec<u64> = pool.map_chunks(64, 16, |ci, range| {
            let _worker = col.span_iter("worker_chunk", "test", ci as i64);
            let _inner = col.span("worker_inner", "test");
            range.end as u64
        });
        assert_eq!(per_chunk.len(), 4);
    }

    col.with_snapshot(|events, _, dropped| {
        assert_eq!(dropped, 0);
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    name,
                    tid,
                    start_ns,
                    dur_ns,
                    ..
                } => Some((*name, *tid, *start_ns, *dur_ns)),
                _ => None,
            })
            .collect();
        // 1 outer + 4 chunks * 2 spans each.
        assert_eq!(spans.len(), 9);
        // The outer span is recorded last (drop order) and contains all others.
        let (name, _, outer_start, outer_dur) = spans[spans.len() - 1];
        assert_eq!(name, "outer");
        for (n, _, s, d) in &spans[..spans.len() - 1] {
            assert!(*s >= outer_start, "{n} starts inside outer");
            assert!(s + d <= outer_start + outer_dur, "{n} ends inside outer");
        }
        // Each worker_inner must be recorded before (and contained in) its
        // chunk's worker_chunk span on the same thread.
        for w in spans.iter().filter(|s| s.0 == "worker_inner") {
            let owner = spans
                .iter()
                .filter(|s| s.0 == "worker_chunk" && s.1 == w.1 && s.2 <= w.2)
                .max_by_key(|s| s.2)
                .expect("inner span has an enclosing chunk span on its thread");
            assert!(w.2 + w.3 <= owner.2 + owner.3);
        }
    })
    .unwrap();
}

#[test]
fn ring_bounds_memory_and_counts_drops() {
    let col = Collector::with_capacity(8);
    for i in 0..20 {
        let _s = col.span_iter("tick", "test", i);
    }
    assert_eq!(col.event_count(), 8);
    assert_eq!(col.dropped_events(), 12);

    // Exports stay valid after wrap-around, and the meta line reports drops.
    let model = RunModel::from_strings(Some(&export_jsonl(&col)), "{}").unwrap();
    assert_eq!(model.spans.len(), 8);
    assert_eq!(model.dropped_events, 12);
    assert_eq!(model.dropped_spans, 12);
    // The surviving events are the newest iterations.
    col.with_snapshot(|events, _, _| {
        let iters: Vec<i64> = events
            .iter()
            .map(|e| match e {
                Event::Span { iter, .. } => *iter,
                Event::Instant { iter, .. } => *iter,
            })
            .collect();
        assert_eq!(iters, (12..20).collect::<Vec<i64>>());
    })
    .unwrap();
}

#[test]
fn exporters_survive_hostile_strings() {
    let col = Collector::enabled();
    col.instant(
        "guard_warning",
        3,
        "quote \" backslash \\ newline \n tab \t unicode λ₁",
    );
    let jsonl = export_jsonl(&col);
    let model = RunModel::from_strings(Some(&jsonl), "{}").unwrap();

    // The detail string round-trips exactly through escape + parse.
    assert_eq!(model.instants.len(), 1);
    assert_eq!(model.instants[0].name, "guard_warning");
    assert_eq!(
        model.instants[0].detail,
        "quote \" backslash \\ newline \n tab \t unicode λ₁"
    );
}

#[test]
fn metrics_export_is_deterministic_and_non_finite_safe() {
    let build = || {
        let c = Collector::enabled();
        // Insert in one order...
        c.gauge_set("z_last", f64::INFINITY);
        c.gauge_set("a_first", 1.0);
        c.counter_add("beta", 2);
        c.counter_add("alpha", 1);
        c.observe("h", f64::NAN);
        c.observe("h", 2.0);
        c.series_push("s", 0, 1.0);
        c
    };
    let build_rev = || {
        let c = Collector::enabled();
        // ...and the reverse order; exports must match byte-for-byte.
        c.series_push("s", 0, 1.0);
        c.observe("h", 2.0);
        c.observe("h", f64::NAN);
        c.counter_add("alpha", 1);
        c.counter_add("beta", 2);
        c.gauge_set("a_first", 1.0);
        c.gauge_set("z_last", f64::INFINITY);
        c
    };
    let a = export_metrics_json(&build());
    let b = export_metrics_json(&build_rev());
    assert_eq!(a, b);
    // Non-finite gauge serializes as null, keeping the document parseable.
    let v = json::parse(&a).unwrap();
    assert_eq!(
        v.get("gauges").unwrap().get("z_last"),
        Some(&json::Value::Null)
    );
    let h = v.get("histograms").unwrap().get("h").unwrap();
    assert_eq!(h.get("non_finite").unwrap().as_f64(), Some(1.0));
}

#[test]
fn stage_rows_aggregate_across_threads() {
    let col = Collector::enabled();
    let pool = Pool::new(4);
    pool.map_chunks(32, 8, |ci, _| {
        let _s = col.span("kernel", "test");
        ci
    });
    let rows = RunModel::from_collector(&col).unwrap().stage_rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].name, "kernel");
    assert_eq!(rows[0].calls, 4);
    assert!(rows[0].mean_ns <= rows[0].total_ns);
}

#[test]
fn disabled_collector_is_inert_under_threads() {
    let col = Collector::disabled();
    let pool = Pool::new(4);
    pool.map_chunks(32, 8, |ci, _| {
        let _s = col.span_iter("kernel", "test", NO_ITER);
        col.observe("h", ci as f64);
        ci
    });
    assert_eq!(col.event_count(), 0);
    assert_eq!(export_jsonl(&col), "");
    assert_eq!(export_metrics_json(&col), "{}\n");
}
