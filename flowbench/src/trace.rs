//! Span reduction: per-name inclusive time, self time and counts.
//!
//! rdp's spans nest (`gp_step` ⊃ `density_field` ⊃ `poisson_solve`), so
//! summing durations per name counts nested time once per level and a
//! stage table built that way can pass 100% of the wall. Self time
//! subtracts from each span the part of its interval that its direct
//! children on the same thread cover; self times of all spans of one
//! thread then add up to at most that thread's traced wall time.

use std::collections::BTreeMap;

use rdp_report::{RunModel, SpanRec};

/// Reduced times of one or more traced runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Per span name: summed self time in nanoseconds.
    pub self_ns: BTreeMap<String, u64>,
    /// Per span name: summed inclusive duration in nanoseconds.
    pub incl_ns: BTreeMap<String, u64>,
    /// Per span name: number of spans.
    pub count: BTreeMap<String, u64>,
    /// Metric counters (`route_batches`, `route_maze_rerouted`, …).
    pub counters: BTreeMap<String, f64>,
    /// Events the collector's ring evicted (the totals then undercount).
    pub dropped_events: u64,
}

impl SpanTotals {
    /// Reduces one loaded run (a collector snapshot or a run-dir).
    pub fn from_model(model: &RunModel) -> SpanTotals {
        let mut t = SpanTotals {
            counters: model.counters.clone(),
            dropped_events: model.dropped_events,
            ..SpanTotals::default()
        };
        for (span, self_ns) in model.spans.iter().zip(self_times(&model.spans)) {
            *t.self_ns.entry(span.name.clone()).or_default() += self_ns;
            *t.incl_ns.entry(span.name.clone()).or_default() += span.dur_ns;
            *t.count.entry(span.name.clone()).or_default() += 1;
        }
        t
    }

    /// Adds another run's totals into this one.
    pub fn merge(&mut self, other: &SpanTotals) {
        for (dst, src) in [
            (&mut self.self_ns, &other.self_ns),
            (&mut self.incl_ns, &other.incl_ns),
            (&mut self.count, &other.count),
        ] {
            for (k, v) in src {
                *dst.entry(k.clone()).or_default() += v;
            }
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        self.dropped_events += other.dropped_events;
    }

    /// Scales every time by `f` (to reference seconds); counts stay.
    pub fn scale(&mut self, f: f64) {
        for times in [&mut self.self_ns, &mut self.incl_ns] {
            for v in times.values_mut() {
                *v = (*v as f64 * f).round() as u64;
            }
        }
    }

    /// Self time of `name` in seconds (0 when the span never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Inclusive time of `name` in seconds.
    pub fn incl_s(&self, name: &str) -> f64 {
        self.incl_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Number of `name` spans.
    pub fn spans(&self, name: &str) -> f64 {
        self.count.get(name).copied().unwrap_or(0) as f64
    }

    /// Value of counter `name` (0 when never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span, in seconds.
    pub fn total_self_s(&self) -> f64 {
        self.self_ns.values().sum::<u64>() as f64 * 1e-9
    }
}

/// Self time of each span in `spans` (same order). A span is a child of
/// the innermost earlier-starting span on the same `tid` whose interval
/// contains it; spans on different threads never subtract from each
/// other.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Per thread, by start; a parent starting at the same instant as its
    // child is the longer one and must come first.
    order.sort_by_key(|&i| {
        (
            spans[i].tid,
            spans[i].ts_ns,
            std::cmp::Reverse(spans[i].dur_ns),
        )
    });
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for i in order {
        let s = &spans[i];
        if tid != Some(s.tid) {
            stack.clear();
            tid = Some(s.tid);
        }
        let end = s.ts_ns + s.dur_ns;
        while let Some(&top) = stack.last() {
            if spans[top].ts_ns + spans[top].dur_ns >= end {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            out[parent] = out[parent].saturating_sub(s.dur_ns);
        }
        stack.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, ts_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            cat: "t".into(),
            tid,
            ts_ns,
            dur_ns,
            iter: None,
        }
    }

    #[test]
    fn nested_spans_on_one_thread_subtract_only_direct_children() {
        // step [0,100) ⊃ field [10,60) ⊃ solve [20,50); step ⊃ grad [70,90)
        let spans = vec![
            span("solve", 1, 20, 30),
            span("field", 1, 10, 50),
            span("grad", 1, 70, 20),
            span("step", 1, 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 30]);
        let model = RunModel {
            spans,
            ..RunModel::default()
        };
        let t = SpanTotals::from_model(&model);
        // Self times add up to the root's wall; inclusive times do not.
        assert_eq!(t.self_ns.values().sum::<u64>(), 100);
        assert_eq!(t.incl_ns.values().sum::<u64>(), 200);
    }

    #[test]
    fn spans_on_other_threads_are_not_children() {
        // A worker-thread span inside the main thread's interval keeps
        // its own time and takes nothing from the main-thread span.
        let spans = vec![span("main", 1, 0, 100), span("worker", 2, 10, 50)];
        assert_eq!(self_times(&spans), vec![100, 50]);
    }

    #[test]
    fn same_start_parent_sorts_before_child_and_siblings_do_not_nest() {
        let spans = vec![
            span("child", 1, 0, 40),
            span("parent", 1, 0, 100),
            span("sibling", 1, 100, 10),
        ];
        assert_eq!(self_times(&spans), vec![40, 60, 10]);
    }

    #[test]
    fn merge_adds_totals() {
        let model = RunModel {
            spans: vec![span("a", 1, 0, 10)],
            ..RunModel::default()
        };
        let mut t = SpanTotals::from_model(&model);
        t.merge(&SpanTotals::from_model(&model));
        assert_eq!(t.self_s("a"), 20e-9);
        assert_eq!(t.spans("a"), 2.0);
        assert_eq!(t.spans("missing"), 0.0);
        t.scale(1.5);
        assert_eq!((t.self_ns["a"], t.incl_ns["a"], t.count["a"]), (30, 30, 2));
    }
}
