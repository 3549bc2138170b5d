//! The service's lifetime job counters, the whole answer to `stats`.
//!
//! Nine monotonic counters: submits, the three settle outcomes, retries,
//! requeues, quarantined records, and the two kinds of rejected peer.
//! Startup seeds them from the recovered store, so they stay monotonic
//! across a `kill -9` and restart: a terminal record on disk is counted
//! once, never again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::job::{JobRecord, JobState};
use crate::store::RecoveryReport;

/// One lifecycle counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Jobs accepted into the queue.
    Submits,
    /// Jobs that settled `done`.
    Completions,
    /// Jobs that settled `failed`.
    Failures,
    /// Jobs cancelled, queued or running.
    Cancellations,
    /// Retryable failures requeued for a damped attempt.
    Retries,
    /// Running jobs requeued by a drain or a restart.
    Requeues,
    /// Corrupt records quarantined at startup.
    Quarantined,
    /// Frames rejected for their size.
    FrameLimitRejections,
    /// Connections turned away at the connection cap.
    SlotRejections,
}

impl Counter {
    const ALL: [Counter; 9] = [
        Counter::Submits,
        Counter::Completions,
        Counter::Failures,
        Counter::Cancellations,
        Counter::Retries,
        Counter::Requeues,
        Counter::Quarantined,
        Counter::FrameLimitRejections,
        Counter::SlotRejections,
    ];

    /// The counter's key in the `stats` response.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Submits => "submits",
            Counter::Completions => "completions",
            Counter::Failures => "failures",
            Counter::Cancellations => "cancellations",
            Counter::Retries => "retries",
            Counter::Requeues => "requeues",
            Counter::Quarantined => "quarantined",
            Counter::FrameLimitRejections => "frame_limit_rejections",
            Counter::SlotRejections => "slot_rejections",
        }
    }
}

/// The nine lifecycle counters of one server process.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; 9]);

impl Counters {
    /// Adds `delta` to `c`.
    pub fn add(&self, c: Counter, delta: u64) {
        self.0[c as usize].fetch_add(delta, Ordering::SeqCst);
    }

    /// Adds one to `c`.
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Seeds the counters from the store recovery found at startup: every
    /// record on disk was once a submit, terminal records count their
    /// outcome, and killed `running` jobs count as the requeues recovery
    /// made of them.
    pub fn seed_from_records(&self, records: &BTreeMap<u64, JobRecord>, recovery: &RecoveryReport) {
        self.add(Counter::Submits, records.len() as u64);
        for rec in records.values() {
            match rec.state {
                JobState::Done => self.incr(Counter::Completions),
                JobState::Failed => self.incr(Counter::Failures),
                JobState::Cancelled => self.incr(Counter::Cancellations),
                JobState::Queued | JobState::Running => {}
            }
        }
        self.add(Counter::Requeues, recovery.requeued_running as u64);
        self.add(Counter::Quarantined, recovery.quarantined.len() as u64);
    }

    /// The current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::SeqCst)
    }

    /// The `stats` response: `{"ok":true,"service":{"counters":{…}}}`,
    /// every counter present, zeros included.
    pub fn stats_json(&self) -> String {
        let fields: Vec<String> = Counter::ALL
            .iter()
            .map(|&c| format!("\"{}\":{}", c.name(), self.get(c)))
            .collect();
        format!(
            "{{\"ok\":true,\"service\":{{\"counters\":{{{}}}}}}}",
            fields.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_lists_every_counter() {
        let c = Counters::default();
        c.incr(Counter::Submits);
        c.add(Counter::Completions, 2);
        let v = rdp_obs::json::parse(&c.stats_json()).expect("valid JSON");
        let counters = v.get("service").and_then(|s| s.get("counters")).unwrap();
        for counter in Counter::ALL {
            let want = match counter {
                Counter::Submits => 1.0,
                Counter::Completions => 2.0,
                _ => 0.0,
            };
            assert_eq!(
                counters.get(counter.name()).and_then(|n| n.as_f64()),
                Some(want),
                "{}",
                counter.name()
            );
        }
    }
}
