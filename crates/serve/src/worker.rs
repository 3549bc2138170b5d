//! Job execution: one flow run under the durability + deadline contract.
//!
//! [`execute_job`] runs a job's flow with the `rdp-core` checkpoint hooks
//! wired to the [`Store`]: every routability iteration persists a
//! [`rdp_core::FlowCheckpoint`] and the running record (with its
//! consumed-time accounting) atomically, then polls the interrupt for
//! cancellation, drain, and the wall-clock deadline. The worker thread is
//! panic-proof: the whole run executes under `catch_unwind`, and a panic
//! surfaces as a typed [`RdpError::Internal`] on the job, never a dead
//! worker.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rdp_core::{run_flow_with, FlowCheckpoint, FlowControl, FlowReport};
use rdp_db::Design;
use rdp_guard::RdpError;
use rdp_obs::Collector;

use crate::job::{flow_config, retryable, JobRecord, JobResult, JobSpec, JobState};
use crate::store::{write_run_dir, Store};

/// Live progress of a running job, updated at each checkpoint boundary
/// and read by `status` and `stats` responses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Progress {
    /// Next routability iteration the flow will execute.
    pub route_iter: u64,
    /// HPWL after the last completed iteration (0 before the first).
    pub hpwl: f64,
    /// Routing overflow after the last completed iteration.
    pub overflow: f64,
}

/// Shared handle the server uses to observe and cancel a running job.
#[derive(Debug, Default)]
pub struct JobControl {
    /// Set by a client `cancel`; honored at the next checkpoint boundary.
    pub cancel: AtomicBool,
    /// Latest checkpoint-boundary progress.
    pub progress: Mutex<Progress>,
    /// The running attempt's in-flight collector (disabled unless the
    /// spec asked for capture). `stats`/`watch` read convergence series
    /// and drop accounting from it — read-side snapshots only, so an
    /// observed job stays bitwise identical to an unobserved one.
    pub obs: Mutex<Collector>,
}

/// Why [`execute_job`] stopped.
#[derive(Debug)]
pub enum Disposition {
    /// The flow completed; record the result.
    Done(Box<JobResult>),
    /// A retryable error with retry budget left: requeue with
    /// `attempt + 1` and a fresh (damped) start.
    Retry(RdpError),
    /// Terminal failure.
    Failed(RdpError),
    /// Cancelled by a client.
    Cancelled(RdpError),
    /// Interrupted by drain: requeue with the checkpoint preserved so the
    /// next incarnation resumes bitwise.
    Requeue,
}

/// Outcome of one [`execute_job`] call.
#[derive(Debug)]
pub struct ExecOutcome {
    /// What happened.
    pub disposition: Disposition,
    /// Total wall-clock milliseconds consumed by the job across all
    /// attempts and incarnations (previous `consumed_ms` + this run).
    pub consumed_ms: u64,
}

/// Resolves an input spec to a design: a suite name,
/// `bookshelf:DIR:BASE`, or `lefdef:LEF:DEF`. The one input resolver:
/// the CLI's commands and the worker both load through it, timing
/// generation or parsing on `obs`.
pub fn resolve_input(spec: &str, obs: &Collector) -> Result<Design, RdpError> {
    if let Some(rem) = spec.strip_prefix("bookshelf:") {
        let (dir, base) = rem.split_once(':').ok_or_else(|| RdpError::Config {
            detail: "bookshelf input must be bookshelf:DIR:BASE".into(),
        })?;
        return rdp_parse::load_bookshelf_obs(Path::new(dir), base, obs).map_err(|e| {
            RdpError::Parse {
                context: format!("bookshelf {dir}/{base}"),
                line: None,
                message: e.to_string(),
            }
        });
    }
    if let Some(rem) = spec.strip_prefix("lefdef:") {
        let (lef, def) = rem.split_once(':').ok_or_else(|| RdpError::Config {
            detail: "lefdef input must be lefdef:LEF_PATH:DEF_PATH".into(),
        })?;
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| RdpError::Parse {
                context: path.to_string(),
                line: None,
                message: e.to_string(),
            })
        };
        let files = rdp_parse::LefDefFiles {
            lef: read(lef)?,
            def: read(def)?,
        };
        return rdp_parse::read_lefdef_obs(&files, obs).map_err(RdpError::from);
    }
    rdp_gen::generate_named_obs(spec, obs).ok_or_else(|| RdpError::Config {
        detail: format!("`{spec}` is not a suite design or bookshelf:/lefdef: input"),
    })
}

/// How the interrupt hook stopped the flow (distinguishes the three
/// abort paths that all surface as `Err` from `run_flow_with`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum StopCause {
    Cancel,
    Drain,
    Deadline,
}

/// Runs one attempt of `rec`'s job. `drain` is the server-wide drain
/// flag. Persistence failures during the run degrade to warnings on
/// stderr (the flow result is still correct; only crash-resume fidelity
/// of *this incarnation* is reduced).
pub fn execute_job(
    store: &Store,
    rec: &JobRecord,
    ctl: &JobControl,
    drain: &AtomicBool,
) -> ExecOutcome {
    let consumed0 = rec.consumed_ms;
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_attempt(store, rec, ctl, drain)));
    let consumed_ms = consumed0 + start.elapsed().as_millis() as u64;
    let disposition = match result {
        Ok(d) => d,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Disposition::Failed(RdpError::internal(format!(
                "job {} panicked: {msg}",
                rec.id
            )))
        }
    };
    ExecOutcome {
        disposition,
        consumed_ms,
    }
}

fn run_attempt(
    store: &Store,
    rec: &JobRecord,
    ctl: &JobControl,
    drain: &AtomicBool,
) -> Disposition {
    let spec = &rec.spec;
    let id = rec.id;

    // Budget check before spending anything: a job that already consumed
    // its whole deadline across previous incarnations fails immediately.
    if let Some(budget) = spec.deadline_ms {
        if rec.consumed_ms >= budget && budget > 0 {
            return Disposition::Failed(RdpError::Deadline {
                detail: format!("job {id} exhausted its budget before this attempt"),
                elapsed_ms: rec.consumed_ms,
                budget_ms: budget,
            });
        }
    }

    let cfg = match flow_config(spec, rec.attempt) {
        Ok(cfg) => cfg,
        Err(e) => return Disposition::Failed(e),
    };
    let obs = if spec.capture {
        Collector::enabled()
    } else {
        Collector::disabled()
    };
    // Publish the attempt's collector so `stats`/`watch` can read live
    // series while the flow runs (a clone shares the same Arc'd state).
    *ctl.obs.lock().unwrap() = obs.clone();
    let mut design = match resolve_input(&spec.input, &obs) {
        Ok(d) => d,
        Err(e) => return Disposition::Failed(e),
    };

    // A corrupt checkpoint, or one written under another configuration,
    // must not wedge the job: quarantine it and start the attempt fresh
    // (fresh starts reproduce the same final results by determinism; only
    // wall-clock is lost).
    let resume = match store.load_checkpoint(id).and_then(|cp| match cp {
        Some(cp) => cp.check_config(cfg.fingerprint()).map(|()| Some(cp)),
        None => Ok(None),
    }) {
        Ok(cp) => cp,
        Err(e) => {
            eprintln!("serve: job {id}: unusable checkpoint quarantined ({e}); restarting fresh");
            store.quarantine(&store.checkpoint_path(id));
            None
        }
    };

    let consumed0 = rec.consumed_ms;
    let start = Instant::now();
    let stop_cause = std::cell::Cell::new(None::<StopCause>);
    let mut running_rec = rec.clone();
    running_rec.state = JobState::Running;

    let mut on_checkpoint = |cp: &FlowCheckpoint| {
        if let Err(e) = store.persist_checkpoint(id, &cp.to_bytes()) {
            eprintln!("serve: job {id}: checkpoint persist failed: {e}");
        }
        running_rec.consumed_ms = consumed0 + start.elapsed().as_millis() as u64;
        if let Err(e) = store.persist_record_relaxed(&running_rec) {
            eprintln!("serve: job {id}: record persist failed: {e}");
        }
        let mut p = ctl.progress.lock().unwrap();
        p.route_iter = cp.next_route_iter as u64;
        if let Some(last) = cp.log.last() {
            p.hpwl = last.hpwl;
            p.overflow = last.overflow;
        }
    };
    let mut interrupt = |_iter: usize| -> Option<RdpError> {
        if ctl.cancel.load(Ordering::Relaxed) {
            stop_cause.set(Some(StopCause::Cancel));
            return Some(RdpError::Cancelled {
                detail: format!("job {id} cancelled by client"),
            });
        }
        if drain.load(Ordering::Relaxed) {
            stop_cause.set(Some(StopCause::Drain));
            return Some(RdpError::Cancelled {
                detail: format!("job {id} interrupted by server drain"),
            });
        }
        if let Some(budget) = spec.deadline_ms {
            let elapsed = consumed0 + start.elapsed().as_millis() as u64;
            if elapsed >= budget {
                stop_cause.set(Some(StopCause::Deadline));
                return Some(RdpError::Deadline {
                    detail: format!("job {id} hit its wall-clock budget"),
                    elapsed_ms: elapsed,
                    budget_ms: budget,
                });
            }
        }
        None
    };

    let run = run_flow_with(
        &mut design,
        &cfg,
        FlowControl {
            resume,
            on_checkpoint: Some(&mut on_checkpoint),
            interrupt: Some(&mut interrupt),
            fault: None,
            obs: obs.clone(),
        },
    );

    match run {
        Ok(report) => {
            if spec.capture {
                if let Err(e) = write_run_dir(&store.run_dir(id), &obs) {
                    eprintln!("serve: job {id}: run-dir capture failed: {e}");
                }
            }
            Disposition::Done(Box::new(job_result(&report, &design)))
        }
        Err(e) => match stop_cause.get() {
            Some(StopCause::Drain) => Disposition::Requeue,
            Some(StopCause::Cancel) => Disposition::Cancelled(e),
            Some(StopCause::Deadline) => Disposition::Failed(e),
            None => {
                if retryable(&e) && rec.attempt < spec.max_retries {
                    Disposition::Retry(e)
                } else {
                    Disposition::Failed(e)
                }
            }
        },
    }
}

/// A sanity wrapper used by tests and the bench: run a spec end to end
/// without a server, exactly as a worker would on attempt 0 (no
/// checkpoint persistence). The reference for bitwise comparisons.
pub fn reference_run(spec: &JobSpec) -> Result<(JobResult, Design), RdpError> {
    let cfg = flow_config(spec, 0)?;
    let obs = Collector::disabled();
    let mut design = resolve_input(&spec.input, &obs)?;
    let report = run_flow_with(&mut design, &cfg, FlowControl::default())?;
    Ok((job_result(&report, &design), design))
}

fn job_result(report: &FlowReport, design: &Design) -> JobResult {
    JobResult {
        hpwl: report.hpwl,
        density_overflow: report.density_overflow,
        gp_iterations: report.gp_iterations as u64,
        route_iterations: report.route_iterations as u64,
        place_seconds: report.place_seconds,
        warnings: report.warnings.iter().map(|w| w.to_string()).collect(),
        positions: design.positions().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn store(tag: &str) -> (Store, std::path::PathBuf) {
        let root =
            std::env::temp_dir().join(format!("rdp-serve-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        (Store::open(&root).unwrap(), root)
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
    fn job_completes_and_matches_the_reference_bitwise() {
        let (store, root) = store("done");
        let rec = JobRecord::queued(1, small_spec());
        let ctl = JobControl::default();
        let out = execute_job(&store, &rec, &ctl, &AtomicBool::new(false));
        let Disposition::Done(result) = out.disposition else {
            panic!("expected Done, got {:?}", out.disposition);
        };
        let (reference, _) = reference_run(&rec.spec).unwrap();
        assert_eq!(result.hpwl.to_bits(), reference.hpwl.to_bits());
        assert_eq!(result.positions, reference.positions);
        assert!(out.consumed_ms > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_deadline_fails_typed_at_the_first_checkpoint() {
        let (store, root) = store("deadline");
        let mut spec = small_spec();
        spec.deadline_ms = Some(1);
        let rec = JobRecord::queued(2, spec);
        let ctl = JobControl::default();
        let out = execute_job(&store, &rec, &ctl, &AtomicBool::new(false));
        match out.disposition {
            Disposition::Failed(RdpError::Deadline { budget_ms, .. }) => {
                assert_eq!(budget_ms, 1)
            }
            other => panic!("expected Deadline failure, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pre_cancelled_job_stops_at_the_first_checkpoint() {
        let (store, root) = store("cancel");
        let rec = JobRecord::queued(3, small_spec());
        let ctl = JobControl::default();
        ctl.cancel.store(true, Ordering::Relaxed);
        let out = execute_job(&store, &rec, &ctl, &AtomicBool::new(false));
        assert!(matches!(out.disposition, Disposition::Cancelled(_)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn drain_requeues_and_the_resumed_job_is_bitwise() {
        let (store, root) = store("drain");
        let rec = JobRecord::queued(4, small_spec());
        let ctl = JobControl::default();
        let drain = AtomicBool::new(true);
        let out = execute_job(&store, &rec, &ctl, &drain);
        assert!(matches!(out.disposition, Disposition::Requeue));
        // The checkpoint persisted at iteration 1 resumes to the
        // reference's exact results.
        assert!(store.load_checkpoint(4).unwrap().is_some());
        drain.store(false, Ordering::Relaxed);
        let out2 = execute_job(&store, &rec, &ctl, &drain);
        let Disposition::Done(result) = out2.disposition else {
            panic!("expected Done after resume, got {:?}", out2.disposition);
        };
        let (reference, _) = reference_run(&rec.spec).unwrap();
        assert_eq!(result.hpwl.to_bits(), reference.hpwl.to_bits());
        assert_eq!(result.positions, reference.positions);

        // The same id under another preset must not resume from the
        // checkpoint that run left: it is quarantined, and the attempt
        // starts fresh.
        assert!(store.load_checkpoint(4).unwrap().is_some());
        let other = JobRecord::queued(
            4,
            JobSpec {
                preset: "xplace-route".into(),
                ..small_spec()
            },
        );
        let Disposition::Done(result) = execute_job(&store, &other, &ctl, &drain).disposition
        else {
            panic!("expected Done after quarantining the foreign checkpoint");
        };
        let (reference, _) = reference_run(&other.spec).unwrap();
        assert_eq!(result.hpwl.to_bits(), reference.hpwl.to_bits());
        assert_eq!(result.positions, reference.positions);
        assert!(root.join("jobs/job-0000000004.ckpt.corrupt").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_input_fails_fast_with_a_config_error() {
        let (store, root) = store("badinput");
        let rec = JobRecord::queued(
            5,
            JobSpec {
                input: "no_such_design".into(),
                ..JobSpec::default()
            },
        );
        let ctl = JobControl::default();
        let out = execute_job(&store, &rec, &ctl, &AtomicBool::new(false));
        assert!(matches!(
            out.disposition,
            Disposition::Failed(RdpError::Config { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
