//! The `serve_queue` workload: concurrent clients against an in-process
//! `rdp serve` server.
//!
//! The run goes in rounds. In each round two clients submit a job of
//! the same design at the same moment and wait for their results, so the
//! server (one worker, one compute thread) runs one job while the other
//! waits in the queue. Every job goes through the durable store: an
//! fsynced record at submit, claim and settle, and a checkpoint per
//! routability iteration. The reference kernel runs between rounds, on
//! an idle server.

use std::time::Instant;

use rdp_core::{run_flow_with, FlowControl};
use rdp_drc::{evaluate, EvalConfig};
use rdp_legal::{check_legality, detailed_place, legalize, DetailedConfig, LegalizeConfig};
use rdp_serve::client::JobOutcome;
use rdp_serve::{flow_config, Client, JobSpec, ServeConfig, Server, Store};

use crate::inputs::{InputFiles, Workload};
use crate::speed::{SpeedRef, Timed};
use crate::stats::median;
use crate::trace::SpanTotals;
use crate::{layer_sample, useful_iterations, Checks, DesignSamples, Measured, RunOpts};

/// Clients submitting together in a round.
const CLIENTS: usize = 2;
/// Rounds per design of a `--smoke` run: one untraced and, under
/// `--trace`, one traced.
const SMOKE_ROUNDS_PER_DESIGN: usize = 2;
/// Client-side wait budget for one job.
const WAIT_BUDGET_MS: u64 = 120_000;

/// One client's job in a round.
struct JobSample {
    submit_ms: f64,
    latency_s: f64,
    outcome: Result<JobOutcome, String>,
}

/// One round: a design, whether its jobs were traced, its timing and
/// its jobs.
struct Round {
    design: usize,
    traced: bool,
    timed: Timed,
    jobs: Vec<JobSample>,
}

fn spec(w: &Workload, f: &InputFiles, capture: bool) -> JobSpec {
    JobSpec {
        input: f.job_input(),
        preset: "ours".into(),
        capture,
        max_route_iters: w.route_iters.map(|n| n as u64),
        ..JobSpec::default()
    }
}

/// HPWL bits of an in-process run of each file's job spec: what every
/// served job must reproduce exactly.
fn reference_hpwl_bits(w: &Workload, files: &[InputFiles]) -> Result<Vec<u64>, String> {
    files
        .iter()
        .map(|f| {
            let cfg = flow_config(&spec(w, f, false), 0).map_err(|e| e.to_string())?;
            let text = f.read().map_err(|e| format!("{}: {e}", f.name))?;
            let mut design =
                rdp_parse::read_lefdef(&text).map_err(|e| format!("{}: {e}", f.name))?;
            let report = run_flow_with(&mut design, &cfg, FlowControl::default())
                .map_err(|e| format!("{}: reference flow: {e}", f.name))?;
            Ok(report.hpwl.to_bits())
        })
        .collect()
}

/// Submits one job and waits for its result.
fn one_job(addr: &str, spec: &JobSpec, name: &str) -> JobSample {
    let client = Client::new(addr);
    let t = Instant::now();
    let submitted = client.submit(spec);
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = submitted
        .and_then(|id| client.wait(id, 10, WAIT_BUDGET_MS))
        .map_err(|e| format!("{name}: job: {e}"));
    JobSample {
        submit_ms,
        latency_s: t.elapsed().as_secs_f64(),
        outcome,
    }
}

/// Service counters from a `stats` scrape: (retries, requeues).
fn retries_and_requeues(client: &Client) -> Result<(f64, f64), String> {
    let (text, _) = client.stats().map_err(|e| format!("stats: {e}"))?;
    let v = rdp_obs::json::parse(&text).map_err(|e| format!("stats: {e}"))?;
    let counter = |name: &str| {
        v.get("service")
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|n| n.as_f64())
            .unwrap_or(0.0)
    };
    Ok((counter("retries"), counter("requeues")))
}

/// QoR of one served placement: HPWL as the job reported it, then
/// legalize, detailed place (the result must be legal) and evaluate to
/// get DRWL and DRVs.
fn served_qor(f: &InputFiles, job: &JobOutcome) -> Result<[f64; 3], String> {
    let text = f.read().map_err(|e| format!("{}: {e}", f.name))?;
    let mut design = rdp_parse::read_lefdef(&text).map_err(|e| format!("{}: {e}", f.name))?;
    if job.positions.len() != design.num_cells() {
        return Err(format!(
            "{}: job returned {} positions",
            f.name,
            job.positions.len()
        ));
    }
    design.set_positions(&job.positions);
    legalize(&mut design, &LegalizeConfig::default());
    detailed_place(&mut design, &DetailedConfig::default());
    let legality = check_legality(&design);
    if !legality.is_legal() {
        return Err(format!("{}: placement is not legal ({legality:?})", f.name));
    }
    let e = evaluate(&design, &EvalConfig::default());
    Ok([job.hpwl, e.drwl, e.drvs])
}

/// Runs rounds until `opts.seconds` have elapsed.
pub fn run(
    w: &Workload,
    files: &[InputFiles],
    opts: &RunOpts,
    speed: &mut SpeedRef,
) -> Result<Measured, String> {
    let reference = reference_hpwl_bits(w, files)?;
    let store_dir = opts.work_dir.join("store");
    let server = Server::start(ServeConfig {
        dir: store_dir.clone(),
        addr: "127.0.0.1:0".into(),
        workers: 1,
        job_threads: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.local_addr().to_string();

    let mut rounds = Vec::new();
    let start = Instant::now();
    let smoke_rounds = SMOKE_ROUNDS_PER_DESIGN * files.len();
    while opts.more(rounds.len(), start.elapsed().as_secs_f64(), smoke_rounds) {
        let r = rounds.len();
        // Consecutive rounds share a design, so with every second round
        // traced each design has traced and untraced rounds.
        let design = (r / 2) % files.len();
        let traced = opts.traced_op(r);
        let f = &files[design];
        let job_spec = spec(w, f, traced);
        let (jobs, timed) = speed.time(|| {
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|_| s.spawn(|| one_job(&addr, &job_spec, f.name)))
                    .collect();
                clients
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        rounds.push(Round {
            design,
            traced,
            timed,
            jobs,
        });
    }
    let counters = retries_and_requeues(&Client::new(addr.as_str()));
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    let (retries, requeues) = counters?;

    let store = Store::open(&store_dir).map_err(|e| e.to_string())?;
    let mut out = Measured::default();
    let mut checks = Checks::default();
    let mut qor_job: Vec<Option<&JobOutcome>> = vec![None; files.len()];
    let (mut submit_ms, mut queue_wait_ms, mut overhead_ms) = (vec![], vec![], vec![]);
    let mut per_design = vec![DesignSamples::default(); files.len()];
    for round in &rounds {
        let name = files[round.design].name;
        let scale = round.timed.scale;
        let mut done = Vec::with_capacity(CLIENTS);
        for j in &round.jobs {
            let job = match &j.outcome {
                Ok(job) => job,
                Err(e) => {
                    checks.op(vec![e.clone()]);
                    continue;
                }
            };
            let mut bad = Vec::new();
            if job.hpwl_bits != reference[round.design] {
                bad.push(format!(
                    "{name}: served HPWL {} differs from the in-process run",
                    job.hpwl
                ));
            }
            if !job.place_seconds.is_finite() || !job.hpwl.is_finite() {
                bad.push(format!("{name}: non-finite job result"));
            }
            checks.op(bad);
            qor_job[round.design].get_or_insert(job);
            submit_ms.push(j.submit_ms * scale);
            done.push((job, (j.latency_s * 1e3 - job.consumed_ms as f64) * scale));
        }
        if done.len() != round.jobs.len() {
            continue;
        }
        // The wait of the job that queued behind the other one.
        queue_wait_ms.push(done.iter().map(|&(_, w)| w).fold(f64::MIN, f64::max));
        let done: Vec<&JobOutcome> = done.into_iter().map(|(j, _)| j).collect();
        let place_s: f64 = done.iter().map(|j| j.place_seconds * scale).sum();
        if round.traced {
            let mut totals = SpanTotals::default();
            let mut useful = (0, 0);
            for job in &done {
                let model = rdp_report::RunModel::load(&store.run_dir(job.id))
                    .map_err(|e| format!("job {} run-dir: {e}", job.id))?;
                let mut job_totals = SpanTotals::from_model(&model);
                job_totals.scale(scale);
                totals.merge(&job_totals);
                let scores: Vec<f64> = model
                    .series
                    .get("c_penalty")
                    .map(|s| s.iter().map(|&(_, v)| v).collect())
                    .unwrap_or_default();
                let (u, n) = useful_iterations(&scores);
                useful = (useful.0 + u, useful.1 + n);
            }
            let exec_s: f64 = done
                .iter()
                .map(|j| j.consumed_ms as f64 * 1e-3 * scale)
                .sum();
            out.layers
                .push(layer_sample(&totals, exec_s, place_s, useful));
            out.traced_op_s.push(round.timed.ref_s());
        } else {
            for job in &done {
                overhead_ms.push((job.consumed_ms as f64 - job.place_seconds * 1e3) * scale);
            }
            out.op_s.push(round.timed.ref_s());
            per_design[round.design].op_s.push(round.timed.ref_s());
            per_design[round.design].place_s.push(place_s);
        }
    }
    // One more operation per design: evaluating its served placement.
    for (i, f) in files.iter().enumerate() {
        let qor = qor_job[i]
            .ok_or_else(|| format!("{}: no job completed", f.name))
            .and_then(|job| served_qor(f, job));
        match qor {
            Ok(q) => {
                (0..3).for_each(|k| out.qor[k] += q[k]);
                checks.op(vec![]);
            }
            Err(e) => checks.op(vec![e]),
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    out.per_design = per_design;
    out.extra_layers = [
        ("serve.submit_ms_p50", med(&submit_ms)),
        ("serve.queue_wait_ms_p50", med(&queue_wait_ms)),
        ("serve.overhead_ms_p50", med(&overhead_ms)),
        ("serve.retries", retries),
        ("serve.requeues", requeues),
    ]
    .into_iter()
    .collect();
    out.checks = checks;
    Ok(out)
}
