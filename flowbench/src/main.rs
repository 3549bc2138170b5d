//! The rdp end-to-end benchmark.
//!
//! ```sh
//! # one workload, end-to-end metrics (untraced)
//! cargo run --release --offline --manifest-path flowbench/Cargo.toml --bin benchmark -- \
//!     --workload route_heavy --seed 0 --seconds 20 --trace 0 [--out FILE]
//! # per-layer metrics from a traced run
//! ... --workload route_heavy --seed 0 --trace 1
//! # every workload, each in its own child process
//! ... --workload all --seed 0 --out results.json
//! # compare two directories of --out files under the BENCHMARK.json bounds
//! ... --compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Failed checks make `correct`
//! false; bad arguments or an environment the benchmark cannot run in
//! exit with status 2 and print no result.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use rdp_flowbench::inputs::{workload, WORKLOADS};
use rdp_flowbench::{compare, run_workload, RunOpts};

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: String,
    opts: RunOpts,
    out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv {
            [_, parent, change] => Ok(Mode::Compare(parent.into(), change.into())),
            _ => Err("usage: --compare PARENT_DIR CHANGE_DIR".into()),
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(value(i)?.clone()),
            "--seed" => {
                seed = Some(
                    value(i)?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value(i)?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--out" => out = Some(PathBuf::from(value(i)?)),
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => trace = false,
                Some("1") => trace = true,
                _ => {
                    trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload NAME|all is required")?;
    if workload != "all" && self::workload(&workload).is_none() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}` (expected all or one of {})",
            names.join(", ")
        ));
    }
    let seed = seed.ok_or("--seed N is required")?;
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Mode::Run(Args {
        workload,
        opts: RunOpts {
            seed,
            seconds,
            trace,
            smoke,
            work_dir,
        },
        out,
    }))
}

/// Removes the run's scratch directory however the run ends, and the
/// `.work` directory above it once no other run is using it.
struct WorkDir<'a>(&'a Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run's directory is in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Result object of one workload for `--out`: the printed result plus
/// the workload name and seed.
fn out_object(name: &str, seed: u64, trace: bool, result_json: &str) -> String {
    format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {trace}, {}",
        result_json.trim_start_matches('{')
    )
}

fn run_one(args: &Args) -> Result<(), String> {
    let w = workload(&args.workload).expect("validated in parse_args");
    let _cleanup = WorkDir(&args.opts.work_dir);
    let outcome = run_workload(&w, &args.opts)?;
    for note in &outcome.notes {
        eprintln!("{}: {note}", w.name);
    }
    for line in outcome.lines() {
        println!("{line}");
    }
    let json = outcome.json();
    if let Some(path) = &args.out {
        let body = out_object(w.name, args.opts.seed, args.opts.trace, &json);
        std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{json}");
    Ok(())
}

/// `--workload all`: each workload in its own child process, so its
/// peak RSS is its own. Prints every child's metric lines, writes the
/// list of results to `--out`, and ends with one combined result whose
/// metric names are prefixed by the workload.
fn run_all(args: &Args, argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut objects = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--workload" | "--out" => i += 2,
                _ => {
                    child_args.push(argv[i].clone());
                    i += 1;
                }
            }
        }
        child_args.extend(["--workload".to_string(), w.name.to_string()]);
        let out = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("workload {} exited with {}", w.name, out.status));
        }
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines
            .pop()
            .ok_or_else(|| format!("{}: no result", w.name))?;
        lines.iter().for_each(|l| println!("{l}"));
        let v = rdp_obs::json::parse(last).map_err(|e| format!("{}: result: {e}", w.name))?;
        correct &= matches!(v.get("correct"), Some(rdp_obs::json::Value::Bool(true)));
        attempted += v.get("attempted").and_then(|x| x.as_f64()).unwrap_or(0.0);
        failed += v.get("failed").and_then(|x| x.as_f64()).unwrap_or(0.0);
        if let Some(rdp_obs::json::Value::Obj(obj)) = v.get("metrics") {
            for (k, m) in obj {
                let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                metrics.push(format!(
                    "\"{}.{k}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    w.name
                ));
            }
        }
        objects.push(out_object(w.name, args.opts.seed, args.opts.trace, last));
    }
    if let Some(path) = &args.out {
        let body = format!("[\n{}\n]\n", objects.join(",\n"));
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

fn run_compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let bounds = compare::parse_bounds(&text)?;
    let (rows, regressed) = compare::compare(
        &compare::load_dir(parent)?,
        &compare::load_dir(change)?,
        &bounds,
    )?;
    print!("{}", compare::render(&rows));
    Ok(regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Err(e) => Err(e),
        Ok(Mode::Compare(parent, change)) => match run_compare(&parent, &change) {
            Ok(false) => return ExitCode::SUCCESS,
            Ok(true) => {
                eprintln!("compare: regression beyond a bound");
                return ExitCode::FAILURE;
            }
            Err(e) => Err(e),
        },
        Ok(Mode::Run(args)) if args.workload == "all" => run_all(&args, &argv),
        Ok(Mode::Run(args)) => run_one(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
