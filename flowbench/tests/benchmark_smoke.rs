//! Runs every workload at `--smoke` size (one set-up, one pass or two
//! when traced, the two smallest suite designs, four jobs), untraced and
//! traced, and validates the results: the correctness checks pass, the
//! last line is the four-key JSON object, and each workload emits exactly
//! the metric set `BENCHMARK.json` declares for the mode.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use rdp_obs::json::{self, Value};

fn declared(key: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn check_result(v: &Value, expected: &BTreeSet<String>, what: &str) {
    let Value::Obj(top) = v else {
        panic!("{what}: result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert!(
        v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{what}"
    );
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0), "{what}");
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("{what}: no metrics object")
    };
    let names: BTreeSet<String> = metrics.keys().cloned().collect();
    assert_eq!(&names, expected, "{what}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{what}: {name} = {m:?}");
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{what}: {name}"
        );
    }
}

fn smoke(trace: &str, key: &str) {
    let out_file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-trace{trace}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "all",
            "--seed",
            "1",
            "--smoke",
            "--trace",
            trace,
        ])
        .arg("--out")
        .arg(&out_file)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = json::parse(stdout.lines().last().expect("a result line")).unwrap();
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");

    let expected = declared(key);
    let written = json::parse(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    let results = written.as_arr().expect("a list of workload results");
    assert_eq!(results.len(), 4);
    for r in results {
        let name = r
            .get("workload")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        // The `--out` object is the printed result plus identification.
        let Value::Obj(mut obj) = r.clone() else {
            panic!("{name}: not an object")
        };
        for k in ["workload", "seed", "trace"] {
            assert!(obj.remove(k).is_some(), "{name}: --out lacks `{k}`");
        }
        check_result(
            &Value::Obj(obj),
            &expected,
            &format!("{name} trace={trace}"),
        );
    }
}

#[test]
fn every_workload_untraced() {
    smoke("0", "end_to_end");
}

#[test]
fn every_workload_traced() {
    smoke("1", "per_layer");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "0"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
