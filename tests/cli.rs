//! Integration tests of the `rdp` CLI binary.

use std::process::Command;

fn rdp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdp"))
}

#[test]
fn suite_lists_twenty_designs() {
    let out = rdp().arg("suite").output().expect("run rdp suite");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("des_perf_1"));
    assert!(text.contains("superblue19"));
    // header + 20 designs
    assert_eq!(text.lines().count(), 21, "{text}");
}

#[test]
fn stats_works_on_suite_design() {
    let out = rdp().args(["stats", "fft_a"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("design `fft_a`"));
    assert!(text.contains("routing:"));
}

#[test]
fn unknown_design_fails_with_message() {
    let out = rdp().args(["stats", "nonexistent"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nonexistent"), "{err}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = rdp().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn generate_lefdef_roundtrip_via_cli() {
    let dir = std::env::temp_dir().join(format!("rdp_cli_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let out = rdp()
        .args(["generate", "pci_bridge32_b", "--out", dir.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (lef, def) = (
        dir.join("pci_bridge32_b.lef"),
        dir.join("pci_bridge32_b.def"),
    );
    assert!(lef.exists() && def.exists());

    // Load the pair back through the CLI and check stats.
    let input = format!("lefdef:{}:{}", lef.display(), def.display());
    let out = rdp().args(["stats", &input]).output().expect("run stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pci_bridge32_b"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn render_writes_svg() {
    let svg_path = std::env::temp_dir().join("rdp_cli_test.svg");
    let out = rdp()
        .args(["render", "fft_a", "--out", svg_path.to_str().unwrap()])
        .output()
        .expect("run render");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg"));
    std::fs::remove_file(&svg_path).ok();
}

/// A `--` argument the command does not read — a flag this build does
/// not have, or a typo — fails naming the flag before any work starts,
/// any port is bound, any connection is made or anything is written,
/// instead of running a different command.
#[test]
fn unparsed_flags_are_rejected() {
    let dir = std::env::temp_dir().join(format!("rdp_cli_strict_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let d = dir.to_str().unwrap();
    let flow_commands: [&[&str]; 3] = [
        &["place", "fft_a"],
        &["flow", "fft_a"],
        &["submit", "127.0.0.1:1", "fft_a"],
    ];
    let extras: [&[&str]; 4] = [
        &["--predict"],
        &["--incremental-route"],
        &["--max-route-iter", "3"],
        &["--fast"],
    ];
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for cmd in flow_commands {
        for extra in extras {
            cases.push(cmd.iter().chain(extra).copied().collect());
        }
    }
    // The port is out of range, so a serve that did not check its flags
    // would fail at bind instead of serving forever.
    cases.push(vec![
        "serve",
        "--dir",
        d,
        "--addr",
        "127.0.0.1:99999",
        "--wrokers",
        "2",
    ]);
    cases.push(vec!["matrix", "--clases", "baseline"]);
    cases.push(vec!["generate", "fft_a", "--out", d, "--cell", "5"]);
    // One format: `--format` is gone from every command that had it.
    cases.push(vec!["generate", "fft_a", "--out", d, "--format", "lefdef"]);
    cases.push(vec!["place", "fft_a", "--out", d, "--format", "lefdef"]);
    cases.push(vec!["flow", "fft_a", "--out", d, "--format", "lefdef"]);
    // One trace artifact: the run-dir. The single-file trace flags are gone.
    let file = format!("{d}/trace_file");
    for cmd in ["place", "flow"] {
        for flag in [
            "--trace-out",
            "--metrics-out",
            "--report-out",
            "--chrome-trace",
        ] {
            cases.push(vec![cmd, "fft_a", flag, &file]);
        }
    }
    cases.push(vec!["diff", d, d, "--time-tol", "1000000"]);
    for args in cases {
        let bad = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        let out = rdp().args(&args).output().expect("run");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} started work");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("`{bad}`")), "{args:?}: {err}");
        assert!(!dir.exists(), "{args:?} wrote {d}");
    }
}

/// `place` and `submit` read one spec: they accept the same preset
/// spellings, and both refuse a spec no worker could run before any work
/// starts or any connection is made (nothing listens on port 1, so a
/// submit that connected would fail with a connect error instead).
#[test]
fn place_and_submit_read_one_spec() {
    let root = std::env::temp_dir().join(format!("rdp_cli_spec_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let server = rdp::serve::Server::start(rdp::serve::ServeConfig {
        dir: root.clone(),
        workers: 0,
        ..Default::default()
    })
    .expect("start server");
    let live = server.local_addr().to_string();
    let caps = [
        "--gp-iters",
        "20",
        "--max-route-iters",
        "1",
        "--gp-burst",
        "2",
    ];
    for (spec, addr) in [
        (["--preset", "XR"], live.as_str()),
        (["--preset", "warp-speed"], "127.0.0.1:1"),
        (["--gp-iters", "0"], "127.0.0.1:1"),
    ] {
        let accepted = spec[1] == "XR";
        for cmd in [vec!["place", "fft_a"], vec!["submit", addr, "fft_a"]] {
            let out = rdp()
                .args(&cmd)
                .args(spec)
                .args(caps)
                .output()
                .expect("run");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.success(), accepted, "{cmd:?} {spec:?}: {err}");
            if !accepted {
                assert!(out.stdout.is_empty(), "{cmd:?} {spec:?} started work");
                assert!(err.contains("config error"), "{cmd:?} {spec:?}: {err}");
            }
        }
    }
    let queued = rdp::serve::Client::new(live).status_all().unwrap();
    assert_eq!(queued.len(), 1);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn place_with_trace_flags_writes_valid_artifacts() {
    let dir = std::env::temp_dir().join(format!("rdp_cli_obs_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let run = dir.join("run");

    // Smallest suite design keeps this e2e check fast; --legalize makes
    // the trace cover legalization and detailed placement too.
    let out = rdp()
        .args([
            "place",
            "fft_a",
            "--legalize",
            "--run-dir",
            run.to_str().unwrap(),
            "--profile",
        ])
        .output()
        .expect("run place");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The --profile stage table ends up on stdout with the key stages,
    // and the run-dir reads back through the one reader of trace.jsonl.
    assert!(text.contains("stage"), "{text}");
    let model = rdp::report::RunModel::load(&run).expect("run-dir reads back");
    assert!(!model.spans.is_empty());
    let rows = model.stage_rows();
    for name in ["final_route", "legalize", "detailed_place", "gp_step"] {
        assert!(rows.iter().any(|r| r.name == name), "no `{name}` span");
        assert!(text.contains(name), "--profile has no `{name}` row: {text}");
    }
    assert!(!model.counters.is_empty());
    assert!(!model.series.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}
