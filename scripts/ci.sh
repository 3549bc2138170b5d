#!/usr/bin/env bash
# Tier-1 gate for the rdp workspace. Must pass fully offline: the
# workspace has no external dependencies (see crates/testkit), so a
# clean checkout builds and tests without touching a registry.
#
# Usage: scripts/ci.sh [--workspace]
#   default      gate scope: root package tests only (tier-1)
#   --workspace  also run every member crate's tests and the flowbench
#                tests, and smoke-run the bench binaries (slower,
#                recommended before merge)
set -euo pipefail
cd "$(dirname "$0")/.."

scope=""
if [[ "${1:-}" == "--workspace" ]]; then
    scope="--workspace"
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

# The parallelism contract (crates/par) promises bit-identical results
# for any worker count, so the whole test pass runs twice: once serial,
# once on 4 workers. A divergence fails the determinism suite.
echo "==> cargo test -q --offline ${scope}  (RDP_THREADS=1)"
RDP_THREADS=1 cargo test -q --offline ${scope}

echo "==> cargo test -q --offline ${scope}  (RDP_THREADS=4)"
RDP_THREADS=4 cargo test -q --offline ${scope}

if [[ -n "${scope}" ]]; then
    echo "==> bench smoke (cargo test --benches)"
    RDP_BENCH_SMOKE=1 cargo test -q --offline -p rdp-bench --benches

    # The end-to-end benchmark (BENCHMARK.json) is a package of its own
    # outside the workspace, so the passes above do not build it. Its
    # smoke tests run every workload at a small size, the 2-thread ones
    # through the pool's helpers.
    echo "==> flowbench tests (cargo test --manifest-path flowbench/Cargo.toml)"
    cargo test --release --offline --manifest-path flowbench/Cargo.toml
fi

# Observability gate: a traced 5k-cell flow with an injected fault must
# produce schema-valid JSONL/Chrome-trace/metrics exports covering every
# flow stage with warning parity between report and trace, plus a
# self-contained HTML report that passes rdp-report's validator with a
# congestion heatmap per routability iteration (obs_smoke exits non-zero
# otherwise), and tracing a 20k-cell GP step must cost < 6% over the
# untraced step (RDP_OBS_ASSERT=1 turns the budget into a hard failure;
# the measurements land in BENCH_obs.json).
echo "==> obs smoke (traced 5k-cell flow, exporter + HTML report validation)"
cargo run -q --release --offline -p rdp-bench --bin obs_smoke

echo "==> obs overhead gate (20k-cell GP step, < 6%)"
RDP_OBS_ASSERT=1 cargo bench --offline -p rdp-bench --bench obs

# Scenario-matrix gate: every scenario class — adversarial generators
# and hand-built degenerates included — must round-trip through
# LEF/DEF, complete the flow under the three Table-1 presets with
# non-empty telemetry, and respect the DRV ordering
# Ours <= Xplace-Route <= Xplace within the per-class tolerance. The
# small tier runs small instances with pinned seeds; the full tier runs
# the Table-1-sized instances (~10 s on a 2-vCPU host).
echo "==> scenario matrix gate (scripts/matrix.sh, small tier)"
scripts/matrix.sh

echo "==> scenario matrix gate (scripts/matrix.sh --full, full tier)"
scripts/matrix.sh --full

# Perf-regression gate: re-runs the baselined bench suites and compares
# median-of-N against crates/bench/baselines/ (bench_diff exits non-zero
# on a benchmark more than RDP_REGRESS_TOL slower than its baseline;
# the summary prints the per-kernel speedup vs the baseline). The
# tolerance is pinned explicitly here so the CI gate never silently
# drifts with a changed regress.sh default.
echo "==> perf regression gate (scripts/regress.sh, tol ${RDP_REGRESS_TOL:-0.5})"
RDP_REGRESS_TOL="${RDP_REGRESS_TOL:-0.5}" scripts/regress.sh

# Fault-injection pass: the robustness suites (FaultPlan scenarios,
# checkpoint corruption, kill-and-resume bitwise identity, and the
# serve-layer crash/corruption/deadline scenarios) and the router/placer
# property tests run with a pinned generator seed so a failure replays
# exactly, at both worker counts — resume must be bitwise under parallel
# reductions too.
echo "==> fault injection + robustness  (RDP_PROP_SEED=20250806, RDP_THREADS=1)"
RDP_PROP_SEED=20250806 RDP_THREADS=1 cargo test -q --offline --test robustness
RDP_PROP_SEED=20250806 RDP_THREADS=1 cargo test -q --offline --test serve_robustness
RDP_PROP_SEED=20250806 RDP_THREADS=1 cargo test -q --offline -p rdp-route --test properties

echo "==> fault injection + robustness  (RDP_PROP_SEED=20250806, RDP_THREADS=4)"
RDP_PROP_SEED=20250806 RDP_THREADS=4 cargo test -q --offline --test robustness
RDP_PROP_SEED=20250806 RDP_THREADS=4 cargo test -q --offline --test serve_robustness
RDP_PROP_SEED=20250806 RDP_THREADS=4 cargo test -q --offline -p rdp-route --test properties

# Service gate: kill -9 a live `rdp serve` mid-queue and restart — all
# jobs must finish with the identical HPWL bit pattern and a captured
# run-dir that diffs clean against a direct `rdp place` at zero QoR
# tolerance (scripts/serve_smoke.sh exits non-zero otherwise). Then the
# service-overhead budget: a 5k-cell job submit-to-result through the
# server must stay within 5% of the direct in-process flow
# (RDP_SERVE_ASSERT=1 turns the budget into a hard failure).
echo "==> serve smoke (kill -9 recovery, served == direct run-dir diff)"
scripts/serve_smoke.sh

echo "==> service overhead gate (5k-cell submit-to-result, < 5%)"
# Flush writeback first: the earlier gates write a lot, and a background
# flush stalls the served path's fsyncs while leaving the (fsync-free)
# direct path untouched — which would measure the disk backlog, not the
# service.
sync || true
RDP_SERVE_ASSERT=1 cargo bench --offline -p rdp-bench --bench guard

echo "ci: all gates passed"
