#!/usr/bin/env bash
# Perf-regression gate: re-runs every baselined bench suite N times and
# compares the per-benchmark median-of-N against the committed baselines
# in crates/bench/baselines/ (see the README there for the policy).
#
# Usage: scripts/regress.sh
#   RDP_REGRESS_TOL     relative slowdown tolerance   (default 0.5 = 50%)
#   RDP_REGRESS_RUNS    fresh runs per suite          (default 3)
#   RDP_REGRESS_SAMPLES samples per benchmark per run (default 5)
#
# Exits non-zero (via bench_diff) when any benchmark's median-of-N is
# more than the tolerance slower than its baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

tol="${RDP_REGRESS_TOL:-0.5}"
runs="${RDP_REGRESS_RUNS:-3}"
samples="${RDP_REGRESS_SAMPLES:-5}"
baselines="$PWD/crates/bench/baselines"

if ! ls "$baselines"/BENCH_*.json >/dev/null 2>&1; then
    echo "regress: no baselines in $baselines — run scripts/rebaseline.sh first" >&2
    exit 1
fi

# Gate exactly the suites that have a committed baseline.
suites=()
for f in "$baselines"/BENCH_*.json; do
    name="$(basename "$f")"
    name="${name#BENCH_}"
    suites+=("${name%.json}")
done
echo "regress: gating suites: ${suites[*]} (tol ${tol}, ${runs} runs × ${samples} samples)"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

current_args=()
for ((run = 1; run <= runs; run++)); do
    dir="$scratch/run$run"
    mkdir -p "$dir"
    for suite in "${suites[@]}"; do
        echo "==> run $run/$runs: bench $suite"
        # Same pinned thread count as scripts/rebaseline.sh.
        RDP_THREADS=1 RDP_BENCH_DIR="$dir" RDP_BENCH_SAMPLES="$samples" \
            cargo bench --offline -q -p rdp-bench --bench "$suite" >/dev/null
    done
    current_args+=(--current "$dir")
done

cargo run -q --release --offline -p rdp-bench --bin bench_diff -- \
    --baseline "$baselines" "${current_args[@]}" --tol "$tol"
