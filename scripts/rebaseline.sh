#!/usr/bin/env bash
# Re-records the committed bench baselines in crates/bench/baselines/.
# Only run this when a commit intentionally changes performance — see
# crates/bench/baselines/README.md for the policy — and commit the
# updated JSON together with the change that motivated it.
#
# Usage: scripts/rebaseline.sh [suite ...]     (default: all gated suites)
#   RDP_REBASELINE_SAMPLES  samples per benchmark (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

samples="${RDP_REBASELINE_SAMPLES:-5}"
baselines="$PWD/crates/bench/baselines"
mkdir -p "$baselines"

suites=("$@")
if [[ ${#suites[@]} -eq 0 ]]; then
    suites=(kernels guard obs)
fi

# RDP_THREADS=1 here and in scripts/regress.sh: rows on the process-wide
# pool then measure the serial kernels whatever the caller's RDP_THREADS,
# so the gate compares the same configuration it recorded (rows ending
# _t1/_t2/_t4 name their pool explicitly and ignore the variable).
for suite in "${suites[@]}"; do
    echo "==> rebaseline: bench $suite ($samples samples)"
    RDP_THREADS=1 RDP_BENCH_DIR="$baselines" RDP_BENCH_SAMPLES="$samples" \
        cargo bench --offline -q -p rdp-bench --bench "$suite" >/dev/null
    echo "    wrote $baselines/BENCH_$suite.json"
done

echo "rebaseline: done — review the diff and commit with the motivating change"
