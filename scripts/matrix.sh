#!/usr/bin/env bash
# Scenario-matrix gate: runs every scenario class (macro-obstructed,
# FPGA-style sites, high-Rent, near-full utilization, pin hotspots,
# single-row, obstruction maze, plus the degenerate survival classes)
# through the flow for the three Table-1 presets and checks, per class:
# LEF/DEF round-trip identity, flow survival, non-empty telemetry, and
# the DRV ordering Ours <= Xplace-Route <= Xplace within tolerance.
#
# Usage: scripts/matrix.sh [--full] [extra `rdp matrix` args...]
#   default   small instances, pinned seeds (~seconds; the CI fast tier)
#   --full    Table-1-sized instances (~10 s on a 2-vCPU host; scripts/ci.sh
#             runs it right after the small tier)
#
# Exits non-zero naming the violating class(es) on any gate failure.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="small"
if [[ "${1:-}" == "--full" ]]; then
    scale="full"
    shift
fi

cargo run -q --release --offline --bin rdp -- matrix --scale "${scale}" "$@"
