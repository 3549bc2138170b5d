#!/bin/sh
# Recalibrates the suite's per-design congestion margins against the
# current code (placer + legalizer + evaluator), bakes them into
# rdp-gen's suite table, and regenerates Table I and Table II.
#
# Run this after any change that affects placement or evaluation
# behavior; see EXPERIMENTS.md "Calibration provenance".
set -e
cd "$(dirname "$0")/.."
# Build first and capture only the binary's stdout, as tables.sh does, so
# cargo's progress lines never land in the data file.
cargo build --release --offline -p rdp-bench --bin calibrate
target/release/calibrate > results_calibrate.txt
python3 - <<'PY'
import re
margins = {}
for line in open('results_calibrate.txt'):
    m = re.match(r'^(\w+)\s+([0-9.]+)\s+[0-9.]+\s+[0-9.]+\s+[0-9.]+\s*$', line)
    if m and m.group(1) != 'design':
        margins[m.group(1)] = float(m.group(2))
assert len(margins) == 20, margins
p = 'crates/gen/src/params.rs'
s = open(p).read()
for name, mg in margins.items():
    s = re.sub(r'entry\("%s", (\d+), (\d+), ([0-9.]+), [0-9.]+,' % name,
               r'entry("%s", \1, \2, \3, %.3f,' % (name, mg), s)
open(p, 'w').write(s)
print("margins baked:", margins)
PY
# tables.sh builds first and captures only the binaries' stdout, so the
# result files stay free of cargo build noise.
sh scripts/tables.sh
echo CHAIN_COMPLETE
