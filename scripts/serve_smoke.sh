#!/usr/bin/env bash
# End-to-end crash-recovery smoke for `rdp serve`:
#
#   1. generate a 5k-cell LEF/DEF design,
#   2. start a server, submit three identical captured jobs, and check
#      that a submit with an unknown preset is refused and queues nothing,
#   3. kill -9 the server the moment job 1 settles (job 2 is typically
#      mid-flow, job 3 still queued),
#   4. restart on the same store and wait for all three jobs,
#   5. assert the three results carry the *identical* HPWL bit pattern
#      (the kill-anywhere invariant: resumed == uninterrupted),
#   6. `rdp diff` job 1's captured run-dir against a direct
#      `rdp place --run-dir` with the same flags — QoR must match at
#      zero tolerance, and
#   7. scrape `rdp stats` mid-run and after the kill -9 restart: the
#      lifetime job counters stay monotonic across the restart (terminal
#      jobs are re-counted exactly once, never doubled).
#
# Exits non-zero on any violation. Wall-clock is a few seconds; ci.sh
# runs this after the test passes.
set -euo pipefail
cd "$(dirname "$0")/.."

RDP="${RDP:-target/release/rdp}"
if [[ ! -x "$RDP" ]]; then
    cargo build --release --offline --bin rdp
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/rdp-serve-smoke.XXXXXX")"
SERVER_PID=""
cleanup() {
    local code=$?
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    if [[ $code -ne 0 && -f "$WORK/serve.log" ]]; then
        echo "--- serve.log (tail) ---" >&2
        tail -n 20 "$WORK/serve.log" >&2 || true
    fi
    rm -rf "$WORK"
    exit $code
}
trap cleanup EXIT

# The flow knobs are shared verbatim between `rdp submit` and the direct
# `rdp place` so the run-dir diff compares identical configurations.
FLOW_FLAGS=(--preset ours --gp-iters 900 --max-route-iters 4 --gp-burst 80)
INPUT="lefdef:$WORK/design/fft_1.lef:$WORK/design/fft_1.def"

echo "serve-smoke: generating 5k-cell design"
"$RDP" generate fft_1 --out "$WORK/design" \
    --cells 5000 --seed 901 --util 0.88 --margin 0.72

start_server() {
    rm -f "$WORK/port"
    "$RDP" serve --dir "$WORK/store" --workers 1 --port-file "$WORK/port" \
        >>"$WORK/serve.log" 2>&1 &
    SERVER_PID=$!
    local tries=0
    until [[ -s "$WORK/port" ]]; do
        sleep 0.05
        tries=$((tries + 1))
        if [[ $tries -gt 200 ]]; then
            echo "serve-smoke: server never wrote its port file" >&2
            return 1
        fi
    done
    ADDR="$(tr -d '[:space:]' <"$WORK/port")"
}

submit_job() {
    "$RDP" submit "$ADDR" "$INPUT" --capture "${FLOW_FLAGS[@]}" |
        sed -n 's/^submitted job \([0-9][0-9]*\)$/\1/p'
}

# wait_done ID TIMEOUT_S: poll until the job's status line reads done.
wait_done() {
    local id=$1 deadline=$((SECONDS + $2))
    while ((SECONDS < deadline)); do
        if "$RDP" status "$ADDR" "$id" 2>/dev/null |
            grep -Eq "^job +$id +done"; then
            return 0
        fi
        sleep 0.1
    done
    echo "serve-smoke: timed out waiting for job $id" >&2
    "$RDP" status "$ADDR" >&2 || true
    return 1
}

echo "serve-smoke: starting server, submitting 3 jobs"
start_server
J1=$(submit_job)
J2=$(submit_job)
J3=$(submit_job)
[[ -n "$J1" && -n "$J2" && -n "$J3" ]] || {
    echo "serve-smoke: submit did not return job ids" >&2
    exit 1
}

# A spec no worker could run is refused before it is queued.
if "$RDP" submit "$ADDR" "$INPUT" --preset warp-speed >/dev/null 2>&1; then
    echo "serve-smoke: a submit with an unknown preset was accepted" >&2
    exit 1
fi
QUEUED=$("$RDP" status "$ADDR" | grep -c '^job ' || true)
[[ "$QUEUED" == "3" ]] || {
    echo "serve-smoke: expected 3 jobs after the refused submit, got $QUEUED" >&2
    exit 1
}

wait_done "$J1" 120

# `rdp stats ADDR` prints the server's counters as the wire's JSON.
completions_now() {
    "$RDP" stats "$ADDR" |
        sed -n 's/.*"completions": *\([0-9][0-9]*\).*/\1/p' | head -n 1
}
echo "serve-smoke: scraping stats mid-run"
MID_COMP=$(completions_now)
[[ "$MID_COMP" == "1" ]] || {
    echo "serve-smoke: expected 1 completion mid-run, got '$MID_COMP'" >&2
    exit 1
}

echo "serve-smoke: job $J1 done — kill -9 the server (job $J2 in flight)"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "serve-smoke: restarting on the same store"
start_server
wait_done "$J2" 180
wait_done "$J3" 180

bits_of() {
    "$RDP" fetch "$ADDR" "$1" | grep -o 'bits 0x[0-9a-f]*' | head -n 1
}
B1=$(bits_of "$J1")
B2=$(bits_of "$J2")
B3=$(bits_of "$J3")
echo "serve-smoke: job $J1 $B1 / job $J2 $B2 / job $J3 $B3"
[[ -n "$B1" && "$B1" == "$B2" && "$B2" == "$B3" ]] || {
    echo "serve-smoke: HPWL bit patterns diverge across the kill" >&2
    exit 1
}

# Counter monotonicity across the kill: the restart re-counts job 1's
# terminal record exactly once, then jobs 2 and 3 settle live — so the
# lifetime completions counter must read exactly 3, not 4 (doubled J1)
# and not 2 (lost J1).
POST_COMP=$(completions_now)
[[ "$POST_COMP" == "3" ]] || {
    echo "serve-smoke: expected exactly 3 completions after restart, got '$POST_COMP'" >&2
    "$RDP" stats "$ADDR" >&2 || true
    exit 1
}
echo "serve-smoke: completions monotonic across restart ($MID_COMP -> $POST_COMP)"

"$RDP" shutdown "$ADDR"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "serve-smoke: direct rdp place with identical flags"
"$RDP" place "$INPUT" "${FLOW_FLAGS[@]}" --run-dir "$WORK/direct" \
    >"$WORK/place.log"

RUN_DIR="$WORK/store/jobs/$(printf 'job-%010d.run' "$J1")"
echo "serve-smoke: rdp diff served run-dir vs direct (QoR tol 0)"
"$RDP" diff "$RUN_DIR" "$WORK/direct" --qor-tol 0

echo "serve-smoke: PASS (kill -9 recovery bitwise, served == direct, counters monotonic)"
