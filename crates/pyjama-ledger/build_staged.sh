#!/usr/bin/env bash
# Staged offline build: every crate the ledger needs, compiled as an rlib
# with plain `rustc` in dependency order against the two shims, then the
# ledger library, runner and (with --tests) its test binaries.
#
#   build_staged.sh <out-dir> [--tests]
#
# Used by run.sh when `cargo build` cannot resolve the registry. Everything
# lands in <out-dir>; nothing is read or written outside the checkout.
set -euo pipefail

OUT=${1:?usage: build_staged.sh <out-dir> [--tests]}
TESTS=${2:-}
HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
CRATES=$(cd "$HERE/.." && pwd)
mkdir -p "$OUT"
LIB=$(cd "$OUT" && pwd)

RUSTC=${RUSTC:-rustc}
# opt-level 3 / line tables match the workspace's release profile.
FLAGS=(--edition 2021 -C opt-level=3 -C debuginfo=line-tables-only -L "dependency=$LIB" --cap-lints allow)

# rlib <crate_name> <lib.rs> [dep ...]
rlib() {
    local name=$1 src=$2
    shift 2
    local ext=()
    for d in "$@"; do ext+=(--extern "$d=$LIB/lib$d.rlib"); done
    local cfg=()
    [ "$name" = pyjama_trace ] && cfg=(--cfg 'feature="trace"')
    "$RUSTC" "${FLAGS[@]}" "${cfg[@]}" --crate-type rlib --crate-name "$name" \
        "${ext[@]}" --out-dir "$LIB" "$src"
}

# Each wave only depends on earlier waves, so its members build in parallel.
wave() {
    local pids=()
    for job in "$@"; do
        # shellcheck disable=SC2086
        rlib $job &
        pids+=($!)
    done
    for p in "${pids[@]}"; do wait "$p"; done
}

LEDGER_DEPS="pyjama_http pyjama_runtime pyjama_events pyjama_gui pyjama_omp pyjama_kernels pyjama_metrics pyjama_trace"

wave "parking_lot $HERE/shims/parking_lot.rs" \
     "rand $HERE/shims/rand.rs"
wave "pyjama_metrics $CRATES/pyjama-metrics/src/lib.rs parking_lot"
wave "pyjama_trace $CRATES/pyjama-trace/src/lib.rs pyjama_metrics"
wave "pyjama_events $CRATES/pyjama-events/src/lib.rs parking_lot pyjama_metrics pyjama_trace" \
     "pyjama_omp $CRATES/pyjama-omp/src/lib.rs parking_lot pyjama_metrics pyjama_trace"
wave "pyjama_runtime $CRATES/pyjama-runtime/src/lib.rs parking_lot pyjama_events pyjama_metrics pyjama_trace" \
     "pyjama_gui $CRATES/pyjama-gui/src/lib.rs parking_lot pyjama_events pyjama_metrics" \
     "pyjama_kernels $CRATES/pyjama-kernels/src/lib.rs pyjama_omp rand"
wave "pyjama_control $CRATES/pyjama-control/src/lib.rs pyjama_metrics pyjama_trace pyjama_runtime pyjama_omp"
wave "pyjama_http $CRATES/pyjama-http/src/lib.rs parking_lot pyjama_runtime pyjama_metrics pyjama_trace pyjama_control"
wave "pyjama_ledger $HERE/src/lib.rs $LEDGER_DEPS"

"$RUSTC" "${FLAGS[@]}" --crate-type bin --crate-name pyjama_ledger_bin \
    --extern "pyjama_ledger=$LIB/libpyjama_ledger.rlib" \
    -o "$LIB/pyjama-ledger" "$HERE/src/main.rs"

if [ "$TESTS" = --tests ]; then
    ext=()
    for d in $LEDGER_DEPS; do ext+=(--extern "$d=$LIB/lib$d.rlib"); done
    "$RUSTC" "${FLAGS[@]}" --test --crate-name pyjama_ledger "${ext[@]}" \
        -o "$LIB/pyjama-ledger-unit" "$HERE/src/lib.rs"
    "$RUSTC" "${FLAGS[@]}" --test --crate-name smoke \
        --extern "pyjama_ledger=$LIB/libpyjama_ledger.rlib" \
        -o "$LIB/pyjama-ledger-smoke" "$HERE/tests/smoke.rs"
fi
