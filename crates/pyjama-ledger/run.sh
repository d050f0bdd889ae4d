#!/usr/bin/env bash
# The perf ledger's one command.
#
#   run.sh [--seed S] [--seconds T] [--traced] [--repeat N] [--workload W]
#       builds the runner, runs every workload (or W) in its own child
#       process, checks outputs, prints one JSON object with every metric by
#       name and unit, and writes it to out/ledger_<i>.json.
#   run.sh --workload W --seed S --seconds T --trace 0|1
#       the benchmark driver's form (BENCHMARK.json): one workload, one
#       result line.
#   run.sh compare A.json B.json
#       verdicts between two result sets; exit 1 on any `worse`.
#   run.sh test
#       the crate's unit tests and the seven-workload smoke run.
#
# Build: `cargo build --release -p pyjama-ledger` when the registry (or a
# vendored copy) resolves, else the staged rustc build in build_staged.sh.
# Either way the output lands under $CARGO_TARGET_DIR (default: target/) of
# the checkout; nothing outside the checkout is read or written.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
cd "$ROOT"

TARGET=${CARGO_TARGET_DIR:-target}
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
STAGED="$TARGET/ledger-staged"
STAMP="$TARGET/ledger-build-mode"

# The ledger measures these crates; without them there is nothing to build.
for c in http runtime events gui omp kernels metrics trace control; do
    if [ ! -f "crates/pyjama-$c/src/lib.rs" ]; then
        echo "run.sh: crates/pyjama-$c is missing: this is not a pyjama-rs checkout" >&2
        exit 3
    fi
done

# Prints a path when any source the runner is built from is newer than $1.
stale() {
    find crates/*/src "$HERE/tests" "$HERE/shims" "$HERE/build_staged.sh" "$HERE/Cargo.toml" Cargo.toml \
        -newer "$1" \( -name '*.rs' -o -name '*.sh' -o -name '*.toml' \) -print -quit 2>/dev/null
}

bin_for() {
    case "$1" in
        cargo) echo "$TARGET/release/pyjama-ledger" ;;
        staged) echo "$STAGED/pyjama-ledger" ;;
    esac
}

build() {
    if CARGO_NET_RETRY=0 cargo build --release -p pyjama-ledger >"$TARGET/ledger-cargo.log" 2>&1; then
        echo cargo >"$STAMP"
        return
    fi
    echo "run.sh: cargo build failed (see $TARGET/ledger-cargo.log); using the staged rustc build" >&2
    # `run.sh test` builds the test binaries in the same go.
    bash "$HERE/build_staged.sh" "$STAGED" $WANT_TESTS >&2
    echo staged >"$STAMP"
}

WANT_TESTS=
[ "${1:-}" = test ] && WANT_TESTS=--tests
mkdir -p "$TARGET"
MODE=$(cat "$STAMP" 2>/dev/null || true)
BIN=$(bin_for "$MODE")
if [ -z "$BIN" ] || [ ! -x "$BIN" ] || [ -n "$(stale "$BIN")" ]; then
    build
    MODE=$(cat "$STAMP")
    BIN=$(bin_for "$MODE")
fi

export LEDGER_BUILD_MODE="$MODE"
export LEDGER_COMMIT=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
export LEDGER_RUSTC=$(rustc --version 2>/dev/null || echo unknown)

case "${1:-}" in
    compare)
        shift
        exec "$BIN" compare "$@"
        ;;
    test)
        if [ "$MODE" = cargo ]; then
            exec cargo test --release -p pyjama-ledger
        fi
        if [ ! -x "$STAGED/pyjama-ledger-smoke" ] || [ -n "$(stale "$STAGED/pyjama-ledger-smoke")" ]; then
            bash "$HERE/build_staged.sh" "$STAGED" --tests >&2
        fi
        "$STAGED/pyjama-ledger-unit"
        PYJAMA_LEDGER_BIN="$BIN" exec "$STAGED/pyjama-ledger-smoke"
        ;;
    *)
        exec "$BIN" run --out "$HERE/out" "$@"
        ;;
esac
