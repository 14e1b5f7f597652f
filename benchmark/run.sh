#!/usr/bin/env bash
# Build the benchmark and the binary it drives (release mode, offline; the
# build is never part of a measurement), then run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--quick] [--out DIR]
#                    [--check-against PREV.json]
#       every workload, each in a fresh process; writes DIR/results.json
#       (default benchmark/out) and exits non-zero on a failed check
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is its JSON result
#   benchmark/run.sh agree A.json B.json
#       compare two result sets against the bounds in BENCHMARK.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
cd "$root"
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr and only on failure, so that stdout stays
# the benchmark's own.
build() {
    local log
    if ! log="$(cargo build --release --offline --quiet "$@" 2>&1)"; then
        printf '%s\n' "$log" >&2
        exit 1
    fi
}
build --manifest-path Cargo.toml -p simcal-exp
build --manifest-path benchmark/Cargo.toml

export SIMCAL_EXP_BIN="$target/release/simcal-exp"
exec "$target/release/simcal-perf" "$@"
