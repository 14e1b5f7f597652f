#!/usr/bin/env bash
# Do two runs of the same code agree? Runs the whole set twice, untraced and
# traced, and fails unless every end-to-end metric agrees within its bound
# in BENCHMARK.json and every result fingerprint and exact per-layer metric
# (calib.evals, calib.best_mre_pct, sim.events, every des.* counter, ...) is
# identical. The report (markdown) goes to stdout and OUT/agree.md.
#
#   benchmark/agree.sh [OUT]      OUT (absolute, or relative to the repository
#                                 root) defaults to benchmark/out
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
out="${1:-benchmark/out}"

"$here/run.sh" --traced --out "$out/agree-a"
"$here/run.sh" --traced --out "$out/agree-b"
"$here/run.sh" agree "$out/agree-a/results.json" "$out/agree-b/results.json" | tee "$out/agree.md"
