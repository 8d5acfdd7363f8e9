#!/usr/bin/env bash
# Snapshot the micro-benchmark trajectory.
#
# Runs every micro_* criterion bench in quick mode (LAHD_BENCH_QUICK=1:
# ~20x smaller warm-up/measurement budgets, a few seconds per bench) and
# folds the JSON-lines records the harness emits (LAHD_BENCH_JSON) into a
# single `BENCH_<n>.json` mapping "group/bench" -> median ns/iter.
#
# Usage:
#   scripts/bench_snapshot.sh [output.json]
#
# The output defaults to the next free BENCH_<n>.json at the workspace
# root, so each PR appends one snapshot and the sequence forms the perf
# trajectory (see PERF.md). The harness also emits dispersion fields
# (mad_ns, p10_ns, p90_ns) per record; only median_ns is folded here so
# snapshots stay comparable across shim versions. Compare two snapshots
# (with a regression threshold) via:
#   scripts/bench_compare.sh BENCH_1.json BENCH_2.json [threshold_pct]
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-}"
if [ -z "$out" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do
        n=$((n + 1))
    done
    out="BENCH_${n}.json"
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

LAHD_BENCH_QUICK=1 LAHD_BENCH_JSON="$tmp" cargo bench -p lahd-bench \
    --bench micro_matmul \
    --bench micro_gemv_i8 \
    --bench micro_inference_latency \
    --bench micro_fsm_step \
    --bench micro_serve_protocol \
    --bench micro_persist \
    --bench micro_train_episode \
    --bench micro_qbn_encode \
    --bench micro_sim_step \
    --bench micro_workload_gen

# Serving throughput and latency are not micro rows: the repository
# benchmark (perfbench/, see perfbench/README.md) measures them end to
# end against a real `lahd serve` child. Snapshots up to BENCH_8.json
# also carry serve_throughput/*, serve_latency/* and serve_streams/* rows
# from the retired `lahd serve-bench` perf phase; bench_compare.sh lists
# them as `gone`.

awk 'BEGIN { print "{"; first = 1 }
/"bench"/ {
    line = $0
    sub(/^\{"bench":"/, "", line)
    name = line; sub(/".*/, "", name)
    med = line; sub(/.*"median_ns":/, "", med); sub(/[,}].*/, "", med)
    if (!first) printf(",\n")
    first = 0
    printf("  \"%s\": %s", name, med)
}
END { print "\n}" }' "$tmp" > "$out"

echo "wrote $out ($(grep -c ':' "$out") benches)"
