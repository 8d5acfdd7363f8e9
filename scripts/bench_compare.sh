#!/usr/bin/env bash
# Compare two BENCH_<n>.json snapshots and flag regressions.
#
# Tabulates the per-bench delta between an old and a new snapshot and exits
# non-zero if any bench shared by both files regressed (new median slower)
# by more than the threshold — a CI-ready perf guard around the trajectory:
#
#   scripts/bench_compare.sh BENCH_1.json BENCH_2.json            # 25% default
#   scripts/bench_compare.sh BENCH_1.json BENCH_2.json 10        # 10% threshold
#   LAHD_BENCH_THRESHOLD_PCT=50 scripts/bench_compare.sh a.json b.json
#
# The threshold is deliberately coarse by default: the criterion shim's
# quick mode reports medians with a MAD of a few percent on a quiet box
# (see PERF.md), so single-digit thresholds only make sense for full
# (non-quick) runs. Benches present in only one file are listed but never
# fail the check.
#
# Most rows store ns/iter, where bigger is worse. Rows whose name matches
# `per_sec` or `throughput` (e.g. fsm_step/compiled_batch8_decisions_per_sec)
# store a rate, where *smaller* is worse; the gate flips direction for
# those and flags `delta < -threshold`.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 OLD.json NEW.json [threshold_pct]" >&2
    exit 2
fi

old="$1"
new="$2"
threshold="${3:-${LAHD_BENCH_THRESHOLD_PCT:-25}}"

for f in "$old" "$new"; do
    [ -r "$f" ] || { echo "error: cannot read $f" >&2; exit 2; }
done

# BENCH_<n>.json is a flat string->number map; extract "name value" lines.
extract() {
    sed -n 's/^[[:space:]]*"\([^"]*\)":[[:space:]]*\([0-9.eE+-]*\).*$/\1 \2/p' "$1" | sort
}

join -a1 -a2 -e MISSING -o 0,1.2,2.2 <(extract "$old") <(extract "$new") |
awk -v thr="$threshold" -v fa="$old" -v fb="$new" '
BEGIN {
    printf("%-48s %14s %14s %9s\n", "bench", fa, fb, "delta")
    worst = 0
    failures = 0
}
{
    name = $1; a = $2; b = $3
    if (a == "MISSING") { printf("%-48s %14s %14.1f %9s\n", name, "-", b, "new"); next }
    if (b == "MISSING") { printf("%-48s %14.1f %14s %9s\n", name, a, "-", "gone"); next }
    delta = (b - a) / a * 100.0
    # Rate rows regress downward; everything else (ns/iter) upward.
    higher_is_better = (name ~ /per_sec|throughput/)
    severity = higher_is_better ? -delta : delta
    mark = ""
    if (severity > thr) { mark = "  REGRESSION"; failures++ }
    if (severity / thr > worst) worst = severity / thr
    printf("%-48s %14.1f %14.1f %+8.1f%%%s\n", name, a, b, delta, mark)
}
END {
    printf("\nworst severity at %.0f%% of the %s%% threshold\n", worst * 100, thr)
    if (failures > 0) {
        printf("%d bench(es) regressed beyond the threshold\n", failures)
        exit 1
    }
}'
