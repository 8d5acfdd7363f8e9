#!/usr/bin/env bash
# A/B runs of the repository benchmark: a base revision against the
# working tree, on the same machine, interleaved.
#
#   scripts/bench_ab.sh [pairs] [workloads] [seconds]
#
#   pairs      perfbench runs per side and workload (default 10); pair i
#              runs seed i on both sides, and the side that runs first
#              alternates from pair to pair
#   workloads  space-separated perfbench workloads
#              (default "serve-hot serve-churn")
#   seconds    measured seconds per run (default 20, BENCHMARK.json's)
#
# Environment:
#   BASE    base revision (default: `git merge-base HEAD main`)
#   AB_DIR  working directory (default: ${TMPDIR:-/tmp}/lahd-bench-ab).
#           It holds a `git archive` copy of BASE, a copy of the working
#           tree's tracked and untracked-but-not-ignored files, one
#           CARGO_TARGET_DIR per side (kept between invocations, so
#           rebuilds are incremental), and every run's result line
#           under runs/.
#
# Prints one row per run (its end-to-end metrics from `--trace 0`), then
# per workload and metric: each side's median and quartiles, the ratio of
# the medians (change / base), how far apart the medians are in units of
# the base's interquartile range, and in how many pairs the change won
# (by the metric's direction in BENCHMARK.json). It only reads
# BENCHMARK.json and perfbench/. A full default run takes about 40 minutes
# on a 2-vCPU box, so scripts/verify.sh does not call it. Results are only
# comparable on one machine; run nothing else heavy meanwhile.
set -euo pipefail

cd "$(dirname "$0")/.."
pairs=${1:-10}
workloads=${2:-serve-hot serve-churn}
seconds=${3:-20}
base=${BASE:-$(git merge-base HEAD main)}
dir=${AB_DIR:-${TMPDIR:-/tmp}/lahd-bench-ab}
runs="$dir/runs"

# End-to-end metric names and directions, in BENCHMARK.json order.
metrics=$(grep -o '"name": "[^"]*", "unit": "[^"]*", "better": "[a-z]*", "bound"' BENCHMARK.json |
    sed 's/"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)".*/\1:\2/')

echo "== base $(git rev-parse --short "$base"), change = working tree of $(git rev-parse --short HEAD)"
rm -rf "$dir/base" "$dir/change" "$runs"
mkdir -p "$dir/base" "$dir/change" "$runs"
git archive "$base" | tar -x -C "$dir/base"
git ls-files -co --exclude-standard | while IFS= read -r f; do
    if [ -e "$f" ]; then printf '%s\n' "$f"; fi
done | tar -cf - -T - | tar -x -C "$dir/change"

perfbench() { # side, then perfbench arguments
    local side=$1
    shift
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/$side-target" \
        cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- "$@")
}

for side in base change; do
    echo "== building $side"
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/$side-target" \
        cargo build --release --quiet --manifest-path perfbench/Cargo.toml)
done

printf '%-12s %4s %-6s %5s %6s' workload seed side first failed
for m in $metrics; do printf ' %s' "${m%%:*}"; done
echo
for wl in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        first=${order%% *}
        for side in $order; do
            out="$runs/$wl-$side-$seed.json"
            # A failed output check exits non-zero but still prints its
            # result line; keep it so the row shows the failure.
            perfbench "$side" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 |
                tail -n 1 >"$out" || true
            failed=$(grep -o '"failed":[0-9]*' "$out" | cut -d: -f2 || true)
            printf '%-12s %4s %-6s %5s %6s' "$wl" "$seed" "$side" \
                "$([ "$side" = "$first" ] && echo yes || echo no)" "${failed:-?}"
            for m in $metrics; do
                v=$(grep -o "\"${m%%:*}\":{\"value\":[-0-9.e+]*" "$out" | sed 's/.*"value"://' || true)
                printf ' %s' "${v:-?}"
            done
            echo
        done
    done
done

# Summary: one line per workload and metric.
echo
printf '%-12s %-18s %28s %28s %7s %9s %5s\n' workload metric \
    "base median [q1, q3]" "change median [q1, q3]" ratio "d/IQR" wins
for wl in $workloads; do
    for m in $metrics; do
        name=${m%%:*}
        better=${m##*:}
        for seed in $(seq 1 "$pairs"); do
            for side in base change; do
                v=$(grep -o "\"$name\":{\"value\":[-0-9.e+]*" "$runs/$wl-$side-$seed.json" |
                    sed 's/.*"value"://' || true)
                if [ -n "$v" ]; then echo "$side $seed $v"; fi
            done
        done | awk -v wl="$wl" -v name="$name" -v better="$better" '
            # Quantile by linear interpolation between order statistics.
            function q(a, n, p,    h, lo) {
                h = (n - 1) * p
                lo = int(h)
                return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
            }
            function sorted(side, out,    n, i, j, t) {
                n = 0
                for (k in val) if (k ~ "^" side " ") out[n++] = val[k]
                for (i = 1; i < n; i++)
                    for (j = i; j > 0 && out[j - 1] > out[j]; j--) {
                        t = out[j]; out[j] = out[j - 1]; out[j - 1] = t
                    }
                return n
            }
            { val[$1 " " $2] = $3; seeds[$2] = 1 }
            END {
                nb = sorted("base", b)
                nc = sorted("change", c)
                if (nb == 0 || nc == 0) { printf "%-12s %-18s no data\n", wl, name; exit }
                wins = 0; pairs = 0
                for (s in seeds) {
                    if (!(("base " s) in val) || !(("change " s) in val)) continue
                    pairs++
                    d = val["change " s] - val["base " s]
                    if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) wins++
                }
                mb = q(b, nb, 0.5); mc = q(c, nc, 0.5)
                iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
                printf "%-12s %-18s %10.6g [%.6g, %.6g] %10.6g [%.6g, %.6g] %7.3f %7s %2d/%-2d\n",
                    wl, name, mb, q(b, nb, 0.25), q(b, nb, 0.75),
                    mc, q(c, nc, 0.25), q(c, nc, 0.75),
                    (mb != 0 ? mc / mb : 0),
                    (iqr > 0 ? sprintf("%.2f", (mc - mb) / iqr) : "-"), wins, pairs
            }'
    done
done
