#!/bin/sh
# Benchmark entry points.
#
# Default (`make bench`): runs the quick bgqbench sweep, writes
# BENCH_<date>.json plus the observability metrics snapshot
# METRICS_<date>.json next to it, and prints a one-line wall-time
# comparison against the most recent previous BENCH_*.json so the
# performance trajectory is visible run over run.
#
# `scripts/bench.sh topo` (no make target; `make check-topo` runs only
# an audited quick `-run topo` and archives nothing): runs the
# cross-topology comparison sweep (torus vs dragonfly vs fat-tree,
# bgqbench -run topo) and archives it as BENCH_TOPO_<date>.json — the
# trajectory file for the pluggable-topology plane.
#
# `scripts/bench.sh scale [BASE]` (`make bench-scale [BASE=rev]`): runs
# the full-machine tentpole scenario (DESIGN.md §13 — 48K nodes, 131,072
# ranks, the incremental waterfill's headline number), archives it as
# BENCH_SCALE_<date>.json, and FAILS if wall-clock regressed more than
# 2x against the most recent committed BENCH_SCALE_*.json baseline.
# Given a base revision, it then extracts that revision with git archive
# into a temporary directory and runs `bgqbench -run scale` alternately
# on the base and on the working tree, three times each, on this host:
# it prints each side's median total_wall_ms, alloc_bytes and
# peak_rss_mb and their ratios, and FAILS if the working tree's median
# wall time is more than 25% above the base's. Peak RSS is reported
# only, never gated; a base whose reports lack it prints n/a.
#
# `scripts/bench.sh layers BASE` (`make bench-layers BASE=rev`): builds
# the test binaries of the packages holding the layer benchmarks, for the
# base revision (from git archive, in a temporary directory) and for the
# working tree, then runs the fixed list of layer benchmarks below on the
# two alternately, 8 rounds, the side that goes first alternating. Per
# benchmark it prints each side's median ns/op, B/op and allocs/op, the
# ns/op ratio (working tree / base), in how many rounds the working tree
# was faster, and the base's spread (the distance between its ns/op
# quartiles over its median). A benchmark one side lacks prints n/a. It
# only reports; it never fails on a number.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-quick}"

# total_wall_ms extracts the total from a bgqbench -json report without
# depending on jq; alloc_bytes likewise takes the first experiment's.
total_wall_ms() {
    sed -n 's/.*"total_wall_ms":[[:space:]]*\([0-9.]*\).*/\1/p' "$1" | head -1
}
alloc_bytes() {
    sed -n 's/.*"alloc_bytes":[[:space:]]*\([0-9.]*\).*/\1/p' "$1" | head -1
}
peak_rss_mb() {
    sed -n 's/.*"peak_rss_mb":[[:space:]]*\([0-9.]*\).*/\1/p' "$1" | head -1
}

# quartiles prints the lower quartile, the median and the upper quartile
# of the numbers given as arguments, as Python's statistics.quantiles(n=4)
# gives the quartiles, or n/a three times when there are none.
quartiles() {
    printf '%s\n' "$@" | sort -g | awk -v OFMT=%.15g '
        function q(p,   h, lo) {
            h = (n + 1) * p; lo = int(h)
            if (lo < 1) return v[1]
            if (lo >= n) return v[n]
            return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        $1 != "" { v[++n] = $1 }
        END { if (!n) print "n/a n/a n/a"; else print q(0.25), q(0.5), q(0.75) }'
}

# median prints the median of the numbers given as arguments, or n/a
# when there are none.
median() {
    # shellcheck disable=SC2046 # word splitting is the point
    set -- $(quartiles "$@")
    echo "$2"
}

# mb X prints "X MB", or n/a when X is empty or n/a.
mb() {
    case "${1:-n/a}" in n/a) echo n/a ;; *) echo "$1 MB" ;; esac
}

# ratio A B prints A / B to three places, or n/a when either is n/a.
ratio() {
    awk -v a="$1" -v b="$2" 'BEGIN { if (a == "n/a" || b == "n/a") print "n/a"; else printf "%.3f", a / b }'
}

# base_tree REV extracts revision REV with git archive into $tmp/base,
# $tmp being a temporary directory removed on exit.
base_tree() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mkdir "$tmp/base"
    git archive "$1" | tar -x -C "$tmp/base"
}

# alternate ROUNDS FN calls FN SIDE ROUND for the sides base and work in
# each of ROUNDS rounds. Which side goes first alternates, so a slow
# spell of the host does not always land on the same side.
alternate() {
    i=1
    while [ "$i" -le "$1" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi
        for side in $order; do "$2" "$side" "$i"; done
        i=$((i + 1))
    done
}

# scale_run SIDE ROUND runs `bgqbench -run scale` on one side and adds
# its wall time, allocation and peak RSS to that side's lists.
scale_run() {
    "$tmp/bgqbench-$1" -run scale -json "$tmp/$1-$2.json" > /dev/null
    wall=$(total_wall_ms "$tmp/$1-$2.json")
    alloc=$(alloc_bytes "$tmp/$1-$2.json")
    rss=$(peak_rss_mb "$tmp/$1-$2.json")
    echo "bench-scale: run $2 $1: ${wall} ms, ${alloc} B allocated, peak RSS $(mb "$rss")"
    if [ "$1" = base ]; then bw="$bw $wall" ba="$ba $alloc" br="$br $rss"; else ww="$ww $wall" wa="$wa $alloc" wr="$wr $rss"; fi
}

# scale_pairs BASE runs `bgqbench -run scale` three times each on the base
# revision and on the working tree, alternating, and gates their medians.
scale_pairs() {
    base_rev=$1
    base_tree "$base_rev"
    (cd "$tmp/base" && go build -o "$tmp/bgqbench-base" ./cmd/bgqbench)
    go build -o "$tmp/bgqbench-work" ./cmd/bgqbench
    bw="" ba="" br="" ww="" wa="" wr=""
    alternate 3 scale_run
    # shellcheck disable=SC2086 # word splitting is the point
    mbw=$(median $bw) mba=$(median $ba) mbr=$(median $br) mww=$(median $ww) mwa=$(median $wa) mwr=$(median $wr)
    echo "bench-scale: median wall ${mbw} ms (base $base_rev) vs ${mww} ms (working tree), ratio $(ratio "$mww" "$mbw")"
    echo "bench-scale: median alloc ${mba} B (base) vs ${mwa} B (working tree), ratio $(ratio "$mwa" "$mba")"
    echo "bench-scale: median peak RSS $(mb "$mbr") (base) vs $(mb "$mwr") (working tree), ratio $(ratio "$mwr" "$mbr")"
    if awk -v w="$mww" -v b="$mbw" 'BEGIN { exit !(w > 1.25 * b) }'; then
        echo "bench-scale: FAIL — the working tree's median ${mww} ms is more than 25% above the base's ${mbw} ms" >&2
        exit 1
    fi
}

# layer_benches lists the layer benchmarks `layers` runs, one
# "package benchmark" line each.
layer_benches='internal/serve BenchmarkComputePairCold
internal/serve BenchmarkComputeAggCold
internal/serve BenchmarkServePlanHit
internal/serve BenchmarkClientPlanHit
internal/serve BenchmarkDecodeEnvelope
internal/cluster BenchmarkLogApply
internal/netsim BenchmarkEngineSubmitRelease'
layer_rounds=8
layer_pkgs=$(echo "$layer_benches" | awk '{ print $1 }' | sort -u)

# layer_run SIDE ROUND runs the layer benchmarks once on one side and
# appends a "side round benchmark ns/op B/op allocs/op" line for each to
# $tmp/results.
layer_run() {
    if [ "$1" = base ]; then dir=$tmp/base; else dir=$(pwd); fi
    for pkg in $layer_pkgs; do
        names=$(echo "$layer_benches" | awk -v p="$pkg" '$1 == p { printf "%s%s", sep, $2; sep = "|" }')
        # Run from the package directory, as go test does.
        (cd "$dir/$pkg" && "$tmp/$1-$(echo "$pkg" | tr / _).test" -test.run '^$' \
            -test.bench "^($names)\$" -test.benchmem -test.timeout 10m) |
            awk -v side="$1" -v round="$2" '/^Benchmark/ {
                name = $1; sub(/-[0-9]+$/, "", name)
                ns = b = a = "n/a"
                for (f = 3; f <= NF; f++) {
                    if ($f == "ns/op") ns = $(f - 1)
                    if ($f == "B/op") b = $(f - 1)
                    if ($f == "allocs/op") a = $(f - 1)
                }
                print side, round, name, ns, b, a
            }' >> "$tmp/results"
    done
    echo "bench-layers: round $2 of $layer_rounds, $1 done" >&2
}

# layer_col SIDE BENCHMARK FIELD prints one field of a benchmark's
# results on one side, a line per round: 4 for ns/op, 5 for B/op, 6 for
# allocs/op.
layer_col() {
    awk -v s="$1" -v b="$2" -v f="$3" '$1 == s && $3 == b && $f != "n/a" { print $f }' "$tmp/results"
}

# layer_better BENCHMARK prints in how many of the rounds in which both
# sides ran it the working tree was faster, as k/N, or n/a.
layer_better() {
    awk -v b="$1" '$3 == b && $4 != "n/a" { ns[$1, $2] = $4 + 0; r[$2] = 1 }
        END {
            for (i in r) if ((("base", i) in ns) && (("work", i) in ns)) { n++; k += ns["work", i] < ns["base", i] }
            print n ? k "/" n : "n/a"
        }' "$tmp/results"
}

# layer_pairs BASE runs the layer benchmarks alternately on the base
# revision and on the working tree and prints their comparison.
layer_pairs() {
    base_rev=$1
    base_tree "$base_rev"
    for pkg in $layer_pkgs; do
        bin=$(echo "$pkg" | tr / _).test
        (cd "$tmp/base" && go test -c -o "$tmp/base-$bin" "./$pkg")
        go test -c -o "$tmp/work-$bin" "./$pkg"
    done
    : > "$tmp/results"
    alternate "$layer_rounds" layer_run
    echo "bench-layers: base $base_rev against the working tree, $layer_rounds alternating rounds, medians"
    row='%-29s %11s %11s %6s %6s %7s %10s %10s %7s %7s\n'
    # shellcheck disable=SC2059 # the format is the row
    printf "$row" benchmark "base ns/op" "work ns/op" ratio better spread "base B/op" "work B/op" "base al" "work al"
    echo "$layer_benches" | while read -r _ name; do
        # shellcheck disable=SC2046 # word splitting is the point
        set -- $(quartiles $(layer_col base "$name" 4))
        spread=$(awk -v q1="$1" -v m="$2" -v q3="$3" 'BEGIN { if (m == "n/a") print m; else printf "%.1f%%", 100 * (q3 - q1) / m }')
        wns=$(median $(layer_col work "$name" 4))
        # shellcheck disable=SC2046,SC2059
        printf "$row" "$name" "$2" "$wns" "$(ratio "$wns" "$2")" "$(layer_better "$name")" "$spread" \
            "$(median $(layer_col base "$name" 5))" "$(median $(layer_col work "$name" 5))" \
            "$(median $(layer_col base "$name" 6))" "$(median $(layer_col work "$name" 6))"
    done
}

case "$mode" in
quick)
    out="BENCH_$(date +%Y%m%d).json"
    metrics="METRICS_$(date +%Y%m%d).json"
    prev=$(ls BENCH_*.json 2>/dev/null | grep -v '^BENCH_SCALE_' | grep -v "^$out\$" | sort | tail -1 || true)

    if [ -n "$prev" ]; then
        go run ./cmd/bgqbench -quick -run all -json "$out" -metrics "$metrics" -compare "$prev" | tail -1
    else
        go run ./cmd/bgqbench -quick -run all -json "$out" -metrics "$metrics" > /dev/null
        echo "bench: wrote $out (no previous BENCH_*.json to compare against)"
    fi
    ;;
topo)
    out="BENCH_TOPO_$(date +%Y%m%d).json"
    prev=$(ls BENCH_TOPO_*.json 2>/dev/null | grep -v "^$out\$" | sort | tail -1 || true)

    go run ./cmd/bgqbench -run topo -json "$out" | grep -v '^\[' || true
    now=$(total_wall_ms "$out")
    if [ -n "$prev" ]; then
        echo "bench-topo: wrote $out (${now} ms; previous $prev)"
    else
        echo "bench-topo: wrote $out (${now} ms; first cross-topology bench point)"
    fi
    ;;
scale)
    out="BENCH_SCALE_$(date +%Y%m%d).json"
    prev=$(ls BENCH_SCALE_*.json 2>/dev/null | grep -v "^$out\$" | sort | tail -1 || true)

    go run ./cmd/bgqbench -run scale -json "$out" | grep -v '^\[' || true
    now=$(total_wall_ms "$out")
    if [ -z "$now" ]; then
        echo "bench-scale: no total_wall_ms in $out" >&2
        exit 1
    fi
    if [ -n "$prev" ]; then
        base=$(total_wall_ms "$prev")
        echo "bench-scale: wrote $out (${now} ms; baseline $prev at ${base} ms)"
        # Fail on a >2x wall-clock regression against the committed
        # baseline: the incremental engine's payoff is the number under
        # test here, so losing it should break the build.
        if awk -v n="$now" -v b="$base" 'BEGIN { exit !(n > 2 * b) }'; then
            echo "bench-scale: FAIL — ${now} ms is more than 2x the committed baseline ${base} ms" >&2
            exit 1
        fi
    else
        echo "bench-scale: wrote $out (${now} ms; no previous BENCH_SCALE_*.json to gate against)"
    fi
    if [ -n "${2:-}" ]; then
        scale_pairs "$2"
    fi
    ;;
layers)
    if [ -z "${2:-}" ]; then
        echo "usage: scripts/bench.sh layers BASE" >&2
        exit 2
    fi
    layer_pairs "$2"
    ;;
*)
    echo "usage: scripts/bench.sh [quick|topo|scale [BASE]|layers BASE]" >&2
    exit 2
    ;;
esac
