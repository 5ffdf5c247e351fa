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

# median prints the median of the numbers given as arguments, or n/a
# when there are none.
median() {
    printf '%s\n' "$@" | sort -g | awk '$1 != "" { v[++n] = $1 } END { if (!n) print "n/a"; else print (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }'
}

# mb X prints "X MB", or n/a when X is empty or n/a.
mb() {
    case "${1:-n/a}" in n/a) echo n/a ;; *) echo "$1 MB" ;; esac
}

# ratio A B prints A / B to three places, or n/a when either is n/a.
ratio() {
    awk -v a="$1" -v b="$2" 'BEGIN { if (a == "n/a" || b == "n/a") print "n/a"; else printf "%.3f", a / b }'
}

# scale_pairs BASE runs `bgqbench -run scale` three times each on the base
# revision and on the working tree, alternating, and gates their medians.
scale_pairs() {
    base_rev=$1
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mkdir "$tmp/src"
    git archive "$base_rev" | tar -x -C "$tmp/src"
    (cd "$tmp/src" && go build -o "$tmp/bgqbench-base" ./cmd/bgqbench)
    go build -o "$tmp/bgqbench-work" ./cmd/bgqbench
    bw="" ba="" br="" ww="" wa="" wr=""
    for i in 1 2 3; do
        # Alternate which side runs first, so a host slow spell does not
        # always land on the same side.
        if [ $((i % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi
        for side in $order; do
            "$tmp/bgqbench-$side" -run scale -json "$tmp/$side-$i.json" > /dev/null
            wall=$(total_wall_ms "$tmp/$side-$i.json")
            alloc=$(alloc_bytes "$tmp/$side-$i.json")
            rss=$(peak_rss_mb "$tmp/$side-$i.json")
            echo "bench-scale: run $i $side: ${wall} ms, ${alloc} B allocated, peak RSS $(mb "$rss")"
            if [ "$side" = base ]; then bw="$bw $wall" ba="$ba $alloc" br="$br $rss"; else ww="$ww $wall" wa="$wa $alloc" wr="$wr $rss"; fi
        done
    done
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
*)
    echo "usage: scripts/bench.sh [quick|topo|scale [BASE]]" >&2
    exit 2
    ;;
esac
