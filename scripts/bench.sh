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
# `scripts/bench.sh scale` (`make bench-scale`): runs the full-machine
# tentpole scenario (DESIGN.md §13 — 48K nodes, 131,072 ranks, the
# incremental waterfill's headline number), archives it as
# BENCH_SCALE_<date>.json, and FAILS if wall-clock regressed more than
# 2x against the most recent committed BENCH_SCALE_*.json baseline.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-quick}"

# total_wall_ms extracts the total from a bgqbench -json report without
# depending on jq.
total_wall_ms() {
    sed -n 's/.*"total_wall_ms":[[:space:]]*\([0-9.]*\).*/\1/p' "$1" | head -1
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
    ;;
*)
    echo "usage: scripts/bench.sh [quick|topo|scale]" >&2
    exit 2
    ;;
esac
