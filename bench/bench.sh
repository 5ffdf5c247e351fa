#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it from the
# checkout root with the given arguments, e.g.
#
#   bash bench/bench.sh --workload serve-hot --seed 1 --seconds 16 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) goes under .bench_build/ in the checkout, and the toolchain
# never downloads: a build that needs the network fails instead.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
