#!/usr/bin/env bash
# Runs every workload in two sets of runs and compares the second set
# against the first with BENCHMARK.json's bounds: the check that two
# sets of runs of the same code agree, and, run once on a parent commit
# and once on a change, the per-workload regression gate.
#
#   bash bench/run.sh [out-dir]
#
# Set A runs the workloads in order for each seed, set B in reverse
# order, so the host's drift over time does not favor one set. SEEDS
# (default "1 2 3 4 5") picks the seeds. Writes setA.jsonl and
# setB.jsonl to out-dir (default .bench_build/sets) and exits 1 when
# any (metric, workload) pair of set B is worse than set A.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/.bench_build/sets}
seeds=${SEEDS:-1 2 3 4 5}
seconds=$(grep -o '"run_seconds": *[0-9]*' "$root/BENCHMARK.json" | grep -o '[0-9]*$')
workloads=(serve-hot serve-cold serve-faults sim-mira)
mkdir -p "$out"
rm -f "$out/setA.jsonl" "$out/setB.jsonl"
for set in A B; do
	order=("${workloads[@]}")
	if [ "$set" = B ]; then
		order=()
		for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
			order+=("${workloads[i]}")
		done
	fi
	for seed in $seeds; do
		for w in "${order[@]}"; do
			echo "set $set seed $seed $w" >&2
			bash "$root/bench/bench.sh" --workload "$w" --seed "$seed" --seconds "$seconds" \
				--trace 0 --json "$out/set$set.jsonl" >/dev/null
		done
	done
done
bash "$root/bench/bench.sh" --compare "$out/setA.jsonl" "$out/setB.jsonl"
