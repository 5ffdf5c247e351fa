#!/bin/sh
# Same outputs (`make same-outputs`): the checks that show a change kept
# every result of the repository, as ROADMAP.md defines them. It fails on
# the first difference.
#
#   1. `bgqbench -run all` matches the tracked bgqbench_full.txt, with
#      trailing blanks, blank lines and the run-to-run "completed in"
#      timing lines stripped from both;
#   2. the `-quick -run all` rows are identical at -parallel 1 and 4;
#   3. the example, example-scenario and served-plan goldens, the
#      corpus digests and the differential suites pass.
#
# The full sweep takes under a minute on a 2-vCPU VM.
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$GO" build -o "$tmp/bgqbench" ./cmd/bgqbench

norm() {
    sed 's/ *$//' "$1" | grep -v 'completed in' | grep -v '^$'
}

echo "same-outputs: bgqbench -run all against bgqbench_full.txt"
"$tmp/bgqbench" -run all > "$tmp/full.txt" 2>&1
norm bgqbench_full.txt > "$tmp/want.txt"
norm "$tmp/full.txt" > "$tmp/got.txt"
diff "$tmp/want.txt" "$tmp/got.txt"

echo "same-outputs: quick rows at -parallel 1 and 4"
"$tmp/bgqbench" -quick -run all -parallel 1 > "$tmp/seq.txt" 2>&1
"$tmp/bgqbench" -quick -run all -parallel 4 > "$tmp/par.txt" 2>&1
norm "$tmp/seq.txt" > "$tmp/seq.norm"
norm "$tmp/par.txt" > "$tmp/par.norm"
diff "$tmp/seq.norm" "$tmp/par.norm"

echo "same-outputs: goldens, corpus digests and differentials"
"$GO" test -count=1 -run '^TestExamplesGolden$' .
"$GO" test -count=1 -run '^TestExampleScenariosGolden$' ./internal/scenario
"$GO" test -count=1 -run '^TestServedPlansGolden$' ./internal/serve
"$GO" test -count=1 -run '^(TestCorporaDigests|TestDifferential.*)$' ./internal/check

echo "same-outputs: ok"
