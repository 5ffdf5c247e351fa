GO ?= go

.PHONY: build test lint verify bench bench-scale bench-layers quick check check-topo same-outputs soak soak-sessions soak-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static checks: go vet over this module and the nested bench/ module
# (root ./... patterns skip nested modules, so an internal change that
# breaks the benchmark's build shows here), plus a gofmt cleanliness gate
# (gofmt -l prints offending files; any output fails the target).
lint:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Tier-1 verification: full build + static checks + tests (this module's
# and the bench/ module's), plus the race
# detector over the packages that run worker pools, one goroutine per
# simulated rank (mpisim), schedule failure events, or promise that one
# value serves concurrent transfers (core's PairPlanner; see ROADMAP.md),
# plus the differential-oracle suite, plus a
# 10-second bgqload smoke against an in-process daemon (zero 5xx,
# coalescing observed, zero SLO breaches), plus the short-mode session
# chaos soak (real daemon, mid-run SIGTERM/restart, byte-verified
# session reports, SLO-gated, merged Perfetto trace archived), plus the
# short-mode cluster chaos soak (three gossiping replicas, mid-run
# kill -9 and rejoin, zero stale plans).
#
# The telemetry gate also proves the disabled trace plane is free: the
# paired wall-span benchmark must report 0 B/op with tracing off, so
# the hot path never pays for observability nobody asked for.
verify: build lint check check-topo
	$(GO) test ./...
	cd bench && $(GO) test ./...
	$(GO) test -race ./internal/experiments ./internal/netsim ./internal/faultinject ./internal/serve ./internal/cluster ./internal/mpisim ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkWallSpan' -benchmem ./internal/obs | \
		awk '/^BenchmarkWallSpanDisabled/ { print; if ($$5 + 0 != 0 || $$7 + 0 != 0) { print "FAIL: disabled trace plane allocates"; exit 1 } found = 1 } END { if (!found) { print "FAIL: BenchmarkWallSpanDisabled did not run"; exit 1 } }'
	$(GO) run ./cmd/bgqload -selftest -duration 10s -rps 300 -agg-every 16 -seed 7 -require-coalesce -require-slo
	$(GO) run ./cmd/bgqload -selftest -sessions 8 -drop-every 3 -min-resumes 1 -require-slo
	SOAK_SHORT=1 ./scripts/soak_sessions.sh
	SOAK_SHORT=1 ./scripts/soak_cluster.sh

# Correctness oracle (DESIGN.md §11): the invariant + differential test
# suite (200 generated scenarios through both engines, the archived
# divergence corpus, and the mutation tests that prove each invariant
# still fires), invariant auditors over every experiment runner, a
# short randomized-fuzz smoke over the differential oracle, and 10-second
# fuzz smokes over the wire decoders: the X-Bgq-Min-Vector header, and
# POST /v1/fault, POST /v1/gossip, the plan request bodies (pair, group,
# agg, simulate) and POST /v1/transfer against an in-process daemon, the
# ndjson session frames the session client decodes, the plan
# response envelopes the client decodes (FuzzPlanEnvelope), and the
# one-pass scan that bounds and checks their plans (FuzzValueEnd).
check:
	$(GO) test ./internal/check
	$(GO) run ./cmd/bgqbench -check -quick -run all
	$(GO) test -fuzz='FuzzDifferential$$' -fuzztime=30s -run '^$$' ./internal/check
	$(GO) test -fuzz='FuzzParseVector$$' -fuzztime=10s -run '^$$' ./internal/cluster
	$(GO) test -fuzz='FuzzFaultEvent$$' -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz='FuzzGossipMessage$$' -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz='FuzzPlanRequest$$' -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz='FuzzTransferRequest$$' -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz='FuzzSessionFrames$$' -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz='FuzzPlanEnvelope$$' -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz='FuzzValueEnd$$' -fuzztime=10s -run '^$$' ./internal/serve

# Topology-plane oracle: the 200-seed dragonfly/fat-tree differential
# suite plus invariant audits and the topology round-trip/identity
# pins, an audited bgqbench cross-topology run, and a short fuzz smoke
# over the topology differential.
check-topo:
	$(GO) test -run 'Topo' -count=1 ./internal/check ./internal/netsim ./internal/scenario ./internal/serve
	$(GO) run ./cmd/bgqbench -check -quick -run topo
	$(GO) test -fuzz=FuzzDifferentialTopo -fuzztime=15s -run '^$$' ./internal/check

# Same outputs (ROADMAP.md): `bgqbench -run all` matches the tracked
# bgqbench_full.txt, the quick rows are identical at -parallel 1 and 4,
# and the example, example-scenario and served-plan goldens, the corpus
# digests and the differential suites pass. Fails on any difference.
# Under a minute; not part of `make verify` (it re-runs the full sweep),
# run it before merging a change that claims to keep every result.
same-outputs:
	GO=$(GO) ./scripts/same_outputs.sh

# Fast smoke run of every figure.
quick:
	$(GO) run ./cmd/bgqbench -quick -run all

# Figure benchmarks with allocation counts, then a bgqbench run that
# writes BENCH_<date>.json and prints a one-line comparison against the
# most recent previous BENCH_*.json (the performance trajectory).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
	./scripts/bench.sh

# Full-machine tentpole benchmark (DESIGN.md §13): 48K nodes / 131,072
# ranks through the incremental waterfill, archived as
# BENCH_SCALE_<date>.json. Fails on a >2x wall-clock regression against
# the most recent committed BENCH_SCALE_*.json. With BASE=<rev> it also
# runs that revision and the working tree alternately on this host,
# three times each, and fails if the working tree's median wall time is
# more than 25% above the base's. Not part of `make verify` (it is a
# multi-second perf gate, not a correctness gate); run it before merging
# engine-touching changes.
bench-scale:
	./scripts/bench.sh scale $(BASE)

# Paired layer benchmarks (ROADMAP.md item 3): builds the test binaries
# of BASE=<rev> (from git archive) beside the working tree's and runs a
# fixed list of layer benchmarks (plan compute, the cache hit's handler,
# client round trip and envelope decode, the metric registry's lookup,
# gossip log apply, the event queue's reschedule, engine submit/release)
# alternately, 8 rounds; per benchmark it prints both sides' medians, the
# ratio, the rounds the working tree won and the base's spread. Reports
# only, never gates.
bench-layers:
	./scripts/bench.sh layers $(BASE)

# Load/soak gate: spawn a real bgqd on a Unix socket, drive it with
# bgqload for 30s at a fixed request rate, fail on any 5xx, on a shed
# rate above 50%, or on a p99 regression against the checked-in baseline
# (scripts/soak_baseline.json). Archives the report as LOAD_<date>.json.
soak:
	./scripts/soak.sh

# Session chaos soak (DESIGN.md §14): 1000 concurrent resilient
# transfer sessions against a real bgqd with fault events, forced
# disconnects, and a mid-run SIGTERM/restart. Gates: zero lost, zero
# duplicated, zero mismatched sessions (every report byte-identical to
# a direct MoveResilient replay), with resumes and pushed faults
# actually exercised. Archives SESSIONS_<date>.json.
soak-sessions:
	./scripts/soak_sessions.sh

# Cluster chaos soak (DESIGN.md §17): three clustered bgqd replicas on
# Unix sockets driven through bgqload's consistent-hash ring mode with
# fault events interleaved into the load; one replica is kill -9'd at a
# third of the run and restarted at two thirds. Gates: zero stale plans
# (every response's fault-epoch vector dominates the client's demand),
# zero 5xx/transport errors, p99 within 5x the single-daemon baseline,
# no hot shard. Archives CLUSTER_<date>.json.
soak-cluster:
	./scripts/soak_cluster.sh
