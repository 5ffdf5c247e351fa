#!/bin/sh
# Cluster chaos-soak gate (DESIGN.md §17): build bgqd and bgqload, spawn
# THREE clustered replicas on Unix sockets — each with -replica-id and
# the other two as gossip -peers — and drive the fleet through bgqload's
# ring mode: every request routed by the consistent-hash ring, a seeded
# fault event posted alongside every Nth request (rotating across
# replicas, so origination and gossip dissemination are exercised
# everywhere), and the report broken down per replica.
#
# Chaos: at one third of the run, one replica is kill -9'd — no drain,
# no goodbye. The ring client fails its keys over to the successors; the
# fleet keeps serving. At two thirds, the replica is restarted on the
# same socket with an empty fault log: its anti-entropy pull repairs the
# missed epochs from the peers, and the min-vector check 503s (rather
# than serves stale) any plan that arrives before it has caught up.
#
# Gates (enforced by bgqload ring mode, exit 1 when violated):
#   - zero stale plans: any response whose fault-epoch vector does not
#     dominate the client's demanded min vector fails the run — the
#     headline consistency gate, checked client-side against the oracle;
#   - zero 5xx and zero transport errors beyond the shed budget (shed
#     rate capped at 0.5; 429s are not retried, so the count is exact);
#   - p99 within 5x the checked-in single-daemon baseline
#     (scripts/soak_baseline.json) — failover is allowed to cost, but
#     not an order of magnitude;
#   - no hot shard: no single replica answers more than 80% of the
#     replica-attributed requests;
#   - coalescing/caching observed somewhere in the fleet (the summed
#     counters), despite the fault posts invalidating as they land.
#
# The full report — per-replica latency/shed breakdown, fault-post
# counts, stale counters, summed server metrics — is archived as
# CLUSTER_<date>.json.
#
# Environment knobs: SOAK_DURATION (default 30s), SOAK_RPS (default
# 400), SOAK_SEED (default 7), SOAK_FAULT_EVERY (default 50).
# SOAK_SHORT=1 shrinks the run (9s) for `make verify` and writes its
# report under the gitignored .soak/ directory instead of the repository
# root: a smoke run is not a trajectory archive.
set -eu

cd "$(dirname "$0")/.."

duration="${SOAK_DURATION:-30s}"
rps="${SOAK_RPS:-400}"
seed="${SOAK_SEED:-7}"
fault_every="${SOAK_FAULT_EVERY:-50}"
archive=""
if [ "${SOAK_SHORT:-0}" = "1" ]; then
    duration=9s
    archive=".soak/"
    mkdir -p "$archive"
fi
# Chaos points: kill at 1/3 of the run, restart at 2/3.
dur_secs=$(printf '%s' "$duration" | sed 's/s$//')
kill_after=$((dur_secs / 3))
restart_after=$((dur_secs / 3))
out="${archive}CLUSTER_$(date +%Y%m%d).json"

bindir=$(mktemp -d)
r0_pid=""; r1_pid=""; r2_pid=""
trap 'kill "$r0_pid" "$r1_pid" "$r2_pid" 2>/dev/null || true; rm -rf "$bindir"' EXIT INT TERM

go build -o "$bindir/bgqd" ./cmd/bgqd
go build -o "$bindir/bgqload" ./cmd/bgqload

s0="$bindir/r0.sock"; s1="$bindir/r1.sock"; s2="$bindir/r2.sock"

# start_replica <id> <own-socket> <peer-socket> <peer-socket> <seed>
start_replica() {
    "$bindir/bgqd" -socket "$2" \
        -replica-id "$1" -peers "unix://$3,unix://$4" \
        -gossip-interval 50ms -gossip-seed "$5" &
}

wait_sock() {
    i=0
    while [ ! -S "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "soak-cluster: bgqd never bound $1" >&2
            exit 1
        fi
        sleep 0.05
    done
}

start_replica r0 "$s0" "$s1" "$s2" 1; r0_pid=$!
start_replica r1 "$s1" "$s0" "$s2" 2; r1_pid=$!
start_replica r2 "$s2" "$s0" "$s1" 3; r2_pid=$!
wait_sock "$s0"; wait_sock "$s1"; wait_sock "$s2"

"$bindir/bgqload" \
    -addrs "r0=unix://$s0,r1=unix://$s1,r2=unix://$s2" \
    -duration "$duration" -mode open -rps "$rps" -seed "$seed" \
    -fault-every "$fault_every" -agg-every 16 \
    -require-coalesce -max-shed-rate 0.5 -max-replica-share 0.8 \
    -baseline scripts/soak_baseline.json -p99-ratio 5 \
    -json "$out" &
load_pid=$!

# The chaos: kill -9 one replica mid-run (no drain — this is the
# crash case, not the restart case soak_sessions covers), then bring it
# back later with an empty fault log so the anti-entropy pull has real
# repair work to do.
sleep "$kill_after"
echo "soak-cluster: kill -9 replica r2"
kill -9 "$r2_pid" 2>/dev/null || true
wait "$r2_pid" 2>/dev/null || true
r2_pid=""

sleep "$restart_after"
echo "soak-cluster: restarting replica r2"
start_replica r2 "$s2" "$s0" "$s1" 4; r2_pid=$!
wait_sock "$s2"

status=0
wait "$load_pid" || status=$?

kill "$r0_pid" "$r1_pid" "$r2_pid" 2>/dev/null || true
wait "$r0_pid" "$r1_pid" "$r2_pid" 2>/dev/null || true

if [ "$status" -eq 0 ]; then
    echo "soak-cluster: passed; report archived as $out"
else
    echo "soak-cluster: FAILED (exit $status); report (if written): $out" >&2
fi
exit "$status"
