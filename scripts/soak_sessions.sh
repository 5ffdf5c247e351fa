#!/bin/sh
# Chaos-soak gate for resilient transfer sessions: build bgqd and
# bgqload, spawn a real daemon on a Unix socket, and run many concurrent
# paced sessions against it while the driver posts fault events, forces
# client disconnects, and gives some sessions seeded fault campaigns.
# Mid-run the daemon is SIGTERM'd — in-flight sessions drain or abort at
# the -drain-timeout — and a replacement daemon comes up on the same
# socket; aborted clients re-arm their sessions against it. Gates
# (enforced by bgqload -sessions): zero lost, zero duplicated, zero
# mismatched sessions — every report byte-identical to a direct
# MoveResilient replay — plus at least one stream resume and one pushed
# mid-session fault. The session report is archived as
# SESSIONS_<date>.json.
#
# Telemetry runs throughout: the daemon keeps a wall-clock trace ring
# and a live SLO on the windowed session shed ratio (under 0.9).
# Deliberately NOT gated here: resume success — the restart makes the
# replacement daemon 404 every orphaned resume, so its first window is
# all misses by design and a zero-breach gate on it would fail every
# chaos run (the resume-success objective is gated against a stable
# daemon by the `make verify` selftest instead). bgqload -require-slo
# fails the run on any breach; the verdict snapshot lands in
# SLO_SESSIONS_<date>.json and the merged client+daemon+engine Perfetto
# trace — one trace ID per session across every disconnect and resume —
# in TRACE_SESSIONS_<date>.json (open in ui.perfetto.dev). The first
# daemon's trace ring would die with the SIGTERM, so right before the
# kill we snapshot it with `bgqload -dump-trace` and merge the dump into
# the final artifact via -trace-extra: the archive then carries server
# spans from BOTH daemon incarnations, and a sampled session shows its
# client attempts, pre-restart server spans, pushed-fault instants, and
# post-restart resume under one trace ID.
#
# Environment knobs: SOAK_SESSIONS (default 1000), SOAK_SEED (default
# 7), SOAK_PACE_US (default 20000), SOAK_RESTART_AFTER (seconds before
# the SIGTERM, default 2). SOAK_SHORT=1 shrinks the run (64 sessions,
# restart after 1s) for `make verify` and writes its three files under
# the gitignored .soak/ directory instead of the repository root: a
# smoke run is not a trajectory archive.
set -eu

cd "$(dirname "$0")/.."

sessions="${SOAK_SESSIONS:-1000}"
seed="${SOAK_SEED:-7}"
pace="${SOAK_PACE_US:-20000}"
restart_after="${SOAK_RESTART_AFTER:-2}"
archive=""
if [ "${SOAK_SHORT:-0}" = "1" ]; then
    sessions=64
    restart_after=1
    archive=".soak/"
    mkdir -p "$archive"
fi
out="${archive}SESSIONS_$(date +%Y%m%d).json"
slo_out="${archive}SLO_SESSIONS_$(date +%Y%m%d).json"
trace_out="${archive}TRACE_SESSIONS_$(date +%Y%m%d).json"

bindir=$(mktemp -d)
sock="$bindir/bgqd.sock"
trace_pre="$bindir/trace_pre_restart.json"
daemon_pid=""
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$bindir"' EXIT INT TERM

go build -o "$bindir/bgqd" ./cmd/bgqd
go build -o "$bindir/bgqload" ./cmd/bgqload

start_daemon() {
    "$bindir/bgqd" -socket "$sock" -drain-timeout 2s -batch-window 25ms \
        -trace-events 65536 -stats-window 10s -slo-shed-ratio 0.9 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "soak-sessions: bgqd never bound $sock" >&2
            exit 1
        fi
        sleep 0.05
    done
}

start_daemon

"$bindir/bgqload" \
    -addr "unix://$sock" -sessions "$sessions" -seed "$seed" \
    -pace-us "$pace" -campaign-every 5 -batch-every 3 -drop-every 4 \
    -fault-events 8 -min-resumes 1 -min-pushed-faults 1 \
    -require-slo -slo-out "$slo_out" \
    -trace-out "$trace_out" -trace-extra "$trace_pre" \
    -json "$out" &
load_pid=$!

# The replica restart: SIGTERM the daemon while sessions are in flight.
# Sessions that finish inside the drain deadline complete normally;
# the rest are aborted (the daemon exits 1 by design — tolerated here)
# and their clients re-arm against the replacement daemon. Snapshot the
# doomed daemon's trace ring first so its server spans survive into the
# merged artifact (best effort — a failed dump only thins the trace).
sleep "$restart_after"
"$bindir/bgqload" -dump-trace -addr "unix://$sock" -trace-out "$trace_pre" || true
kill -TERM "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
start_daemon

status=0
wait "$load_pid" || status=$?

kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true

if [ "$status" -eq 0 ]; then
    echo "soak-sessions: passed; report archived as $out, SLO verdicts as $slo_out, trace as $trace_out"
else
    echo "soak-sessions: FAILED (exit $status); report (if written): $out" >&2
fi
exit "$status"
