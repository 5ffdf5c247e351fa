package serve

import (
	"net/http"
	"strconv"
	"time"

	"bgqflow/internal/obs"
)

// Telemetry plane (DESIGN.md §15): end-to-end request tracing plus
// windowed service metrics and SLO verdicts.
//
//   - Trace propagation: clients stamp X-Bgq-Trace-Id / X-Bgq-Span-Id on
//     every request; the daemon threads the trace through the dispatcher
//     queue, cache lookup, and session lifecycle, and echoes it back so
//     either side can start the correlation. A session stores its trace
//     at creation and every resume continues it.
//   - Wall/sim alignment: the daemon's obs.WallRecorder collects
//     wall-clock spans (pid 1) and each session merges its private
//     sim-clock engine recorder (pid 2) under the same trace ID.
//     GET /v1/trace snapshots the rings as one Perfetto file.
//   - Windowed metrics: serve/window/* rolling counters and histograms
//     back GET /metrics?format=prom and the SLO tracker.
//   - SLOs: named objectives evaluated on a timer; GET /v1/slo returns
//     verdicts with cumulative burn counters for soak gating.

// Trace and phase-timing headers. Requests carry the first two; a plan
// response echoes the trace and carries queue and compute only when this
// request computed the plan (the client reads an absent header as 0).
const (
	HeaderTraceID   = "X-Bgq-Trace-Id"
	HeaderSpanID    = "X-Bgq-Span-Id"
	HeaderQueueMS   = "X-Bgq-Queue-Ms"
	HeaderComputeMS = "X-Bgq-Compute-Ms"
)

// Cluster headers (DESIGN.md §17). Plan responses and fault acks carry
// the replica ID that served the request (the envelope carries the
// fault-epoch vector it was served under); requests may carry a minimum
// vector the serving replica must have applied — a replica that is
// behind rejects with 503 so the client's backoff rides out gossip
// propagation instead of reading a stale plan.
const (
	HeaderReplica   = "X-Bgq-Replica"
	HeaderMinVector = "X-Bgq-Min-Vector"
)

// traceID resolves a request's trace: the client's header if stamped,
// else a fresh ID — but only when tracing is enabled (the disabled path
// must not allocate).
func (s *Server) traceID(r *http.Request) string {
	if t := r.Header.Get(HeaderTraceID); t != "" {
		return t
	}
	if s.wall == nil {
		return ""
	}
	return obs.NewTraceID()
}

// setMSHeader writes a phase duration as a millisecond header value.
func setMSHeader(h http.Header, key string, d time.Duration) {
	h.Set(key, strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64))
}

// handleTrace serves the recent span rings as a Chrome/Perfetto trace
// file (GET /v1/trace).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.wall == nil {
		writeJSON(w, http.StatusNotFound,
			planEnvelope{Error: "serve: tracing disabled (start bgqd with -trace-events > 0)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.wall.WriteChromeTrace(w)
}

// handleSLO evaluates the configured objectives now (GET /v1/slo).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.SLOSnapshot())
}

// SLOSnapshot evaluates the configured objectives; Enabled is false when
// the daemon runs without SLO specs.
func (s *Server) SLOSnapshot() obs.SLOSnapshot {
	if s.slo == nil {
		return obs.SLOSnapshot{}
	}
	return obs.SLOSnapshot{
		Enabled:   true,
		WindowSec: s.cfg.StatsWindow.Seconds(),
		Verdicts:  s.slo.Evaluate(),
	}
}

// WallRecorder exposes the daemon's trace plane (nil when disabled);
// embedders merge it with client-side traces.
func (s *Server) WallRecorder() *obs.WallRecorder { return s.wall }

// sloLoop evaluates the objectives on a timer so burn counters
// accumulate over the whole run, not just when someone polls /v1/slo.
func (s *Server) sloLoop(interval time.Duration) {
	defer close(s.sloDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.sloStop:
			return
		case <-tick.C:
			s.slo.Evaluate()
		}
	}
}
