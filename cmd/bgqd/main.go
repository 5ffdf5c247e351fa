// Command bgqd is the plan-serving daemon: a long-running service that
// answers point-to-point, group, aggregation, and full-scenario planning
// requests over HTTP/JSON, on a TCP port or a Unix socket.
//
// Usage:
//
//	bgqd [-listen host:port | -socket /path/bgqd.sock]
//	     [-workers N] [-queue N] [-shards N] [-retry-after dur]
//	     [-max-sessions N] [-session-idle dur] [-replay-events N]
//	     [-batch-window dur] [-drain-timeout dur]
//	     [-trace-events N] [-stats-window dur]
//	     [-slo-plan-p99 dur] [-slo-shed-ratio f] [-slo-resume-success f]
//	     [-replica-id ID [-peers addr,addr] [-gossip-interval dur] [-gossip-seed N]]
//
// The daemon runs a fixed worker pool behind a bounded admission queue:
// when the queue is full new requests are shed with 429 + Retry-After
// instead of queueing without bound. Identical concurrent requests are
// coalesced onto one computation and completed plans are cached until a
// fault event (POST /v1/fault) bumps the invalidation epoch. GET
// /metrics exposes the observability registry (latency histograms,
// queue depth, cache hit/miss/coalesce counters, shed count) as JSON.
//
// POST /v1/transfer runs long-lived resilient transfer sessions that
// stream progress frames and survive client disconnects; -max-sessions
// caps them, -session-idle reaps abandoned ones, -replay-events bounds
// each session's reconnect replay ring, and -batch-window enables
// Träff-style combining of small same-pair transfers.
//
// Telemetry plane: -trace-events keeps a bounded ring of wall-clock
// request/session spans served as a Perfetto trace on GET /v1/trace
// (0 disables tracing entirely); GET /metrics?format=prom serves the
// registry — including the rolling-window latency/shed/resume metrics
// over -stats-window — as Prometheus text. The -slo-* flags declare
// objectives evaluated over that window and served on GET /v1/slo:
// -slo-plan-p99 caps the windowed plan p99, -slo-shed-ratio caps
// shed/requests, -slo-resume-success floors resume_hits/resumes
// (negative ratio = objective off). Soak drivers gate on the
// cumulative breach counters.
//
// Every daemon is one replica of a bgqd cluster; without -peers it is a
// cluster of one. -replica-id names it (default bgqd) and must be
// unique per replica, so -peers, which lists the other replicas'
// addresses (TCP or unix socket forms, comma-separated), needs it.
// Fault events enter a gossiped, versioned epoch log: every replica
// that has applied the same events plans against the same faults, POST
// /v1/gossip is the peer wire, GET /v1/cluster the observability view,
// and plans stamped with an X-Bgq-Min-Vector the replica has not caught
// up to are rejected 503 rather than served stale. -gossip-interval
// paces the anti-entropy rounds that repair lost broadcasts.
//
// Flags are validated up front; a bad flag exits 2 with a one-line
// error. SIGINT/SIGTERM shut the daemon down gracefully: new sessions
// are refused while in-flight ones run to completion under
// -drain-timeout; sessions still running at the deadline are aborted at
// their next safe point and the daemon exits 1 so supervisors can see
// the drain was not clean. In-flight plan requests finish and the
// socket file is removed either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bgqflow/internal/obs"
	"bgqflow/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8347", "TCP listen address (host:port)")
	socket := flag.String("socket", "", "Unix socket path to serve on instead of TCP")
	workers := flag.Int("workers", 0, "plan-computation workers; 0 = one per CPU")
	queue := flag.Int("queue", 0, "admission queue depth; 0 = 4x workers")
	shards := flag.Int("shards", 0, "plan-cache shards; 0 = 16")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
	maxSessions := flag.Int("max-sessions", 0, "concurrent transfer-session cap; 0 = 4096")
	sessionIdle := flag.Duration("session-idle", 0, "reap sessions with no subscriber or heartbeat for this long; 0 = 60s")
	replayEvents := flag.Int("replay-events", 0, "per-session reconnect replay ring size; 0 = 256")
	batchWindow := flag.Duration("batch-window", 0, "combine small same-pair Batch transfers arriving within this window; 0 disables")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight sessions before they are aborted")
	traceEvents := flag.Int("trace-events", 65536, "wall-clock trace ring size served on /v1/trace; 0 disables tracing")
	statsWindow := flag.Duration("stats-window", 30*time.Second, "rolling window for windowed metrics and SLO evaluation")
	sloPlanP99 := flag.Duration("slo-plan-p99", 0, "SLO: windowed plan p99 must stay under this; 0 disables")
	sloShedRatio := flag.Float64("slo-shed-ratio", -1, "SLO: windowed shed/requests must stay under this ratio; negative disables")
	sloResume := flag.Float64("slo-resume-success", -1, "SLO: windowed resume_hits/resumes must stay at or above this ratio; negative disables")
	replicaID := flag.String("replica-id", "", "cluster replica ID, unique per replica (default bgqd; required with -peers)")
	peers := flag.String("peers", "", "comma-separated peer replica addresses (host:port or unix:///path)")
	gossipInterval := flag.Duration("gossip-interval", 0, "anti-entropy gossip round interval; 0 = 200ms")
	gossipSeed := flag.Int64("gossip-seed", 0, "gossip peer-selection seed (for reproducible soaks)")
	flag.Parse()

	if err := validate(*listen, *socket, *workers, *queue, *shards, *retryAfter,
		*maxSessions, *sessionIdle, *replayEvents, *batchWindow, *drainTimeout, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "bgqd: %v\n", err)
		os.Exit(2)
	}
	peerList, perr := validateCluster(*replicaID, *peers, *gossipInterval)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "bgqd: %v\n", perr)
		os.Exit(2)
	}
	slos, serr := buildSLOs(*traceEvents, *statsWindow, *sloPlanP99, *sloShedRatio, *sloResume)
	if serr != nil {
		fmt.Fprintf(os.Stderr, "bgqd: %v\n", serr)
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheShards:    *shards,
		RetryAfter:     *retryAfter,
		MaxSessions:    *maxSessions,
		SessionIdle:    *sessionIdle,
		ReplayEvents:   *replayEvents,
		BatchWindow:    *batchWindow,
		TraceEvents:    *traceEvents,
		StatsWindow:    *statsWindow,
		SLOs:           slos,
		ReplicaID:      *replicaID,
		Peers:          peerList,
		GossipInterval: *gossipInterval,
		GossipSeed:     *gossipSeed,
	})
	defer srv.Close()

	var (
		ln   net.Listener
		addr string
		err  error
	)
	if *socket != "" {
		// A stale socket file from a crashed daemon would fail the bind;
		// remove it only if nothing is listening there.
		if conn, derr := net.DialTimeout("unix", *socket, 200*time.Millisecond); derr == nil {
			conn.Close()
			fmt.Fprintf(os.Stderr, "bgqd: socket %s is already in use\n", *socket)
			os.Exit(1)
		}
		os.Remove(*socket)
		ln, err = net.Listen("unix", *socket)
		addr = "unix://" + *socket
		if err == nil {
			defer os.Remove(*socket)
		}
	} else {
		ln, err = net.Listen("tcp", *listen)
		if ln != nil {
			addr = ln.Addr().String()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bgqd: listen: %v\n", err)
		os.Exit(1)
	}

	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("bgqd: serving on %s\n", addr)
	if *replicaID != "" {
		gi := *gossipInterval
		if gi == 0 {
			gi = 200 * time.Millisecond // serve.Config's default
		}
		fmt.Printf("bgqd: cluster replica %s, %d peers, gossip every %v\n",
			*replicaID, len(peerList), gi)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Sessions drain before the HTTP server shuts down: streaming
		// subscribers hold their connections until the session delivers a
		// report frame, so Shutdown would otherwise hang on them.
		fmt.Fprintf(os.Stderr, "bgqd: draining sessions (timeout %v)\n", *drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		res := srv.Drain(drainCtx)
		cancelDrain()
		fmt.Fprintf(os.Stderr, "bgqd: drain: %d sessions finished, %d aborted in %.0fms\n",
			res.Drained, res.Aborted, res.ElapsedMS)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "bgqd: shutdown: %v\n", err)
			os.Exit(1)
		}
		if res.Aborted > 0 {
			// A dirty drain exits nonzero so supervisors and soak scripts
			// can tell "every session finished" from "clients must re-arm".
			if *socket != "" {
				os.Remove(*socket)
			}
			os.Exit(1)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bgqd: serve: %v\n", err)
			os.Exit(1)
		}
	}
}

// validate rejects bad flags before the daemon binds anything; errors
// print as one line and exit 2, matching bgqbench and bgqsim.
func validate(listen, socket string, workers, queue, shards int, retryAfter time.Duration,
	maxSessions int, sessionIdle time.Duration, replayEvents int, batchWindow, drainTimeout time.Duration, extra []string) error {
	if len(extra) > 0 {
		return fmt.Errorf("unexpected arguments: %v", extra)
	}
	if socket == "" {
		if listen == "" {
			return fmt.Errorf("one of -listen or -socket is required")
		}
		if _, _, err := net.SplitHostPort(listen); err != nil {
			return fmt.Errorf("-listen %q: %v", listen, err)
		}
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	if queue < 0 {
		return fmt.Errorf("-queue must be >= 0, got %d", queue)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", shards)
	}
	if retryAfter < 0 {
		return fmt.Errorf("-retry-after must be >= 0, got %v", retryAfter)
	}
	if maxSessions < 0 {
		return fmt.Errorf("-max-sessions must be >= 0, got %d", maxSessions)
	}
	if sessionIdle < 0 {
		return fmt.Errorf("-session-idle must be >= 0, got %v", sessionIdle)
	}
	if replayEvents < 0 {
		return fmt.Errorf("-replay-events must be >= 0, got %d", replayEvents)
	}
	if batchWindow < 0 {
		return fmt.Errorf("-batch-window must be >= 0, got %v", batchWindow)
	}
	if drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be > 0, got %v", drainTimeout)
	}
	return nil
}

// validateCluster checks the cluster flags and splits the peer list.
// A replica without peers is a cluster of one; peers without a replica
// ID is a misconfiguration, since two replicas that both default to
// bgqd would share an origin.
func validateCluster(replicaID, peers string, gossipInterval time.Duration) ([]string, error) {
	if gossipInterval < 0 {
		return nil, fmt.Errorf("-gossip-interval must be >= 0, got %v", gossipInterval)
	}
	if peers != "" && replicaID == "" {
		return nil, fmt.Errorf("-peers needs -replica-id")
	}
	if peers == "" {
		return nil, nil
	}
	var list []string
	for _, p := range strings.Split(peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-peers has an empty entry")
		}
		list = append(list, p)
	}
	return list, nil
}

// buildSLOs validates the telemetry flags and assembles the daemon's
// objective list. The metric names here are the windowed metrics the
// serve layer registers at startup, so a spec can never point at a
// metric that does not exist.
func buildSLOs(traceEvents int, statsWindow, planP99 time.Duration, shedRatio, resumeSuccess float64) ([]obs.SLOSpec, error) {
	if traceEvents < 0 {
		return nil, fmt.Errorf("-trace-events must be >= 0, got %d", traceEvents)
	}
	if statsWindow <= 0 {
		return nil, fmt.Errorf("-stats-window must be > 0, got %v", statsWindow)
	}
	if planP99 < 0 {
		return nil, fmt.Errorf("-slo-plan-p99 must be >= 0, got %v", planP99)
	}
	if shedRatio > 1 {
		return nil, fmt.Errorf("-slo-shed-ratio must be <= 1, got %g", shedRatio)
	}
	if resumeSuccess > 1 {
		return nil, fmt.Errorf("-slo-resume-success must be <= 1, got %g", resumeSuccess)
	}
	var slos []obs.SLOSpec
	if planP99 > 0 {
		slos = append(slos, obs.SLOSpec{
			Name: "plan_p99", Kind: obs.SLOLatencyP99,
			Metric:    "serve/window/plan_latency_ms",
			Threshold: float64(planP99) / 1e6,
		})
	}
	if shedRatio >= 0 {
		slos = append(slos, obs.SLOSpec{
			Name: "shed_ratio", Kind: obs.SLORatioMax,
			Metric: "serve/window/shed", Denominator: "serve/window/requests",
			Threshold: shedRatio,
		})
	}
	if resumeSuccess >= 0 {
		slos = append(slos, obs.SLOSpec{
			Name: "resume_success", Kind: obs.SLORatioMin,
			Metric: "serve/window/resume_hits", Denominator: "serve/window/resumes",
			Threshold: resumeSuccess,
		})
	}
	return slos, nil
}
